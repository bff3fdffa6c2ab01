"""`tools/pairs.py`'s summary on canned result lines; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _line(tree, pair, ops, setup, failed=0, workload="gradcheck"):
    return {"workload": workload, "tree": tree, "pair": pair, "seed": pair,
            "order": 1 if (tree == "parent") == (pair % 2 == 1) else 2, "exit": 0,
            "correct": failed == 0, "attempted": 7, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_medians_quartiles_and_wins():
    parent_ops = [2.0, 2.2, 1.8, 2.4, 2.1]
    change_ops = [2.5, 2.2, 2.6, 2.3, 2.15]      # wins pairs 1, 3, 5; tie in 2; loses 4
    setups = [(0.05, 0.04), (0.05, 0.05), (0.04, 0.06), (0.05, 0.04), (0.06, 0.05)]
    lines = []
    for pair, (p_ops, c_ops, (p_set, c_set)) in enumerate(
            zip(parent_ops, change_ops, setups), start=1):
        lines += [_line("parent", pair, p_ops, p_set), _line("change", pair, c_ops, c_set)]
    lines.append(_line("change", 6, 9.9, 0.01))    # no parent run in pair 6: not scored
    ops, setup = pairs.summarize(lines, METRICS)
    assert (ops["workload"], ops["metric"], ops["better"]) == ("gradcheck", "ops_per_s", "higher")
    assert ops["parent_median"] == 2.1 and ops["change_median"] == 2.4
    assert (ops["parent_q1"], ops["parent_q3"]) == (2.0, 2.2)
    assert (ops["change_wins"], ops["parent_wins"], ops["pairs"]) == (3, 1, 5)
    # lower is better: the change wins pairs 1, 4 and 5 and loses pair 3
    assert (setup["change_wins"], setup["parent_wins"], setup["pairs"]) == (3, 1, 5)
    assert setup["parent_median"] == 0.05 and setup["change_median"] == 0.045


def test_summary_counts_failures_and_runs_without_a_result():
    lines = [_line("parent", 1, 2.0, 0.05), _line("change", 1, 2.5, 0.04, failed=2),
             {"workload": "gradcheck", "tree": "parent", "pair": 2, "seed": 2, "order": 2,
              "exit": 2, "error": "perfbench: set-up failed"},
             _line("change", 2, 2.4, 0.04)]
    (ops, _) = pairs.summarize(lines, METRICS)
    assert ops["pairs"] == 1 and ops["change_wins"] == 1
    fails = pairs.failures(lines)
    assert fails["gradcheck", "parent"] == (0, 7, 1)
    assert fails["gradcheck", "change"] == (2, 14, 1)
    text = pairs.format_summary([ops], fails)
    assert "1/1" in text and "gradcheck change: 2 of 14 operations failed, 1 runs not correct" in text


def test_summary_flags_a_median_worse_than_its_bound():
    """A `train` `setup_s` of 0.172 -> 0.223 s is 30% worse, over the 0.25
    bound; 0.172 -> 0.19 s is not. Faster `ops_per_s` is a positive gain."""
    rows = {}
    for c_setup in (0.223, 0.19):
        lines = [_line("parent", 1, 2.0, 0.172, workload="train"),
                 _line("change", 1, 2.5, c_setup, workload="train")]
        ops, setup = pairs.summarize(lines, METRICS)
        rows[c_setup] = setup
        assert ops["gain"] == 0.25 and not ops["over_bound"]
    assert rows[0.223]["gain"] < -0.25 and rows[0.223]["over_bound"]
    assert -0.25 < rows[0.19]["gain"] < 0 and not rows[0.19]["over_bound"]
    text = pairs.format_summary([rows[0.223], rows[0.19]], {})
    assert text.count("over bound") == 1 and "-29.7%" in text and "-10.5%" in text


def test_paired_gain_is_the_median_of_per_pair_changes():
    """Drift moves both runs of a pair: the change is 10% faster in pairs 1
    and 2 and 10% slower in pair 3, which ran on a slow host. The paired gain
    reads +10% where the ratio of medians reads -10%. For a lower-is-better
    metric a per-pair drop is a positive change."""
    lines = []
    for pair, (p_ops, c_ops, p_set, c_set) in enumerate(
            [(100.0, 110.0, 0.2, 0.1), (300.0, 330.0, 0.1, 0.11), (200.0, 180.0, 0.4, 0.2)],
            start=1):
        lines += [_line("parent", pair, p_ops, p_set), _line("change", pair, c_ops, c_set)]
    ops, setup = pairs.summarize(lines, METRICS)
    assert ops["gain"] == pytest.approx(-0.1) and ops["paired_gain"] == pytest.approx(0.1)
    assert setup["paired_gain"] == pytest.approx(0.5)
    text = pairs.format_summary([ops, setup], {})
    assert "paired gain" in text.splitlines()[0]
    assert "-10.0%" in text and "+10.0%" in text and "+50.0%" in text


def test_paired_gain_without_a_scored_pair_prints_a_dash():
    lines = [_line("parent", 1, 2.0, 0.05), _line("change", 2, 2.5, 0.04)]
    ops, _ = pairs.summarize(lines, METRICS)
    assert ops["pairs"] == 0 and ops["paired_gain"] is None
    assert pairs.format_summary([ops], {}).splitlines()[1].split()[-1] == "-"


def _with_usage(line, faults, sys_s):
    return {**line, "minor_faults": faults, "sys_s": sys_s}


def test_usage_medians_skip_lines_without_the_fields():
    """Committed `BENCH_*.json` lines carry no fault or system-CPU fields:
    they still summarize, and only the lines that carry both give medians."""
    lines = [_with_usage(_line("parent", 1, 2.0, 0.05, workload="train"), 54000, 0.12),
             _with_usage(_line("change", 1, 2.2, 0.05, workload="train"), 900, 0.004),
             _with_usage(_line("parent", 2, 2.1, 0.05, workload="train"), 56000, 0.10),
             _with_usage(_line("change", 2, 2.3, 0.05, workload="train"), 1100, 0.002),
             _line("parent", 3, 1.9, 0.05, workload="train"),
             _line("change", 3, 2.0, 0.05, workload="train"),
             _line("parent", 1, 9.0, 0.02)]             # gradcheck: no fields at all
    ops, _ = pairs.summarize(lines, METRICS)
    assert ops["workload"] == "train" and ops["pairs"] == 3 and ops["change_wins"] == 3
    use = pairs.usage(lines)
    assert use == {("train", "parent"): (55000, 0.11, 2), ("train", "change"): (1000, 0.003, 2)}
    text = pairs.format_summary([ops], pairs.failures(lines), use)
    assert "train parent: median 55000 minor faults, 0.110 s system CPU per run (2 runs)" in text
    assert "train change: median 1000 minor faults, 0.003 s system CPU per run (2 runs)" in text
    assert "gradcheck parent: median" not in text


def _stub_tree(root, ops_offset):
    """A checkout whose `perfbench/run.py` reports `ops_per_s` = its seed +
    `ops_offset`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        'print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": '
        f'{{"ops_per_s": {{"value": seed + {ops_offset}, "unit": "1/s"}}}}}}))\n')
    return root


def test_a_second_invocation_numbers_its_pairs_and_seeds_on(tmp_path):
    """Two invocations appending to one file give pairs 1-2 and then 3-4,
    each with its own seed, so the file's lines summarize as four pairs; a
    pair of another workload in the file does not move the numbering."""
    dirs = {"parent": _stub_tree(tmp_path / "p", 0), "change": _stub_tree(tmp_path / "c", 0.5)}
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps(_line("parent", 7, 1.0, 0.1, workload="train")) + "\n")
    for _ in range(2):
        pairs.run_pairs(dirs, "gradcheck", 2, 0.1, out)
    lines = [json.loads(line) for line in out.read_text().splitlines()][1:]
    assert [(r["pair"], r["seed"], r["tree"]) for r in lines] == [
        (1, 1, "parent"), (1, 1, "change"), (2, 2, "change"), (2, 2, "parent"),
        (3, 3, "parent"), (3, 3, "change"), (4, 4, "change"), (4, 4, "parent")]
    assert all(r["metrics"]["ops_per_s"]["value"] == r["seed"] + 0.5 * (r["tree"] == "change")
               for r in lines)
    (ops,) = pairs.summarize(lines, METRICS)      # the stub reports no setup_s
    assert (ops["pairs"], ops["change_wins"], ops["parent_median"]) == (4, 4, 2.5)
    assert pairs.next_pair(out, "gradcheck") == 5 and pairs.next_pair(out, "train") == 8


def test_run_once_records_the_childs_faults_and_system_cpu(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'import json\nprint(json.dumps({"correct": True, "attempted": 1, "failed": 0, '
        '"metrics": {}}))\n')
    run = pairs.run_once(tmp_path, "train", 1, 0.1)
    assert run["exit"] == 0 and run["correct"] is True
    assert isinstance(run["minor_faults"], int) and run["minor_faults"] > 0
    assert run["sys_s"] >= 0.0
