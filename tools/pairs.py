"""Alternating parent/change benchmark pairs: one command instead of a
throwaway loop per performance change.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --out FILE

runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, each run in a fresh process started from that checkout's root,
for N pairs, with T the `run_seconds` of this repository's `BENCHMARK.json`.
The pairs are numbered on from the highest pair FILE already holds for W
(from 1 when it holds none), so a second invocation that appends to the same
FILE adds pairs and seeds instead of repeating them. Pair i uses seed i on
both trees; odd pairs run the parent first and even pairs the change first.

Every run appends one JSON line to FILE as soon as it ends: its tree, pair,
seed, order (1 or 2 within the pair), exit code, the process's minor page
faults and system CPU seconds (`minor_faults`, `sys_s`: the
`getrusage(RUSAGE_CHILDREN)` delta around the run, so only that child's
own accounting), and the run's JSON result (`correct`, `attempted`,
`failed`, `metrics`), or the tail of its stderr when it printed none. At
the end the tool prints, for each end-to-end metric of `BENCHMARK.json`,
both medians, the parent's quartiles (inclusive method), the number of
pairs the change won, ties counting for neither side, the change of the
median relative to the parent's, positive when better, and the paired
gain: the median over the pairs of the change's relative change against the
parent run of its own pair. The host drifts over minutes, and the two runs
of one pair share most of that drift, so the paired gain cancels most of it.
`over bound` marks a change of the median worse than the metric's `bound`.
Then each tree's median minor faults and system CPU per run, over the runs
that recorded them, and the failed operations of each tree. The summary
covers every run of W that FILE holds, earlier invocations' included. Exit
0 when every run of this invocation passed its correctness checks, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
STDERR_TAIL = 2000      # characters of stderr kept for a run that printed no result


def run_once(tree_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` process in `tree_dir`; its exit code, page
    faults, system CPU and result."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree_dir, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = {"exit": proc.returncode, "minor_faults": after.ru_minflt - before.ru_minflt,
           "sys_s": after.ru_stime - before.ru_stime}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {**run, "error": proc.stderr[-STDERR_TAIL:]}
    return {**run, **result}


def held(out: Path, workload: str) -> list[dict]:
    """The runs of `workload` that `out` holds, in file order."""
    if not out.exists():
        return []
    records = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
    return [r for r in records if r["workload"] == workload]


def next_pair(out: Path, workload: str) -> int:
    """One past the highest pair `out` holds for `workload`; 1 when it holds none."""
    return 1 + max((r["pair"] for r in held(out, workload)), default=0)


def run_pairs(dirs: dict[str, Path], workload: str, pairs: int, seconds: float,
              out: Path) -> list[dict]:
    records = []
    first = next_pair(out, workload)
    with open(out, "a") as f:
        for pair in range(first, first + pairs):
            order = TREES if pair % 2 else TREES[::-1]
            for position, tree in enumerate(order, start=1):
                record = {"workload": workload, "tree": tree, "pair": pair, "seed": pair,
                          "order": position, "seconds": seconds,
                          **run_once(dirs[tree], workload, pair, seconds)}
                f.write(json.dumps(record) + "\n")
                f.flush()
                records.append(record)
                print(f"# pair {pair} {tree}: exit {record['exit']} "
                      f"minor_faults={record['minor_faults']} sys_s={record['sys_s']:.3f} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in record.get("metrics", {}).items()), flush=True)
    return records


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric): each tree's median over all
    its runs, the parent's quartiles, each side's wins over the pairs in
    which both trees gave the metric, the change of the median relative
    to the parent's (`gain`, positive when better), `over_bound` when it is
    worse than the metric's `bound`, and the median of the per-pair relative
    changes over those pairs (`paired_gain`, positive when better; None
    without a pair)."""
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        runs = {(r["tree"], r["pair"]): r for r in records if r["workload"] == workload}
        for metric in metrics:
            name = metric["name"]
            value = {key: r["metrics"][name]["value"] for key, r in runs.items()
                     if name in r.get("metrics", {})}
            parent = [v for (t, _), v in value.items() if t == "parent"]
            change = [v for (t, _), v in value.items() if t == "change"]
            if not parent or not change:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            scored = sorted(p for t, p in value if t == "parent" and ("change", p) in value)
            margins = [sign * (value["change", p] - value["parent", p]) for p in scored]
            paired = [m / value["parent", p] for m, p in zip(margins, scored)]
            q1, q3 = quartiles(parent)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            gain = sign * (c_med - p_med) / p_med
            rows.append({
                "workload": workload, "metric": name, "better": metric["better"],
                "parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
                "change_median": c_med, "gain": gain, "over_bound": -gain > metric["bound"],
                "change_wins": sum(m > 0 for m in margins),
                "parent_wins": sum(m < 0 for m in margins), "pairs": len(scored),
                "paired_gain": statistics.median(paired) if paired else None,
            })
    return rows


def failures(records: list[dict]) -> dict[tuple[str, str], tuple[int, int, int]]:
    """(workload, tree) -> (failed operations, attempted operations, runs not correct)."""
    out: dict[tuple[str, str], tuple[int, int, int]] = {}
    for r in records:
        failed, attempted, bad = out.get((r["workload"], r["tree"]), (0, 0, 0))
        out[r["workload"], r["tree"]] = (failed + r.get("failed", 0),
                                         attempted + r.get("attempted", 0),
                                         bad + (not r.get("correct", False)))
    return out


def usage(records: list[dict]) -> dict[tuple[str, str], tuple[float, float, int]]:
    """(workload, tree) -> (median minor faults, median system CPU seconds,
    runs) over the runs that recorded them; trees with none are left out."""
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for r in records:
        if "minor_faults" in r:
            out.setdefault((r["workload"], r["tree"]), []).append((r["minor_faults"], r["sys_s"]))
    return {key: (statistics.median(f for f, _ in runs), statistics.median(s for _, s in runs),
                  len(runs))
            for key, runs in out.items()}


def format_summary(rows: list[dict], fails: dict, use: dict | None = None) -> str:
    lines = [f"{'workload':<10} {'metric':<12} {'parent median':>14} {'parent q1':>11} "
             f"{'parent q3':>11} {'change median':>14} {'change wins':>12} {'gain':>8} "
             f"{'paired gain':>12}"]
    for row in rows:
        paired = "-" if row["paired_gain"] is None else f"{row['paired_gain']:+.1%}"
        lines.append(f"{row['workload']:<10} {row['metric']:<12} {row['parent_median']:>14.5g} "
                     f"{row['parent_q1']:>11.5g} {row['parent_q3']:>11.5g} "
                     f"{row['change_median']:>14.5g} {row['change_wins']:>7}/{row['pairs']:<4} "
                     f"{row['gain']:>+8.1%} {paired:>12}"
                     + ("  over bound" if row["over_bound"] else ""))
    for (workload, tree), (faults, sys_s, runs) in sorted((use or {}).items()):
        lines.append(f"{workload} {tree}: median {faults:.0f} minor faults, "
                     f"{sys_s:.3f} s system CPU per run ({runs} runs)")
    for (workload, tree), (failed, attempted, bad) in sorted(fails.items()):
        lines.append(f"{workload} {tree}: {failed} of {attempted} operations failed, "
                     f"{bad} runs not correct")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="the parent's checkout root")
    parser.add_argument("change", type=Path, help="the change's checkout root")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path,
                        help="append one JSON line per run here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    records = run_pairs({"parent": args.parent, "change": args.change}, args.workload,
                        args.pairs, bench["run_seconds"], args.out)
    every = held(args.out, args.workload)
    print(format_summary(summarize(every, bench["end_to_end"]), failures(every), usage(every)))
    return 0 if all(r.get("correct") for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
