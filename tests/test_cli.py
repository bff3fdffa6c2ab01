"""Command-line behavior: exit codes, config precedence, end-to-end pipeline."""

import csv
import dataclasses
import json
import math
import os
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripledet.cli as cli
from tripledet.cli import RunConfig, UsageError, build_parser, main, resolve_config
from tripledet.detector import DetectorConfig, load_checkpoint
from tripledet.synthdata import load_dataset


def write_config(tmp_path, **kw):
    base = dict(
        data_dir=str(tmp_path / "data"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        out_dir=str(tmp_path / "out"),
        old_class_ids=[1, 2], new_class_ids=[3],
        n_base=4, n_incremental=3, n_test=3,
        base_epochs=1, epochs=1, seeds=[1],
        grad_instances=1,
    )
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_usage_error_unknown_command():
    assert main(["frobnicate"]) == 1


def test_usage_error_unknown_flag():
    assert main(["gen-data", "--no-such-flag"]) == 1


def test_usage_error_bad_onoff():
    assert main(["incremental", "--d-fea", "maybe"]) == 1


def test_usage_error_missing_config_file(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == 1


def test_usage_error_unknown_config_key(tmp_path, capsys):
    # two_threshold is a removed key: single-threshold runs set theta_low == theta_high
    p = tmp_path / "c.json"
    for key in ("definitely_not_a_key", "two_threshold"):
        p.write_text(json.dumps({key: False, "data_dir": str(tmp_path / "data")}))
        assert main(["gen-data", "--config", str(p)]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["5000_digits", "100000_deep"])
def test_config_json_cannot_parse_is_usage_error(tmp_path, capsys, raw):
    """Values json.load itself refuses: an integer past Python's digit limit
    and nesting past the recursion limit."""
    p = tmp_path / "c.json"
    p.write_text('{"seeds": ' + raw + '}')
    assert main(["gradcheck", "--config", str(p)]) == 1
    assert f"malformed config {p}" in capsys.readouterr().err


def test_runtime_error_exit_2(tmp_path):
    # train-base without generated data is a runtime failure, not usage
    cfg = write_config(tmp_path)
    assert main(["train-base", "--config", cfg]) == 2


def test_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, theta_low=0.2, seed=3)
    parser = build_parser()
    args = parser.parse_args(["incremental", "--config", cfg_path,
                              "--theta-low", "0.05", "--seed", "9"])
    cfg = resolve_config(args)
    assert cfg.theta_low == 0.05            # flag wins
    assert cfg.seed == 9
    assert cfg.theta_high == RunConfig.theta_high  # untouched default


def test_config_file_overrides_defaults(tmp_path):
    cfg = resolve_config(build_parser().parse_args(
        ["gen-data", "--config", write_config(tmp_path, lam=2.5)]))
    assert cfg.lam == 2.5
    assert cfg.n_base == 4


def test_onoff_flags_parse(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["incremental", "--d-fea", "off", "--d-res", "on"])
    cfg = resolve_config(args)
    assert cfg.d_fea is False and cfg.d_res is True


def test_overlapping_class_ids_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"old_class_ids": [1, 2], "new_class_ids": [2]}))
    assert main(["gen-data", "--config", p.as_posix()]) == 1


def test_non_contiguous_class_ids_rejected(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"old_class_ids": [2, 3], "new_class_ids": [4]}))
    assert main(["gen-data", "--config", p.as_posix()]) == 1
    assert "old class ids must be 1..len(old)" in capsys.readouterr().err


COMMANDS = ["gen-data", "train-base", "finetune", "incremental", "eval", "ablate", "gradcheck"]


@pytest.mark.parametrize("bad", [{"theta_low": 0.95, "theta_high": 0.9}, {"lam": "abc"},
                                 {"base_epochs": 0}, {"batch_size": 0}, {"n_base": 0},
                                 {"n_incremental": 0}, {"n_test": 0}, {"seeds": []},
                                 {"grad_instances": 0}, {"sweep_pairs": [[0.9, 0.1]]},
                                 {"iou_thresh": 5.0}, {"iou_thresh": 0.0}, {"lr": -1.0},
                                 {"lr": float("nan")}, {"base_lr": 0.0},
                                 {"base_lr": float("inf")}, {"lam": float("nan")},
                                 {"epochs": 1.5}, {"batch_size": 1.5}, {"n_test": 2.5},
                                 {"seeds": [1.5]}, {"old_class_ids": [1.0, 2.0]},
                                 {"seed": 1.5}, {"epochs": True}, {"use_pseudo_gt": 0},
                                 {"d_fea": "off"}, {"lam": True}, {"out_dir": 3},
                                 {"seed": -1}, {"data_seed": -1}, {"seeds": [-1]},
                                 {"sweep_pairs": [[0.3]]}, {"sweep_pairs": [[0.1, 0.5, 0.9]]},
                                 {"new_class_ids": []}, {"old_class_ids": [], "new_class_ids": [1]},
                                 {"old_class_ids": [1, 2, 3, 4, 5], "new_class_ids": [6, 7]}])
@pytest.mark.parametrize("command", COMMANDS)
def test_invalid_config_values_are_usage_errors(tmp_path, capsys, command, bad):
    cfg = write_config(tmp_path, **bad)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    if any(len(pair) != 2 for pair in bad.get("sweep_pairs", [])):
        assert "sweep_pairs" in err
    assert os.listdir(tmp_path) == ["config.json"]


def _has_declared_type(value, hint) -> bool:
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_declared_type(v, item) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.integers() | st.floats()
    | st.floats(0, 1) | st.text(max_size=3) | st.lists(st.integers(1, 5), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
                              JSON_VALUES, max_size=5))
def test_resolve_config_gives_typed_config_or_usage_error(tmp_path_factory, values):
    """Any JSON object over RunConfig keys resolves to a config whose every
    field has its declared type (an int counts as a float), or is a usage
    error; no other exception escapes."""
    path = tmp_path_factory.getbasetemp() / "random_config.json"
    path.write_text(json.dumps(values))
    try:
        cfg = resolve_config(build_parser().parse_args(["gen-data", "--config", str(path)]))
    except UsageError:
        return
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(RunConfig):
        assert _has_declared_type(getattr(cfg, f.name), hints[f.name]), f.name


def test_every_flag_sets_its_config_field(tmp_path):
    args = build_parser().parse_args(
        ["incremental", "--seed", "3", "--d-fea", "off", "--d-res", "off", "--d-cls", "off",
         "--theta-low", "0.2", "--theta-high", "0.8",
         "--out", "o", "--data-dir", "d", "--checkpoint-dir", "c"])
    cfg = resolve_config(args)
    assert (cfg.seed, cfg.d_fea, cfg.d_res, cfg.d_cls) == (3, False, False, False)
    assert (cfg.theta_low, cfg.theta_high) == (0.2, 0.8)
    assert (cfg.out_dir, cfg.data_dir, cfg.checkpoint_dir) == ("o", "d", "c")


def test_flags_are_checked_after_merging(tmp_path):
    # invalid on its own (theta_high defaults to 0.9), valid with the flag
    cfg_path = write_config(tmp_path, theta_low=0.95)
    args = build_parser().parse_args(["incremental", "--config", cfg_path,
                                      "--theta-high", "0.99"])
    cfg = resolve_config(args)
    assert cfg.inc_cfg.thresholds.theta_low == 0.95
    assert cfg.inc_cfg.thresholds.theta_high == 0.99
    bad = build_parser().parse_args(["incremental", "--theta-low", "0.95"])
    with pytest.raises(UsageError):
        resolve_config(bad)


@pytest.mark.slow
def test_pipeline_end_to_end(tmp_path, capsys):
    """gen-data -> train-base -> incremental -> finetune -> eval, tiny sizes."""
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    for split in ("base", "incremental", "test"):
        assert (tmp_path / "data" / split / "manifest.json").exists()

    assert main(["train-base", "--config", cfg]) == 0
    assert (tmp_path / "ckpt" / "om.ckpt").exists()
    assert (tmp_path / "out" / "base_log.csv").exists()

    assert main(["incremental", "--config", cfg, "--seed", "7"]) == 0
    assert (tmp_path / "ckpt" / "incremental_im.ckpt").exists()
    assert (tmp_path / "ckpt" / "incremental_rm.ckpt").exists()
    assert (tmp_path / "out" / "incremental_report.json").exists()

    assert main(["finetune", "--config", cfg]) == 0
    assert (tmp_path / "ckpt" / "finetune_im.ckpt").exists()

    assert main(["eval", "--config", cfg, "--checkpoint",
                 str(tmp_path / "ckpt" / "incremental_im.ckpt"), "--split", "test"]) == 0
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert set(report) >= {"per_class_ap", "map_all", "map_old", "map_new"}


def test_incremental_report_reuses_last_epoch_eval(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, epochs=2)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["train-base", "--config", cfg]) == 0
    calls = []
    real = cli.evaluate_model

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_model", counted)
    assert main(["incremental", "--config", cfg]) == 0
    assert len(calls) == 2                  # one per epoch, none after training
    report = json.loads((tmp_path / "out" / "incremental_report.json").read_text())
    im = load_checkpoint(tmp_path / "ckpt" / "incremental_im.ckpt", requires_grad=False)
    fresh = real(im, load_dataset(tmp_path / "data" / "test"), 0.5,
                 old_classes=[1, 2], new_classes=[3])
    assert report == json.loads(json.dumps(dataclasses.asdict(fresh)))


def test_train_base_uses_protocol(tmp_path, monkeypatch):
    """train-base builds and trains the old model through `train_base_model`,
    from the resolved config, whose base seed is the run's seed."""
    cfg = write_config(tmp_path, seed=4)
    assert main(["gen-data", "--config", cfg]) == 0
    configs = []
    real = cli.train_base_model

    def recorded(run_cfg, scenes):
        configs.append(run_cfg)
        return real(run_cfg, scenes)

    monkeypatch.setattr(cli, "train_base_model", recorded)
    assert main(["train-base", "--config", cfg]) == 0
    (run_cfg,) = configs
    assert run_cfg.base_cfg.seed == 4
    om = load_checkpoint(tmp_path / "ckpt" / "om.ckpt")
    assert om.seed == 4 and om.config == DetectorConfig()


@pytest.mark.slow
def test_incremental_determinism_via_cli(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["train-base", "--config", cfg]) == 0
    assert main(["incremental", "--config", cfg, "--seed", "7"]) == 0
    first = (tmp_path / "ckpt" / "incremental_im.ckpt").read_bytes()
    assert main(["incremental", "--config", cfg, "--seed", "7"]) == 0
    second = (tmp_path / "ckpt" / "incremental_im.ckpt").read_bytes()
    assert first == second


@pytest.mark.slow
def test_ablate_command(tmp_path):
    cfg = write_config(tmp_path, sweep_pairs=[[0.5, 0.5]])
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["ablate", "--config", cfg]) == 0
    with open(tmp_path / "out" / "ablation.csv") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    assert header == ["variant", "seed", "map_old", "map_new", "map_all", "secs"]
    variants = {r[0] for r in body}
    # component grid plus the threshold sweep, each with per-seed + mean rows
    assert {"base", "finetune", "pgt-single", "d_fea", "d_res", "d_cls", "2th",
            "d_fea+d_res", "d_fea+d_res+d_cls", "full"} <= variants
    n_variants = len(variants)
    assert len(body) == n_variants * 1 + n_variants  # one seed configured


def test_ablate_exits_2_when_a_run_fails(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("training exploded")

    monkeypatch.setattr(cli, "train_incremental", boom)
    cfg = write_config(tmp_path)
    assert main(["ablate", "--config", cfg]) == 2
    with open(tmp_path / "out" / "ablation.csv") as f:
        runs = [r for r in csv.DictReader(f) if r["seed"] != "mean"]
    failed = [r for r in runs if r["variant"] != "base"]
    assert failed and all(math.isnan(float(r[k])) for r in failed
                          for k in ("map_old", "map_new", "map_all"))
    assert f"{len(failed)} of {len(runs)} runs failed" in capsys.readouterr().err


@pytest.mark.slow
def test_gradcheck_command(tmp_path):
    cfg = write_config(tmp_path)        # grad_instances=1 keeps this quick
    assert main(["gradcheck", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "gradcheck.json").read_text())
    assert report and all(v < 1e-4 for v in report.values())


def test_resolved_config_printed_before_work(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    err = capsys.readouterr().err
    assert "resolved config" in err and '"seed"' in err


def test_stdout_stays_clean(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", cfg])
    assert capsys.readouterr().out == ""


def test_commands_write_only_under_configured_dirs(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert os.listdir(workdir) == []
