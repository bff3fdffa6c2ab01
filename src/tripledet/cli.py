"""Command-line entry point.

Subcommands: gen-data, train-base, finetune, incremental, eval, ablate,
gradcheck. Configuration comes from an optional JSON file (--config) whose
keys mirror RunConfig; command-line flags override file values, which
override defaults. Progress and the resolved configuration go to stderr;
machine-readable outputs (datasets, checkpoints, CSV tables, JSON reports)
are written under the configured directories only.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .detector import DetectorConfig, load_checkpoint, new_model, save_checkpoint
from .evaluate import (ExperimentProtocol, build_datasets, default_variant_grid,
                       evaluate_model, run_experiment, threshold_sweep_variants,
                       write_report_json)
from .pseudo_gt import Thresholds
from .synthdata import load_dataset, save_dataset
from .trainer import (BaseTrainConfig, TrainConfig, finetune_config, init_triple, train_base,
                      train_incremental, write_epoch_log)
from .verification import GRAD_TOL, run_gradient_suite


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    out_dir: str = "out"
    old_class_ids: list[int] = field(default_factory=lambda: [1, 2, 3])
    new_class_ids: list[int] = field(default_factory=lambda: [4])
    n_base: int = 200
    n_incremental: int = 100
    n_test: int = 100
    data_seed: int = 1234
    seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    lam: float = 1.0
    base_epochs: int = 50
    base_lr: float = 2e-3
    epochs: int = 10
    lr: float = 5e-4
    batch_size: int = 2
    theta_low: float = 0.1
    theta_high: float = 0.9
    theta_iou: float = 0.3
    d_fea: bool = True
    d_res: bool = True
    d_cls: bool = True
    two_threshold: bool = True
    use_pseudo_gt: bool = True
    iou_thresh: float = 0.5
    grad_instances: int = 10
    sweep_pairs: list[list[float]] = field(default_factory=lambda: [[0.5, 0.5], [0.3, 0.7], [0.1, 0.9]])

    def __post_init__(self):
        # the library's own config types check the values, once, here
        try:
            pairs = [(float(lo), float(hi)) for lo, hi in self.sweep_pairs]
            self.protocol = ExperimentProtocol(
                old_class_ids=self.old_class_ids, new_class_ids=self.new_class_ids,
                n_base=self.n_base, n_incremental=self.n_incremental, n_test=self.n_test,
                data_seed=self.data_seed, base_seed=self.seed, seeds=self.seeds,
                base_cfg=BaseTrainConfig(epochs=self.base_epochs, lr=self.base_lr,
                                         batch_size=self.batch_size, seed=self.seed),
                inc_cfg=TrainConfig(
                    lam=self.lam, epochs=self.epochs, lr=self.lr, batch_size=self.batch_size,
                    seed=self.seed,
                    thresholds=Thresholds(self.theta_low, self.theta_high, self.theta_iou),
                    d_fea=self.d_fea, d_res=self.d_res, d_cls=self.d_cls,
                    two_threshold=self.two_threshold, use_pseudo_gt=self.use_pseudo_gt),
                variants=default_variant_grid() + threshold_sweep_variants(pairs),
                iou_thresh=self.iou_thresh)
        except (TypeError, ValueError) as e:
            raise UsageError(f"invalid config: {e}") from None


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tripledet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ("gen-data", "train-base", "finetune", "incremental", "eval",
                "ablate", "gradcheck")
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, metavar="FILE")
        p.add_argument("--seed", type=int, default=None, metavar="N")
        p.add_argument("--d-fea", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--d-res", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--d-cls", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--two-threshold", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--theta-low", type=float, default=None, metavar="X")
        p.add_argument("--theta-high", type=float, default=None, metavar="X")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--data-dir", default=None, metavar="DIR")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR")
        if name == "eval":
            p.add_argument("--checkpoint", default=None, metavar="FILE")
            p.add_argument("--split", default="test", choices=("base", "incremental", "test"))
    return parser


_FLAG_FIELDS = {
    "seed": "seed",
    "d_fea": "d_fea",
    "d_res": "d_res",
    "d_cls": "d_cls",
    "two_threshold": "two_threshold",
    "theta_low": "theta_low",
    "theta_high": "theta_high",
    "out": "out_dir",
    "data_dir": "data_dir",
    "checkpoint_dir": "checkpoint_dir",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then --config file values, then flags; checked once, on the
    merged values."""
    values = _read_config_file(args.config)
    for attr, fieldname in _FLAG_FIELDS.items():
        value = getattr(args, attr, None)
        if value is not None:
            values[fieldname] = value
    return RunConfig(**values)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _print_resolved(cfg: RunConfig, command: str) -> None:
    _log(f"[tripledet] command={command} seed={cfg.seed}")
    _log("[tripledet] resolved config: " + json.dumps(dataclasses.asdict(cfg), sort_keys=True))


def cmd_gen_data(cfg: RunConfig) -> int:
    root = Path(cfg.data_dir)
    for name, scenes in zip(("base", "incremental", "test"), build_datasets(cfg.protocol)):
        save_dataset(scenes, root / name)
        _log(f"[tripledet] wrote {len(scenes)} scenes to {root / name}")
    return 0


def _load_split(cfg: RunConfig, split: str):
    return load_dataset(Path(cfg.data_dir) / split)


def cmd_train_base(cfg: RunConfig) -> int:
    scenes = _load_split(cfg, "base")
    model = new_model(DetectorConfig(), len(cfg.old_class_ids), cfg.seed)
    log = train_base(model, scenes, cfg.protocol.base_cfg)
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, ckpt_dir / "om.ckpt")
    write_epoch_log(out_dir / "base_log.csv", log)
    _log(f"[tripledet] base model saved to {ckpt_dir / 'om.ckpt'}; "
         f"final epoch loss {log[-1].losses.total:.4f}")
    return 0


def _run_incremental(cfg: RunConfig, train_cfg: TrainConfig, tag: str) -> int:
    scenes = _load_split(cfg, "incremental")
    test_scenes = _load_split(cfg, "test")
    om = load_checkpoint(Path(cfg.checkpoint_dir) / "om.ckpt", requires_grad=False)
    triple = init_triple(om, len(cfg.new_class_ids), cfg.seed)
    reports = []

    def eval_fn(model):
        report = evaluate_model(model, test_scenes, cfg.iou_thresh,
                                old_classes=cfg.old_class_ids, new_classes=cfg.new_class_ids)
        reports.append(report)
        return report.map_old, report.map_new, report.map_all

    log = train_incremental(triple, scenes, train_cfg, eval_fn=eval_fn)
    # the last epoch's evaluation is of the final model
    report = reports[-1]
    ckpt_dir = Path(cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(triple.im, ckpt_dir / f"{tag}_im.ckpt")
    save_checkpoint(triple.rm, ckpt_dir / f"{tag}_rm.ckpt")
    write_epoch_log(out_dir / f"{tag}_log.csv", log)
    write_report_json(out_dir / f"{tag}_report.json", report)
    _log(f"[tripledet] {tag}: map_old={report.map_old:.4f} map_new={report.map_new:.4f} "
         f"map_all={report.map_all:.4f}")
    return 0


def cmd_incremental(cfg: RunConfig) -> int:
    return _run_incremental(cfg, cfg.protocol.inc_cfg, "incremental")


def cmd_finetune(cfg: RunConfig) -> int:
    return _run_incremental(cfg, finetune_config(cfg.protocol.inc_cfg), "finetune")


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    ckpt = args.checkpoint or str(Path(cfg.checkpoint_dir) / "om.ckpt")
    model = load_checkpoint(ckpt, requires_grad=False)
    scenes = _load_split(cfg, args.split)
    old = [c for c in cfg.old_class_ids if c <= model.num_classes]
    new = [c for c in cfg.new_class_ids if c <= model.num_classes]
    report = evaluate_model(model, scenes, cfg.iou_thresh, old_classes=old, new_classes=new)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(out_dir / "eval_report.json", report)
    _log(f"[tripledet] eval({ckpt}, {args.split}): map_old={report.map_old:.4f} "
         f"map_new={report.map_new:.4f} map_all={report.map_all:.4f}")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(cfg.protocol, csv_path=out_dir / "ablation.csv", progress=True)
    _log(f"[tripledet] wrote {len(rows)} rows to {out_dir / 'ablation.csv'}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = run_gradient_suite(instances=cfg.grad_instances, seed=cfg.seed or 20240)
    worst = max(results.values())
    for name, err in results.items():
        status = "ok" if err < GRAD_TOL else "FAIL"
        _log(f"[gradcheck] {name}: max relative error {err:.3e} [{status}]")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "gradcheck.json", "w") as f:
        json.dump(results, f, indent=1)
    if worst >= GRAD_TOL:
        _log(f"[gradcheck] FAILED: worst error {worst:.3e} >= {GRAD_TOL}")
        return 2
    _log(f"[gradcheck] all losses under {GRAD_TOL}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        _print_resolved(cfg, args.command)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train-base":
            return cmd_train_base(cfg)
        if args.command == "incremental":
            return cmd_incremental(cfg)
        if args.command == "finetune":
            return cmd_finetune(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        _log(f"[tripledet] usage error: {e}")
        return 1
    except Exception as e:
        _log(f"[tripledet] error: {type(e).__name__}: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
