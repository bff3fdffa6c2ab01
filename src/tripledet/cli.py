"""Command-line entry point.

Subcommands: gen-data, train-base, finetune, incremental, eval, ablate,
gradcheck. Configuration comes from an optional JSON file (--config) whose
keys mirror RunConfig; command-line flags override file values, which
override defaults. Progress and the resolved configuration go to stderr;
machine-readable outputs (datasets, checkpoints, CSV tables, JSON reports)
are written under the configured directories only.

`RunConfig` is the one run config: it checks every value once and holds the
library configs a run trains with. The `ablate` harness trains each variant of
its grid from one shared base model, one CSV row per (variant, seed) and one
seed-averaged row per variant.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, DetectorModel, load_checkpoint, new_model, save_checkpoint
from .evaluate import evaluate_model, write_report_json
from .pseudo_gt import Thresholds
from .synthdata import (SHAPES, Scene, generate_dataset, generate_incremental_dataset, load_dataset,
                        make_classes, save_dataset)
from .trainer import (BaseTrainConfig, EpochStats, TrainConfig, finetune_config, init_triple,
                      train_base, train_incremental, write_epoch_log)
from .verification import GRAD_TOL, SUITE_SEED, run_gradient_suite


class UsageError(ValueError):
    pass


# the ablation grid's single-threshold rows split the pseudo-GT here for both
# target sets (theta_low == theta_high)
SINGLE_THRESHOLD = 0.5


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
    seed: int = TrainConfig.seed
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    lam: float = TrainConfig.lam
    base_epochs: int = BaseTrainConfig.epochs
    base_lr: float = BaseTrainConfig.lr
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    theta_low: float = Thresholds.theta_low
    theta_high: float = Thresholds.theta_high
    theta_iou: float = Thresholds.theta_iou
    d_fea: bool = TrainConfig.d_fea
    d_res: bool = TrainConfig.d_res
    d_cls: bool = TrainConfig.d_cls
    use_pseudo_gt: bool = TrainConfig.use_pseudo_gt
    iou_thresh: float = 0.5
    grad_instances: int = 10
    sweep_pairs: list[list[float]] = field(default_factory=lambda: [[0.5, 0.5], [0.3, 0.7], [0.1, 0.9]])

    def __post_init__(self):
        # every value is checked once, here: its type, then its range (partly by
        # the library configs it builds)
        try:
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                if not _has_type(value, f.type):
                    raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
            # the incremental model widens its heads in id order
            old, new = self.old_class_ids, self.new_class_ids
            if not old or not new or len(old) + len(new) > len(SHAPES):
                raise ValueError(f"old and new class ids must both be non-empty and number at "
                                 f"most {len(SHAPES)} together, got {old} and {new}")
            if set(old) & set(new):
                raise ValueError(f"old and new class ids overlap: {sorted(set(old) & set(new))}")
            if sorted(old) != list(range(1, len(old) + 1)):
                raise ValueError(f"old class ids must be 1..len(old), got {old}")
            if sorted(new) != list(range(len(old) + 1, len(old) + len(new) + 1)):
                raise ValueError(f"new class ids must directly follow the old ids, got {new}")
            for name, least in (("n_base", 1), ("n_incremental", 1), ("n_test", 1),
                                ("grad_instances", 1), ("seed", 0), ("data_seed", 0)):
                if getattr(self, name) < least:
                    raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
            if not self.seeds or min(self.seeds) < 0:
                raise ValueError(f"seeds must be non-empty and all >= 0, got {self.seeds}")
            if not 0.0 < self.iou_thresh < 1.0:
                raise ValueError(f"iou_thresh must lie in (0,1), got {self.iou_thresh}")
            thresholds = Thresholds(self.theta_low, self.theta_high, self.theta_iou)
            self.base_cfg = BaseTrainConfig(epochs=self.base_epochs, lr=self.base_lr,
                                            batch_size=self.batch_size, seed=self.seed)
            self.inc_cfg = TrainConfig(
                lam=self.lam, epochs=self.epochs, lr=self.lr, batch_size=self.batch_size,
                seed=self.seed, thresholds=thresholds, d_fea=self.d_fea, d_res=self.d_res,
                d_cls=self.d_cls, use_pseudo_gt=self.use_pseudo_gt)
            for pair in self.sweep_pairs:
                if len(pair) != 2:
                    raise ValueError(f"sweep_pairs entry {pair} must be [theta_low, theta_high]")
            self.variants = variant_grid(self.inc_cfg, self.sweep_pairs)
        except (TypeError, ValueError) as e:
            raise UsageError(f"invalid config: {e}") from None


def _has_type(value, hint: str) -> bool:
    """Whether a JSON value fits a field annotation (a string, as this module
    postpones annotations): `true`/`false` only a bool, an int also a float,
    a list only of fitting items."""
    if hint.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, hint[5:-1]) for v in value)
    if isinstance(value, bool) or hint == "bool":
        return isinstance(value, bool) and hint == "bool"
    return isinstance(value, {"str": str, "int": int, "float": (int, float)}[hint])


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, metavar="FILE")
        p.add_argument("--seed", type=int, default=None, metavar="N")
        p.add_argument("--d-fea", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--d-res", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--d-cls", type=_onoff, default=None, metavar="on|off")
        p.add_argument("--theta-low", type=float, default=None, metavar="X")
        p.add_argument("--theta-high", type=float, default=None, metavar="X")
        p.add_argument("--out", dest="out_dir", default=None, metavar="DIR")
        p.add_argument("--data-dir", default=None, metavar="DIR")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR")
        if name == "eval":
            p.add_argument("--checkpoint", default=None, metavar="FILE")
            p.add_argument("--split", default="test", choices=("base", "incremental", "test"))
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then --config file values, then flags (each flag's dest is
    its RunConfig field); checked once, on the merged values."""
    values = _read_config_file(args.config)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return RunConfig(**values)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- experiment harness ----------------------------------------------------------

CSV_HEADER = ("variant", "seed", "map_old", "map_new", "map_all", "secs")


@dataclass(frozen=True)
class Variant:
    """One harness row: the base model (`cfg` None) or an incremental run
    of `cfg` (its seed is replaced by each run seed)."""
    name: str
    cfg: TrainConfig | None


@dataclass
class ExperimentRow:
    variant: str
    seed: str
    map_old: float
    map_new: float
    map_all: float
    secs: float
    failed: bool = False


def variant_grid(inc_cfg: TrainConfig, sweep_pairs: list[list[float]]) -> list[Variant]:
    """The ablation rows, each an `inc_cfg` with its own switches: the base
    model, plain finetuning, pseudo-GT alone, each component alone,
    cumulative combinations, then the full method at every (theta_low,
    theta_high) of `sweep_pairs`. Single-threshold rows split the pseudo-GT
    at SINGLE_THRESHOLD; the two-threshold rows `2th` and `full` at (0.1, 0.9)."""
    def row(name, lo=SINGLE_THRESHOLD, hi=SINGLE_THRESHOLD, d_fea=False, d_res=False,
            d_cls=False):
        th = Thresholds(lo, hi, inc_cfg.thresholds.theta_iou)
        return Variant(name, replace(inc_cfg, thresholds=th, d_fea=d_fea, d_res=d_res,
                                     d_cls=d_cls, use_pseudo_gt=True))

    full = dict(d_fea=True, d_res=True, d_cls=True)
    return [
        Variant("base", None),
        Variant("finetune", finetune_config(inc_cfg)),
        row("pgt-single"),
        row("d_fea", d_fea=True),
        row("d_res", d_res=True),
        row("d_cls", d_cls=True),
        row("2th", 0.1, 0.9),
        row("d_fea+d_res", d_fea=True, d_res=True),
        row("d_fea+d_res+d_cls", **full),
        row("full", 0.1, 0.9, **full),
        *(row(f"full-th({lo},{hi})", lo, hi, **full) for lo, hi in sweep_pairs),
    ]


def build_datasets(cfg: RunConfig) -> tuple[list[Scene], list[Scene], list[Scene]]:
    """(base train, incremental train, fully annotated test) scene lists."""
    classes = make_classes(len(cfg.old_class_ids) + len(cfg.new_class_ids))
    old = [c for c in classes if c.class_id in cfg.old_class_ids]
    new = [c for c in classes if c.class_id in cfg.new_class_ids]
    base = generate_dataset(old, cfg.n_base, cfg.data_seed)
    inc = generate_incremental_dataset(old, new, cfg.n_incremental, cfg.data_seed + 1)
    test = generate_dataset(classes, cfg.n_test, cfg.data_seed + 2)
    return base, inc, test


def train_base_model(cfg: RunConfig, base_scenes: list[Scene]
                     ) -> tuple[DetectorModel, list[EpochStats]]:
    """The old model, initialized and trained from `cfg.base_cfg.seed`, and
    its epoch log."""
    model = new_model(DetectorConfig(), len(cfg.old_class_ids), cfg.base_cfg.seed)
    return model, train_base(model, base_scenes, cfg.base_cfg)


def run_variant(cfg: RunConfig, variant: Variant, seed: int, om: DetectorModel,
                inc_scenes: list[Scene], test_scenes: list[Scene]) -> ExperimentRow:
    start = time.perf_counter()
    try:
        if variant.cfg is None:
            report = evaluate_model(om, test_scenes, cfg.iou_thresh,
                                    old_classes=cfg.old_class_ids, new_classes=[])
        else:
            triple = init_triple(om.clone(requires_grad=False), len(cfg.new_class_ids), seed)
            train_incremental(triple, inc_scenes, replace(variant.cfg, seed=seed))
            report = evaluate_model(triple.im, test_scenes, cfg.iou_thresh,
                                    old_classes=cfg.old_class_ids, new_classes=cfg.new_class_ids)
        return ExperimentRow(variant.name, str(seed), report.map_old, report.map_new,
                             report.map_all, time.perf_counter() - start)
    except Exception as e:  # record the failure, keep the harness running
        _log(f"variant {variant.name!r} seed {seed} failed: {e}")
        nan = float("nan")
        return ExperimentRow(variant.name, str(seed), nan, nan, nan,
                             time.perf_counter() - start, failed=True)


def run_experiment(cfg: RunConfig) -> list[ExperimentRow]:
    """Builds the data and the base model, then |variants| x |seeds| rows
    plus one seed-averaged row per variant, logging each row."""
    base_scenes, inc_scenes, test_scenes = build_datasets(cfg)
    om, _ = train_base_model(cfg, base_scenes)
    rows: list[ExperimentRow] = []
    for variant in cfg.variants:
        variant_rows = []
        for seed in cfg.seeds:
            row = run_variant(cfg, variant, seed, om, inc_scenes, test_scenes)
            _log(f"  {row.variant} seed={row.seed}: map_old={row.map_old:.3f} "
                 f"map_new={row.map_new:.3f} ({row.secs:.1f}s)")
            variant_rows.append(row)
        rows.extend(variant_rows)
        means = [float(np.mean([getattr(r, k) for r in variant_rows]))
                 for k in ("map_old", "map_new", "map_all")]
        rows.append(ExperimentRow(variant.name, "mean", *means,
                                  float(np.sum([r.secs for r in variant_rows]))))
    return rows


def write_rows_csv(path, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        writer.writerows((r.variant, r.seed, r.map_old, r.map_new, r.map_all, round(r.secs, 3))
                         for r in rows)


# -- commands: each takes the resolved config and the parsed flags ----------------

def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> int:
    root = Path(cfg.data_dir)
    for name, scenes in zip(("base", "incremental", "test"), build_datasets(cfg)):
        save_dataset(scenes, root / name)
        _log(f"[tripledet] wrote {len(scenes)} scenes to {root / name}")
    return 0


def _load_split(cfg: RunConfig, split: str):
    return load_dataset(Path(cfg.data_dir) / split)


def _made_dir(path: str) -> Path:
    Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def cmd_train_base(cfg: RunConfig, args: argparse.Namespace) -> int:
    model, log = train_base_model(cfg, _load_split(cfg, "base"))
    ckpt_dir = _made_dir(cfg.checkpoint_dir)
    out_dir = _made_dir(cfg.out_dir)
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
    eval_fn = partial(evaluate_model, scenes=test_scenes, iou_thresh=cfg.iou_thresh,
                      old_classes=cfg.old_class_ids, new_classes=cfg.new_class_ids)
    log = train_incremental(triple, scenes, train_cfg, eval_fn=eval_fn)
    # the last epoch's evaluation is of the final model
    report = log[-1].report
    ckpt_dir = _made_dir(cfg.checkpoint_dir)
    out_dir = _made_dir(cfg.out_dir)
    save_checkpoint(triple.im, ckpt_dir / f"{tag}_im.ckpt")
    save_checkpoint(triple.rm, ckpt_dir / f"{tag}_rm.ckpt")
    write_epoch_log(out_dir / f"{tag}_log.csv", log)
    write_report_json(out_dir / f"{tag}_report.json", report)
    _log(f"[tripledet] {tag}: map_old={report.map_old:.4f} map_new={report.map_new:.4f} "
         f"map_all={report.map_all:.4f}")
    return 0


def cmd_incremental(cfg: RunConfig, args: argparse.Namespace) -> int:
    return _run_incremental(cfg, cfg.inc_cfg, "incremental")


def cmd_finetune(cfg: RunConfig, args: argparse.Namespace) -> int:
    return _run_incremental(cfg, finetune_config(cfg.inc_cfg), "finetune")


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    ckpt = args.checkpoint or str(Path(cfg.checkpoint_dir) / "om.ckpt")
    model = load_checkpoint(ckpt, requires_grad=False)
    scenes = _load_split(cfg, args.split)
    old = [c for c in cfg.old_class_ids if c <= model.num_classes]
    new = [c for c in cfg.new_class_ids if c <= model.num_classes]
    report = evaluate_model(model, scenes, cfg.iou_thresh, old_classes=old, new_classes=new)
    out_dir = _made_dir(cfg.out_dir)
    write_report_json(out_dir / "eval_report.json", report)
    _log(f"[tripledet] eval({ckpt}, {args.split}): map_old={report.map_old:.4f} "
         f"map_new={report.map_new:.4f} map_all={report.map_all:.4f}")
    return 0


def cmd_ablate(cfg: RunConfig, args: argparse.Namespace) -> int:
    out_dir = _made_dir(cfg.out_dir)
    rows = run_experiment(cfg)
    write_rows_csv(out_dir / "ablation.csv", rows)
    _log(f"[tripledet] wrote {len(rows)} rows to {out_dir / 'ablation.csv'}")
    failed = sum(r.failed for r in rows)
    if failed:
        _log(f"[tripledet] {failed} of {len(cfg.variants) * len(cfg.seeds)} runs failed")
        return 2
    return 0


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    results = run_gradient_suite(instances=cfg.grad_instances, seed=cfg.seed or SUITE_SEED)
    worst = max(results.values())
    for name, err in results.items():
        status = "ok" if err < GRAD_TOL else "FAIL"
        _log(f"[gradcheck] {name}: max relative error {err:.3e} [{status}]")
    out_dir = _made_dir(cfg.out_dir)
    with open(out_dir / "gradcheck.json", "w") as f:
        json.dump(results, f, indent=1)
    if worst >= GRAD_TOL:
        _log(f"[gradcheck] FAILED: worst error {worst:.3e} >= {GRAD_TOL}")
        return 2
    _log(f"[gradcheck] all losses under {GRAD_TOL}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-base": cmd_train_base,
    "finetune": cmd_finetune,
    "incremental": cmd_incremental,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        _log(f"[tripledet] command={args.command} seed={cfg.seed}")
        _log("[tripledet] resolved config: " + json.dumps(dataclasses.asdict(cfg), sort_keys=True))
        return COMMANDS[args.command](cfg, args)
    except UsageError as e:
        _log(f"[tripledet] usage error: {e}")
        return 1
    except Exception as e:
        _log(f"[tripledet] error: {type(e).__name__}: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
