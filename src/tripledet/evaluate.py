"""VOC-style average precision and the experiment harness.

AP uses greedy matching (dets in descending score order, ties by input
order; a detection is a true positive iff it has IoU >= threshold with a
still-unmatched ground-truth box of its image) and all-point interpolation:
the area under the running-max precision envelope over recall. An 11-point
variant is available behind a flag. Classes without ground truth in the
evaluated split are vacuous and excluded from mAP means.

The harness trains every requested variant from one shared base checkpoint
and emits one CSV row per (variant, seed) plus one seed-averaged row per
variant, with the fixed header ``variant,seed,map_old,map_new,map_all,secs``.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import BBox, iou
from .detector import DetectorConfig, DetectorModel, detect, new_model
from .pseudo_gt import Thresholds
from .synthdata import Scene, generate_dataset, generate_incremental_dataset, make_classes
from .trainer import BaseTrainConfig, TrainConfig, init_triple, train_base, train_incremental

EVAL_SCORE_THRESH = 0.05      # low inference floor so the PR curve has full range
EVAL_NMS_THRESH = 0.3
CSV_HEADER = ("variant", "seed", "map_old", "map_new", "map_all", "secs")


@dataclass
class APReport:
    per_class_ap: dict[int, float]
    map_all: float
    map_old: float
    map_new: float
    det_counts: dict[int, int]
    gt_counts: dict[int, int]
    vacuous_classes: list[int]

    def to_dict(self) -> dict:
        return {
            "per_class_ap": {str(k): v for k, v in self.per_class_ap.items()},
            "map_all": self.map_all,
            "map_old": self.map_old,
            "map_new": self.map_new,
            "det_counts": {str(k): v for k, v in self.det_counts.items()},
            "gt_counts": {str(k): v for k, v in self.gt_counts.items()},
            "vacuous_classes": self.vacuous_classes,
        }


def voc_ap(dets: list[tuple[int, float, BBox]], gts: dict[int, list[BBox]],
           iou_thresh: float, eleven_point: bool = False) -> float:
    """AP for one class; `dets` are (image_id, score, box), `gts` map image
    ids to that image's ground-truth boxes. Returns 0.0 with no ground truth
    (callers flag that case as vacuous)."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = {img: np.zeros(len(b), dtype=bool) for img, b in gts.items()}
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, i in enumerate(order):
        img, _, box = dets[i]
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(gts.get(img, [])):
            if matched[img][j]:
                continue
            v = iou(box, gt_box)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_thresh:
            tp[rank] = 1.0
            matched[img][best_j] = True
        else:
            fp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    if eleven_point:
        ap = 0.0
        for r in np.linspace(0.0, 1.0, 11):
            mask = recall >= r
            ap += (precision[mask].max() if mask.any() else 0.0) / 11.0
        return float(ap)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def evaluate_model(model: DetectorModel, scenes: list[Scene], iou_thresh: float = 0.5,
                   old_classes=(), new_classes=(),
                   score_thresh: float = EVAL_SCORE_THRESH,
                   nms_thresh: float = EVAL_NMS_THRESH,
                   eleven_point: bool = False) -> APReport:
    """Detect on every scene and aggregate per-class AP into a report."""
    old_classes = list(old_classes)
    new_classes = list(new_classes)
    classes = old_classes + new_classes
    if classes and max(classes) > model.num_classes:
        raise ValueError(
            f"model covers {model.num_classes} classes, cannot evaluate class {max(classes)}")
    dets_by_class: dict[int, list[tuple[int, float, BBox]]] = {c: [] for c in classes}
    gts_by_class: dict[int, dict[int, list[BBox]]] = {c: {} for c in classes}
    for img_id, scene in enumerate(scenes):
        for box, cid in scene.annotations:
            if cid in gts_by_class:
                gts_by_class[cid].setdefault(img_id, []).append(box)
        for det in detect(model, scene.image, score_thresh, nms_thresh):
            if det.class_id in dets_by_class:
                dets_by_class[det.class_id].append((img_id, det.score, det.bbox))
    per_class_ap = {}
    vacuous = []
    for c in classes:
        n_gt = sum(len(v) for v in gts_by_class[c].values())
        if n_gt == 0:
            vacuous.append(c)
        per_class_ap[c] = voc_ap(dets_by_class[c], gts_by_class[c], iou_thresh,
                                 eleven_point=eleven_point)

    def subset_mean(subset):
        vals = [per_class_ap[c] for c in subset if c not in vacuous]
        return float(np.mean(vals)) if vals else float("nan")

    return APReport(
        per_class_ap=per_class_ap,
        map_all=subset_mean(classes),
        map_old=subset_mean(old_classes),
        map_new=subset_mean(new_classes),
        det_counts={c: len(dets_by_class[c]) for c in classes},
        gt_counts={c: sum(len(v) for v in gts_by_class[c].values()) for c in classes},
        vacuous_classes=vacuous,
    )


# -- experiment harness ----------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """One harness row: either the base model ('base') or an incremental run."""
    name: str
    kind: str = "incremental"            # "base" | "incremental"
    d_fea: bool = False
    d_res: bool = False
    d_cls: bool = False
    two_threshold: bool = False
    use_pseudo_gt: bool = True
    theta_low: float = 0.1
    theta_high: float = 0.9


@dataclass
class ExperimentProtocol:
    old_class_ids: list[int] = field(default_factory=lambda: [1, 2, 3])
    new_class_ids: list[int] = field(default_factory=lambda: [4])
    n_base: int = 200
    n_incremental: int = 100
    n_test: int = 100
    data_seed: int = 1234
    base_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    base_cfg: BaseTrainConfig = field(default_factory=BaseTrainConfig)
    inc_cfg: TrainConfig = field(default_factory=TrainConfig)
    detector_cfg: DetectorConfig = field(default_factory=DetectorConfig)
    variants: list[Variant] = field(default_factory=list)
    iou_thresh: float = 0.5

    def __post_init__(self):
        # the incremental model widens its heads in id order
        old, new = self.old_class_ids, self.new_class_ids
        if set(old) & set(new):
            raise ValueError(f"old and new class ids overlap: {sorted(set(old) & set(new))}")
        if sorted(old) != list(range(1, len(old) + 1)):
            raise ValueError(f"old class ids must be 1..len(old), got {old}")
        if sorted(new) != list(range(len(old) + 1, len(old) + len(new) + 1)):
            raise ValueError(f"new class ids must directly follow the old ids, got {new}")


@dataclass
class ExperimentRow:
    variant: str
    seed: str
    map_old: float
    map_new: float
    map_all: float
    secs: float
    failed: bool = False

    def as_csv(self):
        return (self.variant, self.seed, self.map_old, self.map_new, self.map_all,
                round(self.secs, 3))


def default_variant_grid() -> list[Variant]:
    """Component grid: pseudo-GT baseline, each component alone, cumulative
    combinations, plus the base model and the plain finetune rows."""
    full = dict(d_fea=True, d_res=True, d_cls=True)
    return [
        Variant("base", kind="base"),
        Variant("finetune", use_pseudo_gt=False),
        Variant("pgt-single", use_pseudo_gt=True),
        Variant("d_fea", d_fea=True),
        Variant("d_res", d_res=True),
        Variant("d_cls", d_cls=True),
        Variant("2th", two_threshold=True),
        Variant("d_fea+d_res", d_fea=True, d_res=True),
        Variant("d_fea+d_res+d_cls", **full),
        Variant("full", **full, two_threshold=True),
    ]


def threshold_sweep_variants(pairs: list[tuple[float, float]]) -> list[Variant]:
    return [
        Variant(f"full-th({lo},{hi})", d_fea=True, d_res=True, d_cls=True,
                two_threshold=True, theta_low=lo, theta_high=hi)
        for lo, hi in pairs
    ]


def build_datasets(protocol: ExperimentProtocol) -> tuple[list[Scene], list[Scene], list[Scene]]:
    """(base train, incremental train, fully annotated test) scene lists."""
    n_classes = len(protocol.old_class_ids) + len(protocol.new_class_ids)
    classes = make_classes(n_classes)
    old = [c for c in classes if c.class_id in protocol.old_class_ids]
    new = [c for c in classes if c.class_id in protocol.new_class_ids]
    base = generate_dataset(old, protocol.n_base, protocol.data_seed)
    inc = generate_incremental_dataset(old, new, protocol.n_incremental, protocol.data_seed + 1)
    test = generate_dataset(classes, protocol.n_test, protocol.data_seed + 2)
    return base, inc, test


def train_base_model(protocol: ExperimentProtocol, base_scenes: list[Scene]) -> DetectorModel:
    model = new_model(protocol.detector_cfg, len(protocol.old_class_ids), protocol.base_seed)
    cfg = replace(protocol.base_cfg, seed=protocol.base_seed)
    train_base(model, base_scenes, cfg)
    return model


def run_variant(protocol: ExperimentProtocol, variant: Variant, seed: int,
                om: DetectorModel, inc_scenes: list[Scene],
                test_scenes: list[Scene]) -> ExperimentRow:
    start = time.perf_counter()
    old_ids, new_ids = protocol.old_class_ids, protocol.new_class_ids
    try:
        if variant.kind == "base":
            report = evaluate_model(om, test_scenes, protocol.iou_thresh,
                                    old_classes=old_ids, new_classes=[])
        else:
            cfg = replace(
                protocol.inc_cfg, seed=seed,
                d_fea=variant.d_fea, d_res=variant.d_res, d_cls=variant.d_cls,
                two_threshold=variant.two_threshold, use_pseudo_gt=variant.use_pseudo_gt,
                thresholds=Thresholds(variant.theta_low, variant.theta_high,
                                      protocol.inc_cfg.thresholds.theta_iou))
            triple = init_triple(om.clone(requires_grad=False), len(new_ids), seed)
            train_incremental(triple, inc_scenes, cfg)
            report = evaluate_model(triple.im, test_scenes, protocol.iou_thresh,
                                    old_classes=old_ids, new_classes=new_ids)
        return ExperimentRow(variant.name, str(seed), report.map_old, report.map_new,
                             report.map_all, time.perf_counter() - start)
    except Exception as e:  # record the failure, keep the harness running
        print(f"variant {variant.name!r} seed {seed} failed: {e}", file=sys.stderr)
        nan = float("nan")
        return ExperimentRow(variant.name, str(seed), nan, nan, nan,
                             time.perf_counter() - start, failed=True)


def run_experiment(protocol: ExperimentProtocol, om: DetectorModel | None = None,
                   datasets=None, csv_path=None, progress=False) -> list[ExperimentRow]:
    """|variants| x |seeds| rows plus one seed-averaged row per variant."""
    base_scenes, inc_scenes, test_scenes = datasets or build_datasets(protocol)
    if om is None:
        om = train_base_model(protocol, base_scenes)
    rows: list[ExperimentRow] = []
    for variant in protocol.variants:
        variant_rows = []
        for seed in protocol.seeds:
            row = run_variant(protocol, variant, seed, om, inc_scenes, test_scenes)
            if progress:
                print(f"  {row.variant} seed={row.seed}: map_old={row.map_old:.3f} "
                      f"map_new={row.map_new:.3f} ({row.secs:.1f}s)", file=sys.stderr)
            variant_rows.append(row)
        rows.extend(variant_rows)
        rows.append(ExperimentRow(
            variant.name, "mean",
            float(np.mean([r.map_old for r in variant_rows])),
            float(np.mean([r.map_new for r in variant_rows])),
            float(np.mean([r.map_all for r in variant_rows])),
            float(np.sum([r.secs for r in variant_rows])),
        ))
    if csv_path is not None:
        write_rows_csv(csv_path, rows)
    return rows


def write_rows_csv(path, rows: list[ExperimentRow]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())


def write_report_json(path, report: APReport) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=1)
