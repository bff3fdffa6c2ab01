"""VOC-style average precision.

AP uses greedy matching (dets in descending score order, ties by input
order; a detection is a true positive iff it has IoU >= threshold with a
still-unmatched ground-truth box of its image) and all-point interpolation:
the area under the running-max precision envelope over recall. Classes
without ground truth in the evaluated split are vacuous and excluded from
mAP means.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .boxes import BBox, iou
from .detector import DetectorModel, detect, forward_features
from .synthdata import Scene

EVAL_SCORE_THRESH = 0.05      # low inference floor so the PR curve has full range
EVAL_NMS_THRESH = 0.3


@dataclass
class APReport:
    per_class_ap: dict[int, float]
    map_all: float
    map_old: float
    map_new: float
    det_counts: dict[int, int]
    gt_counts: dict[int, int]
    vacuous_classes: list[int]


def voc_ap(dets: list[tuple[int, float, BBox]], gts: dict[int, list[BBox]],
           iou_thresh: float) -> float:
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
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def evaluate_model(model: DetectorModel, scenes: list[Scene], iou_thresh: float,
                   old_classes=(), new_classes=()) -> APReport:
    """Detect on every scene, with a frozen copy of `model` so that no
    backward graph is built, and aggregate per-class AP into a report."""
    old_classes = list(old_classes)
    new_classes = list(new_classes)
    classes = old_classes + new_classes
    if classes and max(classes) > model.num_classes:
        raise ValueError(
            f"model covers {model.num_classes} classes, cannot evaluate class {max(classes)}")
    frozen = model.clone(requires_grad=False)
    dets_by_class: dict[int, list[tuple[int, float, BBox]]] = {c: [] for c in classes}
    gts_by_class: dict[int, dict[int, list[BBox]]] = {c: {} for c in classes}
    for img_id, scene in enumerate(scenes):
        for box, cid in scene.annotations:
            if cid in gts_by_class:
                gts_by_class[cid].setdefault(img_id, []).append(box)
        features = forward_features(frozen, scene.image)
        for det in detect(frozen, features, EVAL_SCORE_THRESH, EVAL_NMS_THRESH):
            if det.class_id in dets_by_class:
                dets_by_class[det.class_id].append((img_id, det.score, det.bbox))
    gt_counts = {c: sum(len(v) for v in gts_by_class[c].values()) for c in classes}
    vacuous = [c for c in classes if gt_counts[c] == 0]
    per_class_ap = {c: voc_ap(dets_by_class[c], gts_by_class[c], iou_thresh) for c in classes}

    def subset_mean(subset):
        vals = [per_class_ap[c] for c in subset if c not in vacuous]
        return float(np.mean(vals)) if vals else float("nan")

    return APReport(
        per_class_ap=per_class_ap,
        map_all=subset_mean(classes),
        map_old=subset_mean(old_classes),
        map_new=subset_mean(new_classes),
        det_counts={c: len(dets_by_class[c]) for c in classes},
        gt_counts=gt_counts,
        vacuous_classes=vacuous,
    )


def write_report_json(path, report: APReport) -> None:
    """The report as strict JSON: a mean over no classes (NaN) is null."""
    fields = {k: None if isinstance(v, float) and np.isnan(v) else v
              for k, v in asdict(report).items()}
    with open(path, "w") as f:
        json.dump(fields, f, indent=1, allow_nan=False)
