"""Axis-aligned box arithmetic: IoU, per-class NMS, and delta coding.

Boxes travel as an (n,4) float array plus an (n,) int label array, scene
annotations included; a single box is an `(x1, y1, x2, y2)` tuple of floats,
as in a returned `Detection`.

Boxes use continuous corner coordinates with area (x2-x1)*(y2-y1); a box is
valid only when x2 > x1 and y2 > y1. NMS suppresses at strictly greater IoU
than the threshold, and all score ties break toward the lower original index,
so a brute-force reference reproduces results bit-exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# dw/dh are clamped here before exp() so untrained heads cannot overflow
DELTA_CLAMP = math.log(16.0)


@dataclass(frozen=True)
class Detection:
    bbox: tuple[float, float, float, float]     # (x1, y1, x2, y2)
    class_id: int
    score: float

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0,1], got {self.score}")


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 for disjoint boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n,4) and (m,4) corner-coordinate box arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


NMS_BLOCK = 64          # sorted candidates per greedy block in `nms_indices`


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
                max_keep: int | None = None) -> list[int]:
    """Greedy NMS over (n,4) boxes; returns kept indices in keep order.

    Candidates are visited by descending score with ties broken by lower
    index; a candidate is dropped when its IoU with an already-kept box is
    strictly greater than `iou_thresh` (it survives only where the IoU is
    `<= iou_thresh`, so a NaN IoU suppresses). Kept indices therefore come
    out in descending score order, so stopping after `max_keep` keeps yields
    exactly the top-`max_keep` survivors.

    The visit runs in blocks of `NMS_BLOCK` sorted candidates: one IoU matrix
    per block, a greedy pass inside it, then one pass that drops every later
    candidate overlapping a box the block kept. Each pair's IoU is the same
    float expression, operands in the same order, as a one-box-at-a-time
    loop computes, so the kept indices are exactly that loop's.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    # a stable sort keeps tied (and NaN, sorted last) scores in index order
    order = np.argsort(-scores, kind="stable")
    boxes = boxes[order]                # candidates in visit order from here on
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])

    def survives(a, a_area, b, b_area):
        # (len(a), len(b)): whether each later candidate of b survives kept box a
        ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
        iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        return inter / (a_area[:, None] + b_area[None, :] - inter) <= iou_thresh

    keep: list[int] = []
    while order.size > 0 and (max_keep is None or len(keep) < max_keep):
        blk, blk_area, blk_order = boxes[:NMS_BLOCK], areas[:NMS_BLOCK], order[:NMS_BLOCK]
        ok = survives(blk, blk_area, blk, blk_area)
        alive = np.ones(len(blk), dtype=bool)
        kept = []
        for p in range(len(blk)):
            if not alive[p]:
                continue
            kept.append(p)
            keep.append(int(blk_order[p]))
            if max_keep is not None and len(keep) >= max_keep:
                return keep
            alive[p + 1:] &= ok[p, p + 1:]
        boxes, areas, order = boxes[NMS_BLOCK:], areas[NMS_BLOCK:], order[NMS_BLOCK:]
        if order.size > 0:
            live = survives(blk[kept], blk_area[kept], boxes, areas).all(axis=0)
            boxes, areas, order = boxes[live], areas[live], order[live]
    return keep


def nms_per_class(boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                  iou_thresh: float) -> np.ndarray:
    """NMS within each class label independently over (n,4) boxes, (n,)
    scores and (n,) labels; returns the kept indices by descending score.

    Ties in the output ordering also break toward the lower original index.
    """
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must lie in (0,1), got {iou_thresh}")
    kept = [np.zeros(0, dtype=np.intp)]
    # classes in order of first appearance; np.unique would import numpy.ma
    for c in dict.fromkeys(labels.tolist()):
        idx = np.flatnonzero(labels == c)
        kept.append(idx[nms_indices(boxes[idx], scores[idx], iou_thresh)])
    kept = np.concatenate(kept)
    return kept[np.lexsort((kept, -scores[kept]))]


def encode_deltas_array(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorized encode of (n,4) anchor/target box arrays into (n,4) deltas."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 4)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    tw = targets[:, 2] - targets[:, 0]
    th = targets[:, 3] - targets[:, 1]
    dx = ((targets[:, 0] + targets[:, 2]) - (anchors[:, 0] + anchors[:, 2])) / (2.0 * aw)
    dy = ((targets[:, 1] + targets[:, 3]) - (anchors[:, 1] + anchors[:, 3])) / (2.0 * ah)
    return np.stack([dx, dy, np.log(tw / aw), np.log(th / ah)], axis=1)


def decode_deltas_array(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Vectorized decode of (n,4) anchors with (n,4) deltas into (n,4) boxes."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    acx = (anchors[:, 0] + anchors[:, 2]) / 2.0
    acy = (anchors[:, 1] + anchors[:, 3]) / 2.0
    cx = acx + deltas[:, 0] * aw
    cy = acy + deltas[:, 1] * ah
    w = aw * np.exp(np.minimum(deltas[:, 2], DELTA_CLAMP))
    h = ah * np.exp(np.minimum(deltas[:, 3], DELTA_CLAMP))
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clip (n,4) boxes to the image rectangle [0,width]x[0,height]."""
    out = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).copy()
    np.clip(out[:, 0::2], 0.0, width, out=out[:, 0::2])
    np.clip(out[:, 1::2], 0.0, height, out=out[:, 1::2])
    return out
