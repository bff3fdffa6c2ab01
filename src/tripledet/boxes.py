"""Axis-aligned box arithmetic: IoU, per-class NMS, and delta coding.

Inside the library, boxes travel as an (n,4) float array plus an (n,) int
label array; `BBox`/`Detection` only carry annotations and returned
detections (`annotation_arrays` converts annotations).

Boxes use continuous corner coordinates with area (x2-x1)*(y2-y1); a box is
valid only when x2 > x1 and y2 > y1. NMS suppresses at strictly greater IoU
than the threshold, and all score ties break toward the lower original index,
so a brute-force reference reproduces results bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# dw/dh are clamped here before exp() so untrained heads cannot overflow
DELTA_CLAMP = math.log(16.0)


@dataclass(frozen=True)
class BBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box coordinates must be finite, got {vals}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {vals}: need x2 > x1 and y2 > y1")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    class_id: int
    score: float

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0,1], got {self.score}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


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


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
                max_keep: int | None = None) -> list[int]:
    """Greedy NMS over (n,4) boxes; returns kept indices in keep order.

    Candidates are visited by descending score with ties broken by lower
    index; a candidate is dropped when its IoU with an already-kept box is
    strictly greater than `iou_thresh`. Kept indices therefore come out in
    descending score order, so stopping after `max_keep` keeps yields exactly
    the top-`max_keep` survivors.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        return []
    order = np.lexsort((np.arange(n), -scores))
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    keep: list[int] = []
    while order.size > 0:
        i = order[0]
        keep.append(int(i))
        if max_keep is not None and len(keep) >= max_keep:
            break
        rest = order[1:]
        ix = np.minimum(boxes[i, 2], boxes[rest, 2]) - np.maximum(boxes[i, 0], boxes[rest, 0])
        iy = np.minimum(boxes[i, 3], boxes[rest, 3]) - np.maximum(boxes[i, 1], boxes[rest, 1])
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        ious = inter / (areas[i] + areas[rest] - inter)
        order = rest[ious <= iou_thresh]
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


def annotation_arrays(pairs: list[tuple[BBox, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(n,4) float boxes and (n,) int labels of `(BBox, class_id)` pairs."""
    boxes = np.array([b.as_array() for b, _ in pairs], dtype=np.float64).reshape(-1, 4)
    return boxes, np.array([c for _, c in pairs], dtype=np.intp)


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
    out[:, [0, 2]] = np.clip(out[:, [0, 2]], 0.0, width)
    out[:, [1, 3]] = np.clip(out[:, [1, 3]], 0.0, height)
    return out
