"""Pseudo ground-truth from the frozen old model, with 2-threshold splits.

The old model runs inference with its confidence floor at theta_low and NMS
at theta_iou; any detection overlapping a new-class ground-truth box with
IoU above theta_iou is dropped (it contradicts the annotation). The
survivors keep their classes, boxes, and scores. Score > theta_low selects
the recall-oriented RPN target set; score > theta_high the precision-oriented
R-CNN set; both are unioned with the new-class ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .boxes import Detection, iou_matrix
from .detector import DetectorModel, detect


@dataclass(frozen=True)
class Thresholds:
    theta_low: float = 0.1
    theta_high: float = 0.9
    theta_iou: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.theta_low <= self.theta_high < 1.0):
            raise ValueError(
                f"need 0 < theta_low <= theta_high < 1, got ({self.theta_low}, {self.theta_high})")
        if not (0.0 < self.theta_iou < 1.0):
            raise ValueError(f"theta_iou must lie in (0,1), got {self.theta_iou}")


def generate_pseudo_gt(om: DetectorModel, features: Tensor, new_gt_boxes: np.ndarray,
                       th: Thresholds) -> list[Detection]:
    """Old-model detections, from the old model's backbone `features` of a
    scene, that do not conflict with its new-class annotations.

    Inference uses theta_low as the confidence floor so both threshold splits
    can be taken from this one pass. A detection survives only when its IoU
    with every new-class box of the (k,4) `new_gt_boxes` is at most
    theta_iou.
    """
    dets = detect(om, features, score_thresh=th.theta_low, nms_thresh=th.theta_iou)
    keep = (iou_matrix([d.bbox for d in dets], new_gt_boxes) <= th.theta_iou).all(axis=1)
    return [d for d, k in zip(dets, keep) if k]


def build_training_targets(boxes_p: list[Detection], gt_boxes: np.ndarray,
                           gt_labels: np.ndarray, th: Thresholds
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split pseudo boxes by score (strict >) and union with new ground
    truth: (class-agnostic RPN boxes (n,4), R-CNN boxes (k,4), their class
    ids (k,)), pseudo boxes first."""
    boxes = np.array([d.bbox for d in boxes_p], dtype=np.float64).reshape(-1, 4)
    labels = np.array([d.class_id for d in boxes_p], dtype=np.intp)
    scores = np.array([d.score for d in boxes_p])
    low, high = scores > th.theta_low, scores > th.theta_high
    return (np.concatenate([boxes[low], gt_boxes]), np.concatenate([boxes[high], gt_boxes]),
            np.concatenate([labels[high], gt_labels]))
