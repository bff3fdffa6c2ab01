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
from .boxes import Detection, annotation_arrays, iou_matrix
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


@dataclass
class PseudoGTSet:
    rpn_boxes: np.ndarray        # (n,4) class-agnostic, pseudo + gt
    rcnn_boxes: np.ndarray       # (k,4) pseudo + gt
    rcnn_labels: np.ndarray      # (k,) class ids of rcnn_boxes


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
    det_boxes, _ = annotation_arrays([(d.bbox, d.class_id) for d in dets])
    keep = (iou_matrix(det_boxes, new_gt_boxes) <= th.theta_iou).all(axis=1)
    return [d for d, k in zip(dets, keep) if k]


def build_training_targets(boxes_p: list[Detection], gt_boxes: np.ndarray,
                           gt_labels: np.ndarray, th: Thresholds) -> PseudoGTSet:
    """Split pseudo boxes by score (strict >) and union with new ground truth."""
    boxes, labels = annotation_arrays([(d.bbox, d.class_id) for d in boxes_p])
    scores = np.array([d.score for d in boxes_p])
    low, high = scores > th.theta_low, scores > th.theta_high
    return PseudoGTSet(np.concatenate([boxes[low], gt_boxes]),
                       np.concatenate([boxes[high], gt_boxes]),
                       np.concatenate([labels[high], gt_labels]))
