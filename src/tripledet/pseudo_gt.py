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

from .autodiff import Tensor
from .boxes import BBox, Detection, iou
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
    rpn_targets: list[BBox]                      # class-agnostic, pseudo + gt
    rcnn_targets: list[tuple[BBox, int]]         # labeled, pseudo + gt


def generate_pseudo_gt(om: DetectorModel, image, new_gt_boxes: list[BBox],
                       th: Thresholds, features: Tensor | None = None) -> list[Detection]:
    """Old-model detections that do not conflict with new-class annotations.

    Inference uses theta_low as the confidence floor so both threshold splits
    can be taken from this one pass. A detection survives only when its IoU
    with every new-class box is at most theta_iou. `features` may carry the
    old model's backbone features of `image` (see `detect`).
    """
    dets = detect(om, image, score_thresh=th.theta_low, nms_thresh=th.theta_iou,
                  features=features)
    return [d for d in dets
            if all(iou(d.bbox, g) <= th.theta_iou for g in new_gt_boxes)]


def build_training_targets(boxes_p: list[Detection],
                           new_gt: list[tuple[BBox, int]],
                           th: Thresholds) -> PseudoGTSet:
    """Split pseudo boxes by score (strict >) and union with new ground truth."""
    rpn = [d.bbox for d in boxes_p if d.score > th.theta_low]
    rcnn = [(d.bbox, d.class_id) for d in boxes_p if d.score > th.theta_high]
    return PseudoGTSet(
        rpn_targets=rpn + [b for b, _ in new_gt],
        rcnn_targets=rcnn + list(new_gt),
    )
