"""Pseudo ground-truth filtering and the 2-threshold target split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripledet.pseudo_gt as pgt
from _oracles import exhaustive_filter, random_detections
from tripledet.boxes import BBox, Detection, annotation_arrays
from tripledet.detector import DetectorConfig, detect, forward_features, new_model
from tripledet.pseudo_gt import Thresholds, build_training_targets, generate_pseudo_gt

NO_BOXES = np.zeros((0, 4))
NO_LABELS = np.zeros(0, dtype=np.intp)


# -- thresholds ----------------------------------------------------------------

def test_threshold_validation():
    Thresholds(0.1, 0.9, 0.3)
    Thresholds(0.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        Thresholds(0.9, 0.1, 0.3)
    with pytest.raises(ValueError):
        Thresholds(0.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        Thresholds(0.1, 0.9, 1.0)


# -- conflict filter -------------------------------------------------------------

def filter_through_generate(monkeypatch, dets, gt_boxes, theta_iou):
    """`generate_pseudo_gt` with the old model's `detect` replaced by `dets`."""
    monkeypatch.setattr(pgt, "detect", lambda *args, **kwargs: list(dets))
    gt = annotation_arrays([(b, 0) for b in gt_boxes])[0]
    return generate_pseudo_gt(None, None, gt, Thresholds(0.1, 0.9, theta_iou))


def test_overlapping_pseudo_box_removed(monkeypatch):
    box = Detection(BBox(0, 0, 10, 10), 1, 0.8)
    gt = [BBox(0, 0, 10, 5)]           # IoU 0.5 > 0.3
    assert filter_through_generate(monkeypatch, [box], gt, 0.3) == []
    assert exhaustive_filter([box], gt, 0.3) == []


def test_filter_matches_exhaustive_oracle(monkeypatch):
    rng = np.random.default_rng(50)
    for _ in range(200):
        dets = random_detections(rng, int(rng.integers(0, 6)))
        gts = [d.bbox for d in random_detections(rng, int(rng.integers(0, 3)))]
        theta = float(rng.uniform(0.1, 0.9))
        got = filter_through_generate(monkeypatch, dets, gts, theta)
        assert got == exhaustive_filter(dets, gts, theta)


def test_generate_pseudo_gt_empty_when_om_silent():
    # an untrained model with zeroed heads scores 0.5 everywhere; floor above it
    om = new_model(DetectorConfig(), 2, seed=1).clone(requires_grad=False)
    features = forward_features(om, np.random.default_rng(0).uniform(0, 1, (3, 64, 64)))
    th = Thresholds(0.6, 0.9, 0.3)
    dets_at_floor = detect(om, features, score_thresh=th.theta_low, nms_thresh=th.theta_iou)
    got = generate_pseudo_gt(om, features, NO_BOXES, th)
    assert got == dets_at_floor   # no new-class boxes: filter is a no-op
    for d in got:
        assert d.score > th.theta_low


def test_generate_pseudo_gt_applies_conflict_filter():
    om = new_model(DetectorConfig(), 2, seed=2).clone(requires_grad=False)
    features = forward_features(om, np.random.default_rng(3).uniform(0, 1, (3, 64, 64)))
    th = Thresholds(0.05, 0.9, 0.3)
    raw = detect(om, features, score_thresh=th.theta_low, nms_thresh=th.theta_iou)
    if not raw:
        pytest.skip("untrained model produced no detections above the floor")
    gt = [raw[0].bbox]                 # conflicts with itself at IoU 1
    got = generate_pseudo_gt(om, features, annotation_arrays([(gt[0], 3)])[0], th)
    assert got == exhaustive_filter(raw, gt, th.theta_iou)
    assert raw[0] not in got
    # pseudo boxes only ever carry the old model's (old) classes
    assert all(1 <= d.class_id <= om.num_classes for d in got)


# -- threshold splits ---------------------------------------------------------------

def rows(boxes, labels=None):
    """Box rows (with their labels) as hashable tuples, in order."""
    out = [tuple(b) for b in boxes]
    return out if labels is None else list(zip(out, labels))


def test_split_mid_score_box_rpn_only():
    th = Thresholds(0.1, 0.9, 0.3)
    d = Detection(BBox(0, 0, 10, 10), 2, 0.5)
    out = build_training_targets([d], NO_BOXES, NO_LABELS, th)
    assert rows(out.rpn_boxes) == [(0, 0, 10, 10)]
    assert out.rcnn_boxes.shape == (0, 4) and out.rcnn_labels.shape == (0,)


def test_split_collapses_when_thresholds_equal():
    th = Thresholds(0.5, 0.5, 0.3)
    rng = np.random.default_rng(51)
    dets = random_detections(rng, 10)
    out = build_training_targets(dets, NO_BOXES, NO_LABELS, th)
    # single-threshold baseline: both pseudo subsets are identical
    assert np.array_equal(out.rpn_boxes, out.rcnn_boxes)


def test_split_matches_filter_oracle():
    th = Thresholds(0.2, 0.7, 0.3)
    rng = np.random.default_rng(52)
    dets = random_detections(rng, 20)
    gt_box = BBox(50, 50, 60, 60)
    out = build_training_targets(dets, *annotation_arrays([(gt_box, 4)]), th)
    assert rows(out.rpn_boxes) == [tuple(d.bbox.as_array()) for d in dets if d.score > 0.2] \
        + [(50, 50, 60, 60)]
    assert rows(out.rcnn_boxes, out.rcnn_labels) == \
        [(tuple(d.bbox.as_array()), d.class_id) for d in dets if d.score > 0.7] \
        + [((50, 50, 60, 60), 4)]


def test_pseudo_subset_nesting_invariant():
    rng = np.random.default_rng(53)
    th = Thresholds(0.15, 0.85, 0.3)
    dets = random_detections(rng, 25)
    out = build_training_targets(dets, NO_BOXES, NO_LABELS, th)
    assert set(rows(out.rcnn_boxes)) <= set(rows(out.rpn_boxes))


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.45), st.floats(0.5, 0.95))
@settings(max_examples=60, deadline=None)
def test_threshold_monotonicity(seed, low, high):
    rng = np.random.default_rng(seed)
    dets = random_detections(rng, 12)
    base = build_training_targets(dets, NO_BOXES, NO_LABELS, Thresholds(low, high, 0.3))
    tighter = build_training_targets(dets, NO_BOXES, NO_LABELS,
                                     Thresholds(low, min(high + 0.04, 0.99), 0.3))
    # raising theta_high never adds an rcnn target
    assert set(rows(tighter.rcnn_boxes, tighter.rcnn_labels)) <= \
        set(rows(base.rcnn_boxes, base.rcnn_labels))
    assert np.array_equal(base.rpn_boxes, tighter.rpn_boxes)


def test_two_threshold_class_ids_preserved():
    th = Thresholds(0.1, 0.5, 0.3)
    dets = [Detection(BBox(0, 0, 10, 10), 3, 0.9)]
    out = build_training_targets(dets, *annotation_arrays([(BBox(20, 20, 30, 30), 4)]), th)
    assert ((0, 0, 10, 10), 3) in rows(out.rcnn_boxes, out.rcnn_labels)
