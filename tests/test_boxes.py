"""Box arithmetic against brute-force references and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_nms, nms_detections, random_boxes
from tripledet.boxes import (BBox, Detection, annotation_arrays, decode_deltas_array,
                             encode_deltas_array, iou, iou_matrix, nms_indices, nms_per_class)


# -- iou ------------------------------------------------------------------------

def test_iou_identical_box():
    b = BBox(3.0, 4.0, 10.0, 12.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0


def test_iou_partial_overlap_exact():
    # intersection 50, union 150
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BBox(5.0, 0.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, float("nan"), 10.0)


def test_detection_validation():
    b = BBox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        Detection(b, -1, 0.5)
    with pytest.raises(ValueError):
        Detection(b, 1, 1.5)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_iou_symmetric_bounded(seed):
    rng = np.random.default_rng(seed)
    a, b = random_boxes(rng, 2)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)
    assert (v == 1.0) == (a == b)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(7)
    a = random_boxes(rng, 5)
    b = random_boxes(rng, 4)
    m = iou_matrix(np.array([x.as_array() for x in a]), np.array([x.as_array() for x in b]))
    for i, ba in enumerate(a):
        for j, bb in enumerate(b):
            assert m[i, j] == pytest.approx(iou(ba, bb), abs=1e-12)


# -- NMS -------------------------------------------------------------------------

def test_nms_two_overlapping_same_class():
    b1 = BBox(0, 0, 10, 10)
    b2 = BBox(1, 0, 11, 10)  # IoU 9/11 = 0.82
    dets = [Detection(b2, 1, 0.8), Detection(b1, 1, 0.9)]
    out = nms_detections(dets, 0.3)
    assert out == [Detection(b1, 1, 0.9)]


def test_nms_identical_boxes_different_classes_both_kept():
    b = BBox(0, 0, 10, 10)
    dets = [Detection(b, 1, 0.7), Detection(b, 2, 0.7)]
    assert len(nms_detections(dets, 0.3)) == 2


def test_nms_empty():
    assert nms_detections([], 0.5) == []


def test_nms_boundary_iou_survives():
    # IoU exactly at the threshold is not suppressed (strict inequality)
    b1 = BBox(0, 0, 10, 10)
    b2 = BBox(5, 0, 15, 10)  # IoU 1/3 with b1
    dets = [Detection(b1, 1, 0.9), Detection(b2, 1, 0.8)]
    assert len(nms_detections(dets, 1.0 / 3.0)) == 2


def test_nms_invalid_threshold():
    with pytest.raises(ValueError):
        nms_per_class(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.intp), 0.0)


def test_nms_per_class_indices_by_score_then_index():
    boxes = np.array([[0, 0, 10, 10], [30, 30, 40, 40], [31, 30, 41, 40], [0, 0, 10, 10]], float)
    scores = np.array([0.5, 0.9, 0.7, 0.5])
    labels = np.array([1, 2, 2, 3])
    # box 2 loses to box 1 of its class; boxes 0 and 3 tie at 0.5 in two classes
    assert list(nms_per_class(boxes, scores, labels, 0.3)) == [1, 0, 3]


def test_nms_matches_brute_force_1000_cases():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        dets = [Detection(b, int(rng.integers(1, 4)), float(np.round(rng.uniform(), 3)))
                for b in random_boxes(rng, n)]
        thresh = float(rng.uniform(0.1, 0.9))
        assert nms_detections(dets, thresh) == brute_force_nms(dets, thresh)


def test_nms_order_independent_up_to_tiebreak():
    rng = np.random.default_rng(9)
    dets = [Detection(b, 1, float(rng.uniform())) for b in random_boxes(rng, 8)]
    shuffled = [dets[i] for i in rng.permutation(len(dets))]
    # distinct scores: kept sets must coincide regardless of input order
    assert {(d.bbox, d.score) for d in nms_detections(dets, 0.4)} == \
           {(d.bbox, d.score) for d in nms_detections(shuffled, 0.4)}


def test_annotation_arrays():
    boxes, labels = annotation_arrays([(BBox(0, 1, 2, 3), 4), (BBox(5, 6, 7, 8), 2)])
    assert np.array_equal(boxes, [[0, 1, 2, 3], [5, 6, 7, 8]]) and boxes.dtype == np.float64
    assert np.array_equal(labels, [4, 2]) and labels.dtype == np.intp
    empty_boxes, empty_labels = annotation_arrays([])
    assert empty_boxes.shape == (0, 4) and empty_labels.shape == (0,)


def test_nms_indices_max_keep_prefix():
    rng = np.random.default_rng(11)
    boxes = np.array([b.as_array() for b in random_boxes(rng, 10)])
    scores = rng.uniform(size=10)
    full = nms_indices(boxes, scores, 0.4)
    assert nms_indices(boxes, scores, 0.4, max_keep=3) == full[:3]


# -- delta coding ------------------------------------------------------------------

def _encode(anchor, target):
    return encode_deltas_array(anchor.as_array(), target.as_array())[0]


def _decode(anchor, deltas):
    return decode_deltas_array(anchor.as_array(), np.asarray(deltas, dtype=float))[0]


def test_encode_self_is_zero():
    b = BBox(2, 3, 12, 9)
    assert np.array_equal(_encode(b, b), np.zeros(4))


def test_encode_known_case():
    dx, dy, dw, dh = _encode(BBox(0, 0, 10, 10), BBox(0, 0, 20, 10))
    assert (dx, dy) == pytest.approx((0.5, 0.0), abs=1e-12)
    assert dw == pytest.approx(math.log(2.0), abs=1e-12)
    assert dh == 0.0


def test_decode_zero_deltas_identity():
    b = BBox(4, 5, 14, 11)
    out = _decode(b, (0.0, 0.0, 0.0, 0.0))
    assert out == pytest.approx((b.x1, b.y1, b.x2, b.y2), abs=1e-12)


def test_decode_known_case():
    out = _decode(BBox(0, 0, 10, 10), (0.0, 0.0, math.log(2.0), 0.0))
    assert out == pytest.approx((-5, 0, 15, 10), abs=1e-12)


def test_decode_clamps_large_growth():
    x1, y1, x2, y2 = _decode(BBox(0, 0, 1, 1), (0.0, 0.0, 50.0, 50.0))
    assert x2 - x1 == pytest.approx(16.0, abs=1e-9)
    assert y2 - y1 == pytest.approx(16.0, abs=1e-9)


def test_encode_decode_roundtrip_100_random_pairs():
    rng = np.random.default_rng(13)
    boxes = np.array([b.as_array() for b in random_boxes(rng, 200)])
    anchors, targets = boxes[0::2], boxes[1::2]
    back = decode_deltas_array(anchors, encode_deltas_array(anchors, targets))
    assert np.max(np.abs(back - targets)) < 1e-9


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    anchor, target = random_boxes(rng, 2)
    back = _decode(anchor, _encode(anchor, target))
    assert np.max(np.abs(back - target.as_array())) < 1e-9
