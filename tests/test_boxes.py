"""Box arithmetic against brute-force references and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (brute_force_nms, fancy_clip_boxes, loop_nms_indices, nms_detections,
                      random_boxes)
from tripledet.boxes import (NMS_BLOCK, Detection, clip_boxes, decode_deltas_array,
                             encode_deltas_array, iou, iou_matrix, nms_indices, nms_per_class)

NEG_NAN = np.copysign(np.nan, -1.0)


# -- iou ------------------------------------------------------------------------

def test_iou_identical_box():
    b = (3.0, 4.0, 10.0, 12.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0


def test_iou_partial_overlap_exact():
    # intersection 50, union 150
    assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_detection_validation():
    b = (0, 0, 1, 1)
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
    m = iou_matrix(np.array(a), np.array(b))
    for i, ba in enumerate(a):
        for j, bb in enumerate(b):
            assert m[i, j] == pytest.approx(iou(ba, bb), abs=1e-12)


# -- NMS -------------------------------------------------------------------------

def test_nms_two_overlapping_same_class():
    b1 = (0, 0, 10, 10)
    b2 = (1, 0, 11, 10)  # IoU 9/11 = 0.82
    dets = [Detection(b2, 1, 0.8), Detection(b1, 1, 0.9)]
    out = nms_detections(dets, 0.3)
    assert out == [Detection(b1, 1, 0.9)]


def test_nms_identical_boxes_different_classes_both_kept():
    b = (0, 0, 10, 10)
    dets = [Detection(b, 1, 0.7), Detection(b, 2, 0.7)]
    assert len(nms_detections(dets, 0.3)) == 2


def test_nms_empty():
    assert nms_detections([], 0.5) == []


def test_nms_boundary_iou_survives():
    # IoU exactly at the threshold is not suppressed (strict inequality)
    b1 = (0, 0, 10, 10)
    b2 = (5, 0, 15, 10)  # IoU 1/3 with b1
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


def _nms_case(rng, n):
    """(boxes, scores) of n candidates: half the cases real-valued, half on an
    integer grid with few distinct scores, so equal IoUs and score ties abound."""
    if rng.random() < 0.5:
        xy = rng.uniform(0, 60, (n, 2))
        boxes = np.hstack([xy, xy + rng.uniform(2, 20, (n, 2))])
        return boxes, rng.uniform(size=n)
    xy = rng.integers(0, 12, (n, 2)).astype(float)
    boxes = np.hstack([xy, xy + rng.integers(1, 6, (n, 2))])
    return boxes, rng.integers(0, 4, n) / 4.0


def test_nms_indices_equals_loop_oracle_600_cases():
    """Blocked NMS keeps exactly the indices, in exactly the order, of the
    one-box-at-a-time loop: block edges, max_keep on and off, mid-block stops."""
    rng = np.random.default_rng(11)
    edges = [1, NMS_BLOCK - 1, NMS_BLOCK, NMS_BLOCK + 1, 2 * NMS_BLOCK + 1]
    for case in range(600):
        n = edges[case % len(edges)] if case < 100 else int(rng.integers(0, 301))
        boxes, scores = _nms_case(rng, n)
        thresh = float(rng.choice([0.3, 0.5, 0.7, rng.uniform(0.05, 0.95)]))
        full = loop_nms_indices(boxes, scores, thresh)
        got = nms_indices(boxes, scores, thresh)
        assert got == full and all(type(i) is int for i in got)
        # a cap below, at and past the survivor count, landing anywhere in a block
        for max_keep in {1, max(1, len(full) // 2), len(full) + 1, int(rng.integers(1, n + 2))}:
            assert nms_indices(boxes, scores, thresh, max_keep) == \
                loop_nms_indices(boxes, scores, thresh, max_keep)


def test_nms_indices_equals_loop_oracle_on_tied_nan_and_signed_zero_scores():
    """The stable argsort visits candidates in the two-key lexsort's order:
    equal scores (+0.0 and -0.0 among them) by ascending index, and NaN
    scores of either sign last, also by ascending index."""
    rng = np.random.default_rng(17)
    values = np.array([1.0, 0.5, 0.5, 0.0, -0.0, np.nan, NEG_NAN, np.inf, -np.inf])
    for case in range(200):
        n = int(rng.integers(0, 3 * NMS_BLOCK))
        boxes, _ = _nms_case(rng, n)
        scores = rng.choice(values, size=n)
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        assert nms_indices(boxes, scores, thresh) == loop_nms_indices(boxes, scores, thresh)


def test_clip_boxes_equals_fancy_index_oracle_bytes():
    """Clipping the strided column views in place gives the bytes of clipping
    fancy-indexed copies, ±0, NaN of both signs and ±inf included, and leaves
    the input as it was."""
    rng = np.random.default_rng(19)
    values = np.array([0.0, -0.0, np.nan, NEG_NAN, np.inf, -np.inf, 64.0, 1e-310, -1e-310])
    for case in range(100):
        boxes = rng.uniform(-20.0, 84.0, (int(rng.integers(0, 40)), 4))
        pick = rng.random(boxes.shape) < 0.3
        boxes[pick] = rng.choice(values, size=int(pick.sum()))
        before = boxes.copy()
        width, height = rng.choice([64, 64.0, 31.5], size=2)
        got, ref = clip_boxes(boxes, width, height), fancy_clip_boxes(boxes, width, height)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes() and boxes.tobytes() == before.tobytes()


def test_nms_indices_max_keep_stops_mid_block():
    # disjoint boxes all survive, so the cap is the only stop
    boxes = np.array([[3.0 * i, 0.0, 3.0 * i + 2.0, 2.0] for i in range(2 * NMS_BLOCK)])
    scores = np.linspace(1.0, 0.0, len(boxes))
    for max_keep in (NMS_BLOCK // 2, NMS_BLOCK + 5):
        assert nms_indices(boxes, scores, 0.5, max_keep) == list(range(max_keep))


def test_nms_indices_max_keep_zero_keeps_nothing():
    boxes = np.array([[0.0, 0.0, 2.0, 2.0], [5.0, 5.0, 7.0, 7.0]])
    scores = np.array([0.9, 0.8])
    assert nms_indices(boxes, scores, 0.5) == [0, 1]
    assert nms_indices(boxes, scores, 0.5, max_keep=0) == []
    assert loop_nms_indices(boxes, scores, 0.5, max_keep=0) == []


def test_nms_indices_nan_iou_suppresses():
    """A candidate survives only where its IoU is <= the threshold: a NaN box's
    IoU with everything is NaN, so it and every box after it are dropped by
    whichever is kept first, in both forms."""
    boxes = np.array([[0, 0, 4, 4], [np.nan, 0, 4, 4], [20, 20, 24, 24], [40, 0, 44, 4]], float)
    for scores in ([0.9, 0.8, 0.7, 0.6], [0.5, 0.9, 0.7, 0.6]):
        got = nms_indices(boxes, np.array(scores), 0.5)
        assert got == loop_nms_indices(boxes, np.array(scores), 0.5)
        assert got == ([0, 2, 3] if scores[0] == 0.9 else [1])


def test_nms_indices_max_keep_prefix():
    rng = np.random.default_rng(11)
    boxes = np.array(random_boxes(rng, 10))
    scores = rng.uniform(size=10)
    full = nms_indices(boxes, scores, 0.4)
    assert nms_indices(boxes, scores, 0.4, max_keep=3) == full[:3]


# -- delta coding ------------------------------------------------------------------

def _encode(anchor, target):
    return encode_deltas_array(anchor, target)[0]


def _decode(anchor, deltas):
    return decode_deltas_array(anchor, np.asarray(deltas, dtype=float))[0]


def test_encode_self_is_zero():
    b = (2, 3, 12, 9)
    assert np.array_equal(_encode(b, b), np.zeros(4))


def test_encode_known_case():
    dx, dy, dw, dh = _encode((0, 0, 10, 10), (0, 0, 20, 10))
    assert (dx, dy) == pytest.approx((0.5, 0.0), abs=1e-12)
    assert dw == pytest.approx(math.log(2.0), abs=1e-12)
    assert dh == 0.0


def test_decode_zero_deltas_identity():
    b = (4, 5, 14, 11)
    out = _decode(b, (0.0, 0.0, 0.0, 0.0))
    assert out == pytest.approx(b, abs=1e-12)


def test_decode_known_case():
    out = _decode((0, 0, 10, 10), (0.0, 0.0, math.log(2.0), 0.0))
    assert out == pytest.approx((-5, 0, 15, 10), abs=1e-12)


def test_decode_clamps_large_growth():
    x1, y1, x2, y2 = _decode((0, 0, 1, 1), (0.0, 0.0, 50.0, 50.0))
    assert x2 - x1 == pytest.approx(16.0, abs=1e-9)
    assert y2 - y1 == pytest.approx(16.0, abs=1e-9)


def test_encode_decode_roundtrip_100_random_pairs():
    rng = np.random.default_rng(13)
    boxes = np.array(random_boxes(rng, 200))
    anchors, targets = boxes[0::2], boxes[1::2]
    back = decode_deltas_array(anchors, encode_deltas_array(anchors, targets))
    assert np.max(np.abs(back - targets)) < 1e-9


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    anchor, target = random_boxes(rng, 2)
    back = _decode(anchor, _encode(anchor, target))
    assert np.max(np.abs(back - np.array(target))) < 1e-9
