"""Detector pipeline: forward contracts, proposals, losses, checkpoints."""

import json
import struct

import numpy as np
import pytest

import tripledet.detector as det
from _oracles import per_class_detect, per_target_match_anchors
from tripledet import autodiff as ad
from tripledet.autodiff import Tensor
from tripledet.boxes import BBox, annotation_arrays, iou_matrix, nms_indices
from tripledet.detector import (DetectorConfig, DetectorError, DetectorModel, anchor_boxes,
                                checkpoint_bytes, checkpoint_hash, detect, forward_features,
                                frcnn_loss, head_forward, load_checkpoint, match_anchors,
                                new_model, propose, roi_pool, rpn_forward, sample_rois,
                                save_checkpoint)
from tripledet.verification import MICRO_CONFIG, micro_image, micro_targets


@pytest.fixture(scope="module")
def model():
    return new_model(DetectorConfig(), 3, seed=0)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(1).uniform(0, 1, (3, 64, 64))


@pytest.fixture(scope="module")
def features(model, image):
    return forward_features(model, image)


def zero_bias_model(seed=0):
    m = new_model(DetectorConfig(), 3, seed=seed)
    for name, p in m.params.items():
        if name.endswith(".b"):
            p.data[:] = 0.0
    return m


# -- forward_features -----------------------------------------------------------

def test_zero_image_zero_bias_gives_zero_features():
    m = zero_bias_model()
    f = forward_features(m, np.zeros((3, 64, 64)))
    assert np.array_equal(f.data, np.zeros((16, 16, 16)))


def test_feature_shape_contract(model, image):
    assert forward_features(model, image).shape == (16, 16, 16)


def test_wrong_image_shape_rejected(model):
    with pytest.raises(DetectorError):
        forward_features(model, np.zeros((3, 32, 32)))


def test_feature_grad_matches_fd_on_first_kernel(model, image):
    names = sorted(model.params)
    base = {n: model.params[n] for n in names}

    def f(w1):
        params = dict(base)
        params["backbone.conv1.w"] = w1
        m = DetectorModel(model.config, model.num_classes, params)
        return ad.tsum(forward_features(m, image))

    err = ad.grad_check(f, [model.params["backbone.conv1.w"].data])
    assert err < 1e-4


# -- proposals ---------------------------------------------------------------------

def proposals(m, f):
    obj, deltas = rpn_forward(m, f)
    return propose(m.config, obj.data, deltas.data)


def test_propose_uniform_scores_equals_anchor_nms():
    m = zero_bias_model()
    for name in ("rpn.obj.w", "rpn.delta.w"):
        m.params[name].data[:] = 0.0
    f = forward_features(m, np.random.default_rng(2).uniform(0, 1, (3, 64, 64)))
    boxes, scores = proposals(m, f)
    assert np.all(scores == 0.5)
    anchors = np.asarray(anchor_boxes(m.config))
    from tripledet.boxes import clip_boxes
    clipped = clip_boxes(anchors, 64, 64)
    keep = nms_indices(clipped, np.full(len(clipped), 0.5), 0.7,
                       max_keep=m.config.num_proposals)
    assert np.array_equal(boxes, clipped[keep])


def test_proposals_within_image(model, image):
    f = forward_features(model, image)
    boxes, scores = proposals(model, f)
    assert len(boxes) == len(scores) > 0
    x1, y1, x2, y2 = boxes.T
    assert np.all((0 <= x1) & (x1 < x2) & (x2 <= 64) & (0 <= y1) & (y1 < y2) & (y2 <= 64))


def test_propose_cap(model, image):
    f = forward_features(model, image)
    boxes, scores = proposals(model, f)
    assert len(boxes) == len(scores) <= model.config.num_proposals


# -- roi pooling --------------------------------------------------------------------

def test_roi_pool_single_cell_constant():
    f = Tensor(np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4))
    out = ad.roi_pool(f, np.array([[1.0, 2.0, 2.0, 3.0]]), 4)
    for c in range(2):
        assert np.all(out.data[0, c] == f.data[c, 2, 1])


def test_roi_pool_constant_map_constant_output():
    f = Tensor(np.full((3, 8, 8), 2.5))
    out = roi_pool(DetectorConfig(), f, np.array([[0.0, 0.0, 30.0, 30.0]]))
    assert np.all(out.data == 2.5)


def test_roi_pool_gradcheck():
    rng = np.random.default_rng(3)
    rois = np.array([[0.5, 0.5, 3.2, 3.6], [1.0, 0.2, 3.8, 2.9]])
    err = ad.grad_check(
        lambda x: ad.tsum(ad.square(ad.roi_pool(x, rois, 4))),
        [rng.normal(size=(2, 4, 4))])
    assert err < 1e-4


# -- head ------------------------------------------------------------------------------

def test_zero_head_weights_uniform_softmax(model, image):
    m = zero_bias_model()
    m.params["rcnn.cls.w"].data[:] = 0.0
    f = forward_features(m, image)
    pooled = roi_pool(m.config, f, np.array([[0.0, 0.0, 16.0, 16.0]]))
    logits, deltas = head_forward(m, pooled)
    assert np.array_equal(logits.data, np.zeros((1, 4)))
    probs = ad.softmax(logits).data
    assert np.allclose(probs, 0.25, atol=0, rtol=0)


def test_logit_width_contract(model, image):
    f = forward_features(model, image)
    pooled = roi_pool(model.config, f, np.array([[0.0, 0.0, 16.0, 16.0], [8.0, 8.0, 32.0, 32.0]]))
    logits, deltas = head_forward(model, pooled)
    assert logits.shape == (2, model.num_classes + 1)
    assert deltas.shape == (2, model.num_classes, 4)


def test_end_to_end_gradcheck_micro():
    rng = np.random.default_rng(4)
    m = new_model(MICRO_CONFIG, 2, seed=5)
    image = micro_image(rng)
    roi = np.array([[2.0, 2.0, 10.0, 10.0]])
    names = sorted(m.params)

    def f(*tensors):
        mm = DetectorModel(MICRO_CONFIG, 2, dict(zip(names, tensors)))
        feats = forward_features(mm, image)
        logits, _ = head_forward(mm, roi_pool(MICRO_CONFIG, feats, roi))
        return ad.tsum(ad.square(logits))

    err = ad.grad_check(f, [m.params[n].data for n in names])
    assert err < 1e-4


# -- one RPN forward per model per image ------------------------------------------------

def count_calls(monkeypatch, module, name):
    """Replace module.name by a pass-through that records each call's model."""
    calls = []
    real = getattr(module, name)

    def counted(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_frcnn_loss_proposes_from_its_own_rpn_outputs(model, features, monkeypatch):
    calls = count_calls(monkeypatch, det, "rpn_forward")
    backbone_calls = count_calls(monkeypatch, det, "forward_features")
    boxes, labels = annotation_arrays([(BBox(10, 10, 26, 28), 1)])
    frcnn_loss(model, features, boxes, boxes, labels, np.random.default_rng(0))
    assert calls == [model] and backbone_calls == []


def test_detect_runs_backbone_and_rpn_once(model, image, monkeypatch):
    expected = detect(model, forward_features(model, image), 0.05, 0.3)
    rpn_calls = count_calls(monkeypatch, det, "rpn_forward")
    backbone_calls = count_calls(monkeypatch, det, "forward_features")
    # the caller's one backbone pass is the only one: detect takes features
    feats = det.forward_features(model, image)
    assert detect(model, feats, 0.05, 0.3) == expected
    assert rpn_calls == [model] and backbone_calls == [model]


# -- detect ------------------------------------------------------------------------------

def test_detect_builds_one_detection_per_result(model, features, monkeypatch):
    built = []
    candidates = []
    real_detection, real_nms = det.Detection, det.nms_per_class

    def counted_detection(*args, **kwargs):
        built.append(args)
        return real_detection(*args, **kwargs)

    def recorded_nms(boxes, scores, labels, iou_thresh):
        candidates.append(len(scores))
        return real_nms(boxes, scores, labels, iou_thresh)

    expected = detect(model, features, 0.05, 0.3)
    monkeypatch.setattr(det, "Detection", counted_detection)
    monkeypatch.setattr(det, "nms_per_class", recorded_nms)
    dets = detect(model, features, 0.05, 0.3)
    assert dets == expected
    # NMS dropped candidates, and none of them became a Detection
    assert candidates[0] > len(dets) > 0
    assert len(built) == len(dets)


def test_detect_score_thresh_one_empty(model, features):
    assert detect(model, features, score_thresh=1.0, nms_thresh=0.3) == []


def test_detect_never_emits_background(model, features):
    for d in detect(model, features, score_thresh=0.05, nms_thresh=0.3):
        assert d.class_id >= 1


def test_detect_deterministic(model, image):
    a = detect(model, forward_features(model, image), 0.1, 0.3)
    b = detect(model, forward_features(model, image), 0.1, 0.3)
    assert a == b


def test_detect_equals_per_class_oracle():
    """One pass over every (class, proposal) candidate gives exactly the
    per-class loop's detections, on random nudged models with uneven class
    biases, so some classes clear a floor that others never reach."""
    rng = np.random.default_rng(11)
    partial = {0.05: 0, 0.9: 0}
    for _ in range(6):
        model = new_model(DetectorConfig(), 3, int(rng.integers(0, 2 ** 31)))
        for p in model.params.values():
            p.data += rng.normal(0.0, 0.02, p.shape)
        model.params["rcnn.cls.b"].data[:] = rng.normal(0.0, 3.0, 4)
        features = forward_features(model, rng.uniform(0, 1, (3, 64, 64)))
        for floor in partial:
            dets = detect(model, features, floor, 0.3)
            assert dets == per_class_detect(model, features, floor, 0.3)
            partial[floor] += 0 < len({d.class_id for d in dets}) < 3
    # each floor met a class with no candidate above it beside one with some
    assert all(partial.values())


# -- anchor matching and RoI sampling -------------------------------------------------------

def test_match_anchors_disjoint_and_cover_targets():
    cfg = DetectorConfig()
    anchors = anchor_boxes(cfg)
    rng = np.random.default_rng(6)
    cases = [np.array([[x, y, x + w, y + h] for x, y, w, h in
                       zip(rng.uniform(0, 36, 3), rng.uniform(0, 36, 3),
                           rng.uniform(10, 28, 3), rng.uniform(10, 28, 3))])
             for _ in range(20)]
    # outside every anchor: zero IoU, so no forced positive
    outside = np.array([[90.0, 90.0, 100.0, 100.0]])
    # both targets' best anchor is the side-16 anchor at (18, 18)
    shared = np.array([[10.0, 10.0, 26.0, 26.0], [10.5, 10.0, 26.0, 26.5]])
    cases += [outside, np.concatenate([[[20.0, 20.0, 40.0, 36.0]], outside]), shared]
    for targets in cases:
        pos, neg, match = match_anchors(anchors, targets)
        for got, want in zip((pos, neg, match), per_target_match_anchors(anchors, targets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not np.any(pos & neg)
        ious = iou_matrix(anchors, targets)
        # every target that overlaps an anchor owns at least one positive anchor
        for t in np.flatnonzero(ious.max(axis=0) > 0.0):
            assert pos[ious[:, t].argmax()]
        assert np.all(ious[neg].max(axis=1) <= det.RPN_NEG_IOU)
    assert not match_anchors(anchors, outside)[0].any()
    best = iou_matrix(anchors, shared).argmax(axis=0)
    assert best[0] == best[1]


def test_match_anchors_no_targets_all_negative():
    cfg = DetectorConfig()
    anchors = anchor_boxes(cfg)
    pos, neg, match = match_anchors(anchors, np.zeros((0, 4)))
    assert not pos.any() and neg.all()


def test_sample_rois_cap_and_reproducibility():
    rng = np.random.default_rng(7)
    candidates = np.concatenate([rng.uniform(0, 30, (40, 2)),
                                 rng.uniform(32, 60, (40, 2))], axis=1)
    targets = candidates[:10].copy()
    labels = np.arange(1, 11)
    r1 = sample_rois(candidates, targets, labels, np.random.default_rng(9))
    r2 = sample_rois(candidates, targets, labels, np.random.default_rng(9))
    for a, b in zip(r1, r2):
        assert np.array_equal(a, b)
    rois, roi_labels, match = r1
    assert len(rois) <= det.ROI_SAMPLE_SIZE
    assert (roi_labels > 0).sum() <= det.ROI_POS_CAP


# -- losses -----------------------------------------------------------------------------

def test_loss_nonnegative_and_finite(model, features):
    boxes, labels = annotation_arrays([(BBox(10, 10, 26, 26), 1), (BBox(40, 40, 58, 60), 2)])
    loss, _ = frcnn_loss(model, features, boxes, boxes, labels, np.random.default_rng(0))
    assert np.isfinite(loss.item()) and loss.item() >= 0.0


def test_loss_no_targets_negative_only_defined(model, features):
    none = np.zeros((0, 4))
    loss, _ = frcnn_loss(model, features, none, none, np.zeros(0, dtype=np.intp),
                         np.random.default_rng(0))
    assert np.isfinite(loss.item()) and loss.item() >= 0.0


def test_loss_reproducible_under_seed(model, image):
    boxes, labels = annotation_arrays([(BBox(5, 5, 20, 22), 3)])
    a, _ = frcnn_loss(model, forward_features(model, image), boxes, boxes, labels,
                      np.random.default_rng(11))
    b, _ = frcnn_loss(model, forward_features(model, image), boxes, boxes, labels,
                      np.random.default_rng(11))
    assert a.item() == b.item()


def test_loss_rejects_out_of_range_class(model, features):
    with pytest.raises(DetectorError):
        frcnn_loss(model, features, np.zeros((0, 4)), *annotation_arrays([(BBox(5, 5, 20, 22), 9)]),
                   np.random.default_rng(0))


@pytest.mark.parametrize("label", [0, -2])
def test_loss_rejects_background_and_negative_class(model, features, label):
    boxes = np.array([[5.0, 5.0, 20.0, 22.0]])
    with pytest.raises(DetectorError, match=f"class {label} outside"):
        frcnn_loss(model, features, boxes, boxes, np.array([label]), np.random.default_rng(0))


def test_loss_gradcheck_micro_one_image():
    rng = np.random.default_rng(12)
    m = new_model(MICRO_CONFIG, 2, seed=13)
    image = micro_image(rng)
    boxes, labels = micro_targets(rng, 2)
    names = sorted(m.params)

    def f(*tensors):
        mm = DetectorModel(MICRO_CONFIG, 2, dict(zip(names, tensors)))
        loss, _ = frcnn_loss(mm, forward_features(mm, image), boxes, boxes, labels,
                             np.random.default_rng(99))
        return loss

    err = ad.grad_check(f, [m.params[n].data for n in names])
    assert err < 1e-4


# -- checkpoints ----------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.num_classes == model.num_classes
    assert back.config == model.config
    assert sorted(back.params) == sorted(model.params)
    for name in model.params:
        assert np.array_equal(back.params[name].data, model.params[name].data)
    assert checkpoint_bytes(back) == checkpoint_bytes(model)


def test_checkpoint_hash_tracks_parameters(model):
    h1 = checkpoint_hash(model)
    clone = model.clone()
    assert checkpoint_hash(clone) == h1
    clone.params["rcnn.cls.b"].data[0] += 1e-9
    assert checkpoint_hash(clone) != h1


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(DetectorError):
        load_checkpoint(p)


def _split_checkpoint(model):
    raw = checkpoint_bytes(model)
    off = len(det.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<Q", raw[off:off + 8])
    header = json.loads(raw[off + 8:off + 8 + hlen])
    return header, raw[off + 8 + hlen:]


def _join_checkpoint(header, blob):
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    return det.CHECKPOINT_MAGIC + struct.pack("<Q", len(hjson)) + hjson + blob


def _assert_rejected(path, *words):
    with pytest.raises(DetectorError) as exc:
        load_checkpoint(path)
    for word in (str(path), *words):
        assert word in str(exc.value)


def test_checkpoint_rejects_truncated_file(model, tmp_path):
    p = tmp_path / "short.ckpt"
    p.write_bytes(checkpoint_bytes(model)[:-12])
    _assert_rejected(p, "truncated")


def test_checkpoint_rejects_trailing_bytes(model, tmp_path):
    p = tmp_path / "long.ckpt"
    p.write_bytes(checkpoint_bytes(model) + b"\0" * 8)
    _assert_rejected(p, "trailing bytes")


def test_checkpoint_rejects_cut_header(model, tmp_path):
    p = tmp_path / "cut.ckpt"
    p.write_bytes(checkpoint_bytes(model)[:40])
    _assert_rejected(p, "header")


def test_checkpoint_rejects_other_format_tag(model, tmp_path):
    header, blob = _split_checkpoint(model)
    header["format"] = "tripledet-checkpoint-v0"
    p = tmp_path / "v0.ckpt"
    p.write_bytes(_join_checkpoint(header, blob))
    _assert_rejected(p, "tripledet-checkpoint-v0")


@pytest.mark.parametrize("edit", ["shape", "name", "num_classes"])
def test_checkpoint_rejects_params_that_do_not_fit_the_architecture(model, tmp_path, edit):
    header, blob = _split_checkpoint(model)
    entry = next(e for e in header["params"] if e["name"] == "rcnn.fc1.b")
    if edit == "shape":
        entry["shape"] = [8, 8]            # same byte count, wrong shape
    elif edit == "name":
        entry["name"] = "rcnn.fc1.bias"
    else:
        header["num_classes"] += 1
    p = tmp_path / f"{edit}.ckpt"
    p.write_bytes(_join_checkpoint(header, blob))
    _assert_rejected(p, "parameter names/shapes")


# (header path, bad value): each loads into a DetectorConfig or a model field
# that later code uses as an integer (or, for anchor sides, as a number)
NON_INTEGER_HEADERS = {
    "num_classes": (("num_classes",), 3.0),
    "image_size": (("config", "image_size"), 64.0),
    "channels": (("config", "channels"), [8, 16.0, 16]),
    "seed": (("seed",), "x"),
    "seed_bool": (("seed",), True),
    "anchor_sides": (("config", "anchor_sides"), [8.0, "16", 32.0]),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_HEADERS))
def test_checkpoint_rejects_non_integer_header_values(model, tmp_path, case):
    (*parents, key), value = NON_INTEGER_HEADERS[case]
    header, blob = _split_checkpoint(model)
    node = header
    for name in parents:
        node = node[name]
    node[key] = value
    p = tmp_path / f"{case}.ckpt"
    p.write_bytes(_join_checkpoint(header, blob))
    _assert_rejected(p, f"header {key} must be")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(model, tmp_path, value):
    bad = model.clone()
    bad.params["rcnn.cls.b"].data[0] = value
    p = tmp_path / "nonfinite.ckpt"
    save_checkpoint(bad, p)
    _assert_rejected(p, "parameter rcnn.cls.b", "non-finite")
