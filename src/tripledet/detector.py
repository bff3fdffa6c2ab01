"""Toy two-stage detector: conv backbone, RPN, RoI pooling, R-CNN head.

The default architecture is fixed for 64x64 images: three 3x3 conv layers
(channels 3->8->16->16) with two 2x2 max-pools for a total spatial stride of
4, three square anchors per feature cell, 4x4 RoI pooling, and a two-layer
fully connected head. All sizes live in ``DetectorConfig`` so tests can build
much smaller variants for exhaustive gradient checking.

Class id 0 is background everywhere; class logits have width num_classes+1
and box deltas are per foreground class.

Checkpoints are single files: a magic string, a little-endian uint64 header
length, a JSON manifest (config, class count, seed, parameter names/shapes),
then the raw float64 parameter buffers in manifest order. Round-trips are
bit-exact.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .boxes import (Detection, clip_boxes, decode_deltas_array, encode_deltas_array,
                    iou_matrix, nms_indices, nms_per_class)

CHECKPOINT_MAGIC = b"TDETCKPT"
CHECKPOINT_FORMAT = "tripledet-checkpoint-v1"

# anchor matching and RoI sampling constants (64x64-scale Faster R-CNN defaults)
RPN_POS_IOU = 0.7
RPN_NEG_IOU = 0.3
RPN_NMS_THRESH = 0.7
RCNN_POS_IOU = 0.5
ROI_SAMPLE_SIZE = 16
ROI_POS_CAP = ROI_SAMPLE_SIZE // 4
DEGENERATE_EPS = 1e-3


class DetectorError(ValueError):
    """Raised on malformed inputs to the detector pipeline."""


@dataclass(frozen=True)
class DetectorConfig:
    image_size: int = 64
    channels: tuple[int, int, int] = (8, 16, 16)
    rpn_channels: int = 16
    anchor_sides: tuple[float, ...] = (8.0, 16.0, 32.0)
    pool_size: int = 4
    fc_width: int = 64
    num_proposals: int = 32

    @property
    def stride(self) -> int:
        # two 2x2 max-pools
        return 4

    @property
    def feature_size(self) -> int:
        return self.image_size // self.stride


class DetectorModel:
    """Parameter container; `params` maps layer names to float64 Tensors."""

    def __init__(self, config: DetectorConfig, num_classes: int,
                 params: dict[str, Tensor], seed: int = 0):
        if num_classes < 1:
            raise DetectorError(f"num_classes must be >= 1, got {num_classes}")
        self.config = config
        self.num_classes = num_classes
        self.params = params
        self.seed = seed

    def trainable(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if v.requires_grad}

    def clone(self, requires_grad: bool = True) -> "DetectorModel":
        params = {k: Tensor(v.data.copy(), requires_grad=requires_grad)
                  for k, v in self.params.items()}
        return DetectorModel(self.config, self.num_classes, params, self.seed)


def _param_shapes(config: DetectorConfig, num_classes: int) -> list[tuple[str, tuple[int, ...]]]:
    c1, c2, c3 = config.channels
    a = len(config.anchor_sides)
    fin = c3 * config.pool_size * config.pool_size
    fw = config.fc_width
    nc = num_classes
    return [
        ("backbone.conv1.w", (c1, 3, 3, 3)),
        ("backbone.conv1.b", (c1, 1, 1)),
        ("backbone.conv2.w", (c2, c1, 3, 3)),
        ("backbone.conv2.b", (c2, 1, 1)),
        ("backbone.conv3.w", (c3, c2, 3, 3)),
        ("backbone.conv3.b", (c3, 1, 1)),
        ("rpn.conv.w", (config.rpn_channels, c3, 3, 3)),
        ("rpn.conv.b", (config.rpn_channels, 1, 1)),
        ("rpn.obj.w", (a, config.rpn_channels, 1, 1)),
        ("rpn.obj.b", (a, 1, 1)),
        ("rpn.delta.w", (4 * a, config.rpn_channels, 1, 1)),
        ("rpn.delta.b", (4 * a, 1, 1)),
        ("rcnn.fc1.w", (fin, fw)),
        ("rcnn.fc1.b", (fw,)),
        ("rcnn.fc2.w", (fw, fw)),
        ("rcnn.fc2.b", (fw,)),
        ("rcnn.cls.w", (fw, nc + 1)),
        ("rcnn.cls.b", (nc + 1,)),
        ("rcnn.delta.w", (fw, nc * 4)),
        ("rcnn.delta.b", (nc * 4,)),
    ]


# final prediction layers start near zero so untrained scores are uniform
HEAD_STD = 0.01
_HEAD_PARAMS = ("rpn.obj.w", "rpn.delta.w", "rcnn.cls.w", "rcnn.delta.w")


def new_model(config: DetectorConfig, num_classes: int, seed: int) -> DetectorModel:
    """He-initialized model; prediction heads use std HEAD_STD; biases zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in _param_shapes(config, num_classes):
        if name.endswith(".b"):
            data = np.zeros(shape)
        elif name in _HEAD_PARAMS:
            data = rng.normal(0.0, HEAD_STD, shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        params[name] = Tensor(data, requires_grad=True)
    return DetectorModel(config, num_classes, params, seed)


# -- forward passes -----------------------------------------------------------

def forward_features(model: DetectorModel, image) -> Tensor:
    """Backbone features for a (3, S, S) image with values in [0, 1]."""
    x = image if isinstance(image, Tensor) else Tensor(image)
    s = model.config.image_size
    if x.shape != (3, s, s):
        raise DetectorError(f"expected image shape (3, {s}, {s}), got {x.shape}")
    p = model.params
    x = ad.relu(ad.conv2d(x, p["backbone.conv1.w"], p["backbone.conv1.b"]))
    x = ad.max_pool2(x)
    x = ad.relu(ad.conv2d(x, p["backbone.conv2.w"], p["backbone.conv2.b"]))
    x = ad.max_pool2(x)
    x = ad.relu(ad.conv2d(x, p["backbone.conv3.w"], p["backbone.conv3.b"]))
    return x


def rpn_forward(model: DetectorModel, features: Tensor) -> tuple[Tensor, Tensor]:
    """(objectness logits (A,H,W), box deltas (4A,H,W)) from features."""
    p = model.params
    h = ad.relu(ad.conv2d(features, p["rpn.conv.w"], p["rpn.conv.b"]))
    obj = ad.conv2d(h, p["rpn.obj.w"], p["rpn.obj.b"])
    deltas = ad.conv2d(h, p["rpn.delta.w"], p["rpn.delta.b"])
    return obj, deltas


@functools.cache
def anchor_boxes(config: DetectorConfig) -> np.ndarray:
    """All anchors as a read-only (A*H*W, 4) array in (anchor, y, x) order, once per config."""
    fs = config.feature_size
    stride = config.stride
    centers = (np.arange(fs) + 0.5) * stride
    cy, cx = np.meshgrid(centers, centers, indexing="ij")
    boxes = []
    for side in config.anchor_sides:
        half = side / 2.0
        boxes.append(np.stack([cx - half, cy - half, cx + half, cy + half], axis=-1).reshape(-1, 4))
    out = np.concatenate(boxes, axis=0)
    out.flags.writeable = False
    return out


def _decode_clipped(config: DetectorConfig, boxes: np.ndarray, deltas: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(k,4) `boxes` decoded by `deltas` and clipped to the image, without
    those that collapse to zero width or height, and the kept row indices."""
    out = clip_boxes(decode_deltas_array(boxes, deltas), config.image_size, config.image_size)
    keep = np.flatnonzero(((out[:, 2] - out[:, 0]) > DEGENERATE_EPS)
                          & ((out[:, 3] - out[:, 1]) > DEGENERATE_EPS))
    return out[keep], keep


def propose(config: DetectorConfig, obj: np.ndarray, deltas: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Proposal boxes (K,4) and objectness scores (K,), highest score first,
    from one image's RPN outputs: objectness logits (A,H,W) and box deltas
    (4A,H,W), as arrays.

    Decoded anchors are clipped to the image; boxes that collapse to zero
    width or height are dropped; NMS runs at 0.7 and the top-K survivors by
    objectness are kept. None of this is differentiable: proposal boxes are
    data, and the RPN learns only through its own losses.
    """
    a = len(config.anchor_sides)
    fs = config.feature_size
    scores = 1.0 / (1.0 + np.exp(-obj.reshape(-1)))
    # (4A,H,W) -> (A,4,H,W) -> (A,H,W,4) -> rows in (anchor, y, x) order
    d = deltas.reshape(a, 4, fs, fs).transpose(0, 2, 3, 1).reshape(-1, 4)
    boxes, idx = _decode_clipped(config, anchor_boxes(config), d)
    keep = nms_indices(boxes, scores[idx], RPN_NMS_THRESH, max_keep=config.num_proposals)
    return boxes[keep], scores[idx[keep]]


def roi_pool(config: DetectorConfig, features: Tensor, rois: np.ndarray) -> Tensor:
    """(n, c, P, P) nearest-neighbor pooled features for (n, 4) image-space
    RoIs, mapped onto the feature grid by the backbone stride."""
    arr = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    return ad.roi_pool(features, arr / float(config.stride), config.pool_size)


def _head_hidden(model: DetectorModel, pooled: Tensor) -> Tensor:
    """The head's (n, fc_width) second hidden layer over pooled features."""
    p = model.params
    cfg = model.config
    flat = ad.reshape(pooled, (pooled.shape[0], cfg.channels[2] * cfg.pool_size * cfg.pool_size))
    h = ad.relu(ad.matmul(flat, p["rcnn.fc1.w"]) + p["rcnn.fc1.b"])
    return ad.relu(ad.matmul(h, p["rcnn.fc2.w"]) + p["rcnn.fc2.b"])


def head_logits(model: DetectorModel, pooled: Tensor) -> Tensor:
    """Class logits (n, C+1) from pooled features, without the box deltas."""
    p = model.params
    return ad.matmul(_head_hidden(model, pooled), p["rcnn.cls.w"]) + p["rcnn.cls.b"]


def head_forward(model: DetectorModel, pooled: Tensor) -> tuple[Tensor, Tensor]:
    """(class logits (n, C+1), per-class deltas (n, C, 4)) from pooled features."""
    p = model.params
    h = _head_hidden(model, pooled)
    return (ad.matmul(h, p["rcnn.cls.w"]) + p["rcnn.cls.b"],
            ad.reshape(ad.matmul(h, p["rcnn.delta.w"]) + p["rcnn.delta.b"],
                       (pooled.shape[0], model.num_classes, 4)))


def detect(model: DetectorModel, features: Tensor, score_thresh: float,
           nms_thresh: float) -> list[Detection]:
    """Full inference on the model's backbone `features`: proposals,
    per-class scores/boxes, filter, per-class NMS.

    Background (class 0) is never emitted; kept detections have
    score > score_thresh.
    """
    cfg = model.config
    obj, deltas = rpn_forward(model, features)
    prop_boxes, _ = propose(cfg, obj.data, deltas.data)
    pooled = roi_pool(cfg, features, prop_boxes)
    logits, deltas = head_forward(model, pooled)
    probs = ad.softmax(logits).data
    # candidates class-major, proposals ascending: the order NMS breaks ties by
    cls, rows = np.nonzero(probs[:, 1:].T > score_thresh)
    boxes, keep = _decode_clipped(cfg, prop_boxes[rows], deltas.data[rows, cls])
    rows, labels = rows[keep], cls[keep] + 1
    scores = probs[rows, labels]
    kept = nms_per_class(boxes, scores, labels, nms_thresh)
    return [Detection(tuple(b), c, s) for b, c, s in
            zip(boxes[kept].tolist(), labels[kept].tolist(), scores[kept].tolist())]


# -- training targets and losses ------------------------------------------------

def match_anchors(anchors: np.ndarray, targets: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positive mask, negative mask, matched target index) per anchor.

    Positives: IoU >= 0.7 with some target, plus the best anchor of each
    target. Negatives: max IoU <= 0.3 and not positive, so the two sets are
    disjoint. Remaining anchors are ignored by the loss. With no targets all
    anchors are negative.
    """
    n = len(anchors)
    if len(targets) == 0:
        return np.zeros(n, bool), np.ones(n, bool), np.full(n, -1, dtype=np.intp)
    ious = iou_matrix(anchors, targets)
    best = ious.max(axis=1)
    match = ious.argmax(axis=1)
    pos = best >= RPN_POS_IOU
    # each target's best anchor, unless the target overlaps no anchor at all
    hit = np.flatnonzero(ious.max(axis=0) > 0.0)
    pos[ious[:, hit].argmax(axis=0)] = True
    neg = (best <= RPN_NEG_IOU) & ~pos
    return pos, neg, match.astype(np.intp)


RoiSample = tuple[np.ndarray, np.ndarray, np.ndarray]    # (rois, labels, deltas)


def sample_rois(candidates: np.ndarray, targets: np.ndarray, labels: np.ndarray,
                rng: np.random.Generator) -> RoiSample:
    """Sample up to 16 RoIs with at most 1/4 positives, positives first.

    Returns (roi boxes (n,4), roi class labels (n,), box-regression targets
    (n,4)). A candidate is positive when its best IoU against a target is
    >= 0.5; its label is that target's class and its box target the RoI
    encoded against that target. Background rows have label 0 and box target
    0.0. Consumes two permutation draws from `rng` (positives first, then
    negatives).
    """
    ious = iou_matrix(candidates, targets)
    # with no targets the (n, 0) matrix gives every candidate a best IoU of 0
    is_pos = ious.max(axis=1, initial=0.0) >= RCNN_POS_IOU
    take_pos = rng.permutation(np.flatnonzero(is_pos))[:ROI_POS_CAP]
    take_neg = rng.permutation(np.flatnonzero(~is_pos))[:ROI_SAMPLE_SIZE - len(take_pos)]
    chosen = np.concatenate([take_pos, take_neg])
    rois = candidates[chosen]
    roi_labels = np.zeros(len(chosen), dtype=np.intp)
    deltas = np.zeros((len(chosen), 4))
    npos = len(take_pos)
    if npos:
        match = ious[take_pos].argmax(axis=1)
        roi_labels[:npos] = labels[match]
        deltas[:npos] = encode_deltas_array(rois[:npos], targets[match])
    return rois, roi_labels, deltas


@dataclass(frozen=True)
class Targets:
    """One scene's training targets for one model, built by `training_targets`:
    the RPN half of `frcnn_loss`'s targets, laid out as its (A, H, W) head
    tensors, and the R-CNN boxes and labels. The arrays are read-only."""
    rpn_label: np.ndarray            # (A, H, W) float, 1.0 on positive anchors
    rpn_mask: np.ndarray             # (A, H, W) float, 1.0 on positive and negative anchors
    rpn_cls_norm: float              # 1 / max(rpn_mask.sum(), 1)
    rpn_deltas: np.ndarray           # (A, 4, H, W) encoded targets of the positives, else 0
    rpn_reg_norm: float              # 1 / max(number of positives, 1)
    rcnn_boxes: np.ndarray           # (k, 4)
    rcnn_labels: np.ndarray          # (k,) class ids in 1..num_classes


def training_targets(model: DetectorModel, rpn_boxes: np.ndarray, rcnn_boxes: np.ndarray,
                     rcnn_labels: np.ndarray) -> Targets:
    """The `Targets` of `model` for class-agnostic RPN boxes `rpn_boxes`
    (n,4) and R-CNN boxes `rcnn_boxes` (k,4) with class ids `rcnn_labels`
    (k,) in 1..num_classes: anchors are matched and encoded here, once."""
    bad = rcnn_labels[(rcnn_labels < 1) | (rcnn_labels > model.num_classes)]
    if len(bad):
        raise DetectorError(f"rcnn target class {bad[0]} outside 1..{model.num_classes}")
    cfg = model.config
    shape = (len(cfg.anchor_sides), cfg.feature_size, cfg.feature_size)
    anchors = anchor_boxes(cfg)
    pos, neg, match = match_anchors(anchors, rpn_boxes)
    deltas = np.zeros((len(anchors), 4))
    deltas[pos] = encode_deltas_array(anchors[pos], rpn_boxes[match[pos]])
    deltas = deltas.reshape(*shape, 4).transpose(0, 3, 1, 2)
    label = pos.reshape(shape).astype(np.float64)
    mask = (pos | neg).reshape(shape).astype(np.float64)
    for arr in (label, mask, deltas):
        arr.flags.writeable = False
    return Targets(label, mask, 1.0 / max(mask.sum(), 1.0), deltas,
                   1.0 / max(pos.sum(), 1), rcnn_boxes, rcnn_labels)


@dataclass
class LossInternals:
    sample: RoiSample                # the (rois, labels, deltas) the loss used, drawn or pinned
    pooled: Tensor                   # (n, c, P, P)
    cls_logits: Tensor               # (n, C+1)


def roi_candidates(config: DetectorConfig, obj: np.ndarray, deltas: np.ndarray,
                   rcnn_boxes: np.ndarray) -> np.ndarray:
    """RoI candidate pool for sampling: the proposals of the RPN outputs
    `obj`/`deltas` (arrays, see `propose`) plus the (k,4) R-CNN target boxes
    themselves (so positives exist from the first step)."""
    prop_boxes, _ = propose(config, obj, deltas)
    return np.concatenate([prop_boxes, rcnn_boxes], axis=0)


def frcnn_loss(model: DetectorModel, features: Tensor, targets: Targets,
               rng: np.random.Generator | None, sampled: RoiSample | None = None
               ) -> tuple[Tensor, LossInternals]:
    """Detection loss on the model's backbone `features` against the model's
    `targets`: RPN binary cross-entropy + smooth-L1, R-CNN cross-entropy +
    smooth-L1, each term normalized by its sample count; returned with the
    `LossInternals` that distillation reads.

    RoIs are drawn from `rng` by `sample_rois` over `roi_candidates`, built
    from the same RPN outputs the RPN terms read, unless `sampled` pins that
    draw's `(rois, labels, deltas)`; then neither runs and `rng` is not read.
    Gradient checks pin it because RoI selection is piecewise constant in the
    parameters (zero gradient almost everywhere) and a selection flip inside
    the probe step would invalidate the finite difference.
    """
    cfg = model.config

    # RPN terms, laid out as (A, H, W) to match the head tensors
    obj, deltas = rpn_forward(model, features)
    bce = ad.softplus(obj) - obj * Tensor(targets.rpn_label)
    rpn_cls = ad.tsum(bce * Tensor(targets.rpn_mask)) * Tensor(targets.rpn_cls_norm)
    pred = ad.reshape(deltas, targets.rpn_deltas.shape)
    # each positive anchor's label masks its four deltas
    rpn_reg = ad.tsum(ad.smooth_l1(pred - Tensor(targets.rpn_deltas))
                      * Tensor(targets.rpn_label[:, None]))
    rpn_reg = rpn_reg * Tensor(targets.rpn_reg_norm)

    # R-CNN terms on sampled RoIs
    if sampled is None:
        rcnn_boxes = targets.rcnn_boxes
        sampled = sample_rois(roi_candidates(cfg, obj.data, deltas.data, rcnn_boxes),
                              rcnn_boxes, targets.rcnn_labels, rng)
    rois, roi_labels, roi_deltas = sampled

    pooled = roi_pool(cfg, features, rois)
    logits, pred_deltas = head_forward(model, pooled)
    n = len(rois)
    onehot = np.zeros((n, model.num_classes + 1))
    onehot[np.arange(n), roi_labels] = 1.0
    rcnn_cls = ad.tsum(ad.log_softmax(logits) * Tensor(onehot)) * Tensor(-1.0 / n)

    dmask = np.zeros((n, model.num_classes, 1))
    dtgt = np.zeros((n, model.num_classes, 4))
    pos_rows = np.flatnonzero(roi_labels > 0)
    pos_cls = roi_labels[pos_rows] - 1
    dmask[pos_rows, pos_cls, 0] = 1.0
    dtgt[pos_rows, pos_cls] = roi_deltas[pos_rows]
    rcnn_reg = ad.tsum(ad.smooth_l1(pred_deltas - Tensor(dtgt)) * Tensor(dmask))
    rcnn_reg = rcnn_reg * Tensor(1.0 / max(len(pos_rows), 1))

    total = rpn_cls + rpn_reg + rcnn_cls + rcnn_reg
    return total, LossInternals(sample=sampled, pooled=pooled, cls_logits=logits)


# -- checkpoint I/O -------------------------------------------------------------

def checkpoint_bytes(model: DetectorModel) -> bytes:
    names = sorted(model.params)
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "num_classes": model.num_classes,
        "seed": model.seed,
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes()
                    for n in names)
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(hjson)) + hjson + blob


def save_checkpoint(model: DetectorModel, path) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(model))


def load_checkpoint(path, requires_grad: bool = True) -> DetectorModel:
    """Read a checkpoint written by `save_checkpoint`.

    A file that is not one, is cut short, carries trailing bytes, has another
    format tag, a non-integer size, class count or seed, a size or class count
    below 1, an image size that is not a multiple of the stride or no finite
    positive anchor side, lists parameters other than the header's
    architecture needs, or holds a non-finite parameter raises DetectorError
    naming the file (and the parameter or header key).
    """
    with open(path, "rb") as f:
        raw = f.read()
    off = len(CHECKPOINT_MAGIC) + 8
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC or len(raw) < off:
        raise DetectorError(f"{path}: not a detector checkpoint")
    (hlen,) = struct.unpack("<Q", raw[off - 8:off])
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
        fmt = header["format"]
        config = DetectorConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in header["config"].items()})
        num_classes = header["num_classes"]
        seed = header["seed"]
        stored = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        expected = sorted(_param_shapes(config, num_classes))
    except KeyError as e:
        raise DetectorError(f"{path}: checkpoint header lacks {e}") from None
    except (ValueError, TypeError, RecursionError) as e:
        raise DetectorError(f"{path}: malformed checkpoint header: {e}") from None
    # sizes, class count and seed are integers; anchor sides may also be floats
    for key, value in dict(asdict(config), num_classes=num_classes, seed=seed).items():
        kind, types = ("number", (int, float)) if key == "anchor_sides" else ("integer", int)
        if any(isinstance(v, bool) or not isinstance(v, types)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise DetectorError(f"{path}: checkpoint header {key} must be {kind}s, got {value!r}")
    sizes = dict(asdict(config), num_classes=num_classes)
    del sizes["anchor_sides"]
    for key, value in sizes.items():
        if any(v < 1 for v in (value if isinstance(value, tuple) else (value,))):
            raise DetectorError(f"{path}: checkpoint header {key} must be >= 1, got {value!r}")
    if config.image_size % config.stride:
        raise DetectorError(f"{path}: checkpoint header image_size must be a multiple of "
                            f"{config.stride}, got {config.image_size}")
    # NaN fails both comparisons
    if not config.anchor_sides or not all(0 < s < np.inf for s in config.anchor_sides):
        raise DetectorError(f"{path}: checkpoint header anchor_sides must be a non-empty list "
                            f"of finite sides > 0, got {list(config.anchor_sides)}")
    if fmt != CHECKPOINT_FORMAT:
        raise DetectorError(f"{path}: checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT!r}")
    if stored != expected:
        raise DetectorError(f"{path}: parameter names/shapes do not match a "
                            f"{num_classes}-class detector of the stored config")
    blob = raw[off + hlen:]
    need = 8 * sum(int(np.prod(shape)) for _, shape in stored)
    if len(blob) != need:
        problem = "truncated" if len(blob) < need else "trailing bytes"
        raise DetectorError(f"{path}: {problem}: {len(blob)} parameter bytes, expected {need}")
    params: dict[str, Tensor] = {}
    pos = 0
    for name, shape in stored:
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(blob[pos:pos + size], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise DetectorError(f"{path}: parameter {name} holds non-finite values")
        params[name] = Tensor(arr, requires_grad=requires_grad)
        pos += size
    return DetectorModel(config, num_classes, params, seed)


def checkpoint_hash(model: DetectorModel) -> str:
    return hashlib.sha256(checkpoint_bytes(model)).hexdigest()
