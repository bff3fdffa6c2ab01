"""Brute-force reference implementations shared by the test modules.

These deliberately use plain loops and literal definitions, independent of
the library code paths they check, or keep a rewritten function's old body
as an exact-equality oracle. `scene_losses` is the one shared step helper,
and `assert_probes_exact` the one shared gradient-check helper.
"""

import numpy as np

from tripledet import autodiff as ad
from tripledet.autodiff import FD_STEP, GradCheckError, Tensor
from tripledet.boxes import (Detection, clip_boxes, decode_deltas_array, encode_deltas_array,
                             iou, iou_matrix, nms_per_class)
from tripledet.detector import (DEGENERATE_EPS, RPN_NEG_IOU, RPN_POS_IOU, DetectorError,
                                LossInternals, anchor_boxes, head_forward, match_anchors,
                                propose, roi_candidates, roi_pool, rpn_forward, sample_rois)
from tripledet.distill import GRAM_EPS
from tripledet.trainer import compute_losses, scene_targets


def random_boxes(rng, n, span=40.0):
    # sides in [2, 20]: size ratios stay below the 16x decode clamp
    out = []
    for _ in range(n):
        x1 = rng.uniform(0, span)
        y1 = rng.uniform(0, span)
        out.append((x1, y1, x1 + rng.uniform(2, 20), y1 + rng.uniform(2, 20)))
    return out


def random_detections(rng, n, num_classes=3):
    out = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 40, 2)
        out.append(Detection((x1, y1, x1 + rng.uniform(4, 20), y1 + rng.uniform(4, 20)),
                             int(rng.integers(1, num_classes + 1)),
                             float(rng.uniform())))
    return out


def brute_force_nms(dets, thresh):
    """Literal greedy reference: per class, repeatedly take the best remaining
    detection and delete overlaps; ties break toward lower input index."""
    kept = []
    for cls in sorted({d.class_id for d in dets}):
        remaining = [(i, d) for i, d in enumerate(dets) if d.class_id == cls]
        while remaining:
            best = min(remaining, key=lambda t: (-t[1].score, t[0]))
            kept.append(best)
            remaining = [(i, d) for i, d in remaining
                         if i != best[0] and iou(d.bbox, best[1].bbox) <= thresh]
    kept.sort(key=lambda t: (-t[1].score, t[0]))
    return [d for _, d in kept]


def nms_detections(dets, thresh):
    """Not an oracle: the library's array `nms_per_class` applied to a list
    of Detections (to arrays, then the kept Detections back)."""
    boxes = np.array([d.bbox for d in dets], dtype=np.float64).reshape(-1, 4)
    labels = np.array([d.class_id for d in dets], dtype=np.intp)
    keep = nms_per_class(boxes, np.array([d.score for d in dets]), labels, thresh)
    return [dets[i] for i in keep]


# -- kernels, as the one-box-at-a-time, argmax, where, add.at and loop forms -----

def loop_nms_indices(boxes, scores, iou_thresh, max_keep=None):
    """`nms_indices` as a loop that keeps one box per iteration and drops its
    overlaps from the rest of the candidates, sorted by a two-key lexsort
    (descending score, then ascending index)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        return []
    order = np.lexsort((np.arange(n), -scores))
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    keep = []
    while order.size > 0 and (max_keep is None or len(keep) < max_keep):
        i = order[0]
        keep.append(int(i))
        rest = order[1:]
        ix = np.minimum(boxes[i, 2], boxes[rest, 2]) - np.maximum(boxes[i, 0], boxes[rest, 0])
        iy = np.minimum(boxes[i, 3], boxes[rest, 3]) - np.maximum(boxes[i, 1], boxes[rest, 1])
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        ious = inter / (areas[i] + areas[rest] - inter)
        order = rest[ious <= iou_thresh]
    return keep


def kernel_of(op, tensors):
    """`op` as a `_make` kernel: its value, with its first `tensors`
    arguments given as arrays."""
    return lambda *args: op(*map(Tensor, args[:tensors]), *args[tensors:]).data


def zero_fill_accum(t, g):
    """`autodiff._accum` adding every contribution, the first one included,
    into a buffer that starts zero-filled."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def loop_im2col(xp, k, h, w):
    """`autodiff._im2col` as one strided slice copy per kernel offset."""
    cin = xp.shape[0]
    cols = np.empty((cin, k, k, h, w), dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xp[:, ki:ki + h, kj:kj + w]
    return cols.reshape(cin * k * k, h * w)


def argmax_max_pool2(x):
    """`max_pool2` over a (c, h/2, w/2, 4) window view: argmax picks the cell,
    `take_along_axis` its value, `put_along_axis` its gradient."""
    c, h, w = x.shape
    win = x.data.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        c, h // 2, w // 2, 4)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]

    def bw(g):
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=3)
        gx = gwin.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
        zero_fill_accum(x, gx)

    return ad._make(out, "max_pool2", (x,), bw, kernel_of(argmax_max_pool2, 1), (x,))


def fancy_clip_boxes(boxes, width, height):
    """`clip_boxes` clipping two fancy-indexed column copies and writing them back."""
    out = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).copy()
    out[:, [0, 2]] = np.clip(out[:, [0, 2]], 0.0, width)
    out[:, [1, 3]] = np.clip(out[:, [1, 3]], 0.0, height)
    return out


def where_relu(x):
    """`relu` selecting each value or 0.0 with `np.where` over the `x > 0` mask."""
    mask = x.data > 0

    def bw(g):
        ad._accum(x, g * mask)

    return ad._make(np.where(mask, x.data, 0.0), "relu", (x,), bw, kernel_of(where_relu, 1),
                    (x,))


def where_max_pool2(x):
    """`max_pool2` taking every output from a `np.where` chain over the first
    three cells' hit masks, with `top` for the rest."""
    cells = [x.data[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    hits = [cell == top for cell in cells[:3]]
    out = np.where(hits[0], cells[0], np.where(hits[1], cells[1],
                                               np.where(hits[2], cells[2], top)))

    def bw(g):
        taken = hits[0] | hits[1]
        masks = (hits[0], hits[1] & ~hits[0], hits[2] & ~taken, ~(taken | hits[2]))
        gx = np.empty_like(x.data)
        for (i, j), mask in zip(((0, 0), (0, 1), (1, 0), (1, 1)), masks):
            gx[:, i::2, j::2] = np.where(mask, g, 0.0)
        ad._accum(x, gx)

    return ad._make(out, "max_pool2", (x,), bw, kernel_of(where_max_pool2, 1), (x,))


def add_at_roi_pool(features, rois, size):
    """`roi_pool` scattering its gradient with `np.add.at` into a zero-filled map."""
    rois = np.asarray(rois, dtype=np.float64)
    c, h, w = features.shape
    n = rois.shape[0]
    frac = (np.arange(size) + 0.5) / size
    xs = rois[:, 0:1] + frac[None, :] * (rois[:, 2:3] - rois[:, 0:1])
    ys = rois[:, 1:2] + frac[None, :] * (rois[:, 3:4] - rois[:, 1:2])
    yy = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)[:, :, None]
    xx = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)[:, None, :]
    out = features.data[:, yy, xx].transpose(1, 0, 2, 3)

    def bw(g):
        gf = np.zeros_like(features.data)
        yy_b = np.broadcast_to(yy, (n, size, size)).reshape(-1)
        xx_b = np.broadcast_to(xx, (n, size, size)).reshape(-1)
        gt = g.transpose(1, 0, 2, 3).reshape(c, -1)
        np.add.at(gf, (slice(None), yy_b, xx_b), gt)
        ad._accum(features, gf)

    return ad._make(out, "roi_pool", (features,), bw, kernel_of(add_at_roi_pool, 1),
                    (features, rois, size))


def np_pad_conv2d(x, w):
    """`conv2d` zero-padding its input with `np.pad`."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    cols = loop_im2col(xp, k, h, wd)
    wm = w.data.reshape(cout, cin * k * k)
    out = (wm @ cols).reshape(cout, h, wd)

    def bw(g):
        gm = g.reshape(cout, h * wd)
        if w.requires_grad:
            zero_fill_accum(w, (gm @ cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = (wm.T @ gm).reshape(cin, k, k, h, wd)
            gxp = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gxp[:, ki:ki + h, kj:kj + wd] += gcols[:, ki, kj]
            zero_fill_accum(x, gxp[:, pad:pad + h, pad:pad + wd] if pad else gxp)

    return ad._make(out, "conv2d", (x, w), bw, kernel_of(np_pad_conv2d, 2), (x, w))


# -- detector steps, as per-class and per-target loops --------------------------

def per_class_detect(model, features, score_thresh, nms_thresh):
    """`detect` with one candidate pass per foreground class: decode, clip
    and drop degenerate boxes class by class, concatenate, then NMS."""
    cfg = model.config
    obj, rpn_deltas = rpn_forward(model, features)
    prop_boxes, _ = propose(cfg, obj.data, rpn_deltas.data)
    if len(prop_boxes) == 0:
        return []
    logits, deltas = head_forward(model, roi_pool(cfg, features, prop_boxes))
    probs = ad.softmax(logits).data
    boxes, scores, labels = [], [], []
    for c in range(1, model.num_classes + 1):
        rows = np.flatnonzero(probs[:, c] > score_thresh)
        decoded = decode_deltas_array(prop_boxes[rows], deltas.data[rows, c - 1])
        decoded = clip_boxes(decoded, cfg.image_size, cfg.image_size)
        valid = (((decoded[:, 2] - decoded[:, 0]) > DEGENERATE_EPS)
                 & ((decoded[:, 3] - decoded[:, 1]) > DEGENERATE_EPS))
        boxes.append(decoded[valid])
        scores.append(probs[rows[valid], c])
        labels.append(np.full(int(valid.sum()), c))
    boxes, scores, labels = (np.concatenate(a) for a in (boxes, scores, labels))
    return [Detection(tuple(boxes[i].tolist()), int(labels[i]), float(scores[i]))
            for i in nms_per_class(boxes, scores, labels, nms_thresh)]


def per_target_match_anchors(anchors, targets):
    """`match_anchors` forcing each target's best anchor positive one target
    at a time, skipping targets that overlap no anchor."""
    n = len(anchors)
    if len(targets) == 0:
        return np.zeros(n, bool), np.ones(n, bool), np.full(n, -1, dtype=np.intp)
    ious = iou_matrix(anchors, targets)
    best = ious.max(axis=1)
    pos = best >= RPN_POS_IOU
    for t in range(len(targets)):
        if ious[:, t].max() > 0.0:
            pos[ious[:, t].argmax()] = True
    neg = (best <= RPN_NEG_IOU) & ~pos
    return pos, neg, ious.argmax(axis=1).astype(np.intp)


def array_frcnn_loss(model, features, rpn_boxes, rcnn_boxes, rcnn_labels, rng, sampled=None):
    """`frcnn_loss` taking its targets as three box arrays and matching and
    encoding the anchors on every call; it matches the positive RoIs to their
    best-IoU target and encodes their box targets itself, never reading the
    sample's deltas."""
    bad = rcnn_labels[(rcnn_labels < 1) | (rcnn_labels > model.num_classes)]
    if len(bad):
        raise DetectorError(f"rcnn target class {bad[0]} outside 1..{model.num_classes}")
    cfg = model.config

    # RPN terms, laid out as (A, H, W) to match the head tensors
    a = len(cfg.anchor_sides)
    fs = cfg.feature_size
    anchors = anchor_boxes(cfg)
    pos, neg, match = match_anchors(anchors, rpn_boxes)
    obj, deltas = rpn_forward(model, features)
    obj_label = pos.astype(np.float64).reshape(a, fs, fs)
    obj_mask = (pos | neg).astype(np.float64).reshape(a, fs, fs)
    n_cls = obj_mask.sum()
    bce = ad.softplus(obj) - obj * Tensor(obj_label)
    rpn_cls = ad.tsum(bce * Tensor(obj_mask)) * Tensor(1.0 / max(n_cls, 1.0))

    delta_targets = np.zeros((len(anchors), 4))
    pidx = np.flatnonzero(pos)
    delta_targets[pidx] = encode_deltas_array(anchors[pidx], rpn_boxes[match[pidx]])
    delta_targets = delta_targets.reshape(a, fs, fs, 4).transpose(0, 3, 1, 2)
    pos_mask = pos.reshape(a, 1, fs, fs).astype(np.float64)
    pred = ad.reshape(deltas, (a, 4, fs, fs))
    rpn_reg = ad.tsum(ad.smooth_l1(pred - Tensor(delta_targets)) * Tensor(pos_mask))
    rpn_reg = rpn_reg * Tensor(1.0 / max(pos.sum(), 1))

    # R-CNN terms on sampled RoIs
    if sampled is None:
        sampled = sample_rois(roi_candidates(cfg, obj.data, deltas.data, rcnn_boxes),
                              rcnn_boxes, rcnn_labels, rng)
    rois, roi_labels, _ = sampled

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
    if len(pos_rows):
        match = iou_matrix(rois[pos_rows], rcnn_boxes).argmax(axis=1)
        dtgt[pos_rows, pos_cls] = encode_deltas_array(rois[pos_rows], rcnn_boxes[match])
    rcnn_reg = ad.tsum(ad.smooth_l1(pred_deltas - Tensor(dtgt)) * Tensor(dmask))
    rcnn_reg = rcnn_reg * Tensor(1.0 / max(len(pos_rows), 1))

    total = rpn_cls + rpn_reg + rcnn_cls + rcnn_reg
    return total, LossInternals(sample=sampled, pooled=pooled, cls_logits=logits)


# -- training steps ------------------------------------------------------------------

def scene_losses(triple, image, gt_boxes, gt_labels, cfg, rng):
    """`compute_losses` on the scene's own `scene_targets`, as a step of
    `train_incremental` runs it."""
    return compute_losses(triple, image, cfg, rng,
                          *scene_targets(triple, image, gt_boxes, gt_labels, cfg))[:2]


def exhaustive_filter(dets, gt_boxes, theta_iou):
    """Brute-force reference for the pseudo ground-truth conflict filter."""
    return [d for d in dets
            if not any(iou(d.bbox, g) > theta_iou for g in gt_boxes)]


def prefix_integration_ap(dets, gts, iou_thresh):
    """Brute-force AP oracle: greedy matching, then the sum over every prefix
    of (recall step) x (best precision at that recall or beyond)."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = {img: [False] * len(b) for img, b in gts.items()}
    flags = []
    for i in order:
        img, _, box = dets[i]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts.get(img, [])):
            if matched[img][j]:
                continue
            v = iou(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_thresh:
            matched[img][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    precs, recs = [], []
    tp = fp = 0
    for hit in flags:
        tp, fp = tp + hit, fp + (not hit)
        precs.append(tp / (tp + fp))
        recs.append(tp / n_gt)
    ap = 0.0
    prev_rec = 0.0
    for k in range(len(flags)):
        if recs[k] > prev_rec:
            ap += (recs[k] - prev_rec) * max(precs[k:])
            prev_rec = recs[k]
    return ap


def random_ap_case(rng):
    n_images = int(rng.integers(1, 4))
    gts = {}
    for _ in range(int(rng.integers(0, 5))):
        img = int(rng.integers(0, n_images))
        x1, y1 = rng.uniform(0, 40, 2)
        gts.setdefault(img, []).append(
            (x1, y1, x1 + rng.uniform(5, 20), y1 + rng.uniform(5, 20)))
    dets = []
    for _ in range(int(rng.integers(0, 9))):
        img = int(rng.integers(0, n_images))
        if rng.random() < 0.5 and gts.get(img):
            # near-duplicate of a ground-truth box so true positives occur
            g = gts[img][int(rng.integers(0, len(gts[img])))]
            jitter = rng.uniform(-3, 3, 4)
            x1 = g[0] + jitter[0]
            y1 = g[1] + jitter[1]
            box = (x1, y1, max(g[2] + jitter[2], x1 + 0.5), max(g[3] + jitter[3], y1 + 0.5))
        else:
            x1, y1 = rng.uniform(0, 40, 2)
            box = (x1, y1, x1 + rng.uniform(5, 20), y1 + rng.uniform(5, 20))
        dets.append((img, float(np.round(rng.uniform(), 2)), box))
    return dets, gts


# -- distillation losses, as scalar loops -------------------------------------

def attention_map_ref(f: np.ndarray) -> np.ndarray:
    c, h, w = f.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            s = 0.0
            for k in range(c):
                s += f[k, i, j]
            out[i, j] = s / c
    return out


def attention_pair_loss_ref(ma: np.ndarray, mb: np.ndarray) -> float:
    def normalized_gram(m):
        h = m.shape[0]
        g = np.zeros((h, h))
        for i in range(h):
            for j in range(h):
                g[i, j] = sum(m[i, k] * m[j, k] for k in range(m.shape[1]))
        norm = np.sqrt(sum(g[i, j] ** 2 for i in range(h) for j in range(h)) + GRAM_EPS)
        return g / (norm + GRAM_EPS)

    ga, gb = normalized_gram(ma), normalized_gram(mb)
    h = ma.shape[0]
    return float(sum(abs(gb[i, j] - ga[i, j]) for i in range(h) for j in range(h)) / (h * h))


def feature_distill_loss_ref(f_om: np.ndarray, f_im: np.ndarray, f_rm: np.ndarray) -> float:
    m_om = attention_map_ref(f_om)
    m_im = attention_map_ref(f_im)
    m_syn = attention_map_ref(f_om + f_rm)
    return attention_pair_loss_ref(m_om, m_im) + attention_pair_loss_ref(m_syn, m_im)


def residual_distill_loss_ref(f_om, f_im, f_rm, p_om, p_im, p_rm) -> float:
    base = attention_pair_loss_ref(attention_map_ref(f_im - f_om), attention_map_ref(f_rm))
    n = p_im.size
    first = sum(abs((p_im.flat[i] - p_om.flat[i]) - p_rm.flat[i]) for i in range(n)) / n
    second = sum(abs((p_im.flat[i] - p_rm.flat[i]) - p_om.flat[i]) for i in range(n)) / n
    return base + first + second


def classification_distill_loss_ref(p_om: np.ndarray, y_im: np.ndarray,
                                    p_rm: np.ndarray) -> float:
    def softmax_slice(row, lo, hi):
        z = row[lo:hi]
        e = np.exp(z - z.max())
        return e / e.sum()

    n = y_im.shape[0]
    ca = p_om.shape[1] - 1
    cb = p_rm.shape[1] - 1
    total = 0.0
    for r in range(n):
        im_old = softmax_slice(y_im[r], 0, ca + 1)
        om = softmax_slice(p_om[r], 0, ca + 1)
        term = sum((im_old[k] - om[k]) ** 2 for k in range(ca + 1)) / (ca + 1)
        if cb > 0:
            im_new = softmax_slice(y_im[r], ca + 1, ca + 1 + cb)
            rm = softmax_slice(p_rm[r], 1, cb + 1)
            term += sum((im_new[k] - rm[k]) ** 2 for k in range(cb)) / cb
        total += term
    return total / n


# -- finite differences --------------------------------------------------------------

def full_evaluation_grad_check(f, points, probes=None):
    """`autodiff.grad_check` with every probe a full evaluation of `f`; each
    probe's `(input, coordinate, f_plus, f_minus)` is appended to `probes`,
    if given."""
    arrays = [np.array(p, dtype=np.float64, order="C") for p in points]

    def evaluate(arrs):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrs]
        out = f(*tensors)
        out.backward()
        grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
        return out.item(), grads

    _, analytic = evaluate(arrays)
    for ti, grad in enumerate(analytic):
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            raise GradCheckError(f"non-finite analytic gradient at input {ti}, coordinate {bad[0]}")
    worst = 0.0
    for ti, base in enumerate(arrays):
        flat = base.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + FD_STEP
            f_plus = f(*[Tensor(a.copy()) for a in arrays]).item()
            flat[ci] = orig - FD_STEP
            f_minus = f(*[Tensor(a.copy()) for a in arrays]).item()
            flat[ci] = orig
            if probes is not None:
                probes.append((ti, ci, f_plus, f_minus))
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError(
                    f"non-finite value at input {ti}, coordinate {ci}")
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            analytic_c = analytic[ti].reshape(-1)[ci]
            err = abs(analytic_c - numeric) / max(1.0, abs(analytic_c), abs(numeric))
            worst = max(worst, err)
    return worst


def assert_probes_exact(f, points):
    """Every probe `ad.grad_check(f, points)` consumes holds the float-hex
    values `full_evaluation_grad_check` evaluates `f` to in full, and the two
    return the same error."""
    want = []
    want_worst = full_evaluation_grad_check(f, points, want)
    tensors = [Tensor(np.array(p, dtype=np.float64, order="C"), requires_grad=True)
               for p in points]
    seen = list(ad._probes(f, tensors, f(*tensors)))

    def hexed(probes):
        return [(ti, ci, p.hex(), m.hex()) for ti, ci, p, m in probes]

    assert hexed(seen) == hexed(want)
    assert ad.grad_check(f, points).hex() == want_worst.hex()
