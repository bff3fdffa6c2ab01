"""Brute-force reference implementations shared by the test modules.

These deliberately use plain loops and literal definitions, independent of
the library code paths they check.
"""

import numpy as np

from tripledet import autodiff as ad
from tripledet.boxes import (BBox, Detection, annotation_arrays, clip_boxes, decode_deltas_array,
                             iou, iou_matrix, nms_per_class)
from tripledet.detector import (DEGENERATE_EPS, RPN_NEG_IOU, RPN_POS_IOU, head_forward,
                                propose, roi_pool, rpn_forward)
from tripledet.distill import GRAM_EPS


def random_boxes(rng, n, span=40.0):
    # sides in [2, 20]: size ratios stay below the 16x decode clamp
    out = []
    for _ in range(n):
        x1 = rng.uniform(0, span)
        y1 = rng.uniform(0, span)
        out.append(BBox(x1, y1, x1 + rng.uniform(2, 20), y1 + rng.uniform(2, 20)))
    return out


def random_detections(rng, n, num_classes=3):
    out = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 40, 2)
        out.append(Detection(BBox(x1, y1, x1 + rng.uniform(4, 20), y1 + rng.uniform(4, 20)),
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
    boxes, labels = annotation_arrays([(d.bbox, d.class_id) for d in dets])
    keep = nms_per_class(boxes, np.array([d.score for d in dets]), labels, thresh)
    return [dets[i] for i in keep]


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
    return [Detection(BBox(*boxes[i]), int(labels[i]), float(scores[i]))
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
            BBox(x1, y1, x1 + rng.uniform(5, 20), y1 + rng.uniform(5, 20)))
    dets = []
    for _ in range(int(rng.integers(0, 9))):
        img = int(rng.integers(0, n_images))
        if rng.random() < 0.5 and gts.get(img):
            # near-duplicate of a ground-truth box so true positives occur
            g = gts[img][int(rng.integers(0, len(gts[img])))]
            jitter = rng.uniform(-3, 3, 4)
            x1 = g.x1 + jitter[0]
            y1 = g.y1 + jitter[1]
            box = BBox(x1, y1, max(g.x2 + jitter[2], x1 + 0.5),
                       max(g.y2 + jitter[3], y1 + 0.5))
        else:
            x1, y1 = rng.uniform(0, 40, 2)
            box = BBox(x1, y1, x1 + rng.uniform(5, 20), y1 + rng.uniform(5, 20))
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
