"""Finite-difference verification of every loss in the package.

Each entry builds random instances (seeded, away from non-smooth points with
overwhelming probability at the chosen scales) and compares analytic
gradients against central differences via ``autodiff.grad_check``. The
detection and total losses are checked through a miniature model
configuration so the full parameter set stays small enough to probe
coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from .autodiff import FD_STEP, Tensor, grad_check, pool_windows, topo_order
from .detector import (DetectorConfig, DetectorModel, forward_features, frcnn_loss,
                       new_model, roi_candidates, rpn_forward)
from .distill import (FeatureTriple, LogitTriple, PooledTriple, attention_pair_loss,
                      classification_distill_loss, feature_distill_loss,
                      residual_base_loss, residual_pool_loss)
from .pseudo_gt import Thresholds
from .trainer import (TrainConfig, TripleNetwork, compute_losses, init_incremental,
                      init_residual, scene_targets)

MICRO_CONFIG = DetectorConfig(
    image_size=16,
    channels=(2, 2, 2),
    rpn_channels=2,
    anchor_sides=(6.0, 10.0),
    pool_size=2,
    fc_width=4,
    num_proposals=8,
)

GRAD_TOL = 1e-4
SUITE_SEED = 20240
DRAW_ATTEMPTS = 50      # redraws before an instance is given up
# elementwise losses keep a wide berth; through a whole network only
# crossings within reach of the probe step matter, so 10x the step suffices
ELEMENTWISE_MARGIN = 1e-3
NETWORK_MARGIN = 10 * FD_STEP


def nonsmooth_margin(root: Tensor) -> float:
    """Distance of the computation from its nearest non-smooth point.

    Walks the graph and measures how close any relu or abs input is to zero
    and how close any max-pool window is to a tie. Exact zeros are ignored:
    in these graphs they are structurally pinned (relu-clamped cells and
    differences of such cells stay exactly zero under small parameter
    perturbations, provided biases are away from zero, which the margin on
    the nonzero values enforces). smooth-L1 is C1 and needs no margin.
    """
    worst = np.inf
    for node in topo_order(root):
        if not node.parents:
            continue
        x = node.parents[0].data
        if node.op in ("relu", "abs") and x.size:
            nonzero = np.abs(x[x != 0.0])
            if nonzero.size:
                worst = min(worst, nonzero.min())
        elif node.op == "max_pool2":
            win = pool_windows(x).reshape(-1, 4)
            top2 = np.sort(win, axis=1)[:, -2:]
            live = top2[:, 1] != 0.0       # max of an all-clamped window cannot move
            if live.any():
                worst = min(worst, (top2[live, 1] - top2[live, 0]).min())
    return float(worst)


def _draw_safe_instance(rng: np.random.Generator, build, margin: float):
    """Rejection-sample an instance whose base-point margin is comfortable.

    `build(rng)` returns (f, points); f(*tensors) is the loss. Instances too
    close to a relu/abs/max-pool boundary are redrawn.
    """
    for _ in range(DRAW_ATTEMPTS):
        f, points = build(rng)
        loss = f(*[Tensor(p, requires_grad=True) for p in points])
        if nonsmooth_margin(loss) > margin:
            return f, points
    raise RuntimeError("could not find an instance away from non-smooth points")


def micro_image(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, (3, MICRO_CONFIG.image_size, MICRO_CONFIG.image_size))


def micro_targets(rng: np.random.Generator, num_classes: int, n: int = 2,
                  lo: int = 1) -> tuple[np.ndarray, np.ndarray]:
    boxes, labels = np.zeros((n, 4)), np.zeros(n, dtype=np.intp)
    size = MICRO_CONFIG.image_size
    for i in range(n):
        w = rng.uniform(4.0, 9.0)
        h = rng.uniform(4.0, 9.0)
        x1 = rng.uniform(0.0, size - w)
        y1 = rng.uniform(0.0, size - h)
        boxes[i] = x1, y1, x1 + w, y1 + h
        labels[i] = rng.integers(lo, num_classes + 1)
    return boxes, labels


def _normal_inputs(loss, *shapes):
    """Builder of `loss` on standard normal arrays of `shapes`, drawn in order."""
    return lambda rng: (loss, [rng.normal(0.0, 1.0, shape) for shape in shapes])


def _nudge(model: DetectorModel, rng: np.random.Generator) -> DetectorModel:
    """`model` with N(0, 0.02^2) added to every parameter, biases included,
    so no relu input sits exactly on its kink."""
    for p in model.params.values():
        p.data += rng.normal(0.0, 0.02, p.shape)
    return model


def _model_param_arrays(model: DetectorModel) -> tuple[list[str], list[np.ndarray]]:
    names = sorted(model.params)
    return names, [model.params[n].data.copy() for n in names]


def _candidate_pool(model: DetectorModel, features: Tensor,
                    rcnn_boxes: np.ndarray) -> np.ndarray:
    """The RoI candidate pool `frcnn_loss` would sample from at the base point."""
    obj, deltas = rpn_forward(model, features)
    return roi_candidates(model.config, obj.data, deltas.data, rcnn_boxes)


def _build_frcnn(rng: np.random.Generator):
    num_classes = 2
    model = _nudge(new_model(MICRO_CONFIG, num_classes, int(rng.integers(0, 2 ** 31))), rng)
    image = micro_image(rng)
    boxes, labels = micro_targets(rng, num_classes)
    names, arrays = _model_param_arrays(model)
    sample_seed = int(rng.integers(0, 2 ** 31))
    # pin the RoI candidate pool at the base point: proposal selection is
    # piecewise constant in the parameters, so this is the a.e. gradient
    candidates = _candidate_pool(model, forward_features(model, image), boxes)

    def f(*tensors):
        m = DetectorModel(MICRO_CONFIG, num_classes, dict(zip(names, tensors)))
        return frcnn_loss(m, forward_features(m, image), boxes, boxes, labels,
                          np.random.default_rng(sample_seed), candidate_rois=candidates)[0]

    return f, arrays


def micro_triple(rng: np.random.Generator) -> TripleNetwork:
    num_old, num_new = 1, 1
    # the frozen model takes a short random walk away from its raw initialization
    om = _nudge(new_model(MICRO_CONFIG, num_old, int(rng.integers(0, 2 ** 31))), rng)
    om = om.clone(requires_grad=False)
    im = _nudge(init_incremental(om, num_new, int(rng.integers(0, 2 ** 31))), rng)
    rm = _nudge(init_residual(om, num_new, int(rng.integers(0, 2 ** 31))), rng)
    return TripleNetwork(om=om, im=im, rm=rm)


def _build_total_loss(rng: np.random.Generator):
    triple = micro_triple(rng)
    cfg = TrainConfig(epochs=1, thresholds=Thresholds(0.1, 0.9, 0.3))
    image = micro_image(rng)
    gt_boxes, gt_labels = micro_targets(rng, triple.im.num_classes, n=1,
                                        lo=triple.om.num_classes + 1)
    om_feat, targets = scene_targets(triple.om, image, gt_boxes, gt_labels, cfg)
    im_names, im_arrays = _model_param_arrays(triple.im)
    rm_names, rm_arrays = _model_param_arrays(triple.rm)
    sample_seed = int(rng.integers(0, 2 ** 31))
    # pin both candidate pools at the base point (see _build_frcnn)
    cand_im = _candidate_pool(triple.im, forward_features(triple.im, image), targets.rcnn_boxes)
    cand_rm = _candidate_pool(triple.rm, forward_features(triple.rm, image), gt_boxes)

    def f(*tensors):
        im_t = tensors[:len(im_names)]
        rm_t = tensors[len(im_names):]
        trip = TripleNetwork(
            om=triple.om,
            im=DetectorModel(MICRO_CONFIG, triple.im.num_classes, dict(zip(im_names, im_t))),
            rm=DetectorModel(MICRO_CONFIG, triple.rm.num_classes, dict(zip(rm_names, rm_t))),
        )
        total, _ = compute_losses(trip, image, gt_boxes, gt_labels, cfg,
                                  np.random.default_rng(sample_seed), om_feat, targets,
                                  im_candidates=cand_im, rm_candidates=cand_rm)
        return total

    return f, im_arrays + rm_arrays


# losses are looked up when called, so a wrapped module binding is seen;
# cls_distill has 3 rows, 2 old and 2 new classes
FEAT, POOLED = (2, 4, 4), (2, 2, 2, 2)
SUITE = {
    "attention_pair_loss": (_normal_inputs(lambda a, b: attention_pair_loss(a, b), (3, 4), (3, 4)),
                            ELEMENTWISE_MARGIN),
    "feature_distill": (_normal_inputs(lambda o, i, r: feature_distill_loss(FeatureTriple(o, i, r)),
                                       FEAT, FEAT, FEAT), ELEMENTWISE_MARGIN),
    "residual_distill_base": (_normal_inputs(lambda o, i, r: residual_base_loss(FeatureTriple(o, i, r)),
                                             FEAT, FEAT, FEAT), ELEMENTWISE_MARGIN),
    "residual_distill_pool": (_normal_inputs(lambda o, i, r: residual_pool_loss(PooledTriple(o, i, r)),
                                             POOLED, POOLED, POOLED), ELEMENTWISE_MARGIN),
    "cls_distill": (_normal_inputs(lambda o, y, r: classification_distill_loss(LogitTriple(o, y, r)),
                                   (3, 3), (3, 5), (3, 3)), ELEMENTWISE_MARGIN),
    "frcnn_loss": (_build_frcnn, NETWORK_MARGIN),
    "total_loss": (_build_total_loss, NETWORK_MARGIN),
}


def check_loss_gradient(name: str, rng: np.random.Generator) -> float:
    """One margin-safe random instance of the named loss, grad-checked."""
    build, margin = SUITE[name]
    f, points = _draw_safe_instance(rng, build, margin)
    return grad_check(f, points)


def run_gradient_suite(instances: int = 10, seed: int = SUITE_SEED) -> dict[str, float]:
    """Max relative gradient error per loss over `instances` random cases."""
    results = {}
    for k, name in enumerate(SUITE):
        rng = np.random.default_rng([seed, k])
        results[name] = max(check_loss_gradient(name, rng) for _ in range(instances))
    return results
