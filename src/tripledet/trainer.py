"""Triple-network training: frozen old model, trainable incremental and
residual models, joint optimization with SGD + momentum.

Determinism contract: every draw of the training loop flows from the one
generator `_fit` seeds from `cfg.seed` (model init has its own seeds), in a
documented order — per epoch one shuffle permutation, then per step the
incremental model's RoI sampling followed by the residual model's. Identical
config + data + seed therefore reproduce bit-identical checkpoints.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .autodiff import Tensor
from .detector import (HEAD_STD, DetectorModel, RoiSample, Targets, forward_features, frcnn_loss,
                       head_logits, new_model, roi_pool, training_targets)
from .distill import classification_distill_loss, feature_distill_loss, residual_distill_loss
from .evaluate import APReport
from .pseudo_gt import Thresholds, build_training_targets, generate_pseudo_gt
from .synthdata import Scene


MOMENTUM = 0.9            # SGD momentum of both trainers
LR_DECAY = 0.1            # learning-rate factor of each decay step
BASE_DECAY_EVERY = 25     # base training decays every this many epochs


class TrainingError(RuntimeError):
    """Raised when a loss term or a gradient leaves the finite range."""


@dataclass
class TripleNetwork:
    om: DetectorModel     # frozen
    im: DetectorModel
    rm: DetectorModel

    def __post_init__(self):
        trainable = sorted(self.om.trainable())
        if trainable:
            # train_incremental never steps om; a trainable om would only make
            # every backward pass store its gradients for nothing
            raise ValueError(f"old model must be frozen, got trainable {', '.join(trainable)}")
        num_new = self.rm.num_classes
        if self.im.num_classes != self.om.num_classes + num_new:
            raise ValueError(
                f"incremental model must cover {self.om.num_classes}+{num_new} classes, "
                f"got {self.im.num_classes}")


@dataclass
class TrainConfig:
    lam: float = 1.0                     # distillation weight in the total loss
    epochs: int = 10
    lr: float = 5e-4                     # times LR_DECAY from epoch epochs//2 on
    batch_size: int = 2
    seed: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)
    d_fea: bool = True
    d_res: bool = True
    d_cls: bool = True
    use_pseudo_gt: bool = True

    def __post_init__(self):
        if not 0.0 <= self.lam < float("inf"):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        _check_schedule(self)


@dataclass
class BaseTrainConfig:
    epochs: int = 50
    lr: float = 2e-3                     # times LR_DECAY every BASE_DECAY_EVERY epochs
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        _check_schedule(self)


def _check_schedule(cfg: TrainConfig | BaseTrainConfig) -> None:
    if cfg.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
    if not 0.0 < cfg.lr < float("inf"):
        raise ValueError(f"{type(cfg).__name__}.lr must be finite and > 0, got {cfg.lr}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")


@dataclass
class LossBreakdown:
    loss_im: float
    loss_rm: float
    feature_distill: float
    residual_distill: float
    cls_distill: float
    total: float


class SGDMomentum:
    """Plain SGD with momentum: v <- MOMENTUM*v + g; p <- p - lr*v. No weight decay."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.velocity = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            v = self.velocity[name]
            v *= MOMENTUM
            v += g
            p.data -= lr * v


# -- model construction ----------------------------------------------------------

def init_incremental(om: DetectorModel, num_new: int, seed: int) -> DetectorModel:
    """Copy of the old model widened by num_new classes.

    Old class columns of the classification and delta heads are copied; new
    columns draw from Normal(0, HEAD_STD^2) with zero bias. Draw order: new
    classification columns, then new delta columns.
    """
    if num_new < 1:
        raise ValueError(f"num_new must be >= 1, got {num_new}")
    rng = np.random.default_rng(seed)
    im = om.clone(requires_grad=True)
    fw = om.config.fc_width
    for head, width in (("rcnn.cls", num_new), ("rcnn.delta", num_new * 4)):
        w, b = im.params[f"{head}.w"].data, im.params[f"{head}.b"].data
        im.params[f"{head}.w"] = Tensor(np.hstack([w, rng.normal(0.0, HEAD_STD, (fw, width))]),
                                        requires_grad=True)
        im.params[f"{head}.b"] = Tensor(np.concatenate([b, np.zeros(width)]), requires_grad=True)
    im.num_classes = om.num_classes + num_new
    im.seed = seed
    return im


def init_residual(om: DetectorModel, num_new: int, seed: int) -> DetectorModel:
    """Assistant model over the new classes only; its backbone is copied from
    the old model (the only pretrained feature extractor at this scale)."""
    if num_new < 1:
        raise ValueError(f"num_new must be >= 1, got {num_new}")
    rm = new_model(om.config, num_new, seed)
    for name in list(rm.params):
        if name.startswith("backbone."):
            rm.params[name] = Tensor(om.params[name].data.copy(), requires_grad=True)
    return rm


def init_triple(om: DetectorModel, num_new: int, seed: int) -> TripleNetwork:
    """The triple network over the frozen `om`: incremental and residual
    models for `num_new` new classes, both initialized from `seed`."""
    return TripleNetwork(om=om, im=init_incremental(om, num_new, seed),
                         rm=init_residual(om, num_new, seed))


# -- loss assembly ----------------------------------------------------------------

def scene_targets(triple: TripleNetwork, image, gt_boxes: np.ndarray, gt_labels: np.ndarray,
                  cfg: TrainConfig) -> tuple[Tensor | None, Targets, Targets]:
    """One scene's precompute for the new-class boxes `gt_boxes` (n,4) with
    global class ids `gt_labels`: the frozen old model's detached backbone
    features, None when neither pseudo-GT nor distillation reads them; the
    incremental model's targets, pseudo ground truth from those features
    (when `cfg.use_pseudo_gt`) united with the new-class boxes; and the
    residual model's targets, the new-class boxes alone."""
    om, th = triple.om, cfg.thresholds
    om_features = None
    if cfg.use_pseudo_gt or cfg.d_fea or cfg.d_res or cfg.d_cls:
        # detached: callers keep the feature values, not the frozen graph
        om_features = forward_features(om, image).detach()
    pseudo = generate_pseudo_gt(om, om_features, gt_boxes, th) if cfg.use_pseudo_gt else []
    rpn_boxes, rcnn_boxes, rcnn_labels = build_training_targets(pseudo, gt_boxes, gt_labels, th)
    im_targets = training_targets(triple.im, rpn_boxes, rcnn_boxes, rcnn_labels)
    # the residual model numbers the new classes 1..num_new
    rm_targets = training_targets(triple.rm, gt_boxes, gt_boxes, gt_labels - om.num_classes)
    return om_features, im_targets, rm_targets


def compute_losses(triple: TripleNetwork, image, cfg: TrainConfig,
                   rng: np.random.Generator | None, om_features: Tensor | None,
                   im_targets: Targets, rm_targets: Targets,
                   sampled: tuple[RoiSample, RoiSample] | None = None
                   ) -> tuple[Tensor, LossBreakdown, tuple[RoiSample, RoiSample]]:
    """Total loss tensor, its per-term breakdown and the `(im_sample,
    rm_sample)` pair of RoI samples it used, for one image.

    `om_features`, `im_targets` and `rm_targets` are the scene's
    `scene_targets` under the same `cfg`. Disabled terms contribute exactly
    zero. The incremental model samples its RoIs from `rng` first, then the
    residual model; `sampled`, such a pair, pins both draws for gradient
    checking (see `frcnn_loss`) and is returned as given.
    """
    om, im, rm = triple.om, triple.im, triple.rm
    im_sample, rm_sample = sampled or (None, None)
    f_im = forward_features(im, image)
    loss_im, internals = frcnn_loss(im, f_im, im_targets, rng, im_sample)

    f_rm = forward_features(rm, image)
    loss_rm, rm_internals = frcnn_loss(rm, f_rm, rm_targets, rng, rm_sample)

    d_fea_t = d_res_t = d_cls_t = None
    if cfg.d_fea:
        d_fea_t = feature_distill_loss(om_features, f_im, f_rm)
    if cfg.d_res or cfg.d_cls:
        rois = internals.sample[0]
        p_om = roi_pool(om.config, om_features, rois)
        p_rm = roi_pool(rm.config, f_rm, rois)
        if cfg.d_res:
            d_res_t = residual_distill_loss(om_features, f_im, f_rm,
                                            p_om, internals.pooled, p_rm)
        if cfg.d_cls:
            d_cls_t = classification_distill_loss(
                head_logits(om, p_om), internals.cls_logits, head_logits(rm, p_rm))

    total = loss_im + loss_rm
    active = [t for t in (d_fea_t, d_res_t, d_cls_t) if t is not None]
    if active:
        distill_sum = active[0]
        for t in active[1:]:
            distill_sum = distill_sum + t
        total = total + Tensor(cfg.lam) * distill_sum

    breakdown = LossBreakdown(*(0.0 if t is None else t.item()
                                for t in (loss_im, loss_rm, d_fea_t, d_res_t, d_cls_t, total)))
    for name, value in asdict(breakdown).items():
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss term {name!r}: {value}")
    return total, breakdown, (internals.sample, rm_internals.sample)


@dataclass
class EpochStats:
    epoch: int
    losses: LossBreakdown
    report: APReport | None = None      # what the epoch's evaluation returned, if one ran


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    arr = np.array([astuple(b) for b in items])
    return LossBreakdown(*arr.mean(axis=0))


def write_epoch_log(path, log: list[EpochStats]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", *(f.name for f in fields(LossBreakdown)),
                         "map_old", "map_new", "map_all"])
        for e in log:
            r = e.report
            maps = (float("nan"),) * 3 if r is None else (r.map_old, r.map_new, r.map_all)
            writer.writerow([e.epoch, *astuple(e.losses), *maps])


def _fit(image_loss, n: int, cfg: TrainConfig | BaseTrainConfig,
         optimizers: list[SGDMomentum], lr_at, evaluate=None) -> list[EpochStats]:
    """The SGD loop behind both trainers and the owner of the run's one
    generator, seeded from `cfg.seed`: per epoch the rate `lr_at(epoch)`,
    one shuffle draw, then `cfg.batch_size` minibatches in that order.
    `image_loss(idx, rng)` returns one image's (loss tensor, LossBreakdown)
    and makes its step's own draws from `rng`. Each batch minimizes its mean
    image loss; `evaluate() -> APReport` runs per epoch into its `EpochStats`."""
    if n == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.seed)
    log: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch)
        order = rng.permutation(n)
        epoch_losses: list[LossBreakdown] = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            total = None
            parts = []
            for idx in batch:
                t, breakdown = image_loss(idx, rng)
                parts.append(breakdown)
                total = t if total is None else total + t
            total = total * Tensor(1.0 / len(batch))
            loss_val = total.item()
            if not np.isfinite(loss_val):
                raise TrainingError(f"non-finite loss {loss_val} at epoch {epoch}")
            total.backward()
            # relu zeroes NaN activations, so a NaN input can leave the loss
            # finite and still poison the gradients
            for opt in optimizers:
                for name, p in opt.params.items():
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise TrainingError(f"non-finite gradient of {name!r} at epoch {epoch}")
            for opt in optimizers:
                opt.step(lr)
            epoch_losses.append(_mean_breakdown(parts))
        log.append(EpochStats(epoch, _mean_breakdown(epoch_losses),
                              None if evaluate is None else evaluate()))
    return log


def train_incremental(triple: TripleNetwork, scenes: list[Scene], cfg: TrainConfig,
                      eval_fn=None) -> list[EpochStats]:
    """Train the incremental and residual models on new-class scenes.

    `eval_fn(im_model) -> APReport` runs after each epoch when provided, into
    that epoch's `EpochStats.report`. Both models' training targets and the
    old-model features depend only on frozen state, so each scene's
    `scene_targets` is computed once, before the first step.
    """
    om = triple.om
    for i, s in enumerate(scenes):
        bad = s.labels[(s.labels <= om.num_classes) | (s.labels > triple.im.num_classes)]
        if len(bad):
            raise ValueError(f"scene {i}: class {bad[0]} is not a new class "
                             f"({om.num_classes + 1}..{triple.im.num_classes})")
    precomputed = [scene_targets(triple, s.image, s.boxes, s.labels, cfg) for s in scenes]

    def image_loss(idx, rng):
        return compute_losses(triple, scenes[idx].image, cfg, rng, *precomputed[idx])[:2]

    optimizers = [SGDMomentum(triple.im.trainable()), SGDMomentum(triple.rm.trainable())]
    return _fit(image_loss, len(scenes), cfg, optimizers,
                lambda epoch: cfg.lr * (LR_DECAY if epoch >= cfg.epochs // 2 else 1.0),
                None if eval_fn is None else partial(eval_fn, triple.im))


def train_base(model: DetectorModel, scenes: list[Scene], cfg: BaseTrainConfig
               ) -> list[EpochStats]:
    """Train a single detector on fully annotated scenes, each scene's
    targets built once; its epoch log reports the detection loss as both
    loss_im and total."""
    targets = [training_targets(model, s.boxes, s.boxes, s.labels) for s in scenes]

    def image_loss(idx, rng):
        t, _ = frcnn_loss(model, forward_features(model, scenes[idx].image), targets[idx], rng)
        return t, LossBreakdown(t.item(), 0.0, 0.0, 0.0, 0.0, t.item())

    return _fit(image_loss, len(scenes), cfg, [SGDMomentum(model.trainable())],
                lambda epoch: cfg.lr * (LR_DECAY ** (epoch // BASE_DECAY_EVERY)))


def finetune_config(cfg: TrainConfig) -> TrainConfig:
    """The plain finetuning baseline: no pseudo ground truth, no distillation."""
    return replace(cfg, d_fea=False, d_res=False, d_cls=False, use_pseudo_gt=False)
