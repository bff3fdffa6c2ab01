"""Triple-network training: frozen old model, trainable incremental and
residual models, joint optimization with SGD + momentum.

Determinism contract: every random draw of a run flows from one seeded
generator in a documented order — model-init draws first, then per epoch one
shuffle permutation, then per step the incremental model's RoI sampling
followed by the residual model's. Identical config + data + seed therefore
reproduce bit-identical checkpoints.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .autodiff import Tensor
from .boxes import BBox
from .detector import (DetectorModel, forward_features, frcnn_loss, head_forward,
                       new_model, roi_pool)
from .distill import (FeatureTriple, LogitTriple, PooledTriple,
                      classification_distill_loss, feature_distill_loss,
                      residual_distill_loss)
from .pseudo_gt import PseudoGTSet, Thresholds, build_training_targets, generate_pseudo_gt
from .synthdata import Scene

SINGLE_THRESHOLD = 0.5


class TrainingError(RuntimeError):
    """Raised when a loss term or a gradient leaves the finite range."""


@dataclass
class TripleNetwork:
    om: DetectorModel     # frozen
    im: DetectorModel
    rm: DetectorModel

    def __post_init__(self):
        num_new = self.rm.num_classes
        if self.im.num_classes != self.om.num_classes + num_new:
            raise ValueError(
                f"incremental model must cover {self.om.num_classes}+{num_new} classes, "
                f"got {self.im.num_classes}")


@dataclass
class TrainConfig:
    lam: float = 1.0                     # distillation weight in the total loss
    epochs: int = 10
    lr: float = 5e-4                     # decays by lr_decay halfway through
    lr_decay: float = 0.1                # applied from epoch epochs//2 on
    momentum: float = 0.9
    batch_size: int = 2
    seed: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)
    d_fea: bool = True
    d_res: bool = True
    d_cls: bool = True
    two_threshold: bool = True
    use_pseudo_gt: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    def effective_thresholds(self) -> Thresholds:
        if self.two_threshold:
            return self.thresholds
        return Thresholds(SINGLE_THRESHOLD, SINGLE_THRESHOLD, self.thresholds.theta_iou)


@dataclass
class BaseTrainConfig:
    epochs: int = 50
    lr: float = 2e-3
    lr_decay_every: int = 25
    lr_gamma: float = 0.1
    momentum: float = 0.9
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class LossBreakdown:
    loss_im: float
    loss_rm: float
    feature_distill: float
    residual_distill: float
    cls_distill: float
    total: float

    FIELDS = ("loss_im", "loss_rm", "feature_distill", "residual_distill",
              "cls_distill", "total")

    def as_tuple(self):
        return (self.loss_im, self.loss_rm, self.feature_distill,
                self.residual_distill, self.cls_distill, self.total)


class SGDMomentum:
    """Plain SGD with momentum: v <- mu*v + g; p <- p - lr*v. No weight decay."""

    def __init__(self, params: dict[str, Tensor], momentum: float):
        self.params = params
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data -= lr * v


# -- model construction ----------------------------------------------------------

def init_incremental(om: DetectorModel, num_new: int, seed: int) -> DetectorModel:
    """Copy of the old model widened by num_new classes.

    Old class columns of the classification and delta heads are copied; new
    columns draw from Normal(0, 0.01^2) with zero bias. Draw order: new
    classification columns, then new delta columns.
    """
    if num_new < 1:
        raise ValueError(f"num_new must be >= 1, got {num_new}")
    rng = np.random.default_rng(seed)
    im = om.clone(requires_grad=True)
    fw = om.config.fc_width
    cls_w = im.params["rcnn.cls.w"].data
    new_cls = rng.normal(0.0, 0.01, (fw, num_new))
    im.params["rcnn.cls.w"] = Tensor(np.hstack([cls_w, new_cls]), requires_grad=True)
    im.params["rcnn.cls.b"] = Tensor(
        np.concatenate([im.params["rcnn.cls.b"].data, np.zeros(num_new)]), requires_grad=True)
    delta_w = im.params["rcnn.delta.w"].data
    new_delta = rng.normal(0.0, 0.01, (fw, num_new * 4))
    im.params["rcnn.delta.w"] = Tensor(np.hstack([delta_w, new_delta]), requires_grad=True)
    im.params["rcnn.delta.b"] = Tensor(
        np.concatenate([im.params["rcnn.delta.b"].data, np.zeros(num_new * 4)]),
        requires_grad=True)
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


def rm_local_targets(gt_new: list[tuple[BBox, int]], num_old: int) -> list[tuple[BBox, int]]:
    """Map global new-class ids (num_old+1..) onto the residual model's 1..Cb."""
    return [(b, cid - num_old) for b, cid in gt_new]


# -- loss assembly ----------------------------------------------------------------

def compute_losses(triple: TripleNetwork, image, gt_new: list[tuple[BBox, int]],
                   cfg: TrainConfig, rng: np.random.Generator,
                   pseudo: list | None = None,
                   om_features: Tensor | None = None,
                   im_candidates: np.ndarray | None = None,
                   rm_candidates: np.ndarray | None = None) -> tuple[Tensor, LossBreakdown]:
    """Total loss tensor and its per-term breakdown for one image.

    Disabled terms contribute exactly zero. `pseudo` may carry precomputed
    surviving old-model detections (they depend only on the frozen old model,
    the image, and the thresholds); `om_features` may carry the old model's
    backbone features of `image`. Otherwise the old model's backbone runs at
    most once here. `im_candidates`/`rm_candidates` pin the RoI candidate
    pools for gradient checking.
    """
    om, im, rm = triple.om, triple.im, triple.rm
    th = cfg.effective_thresholds()
    num_old = om.num_classes
    distill_on = cfg.d_fea or cfg.d_res or cfg.d_cls
    if om_features is None and (distill_on or (cfg.use_pseudo_gt and pseudo is None)):
        om_features = forward_features(om, image)

    if cfg.use_pseudo_gt:
        if pseudo is None:
            pseudo = generate_pseudo_gt(om, image, [b for b, _ in gt_new], th,
                                        features=om_features)
        targets = build_training_targets(pseudo, gt_new, th)
    else:
        targets = PseudoGTSet(rpn_targets=[b for b, _ in gt_new],
                              rcnn_targets=list(gt_new))

    f_im = forward_features(im, image)
    loss_im, internals = frcnn_loss(im, image, targets.rpn_targets, targets.rcnn_targets,
                                    rng, features=f_im, return_internals=True,
                                    candidate_rois=im_candidates)

    f_rm = forward_features(rm, image)
    gt_rm = rm_local_targets(gt_new, num_old)
    loss_rm = frcnn_loss(rm, image, [b for b, _ in gt_rm], gt_rm, rng, features=f_rm,
                         candidate_rois=rm_candidates)

    d_fea_t = d_res_t = d_cls_t = None
    if distill_on:
        feat = FeatureTriple(om_features, f_im, f_rm)
        if cfg.d_fea:
            d_fea_t = feature_distill_loss(feat)
        if cfg.d_res or cfg.d_cls:
            rois = internals.rois
            p_om = roi_pool(om_features, rois, om.config.pool_size, om.config.stride)
            p_rm = roi_pool(f_rm, rois, rm.config.pool_size, rm.config.stride)
            if cfg.d_res:
                d_res_t = residual_distill_loss(feat, PooledTriple(p_om, internals.pooled, p_rm))
            if cfg.d_cls:
                om_logits, _ = head_forward(om, p_om)
                rm_logits, _ = head_forward(rm, p_rm)
                d_cls_t = classification_distill_loss(
                    LogitTriple(om_logits, internals.cls_logits, rm_logits))

    total = loss_im + loss_rm
    active = [t for t in (d_fea_t, d_res_t, d_cls_t) if t is not None]
    if active:
        distill_sum = active[0]
        for t in active[1:]:
            distill_sum = distill_sum + t
        total = total + Tensor(cfg.lam) * distill_sum

    breakdown = LossBreakdown(
        loss_im=loss_im.item(),
        loss_rm=loss_rm.item(),
        feature_distill=d_fea_t.item() if d_fea_t is not None else 0.0,
        residual_distill=d_res_t.item() if d_res_t is not None else 0.0,
        cls_distill=d_cls_t.item() if d_cls_t is not None else 0.0,
        total=total.item(),
    )
    for name, value in zip(LossBreakdown.FIELDS, breakdown.as_tuple()):
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss term {name!r}: {value}")
    return total, breakdown


@dataclass
class EpochStats:
    epoch: int
    losses: LossBreakdown
    map_old: float = float("nan")
    map_new: float = float("nan")
    map_all: float = float("nan")


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    arr = np.array([b.as_tuple() for b in items])
    return LossBreakdown(*arr.mean(axis=0))


def write_epoch_log(path, log: list[EpochStats]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", *LossBreakdown.FIELDS, "map_old", "map_new", "map_all"])
        for e in log:
            writer.writerow([e.epoch, *e.losses.as_tuple(), e.map_old, e.map_new, e.map_all])


def _fit(image_loss, n: int, cfg: TrainConfig | BaseTrainConfig, rng: np.random.Generator,
         optimizers: list[SGDMomentum], lr_at, evaluate=None) -> list[EpochStats]:
    """The SGD loop behind both trainers: per epoch the rate `lr_at(epoch)`,
    one shuffle draw from `rng`, then `cfg.batch_size` minibatches in that
    order. `image_loss(idx)` returns one image's (loss tensor, LossBreakdown)
    and makes its step's own draws from `rng`. Each batch minimizes its mean
    image loss; `evaluate() -> (map_old, map_new, map_all)` runs per epoch."""
    if n == 0:
        raise ValueError("empty training dataset")
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
                t, breakdown = image_loss(idx)
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
        stats = EpochStats(epoch=epoch, losses=_mean_breakdown(epoch_losses))
        if evaluate is not None:
            stats.map_old, stats.map_new, stats.map_all = evaluate()
        log.append(stats)
    return log


def train_incremental(triple: TripleNetwork, scenes: list[Scene], cfg: TrainConfig,
                      eval_fn=None) -> list[EpochStats]:
    """Train the incremental and residual models on new-class scenes.

    `eval_fn(im_model) -> (map_old, map_new, map_all)` runs after each epoch
    when provided. Pseudo ground truth and old-model features depend only on
    frozen state, so they are precomputed: one old-model backbone pass per
    scene feeds both, and none runs when neither is on.
    """
    om, th = triple.om, cfg.effective_thresholds()
    need_om = cfg.use_pseudo_gt or cfg.d_fea or cfg.d_res or cfg.d_cls
    # detached: the cache keeps the feature values, not the frozen graph
    om_feats = [forward_features(om, s.image).detach() if need_om else None for s in scenes]
    pseudo = [generate_pseudo_gt(om, s.image, [b for b, _ in s.annotations], th, features=f)
              if cfg.use_pseudo_gt else [] for s, f in zip(scenes, om_feats)]
    rng = np.random.default_rng(cfg.seed)

    def image_loss(idx):
        s = scenes[idx]
        return compute_losses(triple, s.image, s.annotations, cfg, rng,
                              pseudo=pseudo[idx], om_features=om_feats[idx])

    optimizers = [SGDMomentum(triple.im.trainable(), cfg.momentum),
                  SGDMomentum(triple.rm.trainable(), cfg.momentum)]
    return _fit(image_loss, len(scenes), cfg, rng, optimizers,
                lambda epoch: cfg.lr * (cfg.lr_decay if epoch >= cfg.epochs // 2 else 1.0),
                None if eval_fn is None else partial(eval_fn, triple.im))


def train_base(model: DetectorModel, scenes: list[Scene], cfg: BaseTrainConfig,
               eval_fn=None) -> list[EpochStats]:
    """Train a single detector on fully annotated scenes; its epoch log
    reports the detection loss as both loss_im and total."""
    rng = np.random.default_rng(cfg.seed)

    def image_loss(idx):
        s = scenes[idx]
        t = frcnn_loss(model, s.image, [b for b, _ in s.annotations], s.annotations, rng)
        return t, LossBreakdown(t.item(), 0.0, 0.0, 0.0, 0.0, t.item())

    return _fit(image_loss, len(scenes), cfg, rng,
                [SGDMomentum(model.trainable(), cfg.momentum)],
                lambda epoch: cfg.lr * (cfg.lr_gamma ** (epoch // cfg.lr_decay_every)),
                None if eval_fn is None else partial(eval_fn, model))


def finetune_config(cfg: TrainConfig) -> TrainConfig:
    """The plain finetuning baseline: no pseudo ground truth, no distillation."""
    return replace(cfg, d_fea=False, d_res=False, d_cls=False,
                   two_threshold=False, use_pseudo_gt=False)
