"""Distillation losses tying the frozen old model, the incremental model,
and the assistant residual model together.

Feature-space losses compare attention maps (per-position channel means)
through their normalized Gram matrices: G = (M M^T) / (||M M^T||_F + 1e-12),
penalized with an elementwise L1 mean. This keeps the comparison sensitive to
2-D structure while being invariant to positive rescaling of a map.

The residual loss has a backbone part (the incremental-minus-old feature
residual should look like the residual model's feature) and a pooled part (a
bidirectional L1 tying pooled features of the three models, both terms kept
as written so the value includes its factor of two). The classification loss
matches restricted softmax distributions: old logits of the incremental head
against the old model, new-class logits against the residual model.

All losses are means over their index sets and are exactly zero on their
documented zero cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

GRAM_EPS = 1e-12


@dataclass
class FeatureTriple:
    """Backbone feature maps (c,h,w) of old, incremental, residual models."""
    f_om: Tensor
    f_im: Tensor
    f_rm: Tensor

    def __post_init__(self):
        if not (self.f_om.shape == self.f_im.shape == self.f_rm.shape):
            raise ShapeError(
                f"feature shapes differ: {self.f_om.shape}, {self.f_im.shape}, {self.f_rm.shape}")


@dataclass
class PooledTriple:
    """Pooled features (n,c,P,P) of the three models over the same RoIs."""
    p_om: Tensor
    p_im: Tensor
    p_rm: Tensor

    def __post_init__(self):
        if not (self.p_om.shape == self.p_im.shape == self.p_rm.shape):
            raise ShapeError(
                f"pooled shapes differ: {self.p_om.shape}, {self.p_im.shape}, {self.p_rm.shape}")


@dataclass
class LogitTriple:
    """Per-RoI class logits: old (n,Ca+1), incremental (n,Ca+Cb+1), residual (n,Cb+1)."""
    p_om_logits: Tensor
    y_im_logits: Tensor
    p_rm_logits: Tensor

    def __post_init__(self):
        n = self.p_om_logits.shape[0]
        if self.y_im_logits.shape[0] != n or self.p_rm_logits.shape[0] != n:
            raise ShapeError("logit triple row counts differ")
        ca = self.num_old
        cb = self.num_new
        if ca < 1 or self.y_im_logits.shape[1] != ca + cb + 1:
            raise ShapeError(
                f"inconsistent logit widths: old={self.p_om_logits.shape[1]}, "
                f"incremental={self.y_im_logits.shape[1]}, residual={self.p_rm_logits.shape[1]}")

    @property
    def num_old(self) -> int:
        return self.p_om_logits.shape[1] - 1

    @property
    def num_new(self) -> int:
        return self.p_rm_logits.shape[1] - 1


def attention_map(f: Tensor) -> Tensor:
    """Per-position mean over channels: (c,h,w) -> (h,w)."""
    if f.data.ndim != 3:
        raise ShapeError(f"attention_map needs (c,h,w), got {f.shape}")
    return ad.tmean(f, axis=0)


def _normalized_gram(m: Tensor) -> Tensor:
    g = ad.gram(m)
    return ad.divide(g, ad.frobenius_norm(g) + Tensor(GRAM_EPS))


def attention_pair_loss(m_a: Tensor, m_b: Tensor) -> Tensor:
    """Mean |G_b - G_a| over normalized Gram matrices of two (h,w) maps."""
    if m_a.shape != m_b.shape or m_a.data.ndim != 2:
        raise ShapeError(f"attention maps must share a 2-D shape: {m_a.shape} vs {m_b.shape}")
    return ad.tmean(ad.tabs(_normalized_gram(m_b) - _normalized_gram(m_a)))


def feature_distill_loss(triple: FeatureTriple) -> Tensor:
    """Keep incremental features close to old features and to old+residual."""
    m_im = attention_map(triple.f_im)
    direct = attention_pair_loss(attention_map(triple.f_om), m_im)
    merged = attention_pair_loss(attention_map(triple.f_om + triple.f_rm), m_im)
    return direct + merged


def residual_base_loss(triple: FeatureTriple) -> Tensor:
    """Backbone residual (incremental - old) should match the residual model."""
    return attention_pair_loss(attention_map(triple.f_im - triple.f_om),
                               attention_map(triple.f_rm))


def residual_pool_loss(pooled: PooledTriple) -> Tensor:
    """Bidirectional L1 over pooled features; both terms kept as written."""
    first = ad.tmean(ad.tabs((pooled.p_im - pooled.p_om) - pooled.p_rm))
    second = ad.tmean(ad.tabs((pooled.p_im - pooled.p_rm) - pooled.p_om))
    return first + second


def residual_distill_loss(feat: FeatureTriple, pooled: PooledTriple) -> Tensor:
    return residual_base_loss(feat) + residual_pool_loss(pooled)


def classification_distill_loss(logits: LogitTriple) -> Tensor:
    """Match restricted softmax distributions of the incremental head against
    the old model (old classes + background) and the residual model (new
    classes, background excluded). Mean over RoIs; the new-class term is 0
    when there are no new classes.

    With exactly one new class the new-class term is also exactly 0, with
    zero gradient: each side is a softmax over a single logit, identically 1.
    Only the old-class term then acts, as in the default 3+1 protocol.
    """
    ca, cb = logits.num_old, logits.num_new
    im_old = ad.softmax(logits.y_im_logits, index_range=(0, ca + 1))
    om = ad.softmax(logits.p_om_logits)
    per_roi = ad.tsum(ad.square(im_old - om), axis=1) * Tensor(1.0 / (ca + 1))
    if cb > 0:
        im_new = ad.softmax(logits.y_im_logits, index_range=(ca + 1, ca + 1 + cb))
        rm = ad.softmax(logits.p_rm_logits, index_range=(1, cb + 1))
        per_roi = per_roi + ad.tsum(ad.square(im_new - rm), axis=1) * Tensor(1.0 / cb)
    return ad.tmean(per_roi)
