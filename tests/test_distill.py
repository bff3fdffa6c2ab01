"""Distillation losses: scalar-loop oracles, exact zero cases, invariances."""

import numpy as np
import pytest

from _oracles import (attention_map_ref, attention_pair_loss_ref,
                      classification_distill_loss_ref, feature_distill_loss_ref,
                      residual_distill_loss_ref)
from tripledet.autodiff import ShapeError, Tensor, grad_check
from tripledet.distill import (FeatureTriple, LogitTriple, PooledTriple, attention_map,
                               attention_pair_loss, classification_distill_loss,
                               feature_distill_loss, residual_base_loss,
                               residual_distill_loss, residual_pool_loss)


def int_array(rng, shape, lo=-3, hi=4):
    """Small-integer values: float sums and differences are exact."""
    return rng.integers(lo, hi, shape).astype(np.float64)


# -- attention map ------------------------------------------------------------------

def test_attention_map_single_channel_identity():
    f = np.arange(12.0).reshape(1, 3, 4)
    assert np.array_equal(attention_map(Tensor(f)).data, f[0])


def test_attention_map_is_channel_mean():
    f = np.zeros((2, 1, 1))
    f[0, 0, 0], f[1, 0, 0] = 2.0, 4.0
    assert attention_map(Tensor(f)).data[0, 0] == 3.0


def test_attention_map_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    f = rng.normal(size=(4, 5, 5))
    assert np.max(np.abs(attention_map(Tensor(f)).data - attention_map_ref(f))) < 1e-12


# -- attention pair loss --------------------------------------------------------------

def test_pair_loss_identical_maps_zero():
    m = np.random.default_rng(22).normal(size=(4, 4))
    assert attention_pair_loss(Tensor(m), Tensor(m.copy())).item() == 0.0


def test_pair_loss_scale_invariance():
    m = np.random.default_rng(23).normal(size=(4, 4))
    v = attention_pair_loss(Tensor(m), Tensor(2.0 * m)).item()
    assert abs(v) < 1e-9


def test_pair_loss_symmetry():
    rng = np.random.default_rng(24)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    assert attention_pair_loss(Tensor(a), Tensor(b)).item() == \
        attention_pair_loss(Tensor(b), Tensor(a)).item()


def test_pair_loss_fixed_2x2_matches_oracle():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([[0.0, 1.0], [2.0, 1.5]])
    got = attention_pair_loss(Tensor(a), Tensor(b)).item()
    assert got == pytest.approx(attention_pair_loss_ref(a, b), abs=1e-12)


def test_pair_loss_all_zero_map_is_finite():
    z = np.zeros((3, 3))
    v = attention_pair_loss(Tensor(z), Tensor(np.ones((3, 3)))).item()
    assert np.isfinite(v) and v >= 0.0


def test_pair_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        attention_pair_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))


# -- feature distillation --------------------------------------------------------------

def test_feature_distill_zero_case():
    rng = np.random.default_rng(25)
    f = rng.normal(size=(3, 4, 4))
    triple = FeatureTriple(Tensor(f), Tensor(f.copy()), Tensor(np.zeros_like(f)))
    assert feature_distill_loss(triple).item() < 1e-12


def test_feature_distill_rm_zero_terms_collapse():
    # with a zero residual feature both terms compare old vs incremental
    rng = np.random.default_rng(26)
    f_om = rng.normal(size=(2, 3, 3))
    f_im = rng.normal(size=(2, 3, 3))
    triple = FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(np.zeros_like(f_om)))
    single = attention_pair_loss(attention_map(Tensor(f_om)), attention_map(Tensor(f_im))).item()
    assert feature_distill_loss(triple).item() == pytest.approx(2.0 * single, abs=1e-12)


def test_feature_distill_matches_scalar_oracle():
    rng = np.random.default_rng(27)
    f_om, f_im, f_rm = (rng.normal(size=(3, 4, 4)) for _ in range(3))
    got = feature_distill_loss(FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm))).item()
    assert got == pytest.approx(feature_distill_loss_ref(f_om, f_im, f_rm), abs=1e-12)


def test_feature_triple_shape_check():
    with pytest.raises(ShapeError):
        FeatureTriple(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((2, 3, 3))),
                      Tensor(np.zeros((2, 4, 4))))


# -- residual distillation ---------------------------------------------------------------

def test_residual_zero_case_exact():
    rng = np.random.default_rng(28)
    f_om = int_array(rng, (3, 4, 4))
    f_im = int_array(rng, (3, 4, 4))
    f_rm = f_im - f_om                       # exact residual
    p_om = int_array(rng, (2, 3, 2, 2))
    p_rm = int_array(rng, (2, 3, 2, 2))
    p_im = p_om + p_rm                       # exact sum
    loss = residual_distill_loss(
        FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm)),
        PooledTriple(Tensor(p_om), Tensor(p_im), Tensor(p_rm)))
    assert loss.item() < 1e-12


def test_residual_pool_zero_om_rm():
    rng = np.random.default_rng(29)
    p_im = rng.normal(size=(2, 2, 2, 2))
    zero = np.zeros_like(p_im)
    got = residual_pool_loss(PooledTriple(Tensor(zero), Tensor(p_im), Tensor(zero))).item()
    assert got == pytest.approx(2.0 * np.mean(np.abs(p_im)), abs=1e-12)


def test_residual_matches_scalar_oracle():
    rng = np.random.default_rng(30)
    f_om, f_im, f_rm = (rng.normal(size=(2, 4, 4)) for _ in range(3))
    p_om, p_im, p_rm = (rng.normal(size=(2, 2, 2, 2)) for _ in range(3))
    got = residual_distill_loss(
        FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm)),
        PooledTriple(Tensor(p_om), Tensor(p_im), Tensor(p_rm))).item()
    want = residual_distill_loss_ref(f_om, f_im, f_rm, p_om, p_im, p_rm)
    assert got == pytest.approx(want, abs=1e-12)


# -- classification distillation -----------------------------------------------------------

def test_cls_distill_matched_distributions_zero():
    rng = np.random.default_rng(31)
    ca, cb, n = 2, 2, 3
    im = rng.normal(size=(n, ca + cb + 1))
    om = im[:, :ca + 1].copy()               # same logits -> same restricted softmax
    rm = np.hstack([rng.normal(size=(n, 1)), im[:, ca + 1:].copy()])
    got = classification_distill_loss(LogitTriple(Tensor(om), Tensor(im), Tensor(rm))).item()
    assert got < 1e-12


def test_cls_distill_all_zero_logits_zero():
    ca, cb, n = 3, 2, 4
    triple = LogitTriple(Tensor(np.zeros((n, ca + 1))),
                         Tensor(np.zeros((n, ca + cb + 1))),
                         Tensor(np.zeros((n, cb + 1))))
    assert classification_distill_loss(triple).item() == 0.0


def test_cls_distill_single_roi_matches_oracle():
    rng = np.random.default_rng(32)
    ca, cb = 2, 1
    om = rng.normal(size=(1, ca + 1))
    im = rng.normal(size=(1, ca + cb + 1))
    rm = rng.normal(size=(1, cb + 1))
    got = classification_distill_loss(LogitTriple(Tensor(om), Tensor(im), Tensor(rm))).item()
    assert got == pytest.approx(classification_distill_loss_ref(om, im, rm), abs=1e-12)


def test_cls_distill_random_matches_oracle():
    rng = np.random.default_rng(33)
    ca, cb, n = 3, 2, 5
    om = rng.normal(size=(n, ca + 1))
    im = rng.normal(size=(n, ca + cb + 1))
    rm = rng.normal(size=(n, cb + 1))
    got = classification_distill_loss(LogitTriple(Tensor(om), Tensor(im), Tensor(rm))).item()
    assert got == pytest.approx(classification_distill_loss_ref(om, im, rm), abs=1e-12)


def test_cls_distill_one_new_class_side_is_exactly_zero():
    """With one new class, both sides of the new-class term are a softmax over
    a single logit, identically 1: the term adds exactly 0.0 and sends no
    gradient to the residual model's logits."""
    rng = np.random.default_rng(34)
    ca, n = 3, 5
    om = rng.normal(size=(n, ca + 1))
    im = rng.normal(size=(n, ca + 2))
    rm = Tensor(rng.normal(size=(n, 2)), requires_grad=True)
    loss = classification_distill_loss(LogitTriple(Tensor(om), Tensor(im), rm))
    # the same logits without the new class: the old-class side alone
    old_side = classification_distill_loss(LogitTriple(
        Tensor(om), Tensor(im[:, :ca + 1].copy()), Tensor(rm.data[:, :1].copy())))
    assert loss.item() - old_side.item() == 0.0
    loss.backward()
    assert np.array_equal(rm.grad, np.zeros((n, 2)))


def test_logit_triple_width_check():
    with pytest.raises(ShapeError):
        LogitTriple(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                    Tensor(np.zeros((2, 3))))


# -- gradient flow ------------------------------------------------------------------------

def test_losses_nonnegative_random():
    rng = np.random.default_rng(34)
    for _ in range(20):
        f_om, f_im, f_rm = (rng.normal(size=(2, 3, 3)) for _ in range(3))
        p = [rng.normal(size=(2, 2, 2, 2)) for _ in range(3)]
        feat = FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm))
        pool = PooledTriple(*(Tensor(x) for x in p))
        assert feature_distill_loss(feat).item() >= 0.0
        assert residual_distill_loss(feat, pool).item() >= 0.0


def test_gradients_flow_to_all_feature_inputs():
    rng = np.random.default_rng(35)
    f_om = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    f_im = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    f_rm = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    feature_distill_loss(FeatureTriple(f_om, f_im, f_rm)).backward()
    assert f_om.grad is not None and np.any(f_om.grad != 0)
    assert f_im.grad is not None and np.any(f_im.grad != 0)
    assert f_rm.grad is not None and np.any(f_rm.grad != 0)


def test_frozen_old_features_receive_no_gradient_when_flagged():
    rng = np.random.default_rng(36)
    f_om = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=False)
    f_im = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    f_rm = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    feature_distill_loss(FeatureTriple(f_om, f_im, f_rm)).backward()
    assert f_om.grad is None and f_im.grad is not None


def test_backward_on_feature_distill_matches_finite_differences():
    rng = np.random.default_rng(37)
    pts = [rng.normal(size=(2, 4, 4)) for _ in range(2)]
    err = grad_check(
        lambda o, i: feature_distill_loss(FeatureTriple(o, i, Tensor(np.zeros((2, 4, 4))) + i * 0.0)),
        pts)
    assert err < 1e-4


def test_residual_base_gradcheck():
    rng = np.random.default_rng(38)
    pts = [rng.normal(size=(2, 4, 4)) for _ in range(3)]
    err = grad_check(lambda o, i, r: residual_base_loss(FeatureTriple(o, i, r)), pts)
    assert err < 1e-4
