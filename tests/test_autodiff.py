"""Tensor engine: forward semantics, backward correctness, grad_check."""

import numpy as np
import pytest

from tripledet import autodiff as ad
from tripledet.autodiff import GradCheckError, ShapeError, Tensor


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 0.0, 2.5]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.5])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_softmax_uniform_on_zero_logits():
    out = ad.softmax(Tensor([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=0, rtol=0)


def test_softmax_index_range_width():
    x = Tensor(np.arange(10.0).reshape(2, 5))
    out = ad.softmax(x, index_range=(1, 4))
    assert out.shape == (2, 3)
    assert np.allclose(out.data.sum(axis=1), 1.0)


def test_softmax_bad_range_rejected():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros((2, 3))), index_range=(1, 5))


def test_sum_square_gradient():
    x = Tensor([3.0], requires_grad=True)
    ad.tsum(ad.square(x)).backward()
    assert np.allclose(x.grad, [6.0])


def test_add_gradient_is_ones():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    ad.tsum(a + b).backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x + x).backward()


def test_backward_twice_identical():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    y = ad.tsum(ad.smooth_l1(ad.gram(x)))
    y.backward()
    first = x.grad.copy()
    y.backward()
    assert np.array_equal(first, x.grad)


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 8, 8))
    w = rng.normal(size=(3, 2, 3, 3))
    a = ad.conv2d(Tensor(x), Tensor(w)).data
    b = ad.conv2d(Tensor(x), Tensor(w)).data
    assert np.array_equal(a, b)


def test_shared_input_accumulates():
    x = Tensor([2.0], requires_grad=True)
    ad.tsum(x * x).backward()          # d(x^2)/dx = 2x
    assert np.allclose(x.grad, [4.0])


def test_shape_mismatch_rejected_with_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("op,args", [
    (ad.softmax, (np.zeros(3),)),
    (ad.softmax, (np.zeros((2, 3, 4)),)),
    (ad.log_softmax, (np.zeros(3),)),
    (ad.log_softmax, (np.zeros((2, 3, 4)),)),
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 2, 2)))),     # even kernel
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 3, 1)))),     # not square
], ids=["softmax-1d", "softmax-3d", "log_softmax-1d", "log_softmax-3d", "conv2d-even",
        "conv2d-nonsquare"])
def test_row_ops_and_same_conv_reject_other_shapes(op, args):
    """softmax/log_softmax take (n, C) logits; conv2d takes odd square kernels."""
    with pytest.raises(ShapeError):
        op(*[Tensor(a) for a in args])


def test_maxpool_tie_goes_to_first_cell():
    x = Tensor(np.full((1, 2, 2), 7.0), requires_grad=True)
    out = ad.max_pool2(x)
    assert out.data.reshape(()) == 7.0
    out_sum = ad.tsum(out)
    out_sum.backward()
    grad = x.grad.reshape(-1)
    assert grad[0] == 1.0 and grad[1:].sum() == 0.0


def test_maxpool_needs_even_spatial():
    with pytest.raises(ShapeError):
        ad.max_pool2(Tensor(np.zeros((1, 3, 4))))


def test_smooth_l1_values_and_slope():
    x = Tensor([0.5, 5.0, -2.0])
    out = ad.smooth_l1(x)
    assert np.allclose(out.data, [0.125, 4.5, 1.5])
    err = ad.grad_check(lambda t: ad.tsum(ad.smooth_l1(t)), [np.array([5.0])])
    assert err < 1e-6  # analytic slope 1 on the linear branch


def test_grad_check_cubic():
    err = ad.grad_check(lambda t: ad.tsum(t * t * t), [np.array([2.0])])
    assert err < 1e-6


def test_grad_check_reports_nonfinite_coordinate():
    def f(t):
        return ad.tsum(ad.divide(Tensor([1.0]), t))

    # t - FD_STEP hits exactly zero, so the probe divides by zero
    with np.errstate(divide="ignore"), pytest.raises(GradCheckError) as exc:
        ad.grad_check(f, [np.array([ad.FD_STEP])])
    assert "coordinate" in str(exc.value)


def test_frobenius_norm_zero_input_has_finite_gradient():
    x = Tensor(np.zeros((3, 3)), requires_grad=True)
    ad.frobenius_norm(x).backward()
    assert np.all(np.isfinite(x.grad))


def test_detach_blocks_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.tsum(ad.square(x.detach()))
    assert not y.requires_grad
    z = ad.tsum(ad.square(x) + x.detach())
    z.backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_broadcast_bias_add_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 4))
    b = rng.normal(size=(2, 1, 1))
    err = ad.grad_check(lambda xx, bb: ad.tsum(ad.square(xx + bb)), [x, b])
    assert err < 1e-6


@pytest.mark.parametrize("kind,builder", [
    ("add", lambda rng: (lambda a, b: ad.tsum(ad.add(a, b)),
                         [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])),
    ("subtract", lambda rng: (lambda a, b: ad.tsum(ad.square(ad.subtract(a, b))),
                              [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])),
    ("multiply", lambda rng: (lambda a, b: ad.tsum(ad.multiply(a, b)),
                              [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])),
    ("divide", lambda rng: (lambda a, b: ad.tsum(ad.divide(a, b)),
                            [rng.normal(size=(3,)), 2.0 + rng.uniform(size=(3,))])),
    ("matmul", lambda rng: (lambda a, b: ad.tsum(ad.matmul(a, b)),
                            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])),
    ("gram", lambda rng: (lambda m: ad.tsum(ad.gram(m)), [rng.normal(size=(3, 5))])),
    ("conv2d", lambda rng: (lambda x, w: ad.tsum(ad.conv2d(x, w)),
                            [rng.normal(size=(2, 6, 6)), rng.normal(size=(3, 2, 3, 3))])),
    ("relu", lambda rng: (lambda x: ad.tsum(ad.relu(x)), [rng.normal(size=(4, 4)) + 0.01])),
    ("max_pool2", lambda rng: (lambda x: ad.tsum(ad.max_pool2(x)), [rng.normal(size=(2, 4, 4))])),
    ("mean_axis", lambda rng: (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=0))),
                               [rng.normal(size=(3, 4, 4))])),
    ("sum_axis", lambda rng: (lambda x: ad.tsum(ad.square(ad.tsum(x, axis=1))),
                              [rng.normal(size=(3, 4))])),
    ("abs", lambda rng: (lambda x: ad.tsum(ad.tabs(x)), [rng.normal(size=(4, 4)) + 3.0])),
    ("square", lambda rng: (lambda x: ad.tsum(ad.square(x)), [rng.normal(size=(4, 4))])),
    ("softmax", lambda rng: (lambda x: ad.tsum(ad.square(ad.softmax(x))),
                             [rng.normal(size=(3, 5))])),
    ("softmax_range", lambda rng: (lambda x: ad.tsum(ad.square(ad.softmax(x, index_range=(1, 4)))),
                                   [rng.normal(size=(3, 5))])),
    ("log_softmax", lambda rng: (lambda x: ad.tsum(ad.multiply(ad.log_softmax(x),
                                                               Tensor(np.eye(3, 5)))),
                                 [rng.normal(size=(3, 5))])),
    ("frobenius_norm", lambda rng: (ad.frobenius_norm, [rng.normal(size=(3, 3))])),
    ("smooth_l1", lambda rng: (lambda x: ad.tsum(ad.smooth_l1(x)),
                               [rng.normal(size=(4, 4)) * 2.0])),
    ("softplus", lambda rng: (lambda x: ad.tsum(ad.softplus(x)), [rng.normal(size=(4,))])),
    ("reshape", lambda rng: (lambda x: ad.tsum(ad.square(ad.reshape(x, (8,)))),
                             [rng.normal(size=(2, 4))])),
    ("roi_pool", lambda rng: (lambda x: ad.tsum(ad.square(ad.roi_pool(
        x, np.array([[0.2, 0.4, 3.1, 3.7], [1.0, 0.5, 3.9, 2.5]]), 2))),
        [rng.normal(size=(2, 4, 4))])),
])
def test_primitive_gradients_ten_instances(kind, builder):
    """Every primitive matches central finite differences on 10 random draws."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([17, i, sum(ord(c) for c in kind)])
        f, points = builder(rng)
        worst = max(worst, ad.grad_check(f, points))
    assert worst < 1e-4, f"{kind}: max relative error {worst}"


def test_topo_visits_each_node_once():
    x = Tensor([1.0], requires_grad=True)
    y = x + x
    z = y + y
    order = ad.topo_order(z)
    assert len(order) == len({id(n) for n in order}) == 3
