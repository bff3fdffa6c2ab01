"""Tensor engine: forward semantics, backward correctness, grad_check."""

import itertools

import numpy as np
import pytest

from _oracles import (add_at_roi_pool, argmax_max_pool2, assert_probes_exact,
                      full_evaluation_grad_check, np_pad_conv2d, where_max_pool2, where_relu)
from tripledet import autodiff as ad
from tripledet.autodiff import GradCheckError, ShapeError, Tensor
from tripledet.trainer import BaseTrainConfig, LossBreakdown, SGDMomentum, TrainingError, _fit


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


def test_interior_gradient_freed_once_its_node_has_used_it():
    """By the time relu's closure runs, its consumer `square` has pushed its
    gradient and dropped it; the root keeps its own. After the pass only the
    leaf and the root hold a gradient, and a second pass repeats the first."""
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)), requires_grad=True)
    r = ad.relu(x)
    sq = ad.square(r)
    root = ad.tsum(sq)
    seen = []
    relu_backward = r._backward

    def recording(g):
        seen.append((sq.grad, root.grad))
        relu_backward(g)

    r._backward = recording
    root.backward()
    assert len(seen) == 1
    sq_grad, root_grad = seen[0]
    assert sq_grad is None and root_grad is not None
    assert [t.grad is not None for t in (x, r, sq, root)] == [True, False, False, True]
    first = x.grad.copy()
    root.backward()
    assert first.tobytes() == x.grad.tobytes()


def test_forward_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 8, 8))
    w = rng.normal(size=(3, 2, 3, 3))
    bias = rng.normal(size=(3, 1, 1))
    a = ad.conv2d(Tensor(x), Tensor(w), Tensor(bias)).data
    b = ad.conv2d(Tensor(x), Tensor(w), Tensor(bias)).data
    assert np.array_equal(a, b)


def test_shared_input_accumulates():
    x = Tensor([2.0], requires_grad=True)
    ad.tsum(x * x).backward()          # d(x^2)/dx = 2x
    assert np.allclose(x.grad, [4.0])


@pytest.mark.parametrize("op", [ad.add, ad.subtract, ad.multiply, ad.divide,
                                Tensor.__add__, Tensor.__sub__, Tensor.__mul__],
                         ids=["add", "subtract", "multiply", "divide", "+", "-", "*"])
def test_shape_mismatch_rejected_with_shapes(op):
    with pytest.raises(ShapeError) as exc:
        op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_first_gradient_contribution_lands_on_positive_zero():
    """A gradient accumulates from +0.0: a leaf whose one contribution is -0.0
    holds +0.0, as 0.0 + (-0.0) is +0.0."""
    x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
    ad.tsum(ad.multiply(x, Tensor(np.array([-0.0, 5.0])))).backward()
    assert x.grad.tolist() == [0.0, 5.0] and not np.signbit(x.grad).any()


def test_node_over_inputs_without_grad_keeps_no_graph():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
    for out in (ad.add(a, b), ad.relu(a), ad.matmul(a, b),
                ad.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((2, 1, 3, 3))),
                          Tensor(np.ones((2, 1, 1))))):
        assert not out.requires_grad and out.parents == () and out._backward is None
    mixed = ad.add(a, Tensor(np.ones((2, 2)), requires_grad=True))
    assert mixed.requires_grad and len(mixed.parents) == 2 and mixed._backward is not None


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("op,args", [
    (ad.softmax, (np.zeros(3),)),
    (ad.softmax, (np.zeros((2, 3, 4)),)),
    (ad.log_softmax, (np.zeros(3),)),
    (ad.log_softmax, (np.zeros((2, 3, 4)),)),
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 2, 2)), np.zeros((3, 1, 1)))),  # even
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 3, 1)), np.zeros((3, 1, 1)))),  # not square
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 3, 3)), np.zeros((3,)))),       # flat bias
    (ad.conv2d, (np.zeros((2, 6, 6)), np.zeros((3, 2, 3, 3)), np.zeros((1, 1, 1)))),  # one bias
], ids=["softmax-1d", "softmax-3d", "log_softmax-1d", "log_softmax-3d", "conv2d-even",
        "conv2d-nonsquare", "conv2d-flat-bias", "conv2d-shared-bias"])
def test_row_ops_and_same_conv_reject_other_shapes(op, args):
    """softmax/log_softmax take (n, C) logits; conv2d takes odd square kernels
    and one bias per output channel, shaped (cout, 1, 1)."""
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


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _forward_backward(op, data, g):
    """op's output and the input gradient it pushes for upstream gradient g."""
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    out._backward(g)
    return out.data, x.grad


# ±0, ±1 (ties), ±inf, NaN of both signs and subnormals
SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                     5e-324, -5e-324, 1e-310, -1e-310])


def _special_input(rng, shape):
    """Normal values with about 40% of them replaced by SPECIALS."""
    data = rng.normal(size=shape)
    pick = rng.random(shape) < 0.4
    data[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return data


def test_relu_equals_where_oracle_bytes():
    """Output and gradient are byte-equal to the np.where form, every special
    value included, and the output never holds a -0.0: NaN, -inf, -0.0 and
    negative subnormals all give +0.0."""
    rng = np.random.default_rng(0)
    for case in range(60):
        shape = tuple(int(v) for v in rng.integers(1, 20, 1 + case % 3))
        data = _special_input(rng, shape)
        g = rng.normal(size=shape)
        out, grad = _forward_backward(ad.relu, data, g)
        ref_out, ref_grad = _forward_backward(where_relu, data, g)
        assert _same_bytes(out, ref_out) and _same_bytes(grad, ref_grad)
        assert not np.signbit(out).any()



def test_mean_equals_np_mean_bytes():
    """tmean's value, the sum over the axis divided by its term count, holds
    `np.mean`'s bytes over the whole array and every axis, signed zeros and
    the other special values included."""
    rng = np.random.default_rng(1)
    cases = [np.full((2, 3), -0.0), np.array(-0.0)]
    cases += [_special_input(rng, tuple(int(v) for v in rng.integers(1, 7, case % 4)))
              for case in range(400)]
    with np.errstate(invalid="ignore", over="ignore"):
        for data in cases:
            for axis in (None, *range(-data.ndim, data.ndim)):
                assert _same_bytes(ad.tmean(Tensor(data), axis).data,
                                   np.asarray(np.mean(data, axis)))

def _pool_input(rng, kind, shape):
    if kind == "random":
        return rng.normal(size=shape)
    if kind == "integer":           # few values: ties in most windows
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "post-relu":         # exact zeros tie wherever a window is clamped
        return np.maximum(rng.normal(size=shape), 0.0)
    if kind == "relu-op":           # the library relu's output over every special value
        return ad.relu(Tensor(_special_input(rng, shape))).data.copy()
    # signed zeros only, plus the odd small integer: -0.0 == +0.0 ties
    return rng.choice([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0], size=shape)


POOL_KINDS = ["random", "integer", "post-relu", "signed-zero", "relu-op"]


@pytest.mark.parametrize("kind", POOL_KINDS)
def test_maxpool_equals_argmax_oracle_bytes(kind):
    """Output and gradient are byte-equal to the argmax/take_along_axis form:
    the first max cell of each window gives both, a signed-zero tie included."""
    rng = np.random.default_rng(POOL_KINDS.index(kind))
    shapes = [(8, 64, 64), (16, 32, 32), (16, 16, 16), (3, 6, 10), (2, 4, 2), (1, 2, 2)]
    for case in range(120):
        shape = shapes[case % len(shapes)]
        data = _pool_input(rng, kind, shape)
        out_shape = (shape[0], shape[1] // 2, shape[2] // 2)
        g = rng.choice([-1.5, -0.0, 0.0, 2.0], size=out_shape) if case % 2 else \
            rng.normal(size=out_shape)
        out, grad = _forward_backward(ad.max_pool2, data, g)
        ref_out, ref_grad = _forward_backward(argmax_max_pool2, data, g)
        assert _same_bytes(out, ref_out) and _same_bytes(grad, ref_grad)


WHERE_KINDS = ["negative", "signed-zero", "no-sign-bit"]


@pytest.mark.parametrize("kind", WHERE_KINDS)
def test_maxpool_equals_where_oracle_bytes(kind):
    """Output and gradient are byte-equal to the np.where chain, NaN windows
    included, on inputs with negatives but no -0.0 and with a -0.0 (max_pool2
    takes the chain: the first max cell's bytes) and on inputs with no sign
    bit set (it returns the window max as computed)."""
    rng = np.random.default_rng(5 + WHERE_KINDS.index(kind))
    shapes = [(8, 16, 16), (3, 6, 10), (2, 4, 2), (1, 2, 2)]
    nan_windows = 0
    for case in range(80):
        shape = shapes[case % len(shapes)]
        data = _special_input(rng, shape)
        data[data == 0.0] = 0.0                 # every zero +0.0
        if kind == "no-sign-bit":
            data = np.abs(data)                 # NaNs and zeros included
        else:
            data.reshape(-1)[rng.integers(data.size)] = -0.0 if kind == "signed-zero" else -1.0
        g = _special_input(rng, (shape[0], shape[1] // 2, shape[2] // 2))
        out, grad = _forward_backward(ad.max_pool2, data, g)
        ref_out, ref_grad = _forward_backward(where_max_pool2, data, g)
        assert _same_bytes(out, ref_out) and _same_bytes(grad, ref_grad)
        assert np.signbit(data).any() == (kind != "no-sign-bit")
        assert (np.signbit(data) & (data == 0.0)).any() == (kind == "signed-zero")
        nan_windows += int(np.isnan(out).sum())
    assert nan_windows > 0


def test_roi_pool_gradient_equals_add_at_oracle_bytes():
    """Output and feature gradient are byte-equal to the np.add.at scatter,
    up to the sign of a NaN. Small maps put many samples on one cell, and the
    upstream gradient mixes ±0, NaN, ±inf and magnitudes from 1e-300 to 1e16,
    so a cell's bytes show the order its samples were summed in.

    Which sign a sum of two NaNs keeps is left to the compiled add loop:
    np.add.at over the 3-D index keeps the second NaN's, while np.bincount,
    like np.add.at over a flat index, keeps the first's. So NaNs are compared
    as NaN; a NaN gradient stops training before any step uses it."""
    rng = np.random.default_rng(7)
    scales = np.array([1.0, 1e16, 1e-16, 1e-300])
    for case in range(100):
        c, h, w = (int(v) for v in rng.integers(1, 5, 3))
        n, size = int(rng.integers(0, 12)), int(rng.integers(1, 5))
        xy = rng.uniform(-1.0, max(h, w) + 1.0, (n, 2))
        rois = np.hstack([xy, xy + rng.uniform(0.0, 4.0, (n, 2))])
        feats = rng.normal(size=(c, h, w))
        g_shape = (n, c, size, size)
        g = _special_input(rng, g_shape) * rng.choice(scales, size=g_shape)
        results = []
        for op in (ad.roi_pool, add_at_roi_pool):
            f = Tensor(feats.copy(), requires_grad=True)
            out = op(f, rois, size)
            with np.errstate(invalid="ignore"):     # inf + -inf in one cell
                out._backward(g)
            results.append((out.data, np.where(np.isnan(f.grad), np.nan, f.grad)))
        for a, b in zip(*results):
            assert _same_bytes(a, b)


def test_maxpool_signed_zero_tie_outputs_first_cells_zero():
    for cells in itertools.product([-0.0, 0.0], repeat=4):
        x = Tensor(np.array(cells).reshape(1, 2, 2))
        assert np.signbit(ad.max_pool2(x).data[0, 0, 0]) == np.signbit(cells[0])


def test_maxpool_nan_window_outputs_nan_and_stops_training():
    """A window holding NaN outputs NaN, as argmax does, but its gradient goes
    to the last cell (argmax sends it to the first NaN). The two never reach
    different parameters: the loss through the window is NaN, and the
    trainer stops on a non-finite loss before any gradient is used."""
    data = np.array([[[np.nan, 1.0], [2.0, 3.0]]])
    g = np.array([[[1.0]]])
    out, grad = _forward_backward(ad.max_pool2, data, g)
    ref_out, ref_grad = _forward_backward(argmax_max_pool2, data, g)
    assert np.isnan(out).all() and np.isnan(ref_out).all()
    assert grad.reshape(-1).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert ref_grad.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]

    p = Tensor(data, requires_grad=True)

    def image_loss(idx, rng):
        loss = ad.tsum(ad.max_pool2(p))
        return loss, LossBreakdown(loss.item(), 0.0, 0.0, 0.0, 0.0, loss.item())

    with pytest.raises(TrainingError, match="non-finite loss nan at epoch 0"):
        _fit(image_loss, 1, BaseTrainConfig(epochs=1, batch_size=1),
             [SGDMomentum({"p": p})], lambda epoch: 0.1)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_equals_np_pad_oracle_bytes(k):
    """The one-node conv2d with bias is byte-equal to np.pad conv2d followed by a
    broadcast bias add: forward and all three gradients, with -0.0 (and exact
    zeros) in the input and in the bias. The last case is a one-channel,
    one-column map, whose window axes merge into an overlapping view."""
    rng = np.random.default_rng(k)
    for fixed in [None] * 30 + [(1, 2, 4, 1)]:
        cin, cout, h, w = fixed or (int(v) for v in rng.integers(1, 9, 4))
        data = rng.normal(size=(cin, h, w))
        data[rng.random(data.shape) < 0.3] = -0.0
        data[rng.random(data.shape) < 0.1] = 0.0
        kern = rng.normal(size=(cout, cin, k, k))
        bias = rng.normal(size=(cout, 1, 1))
        bias[rng.random(bias.shape) < 0.3] = -0.0
        g = rng.normal(size=(cout, h, w))
        results = []
        for op in (ad.conv2d, lambda x, wt, b: np_pad_conv2d(x, wt) + b):
            x = Tensor(data.copy(), requires_grad=True)
            wt = Tensor(kern.copy(), requires_grad=True)
            b = Tensor(bias.copy(), requires_grad=True)
            out = op(x, wt, b)
            ad.tsum(ad.multiply(out, Tensor(g))).backward()
            results.append((out.data, x.grad, wt.grad, b.grad))
        for a, b in zip(*results):
            assert _same_bytes(a, b)


def test_smooth_l1_values_and_slope():
    x = Tensor([0.5, 5.0, -2.0])
    out = ad.smooth_l1(x)
    assert np.allclose(out.data, [0.125, 4.5, 1.5])
    err = ad.grad_check(lambda t: ad.tsum(ad.smooth_l1(t)), [np.array([5.0])])
    assert err < 1e-6  # analytic slope 1 on the linear branch


def test_smooth_l1_is_linear_just_past_its_kink():
    """At |x| = 1.0005 smooth_l1 is on its linear branch: value |x| - 0.5 and
    slope sign(x), not the quadratic branch's 0.500500125 and x."""
    x = Tensor([1.0005, -1.0005], requires_grad=True)
    out = ad.smooth_l1(x)
    assert out.data.tolist() == [1.0005 - 0.5, 1.0005 - 0.5]
    ad.tsum(out).backward()
    assert x.grad.tolist() == [1.0, -1.0]


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


def test_grad_check_rejects_nonfinite_analytic_gradient():
    def f(t):
        return ad.tsum(ad.relu(ad.multiply(t, Tensor([-np.inf]))))

    # the value stays finite (relu(-inf) = 0) while backward gives 0 * inf = nan
    with np.errstate(invalid="ignore"), pytest.raises(GradCheckError) as exc:
        ad.grad_check(f, [np.array([1.0])])
    assert "analytic gradient at input 0, coordinate 0" in str(exc.value)


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


PRIMITIVE_CASES = [
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
    ("conv2d", lambda rng: (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b))),
                            [rng.normal(size=(2, 6, 6)), rng.normal(size=(3, 2, 3, 3)),
                             rng.normal(size=(3, 1, 1))])),
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
]


@pytest.mark.parametrize("kind,builder", PRIMITIVE_CASES)
def test_primitive_gradients_ten_instances(kind, builder):
    """Every primitive matches central finite differences on 10 random draws."""
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([17, i, sum(ord(c) for c in kind)])
        f, points = builder(rng)
        worst = max(worst, ad.grad_check(f, points))
    assert worst < 1e-4, f"{kind}: max relative error {worst}"


@pytest.mark.parametrize("kind,builder", PRIMITIVE_CASES)
def test_grad_check_probes_equal_full_evaluations_bytes(kind, builder):
    """Probes that reuse the base point's op outputs give every value, and the
    error, of full evaluations, byte for byte."""
    for i in range(2):
        f, points = builder(np.random.default_rng([17, i, sum(ord(c) for c in kind)]))
        assert_probes_exact(f, points)


def test_grad_check_calls_f_for_the_analytic_pass_and_the_guard_only():
    """`f` runs for the analytic pass and the two evaluations of each input's
    first probe, and nothing else. A non-finite probe value or analytic
    gradient, a broken contract, and `f` raising in any of its evaluations
    all reach the caller."""
    seen = []

    def f(t):
        seen.append(t.requires_grad)
        return ad.tsum(t * t * t)

    ad.grad_check(f, [np.array([2.0, -1.0])])
    assert seen == [True, False, False]
    with np.errstate(divide="ignore"), pytest.raises(GradCheckError, match="non-finite value"):
        ad.grad_check(lambda t: ad.tsum(ad.divide(Tensor([1.0]), t)), [np.array([ad.FD_STEP])])
    with np.errstate(invalid="ignore"), pytest.raises(GradCheckError, match="analytic"):
        ad.grad_check(lambda t: ad.tsum(ad.relu(ad.multiply(t, Tensor([-np.inf])))),
                      [np.array([1.0])])
    with pytest.raises(GradCheckError, match="^input 0: "):
        ad.grad_check(lambda t: ad.tsum(Tensor(t.data) * t), [np.array([1.0])])
    for failing_call in (1, 2, 3):         # the analytic pass, then the guard's two
        calls = []

        def fails(t):
            calls.append(t)
            if len(calls) == failing_call:
                raise ShapeError("raised by f")
            return ad.tsum(t * t)

        with pytest.raises(ShapeError, match="raised by f"):
            ad.grad_check(fails, [np.array([1.0])])
        assert len(calls) == failing_call


def test_grad_check_probes_replay_the_analytic_graph_without_calling_f():
    """Probes read the analytic pass's op outputs, which are read-only after
    it, while its leaves stay writable; a guard's evaluation, and a call
    after grad_check, compute fresh, writable outputs."""
    const = np.array([1.5, -0.5])
    outs = []

    def f(t):
        leaf = Tensor(const, requires_grad=True)
        plain = ad.square(Tensor(const))
        tracked = ad.square(leaf)
        outs.append((t, leaf, plain, tracked))
        return ad.tsum(t * plain) + ad.tsum(tracked)

    ad.grad_check(f, [np.array([0.3, 0.7])])
    assert len(outs) == 3
    t, leaf, plain, tracked = outs[0]
    assert t.data.flags.writeable and leaf.data.flags.writeable
    assert not plain.data.flags.writeable and not tracked.data.flags.writeable
    assert all(out.data.flags.writeable for guard in outs[1:] for out in guard)
    assert all(tracked.requires_grad and tracked.parents for *_, tracked in outs)
    after = ad.square(Tensor(const))
    assert after.data.flags.writeable and np.array_equal(after.data, plain.data)


def test_nested_grad_check_probes_exactly():
    """A grad_check inside `f` leaves the outer one's probes and error those
    of full evaluations."""
    def outer(t):
        assert ad.grad_check(lambda u: ad.tsum(u * u), [np.array([1.0, 2.0])]) < 1e-6
        return ad.tsum(t * ad.square(Tensor([2.0])))

    assert_probes_exact(outer, [np.array([0.5, -1.5])])


def test_grad_check_replays_list_and_keyword_arguments():
    """A list `shape` is an argument like any other, and a Tensor passed by
    keyword is replayed like a positional one: both probe exactly."""
    assert_probes_exact(lambda t: ad.tsum(ad.square(ad.reshape(t, [4]))),
                        [np.arange(4.0).reshape(2, 2)])
    assert_probes_exact(lambda a, b: ad.tsum(ad.multiply(a, b=ad.square(b))),
                        [np.array([0.3, -1.1]), np.array([2.0, 0.5])])


def test_grad_check_replays_nothing_for_an_input_f_never_reads():
    """A probe of an input no op of the graph reads re-runs no kernel and reads the
    base value, as a full evaluation would compute it."""
    calls = []

    def counted_kernel(x):
        calls.append(x)
        return np.square(x)

    def counted_square(x):
        return ad._make(counted_kernel(x.data), "square", (x,),
                        lambda g: ad._accum(x, 2.0 * g * x.data), counted_kernel, (x,))

    const = Tensor([1.5, -0.5])

    def reads_nothing(t):
        return ad.tsum(counted_square(const))

    assert full_evaluation_grad_check(reads_nothing, [np.zeros(3)]) == 0.0
    calls.clear()
    assert ad.grad_check(reads_nothing, [np.zeros(3)]) == 0.0
    # the analytic pass and the guard's two evaluations
    assert len(calls) == 3

    def reads_a(a, b):
        return ad.tsum(counted_square(a))

    points = [np.array([0.3, -0.8]), np.array([1.0, 2.0, 3.0])]
    calls.clear()
    ad.grad_check(reads_a, points)
    # as above with b's two guard evaluations too, plus a's four kernel replays
    assert len(calls) == 9
    assert_probes_exact(reads_a, points)


def test_grad_check_of_f_whose_root_is_an_input():
    assert_probes_exact(lambda t: t, [np.array([0.7])])
    assert_probes_exact(lambda a, b: b, [np.array([0.3, -0.4]), np.array(0.7)])


def _branches_on_b(a, b):
    # b's first probe down crosses 1.0, where the op sequence changes
    return ad.tsum(a * b) if b.data[0] >= 1.0 else ad.tsum(a + b)


def _leaf_from_b_data(a, b):
    return ad.tsum(a * b) + ad.tsum(Tensor(b.data) * b)


def _rois_from_b_data(a, b):
    # RoI (0, 0, 4, 4) samples columns 1 and 3; b's first probe down moves
    # x1 below 0, which moves the first sample to column 0
    return ad.tsum(ad.square(ad.roi_pool(a, b.data, 2))) + ad.tsum(ad.square(b))


@pytest.mark.parametrize("f,points", [
    (_branches_on_b, [np.array([0.4, -1.2]), np.array([1.0, 2.0])]),
    (_leaf_from_b_data, [np.array([0.4, -1.2]), np.array([0.5, 2.0])]),
    (_rois_from_b_data, [np.random.default_rng(3).normal(size=(2, 4, 4)),
                         np.array([[0.0, 0.0, 4.0, 4.0]])]),
])
def test_grad_check_guard_names_the_input_f_breaks_the_contract_on(f, points):
    """An `f` whose ops or non-Tensor arguments depend on an input's values
    cannot be replayed; the guard's full evaluation of the first probe
    finds it and names the input."""
    with pytest.raises(GradCheckError, match="^input 1: f evaluated in full gives"):
        ad.grad_check(f, points)


def test_grad_check_moves_every_coordinate_of_a_fortran_ordered_point():
    point = np.asfortranarray(np.random.default_rng(4).normal(size=(3, 2)))
    f = lambda t: ad.tsum(ad.square(ad.square(t)))
    assert ad.grad_check(f, [point]) == ad.grad_check(f, [np.ascontiguousarray(point)]) < 1e-6


def test_topo_visits_each_node_once():
    x = Tensor([1.0], requires_grad=True)
    y = x + x
    z = y + y
    order = ad.topo_order(z)
    assert len(order) == len({id(n) for n in order}) == 3
