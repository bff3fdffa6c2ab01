"""Reverse-mode differentiable tensors over float64 numpy arrays.

Every operation builds an implicit value graph: a non-leaf Tensor records its
op kind and parent tensors together with a closure that pushes gradients to
the parents. ``Tensor.backward()`` topologically orders the reachable graph
and runs the closures once each, so calling it twice on the same graph yields
identical gradients.

Numerical conventions used throughout:
  * all data is float64,
  * relu subgradient at 0 is 0; max-pool ties resolve to the first cell in
    row-major window order; smooth-L1 is C1 so the kink needs no convention,
  * square roots and denominators that could hit zero carry epsilon 1e-12.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

EPS = 1e-12
FD_STEP = 1e-5          # central-difference step of grad_check


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an op."""


class GradCheckError(RuntimeError):
    """Raised when a finite-difference probe produces a non-finite value."""


class Tensor:
    """A float64 array plus an optional gradient and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op: str = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A graph-free view of the same values (stops gradient flow)."""
        return Tensor(self.data)

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from self.

        Gradients are recomputed from scratch on each call; no state carries
        over between calls.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        order = topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # keep gradients on leaves only; interior grads are scratch space
        for node in order:
            if node._backward is not None and node is not self:
                node.grad = None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return subtract(self, _as_tensor(other))

    def __mul__(self, other):
        return multiply(self, _as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out.op = op
    if out.requires_grad:
        out.parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, kind: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), bw)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "subtract")

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, "subtract", (a, b), bw)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "multiply")

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, "multiply", (a, b), bw)


def divide(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a/b; callers keep |b| bounded away from zero."""
    _check_broadcast(a, b, "divide")

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, "divide", (a, b), bw)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, "matmul", (a, b), bw)


def gram(m: Tensor) -> Tensor:
    """M @ M.T for a 2-D tensor."""
    if m.data.ndim != 2:
        raise ShapeError(f"gram: need a matrix, got shape {m.shape}")

    def bw(g):
        _accum(m, (g + g.T) @ m.data)

    return _make(m.data @ m.data.T, "gram", (m,), bw)


# -- reductions ------------------------------------------------------------

def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _make(x.data.sum(axis=axis), "sum", (x,), bw)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g / n, x.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy())

    return _make(x.data.mean(axis=axis), "mean", (x,), bw)


def frobenius_norm(x: Tensor) -> Tensor:
    """sqrt(sum(x^2) + 1e-12); the epsilon keeps the all-zeros gradient finite."""
    val = np.sqrt((x.data * x.data).sum() + EPS)

    def bw(g):
        _accum(x, g * x.data / val)

    return _make(np.asarray(val), "frobenius_norm", (x,), bw)


# -- elementwise nonlinearities ---------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g):
        _accum(x, g * mask)

    return _make(np.where(mask, x.data, 0.0), "relu", (x,), bw)


def tabs(x: Tensor) -> Tensor:
    sign = np.sign(x.data)

    def bw(g):
        _accum(x, g * sign)

    return _make(np.abs(x.data), "abs", (x,), bw)


def square(x: Tensor) -> Tensor:
    def bw(g):
        _accum(x, 2.0 * g * x.data)

    return _make(x.data * x.data, "square", (x,), bw)


def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5 x^2 for |x|<1, |x|-0.5 otherwise."""
    inner = np.abs(x.data) < 1.0

    def bw(g):
        _accum(x, g * np.where(inner, x.data, np.sign(x.data)))

    val = np.where(inner, 0.5 * x.data * x.data, np.abs(x.data) - 0.5)
    return _make(val, "smooth_l1", (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), evaluated stably; derivative is sigmoid(x)."""
    val = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def bw(g):
        pos = x.data >= 0
        sig = np.empty_like(x.data)
        sig[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
        expv = np.exp(x.data[~pos])
        sig[~pos] = expv / (1.0 + expv)
        _accum(x, g * sig)

    return _make(val, "softplus", (x,), bw)


# -- softmax family ----------------------------------------------------------

def softmax(x: Tensor, index_range: tuple[int, int] | None = None) -> Tensor:
    """Softmax of each row of (n, C) logits, optionally over columns [lo, hi) only.

    With a restriction the output keeps only the hi-lo restricted columns;
    logits outside the range receive zero gradient. The usual max subtraction
    is applied before exponentiation.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"softmax: need (n, C) logits, got shape {x.shape}")
    lo, hi = (0, x.shape[1]) if index_range is None else index_range
    if not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"softmax: index_range {index_range} invalid for {x.shape[1]} columns")
    sub = x.data[:, lo:hi]
    shifted = sub - sub.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = (g - (g * val).sum(axis=1, keepdims=True)) * val
        _accum(x, full)

    return _make(val, "softmax", (x,), bw)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax of each row of (n, C) logits."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax: need (n, C) logits, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    val = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bw(g):
        _accum(x, g - np.exp(val) * g.sum(axis=1, keepdims=True))

    return _make(val, "log_softmax", (x,), bw)


# -- shape ops ----------------------------------------------------------------

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bw(g):
        _accum(x, g.reshape(x.shape))

    return _make(x.data.reshape(shape), "reshape", (x,), bw)


# -- convolution / pooling -----------------------------------------------------

def _im2col(xp: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    cin = xp.shape[0]
    cols = np.empty((cin, k, k, h, w), dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xp[:, ki:ki + h, kj:kj + w]
    return cols.reshape(cin * k * k, h * w)


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-1 "same" convolution of a (cin,h,w) map with (cout,cin,k,k)
    kernels, k odd, zero-padded by k//2 so the output keeps the input's size.
    No bias (add one separately).
    """
    if x.data.ndim != 3 or w.data.ndim != 4 or x.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d: incompatible shapes {x.shape} and {w.shape}")
    cin, h, wd = x.shape
    cout, _, k, kw = w.shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d: need an odd square kernel, got {w.shape}")
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    cols = _im2col(xp, k, h, wd)
    wm = w.data.reshape(cout, cin * k * k)
    out = (wm @ cols).reshape(cout, h, wd)

    def bw(g):
        gm = g.reshape(cout, h * wd)
        if w.requires_grad:
            _accum(w, (gm @ cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = (wm.T @ gm).reshape(cin, k, k, h, wd)
            gxp = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gxp[:, ki:ki + h, kj:kj + wd] += gcols[:, ki, kj]
            _accum(x, gxp[:, pad:pad + h, pad:pad + wd] if pad else gxp)

    return _make(out, "conv2d", (x, w), bw)


def pool_windows(x: np.ndarray) -> np.ndarray:
    """The 2x2 stride-2 windows of a (c, h, w) array as (c, h/2, w/2, 4),
    cells in row-major order; `max_pool2` breaks ties toward the first."""
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties go to the first window cell."""
    if x.data.ndim != 3 or x.shape[1] % 2 or x.shape[2] % 2:
        raise ShapeError(f"max_pool2: need (c, even, even), got {x.shape}")
    c, h, w = x.shape
    win = pool_windows(x.data)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]

    def bw(g):
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=3)
        gx = gwin.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
        _accum(x, gx)

    return _make(out, "max_pool2", (x,), bw)


def roi_pool(features: Tensor, rois: np.ndarray, size: int) -> Tensor:
    """Nearest-neighbor grid pooling of (c,h,w) features into (n,c,P,P).

    `rois` is an (n,4) float array of (x1,y1,x2,y2) boxes in feature-cell
    coordinates. Output cell (i,j) samples the feature cell nearest to the
    center of the (i,j)-th bin of a PxP grid over the box. Gradients
    scatter-add back to the sampled cells; box coordinates are data, not
    differentiable inputs.
    """
    rois = np.asarray(rois, dtype=np.float64)
    if features.data.ndim != 3 or rois.ndim != 2 or rois.shape[1] != 4:
        raise ShapeError(f"roi_pool: bad shapes features={features.shape}, rois={rois.shape}")
    c, h, w = features.shape
    n = rois.shape[0]
    frac = (np.arange(size) + 0.5) / size
    xs = rois[:, 0:1] + frac[None, :] * (rois[:, 2:3] - rois[:, 0:1])  # (n,P)
    ys = rois[:, 1:2] + frac[None, :] * (rois[:, 3:4] - rois[:, 1:2])
    xi = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    yi = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    yy = yi[:, :, None]                     # (n,P,1) row index per output row
    xx = xi[:, None, :]                     # (n,1,P) col index per output col
    out = features.data[:, yy, xx].transpose(1, 0, 2, 3)  # (n,c,P,P)

    def bw(g):
        gf = np.zeros_like(features.data)
        yy_b = np.broadcast_to(yy, (n, size, size)).reshape(-1)
        xx_b = np.broadcast_to(xx, (n, size, size)).reshape(-1)
        gt = g.transpose(1, 0, 2, 3).reshape(c, -1)
        np.add.at(gf, (slice(None), yy_b, xx_b), gt)
        _accum(features, gf)

    return _make(out, "roi_pool", (features,), bw)


# -- gradient checking --------------------------------------------------------

def grad_check(f: Callable[..., Tensor], points: Sequence[np.ndarray]) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps one Tensor per entry of `points` to a scalar Tensor and must be
    deterministic (re-seed any internal sampling per call). The error at each
    coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    arrays = [np.array(p, dtype=np.float64) for p in points]

    def evaluate(arrs) -> tuple[float, list[np.ndarray]]:
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrs]
        out = f(*tensors)
        out.backward()
        grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
        return out.item(), grads

    _, analytic = evaluate(arrays)
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
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError(
                    f"non-finite value at input {ti}, coordinate {ci}")
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            analytic_c = analytic[ti].reshape(-1)[ci]
            err = abs(analytic_c - numeric) / max(1.0, abs(analytic_c), abs(numeric))
            worst = max(worst, err)
    return worst
