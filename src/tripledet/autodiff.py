"""Reverse-mode differentiable tensors over float64 numpy arrays.

Every operation builds an implicit value graph: a non-leaf Tensor records its
op kind and parent tensors together with a closure that pushes gradients to
the parents. ``Tensor.backward()`` topologically orders the reachable graph
and runs the closures once each, so calling it twice on the same graph yields
identical gradients. An interior node's gradient lives from its first
contribution until its own closure has run; only leaf and root gradients
survive the pass.

Numerical conventions used throughout:
  * all data is float64,
  * relu subgradient at 0 is 0; max-pool ties resolve to the first cell in
    row-major window order, which gives both the output's value (so a
    -0.0/+0.0 tie outputs the first cell's zero) and the gradient;
    smooth-L1 is C1 so the kink needs no convention,
  * square roots and denominators that could hit zero carry epsilon 1e-12.
"""

from __future__ import annotations

import functools
import inspect
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np

EPS = 1e-12
FD_STEP = 1e-5          # central-difference step of grad_check


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an op."""


class GradCheckError(RuntimeError):
    """Raised when a finite-difference probe produces a non-finite value, or
    when `f` breaks `grad_check`'s contract."""


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
        over between calls. A node's closure runs after all of its consumers,
        so its gradient is complete then. An interior node hands its gradient
        to its closure and drops it, so the array is freed once the closure
        returns; after the pass only the leaves and the root hold ``grad``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        order = topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            g = node.grad
            if node is not self:
                node.grad = None
            if g is not None:
                node._backward(g)

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


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.op = op
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out.parents = parents
            out._backward = backward
            return out
    out.requires_grad = False
    out.parents = ()
    out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # the first contribution lands as 0.0 + g, in a buffer t owns, so a
        # -0.0 becomes +0.0 exactly as adding into a zero-filled buffer did
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
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


def _broadcast_error(kind: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast")


# -- grad_check's base-point tape ----------------------------------------------

class _Tape:
    """The op calls of one `grad_check` base-point evaluation, in call order.

    Slot `i` names input `i` of `f`, and slot `len(inputs) + k` the output of
    entry `k`. An entry holds the op's kernel, the op's arguments by position
    with every Tensor replaced by its array, and the (position, slot) of each
    Tensor argument that has a slot; any other Tensor's array is a constant
    of `f`.
    """

    __slots__ = ("slots", "inputs", "outputs", "entries")

    def __init__(self, inputs: list[Tensor]):
        self.slots = {id(t): i for i, t in enumerate(inputs)}
        # both lists keep every slotted Tensor, and so its id, alive
        self.inputs = inputs
        self.outputs: list[Tensor] = []
        self.entries: list[tuple] = []

    def call(self, op: Callable, kernel: Callable, params: tuple[inspect.Parameter, ...],
             args: tuple, kwargs: dict) -> Tensor:
        out = op(*args, **kwargs)
        args += tuple(kwargs.get(p.name, p.default) for p in params[len(args):])
        slots = self.slots
        refs = tuple((j, slots[id(a)]) for j, a in enumerate(args)
                     if isinstance(a, Tensor) and id(a) in slots)
        # every probe that does not move this output's inputs reads it
        out.data.flags.writeable = False
        self.entries.append(
            (kernel, tuple(a.data if isinstance(a, Tensor) else a for a in args), refs))
        slots[id(out)] = len(self.inputs) + len(self.outputs)
        self.outputs.append(out)
        return out

    def downstream(self, source: int) -> list[tuple]:
        """The entries that read slot `source`, directly or through another
        such entry, in tape order, each with the arguments a replay
        substitutes."""
        n = len(self.inputs)
        moved = {source}
        steps = []
        for k, (kernel, args, refs) in enumerate(self.entries):
            sub = tuple(r for r in refs if r[1] in moved)
            if sub:
                moved.add(n + k)
                steps.append((n + k, kernel, list(args), sub))
        return steps


def _replay(steps: list[tuple], source: int, moved: np.ndarray) -> dict[int, np.ndarray]:
    """Slot `source` holding the array `moved`, and the values of `steps`'
    kernels re-run on it and on the tape's other arrays, by slot."""
    vals = {source: moved}
    for slot, kernel, args, sub in steps:
        for j, s in sub:
            args[j] = vals[s]
        vals[slot] = kernel(*args)
    return vals


_TAPE: ContextVar[_Tape | None] = ContextVar("grad_check_tape", default=None)


def _reusable(kernel: Callable[..., np.ndarray]
              ) -> Callable[[Callable[..., Tensor]], Callable[..., Tensor]]:
    """Decorate an op whose value is `kernel` applied to the op's arguments,
    each Tensor replaced by its array and every parameter passed by
    position. A call records the op's kernel and arrays on the tape of the
    `grad_check` base-point evaluation running in this context, if any."""
    def wrap(op: Callable[..., Tensor]) -> Callable[..., Tensor]:
        params = tuple(inspect.signature(op).parameters.values())

        @functools.wraps(op)
        def call(*args, **kwargs):
            tape = _TAPE.get()
            if tape is None:
                return op(*args, **kwargs)
            return tape.call(op, kernel, params, args, kwargs)

        return call

    return wrap


# -- elementwise arithmetic ------------------------------------------------

@_reusable(np.add)
def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        val = np.add(a.data, b.data)
    except ValueError:
        raise _broadcast_error("add", a, b) from None

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(val, "add", (a, b), bw)


@_reusable(np.subtract)
def subtract(a: Tensor, b: Tensor) -> Tensor:
    try:
        val = np.subtract(a.data, b.data)
    except ValueError:
        raise _broadcast_error("subtract", a, b) from None

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(val, "subtract", (a, b), bw)


@_reusable(np.multiply)
def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        val = np.multiply(a.data, b.data)
    except ValueError:
        raise _broadcast_error("multiply", a, b) from None

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(val, "multiply", (a, b), bw)


@_reusable(np.true_divide)
def divide(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a/b; callers keep |b| bounded away from zero."""
    try:
        val = np.true_divide(a.data, b.data)
    except ValueError:
        raise _broadcast_error("divide", a, b) from None

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(val, "divide", (a, b), bw)


# -- linear algebra --------------------------------------------------------

@_reusable(np.matmul)
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(np.matmul(a.data, b.data), "matmul", (a, b), bw)


def _gram(m: np.ndarray) -> np.ndarray:
    return m @ m.T


@_reusable(_gram)
def gram(m: Tensor) -> Tensor:
    """M @ M.T for a 2-D tensor."""
    if m.data.ndim != 2:
        raise ShapeError(f"gram: need a matrix, got shape {m.shape}")

    def bw(g):
        _accum(m, (g + g.T) @ m.data)

    return _make(_gram(m.data), "gram", (m,), bw)


# -- reductions ------------------------------------------------------------

@_reusable(np.add.reduce)
def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _make(np.add.reduce(x.data, axis), "sum", (x,), bw)


def _mean(x: np.ndarray, axis: int | None) -> np.ndarray:
    """`np.mean`'s bytes: the sum over `axis` divided by its term count, as
    `np.mean` computes it, without its dispatch."""
    return np.add.reduce(x, axis) / (x.size if axis is None else x.shape[axis])


@_reusable(_mean)
def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.shape[axis]

    def bw(g):
        if axis is None:
            _accum(x, np.broadcast_to(g / n, x.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis) / n, x.shape))

    return _make(_mean(x.data, axis), "mean", (x,), bw)


def _frobenius_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum() + EPS)


@_reusable(_frobenius_norm)
def frobenius_norm(x: Tensor) -> Tensor:
    """sqrt(sum(x^2) + 1e-12); the epsilon keeps the all-zeros gradient finite."""
    val = _frobenius_norm(x.data)

    def bw(g):
        _accum(x, g * x.data / val)

    return _make(val, "frobenius_norm", (x,), bw)


# -- elementwise nonlinearities ---------------------------------------------

def _relu(x: np.ndarray) -> np.ndarray:
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


@_reusable(_relu)
def relu(x: Tensor) -> Tensor:
    """max(x, 0) with NaN, -inf and -0.0 all mapped to +0.0: `fmax` returns
    the 0.0 for a NaN, and adding +0.0 turns a -0.0 into +0.0 and leaves
    every other value's bytes as they are."""
    def bw(g):
        _accum(x, g * (x.data > 0))

    return _make(_relu(x.data), "relu", (x,), bw)


@_reusable(np.abs)
def tabs(x: Tensor) -> Tensor:
    sign = np.sign(x.data)

    def bw(g):
        _accum(x, g * sign)

    return _make(np.abs(x.data), "abs", (x,), bw)


@_reusable(np.square)
def square(x: Tensor) -> Tensor:
    def bw(g):
        _accum(x, 2.0 * g * x.data)

    return _make(np.square(x.data), "square", (x,), bw)


def _smooth_l1_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """smooth_l1's value and the mask of its quadratic branch."""
    inner = np.abs(x) < 1.0
    return np.where(inner, 0.5 * x * x, np.abs(x) - 0.5), inner


def _smooth_l1(x: np.ndarray) -> np.ndarray:
    return _smooth_l1_parts(x)[0]


@_reusable(_smooth_l1)
def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5 x^2 for |x|<1, |x|-0.5 otherwise."""
    val, inner = _smooth_l1_parts(x.data)

    def bw(g):
        _accum(x, g * np.where(inner, x.data, np.sign(x.data)))

    return _make(val, "smooth_l1", (x,), bw)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@_reusable(_softplus)
def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), evaluated stably; derivative is sigmoid(x)."""
    def bw(g):
        pos = x.data >= 0
        sig = np.empty_like(x.data)
        sig[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
        expv = np.exp(x.data[~pos])
        sig[~pos] = expv / (1.0 + expv)
        _accum(x, g * sig)

    return _make(_softplus(x.data), "softplus", (x,), bw)


# -- softmax family ----------------------------------------------------------

def _softmax(x: np.ndarray, index_range: tuple[int, int] | None) -> np.ndarray:
    sub = x if index_range is None else x[:, index_range[0]:index_range[1]]
    shifted = sub - sub.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@_reusable(_softmax)
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
    val = _softmax(x.data, index_range)

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = (g - (g * val).sum(axis=1, keepdims=True)) * val
        _accum(x, full)

    return _make(val, "softmax", (x,), bw)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@_reusable(_log_softmax)
def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax of each row of (n, C) logits."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax: need (n, C) logits, got shape {x.shape}")
    val = _log_softmax(x.data)

    def bw(g):
        _accum(x, g - np.exp(val) * g.sum(axis=1, keepdims=True))

    return _make(val, "log_softmax", (x,), bw)


# -- shape ops ----------------------------------------------------------------

@_reusable(np.reshape)
def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bw(g):
        _accum(x, g.reshape(x.shape))

    return _make(np.reshape(x.data, shape), "reshape", (x,), bw)


# -- convolution / pooling -----------------------------------------------------

def _im2col(xp: np.ndarray, k: int, h: int, w: int) -> np.ndarray:
    """(cin*k*k, h*w) columns of a C-contiguous (cin, h+k-1, w+k-1) map: one
    copy of the (cin, k, k, h, w) strided view whose [c, ki, kj] is the window
    xp[c, ki:ki+h, kj:kj+w]. The reshape can merge window axes into an
    overlapping view (a one-column map merges (k, k)); the contiguous copy keeps
    every product on the same BLAS kernel."""
    cin = xp.shape[0]
    sc, sr, se = xp.strides
    win = np.ndarray((cin, k, k, h, w), np.float64, xp, 0, (sc, sr, se, sr, se))
    return np.ascontiguousarray(win.reshape(cin * k * k, h * w))


def _conv2d_parts(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conv2d's value and its (cin*k*k, h*w) im2col columns; a k = 1 conv
    reads its input as its columns, with no pad or copy."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    if k == 1:
        cols = x.reshape(cin, h * wd)
    else:
        xp = np.zeros((cin, h + 2 * pad, wd + 2 * pad))
        xp[:, pad:pad + h, pad:pad + wd] = x
        cols = _im2col(xp, k, h, wd)
    out = (w.reshape(cout, cin * k * k) @ cols).reshape(cout, h, wd)
    out += b
    return out, cols


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _conv2d_parts(x, w, b)[0]


@_reusable(_conv2d)
def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 "same" convolution of a (cin,h,w) map with (cout,cin,k,k)
    kernels, k odd, zero-padded by k//2 so the output keeps the input's size,
    plus a (cout,1,1) per-channel bias.
    """
    if (x.data.ndim != 3 or w.data.ndim != 4 or x.shape[0] != w.shape[1]
            or b.shape != (w.shape[0], 1, 1)):
        raise ShapeError(f"conv2d: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    cin, h, wd = x.shape
    cout, _, k, kw = w.shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d: need an odd square kernel, got {w.shape}")
    pad = k // 2
    out, cols = _conv2d_parts(x.data, w.data, b.data)

    def bw(g):
        _accum(b, g.sum(axis=(1, 2), keepdims=True))
        gm = g.reshape(cout, h * wd)
        if w.requires_grad:
            _accum(w, (gm @ cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = (w.data.reshape(cout, cin * k * k).T @ gm).reshape(cin, k, k, h, wd)
            # col2im: window (ki, kj) adds its output rows r0:r1 and columns
            # c0:c1 that land inside the map, shifted by (ki - pad, kj - pad);
            # its terms that land in the padding are dropped, and each cell
            # sums its terms in (ki, kj) order from +0.0
            gx = np.zeros((cin, h, wd))
            for ki in range(k):
                r0, r1 = max(pad - ki, 0), min(h + pad - ki, h)
                for kj in range(k):
                    c0, c1 = max(pad - kj, 0), min(wd + pad - kj, wd)
                    if r0 < r1 and c0 < c1:
                        gx[:, r0 + ki - pad:r1 + ki - pad, c0 + kj - pad:c1 + kj - pad] += \
                            gcols[:, ki, kj, r0:r1, c0:c1]
            _accum(x, gx)

    return _make(out, "conv2d", (x, w, b), bw)


def _max_pool2_parts(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """max_pool2's value, the four window cells as strided views of x in
    row-major window order, and their elementwise max."""
    cells = [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    # equal values differ in their bytes only as -0.0 and +0.0, so without a
    # -0.0 in x the first cell equal to the max holds exactly `top`'s bytes,
    # and a NaN window outputs `top`'s NaN either way. The chain below gives
    # the first max cell's bytes for every input, so taking it for any set
    # sign bit (one pass, and never set in a relu output) is as exact
    if np.signbit(x).any():
        # np.maximum may return either zero of a signed-zero tie, so the value
        # comes from the first cell equal to the max; `top` is the last cell's
        # exact value wherever that cell alone is the max, and NaN where the
        # window holds NaN
        out = np.where(cells[0] == top, cells[0], np.where(
            cells[1] == top, cells[1], np.where(cells[2] == top, cells[2], top)))
    else:
        out = top
    return out, cells, top


def _max_pool2(x: np.ndarray) -> np.ndarray:
    return _max_pool2_parts(x)[0]


@_reusable(_max_pool2)
def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties go to the first window cell.

    The four cells of each window are strided views of x, visited in
    row-major window order; each output takes its value (a signed zero
    included) and its gradient from the first cell equal to the window max.
    A window holding NaN outputs NaN and sends its gradient to the last cell.
    """
    if x.data.ndim != 3 or x.shape[1] % 2 or x.shape[2] % 2:
        raise ShapeError(f"max_pool2: need (c, even, even), got {x.shape}")
    out, cells, top = _max_pool2_parts(x.data)

    def bw(g):
        hits = [cell == top for cell in cells[:3]]
        taken = hits[0] | hits[1]
        masks = (hits[0], hits[1] & ~hits[0], hits[2] & ~taken, ~(taken | hits[2]))
        gx = np.empty_like(x.data)
        for (i, j), mask in zip(((0, 0), (0, 1), (1, 0), (1, 1)), masks):
            gx[:, i::2, j::2] = np.where(mask, g, 0.0)
        _accum(x, gx)

    return _make(out, "max_pool2", (x,), bw)


def _roi_pool_parts(features: np.ndarray, rois, size: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """roi_pool's value and the (n,P,1) row and (n,1,P) column indices of
    the feature cells it samples."""
    rois = np.asarray(rois, dtype=np.float64)
    _, h, w = features.shape
    frac = (np.arange(size) + 0.5) / size
    xs = rois[:, 0:1] + frac[None, :] * (rois[:, 2:3] - rois[:, 0:1])  # (n,P)
    ys = rois[:, 1:2] + frac[None, :] * (rois[:, 3:4] - rois[:, 1:2])
    xi = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    yi = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    yy = yi[:, :, None]                     # (n,P,1) row index per output row
    xx = xi[:, None, :]                     # (n,1,P) col index per output col
    return features[:, yy, xx].transpose(1, 0, 2, 3), yy, xx  # (n,c,P,P)


def _roi_pool(features: np.ndarray, rois, size: int) -> np.ndarray:
    return _roi_pool_parts(features, rois, size)[0]


@_reusable(_roi_pool)
def roi_pool(features: Tensor, rois: np.ndarray, size: int) -> Tensor:
    """Nearest-neighbor grid pooling of (c,h,w) features into (n,c,P,P).

    `rois` is an (n,4) float array of (x1,y1,x2,y2) boxes in feature-cell
    coordinates. Output cell (i,j) samples the feature cell nearest to the
    center of the (i,j)-th bin of a PxP grid over the box. Gradients
    scatter-add back to the sampled cells, each cell summing its samples in
    sample order from +0.0; box coordinates are data, not differentiable
    inputs.
    """
    rois = np.asarray(rois, dtype=np.float64)
    if features.data.ndim != 3 or rois.ndim != 2 or rois.shape[1] != 4:
        raise ShapeError(f"roi_pool: bad shapes features={features.shape}, rois={rois.shape}")
    c, h, w = features.shape
    out, yy, xx = _roi_pool_parts(features.data, rois, size)

    def bw(g):
        # flat (channel, cell) index of each (channel, sample) in C order, so
        # every cell sums its samples in sample order from +0.0
        idx = (np.arange(c)[:, None] * (h * w) + (yy * w + xx).reshape(-1)).reshape(-1)
        gt = g.transpose(1, 0, 2, 3).reshape(-1)
        _accum(features, np.bincount(idx, weights=gt, minlength=c * h * w).reshape(c, h, w))

    return _make(out, "roi_pool", (features,), bw)


# -- gradient checking --------------------------------------------------------

def _probes(f: Callable[..., Tensor],
            arrays: list[np.ndarray]) -> Iterator[tuple[int, int, float, float]]:
    """`(input, coordinate, f_plus, f_minus)` of every central-difference
    probe of `f` about the C-contiguous float64 `arrays`, input by input and
    coordinate by coordinate. A probe moves one entry of `arrays` in place
    and restores it before the probe is yielded. See `grad_check`."""
    base = [Tensor(a.copy()) for a in arrays]
    tape = _Tape(base)
    token = _TAPE.set(tape)
    try:
        out = f(*base)
    finally:
        _TAPE.reset(token)
    base_value = out.item()
    root = tape.slots.get(id(out))
    for ti, a in enumerate(arrays):
        steps = tape.downstream(ti)
        flat = a.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            values = []
            try:
                for x in (orig + FD_STEP, orig - FD_STEP):
                    flat[ci] = x
                    vals = _replay(steps, ti, a.copy())
                    value = vals[root].item() if root in vals else base_value
                    if ci == 0:
                        full = f(*[Tensor(b.copy()) for b in arrays]).item()
                        if full.hex() != value.hex():
                            raise GradCheckError(
                                f"input {ti}: f evaluated in full gives {full.hex()} at its "
                                f"first probe, its replayed tape {value.hex()}; f's op "
                                "sequence or a non-Tensor op argument depends on input values")
                    values.append(value)
            finally:
                flat[ci] = orig
            yield ti, ci, values[0], values[1]


def grad_check(f: Callable[..., Tensor], points: Sequence[np.ndarray]) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps one Tensor per entry of `points` to a scalar Tensor. The error
    at each coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).

    Contract: `f` is a deterministic function of its inputs, and its op
    sequence, and every argument other than a Tensor that it passes to an
    op, do not depend on its inputs' values. In particular, `f` builds no
    leaf and no array from an input's `.data`, nor from an op output's.

    After the analytic pass, one more evaluation of `f` without gradients
    records each op call on a tape: the op's kernel, the one array function
    that computes its value, and the arrays of its arguments. A probe moves
    one coordinate of one input and does not call `f`: it re-runs, in tape
    order, only the kernels downstream of that input, on plain arrays, and
    takes every other op's output from the tape. No Tensor or backward
    closure is built. Under the contract every probe value is the one a full
    evaluation of `f` gives, byte for byte. A guard enforces it: the first
    probe of each input also evaluates `f` in full, and a value whose bytes
    differ from the replay's raises GradCheckError naming the input. Taped
    outputs are read-only, since every probe may read them. The tape is
    dropped before grad_check returns or raises, and a grad_check inside `f`
    records nothing on the outer one.
    """
    arrays = [np.array(p, dtype=np.float64, order="C") for p in points]
    outer = _TAPE.set(None)
    try:
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = f(*tensors)
        out.backward()
        analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
        for ti, grad in enumerate(analytic):
            bad = np.flatnonzero(~np.isfinite(grad))
            if bad.size:
                raise GradCheckError(
                    f"non-finite analytic gradient at input {ti}, coordinate {bad[0]}")
        worst = 0.0
        for ti, ci, f_plus, f_minus in _probes(f, arrays):
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError(f"non-finite value at input {ti}, coordinate {ci}")
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            analytic_c = analytic[ti].reshape(-1)[ci]
            err = abs(analytic_c - numeric) / max(1.0, abs(analytic_c), abs(numeric))
            worst = max(worst, err)
    finally:
        _TAPE.reset(outer)
    return worst
