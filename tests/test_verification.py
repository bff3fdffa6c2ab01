"""The gradient suite's network instances: what a built loss function does."""

import numpy as np
import pytest

import tripledet.autodiff as ad
import tripledet.detector as det
from _oracles import assert_probes_exact
from tripledet.autodiff import Tensor
from tripledet.verification import (GRAD_TOL, NETWORK_MARGIN, SUITE, SUITE_SEED,
                                    _build_total_loss, _draw_safe_instance, run_gradient_suite)


@pytest.mark.parametrize("name", ["frcnn_loss", "total_loss"])
def test_built_instances_draw_nothing(name, monkeypatch):
    """A built `f` is a pure function of its parameters: it samples no RoIs,
    proposes no candidates and makes no generator, so every finite-difference
    evaluation sees the base point's RoIs."""
    build, _ = SUITE[name]
    f, points = build(np.random.default_rng(5))
    calls = []
    for fn in ("sample_rois", "roi_candidates"):
        real = getattr(det, fn)
        monkeypatch.setattr(det, fn, lambda *a, _fn=fn, _real=real, **kw:
                            calls.append(_fn) or _real(*a, **kw))
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **kw:
                        calls.append("default_rng") or real_rng(*a, **kw))

    def evaluate():
        tensors = [Tensor(p.copy(), requires_grad=True) for p in points]
        loss = f(*tensors)
        loss.backward()
        return [loss.data.tobytes(), *(t.grad.tobytes() for t in tensors if t.grad is not None)]

    first, second = evaluate(), evaluate()
    assert calls == []
    assert first == second


@pytest.mark.parametrize("name", SUITE)
def test_built_instance_probes_equal_full_evaluations_bytes(name):
    """On every suite instance, where a probe replays only the ops
    downstream of the moved input, every probe value and the error are those
    of full evaluations, byte for byte."""
    build, _ = SUITE[name]
    assert_probes_exact(*build(np.random.default_rng(6)))


def test_every_op_on_the_total_loss_tape_reaches_the_loss():
    """The triple-network loss computes nothing it does not use: walked back
    from the root, the grad_check tape of a `total_loss` instance reaches
    every op it recorded."""
    build, _ = SUITE["total_loss"]
    f, points = build(np.random.default_rng(6))
    base = [Tensor(np.array(p, dtype=np.float64)) for p in points]
    tape = ad._Tape(base)
    token = ad._TAPE.set(tape)
    try:
        out = f(*base)
    finally:
        ad._TAPE.reset(token)
    n = len(base)
    live = {tape.slots[id(out)]}
    for k in reversed(range(len(tape.entries))):
        _, _, refs = tape.entries[k]
        if n + k in live:
            live.update(slot for _, slot in refs)
    dead = [(k, entry[0].__name__) for k, entry in enumerate(tape.entries) if n + k not in live]
    assert len(tape.entries) > 100 and dead == []


def test_one_instance_of_every_suite_loss_passes():
    """The quick suite's check of every loss's gradient: one instance each,
    under the acceptance tolerance."""
    errors = run_gradient_suite(1, seed=SUITE_SEED)
    assert list(errors) == list(SUITE)
    assert all(err < GRAD_TOL for err in errors.values()), errors


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_total_loss_gradient_with_two_old_and_two_new_classes(seed):
    """The triple loss over 2 old + 2 new classes with two new-class boxes:
    d_cls's new-class half is live here, over `init_incremental`'s widened
    columns, the (n, C, 4) delta reshape and real `index_range` slices. The
    suite's `total_loss` instance is 1 + 1, where that half is exactly zero.
    Not a `SUITE` entry: one `gradcheck` benchmark operation is one `SUITE`
    instance, about 70 ms on average, so a 0.4 s instance would cut that
    benchmark's rate by about 40%."""
    rng = np.random.default_rng([seed, 99])
    f, points = _draw_safe_instance(rng, lambda r: _build_total_loss(r, 2, 2), NETWORK_MARGIN)
    assert sum(p.size for p in points) == 672
    assert ad.grad_check(f, points) < GRAD_TOL
