"""Outside-in tracing of tripledet's public functions.

`Tracer.install(targets)` replaces every binding of each target function in
the loaded ``tripledet`` modules -- the defining module, every module that
imported the name, and module-level dicts that hold it -- with a wrapper that
records one span per call: name, start, end, parent span, unit id and scope.
`Tracer.uninstall()` restores every binding. The wrappers only call through,
so a traced run draws the same random numbers and does the same float math
as an untraced one.

Spans stay in memory in flat integer arrays until `write_spans` stores them.
Counts that ratios need (boxes into NMS, positive anchors, pseudo boxes per
threshold split, ...) are taken by per-target hooks at the same boundary and
kept in `Tracer.counters`, keyed by (scope, name).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# "work" is the timed operation; "precompute" is the part of
# train_incremental before its first step; "setup" and "discard" hold spans
# that no per-operation metric reads.
SCOPES = ("work", "precompute", "setup", "discard")


@dataclass(frozen=True)
class Target:
    """One function to trace: `attr` of module `module`, or `Class.method`."""
    module: str
    attr: str
    span: str
    hook: Callable | None = None      # hook(tracer, bound_args, result) after the call
    enter: Callable | None = None     # enter(tracer) before the span opens
    leave: Callable | None = None     # leave(tracer) after the call returns
    wrap_args: Callable | None = None  # wrap_args(tracer, args, kwargs) -> (args, kwargs)


class Tracer:
    """Spans of one traced round. A call of one of `unit_spans` made while
    none of them is open starts a new unit id: the operation (image-step,
    image, suite instance) later spans belong to."""

    def __init__(self, scope: str = "work", unit_spans: tuple[str, ...] = ()):
        self.unit_spans = unit_spans
        self.unit_depth = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.scope_id = array("q")
        self.stack: list[int] = []
        self.scope = scope
        self.unit_id = 0
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.state: dict[str, object] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.scope, key)] += value

    def parent_span(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tr = self
        nid = self._intern(target.span)
        clock = time.perf_counter_ns
        hook, enter, leave, wrap_args = target.hook, target.enter, target.leave, target.wrap_args
        sig = inspect.signature(fn) if hook is not None else None
        is_unit = target.span in self.unit_spans

        def wrapper(*args, **kwargs):
            if is_unit:
                if tr.unit_depth == 0:
                    tr.unit_id += 1
                tr.unit_depth += 1
            if enter is not None:
                enter(tr)
            call_args, call_kwargs = (wrap_args(tr, args, kwargs) if wrap_args is not None
                                      else (args, kwargs))
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.unit.append(tr.unit_id)
            tr.scope_id.append(SCOPES.index(tr.scope))
            tr.end.append(0)
            tr.stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*call_args, **call_kwargs)
            finally:
                tr.end[idx] = clock()
                if leave is not None:
                    leave(tr)
                tr.stack.pop()
                if is_unit:
                    tr.unit_depth -= 1
            if hook is not None:
                hook(tr, sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.span)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target], callers: tuple[str, ...] = ()) -> None:
        """Patch every binding site of every target that exists, in the
        tripledet modules and in the `callers` modules that call them.

        A target whose module or attribute is absent is listed in `missing`
        and skipped.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tripledet" or n.startswith("tripledet.")
                                         or n in callers)]
        for target in targets:
            owner = sys.modules.get(target.module)
            cls_name, _, meth = target.attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            name = meth if cls_name else target.attr
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, fn)
            if cls_name:
                self._patch(owner, name, fn, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                self._patch(value, dkey, fn, wrapper)

    def _patch(self, where, key, original, wrapper) -> None:
        if isinstance(where, dict):
            where[key] = wrapper
        else:
            setattr(where, key, wrapper)
        self._patches.append((where, key, original))

    def uninstall(self) -> None:
        for where, key, original in reversed(self._patches):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
                for k in ("name_id", "start", "end", "parent", "unit", "scope_id")}


class SpanStats:
    """Per-name call counts, inclusive and self times over chosen scopes.

    Self time is a span's duration minus the time its traced child spans
    cover. Several tracers are pooled, so the figures sum over rounds.
    """

    def __init__(self, tracers: list[Tracer], scopes: tuple[str, ...]):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, float] = defaultdict(float)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[np.ndarray]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        wanted = [SCOPES.index(s) for s in scopes]
        for tr in tracers:
            a = tr.arrays()
            n = len(a["start"])
            dur = (a["end"] - a["start"]).astype(np.float64)
            has_parent = a["parent"] >= 0
            child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
            own = dur - child
            keep = np.isin(a["scope_id"], wanted)
            for nid, name in enumerate(tr.names):
                sel = keep & (a["name_id"] == nid)
                if not sel.any():
                    continue
                self.calls[name] += int(sel.sum())
                self.total_ns[name] += float(dur[sel].sum())
                self.self_ns[name] += float(own[sel].sum())
                self.durations[name].append(dur[sel])
            for (scope, key), value in tr.counters.items():
                if scope in scopes:
                    self.counters[key] += value

    def ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def percentile_ms(self, name: str, q: float) -> float:
        if not self.durations[name]:
            return 0.0
        return float(np.percentile(np.concatenate(self.durations[name]), q)) / 1e6


def call_counts(tracer: Tracer, scopes: tuple[str, ...]) -> dict[str, float]:
    """Span counts and counters of one tracer in `scopes`, for run-to-run
    comparison."""
    out: dict[str, float] = {}
    a = tracer.arrays()
    for nid, name in enumerate(tracer.names):
        for scope in scopes:
            c = int(((a["name_id"] == nid) & (a["scope_id"] == SCOPES.index(scope))).sum())
            if c:
                out[f"{scope}:{name}.calls"] = c
    for (scope, key), value in tracer.counters.items():
        if scope in scopes and not key.endswith("_ns"):
            out[f"{scope}:{key}"] = value
    return out


def write_spans(path: Path, tracers: list[Tracer], labels: list[str]) -> None:
    """All spans of all tracers as one compressed .npz file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    cols: dict[str, list[np.ndarray]] = defaultdict(list)
    names: list[str] = []
    for k, tr in enumerate(tracers):
        a = tr.arrays()
        offset = len(names)
        names.extend(tr.names)
        a["name_id"] = a["name_id"] + offset
        a["tracer"] = np.full(len(a["start"]), k, dtype=np.int64)
        for key, col in a.items():
            cols[key].append(col)
    meta = {
        "scopes": SCOPES,
        "names": names,
        "tracers": labels,
        "counters": [{f"{s}:{k}": v for (s, k), v in tr.counters.items()} for tr in tracers],
        "missing": sorted({m for tr in tracers for m in tr.missing}),
    }
    np.savez_compressed(path, meta=np.array(json.dumps(meta)),
                        **{k: np.concatenate(v) for k, v in cols.items()})
