"""tripledet benchmark: one workload run in one fresh process.

    python3 perfbench/run.py --workload train --seed 3 --seconds 36 --trace 0

Run from the repository root; tripledet is imported from ./src. The BLAS
thread count is pinned to 1 before numpy loads. The run sets up its inputs
from the seed several times (reporting the median as `setup_s`), then
repeats rounds of the workload for about `--seconds` and reports the median
round rate. With `--trace 1` it then runs two more rounds with every
traced binding wrapped and reports per-layer metrics instead. Human-readable
lines start with '#'; the last line of stdout is the JSON result. The exit
code is 0 when every correctness check passes, 1 when one fails, and 2 when
the run cannot start (bad arguments, no ./src, a wrong checkpoint).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TRACED_ROUNDS = 2


def _log(line: str) -> None:
    print(f"# {line}", flush=True)


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()
                   and ln.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def import_library() -> str | None:
    """Import tripledet from ./src of this checkout and nowhere else; the
    reason on failure."""
    if not (SRC / "tripledet" / "__init__.py").is_file():
        return f"no tripledet sources under {SRC}; run from the root of a tripledet checkout"
    sys.path.insert(0, str(SRC))
    import tripledet
    if Path(tripledet.__file__).resolve().parent != (SRC / "tripledet").resolve():
        return f"imported tripledet from {tripledet.__file__}, not from {SRC}"
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "eval", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke test only")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def run(args) -> int:
    from layers import layer_metrics, targets, unexercised
    from spans import Tracer, call_counts, write_spans
    from workloads import WORKLOADS, BenchError

    env = environment()
    _log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
         f"trace={args.trace} scale={args.scale}")
    _log("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_tracer = Tracer(scope="setup")
        if args.trace:
            setup_tracer.install(targets(), callers=("workloads",))
            try:
                wl.setup()
            finally:
                setup_tracer.uninstall()
    except BenchError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 2

    checks: list[tuple[str, bool, str]] = []
    rounds = []
    start = last = time.perf_counter()
    while True:
        rounds.append(wl.run_round())
        now = time.perf_counter()
        # stop once another round would end further past --seconds than
        # this one ends short of it
        if now - start + (now - last) / 2 >= args.seconds:
            break
        last = now
    outputs = {repr(r.output) for r in rounds}
    checks.append(("rounds_identical", len(outputs) == 1,
                   f"{len(rounds)} rounds, {len(outputs)} distinct outputs"))
    all_ok = not any(r.failed for r in rounds)
    checks.append(("no_failed_operations", all_ok,
                   "every round ran" if all_ok else f"first output {rounds[0].output!r}"))
    quality = wl.quality() if all_ok else {}
    if wl.full and all_ok:
        checks += wl.quality_checks(quality)

    tracers = []
    if args.trace:
        for k in range(TRACED_ROUNDS):
            tracer = Tracer(unit_spans=wl.unit_spans)
            tracer.install(targets(), callers=("workloads",))
            try:
                traced = wl.run_round()
                if k == 0:
                    tracer.scope = "discard"
                    traced_quality = wl.quality() if not traced.failed else {}
            finally:
                tracer.uninstall()
            rounds.append(traced)
            tracers.append(tracer)
            checks.append((f"traced_round_{k}_matches", repr(traced.output) == repr(
                rounds[0].output), "traced and untraced rounds give the same output"))
        units = [t.unit_id for t in tracers]
        checks.append(("units_match_ops", all(u == rounds[0].ops for u in units),
                       f"{'/'.join(wl.unit_spans)} calls per traced round {units}, "
                       f"{rounds[0].ops} {wl.op}s per round"))
        checks.append(("traced_quality_matches", repr(traced_quality) == repr(quality),
                       f"untraced {quality} traced {traced_quality}"))
        counts = [call_counts(t, ("work", "precompute")) for t in tracers]
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        checks.append(("traced_counts_repeat", not diff, f"differing: {diff[:8]}"))
        zero = unexercised(wl.name, tracers, setup_tracer)
        checks.append(("layers_exercised", not zero, f"zero on {wl.name}: {zero}"))
        if tracers[0].missing:
            _log(f"warning: trace targets absent from tripledet: {tracers[0].missing}")
        write_spans(OUT_DIR / f"spans-{wl.name}.npz", [setup_tracer, *tracers],
                    ["setup", *(f"round{k}" for k in range(len(tracers)))])

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    untraced = rounds[:len(rounds) - len(tracers)]
    rate = statistics.median(r.ops / r.seconds for r in untraced)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _log(f"rounds={len(untraced)} ops_per_round={untraced[0].ops} op={wl.op} "
         f"round_seconds={[round(r.seconds, 4) for r in untraced]}")
    _log(f"{wl.rate_name} {rate!r} 1/s")
    for k, name in enumerate(wl.phase_rate_names):
        phase_rates = [r.phases[k][0] / r.phases[k][1] for r in untraced if r.phases]
        if phase_rates:
            _log(f"{name} {statistics.median(phase_rates)!r} 1/s")
    _log(f"setup_s {setup_s!r} s")
    _log(f"peak_rss_mb {peak_rss_mb!r} MB")
    for name, value in quality.items():
        _log(f"{name} {value!r} mAP" if "map" in name else f"{name} {value!r}")
    for name, ok, detail in checks:
        _log(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    if failed:
        _log(f"failed operations: {failed} of {attempted}")

    if args.trace:
        overhead = (statistics.median(t.seconds for t in rounds[len(untraced):])
                    / statistics.median(r.seconds for r in untraced))
        per_layer = layer_metrics(tracers, setup_tracer,
                                  ops=sum(r.ops for r in rounds[len(untraced):]),
                                  rounds=len(tracers), overhead_ratio=overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_library()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
