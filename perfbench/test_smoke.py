"""Smoke test of the benchmark at tiny sizes.

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, with its unit; the tracer must patch and restore every binding; and
the benchmark must refuse to run without the library or with a wrong
checkpoint. Takes about a minute:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_tracer_patches_every_binding_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tripledet.boxes as boxes
        import tripledet.detector as detector
        from layers import targets
        from spans import Tracer
        original = boxes.nms_indices
        tracer = Tracer()
        tracer.install(targets())
        try:
            assert boxes.nms_indices is not original
            assert detector.nms_indices is boxes.nms_indices
            boxes.nms_indices([[0.0, 0.0, 1.0, 1.0]], [0.5], 0.5)
        finally:
            tracer.uninstall()
        assert boxes.nms_indices is original and detector.nms_indices is original
        assert tracer.names[tracer.name_id[0]] == "boxes.nms_indices"
        assert tracer.counters[("work", "boxes.nms.boxes_in")] == 1
    finally:
        del sys.path[:2]


def _copy_bench(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_library(tmp_path):
    _copy_bench(tmp_path, with_src=False)
    proc = run_bench(tmp_path, "eval", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_refuses_a_changed_checkpoint(tmp_path):
    _copy_bench(tmp_path, with_src=True)
    ckpt = tmp_path / "perfbench" / "old_model.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[-1] ^= 1
    ckpt.write_bytes(bytes(raw))
    proc = run_bench(tmp_path, "eval", 0)
    assert proc.returncode == 2
    assert "SHA-256" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
