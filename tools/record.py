"""Byte-identity record of a tripledet tree: one command instead of a
throwaway hashing script per change.

Record mode runs a small fixed pipeline with one BLAS thread and writes every
output, plus `record.json` mapping each output's path to its SHA-256, into
one directory:

    python3 tools/record.py OUT

- CLI (one process per command): gen-data, train-base, incremental with the
  default two-threshold split and with one threshold (`--theta-low 0.5
  --theta-high 0.5`), finetune, eval, ablate (its CSV is recorded without the
  `secs` column) and gradcheck;
- library calls: `detect` at three score floors on the stored old model,
  `frcnn_loss` and every parameter gradient on a few scenes, and a
  2-instance `run_gradient_suite`.

Each checkout records itself with its own copy of this tool (the library
half calls that checkout's API), and two records made on one host are then
compared:

    python3 A/tools/record.py OUT_A
    python3 B/tools/record.py OUT_B
    python3 tools/record.py --compare OUT_A OUT_B

lists the entries that differ or exist in one record only and, for each
differing checkpoint, the largest per-parameter relative difference
max|a - b| / max|a|. Exit 0 when the records agree, 1 when they differ.

    python3 tools/record.py --old-model

reruns `perfbench/make_old_model.py` (10,000 base-training steps, about two
minutes) on a scratch copy, so the stored checkpoint is not touched, and
checks the hash it prints against `OLD_MODEL_SHA256`. Exit 0 on a match.

Hashes hold for one machine only (OpenBLAS picks its kernels per CPU), so
compare records made on the same host; this is not a test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the pipeline's config: every phase runs, each in seconds
CONFIG = {
    "n_base": 16, "n_incremental": 8, "n_test": 8, "data_seed": 7,
    "base_epochs": 2, "epochs": 2, "seeds": [1], "grad_instances": 1,
    "sweep_pairs": [[0.3, 0.7]],
}
# (name, command, flags); each incremental-style run gets its own checkpoint dir
CLI_RUNS = [
    ("gen-data", "gen-data", []),
    ("train-base", "train-base", []),
    ("incremental-2th-on", "incremental", []),
    # one pseudo-GT threshold; the run name lines up with older records
    ("incremental-2th-off", "incremental", ["--theta-low", "0.5", "--theta-high", "0.5"]),
    ("finetune", "finetune", []),
    ("eval", "eval", []),
    ("ablate", "ablate", []),
    ("gradcheck", "gradcheck", []),
]
SCORE_FLOORS = (0.05, 0.3, 0.7)
LIBRARY_SCENES = 8


def _env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run(cmd: list[str], env: dict[str, str]) -> str:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(out: Path, env: dict[str, str]) -> None:
    cli = out / "cli"
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG, indent=1))
    data, base_ckpt = cli / "data", cli / "checkpoints" / "train-base"
    for name, command, flags in CLI_RUNS:
        ckpt = cli / "checkpoints" / name
        reads_base = command in ("incremental", "finetune", "eval")
        if reads_base:
            ckpt.mkdir(parents=True)
            shutil.copy(base_ckpt / "om.ckpt", ckpt / "om.ckpt")
        _run([sys.executable, "-m", "tripledet.cli", command, "--config", str(config),
              "--data-dir", str(data), "--checkpoint-dir", str(ckpt),
              "--out", str(cli / "out" / name), *flags], env)
        if reads_base:      # the copy is train-base's output, recorded once
            (ckpt / "om.ckpt").unlink()
    # the ablation CSV without its wall-clock column
    ablation = cli / "out" / "ablate" / "ablation.csv"
    with open(ablation, newline="") as f:
        rows = [row[:-1] for row in csv.reader(f)]
    ablation.unlink()
    with open(ablation.with_name("ablation_nosecs.csv"), "w", newline="") as f:
        csv.writer(f).writerows(rows)


def library_calls(out: Path) -> None:
    """The library half of the pipeline; runs with this checkout's tripledet importable."""
    import numpy as np

    from tripledet.detector import (detect, forward_features, frcnn_loss, load_checkpoint,
                                    training_targets)
    from tripledet.evaluate import EVAL_NMS_THRESH
    from tripledet.synthdata import generate_dataset, make_classes
    from tripledet.verification import run_gradient_suite

    out.mkdir(parents=True)
    model = load_checkpoint(ROOT / "perfbench" / "old_model.ckpt")
    scenes = generate_dataset(make_classes(model.num_classes), LIBRARY_SCENES, seed=11)
    for floor in SCORE_FLOORS:
        frozen = model.clone(requires_grad=False)
        rows = [[i, d.class_id, d.score, *d.bbox]
                for i, s in enumerate(scenes)
                for d in detect(frozen, forward_features(frozen, s.image), floor, EVAL_NMS_THRESH)]
        np.save(out / f"detect_{floor}.npy", np.array(rows, dtype=np.float64).reshape(-1, 7))
    for i, scene in enumerate(scenes):
        loss, _ = frcnn_loss(model, forward_features(model, scene.image),
                             training_targets(model, scene.boxes, scene.boxes, scene.labels),
                             np.random.default_rng(i))
        loss.backward()
        grads = [model.params[k].grad.reshape(-1) for k in sorted(model.params)]
        np.save(out / f"frcnn_loss_{i}.npy", np.concatenate([loss.data.reshape(1), *grads]))
    suite = run_gradient_suite(instances=2)
    (out / "gradient_suite.json").write_text(json.dumps(suite, indent=1))


def record(out: Path) -> dict[str, str]:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"record: {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    env = _env()
    run_cli(out, env)
    # a fresh process imports tripledet from this checkout's src/
    _run([sys.executable, str(Path(__file__).resolve()), "--library-calls", str(out / "lib")],
         env)
    entries = {p.relative_to(out).as_posix(): _sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
    (out / "record.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return entries


def _checkpoint_difference(a: Path, b: Path) -> str:
    from tripledet.detector import load_checkpoint

    try:
        ma, mb = load_checkpoint(a), load_checkpoint(b)
    except Exception as e:  # report, keep listing the other entries
        return f"cannot load: {e}"
    if ma.params.keys() != mb.params.keys() or any(
            ma.params[k].shape != mb.params[k].shape for k in ma.params):
        return "different parameter sets"
    worst, name = 0.0, None
    for k in sorted(ma.params):
        pa, pb = ma.params[k].data, mb.params[k].data
        scale = float(abs(pa).max()) if pa.size else 0.0
        diff = float(abs(pa - pb).max()) if pa.size else 0.0
        rel = diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf"))
        if name is None or rel > worst:
            worst, name = rel, k
    return f"largest per-parameter relative difference {worst:.3e} ({name})"


def compare(a: Path, b: Path) -> list[str]:
    """One line per entry whose hash differs between records `a` and `b`."""
    ra, rb = (json.loads((d / "record.json").read_text()) for d in (a, b))
    lines = []
    for key in sorted(ra.keys() | rb.keys()):
        if key not in rb:
            lines.append(f"only in {a}: {key}")
        elif key not in ra:
            lines.append(f"only in {b}: {key}")
        elif ra[key] != rb[key]:
            line = f"differs: {key}"
            if key.endswith(".ckpt"):
                line += ": " + _checkpoint_difference(a / key, b / key)
            lines.append(line)
    return lines


def old_model() -> tuple[str, str]:
    """(hash make_old_model.py prints, OLD_MODEL_SHA256) for this checkout."""
    expected = re.search(r'OLD_MODEL_SHA256 = "([0-9a-f]{64})"',
                         (ROOT / "perfbench" / "workloads.py").read_text()).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        shutil.copy(ROOT / "perfbench" / "make_old_model.py", bench)
        os.symlink(ROOT / "src", Path(tmp) / "src")
        printed = _run([sys.executable, str(bench / "make_old_model.py")], _env())
    return printed.strip().splitlines()[-1], expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", nargs="?", type=Path, help="record the pipeline into this directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--old-model", action="store_true")
    parser.add_argument("--library-calls", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    modes = [args.out is not None, args.compare is not None, args.old_model,
             args.library_calls is not None]
    if sum(modes) != 1:
        parser.error("give exactly one of OUT, --compare A B, --old-model")
    if args.library_calls is not None:
        library_calls(args.library_calls)
        return 0
    if args.compare is not None:
        sys.path.insert(0, str(ROOT / "src"))    # to read differing checkpoints
        try:
            lines = compare(*args.compare)
        except (OSError, json.JSONDecodeError) as e:
            print(f"record: cannot read a record: {e}", file=sys.stderr)
            return 2
        print("\n".join(lines) if lines else "records agree")
        return 1 if lines else 0
    try:
        if args.old_model:
            printed, expected = old_model()
            print(f"make_old_model.py printed {printed}\nOLD_MODEL_SHA256        {expected}")
            print("match" if printed == expected else "MISMATCH")
            return 0 if printed == expected else 1
        entries = record(args.out)
    except RuntimeError as e:       # a pipeline step failed; its stderr is above
        print(f"record: {e}", file=sys.stderr)
        return 2
    print(f"recorded {len(entries)} outputs in {args.out / 'record.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
