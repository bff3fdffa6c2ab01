"""Regenerate the benchmark's fixed old-model checkpoint.

Trains `new_model` on old-class scenes with `train_base`'s default schedule
(50 epochs over 200 scenes) and writes `perfbench/old_model.ckpt`. Takes
about two minutes on one core. Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_old_model.py

Then copy the printed SHA-256 into `OLD_MODEL_SHA256` in
`perfbench/workloads.py`. Checkpoint bytes depend on the CPU's BLAS kernels,
so a checkpoint regenerated on other hardware may hash differently.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tripledet.detector import DetectorConfig, new_model, save_checkpoint  # noqa: E402
from tripledet.synthdata import generate_dataset, make_classes  # noqa: E402
from tripledet.trainer import BaseTrainConfig, train_base  # noqa: E402

OLD_IDS = (1, 2, 3)
BASE_SCENES = 200
DATA_SEED = 100
MODEL_SEED = 0


def main() -> int:
    classes = make_classes(len(OLD_IDS))
    scenes = generate_dataset(classes, BASE_SCENES, DATA_SEED)
    model = new_model(DetectorConfig(), len(OLD_IDS), MODEL_SEED)
    train_base(model, scenes, BaseTrainConfig(seed=MODEL_SEED))
    path = HERE / "old_model.ckpt"
    save_checkpoint(model, path)
    print(hashlib.sha256(path.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
