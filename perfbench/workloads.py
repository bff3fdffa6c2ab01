"""The benchmark's workloads: each builds its inputs from the workload seed,
runs one round of timed work through tripledet's public API, and says what a
correct result is.

A round is deterministic: every round of a run repeats the same computation,
so every round must produce the same output (checkpoint hashes, mAP, suite
errors). The timed region of a round is the library call alone.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tripledet.detector import (DetectorConfig, checkpoint_hash, load_checkpoint,
                                new_model)
from tripledet.evaluate import evaluate_model
from tripledet.synthdata import generate_dataset, generate_incremental_dataset, make_classes
from tripledet.trainer import (BaseTrainConfig, TrainConfig, TrainingError, TripleNetwork,
                               init_incremental, init_residual, train_base,
                               train_incremental)
from tripledet.verification import GRAD_TOL, SUITE, check_loss_gradient, run_gradient_suite

HERE = Path(__file__).resolve().parent
OLD_MODEL = HERE / "old_model.ckpt"
# written by make_old_model.py; set-up refuses any other checkpoint
OLD_MODEL_SHA256 = "7dca2e00f4d965f6550fa0029ca7fe55045f10ced7669ded499c4664c10b856a"
OLD_IDS = [1, 2, 3]
NEW_IDS = [4]
IOU_EVAL = 0.5

# Sizes per scale. "full" is what the benchmark measures; "tiny" only proves
# that every metric is emitted (perfbench/test_smoke.py).
SCALES = {
    "full": dict(base_scenes=60, base_epochs=2, inc_scenes=60, inc_epochs=2, test_scenes=200),
    "tiny": dict(base_scenes=4, base_epochs=1, inc_scenes=6, inc_epochs=2, test_scenes=12),
}
# Quality floors, checked at "full" scale only (a few tiny-scale steps cannot
# teach the new class). They sit well below every seed measured (eval
# 0.82-0.89; train's incremental model old 0.71-0.81, new 0.56-0.71 over
# seeds 0-11), so only a real quality regression trips them. The short
# incremental schedule does not reproduce the paper's forgetting gap (plain
# finetuning forgets less over two epochs), so no relative forgetting
# criterion is applied.
MIN_EVAL_MAP_OLD = 0.7        # the acceptance suite's bar for the trained old model
MIN_INC_MAP_OLD = 0.6
MIN_INC_MAP_NEW = 0.4


class BenchError(RuntimeError):
    """Set-up cannot produce the benchmark's inputs; the run must stop."""


@dataclass
class Round:
    ops: int
    failed: int
    seconds: float
    output: object
    phases: tuple[tuple[int, float], ...] = ()   # (ops, seconds) of each timed phase


def stream_seed(seed: int, stream: int) -> int:
    """Independent data seed per input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def load_old_model(requires_grad: bool):
    """The stored old model, refused unless its bytes match OLD_MODEL_SHA256."""
    try:
        raw = OLD_MODEL.read_bytes()
    except OSError as e:
        raise BenchError(f"cannot read old-model checkpoint {OLD_MODEL}: {e}") from e
    digest = hashlib.sha256(raw).hexdigest()
    if digest != OLD_MODEL_SHA256:
        raise BenchError(f"old-model checkpoint {OLD_MODEL} has SHA-256 {digest}, "
                         f"expected {OLD_MODEL_SHA256}")
    try:
        model = load_checkpoint(OLD_MODEL, requires_grad=requires_grad)
    except (ValueError, KeyError, OSError) as e:
        raise BenchError(f"cannot load old-model checkpoint {OLD_MODEL}: {e}") from e
    if checkpoint_hash(model) != OLD_MODEL_SHA256:
        raise BenchError("old-model checkpoint does not round-trip through load_checkpoint")
    return model


class Workload:
    name = ""
    op = ""              # what one operation is
    rate_name = ""       # what the '#' lines call ops_per_s
    phase_rate_names: tuple[str, ...] = ()   # the same, per timed phase of a round
    unit_spans: tuple[str, ...] = ()         # traced spans that start one operation

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SCALES[scale]
        self.full = scale == "full"

    def setup(self) -> None:
        """Data generation, checkpoint load and warm-up."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """Quality figures of the last round's result (untimed)."""
        return {}

    def quality_checks(self, q: dict[str, float]) -> list[tuple[str, bool, str]]:
        return []


class Train(Workload):
    """Two timed phases, always in this order: `train_base` from `new_model`
    on old-class scenes, then `train_incremental` with the full method from
    the stored old model (its pseudo-GT precompute included, as users pay it).
    """
    name = "train"
    op = "image-step"
    rate_name = "train_img_steps_per_s"
    phase_rate_names = ("base_img_steps_per_s", "inc_img_steps_per_s")
    # one image-step: a base step's frcnn_loss, or an incremental step's
    # compute_losses (the frcnn_loss calls inside it belong to that step)
    unit_spans = ("detector.frcnn_loss", "trainer.compute_losses")

    def setup(self) -> None:
        classes = make_classes(len(OLD_IDS) + len(NEW_IDS))
        old, new = classes[:len(OLD_IDS)], classes[len(OLD_IDS):]
        self.om = load_old_model(requires_grad=False)
        self.base_scenes = generate_dataset(old, self.size["base_scenes"],
                                            stream_seed(self.seed, 0))
        self.inc_scenes = generate_incremental_dataset(old, new, self.size["inc_scenes"],
                                                       stream_seed(self.seed, 1))
        self.test = generate_dataset(classes, self.size["test_scenes"], stream_seed(self.seed, 2))
        try:
            train_base(new_model(DetectorConfig(), len(OLD_IDS), self.seed),
                       self.base_scenes[:2], BaseTrainConfig(epochs=1, seed=self.seed))
            train_incremental(self._triple(), self.inc_scenes[:2],
                              TrainConfig(epochs=1, seed=self.seed))
        except TrainingError as e:
            raise BenchError(f"warm-up failed: {e}") from e
        evaluate_model(self.om, self.test[:2], IOU_EVAL, old_classes=OLD_IDS)

    def _triple(self) -> TripleNetwork:
        return TripleNetwork(om=self.om, im=init_incremental(self.om, len(NEW_IDS), self.seed),
                             rm=init_residual(self.om, len(NEW_IDS), self.seed))

    def run_round(self) -> Round:
        model = new_model(DetectorConfig(), len(OLD_IDS), self.seed)
        base_cfg = BaseTrainConfig(epochs=self.size["base_epochs"], seed=self.seed)
        base_ops = base_cfg.epochs * len(self.base_scenes)
        triple = self._triple()
        inc_cfg = TrainConfig(epochs=self.size["inc_epochs"], seed=self.seed)
        inc_ops = inc_cfg.epochs * len(self.inc_scenes)
        ops = base_ops + inc_ops
        t0 = time.perf_counter()
        try:
            train_base(model, self.base_scenes, base_cfg)
            t1 = time.perf_counter()
            train_incremental(triple, self.inc_scenes, inc_cfg)
        except TrainingError as e:
            return Round(ops, ops, time.perf_counter() - t0, f"error: {e}")
        t2 = time.perf_counter()
        self.im = triple.im
        # a step that moved the frozen old model failed
        om_hash = checkpoint_hash(self.om)
        failed = 0 if om_hash == OLD_MODEL_SHA256 else inc_ops
        return Round(ops, failed, t2 - t0,
                     (checkpoint_hash(model), checkpoint_hash(triple.im),
                      checkpoint_hash(triple.rm), om_hash),
                     phases=((base_ops, t1 - t0), (inc_ops, t2 - t1)))

    def quality(self) -> dict[str, float]:
        rep = evaluate_model(self.im, self.test, IOU_EVAL, old_classes=OLD_IDS,
                             new_classes=NEW_IDS)
        return {"inc_map_old": rep.map_old, "inc_map_new": rep.map_new}

    def quality_checks(self, q):
        return [
            ("inc_map_old", q["inc_map_old"] >= MIN_INC_MAP_OLD,
             f"old-class mAP {q['inc_map_old']:.4f} (floor {MIN_INC_MAP_OLD})"),
            ("inc_map_new", q["inc_map_new"] >= MIN_INC_MAP_NEW,
             f"new-class mAP {q['inc_map_new']:.4f} (floor {MIN_INC_MAP_NEW})"),
        ]


class Eval(Workload):
    """`evaluate_model` (0.05 score floor) on the stored model, loaded trainable."""
    name = "eval"
    op = "image"
    rate_name = "eval_img_per_s"
    unit_spans = ("detector.detect",)

    def setup(self) -> None:
        self.model = load_old_model(requires_grad=True)
        classes = make_classes(len(OLD_IDS) + len(NEW_IDS))
        self.test = generate_dataset(classes, self.size["test_scenes"], stream_seed(self.seed, 3))
        evaluate_model(self.model, self.test[:4], IOU_EVAL, old_classes=OLD_IDS)

    def run_round(self) -> Round:
        ops = len(self.test)
        t0 = time.perf_counter()
        try:
            rep = evaluate_model(self.model, self.test, IOU_EVAL, old_classes=OLD_IDS)
        except ValueError as e:
            return Round(ops, ops, time.perf_counter() - t0, f"error: {e}")
        seconds = time.perf_counter() - t0
        self.report = rep
        return Round(ops, 0, seconds, (rep.map_old, tuple(sorted(rep.det_counts.items()))))

    def quality(self) -> dict[str, float]:
        return {"eval_map_old": self.report.map_old}

    def quality_checks(self, q):
        return [("eval_map_old", q["eval_map_old"] >= MIN_EVAL_MAP_OLD,
                 f"old-class mAP {q['eval_map_old']:.4f} (floor {MIN_EVAL_MAP_OLD})")]


class GradCheck(Workload):
    """`run_gradient_suite` on the micro config, seeded by the workload seed."""
    name = "gradcheck"
    op = "instance"
    rate_name = "gradcheck_instances_per_s"
    unit_spans = ("verification.instance",)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 99])
        for name in ("feature_distill", "cls_distill"):
            check_loss_gradient(name, rng)

    def run_round(self) -> Round:
        ops = len(SUITE)
        t0 = time.perf_counter()
        try:
            results = run_gradient_suite(instances=1, seed=self.seed)
        except (RuntimeError, ValueError) as e:
            return Round(ops, ops, time.perf_counter() - t0, f"error: {e}")
        seconds = time.perf_counter() - t0
        self.results = results
        # one instance per loss, so each value is that instance's error
        failed = sum(1 for err in results.values() if not err < GRAD_TOL)
        return Round(ops, failed, seconds, tuple(sorted(results.items())))

    def quality(self) -> dict[str, float]:
        return {"gradcheck_max_rel_err": float(max(self.results.values()))}


WORKLOADS = {w.name: w for w in (Train, Eval, GradCheck)}
