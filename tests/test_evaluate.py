"""AP computation against explicit PR-curve integration, and the harness."""

import csv
import math

import numpy as np
import pytest

import tripledet.evaluate as ev
from _oracles import prefix_integration_ap, random_ap_case
from tripledet.boxes import BBox
from tripledet.detector import DetectorConfig
from tripledet.evaluate import (CSV_HEADER, ExperimentProtocol, Variant, evaluate_model,
                                run_experiment, voc_ap, write_rows_csv)
from tripledet.pseudo_gt import Thresholds
from tripledet.synthdata import generate_dataset, make_classes
from tripledet.trainer import BaseTrainConfig, TrainConfig


# -- voc_ap ---------------------------------------------------------------------

def test_single_perfect_detection():
    g = BBox(0, 0, 10, 10)
    assert voc_ap([(0, 0.9, g)], {0: [g]}, 0.5) == 1.0


def test_no_detections_with_gt():
    assert voc_ap([], {0: [BBox(0, 0, 10, 10)]}, 0.5) == 0.0


def test_no_gt_no_dets_defined_zero():
    assert voc_ap([], {}, 0.5) == 0.0


def test_fp_above_tp_hand_computed():
    g = BBox(0, 0, 10, 10)
    far = BBox(30, 30, 40, 40)
    dets = [(0, 0.9, far), (0, 0.8, g)]
    assert voc_ap(dets, {0: [g]}, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_duplicate_detection_is_fp():
    g = BBox(0, 0, 10, 10)
    dets = [(0, 0.9, g), (0, 0.8, g)]
    # second match on the same GT counts as a false positive
    assert voc_ap(dets, {0: [g]}, 0.5) == 1.0


def test_ap_against_prefix_integration_500_cases():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(500):
        dets, gts = random_ap_case(rng)
        got = voc_ap(dets, gts, 0.5)
        want = prefix_integration_ap(dets, gts, 0.5)
        worst = max(worst, abs(got - want))
    assert worst < 1e-9


def test_fp_inserted_above_all_lowers_or_keeps_ap():
    rng = np.random.default_rng(61)
    for _ in range(50):
        dets, gts = random_ap_case(rng)
        if not gts:
            continue
        base = voc_ap(dets, gts, 0.5)
        spiked = [(99, 1.0, BBox(900, 900, 910, 910))] + dets  # image 99 has no GT
        assert voc_ap(spiked, gts, 0.5) <= base + 1e-12


# -- evaluate_model -----------------------------------------------------------------

class StubModel:
    """Duck-typed detector: fixed detections per scene index."""
    num_classes = 2

    def __init__(self, per_scene):
        self.per_scene = per_scene
        self.calls = 0


def test_evaluate_model_aggregates(monkeypatch):
    from tripledet.boxes import Detection
    from tripledet.synthdata import Scene
    g1 = BBox(5, 5, 20, 20)
    g2 = BBox(30, 30, 50, 50)
    scenes = [Scene(image=np.zeros((3, 64, 64)), annotations=[(g1, 1)]),
              Scene(image=np.zeros((3, 64, 64)), annotations=[(g2, 2)])]
    stub = StubModel({0: [Detection(g1, 1, 0.9)], 1: []})

    def fake_detect(model, image, score_thresh, nms_thresh):
        out = model.per_scene[model.calls]
        model.calls += 1
        return out

    monkeypatch.setattr(ev, "detect", fake_detect)
    report = evaluate_model(stub, scenes, 0.5, old_classes=[1], new_classes=[2])
    assert report.per_class_ap[1] == 1.0
    assert report.per_class_ap[2] == 0.0
    assert report.map_old == 1.0 and report.map_new == 0.0
    assert report.map_all == pytest.approx(0.5)
    assert report.gt_counts == {1: 1, 2: 1}
    assert report.vacuous_classes == []


def test_evaluate_model_vacuous_excluded(monkeypatch):
    from tripledet.synthdata import Scene
    g1 = BBox(5, 5, 20, 20)
    scenes = [Scene(image=np.zeros((3, 64, 64)), annotations=[(g1, 1)])]
    stub = StubModel({0: []})
    monkeypatch.setattr(ev, "detect", lambda m, i, s, n: [])
    report = evaluate_model(stub, scenes, 0.5, old_classes=[1], new_classes=[2])
    assert report.vacuous_classes == [2]
    assert report.map_all == report.per_class_ap[1]
    assert math.isnan(report.map_new)


def test_evaluate_model_rejects_uncovered_class():
    scenes = generate_dataset(make_classes(3), 1, seed=0)
    stub = StubModel({})
    with pytest.raises(ValueError):
        evaluate_model(stub, scenes, 0.5, old_classes=[1, 2, 3])


# -- experiment harness ----------------------------------------------------------------

def tiny_protocol(variants):
    return ExperimentProtocol(
        old_class_ids=[1, 2], new_class_ids=[3],
        n_base=4, n_incremental=3, n_test=3,
        data_seed=5, seeds=[1, 2],
        base_cfg=BaseTrainConfig(epochs=1, seed=0),
        inc_cfg=TrainConfig(epochs=1, thresholds=Thresholds(0.1, 0.9, 0.3)),
        detector_cfg=DetectorConfig(),
        variants=variants,
    )


def test_train_base_model_seeds_from_base_cfg():
    protocol = tiny_protocol([])
    protocol.base_cfg = BaseTrainConfig(epochs=2, seed=9)
    base, _, _ = ev.build_datasets(protocol)
    model, log = ev.train_base_model(protocol, base)
    assert model.seed == 9 and len(log) == 2


def test_protocol_validates_class_split():
    with pytest.raises(ValueError):
        ExperimentProtocol(old_class_ids=[1, 2], new_class_ids=[2])
    with pytest.raises(ValueError):
        ExperimentProtocol(old_class_ids=[1, 3], new_class_ids=[2])


def test_run_experiment_row_structure(tmp_path):
    protocol = tiny_protocol([Variant("base", kind="base"),
                              Variant("finetune", use_pseudo_gt=False)])
    rows = run_experiment(protocol, csv_path=tmp_path / "t.csv")
    assert len(rows) == 2 * 2 + 2          # |variants| x |seeds| + |variants| means
    names = [(r.variant, r.seed) for r in rows]
    assert names == [("base", "1"), ("base", "2"), ("base", "mean"),
                     ("finetune", "1"), ("finetune", "2"), ("finetune", "mean")]
    with open(tmp_path / "t.csv") as f:
        got = list(csv.reader(f))
    assert got[0] == list(CSV_HEADER)
    assert len(got) == len(rows) + 1


def test_run_experiment_failed_variant_recorded(monkeypatch, tmp_path):
    def boom(*a, **k):
        raise RuntimeError("training exploded")

    monkeypatch.setattr(ev, "train_incremental", boom)
    protocol = tiny_protocol([Variant("inc", use_pseudo_gt=False)])
    rows = run_experiment(protocol)
    per_seed = [r for r in rows if r.seed != "mean"]
    assert all(r.failed and math.isnan(r.map_old) for r in per_seed)
    assert len(rows) == 3                  # harness kept going and wrote the mean row


def test_write_rows_csv_header_fixed(tmp_path):
    write_rows_csv(tmp_path / "x.csv", [])
    assert (tmp_path / "x.csv").read_text().strip() == "variant,seed,map_old,map_new,map_all,secs"


def test_run_experiment_reproducible_under_fixed_seeds():
    protocol = tiny_protocol([Variant("finetune", use_pseudo_gt=False)])
    a = run_experiment(protocol)
    b = run_experiment(protocol)
    assert [(r.variant, r.seed, r.map_old, r.map_new, r.map_all) for r in a] == \
           [(r.variant, r.seed, r.map_old, r.map_new, r.map_all) for r in b]
