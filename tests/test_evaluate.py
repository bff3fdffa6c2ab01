"""AP computation against explicit PR-curve integration, and the `ablate`
harness in `tripledet.cli`."""

import csv
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import tripledet.cli as cli
import tripledet.evaluate as ev
from _oracles import prefix_integration_ap, random_ap_case
from tripledet.boxes import BBox
from tripledet.cli import (CSV_HEADER, RunConfig, UsageError, Variant, run_experiment,
                           variant_grid, write_rows_csv)
from tripledet.detector import DetectorConfig, new_model
from tripledet.evaluate import evaluate_model, voc_ap
from tripledet.pseudo_gt import Thresholds
from tripledet.synthdata import Scene, generate_dataset, make_classes
from tripledet.trainer import BaseTrainConfig, TrainConfig, finetune_config


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

    def clone(self, requires_grad=True):
        return self


def stub_backbone(monkeypatch):
    """The stub has no backbone: its "features" are the image."""
    monkeypatch.setattr(ev, "forward_features", lambda model, image: image)


def test_evaluate_model_aggregates(monkeypatch):
    from tripledet.boxes import Detection
    from tripledet.synthdata import Scene
    g1 = BBox(5, 5, 20, 20)
    g2 = BBox(30, 30, 50, 50)
    scenes = [Scene(image=np.zeros((3, 64, 64)), annotations=[(g1, 1)]),
              Scene(image=np.zeros((3, 64, 64)), annotations=[(g2, 2)])]
    stub = StubModel({0: [Detection(g1, 1, 0.9)], 1: []})

    def fake_detect(model, features, score_thresh, nms_thresh):
        out = model.per_scene[model.calls]
        model.calls += 1
        return out

    stub_backbone(monkeypatch)
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
    stub_backbone(monkeypatch)
    monkeypatch.setattr(ev, "detect", lambda m, f, s, n: [])
    report = evaluate_model(stub, scenes, 0.5, old_classes=[1], new_classes=[2])
    assert report.vacuous_classes == [2]
    assert report.map_all == report.per_class_ap[1]
    assert math.isnan(report.map_new)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_json_is_strict_when_a_class_group_is_empty(tmp_path, monkeypatch):
    """A mean over no classes is written as null; other reports keep their bytes."""
    scenes = [Scene(image=np.zeros((3, 64, 64)),
                    annotations=[(BBox(5, 5, 20, 20), 1), (BBox(30, 30, 50, 50), 2)])]
    stub_backbone(monkeypatch)
    monkeypatch.setattr(ev, "detect", lambda m, f, s, n: [])
    path = tmp_path / "report.json"

    no_new = evaluate_model(StubModel({0: []}), scenes, 0.5, old_classes=[1, 2])
    ev.write_report_json(path, no_new)
    parsed = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert parsed["map_new"] is None and parsed["map_old"] == no_new.map_old == 0.0

    both = evaluate_model(StubModel({0: []}), scenes, 0.5, old_classes=[1], new_classes=[2])
    ev.write_report_json(path, both)
    assert path.read_text() == json.dumps(asdict(both), indent=1)


def test_evaluate_model_detects_on_a_frozen_copy(monkeypatch):
    scenes = generate_dataset(make_classes(3), 4, seed=2)
    trainable = new_model(DetectorConfig(), 3, seed=4)
    frozen = trainable.clone(requires_grad=False)
    seen = []
    real_detect = ev.detect

    def spy(model, features, score_thresh, nms_thresh):
        seen.append((model is not trainable,
                     not any(p.requires_grad for p in model.params.values()),
                     features.requires_grad, features.parents == ()))
        return real_detect(model, features, score_thresh, nms_thresh)

    monkeypatch.setattr(ev, "detect", spy)
    reports = [asdict(evaluate_model(m, scenes, 0.5, old_classes=[1, 2], new_classes=[3]))
               for m in (trainable, frozen)]
    assert sum(reports[0]["det_counts"].values()) > 0
    assert json.dumps(reports[0]) == json.dumps(reports[1])     # NaN-safe equality
    # every detect call ran on frozen parameters and on features with no graph
    assert seen == [(True, True, False, True)] * (2 * len(scenes))
    assert all(p.requires_grad for p in trainable.params.values())


def test_evaluate_model_rejects_uncovered_class():
    scenes = generate_dataset(make_classes(3), 1, seed=0)
    stub = StubModel({})
    with pytest.raises(ValueError):
        evaluate_model(stub, scenes, 0.5, old_classes=[1, 2, 3])


# -- experiment harness ----------------------------------------------------------------

TINY_INC = TrainConfig(epochs=1, thresholds=Thresholds(0.1, 0.9, 0.3))
FINETUNE = Variant("finetune", finetune_config(TINY_INC))


def tiny_protocol(variants):
    cfg = RunConfig(old_class_ids=[1, 2], new_class_ids=[3], n_base=4, n_incremental=3,
                    n_test=3, data_seed=5, seeds=[1, 2], base_epochs=1, seed=0, epochs=1)
    cfg.variants = variants
    return cfg


def test_train_base_model_seeds_from_base_cfg():
    protocol = tiny_protocol([])
    protocol.base_cfg = BaseTrainConfig(epochs=2, seed=9)
    base, _, _ = cli.build_datasets(protocol)
    model, log = cli.train_base_model(protocol, base)
    assert model.seed == 9 and len(log) == 2


def test_protocol_validates_class_split():
    with pytest.raises(UsageError, match="overlap"):
        RunConfig(old_class_ids=[1, 2], new_class_ids=[2])
    with pytest.raises(UsageError, match="1..len"):
        RunConfig(old_class_ids=[1, 3], new_class_ids=[2])


# name: (d_fea, d_res, d_cls, use_pseudo_gt, (theta_low, theta_high))
DEFAULT_GRID = {
    "pgt-single": (False, False, False, True, (0.5, 0.5)),
    "d_fea": (True, False, False, True, (0.5, 0.5)),
    "d_res": (False, True, False, True, (0.5, 0.5)),
    "d_cls": (False, False, True, True, (0.5, 0.5)),
    "2th": (False, False, False, True, (0.1, 0.9)),
    "d_fea+d_res": (True, True, False, True, (0.5, 0.5)),
    "d_fea+d_res+d_cls": (True, True, True, True, (0.5, 0.5)),
    "full": (True, True, True, True, (0.1, 0.9)),
    "full-th(0.3,0.6)": (True, True, True, True, (0.3, 0.6)),
}


def test_variant_grid_pins_each_rows_components():
    """Each row's switches and thresholds are its own, whatever the run's;
    every other setting is the run's."""
    inc = TrainConfig(lam=2.0, epochs=3, lr=1e-3, batch_size=4, seed=8, d_fea=False,
                      d_res=False, d_cls=True, use_pseudo_gt=False,
                      thresholds=Thresholds(0.2, 0.7, 0.35))
    grid = variant_grid(inc, [(0.3, 0.6)])
    assert [v.name for v in grid] == ["base", "finetune", *DEFAULT_GRID]
    assert grid[0].cfg is None
    # no pseudo-GT, so the finetune row never reads its thresholds
    assert grid[1].cfg == replace(inc, d_cls=False)
    for v in grid[2:]:
        d_fea, d_res, d_cls, pgt, (lo, hi) = DEFAULT_GRID[v.name]
        assert (v.cfg.d_fea, v.cfg.d_res, v.cfg.d_cls, v.cfg.use_pseudo_gt) == \
            (d_fea, d_res, d_cls, pgt), v.name
        assert v.cfg.thresholds == Thresholds(lo, hi, 0.35), v.name
        assert replace(v.cfg, d_fea=False, d_res=False, d_cls=True, use_pseudo_gt=False,
                       thresholds=inc.thresholds) == inc, v.name


def test_run_experiment_row_structure(tmp_path):
    protocol = tiny_protocol([Variant("base", None), FINETUNE])
    rows = run_experiment(protocol)
    write_rows_csv(tmp_path / "t.csv", rows)
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

    monkeypatch.setattr(cli, "train_incremental", boom)
    protocol = tiny_protocol([Variant("inc", finetune_config(TINY_INC))])
    rows = run_experiment(protocol)
    per_seed = [r for r in rows if r.seed != "mean"]
    assert all(r.failed and math.isnan(r.map_old) for r in per_seed)
    assert len(rows) == 3                  # harness kept going and wrote the mean row


def test_run_experiment_trains_each_rows_config_per_seed(monkeypatch):
    cfgs = []
    monkeypatch.setattr(cli, "train_incremental", lambda triple, scenes, cfg: cfgs.append(cfg))
    run_experiment(tiny_protocol([FINETUNE]))
    assert cfgs == [replace(FINETUNE.cfg, seed=1), replace(FINETUNE.cfg, seed=2)]


def test_write_rows_csv_header_fixed(tmp_path):
    write_rows_csv(tmp_path / "x.csv", [])
    assert (tmp_path / "x.csv").read_text().strip() == "variant,seed,map_old,map_new,map_all,secs"


def test_run_experiment_reproducible_under_fixed_seeds():
    protocol = tiny_protocol([FINETUNE])
    a = run_experiment(protocol)
    b = run_experiment(protocol)
    assert [(r.variant, r.seed, r.map_old, r.map_new, r.map_all) for r in a] == \
           [(r.variant, r.seed, r.map_old, r.map_new, r.map_all) for r in b]
