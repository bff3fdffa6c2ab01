"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with `pytest -s` or on failure). The expensive fixtures are shared:
`world` trains the base (old) model once; `runs` performs the incremental
variants (finetune, full method, single-threshold) over three seeds.

Run with: pytest tests/test_acceptance.py -v -s

The whole module is marked slow: `pytest tests -m "not slow"` skips it.
"""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (brute_force_nms, classification_distill_loss_ref, exhaustive_filter,
                      feature_distill_loss_ref, nms_detections, prefix_integration_ap,
                      random_ap_case, random_detections, residual_distill_loss_ref)
from tripledet.autodiff import Tensor
from tripledet.boxes import annotation_arrays, iou_matrix
from tripledet.cli import RunConfig
from tripledet.detector import (DetectorConfig, checkpoint_bytes, checkpoint_hash, detect,
                                forward_features, frcnn_loss, new_model, propose,
                                rpn_forward)
from tripledet.distill import (FeatureTriple, LogitTriple, PooledTriple,
                               classification_distill_loss, feature_distill_loss,
                               residual_distill_loss)
from tripledet.evaluate import evaluate_model, voc_ap
from tripledet.pseudo_gt import Thresholds, generate_pseudo_gt
from tripledet.synthdata import Scene, generate_dataset, generate_incremental_dataset, make_classes
from tripledet.trainer import (BaseTrainConfig, TrainConfig, TripleNetwork, compute_losses,
                               finetune_config, init_incremental, init_residual, scene_targets,
                               train_base, train_incremental)
from tripledet.verification import GRAD_TOL, run_gradient_suite

OLD_IDS = [1, 2, 3]
NEW_IDS = [4]
SEEDS = [1, 2, 3]
IOU_EVAL = 0.5

pytestmark = pytest.mark.slow


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def inc_config(seed, **kw):
    defaults = dict(seed=seed, thresholds=Thresholds(0.1, 0.9, 0.3))
    defaults.update(kw)
    return TrainConfig(**defaults)


def scene_losses(triple, image, gt_boxes, gt_labels, cfg, rng):
    """`compute_losses` on the scene's own `scene_targets`, as a step of
    `train_incremental` runs it."""
    return compute_losses(triple, image, gt_boxes, gt_labels, cfg, rng,
                          *scene_targets(triple.om, image, gt_boxes, gt_labels, cfg))


@pytest.fixture(scope="module")
def world():
    classes = make_classes(4)
    base = generate_dataset(classes[:3], 200, seed=100)
    inc = generate_incremental_dataset(classes[:3], classes[3:], 100, seed=101)
    test = generate_dataset(classes, 80, seed=102)
    held_new = generate_incremental_dataset(classes[:3], classes[3:], 60, seed=999)
    om = new_model(DetectorConfig(), len(OLD_IDS), seed=0)
    t0 = time.perf_counter()
    base_log = train_base(om, base, BaseTrainConfig(seed=0))
    base_secs = time.perf_counter() - t0
    om = om.clone(requires_grad=False)
    om_report = evaluate_model(om, test, IOU_EVAL, old_classes=OLD_IDS)
    return SimpleNamespace(classes=classes, base=base, inc=inc, test=test,
                           held_new=held_new, om=om, base_log=base_log,
                           base_secs=base_secs, om_report=om_report)


def _run_incremental_variant(world, cfg):
    om = world.om
    triple = TripleNetwork(om=om,
                           im=init_incremental(om, len(NEW_IDS), cfg.seed),
                           rm=init_residual(om, len(NEW_IDS), cfg.seed))
    train_incremental(triple, world.inc, cfg)
    report_im = evaluate_model(triple.im, world.test, IOU_EVAL,
                               old_classes=OLD_IDS, new_classes=NEW_IDS)
    return triple, report_im


def _rm_new_class_map(world, rm):
    remapped = [Scene(image=s.image,
                      annotations=[(b, c - len(OLD_IDS)) for b, c in s.annotations])
                for s in world.held_new]
    return evaluate_model(rm, remapped, IOU_EVAL, new_classes=[1]).map_new


@pytest.fixture(scope="module")
def runs(world):
    t0 = time.perf_counter()
    om_hash_before = checkpoint_hash(world.om)
    out = {"finetune": [], "full": [], "single": [], "rm_new": []}
    for seed in SEEDS:
        _, rep = _run_incremental_variant(world, finetune_config(inc_config(seed)))
        out["finetune"].append(rep)
        triple, rep = _run_incremental_variant(world, inc_config(seed))
        out["full"].append(rep)
        out["rm_new"].append(_rm_new_class_map(world, triple.rm))
        _, rep = _run_incremental_variant(
            world, inc_config(seed, thresholds=Thresholds(0.5, 0.5, 0.3)))
        out["single"].append(rep)
    return SimpleNamespace(**out, secs=time.perf_counter() - t0,
                           om_hash_before=om_hash_before,
                           om_hash_after=checkpoint_hash(world.om))


# -- criterion 1: gradient suite ----------------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradient_suite(instances=10)
    secs = time.perf_counter() - t0
    worst = max(results.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items()) + f"; {secs:.0f}s"
    report("criterion 1: gradient suite", worst < GRAD_TOL and secs < 120, detail)


# -- criterion 2: exact zero cases ---------------------------------------------------

def test_criterion_2_zero_cases():
    rng = np.random.default_rng(70)
    f = rng.normal(size=(3, 4, 4))
    d_fea = feature_distill_loss(
        FeatureTriple(Tensor(f), Tensor(f.copy()), Tensor(np.zeros_like(f)))).item()

    f_om = rng.integers(-3, 4, (3, 4, 4)).astype(float)
    f_im = rng.integers(-3, 4, (3, 4, 4)).astype(float)
    p_om = rng.integers(-3, 4, (2, 3, 2, 2)).astype(float)
    p_rm = rng.integers(-3, 4, (2, 3, 2, 2)).astype(float)
    d_res = residual_distill_loss(
        FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_im - f_om)),
        PooledTriple(Tensor(p_om), Tensor(p_om + p_rm), Tensor(p_rm))).item()

    ca, cb, n = 2, 2, 3
    y = rng.normal(size=(n, ca + cb + 1))
    d_cls = classification_distill_loss(LogitTriple(
        Tensor(y[:, :ca + 1].copy()), Tensor(y),
        Tensor(np.hstack([rng.normal(size=(n, 1)), y[:, ca + 1:].copy()])))).item()

    detail = f"d_fea={d_fea:.2e}, d_res={d_res:.2e}, d_cls={d_cls:.2e}"
    report("criterion 2: zero cases", max(d_fea, d_res, d_cls) < 1e-12, detail)


# -- criterion 3: oracle equivalence ---------------------------------------------------

def test_criterion_3_oracle_equivalence(world):
    rng = np.random.default_rng(71)
    # IoU / NMS vs brute force, 1000 cases, exact under documented tie-breaks
    for _ in range(1000):
        dets = random_detections(rng, int(rng.integers(0, 11)))
        thresh = float(rng.uniform(0.1, 0.9))
        assert nms_detections(dets, thresh) == brute_force_nms(dets, thresh)

    # AP vs explicit prefix integration, 500 cases, 1e-9
    ap_worst = 0.0
    for _ in range(500):
        case_dets, gts = random_ap_case(rng)
        ap_worst = max(ap_worst, abs(voc_ap(case_dets, gts, 0.5) -
                                     prefix_integration_ap(case_dets, gts, 0.5)))
    assert ap_worst < 1e-9

    # distillation losses vs scalar-loop implementations, 1e-12
    distill_worst = 0.0
    for _ in range(25):
        f_om, f_im, f_rm = (rng.normal(size=(3, 4, 4)) for _ in range(3))
        p_om, p_im, p_rm = (rng.normal(size=(2, 3, 2, 2)) for _ in range(3))
        om_l = rng.normal(size=(3, 3))      # 2 old classes + background
        im_l = rng.normal(size=(3, 5))      # 2 old + 2 new + background
        rm_l = rng.normal(size=(3, 3))      # 2 new classes + background
        distill_worst = max(
            distill_worst,
            abs(feature_distill_loss(FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm))).item()
                - feature_distill_loss_ref(f_om, f_im, f_rm)),
            abs(residual_distill_loss(FeatureTriple(Tensor(f_om), Tensor(f_im), Tensor(f_rm)),
                                      PooledTriple(Tensor(p_om), Tensor(p_im), Tensor(p_rm))).item()
                - residual_distill_loss_ref(f_om, f_im, f_rm, p_om, p_im, p_rm)),
            abs(classification_distill_loss(LogitTriple(Tensor(om_l), Tensor(im_l), Tensor(rm_l))).item()
                - classification_distill_loss_ref(om_l, im_l, rm_l)),
        )
    assert distill_worst < 1e-12

    # pseudo ground-truth conflict filter vs exhaustive pairwise filter, exact
    th = Thresholds(0.1, 0.9, 0.3)
    checked = 0
    for scene in world.inc[:10]:
        gt_boxes = [b for b, _ in scene.annotations]
        features = forward_features(world.om, scene.image)
        raw = detect(world.om, features, th.theta_low, th.theta_iou)
        got = generate_pseudo_gt(world.om, features, annotation_arrays(scene.annotations)[0], th)
        assert got == exhaustive_filter(raw, gt_boxes, th.theta_iou)
        checked += len(raw)
    assert checked > 0

    report("criterion 3: oracle equivalence",
           True, f"nms exact x1000, ap<= {ap_worst:.1e}, distill<= {distill_worst:.1e}, "
                 f"filter exact over {checked} detections")


# -- criterion 4: frozen old model and determinism ----------------------------------------

def test_criterion_4_frozen_om_and_determinism(world):
    t0 = time.perf_counter()
    subset = world.inc[:8]
    cfg = inc_config(seed=11, epochs=2)
    h_before = checkpoint_hash(world.om)
    outputs = []
    for _ in range(2):
        triple = TripleNetwork(om=world.om,
                               im=init_incremental(world.om, 1, cfg.seed),
                               rm=init_residual(world.om, 1, cfg.seed))
        train_incremental(triple, subset, cfg)
        outputs.append((checkpoint_bytes(triple.im), checkpoint_bytes(triple.rm)))
    h_after = checkpoint_hash(world.om)
    secs = time.perf_counter() - t0
    ok = (outputs[0] == outputs[1] and h_before == h_after and secs < 600)
    report("criterion 4: frozen OM + determinism", ok,
           f"bit-identical={outputs[0] == outputs[1]}, om hash constant={h_before == h_after}, "
           f"{secs:.0f}s")


# -- criteria 5 and 6: directional reproduction ---------------------------------------------

def test_criterion_5_forgetting_gap(world, runs):
    om_map = world.om_report.map_old
    ft = float(np.mean([r.map_old for r in runs.finetune]))
    full = float(np.mean([r.map_old for r in runs.full]))
    total_secs = world.base_secs + runs.secs
    ok = (om_map - ft > 0.30
          and full >= ft + 0.10
          and full >= om_map - 0.15
          and total_secs < 45 * 60)
    report("criterion 5: forgetting gap", ok,
           f"om={om_map:.3f}, finetune={ft:.3f} (drop {om_map - ft:.3f} > 0.30), "
           f"full={full:.3f} (>= finetune+0.10 and >= om-0.15), "
           f"runtime {total_secs / 60:.1f} min < 45 min")


def test_criterion_6_threshold_ablation(runs):
    two = float(np.mean([r.map_old for r in runs.full]))
    single = float(np.mean([r.map_old for r in runs.single]))
    ok = two >= single - 0.01
    report("criterion 6: threshold ablation", ok,
           f"2-threshold old mAP {two:.3f} vs single-threshold {single:.3f} "
           f"(margin {two - single:+.3f} >= -0.01)")


# -- criterion 7: switch algebra and lambda affinity ------------------------------------------

def test_criterion_7_switch_algebra(world):
    om = world.om
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 21), rm=init_residual(om, 1, 21))
    scene = world.inc[0]
    cfg_off = finetune_config(inc_config(seed=21))
    boxes, labels = annotation_arrays(scene.annotations)
    _, bd = scene_losses(triple, scene.image, boxes, labels, cfg_off, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    li = frcnn_loss(triple.im, forward_features(triple.im, scene.image), boxes, boxes, labels,
                    rng)[0].item()
    lr = frcnn_loss(triple.rm, forward_features(triple.rm, scene.image), boxes, boxes,
                    labels - om.num_classes, rng)[0].item()
    algebra_ok = (abs(bd.loss_im - li) < 1e-12 and abs(bd.loss_rm - lr) < 1e-12
                  and bd.feature_distill == bd.residual_distill == bd.cls_distill == 0.0
                  and abs(bd.total - (li + lr)) < 1e-12)

    lam_results = {}
    for lam in (0.0, 0.5, 1.0, 2.0):
        _, b = scene_losses(triple, scene.image, boxes, labels,
                            inc_config(seed=21, lam=lam), np.random.default_rng(78))
        lam_results[lam] = b
    d0 = lam_results[0.0]
    slope = d0.feature_distill + d0.residual_distill + d0.cls_distill
    affine_ok = all(
        abs(b.total - (b.loss_im + b.loss_rm + lam * slope)) < 1e-12
        and b.loss_im == d0.loss_im and b.loss_rm == d0.loss_rm
        for lam, b in lam_results.items())
    report("criterion 7: switch algebra", algebra_ok and affine_ok,
           f"all-off equals finetune term-by-term (<=1e-12), "
           f"L_all affine in lambda with slope {slope:.4f} at lambda in {{0, 0.5, 1, 2}}")


# -- trained-model examples backing the module contracts ----------------------------------------

def test_trained_om_quality(world):
    rep = world.om_report
    assert rep.map_old > 0.7, f"base model old-class mAP {rep.map_old:.3f} <= 0.7"
    losses = [e.losses.total for e in world.base_log]
    assert losses[-1] < 0.5 * losses[0], "training loss did not halve"

    covered = total = 0
    for scene in world.test:
        obj, deltas = rpn_forward(world.om, forward_features(world.om, scene.image))
        boxes, _ = propose(world.om.config, obj.data, deltas.data)
        gt = annotation_arrays(scene.annotations)[0]
        covered += (iou_matrix(boxes, gt).max(axis=0) >= 0.5).sum()
        total += len(gt)
    recall = covered / total
    assert recall > 0.9, f"proposal recall {recall:.3f} <= 0.9"
    print(f"\n[examples] base model: mAP {rep.map_old:.3f}, proposal recall {recall:.3f}")


def test_rm_alone_learns_new_class(runs):
    mean_rm = float(np.mean(runs.rm_new))
    assert mean_rm > 0.5, f"residual model new-class mAP {mean_rm:.3f} <= 0.5"
    print(f"\n[examples] residual model alone: new-class mAP {mean_rm:.3f}")


def test_self_targets_give_small_loss(world):
    scene = world.test[0]
    features = forward_features(world.om, scene.image)
    dets = detect(world.om, features, 0.5, 0.3)
    assert dets, "trained model detects nothing at its inference settings"
    boxes, labels = annotation_arrays([(d.bbox, d.class_id) for d in dets])
    loss, _ = frcnn_loss(world.om, features, boxes, boxes, labels, np.random.default_rng(5))
    assert loss.item() < 1.0, f"loss on own detections {loss.item():.3f}"


def test_evaluate_model_matches_oracle_on_trained_om(world):
    scenes = world.test[:20]
    rep = evaluate_model(world.om, scenes, IOU_EVAL, old_classes=OLD_IDS)
    for cid in OLD_IDS:
        dets, gts = [], {}
        for idx, scene in enumerate(scenes):
            for box, c in scene.annotations:
                if c == cid:
                    gts.setdefault(idx, []).append(box)
            for d in detect(world.om, forward_features(world.om, scene.image), 0.05, 0.3):
                if d.class_id == cid:
                    dets.append((idx, d.score, d.bbox))
        want = prefix_integration_ap(dets, gts, IOU_EVAL)
        assert abs(rep.per_class_ap[cid] - want) < 1e-9


def test_incremental_step_with_two_thresholds_equals_explicit(world):
    """The config key two_threshold off is exactly Thresholds(0.5, 0.5)."""
    om = world.om
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 5), rm=init_residual(om, 1, 5))
    scene = world.inc[1]
    gt = annotation_arrays(scene.annotations)
    off = RunConfig(seed=5, two_threshold=False, theta_iou=0.3).inc_cfg
    _, bd_off = scene_losses(triple, scene.image, *gt, off, np.random.default_rng(6))
    _, bd_explicit = scene_losses(triple, scene.image, *gt,
                                  inc_config(seed=5, thresholds=Thresholds(0.5, 0.5, 0.3)),
                                  np.random.default_rng(6))
    assert dataclasses.astuple(bd_off) == dataclasses.astuple(bd_explicit)
