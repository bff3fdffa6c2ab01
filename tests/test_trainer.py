"""Trainer: initialization contracts, frozen old model, determinism,
switch algebra, and the distillation weight's affine role."""

import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tripledet
import tripledet.detector as det
import tripledet.trainer as trainer
from tripledet.autodiff import Tensor
from tripledet.boxes import BBox, annotation_arrays
from tripledet.cli import RunConfig, UsageError
from tripledet.detector import (DetectorConfig, checkpoint_bytes, checkpoint_hash, detect,
                                forward_features, frcnn_loss, load_checkpoint, new_model,
                                save_checkpoint)
from tripledet.pseudo_gt import Thresholds
from tripledet.synthdata import (Scene, generate_dataset, generate_incremental_dataset,
                                 make_classes)
from tripledet.trainer import (BaseTrainConfig, SGDMomentum, TrainConfig, TrainingError,
                               TripleNetwork, compute_losses, finetune_config,
                               init_incremental, init_residual, init_triple, scene_targets,
                               train_base, train_incremental)
from tripledet.verification import check_loss_gradient


@pytest.fixture(scope="module")
def om():
    m = new_model(DetectorConfig(), 3, seed=42)
    # nudge away from raw init so detect produces scores spread around 0.5
    rng = np.random.default_rng(7)
    for p in m.params.values():
        p.data += rng.normal(0.0, 0.02, p.shape)
    return m.clone(requires_grad=False)


@pytest.fixture(scope="module")
def inc_scenes():
    classes = make_classes(4)
    return generate_incremental_dataset(classes[:3], classes[3:], 4, seed=77)


@pytest.fixture(scope="module")
def base_scenes():
    return generate_dataset(make_classes(3), 5, seed=78)


@pytest.fixture()
def image():
    return np.random.default_rng(3).uniform(0, 1, (3, 64, 64))


def small_cfg(**kw):
    defaults = dict(epochs=2, lr=1e-4, seed=5, thresholds=Thresholds(0.1, 0.9, 0.3))
    defaults.update(kw)
    return TrainConfig(**defaults)


def scene_losses(triple, image, gt_boxes, gt_labels, cfg, rng):
    """`compute_losses` on the scene's own `scene_targets`, as a step of
    `train_incremental` runs it."""
    return compute_losses(triple, image, gt_boxes, gt_labels, cfg, rng,
                          *scene_targets(triple.om, image, gt_boxes, gt_labels, cfg))


# -- initialization -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lam=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        BaseTrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        BaseTrainConfig(batch_size=0)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            TrainConfig(lr=lr)
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            BaseTrainConfig(lr=lr)


def test_effective_thresholds_single_mode():
    """`two_threshold: false` trains with one pseudo-GT split at 0.5; the
    configured pair is still checked."""
    cfg = RunConfig(two_threshold=False, theta_low=0.1, theta_high=0.9, theta_iou=0.3)
    assert cfg.inc_cfg.thresholds == Thresholds(0.5, 0.5, 0.3)
    with pytest.raises(UsageError):
        RunConfig(two_threshold=False, theta_low=0.95, theta_high=0.9)


def old_class_view(im, num_old):
    """The incremental model with only its background + old-class heads."""
    out = im.clone(requires_grad=False)
    out.params["rcnn.cls.w"] = Tensor(im.params["rcnn.cls.w"].data[:, :num_old + 1].copy())
    out.params["rcnn.cls.b"] = Tensor(im.params["rcnn.cls.b"].data[:num_old + 1].copy())
    out.params["rcnn.delta.w"] = Tensor(im.params["rcnn.delta.w"].data[:, :num_old * 4].copy())
    out.params["rcnn.delta.b"] = Tensor(im.params["rcnn.delta.b"].data[:num_old * 4].copy())
    out.num_classes = num_old
    return out


def test_init_incremental_restricted_matches_om_detect(om, image):
    im = init_incremental(om, num_new=1, seed=1)
    restricted = old_class_view(im, om.num_classes)
    assert (detect(restricted, forward_features(restricted, image), 0.3, 0.3)
            == detect(om, forward_features(om, image), 0.3, 0.3))


def test_init_incremental_old_rows_copied_new_rows_seeded(om):
    im1 = init_incremental(om, 2, seed=1)
    im2 = init_incremental(om, 2, seed=2)
    w1 = im1.params["rcnn.cls.w"].data
    w2 = im2.params["rcnn.cls.w"].data
    old_w = om.params["rcnn.cls.w"].data
    assert np.array_equal(w1[:, :4], old_w) and np.array_equal(w2[:, :4], old_w)
    assert not np.array_equal(w1[:, 4:], w2[:, 4:])
    assert np.array_equal(im1.params["rcnn.cls.b"].data[4:], np.zeros(2))
    assert im1.num_classes == 5
    assert im1.params["rcnn.delta.w"].data.shape[1] == 5 * 4


def test_init_incremental_checkpoint_roundtrip_bit_exact(om, tmp_path):
    im = init_incremental(om, 1, seed=3)
    save_checkpoint(im, tmp_path / "im.ckpt")
    back = load_checkpoint(tmp_path / "im.ckpt")
    assert checkpoint_bytes(back) == checkpoint_bytes(im)


def test_init_residual_backbone_copied_by_default(om):
    rm = init_residual(om, 1, seed=4)
    for name in rm.params:
        if name.startswith("backbone."):
            assert np.array_equal(rm.params[name].data, om.params[name].data)
    assert rm.num_classes == 1


def test_rm_local_targets_mapping(om, image, monkeypatch):
    """The residual model trains on the new classes renumbered 1..num_new."""
    triple = init_triple(om, 2, 1)
    seen = []
    real = trainer.frcnn_loss

    def recorded(model, features, rpn_boxes, rcnn_boxes, rcnn_labels, *args, **kwargs):
        seen.append((model, rcnn_boxes, rcnn_labels))
        return real(model, features, rpn_boxes, rcnn_boxes, rcnn_labels, *args, **kwargs)

    monkeypatch.setattr(trainer, "frcnn_loss", recorded)
    boxes, labels = annotation_arrays([(BBox(0, 0, 5, 5), 4), (BBox(1, 1, 6, 6), 5)])
    scene_losses(triple, image, boxes, labels, finetune_config(small_cfg()),
                 np.random.default_rng(0))
    (im, _, im_labels), (rm, rm_boxes, rm_labels) = seen
    assert im is triple.im and list(im_labels) == [4, 5]
    assert rm is triple.rm and list(rm_labels) == [1, 2]
    assert np.array_equal(rm_boxes, boxes)


def test_triple_network_width_validation(om):
    with pytest.raises(ValueError):
        TripleNetwork(om=om, im=init_incremental(om, 2, 0), rm=init_residual(om, 1, 0))


# -- optimizer -----------------------------------------------------------------------

def test_sgd_momentum_formula():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGDMomentum({"p": p})
    p.grad = np.array([2.0])
    opt.step(lr=0.1)                       # v = 2.0; p = 1 - 0.2
    assert np.allclose(p.data, [0.8])
    p.grad = np.array([1.0])
    opt.step(lr=0.1)                       # v = 0.9*2 + 1 = 2.8; p = 0.8 - 0.28
    assert np.allclose(p.data, [0.52])


# -- loss assembly --------------------------------------------------------------------

def test_lambda_zero_total_is_exact_sum(om, image):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    gt = annotation_arrays([(BBox(10, 10, 26, 28), 4)])
    total, bd = scene_losses(triple, image, *gt, small_cfg(lam=0.0), np.random.default_rng(0))
    assert bd.total == bd.loss_im + bd.loss_rm


def test_lambda_affinity(om, image):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    gt = annotation_arrays([(BBox(10, 10, 26, 28), 4)])
    results = {}
    for lam in (0.0, 0.5, 1.0, 2.0):
        _, bd = scene_losses(triple, image, *gt, small_cfg(lam=lam), np.random.default_rng(123))
        results[lam] = bd
    d0 = results[0.0]
    slope = d0.feature_distill + d0.residual_distill + d0.cls_distill
    for lam, bd in results.items():
        assert bd.loss_im == d0.loss_im and bd.loss_rm == d0.loss_rm
        assert bd.total == pytest.approx(bd.loss_im + bd.loss_rm + lam * slope, abs=1e-12)


def test_all_switches_off_equals_plain_finetune_term_by_term(om, image):
    """The all-off path consumes RNG as: incremental sampling, then residual
    sampling; composing the two detector losses directly with one generator
    must reproduce the breakdown exactly."""
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    boxes, labels = annotation_arrays([(BBox(10, 10, 26, 28), 4), (BBox(40, 38, 56, 60), 4)])
    cfg = finetune_config(small_cfg())
    _, bd = scene_losses(triple, image, boxes, labels, cfg, np.random.default_rng(9))

    rng = np.random.default_rng(9)
    li, _ = frcnn_loss(triple.im, forward_features(triple.im, image), boxes, boxes, labels, rng)
    lr_, _ = frcnn_loss(triple.rm, forward_features(triple.rm, image), boxes, boxes,
                        labels - om.num_classes, rng)
    assert abs(bd.loss_im - li.item()) < 1e-12
    assert abs(bd.loss_rm - lr_.item()) < 1e-12
    assert bd.feature_distill == bd.residual_distill == bd.cls_distill == 0.0
    assert abs(bd.total - (li.item() + lr_.item())) < 1e-12


def test_disabled_terms_report_zero(om, image):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    gt = annotation_arrays([(BBox(10, 10, 26, 28), 4)])
    _, bd = scene_losses(triple, image, *gt, small_cfg(d_fea=False, d_res=True, d_cls=False),
                         np.random.default_rng(4))
    assert bd.feature_distill == 0.0 and bd.cls_distill == 0.0
    assert bd.residual_distill > 0.0


def test_nonfinite_loss_aborts_with_term_name(om, image):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    triple.im.params["rcnn.fc1.w"].data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as exc:
        scene_losses(triple, image, *annotation_arrays([(BBox(10, 10, 26, 28), 4)]),
                     small_cfg(), np.random.default_rng(0))
    assert "loss_im" in str(exc.value)


@pytest.mark.parametrize("term", ["d_fea", "d_res", "d_cls"])
def test_each_distill_term_reaches_residual_backbone_gradient(om, image, term):
    # two new classes: the residual side of d_cls is a softmax over the new
    # classes, constant (zero gradient) with only one
    gt = annotation_arrays([(BBox(10, 10, 26, 28), 4), (BBox(40, 38, 56, 60), 5)])
    off = dict(d_fea=False, d_res=False, d_cls=False)
    grads = []
    for switches in (off, {**off, term: True}):
        triple = init_triple(om, 2, 1)
        total, _ = scene_losses(triple, image, *gt, small_cfg(**switches),
                                np.random.default_rng(11))
        total.backward()
        grads.append(triple.rm.params["backbone.conv1.w"].grad.copy())
    # the same RoI draws either way, so the term alone makes the difference
    assert not np.array_equal(grads[0], grads[1])


# -- one forward per network per image ------------------------------------------------

def count_forwards(monkeypatch, name):
    """Count calls of detector.<name> per model, through every binding site."""
    calls = Counter()
    real = getattr(det, name)

    def counted(m, *args, **kwargs):
        calls[id(m)] += 1
        return real(m, *args, **kwargs)

    for module in (det, trainer):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_compute_losses_runs_each_network_once(om, image, monkeypatch):
    triple = init_triple(om, 1, 1)
    rpn = count_forwards(monkeypatch, "rpn_forward")
    backbone = count_forwards(monkeypatch, "forward_features")
    gt = annotation_arrays([(BBox(10, 10, 26, 28), 4)])
    for cfg, om_once in ((small_cfg(), {id(triple.om): 1}), (finetune_config(small_cfg()), {})):
        # the old model runs in the scene's precompute only, and not at all
        # when neither pseudo-GT nor distillation reads it
        precomputed = scene_targets(triple.om, image, *gt, cfg)
        assert rpn == om_once and backbone == om_once
        rpn.clear()
        backbone.clear()
        compute_losses(triple, image, *gt, cfg, np.random.default_rng(0), *precomputed)
        once = {id(triple.im): 1, id(triple.rm): 1}
        assert rpn == once and backbone == once
        rpn.clear()
        backbone.clear()


@pytest.mark.parametrize("variant,om_passes", [
    ("full", 1), ("pseudo_gt_only", 1), ("finetune", 0)])
def test_train_incremental_old_model_backbone_once_per_scene(om, inc_scenes, monkeypatch,
                                                             variant, om_passes):
    cfg = {"full": small_cfg(epochs=2),
           "pseudo_gt_only": small_cfg(epochs=2, d_fea=False, d_res=False, d_cls=False),
           "finetune": finetune_config(small_cfg(epochs=2))}[variant]
    scenes = inc_scenes[:2]
    triple = init_triple(om, 1, 1)
    rpn = count_forwards(monkeypatch, "rpn_forward")
    backbone = count_forwards(monkeypatch, "forward_features")
    train_incremental(triple, scenes, cfg)
    steps = len(scenes) * cfg.epochs
    assert backbone[id(triple.om)] == om_passes * len(scenes)
    assert rpn[id(triple.om)] == (len(scenes) if cfg.use_pseudo_gt else 0)
    for m in (triple.im, triple.rm):
        assert backbone[id(m)] == rpn[id(m)] == steps


# -- training loops ---------------------------------------------------------------------

def test_om_frozen_through_steps(om, inc_scenes):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    h0 = checkpoint_hash(triple.om)
    train_incremental(triple, inc_scenes, small_cfg(epochs=2))
    assert checkpoint_hash(triple.om) == h0
    assert not triple.om.trainable()


def test_train_incremental_updates_trainable_models(om, inc_scenes):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    before_im = checkpoint_hash(triple.im)
    before_rm = checkpoint_hash(triple.rm)
    train_incremental(triple, inc_scenes[:2], small_cfg(epochs=1, lr=1e-3))
    assert checkpoint_hash(triple.im) != before_im
    assert checkpoint_hash(triple.rm) != before_rm


def test_train_incremental_deterministic(om, inc_scenes):
    outs = []
    for _ in range(2):
        triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
        log = train_incremental(triple, inc_scenes, small_cfg(epochs=2, seed=5))
        outs.append((checkpoint_bytes(triple.im), checkpoint_bytes(triple.rm),
                     [e.losses.total for e in log]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    assert outs[0][2] == outs[1][2]


def test_train_incremental_seed_changes_result(om, inc_scenes):
    finals = []
    for seed in (1, 2):
        triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
        train_incremental(triple, inc_scenes, small_cfg(epochs=1, seed=seed))
        finals.append(checkpoint_bytes(triple.im))
    assert finals[0] != finals[1]


def test_micro_total_loss_gradcheck_single_instance():
    err = check_loss_gradient("total_loss", np.random.default_rng([99, 1]))
    assert err < 1e-4


def test_empty_dataset_rejected(om):
    triple = TripleNetwork(om=om, im=init_incremental(om, 1, 1), rm=init_residual(om, 1, 1))
    with pytest.raises(ValueError):
        train_incremental(triple, [], small_cfg())
    with pytest.raises(ValueError):
        train_base(new_model(DetectorConfig(), 3, seed=1), [], BaseTrainConfig())


def test_train_incremental_rejects_non_new_class_up_front(om, inc_scenes, monkeypatch):
    monkeypatch.setattr(trainer, "forward_features", None)   # no network runs
    scenes = list(inc_scenes)
    scenes[2] = Scene(image=scenes[2].image,
                      annotations=[*scenes[2].annotations, (BBox(5, 5, 20, 22), 2)])
    with pytest.raises(ValueError, match=r"scene 2: class 2 is not a new class \(4\.\.4\)"):
        train_incremental(init_triple(om, 1, 0), scenes, small_cfg())


def test_train_base_rejects_background_class(base_scenes):
    scenes = [Scene(image=base_scenes[0].image, annotations=[(BBox(5, 5, 20, 22), 0)])]
    with pytest.raises(det.DetectorError, match="class 0 outside 1..3"):
        train_base(new_model(DetectorConfig(), 3, seed=0), scenes, BaseTrainConfig(epochs=1))


def test_train_base_deterministic(base_scenes):
    outs = []
    for _ in range(2):
        model = new_model(DetectorConfig(), 3, seed=2)
        # 5 scenes in batches of 3 also exercises the short last batch
        log = train_base(model, base_scenes, BaseTrainConfig(epochs=2, batch_size=3, seed=6))
        outs.append((checkpoint_bytes(model), [dataclasses.astuple(e.losses) for e in log]))
    assert outs[0] == outs[1]
    assert len(outs[0][1]) == 2


def test_train_base_nan_image_names_epoch(base_scenes):
    scenes = list(base_scenes)
    scenes[3] = Scene(np.full_like(scenes[3].image, np.nan), scenes[3].annotations)
    model = new_model(DetectorConfig(), 3, seed=2)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError) as exc:
        train_base(model, scenes, BaseTrainConfig(epochs=1, seed=6))
    assert "at epoch 0" in str(exc.value)
    # the check runs before the step, so the model is left finite
    assert all(np.isfinite(p.data).all() for p in model.params.values())


# base training then full-method incremental training; prints the OM/IM/RM
# checkpoint hashes
_HASH_RUN = """
from tripledet.detector import DetectorConfig, checkpoint_hash, new_model
from tripledet.synthdata import generate_dataset, generate_incremental_dataset, make_classes
from tripledet.trainer import (BaseTrainConfig, TrainConfig, init_triple, train_base,
                               train_incremental)
classes = make_classes(4)
om = new_model(DetectorConfig(), 3, seed=2)
train_base(om, generate_dataset(classes[:3], 4, seed=78), BaseTrainConfig(epochs=1, seed=6))
om = om.clone(requires_grad=False)
triple = init_triple(om, 1, 1)
train_incremental(triple, generate_incremental_dataset(classes[:3], classes[3:], 3, seed=77),
                  TrainConfig(epochs=1, seed=5))
print(checkpoint_hash(triple.om), checkpoint_hash(triple.im), checkpoint_hash(triple.rm))
"""


@pytest.mark.slow
def test_checkpoints_identical_across_blas_thread_counts():
    """Same machine, 1 vs 2 OpenBLAS threads: bit-identical checkpoints.
    Identity across CPUs is not promised (OpenBLAS picks kernels per CPU)."""
    src = str(Path(tripledet.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _HASH_RUN], env=env, check=True,
                             capture_output=True, text=True, timeout=600)
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 3
    assert hashes[0] == hashes[1]
