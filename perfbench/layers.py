"""What the traced run wraps, and the per-layer metrics it derives.

Every metric is normalised per operation of the workload (an image-step of
either phase for `train`, an image for `eval`, a gradient-suite instance for
`gradcheck`) unless its unit says otherwise. Per-operation figures read the
"work" scope only, so the old-model pass that `train_incremental` runs
before its first step is reported apart, as `trainer.precompute.ms`, and does
not inflate the per-step counts. Distribution and ratio metrics of
`detect` and `pseudo_gt` read the precompute scope too, since that is where
`train` exercises them.
"""

from __future__ import annotations

import time

from spans import SpanStats, Target, Tracer

# autodiff ops reported one by one; every other op is pooled as "other_ops"
NAMED_OPS = ("conv2d", "max_pool2", "roi_pool", "matmul", "add", "relu")
OTHER_OPS = ("subtract", "multiply", "divide", "scalar_multiply", "gram", "tsum", "tmean",
             "frobenius_norm", "tabs", "square", "smooth_l1", "sigmoid", "softplus",
             "softmax", "log_softmax", "reshape")


# -- hooks ------------------------------------------------------------------

def _nms_hook(tr: Tracer, args, result) -> None:
    tr.count("boxes.nms.boxes_in", len(args["scores"]))
    tr.count("boxes.nms.kept", len(result))


def _anchor_hook(tr: Tracer, args, result) -> None:
    pos = result[0]
    tr.count("detector.anchors.pos", int(pos.sum()))
    tr.count("detector.anchors.total", len(pos))


def _sample_hook(tr: Tracer, args, result) -> None:
    labels = result[1]
    tr.count("detector.rois.pos", int((labels > 0).sum()))
    tr.count("detector.rois.total", len(labels))


def _detect_hook(tr: Tracer, args, result) -> None:
    tr.count("detector.dets", len(result))
    if tr.parent_span() == "pseudo_gt.generate":
        tr.count("pseudo_gt.detections", len(result))


def _pseudo_hook(tr: Tracer, args, result) -> None:
    th = args["th"]
    tr.count("pseudo_gt.kept", len(result))
    tr.count("pseudo_gt.low", sum(d.score > th.theta_low for d in result))
    tr.count("pseudo_gt.high", sum(d.score > th.theta_high for d in result))


def _topo_hook(tr: Tracer, args, result) -> None:
    if tr.parent_span() == "autodiff.backward":
        tr.count("autodiff.graph_nodes", len(result))


def _voc_hook(tr: Tracer, args, result) -> None:
    tr.count("evaluate.voc_ap.dets_in", len(args["dets"]))


def _scenes_hook(tr: Tracer, args, result) -> None:
    tr.count("synthdata.scenes", len(result))


def _count_fd_evals(tr: Tracer, args, kwargs):
    f, *rest = args

    def counted(*tensors):
        tr.count("verification.fd_evals")
        return f(*tensors)

    return (counted, *rest), kwargs


def _precompute_begin(tr: Tracer) -> None:
    tr.state.setdefault("outer_scope", []).append(tr.scope)
    tr.state["precompute_t0"] = time.perf_counter_ns()
    tr.scope = "precompute"


def _precompute_end(tr: Tracer) -> None:
    if tr.scope != "precompute":
        return
    outer = tr.state["outer_scope"][-1]
    tr.counters[(outer, "trainer.precompute_ns")] += (
        time.perf_counter_ns() - tr.state["precompute_t0"])
    tr.scope = outer


def _train_incremental_leave(tr: Tracer) -> None:
    _precompute_end(tr)          # no step ran
    tr.scope = tr.state["outer_scope"].pop()


def targets() -> list[Target]:
    ad = "tripledet.autodiff"
    out = [Target(ad, op, f"autodiff.{op}") for op in NAMED_OPS]
    out += [Target(ad, op, "autodiff.other_ops") for op in OTHER_OPS]
    out += [
        Target(ad, "Tensor.backward", "autodiff.backward"),
        Target(ad, "topo_order", "autodiff.topo_order", hook=_topo_hook),
        Target(ad, "grad_check", "autodiff.grad_check", wrap_args=_count_fd_evals),
        Target("tripledet.boxes", "nms_indices", "boxes.nms_indices", hook=_nms_hook),
        Target("tripledet.boxes", "nms_per_class", "boxes.nms_per_class"),
        Target("tripledet.boxes", "iou_matrix", "boxes.iou_matrix"),
        Target("tripledet.boxes", "iou", "boxes.iou"),
        Target("tripledet.detector", "forward_features", "detector.forward_features"),
        Target("tripledet.detector", "rpn_forward", "detector.rpn_forward"),
        Target("tripledet.detector", "roi_candidates", "detector.roi_candidates"),
        Target("tripledet.detector", "frcnn_loss", "detector.frcnn_loss"),
        Target("tripledet.detector", "match_anchors", "detector.match_anchors",
               hook=_anchor_hook),
        Target("tripledet.detector", "sample_rois", "detector.sample_rois", hook=_sample_hook),
        Target("tripledet.detector", "head_forward", "detector.head_forward"),
        Target("tripledet.detector", "detect", "detector.detect", hook=_detect_hook),
        Target("tripledet.distill", "feature_distill_loss", "distill.feature"),
        Target("tripledet.distill", "residual_distill_loss", "distill.residual"),
        Target("tripledet.distill", "classification_distill_loss", "distill.cls"),
        Target("tripledet.pseudo_gt", "generate_pseudo_gt", "pseudo_gt.generate",
               hook=_pseudo_hook),
        Target("tripledet.trainer", "train_base", "trainer.train_base"),
        Target("tripledet.trainer", "train_incremental", "trainer.train_incremental",
               enter=_precompute_begin, leave=_train_incremental_leave),
        Target("tripledet.trainer", "compute_losses", "trainer.compute_losses",
               enter=_precompute_end),
        Target("tripledet.trainer", "SGDMomentum.step", "trainer.sgd_step"),
        Target("tripledet.evaluate", "evaluate_model", "evaluate.evaluate_model"),
        Target("tripledet.evaluate", "voc_ap", "evaluate.voc_ap", hook=_voc_hook),
        Target("tripledet.verification", "run_gradient_suite", "verification.run_gradient_suite"),
        Target("tripledet.verification", "check_loss_gradient", "verification.instance"),
        Target("tripledet.verification", "nonsmooth_margin", "verification.draw"),
        Target("tripledet.synthdata", "generate_dataset", "synthdata.generate",
               hook=_scenes_hook),
        Target("tripledet.synthdata", "generate_incremental_dataset", "synthdata.generate",
               hook=_scenes_hook),
    ]
    return out


# -- metrics ----------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], setup_tracer: Tracer, ops: int, rounds: int,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric."""
    w = SpanStats(tracers, ("work",))
    wp = SpanStats(tracers, ("work", "precompute"))
    s = SpanStats([setup_tracer], ("setup",))
    m: dict[str, tuple[float, str]] = {}

    def per_op(value: float) -> float:
        return value / ops

    for op in (*NAMED_OPS, "other_ops"):
        span = f"autodiff.{op}"
        m[f"{span}.calls"] = (per_op(w.calls[span]), "count/op")
        m[f"{span}.fwd_ms"] = (per_op(w.self_ms(span)), "ms/op")
    m["autodiff.backward.ms"] = (per_op(w.ms("autodiff.backward")), "ms/op")
    m["autodiff.topo_order.ms"] = (per_op(w.ms("autodiff.topo_order")), "ms/op")
    m["autodiff.graph_nodes"] = (per_op(w.counters["autodiff.graph_nodes"]), "count/op")
    m["autodiff.grad_check.self_ms"] = (per_op(w.self_ms("autodiff.grad_check")), "ms/op")

    m["boxes.nms_indices.calls"] = (per_op(w.calls["boxes.nms_indices"]), "count/op")
    m["boxes.nms_indices.ms"] = (per_op(w.ms("boxes.nms_indices")), "ms/op")
    m["boxes.nms_indices.boxes_in"] = (
        _ratio(w.counters["boxes.nms.boxes_in"], w.calls["boxes.nms_indices"]), "count/call")
    m["boxes.nms_indices.keep_ratio"] = (
        _ratio(w.counters["boxes.nms.kept"], w.counters["boxes.nms.boxes_in"]), "ratio")
    m["boxes.nms_per_class.ms"] = (per_op(w.ms("boxes.nms_per_class")), "ms/op")
    m["boxes.iou_matrix.ms"] = (per_op(w.ms("boxes.iou_matrix")), "ms/op")
    m["boxes.iou.calls"] = (per_op(w.calls["boxes.iou"]), "count/op")

    m["detector.forward_features.calls"] = (per_op(w.calls["detector.forward_features"]),
                                            "count/op")
    m["detector.rpn_forward.calls"] = (per_op(w.calls["detector.rpn_forward"]), "count/op")
    m["detector.roi_candidates.ms"] = (per_op(w.ms("detector.roi_candidates")), "ms/op")
    m["detector.frcnn_loss.self_ms"] = (per_op(w.self_ms("detector.frcnn_loss")), "ms/op")
    m["detector.match_anchors.ms"] = (per_op(w.ms("detector.match_anchors")), "ms/op")
    m["detector.anchor_pos_ratio"] = (
        _ratio(w.counters["detector.anchors.pos"], w.counters["detector.anchors.total"]),
        "ratio")
    m["detector.sample_rois.ms"] = (per_op(w.ms("detector.sample_rois")), "ms/op")
    m["detector.roi_pos_fraction"] = (
        _ratio(w.counters["detector.rois.pos"], w.counters["detector.rois.total"]), "ratio")
    m["detector.head_forward.self_ms"] = (per_op(w.self_ms("detector.head_forward")), "ms/op")
    m["detector.detect.self_ms"] = (per_op(w.self_ms("detector.detect")), "ms/op")
    m["detector.detect.p50_ms"] = (wp.percentile_ms("detector.detect", 50), "ms/call")
    m["detector.detect.p90_ms"] = (wp.percentile_ms("detector.detect", 90), "ms/call")
    m["detector.dets_per_image"] = (
        _ratio(wp.counters["detector.dets"], wp.calls["detector.detect"]), "count/call")

    m["distill.feature.ms"] = (per_op(w.ms("distill.feature")), "ms/op")
    m["distill.residual.ms"] = (per_op(w.ms("distill.residual")), "ms/op")
    m["distill.cls.ms"] = (per_op(w.ms("distill.cls")), "ms/op")

    calls = wp.calls["pseudo_gt.generate"]
    m["pseudo_gt.generate.ms"] = (_ratio(wp.ms("pseudo_gt.generate"), calls), "ms/call")
    m["pseudo_gt.boxes_low"] = (_ratio(wp.counters["pseudo_gt.low"], calls), "count/call")
    m["pseudo_gt.boxes_high"] = (_ratio(wp.counters["pseudo_gt.high"], calls), "count/call")
    m["pseudo_gt.conflict_drop_ratio"] = (
        1.0 - _ratio(wp.counters["pseudo_gt.kept"], wp.counters["pseudo_gt.detections"])
        if wp.counters["pseudo_gt.detections"] else 0.0, "ratio")

    m["trainer.precompute.ms"] = (per_op(w.counters["trainer.precompute_ns"] / 1e6), "ms/op")
    m["trainer.compute_losses.self_ms"] = (per_op(w.self_ms("trainer.compute_losses")),
                                           "ms/op")
    m["trainer.sgd_step.ms"] = (per_op(w.ms("trainer.sgd_step")), "ms/op")
    m["trainer.steps"] = (per_op(w.calls["trainer.sgd_step"]), "count/op")
    m["trainer.train_base.ms"] = (per_op(w.ms("trainer.train_base")), "ms/op")
    # the train_incremental span opens in the precompute scope and spans both
    m["trainer.train_incremental.ms"] = (per_op(wp.ms("trainer.train_incremental")), "ms/op")

    m["evaluate.evaluate_model.self_ms"] = (per_op(w.self_ms("evaluate.evaluate_model")),
                                            "ms/op")
    m["evaluate.voc_ap.ms"] = (per_op(w.ms("evaluate.voc_ap")), "ms/op")
    m["evaluate.voc_ap.dets_in"] = (per_op(w.counters["evaluate.voc_ap.dets_in"]), "count/op")

    instances = w.calls["verification.instance"]
    m["verification.instances"] = (instances / rounds, "count/round")
    m["verification.draws_per_instance"] = (_ratio(w.calls["verification.draw"], instances),
                                            "count/instance")
    m["verification.fd_evals"] = (per_op(w.counters["verification.fd_evals"]), "count/op")

    m["synthdata.generate.ms"] = (
        _ratio(s.ms("synthdata.generate"), s.counters["synthdata.scenes"]), "ms/scene")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# Spans (or counters) each workload must exercise: a binding the tracer
# missed reads zero here and fails the run instead of passing unnoticed.
_TRAIN_COMMON = (
    *(f"autodiff.{op}" for op in (*NAMED_OPS, "other_ops")),
    "autodiff.backward", "autodiff.topo_order", "boxes.nms_indices", "boxes.iou_matrix",
    "detector.forward_features", "detector.rpn_forward", "detector.roi_candidates",
    "detector.frcnn_loss", "detector.match_anchors", "detector.sample_rois",
    "detector.head_forward", "trainer.sgd_step",
)
REQUIRED_SPANS = {
    "train": (*_TRAIN_COMMON, "trainer.train_base", "trainer.train_incremental",
              "trainer.compute_losses", "distill.feature", "distill.residual", "distill.cls",
              "pseudo_gt.generate", "detector.detect", "boxes.nms_per_class"),
    "eval": (*(f"autodiff.{op}" for op in (*NAMED_OPS, "other_ops")),
             "detector.detect", "detector.forward_features", "detector.rpn_forward",
             "detector.head_forward", "boxes.nms_indices", "boxes.nms_per_class",
             "boxes.iou", "evaluate.evaluate_model", "evaluate.voc_ap"),
    "gradcheck": (*(f"autodiff.{op}" for op in (*NAMED_OPS, "other_ops")),
                  "autodiff.backward", "autodiff.topo_order", "autodiff.grad_check",
                  "verification.run_gradient_suite", "verification.instance",
                  "verification.draw", "detector.frcnn_loss", "detector.roi_candidates",
                  "detector.detect", "pseudo_gt.generate", "trainer.compute_losses",
                  "distill.feature", "distill.residual", "distill.cls", "boxes.nms_indices"),
}
REQUIRED_COUNTERS = {
    "train": ("autodiff.graph_nodes", "detector.anchors.total", "detector.rois.total",
              "trainer.precompute_ns", "pseudo_gt.detections"),
    "eval": ("evaluate.voc_ap.dets_in", "detector.dets"),
    "gradcheck": ("verification.fd_evals", "autodiff.graph_nodes"),
}


def unexercised(workload: str, tracers: list[Tracer], setup_tracer: Tracer) -> list[str]:
    """Required spans and counters that read zero on this workload."""
    wp = SpanStats(tracers, ("work", "precompute"))
    out = [s for s in REQUIRED_SPANS[workload] if wp.calls[s] == 0]
    out += [c for c in REQUIRED_COUNTERS[workload] if wp.counters[c] == 0]
    if workload != "gradcheck" and SpanStats([setup_tracer], ("setup",)).calls[
            "synthdata.generate"] == 0:
        out.append("synthdata.generate")
    return out
