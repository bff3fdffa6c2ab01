"""Desk-scale incremental object detection with a triple network: a frozen
old model supplies pseudo ground truth and distillation targets, an
incremental model learns old + new classes, and an assistant residual model
captures what changed."""

from .autodiff import GradCheckError, ShapeError, Tensor, grad_check
from .boxes import Detection, decode_deltas_array, encode_deltas_array, iou, nms_per_class
from .detector import (DetectorConfig, DetectorModel, Targets, checkpoint_hash, detect,
                       forward_features, frcnn_loss, head_forward, load_checkpoint,
                       new_model, propose, roi_pool, save_checkpoint, training_targets)
from .distill import (attention_map, attention_pair_loss, classification_distill_loss,
                      feature_distill_loss, residual_distill_loss)
from .evaluate import APReport, evaluate_model, voc_ap
from .pseudo_gt import Thresholds, build_training_targets, generate_pseudo_gt
from .synthdata import (ClassDef, Scene, generate_dataset, generate_incremental_dataset,
                        load_dataset, make_classes, save_dataset)
from .trainer import (BaseTrainConfig, TrainConfig, TripleNetwork, compute_losses,
                      init_incremental, init_residual, init_triple, scene_targets,
                      train_base, train_incremental)

__version__ = "0.1.0"
