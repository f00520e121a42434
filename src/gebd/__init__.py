"""Generic event boundary detection on per-frame feature streams.

Pipeline: multi-stage features -> temporal pyramid similarity -> dilated
similarity decoder -> per-frame boundary scores -> Gaussian smoothing and
peak picking -> F1 at relative distance.
"""

from .autodiff import Tensor, backward, seq_tensor
from .data import Annotation, Clip, VideoFeatures, frame_labels, load_annotations, load_features, save_annotations, save_features, split_clips, synth_video
from .evaluate import DEFAULT_TAUS, EvalReport, f1_at, f1_sweep, match_detections, rel_dis_error
from .model import GebdModel, ModelConfig, load_checkpoint, model_forward, save_checkpoint
from .postprocess import BoundaryScores, DetectionList, gaussian_smooth, merge_clip_scores, pick_peaks
from .train import AdamState, TrainConfig, adam_step, bce_loss, lr_schedule, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Annotation",
    "BoundaryScores",
    "Clip",
    "DEFAULT_TAUS",
    "DetectionList",
    "EvalReport",
    "GebdModel",
    "ModelConfig",
    "Tensor",
    "TrainConfig",
    "VideoFeatures",
    "adam_step",
    "backward",
    "bce_loss",
    "f1_at",
    "f1_sweep",
    "frame_labels",
    "gaussian_smooth",
    "load_annotations",
    "load_checkpoint",
    "load_features",
    "lr_schedule",
    "match_detections",
    "merge_clip_scores",
    "model_forward",
    "pick_peaks",
    "rel_dis_error",
    "save_annotations",
    "save_checkpoint",
    "save_features",
    "seq_tensor",
    "split_clips",
    "synth_video",
    "train",
]
