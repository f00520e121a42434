"""Generic event boundary detection on per-frame feature streams.

Pipeline: multi-stage features -> temporal pyramid similarity -> dilated
similarity decoder -> per-frame boundary scores -> Gaussian smoothing and
peak picking -> F1 at relative distance.

The API below loads on first use (PEP 562): `import gebd` imports no
submodule, so a command that needs none of numpy, as `gebd eval` does not,
never loads it. Reading any name in `__all__` imports every public module
and binds every name. `gebd.train` is always the submodule; the training
function is `gebd.train.train`.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that exports them
_API = {
    "autodiff": ("Tensor", "backward", "seq_tensor"),
    "boundaries": ("Annotation", "DetectionList", "load_annotations", "save_annotations"),
    "config": ("ModelConfig", "TrainConfig"),
    "data": ("VideoFeatures", "frame_labels", "load_features", "save_features", "split_clips", "synth_video"),
    "evaluate": ("DEFAULT_TAUS", "EvalReport", "f1_at", "f1_sweep", "match_detections", "rel_dis_error"),
    "model": ("GebdModel", "load_checkpoint", "model_forward", "save_checkpoint"),
    "postprocess": ("BoundaryScores", "gaussian_smooth", "merge_clip_scores", "pick_peaks"),
    "train": ("AdamState", "adam_step", "bce_loss", "lr_schedule"),
}

__all__ = sorted(name for names in _API.values() for name in names)


def _load_api() -> None:
    """Import each public module and bind the names it exports."""
    for module, names in _API.items():
        mod = importlib.import_module(f".{module}", __name__)
        for name in names:
            globals()[name] = getattr(mod, name)


def __getattr__(name: str):
    if name in __all__:
        _load_api()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
