"""Settings and their checks, in the standard library only: the model and
training configs, the fps -> neighbor radius rule, and the rule of every
setting a video, file or command carries. A command that only checks its
settings, as `gebd eval` does, loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .util import check_fits_in_memory

# the slowest frame rate: a u32 frame count then lasts below 4.3e15 s, so every
# timestamp (f + 0.5) / fps and duration frames / fps stays finite
MIN_FPS = 1e-6


def check_fps(fps: float, video_id: str | None = None) -> None:
    """The one frame-rate check, for every fps a video, file or command carries."""
    if not (math.isfinite(fps) and fps >= MIN_FPS):
        where = "" if video_id is None else f"{video_id}: "
        raise ValueError(f"{where}fps must be finite and positive (at least {MIN_FPS:g}), got {fps}")


def check_video_size(num_frames: int, stage_dims: Sequence[int]) -> None:
    """A synthetic video has at least one frame, and its float64 features
    fit in physical memory."""
    if num_frames < 1:
        raise ValueError(f"frames must be >= 1, got {num_frames}")
    check_fits_in_memory(8 * num_frames * sum(stage_dims),
                         f"a video of {num_frames} frames at stage_dims {tuple(stage_dims)}")


# the lowest signal-to-noise ratio: the noise std 1/snr stays a million times
# below the float32 maximum, so a feature many sigmas out still fits float32
MIN_SNR = 1e-30


def check_snr(snr: float | None) -> None:
    if snr is not None and not snr >= MIN_SNR:
        raise ValueError(f"snr must be positive (at least {MIN_SNR:g}, or None for noiseless), got {snr}")


@dataclass
class ModelConfig:
    """Structural hyperparameters; neighbor_radius is `neighbor_radius_for(fps)`
    of the data the model is built for (one second of neighbors per side)."""

    stage_dims: tuple[int, ...] = (256, 512, 1024, 2048)
    branch_count: int = 4
    decoder_blocks: int = 3
    d_out: int = 256
    d_head: int = 128
    neighbor_radius: int = 5
    use_residual: bool = True

    def __post_init__(self):
        self.stage_dims = tuple(int(d) for d in self.stage_dims)
        if not self.stage_dims or any(d < 1 for d in self.stage_dims):
            raise ValueError(f"stage_dims must be positive, got {self.stage_dims}")
        for name in ("branch_count", "d_out", "d_head", "neighbor_radius"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.decoder_blocks < 0:
            raise ValueError("decoder_blocks must be >= 0")


def neighbor_radius_for(fps: float) -> int:
    """The one fps -> radius rule: a model trains with it and scores the fps that map to its radius."""
    return max(1, round(fps))


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr_peak: float = 4e-4
    lr_final: float = 4e-6
    warmup_epochs: int = 2
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("warmup_epochs", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # epochs == 0 means "initialize only" and skips the schedule entirely
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError(f"warmup_epochs {self.warmup_epochs} must be < epochs {self.epochs}")
        if not 0 < self.lr_final < self.lr_peak < math.inf:
            raise ValueError(f"need 0 < lr_final < lr_peak < inf, got {self.lr_final} / {self.lr_peak}")
