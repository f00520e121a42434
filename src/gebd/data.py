"""Feature streams and annotations: binary IO, synthetic generation, labels, clips.

Feature file layout (little endian, bit-exact):
    magic "GEBF" | u32 version=1 | u32 T | u32 num_stages |
    num_stages x u32 channel dims | per stage a row-major f32 block of T*d values.
A loaded feature file's stages are read-only float32 views of its bytes, which
a float32 model reads without a copy.

Annotation files are UTF-8 JSON arrays of
    {"video_id": str, "duration": seconds, "fps": number, "boundaries": [seconds]}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .util import (
    BlockReader,
    atomic_write_text,
    check_fits_in_memory,
    json_number,
    json_numbers,
    json_str,
    read_json,
    write_blocks,
)

FEATURE_MAGIC = b"GEBF"
FEATURE_VERSION = 1


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
class VideoFeatures:
    """Per-video bundle of per-stage T x d_k feature matrices. A float32
    stage array is kept as it is (a loaded feature file's read-only view of
    its bytes); any other input becomes float64."""

    video_id: str
    fps: float
    stages: list[np.ndarray]

    def __post_init__(self):
        check_fps(self.fps, self.video_id)
        if not self.stages:
            raise ValueError(f"{self.video_id}: at least one feature stage required")
        self.stages = [s if isinstance(s, np.ndarray) and s.dtype == np.float32
                       else np.asarray(s, dtype=np.float64) for s in self.stages]
        t = self.stages[0].shape[0]
        for k, s in enumerate(self.stages):
            if s.ndim != 2 or s.shape[0] != t or s.shape[0] < 1 or s.shape[1] < 1:
                raise ValueError(f"{self.video_id}: stage {k} has shape {s.shape}, expected ({t}, d>=1)")

    @property
    def num_frames(self) -> int:
        return self.stages[0].shape[0]

    @property
    def stage_dims(self) -> tuple[int, ...]:
        return tuple(s.shape[1] for s in self.stages)


@dataclass
class Annotation:
    """Ground-truth boundary timestamps for one video."""

    video_id: str
    duration: float
    boundaries: tuple[float, ...]
    fps: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"{self.video_id}: duration must be finite and positive, got {self.duration}")
        check_fps(self.fps, self.video_id)
        self.boundaries = tuple(float(b) for b in self.boundaries)
        for i, b in enumerate(self.boundaries):
            if not 0 <= b < self.duration:
                raise ValueError(f"{self.video_id}: boundary {b} outside [0, {self.duration})")
            if i > 0 and b <= self.boundaries[i - 1]:
                raise ValueError(f"{self.video_id}: boundaries must be strictly increasing")


@dataclass
class Clip:
    """A contiguous frame window sliced out of a parent video."""

    video_id: str
    start_frame: int
    end_frame: int
    stages: list[np.ndarray]
    fps: float

    @property
    def num_frames(self) -> int:
        return self.end_frame - self.start_frame


def save_features(path: str | Path, video: VideoFeatures) -> None:
    dims = video.stage_dims
    header = (FEATURE_VERSION, video.num_frames, len(dims), *dims)
    write_blocks(path, FEATURE_MAGIC, header, video.stages)


def load_features(path: str | Path, fps: float, video_id: str | None = None) -> VideoFeatures:
    """Read a feature file; fps travels with annotations, so callers supply it.

    Each stage is a read-only float32 view of the file bytes, not a copy.
    The bytes are read into memory, not mapped as `load_checkpoint` maps a
    checkpoint: training holds every video's stages for the whole run, and a
    mapping would hold one file descriptor per video while any view lives.
    """
    path = Path(path)
    reader = BlockReader(path.read_bytes(), path, FEATURE_MAGIC, FEATURE_VERSION)
    t = reader.u32("frame count")
    if t < 1:
        raise ValueError(f"{path}: frame count must be >= 1 at offset 8")
    num_stages = reader.u32("stage count")
    if num_stages < 1:
        raise ValueError(f"{path}: stage count must be >= 1 at offset 12")
    dims = []
    for k in range(num_stages):
        d = reader.u32(f"stage {k} channel dim")
        if d < 1:
            raise ValueError(f"{path}: stage {k} channel dim must be >= 1 at offset {reader.offset - 4}")
        dims.append(d)
    stages = [reader.f32((t, d), f"stage {k} payload") for k, d in enumerate(dims)]
    reader.finish()
    return VideoFeatures(video_id or path.stem, fps, stages)


def synth_video(
    seed: int,
    num_frames: int,
    fps: float,
    stage_dims: Sequence[int],
    boundary_times: Sequence[float],
    snr: float | None = 4.0,
    video_id: str | None = None,
) -> tuple[VideoFeatures, Annotation]:
    """Piecewise-constant segment latents plus Gaussian noise, per stage.

    Each inter-boundary segment draws one unit-normal latent vector per
    stage; frame features are that latent plus noise of std 1/snr
    (snr=None means noiseless). Deterministic in the seed.
    """
    check_video_size(num_frames, stage_dims)
    check_fps(fps)
    check_snr(snr)
    duration = num_frames / fps
    bts = [float(b) for b in boundary_times]
    for i, b in enumerate(bts):
        if not 0 < b < duration:
            raise ValueError(f"boundary {b} outside (0, {duration})")
        if i > 0 and b <= bts[i - 1]:
            raise ValueError("boundary times must be strictly increasing")

    rng = np.random.default_rng(seed)
    centers = (np.arange(num_frames) + 0.5) / fps
    segment = np.searchsorted(np.asarray(bts), centers, side="right")
    noise_std = 0.0 if snr is None else 1.0 / snr
    stages = []
    for d in stage_dims:
        if d < 1:
            raise ValueError(f"stage dims must be positive, got {d}")
        latents = rng.standard_normal((len(bts) + 1, int(d)))
        feats = latents[segment]
        if noise_std > 0:
            feats = feats + noise_std * rng.standard_normal((num_frames, int(d)))
        else:
            feats = feats.copy()
        stages.append(feats)
    vid = video_id if video_id is not None else f"synth{seed:06d}"
    return VideoFeatures(vid, fps, stages), Annotation(vid, duration, tuple(bts), fps)


def random_boundary_times(rng: np.random.Generator, duration: float, count: int,
                          min_gap: float) -> list[float]:
    """Boundary times separated by >= min_gap from each other and both video edges."""
    if count == 0:
        return []
    if not (count + 1) * min_gap <= duration:
        raise ValueError(f"cannot fit {count} boundaries with gap {min_gap} in {duration}s")
    if not (math.isfinite(duration) and math.isfinite(min_gap) and min_gap >= 0):
        raise ValueError(f"duration and gap must be finite and the gap >= 0, got {duration}s and {min_gap}s")
    for _ in range(1000):
        pts = np.sort(rng.uniform(min_gap, duration - min_gap, size=count))
        if count == 1 or np.all(np.diff(pts) >= min_gap):
            return [float(p) for p in pts]
    # rejection stalled (tightly packed); fall back to even spacing, still valid
    return [duration * (i + 1) / (count + 1) for i in range(count)]


def nearest_frame(timestamp: float, fps: float, num_frames: int) -> int:
    """Frame whose center (f+0.5)/fps is nearest; exact ties go to the earlier frame."""
    x = round(timestamp * fps, 9)  # shave float dust so exact ties resolve as ties
    f = math.ceil(x) - 1
    return min(max(f, 0), num_frames - 1)


def check_positive_radius(positive_radius_frames: int) -> None:
    if positive_radius_frames < 0:
        raise ValueError(f"positive_radius_frames must be >= 0, got {positive_radius_frames}")


def frame_labels(annotation: Annotation, num_frames: int, fps: float,
                 positive_radius_frames: int) -> np.ndarray:
    """0/1 target per frame: nearest frame to each boundary, widened by the radius."""
    check_positive_radius(positive_radius_frames)
    labels = np.zeros(num_frames)
    for b in annotation.boundaries:
        f = nearest_frame(b, fps, num_frames)
        lo = max(0, f - positive_radius_frames)
        hi = min(num_frames, f + positive_radius_frames + 1)
        labels[lo:hi] = 1.0
    return labels


def check_clip_settings(clip_seconds: float, overlap_seconds: float) -> None:
    """The clip settings `split_clips` takes: finite clip_seconds > overlap_seconds >= 0."""
    if not (math.isfinite(clip_seconds) and clip_seconds > overlap_seconds >= 0):
        raise ValueError(f"clip settings must be finite with clip_seconds > overlap_seconds >= 0, "
                         f"got {clip_seconds}/{overlap_seconds}")


def split_clips(video: VideoFeatures, clip_seconds: float, overlap_seconds: float) -> list[Clip]:
    """Cover the video with fixed-length windows at stride clip-overlap.

    The final window ends exactly at the last frame, overlapping more than
    the nominal stride when the length is not a multiple of it. A clip's
    stages are row slices of the video's stage arrays, not copies.
    """
    check_clip_settings(clip_seconds, overlap_seconds)
    t = video.num_frames
    clip_frames = clip_seconds * video.fps  # the stride spans no more, so it is finite when this is
    if not math.isfinite(clip_frames):
        raise ValueError(f"a clip of {clip_seconds}s at {video.fps} fps spans more frames than a float holds")
    clip_len = round(clip_frames)
    stride = round((clip_seconds - overlap_seconds) * video.fps)
    if clip_len < 1 or stride < 1:
        raise ValueError("clip and stride must each span at least one frame")
    if t <= clip_len:
        starts = [0]
        clip_len = t
    else:
        starts = list(range(0, t - clip_len + 1, stride))
        if starts[-1] + clip_len < t:
            starts.append(t - clip_len)
    return [
        Clip(
            video.video_id,
            s,
            s + clip_len,
            [stage[s:s + clip_len] for stage in video.stages],
            video.fps,
        )
        for s in starts
    ]


def save_annotations(path: str | Path, annotations: Iterable[Annotation]) -> None:
    records = [
        {
            "video_id": a.video_id,
            "duration": a.duration,
            "fps": a.fps,
            "boundaries": list(a.boundaries),
        }
        for a in annotations
    ]
    atomic_write_text(path, json.dumps(records, indent=2) + "\n")


def load_annotations(path: str | Path) -> dict[str, Annotation]:
    records = read_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of annotation records")
    out: dict[str, Annotation] = {}
    for i, rec in enumerate(records):
        try:
            ann = Annotation(
                video_id=json_str(rec["video_id"], "video_id"),
                duration=json_number(rec["duration"], "duration"),
                boundaries=tuple(json_numbers(rec["boundaries"], "boundaries")),
                fps=json_number(rec["fps"], "fps"),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: annotations[{i}]: {e}") from e
        if ann.video_id in out:
            raise ValueError(f"{path}: annotations[{i}]: duplicate video_id {ann.video_id!r}")
        out[ann.video_id] = ann
    return out
