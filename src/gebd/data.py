"""Feature streams and annotations: binary IO, synthetic generation, labels, clips.

Feature file layout (little endian, bit-exact):
    magic "GEBF" | u32 version=1 | u32 T | u32 num_stages |
    num_stages x u32 channel dims | per stage a row-major f32 block of T*d values.

Annotation files are UTF-8 JSON arrays of
    {"video_id": str, "duration": seconds, "fps": number, "boundaries": [seconds]}.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .util import atomic_write_bytes, atomic_write_text, read_u32

FEATURE_MAGIC = b"GEBF"
FEATURE_VERSION = 1
DEFAULT_STAGE_DIMS = (256, 512, 1024, 2048)


@dataclass
class VideoFeatures:
    """Per-video bundle of per-stage T x d_k feature matrices."""

    video_id: str
    fps: float
    stages: list[np.ndarray]

    def __post_init__(self):
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"{self.video_id}: fps must be finite and positive, got {self.fps}")
        if not self.stages:
            raise ValueError(f"{self.video_id}: at least one feature stage required")
        self.stages = [np.asarray(s, dtype=np.float64) for s in self.stages]
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
    fps: float = 5.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"{self.video_id}: duration must be positive")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"{self.video_id}: fps must be finite and positive, got {self.fps}")
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
    t = video.num_frames
    dims = video.stage_dims
    parts = [
        FEATURE_MAGIC,
        struct.pack("<III", FEATURE_VERSION, t, len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
    ]
    for s in video.stages:
        parts.append(np.ascontiguousarray(s, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_features(path: str | Path, fps: float = 5.0, video_id: str | None = None) -> VideoFeatures:
    """Read a feature file; fps travels with annotations, so callers supply it."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[0:4] != FEATURE_MAGIC:
        raise ValueError(f"{path}: bad magic at offset 0, expected {FEATURE_MAGIC!r}")
    version = read_u32(raw, 4, path, "version")
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported version {version} at offset 4")
    t = read_u32(raw, 8, path, "frame count")
    if t < 1:
        raise ValueError(f"{path}: frame count must be >= 1 at offset 8")
    num_stages = read_u32(raw, 12, path, "stage count")
    if num_stages < 1:
        raise ValueError(f"{path}: stage count must be >= 1 at offset 12")
    dims = []
    offset = 16
    for k in range(num_stages):
        d = read_u32(raw, offset, path, f"stage {k} channel dim")
        if d < 1:
            raise ValueError(f"{path}: stage {k} channel dim must be >= 1 at offset {offset}")
        dims.append(d)
        offset += 4
    stages = []
    for k, d in enumerate(dims):
        need = t * d * 4
        if offset + need > len(raw):
            raise ValueError(
                f"{path}: truncated stage {k} payload at offset {offset}: "
                f"need {need} bytes, have {len(raw) - offset}"
            )
        block = np.frombuffer(raw, dtype="<f4", count=t * d, offset=offset)
        block = block.astype(np.float64).reshape(t, d)
        if not np.all(np.isfinite(block)):
            raise ValueError(f"{path}: non-finite values in stage {k} payload at offset {offset}")
        stages.append(block)
        offset += need
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes at offset {offset}")
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
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    if fps <= 0:
        raise ValueError("fps must be positive")
    if snr is not None and snr <= 0:
        raise ValueError("snr must be positive (or None for noiseless)")
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


def random_boundary_times(
    rng: np.random.Generator, duration: float, count: int, min_gap: float = 1.0
) -> list[float]:
    """Boundary times separated by >= min_gap from each other and both video edges."""
    if count == 0:
        return []
    if (count + 1) * min_gap > duration:
        raise ValueError(f"cannot fit {count} boundaries with gap {min_gap} in {duration}s")
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


def frame_labels(
    annotation: Annotation, num_frames: int, fps: float, positive_radius_frames: int = 1
) -> np.ndarray:
    """0/1 target per frame: nearest frame to each boundary, widened by the radius."""
    if positive_radius_frames < 0:
        raise ValueError("positive_radius_frames must be >= 0")
    labels = np.zeros(num_frames)
    for b in annotation.boundaries:
        f = nearest_frame(b, fps, num_frames)
        lo = max(0, f - positive_radius_frames)
        hi = min(num_frames, f + positive_radius_frames + 1)
        labels[lo:hi] = 1.0
    return labels


def split_clips(
    video: VideoFeatures, clip_seconds: float = 10.0, overlap_seconds: float = 5.0
) -> list[Clip]:
    """Cover the video with fixed-length windows at stride clip-overlap.

    The final window ends exactly at the last frame, overlapping more than
    the nominal stride when the length is not a multiple of it.
    """
    if not clip_seconds > overlap_seconds >= 0:
        raise ValueError(f"need clip_seconds > overlap_seconds >= 0, got {clip_seconds}/{overlap_seconds}")
    t = video.num_frames
    clip_len = round(clip_seconds * video.fps)
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
            [stage[s:s + clip_len].copy() for stage in video.stages],
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
    path = Path(path)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of annotation records")
    out: dict[str, Annotation] = {}
    for i, rec in enumerate(records):
        try:
            ann = Annotation(
                video_id=str(rec["video_id"]),
                duration=float(rec["duration"]),
                boundaries=tuple(float(b) for b in rec["boundaries"]),
                fps=float(rec["fps"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: annotations[{i}]: {e}") from e
        if ann.video_id in out:
            raise ValueError(f"{path}: annotations[{i}]: duplicate video_id {ann.video_id!r}")
        out[ann.video_id] = ann
    return out
