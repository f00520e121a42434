"""Feature streams: the f32 block container, binary IO, synthetic generation,
labels, clip spans.

Feature file layout (little endian, bit-exact):
    magic "GEBF" | u32 version=1 | u32 T | u32 num_stages |
    num_stages x u32 channel dims | per stage a row-major f32 block of T*d values.
A loaded feature file's stages are read-only float32 views of its bytes, which
a float32 model reads without a copy.
The checkpoint (`model`) is the same container under its own magic.

Annotations and their files (`boundaries`) and the setting checks
(`config`) need no numpy and live there.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# save_annotations is only re-exported: perfbench/corpus.py, its one reader, imports it from here
from .boundaries import Annotation, save_annotations  # noqa: F401
from .config import check_clip_settings, check_fps, check_snr, check_video_size
from .util import atomic_writer

FEATURE_MAGIC = b"GEBF"
FEATURE_VERSION = 1


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


def write_blocks(path: str | Path, magic: bytes, header: Sequence[int],
                 blocks: Sequence[np.ndarray]) -> None:
    """Write the container `BlockReader` reads: magic, the u32 header fields
    (version first), then each block as row-major little-endian f32.

    Each block is written as soon as it is checked, so a save holds at most
    one block's f32 cast, never the whole file. A block that is not finite as
    f32 (a NaN or inf, or a finite value past the f32 range) is a ValueError
    and `path` is left untouched: `BlockReader` would reject the file."""
    with atomic_writer(path) as f:
        f.write(magic + struct.pack(f"<{len(header)}I", *header))
        for i, b in enumerate(blocks):
            with np.errstate(over="ignore"):
                f32 = np.ascontiguousarray(b, dtype="<f4")
            if not np.all(np.isfinite(f32)):
                raise ValueError(f"{path}: block {i} holds values that are not finite as float32")
            f.write(f32)


def map_read_only(path: str | Path) -> bytes | mmap.mmap:
    """The contents of the file at `path` as a read-only shared mapping of
    the page cache, not a copy; an empty file, which cannot be mapped, is b"".
    The mapping holds one file descriptor until it is dropped. It sees later
    writes to the same file, and a read past an end truncated since raises
    SIGBUS, so a mapped file is replaced by rename, never rewritten in place."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


class BlockReader:
    """Reader of the GEBF/GEBW container in `raw`, the bytes of the file at
    `path` (which names it in messages): magic, u32 version, u32 header
    fields, f32 blocks, nothing after them. Each read checks that it fits in
    `raw` before it allocates, and names the field and offset if not.

    `raw` is `bytes` or a read-only mapping (`map_read_only`), and each block
    is a view into it: a mapping stays open, with its file descriptor, while
    any block lives."""

    def __init__(self, raw: bytes | mmap.mmap, path: str | Path, magic: bytes, version: int):
        self.path = Path(path)
        self.raw = raw
        if self.raw[0:4] != magic:
            raise ValueError(f"{self.path}: bad magic at offset 0, expected {magic!r}")
        self.offset = 4
        found = self.u32("version")
        if found != version:
            raise ValueError(f"{self.path}: unsupported version {found} at offset 4")

    def u32(self, what: str) -> int:
        """The next little-endian u32 header field."""
        if self.offset + 4 > len(self.raw):
            raise ValueError(f"{self.path}: truncated while reading {what} at offset {self.offset}")
        value = struct.unpack_from("<I", self.raw, self.offset)[0]
        self.offset += 4
        return value

    def f32(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next block as a read-only little-endian float32 view of `shape`
        into `raw` (no copy); rejects a block that does not fit in the file
        or holds non-finite values."""
        count = math.prod(shape)
        have = len(self.raw) - self.offset
        if 4 * count > have:
            raise ValueError(
                f"{self.path}: truncated {what} at offset {self.offset}: "
                f"need {4 * count} bytes, have {have}"
            )
        block = np.frombuffer(self.raw, dtype="<f4", count=count, offset=self.offset)
        if not np.all(np.isfinite(block)):
            raise ValueError(f"{self.path}: non-finite values in {what} at offset {self.offset}")
        self.offset += 4 * count
        return block.reshape(shape)

    def finish(self) -> None:
        """Reject bytes left after the last block."""
        if self.offset != len(self.raw):
            raise ValueError(
                f"{self.path}: {len(self.raw) - self.offset} trailing bytes at offset {self.offset}"
            )


def save_features(path: str | Path, video: VideoFeatures) -> None:
    dims = video.stage_dims
    header = (FEATURE_VERSION, video.num_frames, len(dims), *dims)
    write_blocks(path, FEATURE_MAGIC, header, video.stages)


def load_features(path: str | Path, fps: float) -> VideoFeatures:
    """Read a feature file, named by its stem; fps travels with annotations,
    so callers supply it.

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
    return VideoFeatures(path.stem, fps, stages)


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
    """Boundary times separated by >= min_gap from each other and both video
    edges. The duration and gap are checked even when there are no boundaries."""
    if not (math.isfinite(duration) and math.isfinite(min_gap) and min_gap >= 0):
        raise ValueError(f"duration and gap must be finite and the gap >= 0, got {duration}s and {min_gap}s")
    if count == 0:
        return []
    if not (count + 1) * min_gap <= duration:
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


def frame_labels(annotation: Annotation, num_frames: int, fps: float,
                 positive_radius_frames: int) -> np.ndarray:
    """0/1 target per frame: nearest frame to each boundary, widened by the radius."""
    if positive_radius_frames < 0:
        raise ValueError(f"positive_radius_frames must be >= 0, got {positive_radius_frames}")
    labels = np.zeros(num_frames)
    for b in annotation.boundaries:
        f = nearest_frame(b, fps, num_frames)
        lo = max(0, f - positive_radius_frames)
        hi = min(num_frames, f + positive_radius_frames + 1)
        labels[lo:hi] = 1.0
    return labels


def split_clips(video: VideoFeatures, clip_seconds: float, overlap_seconds: float) -> list[tuple[int, int]]:
    """The `(start, end)` frame spans of fixed-length clips that cover the
    video at stride clip-overlap; a video no longer than a clip is one span.

    The final span ends exactly at the last frame, overlapping more than
    the nominal stride when the length is not a multiple of it.
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
        return [(0, t)]
    starts = list(range(0, t - clip_len + 1, stride))
    if starts[-1] + clip_len < t:
        starts.append(t - clip_len)
    return [(s, s + clip_len) for s in starts]
