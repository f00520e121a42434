"""Score post-processing: Gaussian smoothing, peak picking, clip-score merging.

Frame f carries the timestamp (f + 0.5) / fps everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Clip, check_fps
from .util import atomic_write_text, json_number, json_numbers, json_str, read_json

PEAK_THRESHOLD = 0.1
PEAK_NEIGHBOR_SECONDS = 0.5


@dataclass
class BoundaryScores:
    """Length-T per-frame boundary score signal.

    Raw model scores lie in (0, 1); merged clip scores may exceed 1 because
    overlapping windows are summed, never renormalized.
    """

    video_id: str
    fps: float
    scores: np.ndarray
    smoothed: bool = False

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1 or len(self.scores) < 1:
            raise ValueError(f"{self.video_id}: scores must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError(f"{self.video_id}: scores must be finite")
        check_fps(self.fps, self.video_id)


@dataclass
class DetectionList:
    """Sorted boundary timestamps (seconds) emitted for one video."""

    video_id: str
    timestamps: list[float]

    def __post_init__(self):
        self.timestamps = [float(t) for t in self.timestamps]
        if not all(math.isfinite(t) for t in self.timestamps):
            raise ValueError(f"{self.video_id}: timestamps must be finite")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ValueError(f"{self.video_id}: timestamps must be strictly increasing")


def smoothing_window(fps: float) -> int:
    """Frames in one second, forced odd so the filter stays centered."""
    check_fps(fps)
    return 2 * int(math.floor(fps / 2)) + 1


def smoothing_taps(fps: float) -> np.ndarray:
    """Normalized Gaussian taps (sigma = 1 frame) over the one-second window."""
    half = smoothing_window(fps) // 2
    j = np.arange(-half, half + 1)
    taps = np.exp(-0.5 * j * j)
    return taps / taps.sum()


@lru_cache(maxsize=64)
def smoothing_matrix(num_frames: int, fps: float) -> np.ndarray:
    """Dense T x T form of `smooth_frames`, kept as the reference tests compare
    against; edge rows renormalize over the in-range taps. The package itself
    never builds it: at T = 6000 one matrix is 288 MB.
    """
    taps = smoothing_taps(fps)
    half = len(taps) // 2
    m = np.zeros((num_frames, num_frames))
    for t in range(num_frames):
        lo = max(0, t - half)
        hi = min(num_frames, t + half + 1)
        seg = taps[lo - t + half:hi - t + half]
        m[t, lo:hi] = seg / seg.sum()
    m.setflags(write=False)
    return m


def _correlate_frames(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-padded correlation with symmetric `taps` along axis 0, length len(x).

    The full convolution has len(x) + 2 * half samples for any len(x), so the
    centered slice stays exact when len(x) is shorter than the taps.
    """
    half, t = len(taps) // 2, len(x)
    cols = x.reshape(t, -1)
    out = np.empty(cols.shape)
    for k in range(cols.shape[1]):
        out[:, k] = np.convolve(cols[:, k], taps)[half:half + t]
    return out.reshape(x.shape)


def smooth_frames(x: np.ndarray, fps: float, adjoint: bool = False) -> np.ndarray:
    """Gaussian smoothing along the frame axis in O(T x taps) time and O(T)
    extra memory per column. Frames are axis 0 of a 1-D signal and axis -2
    otherwise, so (T,), (T, d) and a (B, T, d) batch all work; every column
    is smoothed on its own.

    The zero-padded correlation with `smoothing_taps(fps)` is divided by the
    same correlation of a vector of ones, so edge frames renormalize over
    their in-range taps. adjoint=True applies the transpose instead, which is
    the same correlation of x / norm because the taps are symmetric.
    """
    taps = smoothing_taps(fps)
    frames = np.moveaxis(x, -2, 0) if x.ndim > 1 else x
    norm = _correlate_frames(np.ones(len(frames)), taps).reshape((-1,) + (1,) * (x.ndim - 1))
    if adjoint:
        out = _correlate_frames(frames / norm, taps)
    else:
        out = _correlate_frames(frames, taps) / norm
    return np.moveaxis(out, 0, -2) if x.ndim > 1 else out


def gaussian_smooth(s: BoundaryScores) -> BoundaryScores:
    """Smoothed copy of a score signal (see `smooth_frames`)."""
    smoothed = smooth_frames(s.scores, s.fps)
    return BoundaryScores(s.video_id, s.fps, smoothed, smoothed=True)


def pick_peaks(
    s: BoundaryScores,
    threshold: float = PEAK_THRESHOLD,
    neighbor_seconds: float = PEAK_NEIGHBOR_SECONDS,
) -> DetectionList:
    """Frames that top every neighbor within the window and clear the threshold.

    On a plateau of equal window-maxima only the earliest frame fires.
    """
    x = s.scores
    w = int(math.floor(neighbor_seconds * s.fps + 1e-9))
    window_max = sliding_window_view(np.pad(x, w, constant_values=-np.inf), 2 * w + 1).max(axis=1)
    candidate = (x > threshold) & (x >= window_max)
    fires = candidate.copy()
    fires[1:] &= ~(candidate[:-1] & (x[:-1] == x[1:]))
    return DetectionList(s.video_id, ((np.flatnonzero(fires) + 0.5) / s.fps).tolist())


def merge_clip_scores(scored_clips: list[tuple[Clip, BoundaryScores]]) -> BoundaryScores:
    """Sum overlapping clip scores onto the parent frame range.

    Sums are kept as-is (no renormalization); any uncovered parent frame is
    a coverage gap and an error.
    """
    if not scored_clips:
        raise ValueError("merge_clip_scores: no clips")
    vid = scored_clips[0][0].video_id
    fps = scored_clips[0][0].fps
    smoothed = scored_clips[0][1].smoothed
    parent_len = max(clip.end_frame for clip, _ in scored_clips)
    total = np.zeros(parent_len)
    covered = np.zeros(parent_len, dtype=int)
    for clip, sc in scored_clips:
        if clip.video_id != vid:
            raise ValueError(f"merge_clip_scores: mixed videos {vid!r} and {clip.video_id!r}")
        if clip.fps != fps or sc.fps != fps:
            raise ValueError("merge_clip_scores: clips must share fps")
        if sc.smoothed != smoothed:
            raise ValueError("merge_clip_scores: mixed smoothed and raw clip scores")
        if len(sc.scores) != clip.num_frames:
            raise ValueError(
                f"merge_clip_scores: clip [{clip.start_frame}, {clip.end_frame}) has "
                f"{len(sc.scores)} scores"
            )
        total[clip.start_frame:clip.end_frame] += sc.scores
        covered[clip.start_frame:clip.end_frame] += 1
    gaps = np.flatnonzero(covered == 0)
    if gaps.size:
        raise ValueError(f"merge_clip_scores: coverage gap at frames {gaps[:8].tolist()}")
    return BoundaryScores(vid, fps, total, smoothed=smoothed)


def save_scores(path: str | Path, s: BoundaryScores) -> None:
    rec = {
        "video_id": s.video_id,
        "fps": s.fps,
        "scores": [float(v) for v in s.scores],
        "smoothed": s.smoothed,
    }
    atomic_write_text(path, json.dumps(rec) + "\n")


def load_scores(path: str | Path) -> BoundaryScores:
    rec = read_json(path)
    try:
        if not isinstance(rec["smoothed"], bool):
            raise ValueError("smoothed must be a JSON bool")
        return BoundaryScores(
            json_str(rec["video_id"], "video_id"), json_number(rec["fps"], "fps"),
            json_numbers(rec["scores"], "scores"), rec["smoothed"],
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: invalid score file: {e}") from e


def save_detections(path: str | Path, d: DetectionList) -> None:
    rec = {"video_id": d.video_id, "timestamps": d.timestamps}
    atomic_write_text(path, json.dumps(rec) + "\n")


def load_detections(path: str | Path) -> DetectionList:
    rec = read_json(path)
    try:
        return DetectionList(json_str(rec["video_id"], "video_id"),
                             json_numbers(rec["timestamps"], "timestamps"))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: invalid detection file: {e}") from e
