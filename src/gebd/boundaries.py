"""Boundary timestamps and their JSON files, in the standard library only:
a video's ground-truth annotation and its detections. The package API
takes them from here; only `save_annotations` is importable from `data`
too, for `perfbench/corpus.py`.

Annotation files are UTF-8 JSON arrays of
    {"video_id": str, "duration": seconds, "fps": number, "boundaries": [seconds]};
a detection file is one {"video_id": str, "timestamps": [seconds]} object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .config import check_fps
from .util import atomic_write_text, json_number, json_numbers, json_str, read_json


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
