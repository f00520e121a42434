"""Seeded benchmark inputs, built only from public `gebd` functions.

Usage: python3 perfbench/corpus.py WORKLOAD SEED OUT_DIR

Writes the workload's corpora (and the infer-paper checkpoint) under OUT_DIR
plus OUT_DIR/inputs.json describing them. It runs as its own process so the
benchmark process stays small: a child forked from it would otherwise count
the generator's memory in its own peak RSS.

Every video is made of 10-second chunks that carry 3-6 planted boundaries
each, the way `gebd synth` plants them in one T=50 video at 5 fps, so the
long videos share the boundary density the recipe model is trained on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from gebd import data
from gebd.model import GebdModel, ModelConfig, save_checkpoint

FPS = 5.0
CHUNK_FRAMES = 50
SNR = 1.0
SMALL_DIMS = (32, 32, 32, 32)
PAPER_DIMS = (256, 512, 1024, 2048)
PAPER_MODEL = ModelConfig(stage_dims=PAPER_DIMS, d_out=256, d_head=128, neighbor_radius=round(FPS))

RECIPE_TRAIN_VIDEOS = 200
RECIPE_HELDOUT_VIDEOS = 200

# Disjoint video-seed ranges per corpus, so no two corpora share a video.
TRAIN, HELDOUT, LONG, PAPER = range(4)


def _boundary_times(rng: np.random.Generator, num_frames: int, counts: tuple) -> list[float]:
    chunk_seconds = CHUNK_FRAMES / FPS
    times = []
    for start in range(0, num_frames, CHUNK_FRAMES):
        count = int(rng.integers(counts[0], counts[1] + 1))
        offset = start / FPS
        times += [offset + t for t in data.random_boundary_times(rng, chunk_seconds, count, 1.0)]
    return times


def write_corpus(out: Path, seed: int, kind: int, lengths: list[int], stage_dims,
                 counts: tuple = (3, 6)) -> int:
    """Write one .gebf per video plus annotations.json; returns total frames.

    `counts` bounds the boundaries planted per 10-second chunk.
    """
    out.mkdir(parents=True)
    annotations = []
    for i, num_frames in enumerate(lengths):
        if num_frames % CHUNK_FRAMES:
            raise ValueError(f"video length {num_frames} is not a multiple of {CHUNK_FRAMES}")
        video_seed = seed * 1_000_000 + kind * 100_000 + i
        times = _boundary_times(np.random.default_rng((video_seed, 1)), num_frames, counts)
        video, ann = data.synth_video(video_seed, num_frames, FPS, stage_dims, times,
                                      snr=SNR, video_id=f"video{i:05d}")
        data.save_features(out / f"{video.video_id}.gebf", video)
        annotations.append(ann)
    data.save_annotations(out / "annotations.json", annotations)
    return sum(lengths)


def long_lengths(seed: int, count: int = 24, lo_chunks: int = 30, hi_chunks: int = 90) -> list[int]:
    """Stratified lengths in [lo, hi) chunks (1500-4450 frames by default), longest first.

    One draw per stratum keeps the total frame count, and so the work of a
    run, nearly the same for every seed while each length stays random.
    Longest-first order (files are scored in name order) keeps the tail of
    the per-video worker pool, and which videos overlap in memory, the same
    from seed to seed.
    """
    rng = np.random.default_rng((seed, LONG))
    span = hi_chunks - lo_chunks
    chunks = lo_chunks + np.floor(span * (np.arange(count) + rng.uniform(size=count)) / count)
    return [int(c) * CHUNK_FRAMES for c in chunks[::-1]]


def write_paper_checkpoint(path: Path) -> None:
    """Untrained checkpoint at the paper's stage dims (~363 MB), seeded with 0.

    The model stays the same for every benchmark seed, so its F1 (a drift
    check only) moves with the scored videos alone.
    """
    save_checkpoint(path, GebdModel.build(PAPER_MODEL, seed=0))


def build(workload: str, seed: int, out: Path) -> dict:
    """Write a workload's inputs; paths in the result are relative to `out`."""
    if workload == "infer-paper":
        write_paper_checkpoint(out / "paper.gebw")
        # A fixed boundary count keeps the untrained model's F1 (a drift check) steady across seeds.
        frames = write_corpus(out / "paper", seed, PAPER, [500, 500], PAPER_DIMS, counts=(5, 5))
        return {"score": "paper", "frames": frames, "checkpoint": "paper.gebw"}
    write_corpus(out / "train", seed, TRAIN, [CHUNK_FRAMES] * RECIPE_TRAIN_VIDEOS, SMALL_DIMS)
    if workload == "recipe":
        frames = write_corpus(out / "heldout", seed, HELDOUT, [CHUNK_FRAMES] * RECIPE_HELDOUT_VIDEOS,
                              SMALL_DIMS)
        return {"score": "heldout", "frames": frames, "train": "train"}
    if workload == "infer-long":
        frames = write_corpus(out / "long", seed, LONG, long_lengths(seed), SMALL_DIMS)
        return {"score": "long", "frames": frames, "train": "train"}
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    layout = build(workload, seed, out)
    (out / "inputs.json").write_text(json.dumps(layout) + "\n")
