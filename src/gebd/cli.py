"""Command line interface: synth / train / infer / eval.

Configuration comes from built-in defaults, then an optional `key = value`
config file, then command-line flags (flags win). The merged `RunConfig`
checks every setting when it is built, before a command reads a file or
makes a directory. Every run echoes the fully resolved configuration into
its output directory so it can be reproduced from the echo plus the seed.

Each command imports the modules it runs when it runs: `eval`, and the
setting checks of every command, need only the standard library, so
`gebd eval` never loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import evaluate as eval_mod
from .boundaries import load_annotations, load_detections
from .config import (
    ModelConfig,
    TrainConfig,
    check_clip_settings,
    check_fps,
    check_positive_radius,
    check_snr,
    check_video_size,
    neighbor_radius_for,
)
from .util import atomic_write_text, worker_count

if TYPE_CHECKING:
    from .model import GebdModel
    from .postprocess import BoundaryScores

PROG = "gebd"
ERROR_PREFIX = f"{PROG}: error: "
# `infer` scores consecutive feature files of at most this many bytes in all
# as one group: one `score_clips` call, which batches runs of equal length,
# and one task of its worker processes. Twenty-five 50-frame files of four
# 32-dim stages fit; a longer or wider video is a group of its own.
INFER_GROUP_BYTES = 640 * 1024


@dataclass(frozen=True)
class RunConfig:
    # synthetic data
    num_videos: int = 10
    frames: int = 50
    fps: float = float(ModelConfig.neighbor_radius)
    stage_dims: tuple[int, ...] = ModelConfig.stage_dims
    snr: float = 4.0
    min_boundaries: int = 3
    max_boundaries: int = 6
    min_gap_seconds: float = 1.0
    seed: int = 0  # also seeds the model build and training
    # model
    d_out: int = ModelConfig.d_out
    d_head: int = ModelConfig.d_head
    branch_count: int = ModelConfig.branch_count
    decoder_blocks: int = ModelConfig.decoder_blocks
    fuse_distances: bool = ModelConfig.fuse_distances
    use_residual: bool = ModelConfig.use_residual
    use_depthwise: bool = ModelConfig.use_depthwise
    # training
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr_peak: float = TrainConfig.lr_peak
    lr_final: float = TrainConfig.lr_final
    warmup_epochs: int = TrainConfig.warmup_epochs
    smooth_training: bool = TrainConfig.smooth_training
    positive_radius_frames: int = 1
    # inference
    smooth_inference: bool = True
    clip_mode: bool = False
    clip_seconds: float = 10.0
    overlap_seconds: float = 5.0
    # evaluation
    taus: tuple[float, ...] = eval_mod.DEFAULT_TAUS
    eval_average: str = "micro"

    def __post_init__(self):
        """Check every setting, each by the rule of the field's owner; only
        the synth counts, the gap and the seed have their rules here."""
        if self.num_videos < 1:
            raise ValueError(f"num_videos must be >= 1, got {self.num_videos}")
        if not 0 <= self.min_boundaries <= self.max_boundaries:
            raise ValueError(f"need 0 <= min_boundaries <= max_boundaries, "
                             f"got {self.min_boundaries}/{self.max_boundaries}")
        if not (math.isfinite(self.min_gap_seconds) and self.min_gap_seconds >= 0):
            raise ValueError(f"min_gap_seconds must be finite and >= 0, got {self.min_gap_seconds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_fps(self.fps)  # before the model's radius is derived from it
        worker_count()  # the environment's GEBD_THREADS, so `infer` rejects it before reading a file
        self.model_config()
        check_video_size(self.frames, self.stage_dims)
        check_snr(self.snr)
        self.train_config()
        check_positive_radius(self.positive_radius_frames)
        check_clip_settings(self.clip_seconds, self.overlap_seconds)
        try:
            eval_mod.check_sweep_settings(self.taus, self.eval_average)
        except ValueError as e:
            raise ValueError(f"taus/eval_average: {e}") from None

    def model_config(self) -> ModelConfig:
        """The model fields, with the neighbor radius of this fps."""
        return self._subset(ModelConfig, neighbor_radius=neighbor_radius_for(self.fps))

    def train_config(self) -> TrainConfig:
        return self._subset(TrainConfig)

    def _subset(self, cls, **derived):
        """A `cls` whose fields take the values of the fields of the same
        name, apart from those in `derived`."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in derived}
        return cls(**shared, **derived)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[float, ...]": _parse_float_tuple,
}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def load_config_file(path: str | Path) -> dict:
    """Parse `key = value` lines; unknown keys are rejected."""
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _FIELD_PARSERS[key](value.strip())
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The checked `RunConfig` of the defaults, then the config file, then the flags."""
    settings = load_config_file(args.config) if getattr(args, "config", None) else {}
    for name in _FIELD_PARSERS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    return RunConfig(**settings)


def _echo_config(out_dir: Path, cfg: RunConfig) -> None:
    atomic_write_text(out_dir / "run_config.txt", format_config(cfg))


def cmd_synth(args: argparse.Namespace) -> int:
    import numpy as np

    from . import data as data_mod

    cfg = resolve_config(args)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"output directory {out} is not empty (use --force to overwrite)")
    # every video's boundaries first, so a gap that does not fit fails before the directory is made
    video_ids = [f"video{i:05d}" for i in range(cfg.num_videos)]
    all_times = []
    for i, video_id in enumerate(video_ids):
        bound_rng = np.random.default_rng((cfg.seed + i, 1))
        count = int(bound_rng.integers(cfg.min_boundaries, cfg.max_boundaries + 1))
        try:
            all_times.append(data_mod.random_boundary_times(bound_rng, cfg.frames / cfg.fps, count,
                                                            cfg.min_gap_seconds))
        except ValueError as e:
            raise ValueError(f"{video_id}: min_gap_seconds: {e}") from None
    out.mkdir(parents=True, exist_ok=True)
    annotations, entries = [], []
    for i, (video_id, times) in enumerate(zip(video_ids, all_times)):
        video_seed = cfg.seed + i
        video, ann = data_mod.synth_video(
            video_seed, cfg.frames, cfg.fps, cfg.stage_dims, times,
            snr=cfg.snr, video_id=video_id,
        )
        filename = f"{video.video_id}.gebf"
        data_mod.save_features(out / filename, video)
        annotations.append(ann)
        entries.append({"video_id": video.video_id, "file": filename,
                        "seed": video_seed, "num_frames": cfg.frames, "fps": cfg.fps})
    data_mod.save_annotations(out / "annotations.json", annotations)
    manifest = {"seed": cfg.seed, "videos": entries}
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    _echo_config(out, cfg)
    print(f"wrote {cfg.num_videos} feature files to {out}")
    return 0


def _load_dataset(features_dir: Path, annotations_path: Path, cfg: RunConfig):
    from . import data as data_mod

    annotations = load_annotations(annotations_path)
    files = sorted(features_dir.glob("*.gebf"))
    if not files:
        raise ValueError(f"no .gebf feature files in {features_dir}")
    missing = [f.stem for f in files if f.stem not in annotations]
    if missing:
        raise ValueError(f"no annotations for video ids: {', '.join(missing)}")
    dataset = []
    for f in files:
        ann = annotations[f.stem]
        video = data_mod.load_features(f, fps=ann.fps)
        labels = data_mod.frame_labels(ann, video.num_frames, ann.fps, cfg.positive_radius_frames)
        dataset.append((video, labels))
    return dataset


def cmd_train(args: argparse.Namespace) -> int:
    from .model import GebdModel, save_checkpoint
    from .train import train, write_loss_curve

    cfg = resolve_config(args)
    dataset = _load_dataset(Path(args.features), Path(args.annotations), cfg)
    fps_values = {video.fps for video, _ in dataset}
    if len(fps_values) != 1:
        raise ValueError(f"training videos must share one fps, got {sorted(fps_values)}")
    dims = {video.stage_dims for video, _ in dataset}
    if len(dims) != 1:
        raise ValueError(f"training videos must share stage dims, got {sorted(dims)}")
    cfg = replace(cfg, fps=fps_values.pop(), stage_dims=dims.pop())
    model = GebdModel.build(cfg.model_config(), seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, curve = train(dataset, model, cfg.train_config())
    save_checkpoint(out / "model.gebw", model)
    write_loss_curve(out / "loss.csv", curve)
    _echo_config(out, cfg)
    final = f", final loss {curve[-1][2]:.6f}" if curve else " (no training steps)"
    print(f"saved checkpoint to {out / 'model.gebw'}{final}")
    return 0


def _score_videos(videos: list, model: GebdModel, cfg: RunConfig) -> list[BoundaryScores]:
    """Scores of consecutive videos. Each video is scored as clips: one
    clip spanning it, or in clip mode `split_clips`'s windows (a short
    video's one window spans it too). `score_clips` computes every clip,
    each with the bits it would get alone, and `merge_clip_scores`
    assembles each video's scores from its clips."""
    from . import data as data_mod
    from . import postprocess as post_mod
    from .model import score_clips

    pieces = []  # (video index, clip)
    for i, video in enumerate(videos):
        clips = (data_mod.split_clips(video, cfg.clip_seconds, cfg.overlap_seconds) if cfg.clip_mode
                 else [data_mod.Clip(video.video_id, 0, video.num_frames, video.stages, video.fps)])
        pieces += [(i, clip) for clip in clips]
    raw = score_clips(model, [clip.stages for _, clip in pieces])
    scored = [[] for _ in videos]
    for (i, clip), x in zip(pieces, raw):
        sc = post_mod.BoundaryScores(clip.video_id, clip.fps, x)
        if cfg.smooth_inference:
            sc = post_mod.gaussian_smooth(sc)
        scored[i].append((clip, sc))
    return [post_mod.merge_clip_scores(parts) for parts in scored]


def _file_groups(files: list[Path], limit: int) -> list[list[Path]]:
    """Consecutive files whose summed size stays within `limit`; a larger
    file is a group of its own."""
    groups, size = [], 0
    for f in files:
        n = f.stat().st_size
        if groups and size + n <= limit:
            groups[-1].append(f)
            size += n
        else:
            groups.append([f])
            size = n
    return groups


# The loaded model, the resolved settings and the output directory of the
# `infer` run in progress. `cmd_infer` sets them before it forks its workers,
# which inherit them: nothing large is pickled, and the mapped checkpoint
# stays one shared read-only mapping.
_infer_run: tuple[GebdModel, RunConfig, Path] | None = None


def _infer_group(group: list[Path]) -> list[int]:
    """Score one file group of the `infer` run in progress, write each
    video's scores and detections, and return its detection counts."""
    from . import data as data_mod
    from . import postprocess as post_mod
    from .model import check_features_compatible

    model, cfg, out = _infer_run
    videos = [data_mod.load_features(path, fps=cfg.fps) for path in group]
    for video in videos:
        check_features_compatible(model.config, video)
    counts = []
    for video, scores in zip(videos, _score_videos(videos, model, cfg)):
        detections = post_mod.pick_peaks(scores)
        post_mod.save_scores(out / "scores" / f"{video.video_id}.json", scores)
        post_mod.save_detections(out / "detections" / f"{video.video_id}.json", detections)
        counts.append(len(detections.timestamps))
    return counts


def cmd_infer(args: argparse.Namespace) -> int:
    """Score every feature file, its groups spread over `worker_count()`
    forked processes; with one worker nothing is forked. Forking, not
    spawning, lets each worker use the model the parent loaded. The parent
    runs no thread of its own when it forks (OpenBLAS stops its pool at a
    fork), and the pool joins every worker before this returns, whether the
    run succeeded or not. A worker's error is raised here with its message;
    a worker that dies is a `BrokenProcessPool`, a RuntimeError."""
    global _infer_run
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from .model import load_checkpoint

    cfg = resolve_config(args)
    model = load_checkpoint(args.checkpoint)
    features_path = Path(args.features)
    files = sorted(features_path.glob("*.gebf")) if features_path.is_dir() else [features_path]
    if not files:
        raise ValueError(f"no .gebf feature files in {features_path}")
    out = Path(args.out)
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "detections").mkdir(parents=True, exist_ok=True)
    groups = _file_groups(files, INFER_GROUP_BYTES)
    workers = min(worker_count(), len(groups))
    _infer_run = (model, cfg, out)
    try:
        if workers == 1:
            counts = [_infer_group(group) for group in groups]
        else:
            # map cancels the groups not yet started once one fails
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                counts = list(pool.map(_infer_group, groups))
    finally:
        _infer_run = None
    results = [n for group_counts in counts for n in group_counts]
    _echo_config(out, cfg)
    total = sum(results)
    print(f"scored {len(results)} videos, {total} boundaries detected")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    annotations = load_annotations(args.annotations)
    det_path = Path(args.detections)
    det_files = sorted(det_path.glob("*.json")) if det_path.is_dir() else [det_path]
    detections = {}
    for f in det_files:
        d = load_detections(f)
        if d.video_id in detections:
            raise ValueError(f"duplicate detections for video id {d.video_id!r}")
        detections[d.video_id] = d
    missing_dets = sorted(set(annotations) - set(detections))
    missing_anns = sorted(set(detections) - set(annotations))
    if missing_dets or missing_anns:
        problems = []
        if missing_dets:
            problems.append(f"ids without detections: {', '.join(missing_dets)}")
        if missing_anns:
            problems.append(f"ids without annotations: {', '.join(missing_anns)}")
        raise ValueError("; ".join(problems))
    corpus = [
        (detections[vid].timestamps, list(annotations[vid].boundaries), annotations[vid].duration)
        for vid in sorted(annotations)
    ]
    report = eval_mod.f1_sweep(corpus, cfg.taus, cfg.eval_average)
    eval_mod.write_report_csv(args.out, report)
    print(f"avg F1 over {len(cfg.taus)} thresholds: {report.avg_f1:.4f}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    """Expose a subset of RunConfig keys as optional flags (None = not given)."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser_fn = _FIELD_PARSERS[name]
        if parser_fn is _parse_bool:
            parser.add_argument(flag, default=None, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, default=None, type=parser_fn, metavar=name.upper())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, description="Generic event boundary detection on feature streams"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic feature streams with planted boundaries")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--force", action="store_true", help="allow a non-empty output directory")
    _add_config_flags(p, [
        "num_videos", "frames", "fps", "stage_dims", "snr",
        "min_boundaries", "max_boundaries", "min_gap_seconds", "seed",
    ])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on feature files + annotations")
    p.add_argument("--features", required=True, help="directory of .gebf files")
    p.add_argument("--annotations", required=True, help="annotation JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p, [
        "d_out", "d_head", "branch_count", "decoder_blocks",
        "fuse_distances", "use_residual", "use_depthwise",
        "epochs", "batch_size", "lr_peak", "lr_final", "warmup_epochs",
        "smooth_training", "positive_radius_frames", "seed",
    ])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="score videos and emit detections")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--features", required=True, help=".gebf file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--smooth", dest="smooth_inference", default=None,
                   action=argparse.BooleanOptionalAction,
                   help="Gaussian-smooth scores before peak picking (default on)")
    _add_config_flags(p, ["fps", "clip_mode", "clip_seconds", "overlap_seconds"])
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score detections against annotations")
    p.add_argument("--detections", required=True, help="detection JSON file or directory")
    p.add_argument("--annotations", required=True, help="annotation JSON file")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p, ["taus", "eval_average"])
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"{ERROR_PREFIX}{e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
