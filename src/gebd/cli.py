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
import math
import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import evaluate as eval_mod
from .boundaries import load_annotations, load_detections, save_detections
from .config import (
    ModelConfig,
    TrainConfig,
    check_clip_settings,
    check_fps,
    check_snr,
    check_video_size,
    neighbor_radius_for,
)
from .util import atomic_write_text, check_fits_in_memory, worker_count

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
# a training label marks each boundary's nearest frame and this many frames on each side
POSITIVE_RADIUS_FRAMES = 1


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
    use_residual: bool = ModelConfig.use_residual
    # training
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr_peak: float = TrainConfig.lr_peak
    lr_final: float = TrainConfig.lr_final
    warmup_epochs: int = TrainConfig.warmup_epochs
    # inference
    smooth_inference: bool = True
    clip_mode: bool = False
    clip_seconds: float = 10.0
    overlap_seconds: float = 5.0
    # evaluation
    taus: tuple[float, ...] = eval_mod.DEFAULT_TAUS

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
        self.model_config()
        check_video_size(self.frames, self.stage_dims)
        check_snr(self.snr)
        self.train_config()
        check_clip_settings(self.clip_seconds, self.overlap_seconds)
        try:
            eval_mod.check_sweep_settings(self.taus)
        except ValueError as e:
            raise ValueError(f"taus: {e}") from None

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


def _list_parser(item, noun: str):
    """A parser of comma-separated `item`s: an empty text is (), and an empty
    or malformed item is an error that says which, as argparse prints it."""

    def parse(text: str) -> tuple:
        values = []
        for part in text.split(",") if text.strip() else ():
            try:
                values.append(item(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"item {part!r} of {text!r} is not {noun}" if part.strip()
                                                 else f"empty item in {text!r}") from None
        return tuple(values)

    return parse


_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _list_parser(int, "an integer"),
    "tuple[float, ...]": _list_parser(float, "a number"),
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
    """Parse `key = value` lines; an unknown or repeated key is rejected."""
    overrides, key_lines = {}, {}
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
        if key in key_lines:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {key_lines[key]}")
        key_lines[key] = lineno
        try:
            overrides[key] = _FIELD_PARSERS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as e:
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


def _refuse_stale_files(out: Path, patterns: list[str], written: set[str]) -> None:
    """A command that writes into a used directory overwrites its own files
    and deletes none, so it refuses `out` while it holds a file of a kind the
    command writes (a `patterns` match) that this run will not write: that
    file would be read as one of this run's. Names are relative to `out`."""
    stale = sorted(name for pattern in patterns for f in out.glob(pattern)
                   if (name := f.relative_to(out).as_posix()) not in written)
    if stale:
        raise ValueError(f"{out} holds files this run does not write and would leave in place: "
                         f"{', '.join(stale)}")


def cmd_synth(args: argparse.Namespace) -> int:
    import numpy as np

    from . import data as data_mod

    cfg = resolve_config(args)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"output directory {out} is not empty (use --force to overwrite)")
    video_ids = [f"video{i:05d}" for i in range(cfg.num_videos)]
    # a feature file left from a larger corpus would be read as one of this corpus's videos
    _refuse_stale_files(out, ["*.gebf"], {f"{video_id}.gebf" for video_id in video_ids})
    # every video's boundaries first, so a gap that does not fit fails before a file is written
    all_times = []
    for i, video_id in enumerate(video_ids):
        bound_rng = np.random.default_rng((cfg.seed + i, 1))
        count = int(bound_rng.integers(cfg.min_boundaries, cfg.max_boundaries + 1))
        try:
            all_times.append(data_mod.random_boundary_times(bound_rng, cfg.frames / cfg.fps, count,
                                                            cfg.min_gap_seconds))
        except ValueError as e:
            raise ValueError(f"{video_id}: min_gap_seconds: {e}") from None
    annotations = []
    for i, (video_id, times) in enumerate(zip(video_ids, all_times)):
        video, ann = data_mod.synth_video(
            cfg.seed + i, cfg.frames, cfg.fps, cfg.stage_dims, times,
            snr=cfg.snr, video_id=video_id,
        )
        data_mod.save_features(out / f"{video_id}.gebf", video)
        annotations.append(ann)
    data_mod.save_annotations(out / "annotations.json", annotations)
    atomic_write_text(out / "run_config.txt", format_config(cfg))
    print(f"wrote {cfg.num_videos} feature files to {out}")
    return 0


def _load_dataset(features_dir: Path, annotations_path: Path):
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
        labels = data_mod.frame_labels(ann, video.num_frames, ann.fps, POSITIVE_RADIUS_FRAMES)
        dataset.append((video, labels))
    return dataset


def cmd_train(args: argparse.Namespace) -> int:
    from .model import GebdModel, parameter_count, save_checkpoint
    from .train import train, write_loss_curve

    cfg = resolve_config(args)
    dataset = _load_dataset(Path(args.features), Path(args.annotations))
    fps_values = {video.fps for video, _ in dataset}
    if len(fps_values) != 1:
        raise ValueError(f"training videos must share one fps, got {sorted(fps_values)}")
    dims = {video.stage_dims for video, _ in dataset}
    if len(dims) != 1:
        raise ValueError(f"training videos must share stage dims, got {sorted(dims)}")
    cfg = replace(cfg, fps=fps_values.pop(), stage_dims=dims.pop())
    model_config = cfg.model_config()
    # float64 parameters, their grads and Adam's two moments
    check_fits_in_memory(32 * parameter_count(model_config), f"training {model_config}")
    model = GebdModel.build(model_config, seed=cfg.seed)
    out = Path(args.out)  # made by its first file: a run that fails or is interrupted leaves none
    model, curve = train(dataset, model, cfg.train_config())
    save_checkpoint(out / "model.gebw", model)
    write_loss_curve(out / "loss.csv", curve)
    atomic_write_text(out / "run_config.txt", format_config(cfg))
    final = f", final loss {curve[-1][2]:.6f}" if curve else " (no training steps)"
    print(f"saved checkpoint to {out / 'model.gebw'}{final}")
    return 0


def _score_videos(videos: list, model: GebdModel, cfg: RunConfig) -> list[BoundaryScores]:
    """Scores of consecutive videos. Each video is scored as clips, frame
    spans of it: the span (0, T), or in clip mode `split_clips`'s spans (a
    short video's one span is (0, T) too). A clip's stages are row slices of
    its video's, views and not copies. `score_clips` computes every clip,
    each with the bits it would get alone, and `merge_clip_scores` sums each
    video's scores from its clips'."""
    from . import data as data_mod
    from . import postprocess as post_mod
    from .model import score_clips

    clips = [(i, start, end) for i, video in enumerate(videos)
             for start, end in (data_mod.split_clips(video, cfg.clip_seconds, cfg.overlap_seconds)
                                if cfg.clip_mode else [(0, video.num_frames)])]
    raw = score_clips(model, [[stage[start:end] for stage in videos[i].stages] for i, start, end in clips])
    scored = [[] for _ in videos]
    for (i, start, _), x in zip(clips, raw):
        sc = post_mod.BoundaryScores(videos[i].video_id, videos[i].fps, x)
        if cfg.smooth_inference:
            sc = post_mod.gaussian_smooth(sc)
        scored[i].append((start, sc))
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
        save_detections(out / "detections" / f"{video.video_id}.json", detections)
        counts.append(len(detections.timestamps))
    return counts


@contextmanager
def _sigint_held():
    """Hold Ctrl-C until the block ends, then raise its KeyboardInterrupt:
    CPython loses one raised in its at-fork hooks, so `infer` forks here.
    SIGINT is blocked in this thread, which a forked process inherits, and a
    BLAS thread that takes it instead runs a handler that only records it."""
    previous = signal.getsignal(signal.SIGINT)
    if previous is not signal.default_int_handler:
        yield
        return
    held = []
    signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        signal.signal(signal.SIGINT, previous)
    if held:
        raise KeyboardInterrupt


def _end_with_parent(parent: int) -> None:
    """Initializer of each `infer` worker: the worker ends when the process
    that forked it (`parent`) ends, even by SIGKILL, so no worker outlives
    `infer`. On Linux the kernel sends it SIGKILL then; a parent that ended
    before this ran is seen by the worker's parent pid. Ctrl-C ends it at
    once, with no traceback and no further group; the parent reports it,
    and a SIGINT held since the fork (`_sigint_held`) is delivered here."""
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    if sys.platform.startswith("linux"):
        import ctypes

        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def cmd_infer(args: argparse.Namespace) -> int:
    """Score every feature file, its groups spread over `worker_count()`
    forked processes, one per CPU this process may run on, at most 8 and at
    most one per group; with one worker nothing is forked. Forking, not
    spawning, lets each worker use the model the parent loaded. The parent
    runs no thread of its own when it forks (OpenBLAS stops its pool at a
    fork), and the pool joins every worker before this returns, whether the
    run succeeded or not; a worker whose parent is killed ends with it. A
    worker's error is raised here with its message; a worker that dies is a
    `BrokenProcessPool`, a RuntimeError."""
    global _infer_run
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from .model import check_fps_compatible, load_checkpoint

    cfg = resolve_config(args)
    model = load_checkpoint(args.checkpoint)
    check_fps_compatible(model.config, cfg.fps)
    features_path = Path(args.features)
    files = sorted(features_path.glob("*.gebf")) if features_path.is_dir() else [features_path]
    if not files:
        raise ValueError(f"no .gebf feature files in {features_path}")
    groups = _file_groups(files, INFER_GROUP_BYTES)  # stats every file: a missing one fails before any write
    out = Path(args.out)
    # another run's outputs for other videos would be evaluated as this run's
    _refuse_stale_files(out, ["scores/*.json", "detections/*.json"],
                        {f"{kind}/{f.stem}.json" for f in files for kind in ("scores", "detections")})
    workers = min(worker_count(), len(groups))
    _infer_run = (model, cfg, out)
    try:
        if workers == 1:
            counts = [_infer_group(group) for group in groups]
        else:
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_end_with_parent, initargs=(os.getpid(),))
            try:
                with _sigint_held():  # the first submit forks every worker
                    futures = [pool.submit(_infer_group, group) for group in groups]
                counts = [future.result() for future in futures]
            finally:  # the pool's thread cancels what has not started: a cancel from here, as map's, races
                pool.shutdown(cancel_futures=True)  # its own clean-up of workers that Ctrl-C ended
    finally:
        _infer_run = None
    results = [n for group_counts in counts for n in group_counts]
    atomic_write_text(out / "run_config.txt", format_config(cfg))
    print(f"scored {len(results)} videos, {sum(results)} boundaries detected")
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
    report = eval_mod.f1_sweep(corpus, cfg.taus)
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
        "d_out", "d_head", "branch_count", "decoder_blocks", "use_residual",
        "epochs", "batch_size", "lr_peak", "lr_final", "warmup_epochs", "seed",
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
    _add_config_flags(p, ["taus"])
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
    except KeyboardInterrupt:  # Ctrl-C: one line and a shell's exit status for SIGINT
        print(f"{PROG}: interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
