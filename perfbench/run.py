#!/usr/bin/env python3
"""Benchmark of the gebd pipeline, driven through its CLI the way a user runs it.

    python3 perfbench/run.py --workload recipe --seed 1 --seconds 10 --trace 0

Builds seeded inputs under .perfbench-work/ in the checkout, runs each timed
`gebd` command in a fresh child process (BLAS pinned to one thread,
GEBD_THREADS unset so the program's own worker count applies), checks every
output, and prints each metric by name and unit. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0: the pipeline repeats until --seconds have passed (at least once);
the end-to-end metrics are medians over those runs, and setup_s is the median
of SETUP_SAMPLES fresh `import gebd` + `load_checkpoint` processes.
--trace 1: the pipeline runs once untraced and once under layertrace.py; the
metrics are the per-layer ones, and both runs must give identical outputs.

All workloads are closed loop: one CLI command at a time, each working
through its whole corpus.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 5
RECIPE_EPOCHS = 1
PEAK_THRESHOLD = 0.1        # gebd's peak-picking rule, restated for the check
PEAK_NEIGHBOR_SECONDS = 0.5
SETUP_PROBE = "import sys, gebd; gebd.load_checkpoint(sys.argv[1])"
# Versions, BLAS build and threads, and gebd's own worker count, as a child sees them.
ENV_PROBE = """
import ctypes, glob, json, os, sys, numpy, scipy
from gebd.util import worker_count
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = "unknown"
for lib in glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")):
    getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if getter is not None:
        getter.restype = ctypes.c_int
        threads = getter()
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
                  "worker_count": worker_count(), "nproc": os.cpu_count()}))
"""
WORKLOADS = ("recipe", "infer-long", "infer-paper")
WARM_MB = {"recipe": 256, "infer-long": 2560, "infer-paper": 4096}  # about each workload's peak RSS


@dataclass
class Step:
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    code: int


@dataclass
class Inputs:
    score: Path                 # corpus that `infer` scores and `eval` checks
    frames: int                 # frames in that corpus
    checkpoint: Path | None     # None: the pipeline trains it from `train`
    train: Path | None = None


@dataclass
class Iteration:
    steps: dict
    values: dict                # end-to-end metrics of this pipeline run
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    digest: str | None = None   # sha256 of the trained checkpoint
    train_videos_per_s: float = 0.0
    train_loss_final: float = 0.0


class Runner:
    """Runs child processes inside WORK, all within one deadline for the run.

    A child's peak RSS includes the benchmark process's own RSS at the time
    it is started, so this process never loads numpy or gebd itself.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, argv: list, log: Path) -> Step:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark run deadline passed")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=WORK, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                # wait4 on this child alone: RUSAGE_CHILDREN would keep the
                # maximum over every child the benchmark ever ran.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Step(seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def train_args(features: Path, out: Path) -> list:
    """The acceptance recipe's `gebd train`, shortened to RECIPE_EPOCHS epochs."""
    return ["--features", features, "--annotations", features / "annotations.json", "--out", out,
            "--d-out", 64, "--d-head", 32, "--seed", 0,
            "--epochs", RECIPE_EPOCHS, "--warmup-epochs", 0]


def build_inputs(workload: str, seed: int, runner: Runner) -> Inputs:
    base = WORK / "inputs"
    step = runner.run([sys.executable, HERE / "corpus.py", workload, seed, base], WORK / "corpus.log")
    if step.code:
        raise RuntimeError("input generation failed:\n" + (WORK / "corpus.log").read_text())
    layout = json.loads((base / "inputs.json").read_text())
    inp = Inputs(base / layout["score"], layout["frames"],
                 base / layout["checkpoint"] if "checkpoint" in layout else None,
                 base / layout["train"] if "train" in layout else None)
    if workload == "infer-long":
        # Scored with the recipe checkpoint, trained here, outside the timed pipeline.
        runner.run([sys.executable, "-m", "gebd.cli", "train", *train_args(inp.train, base / "recipe")],
                   WORK / "recipe-train.log")
        inp.checkpoint, inp.train = base / "recipe" / "model.gebw", None
    return inp


def run_pipeline(inp: Inputs, out: Path, runner: Runner, traced: bool) -> Iteration:
    out.mkdir()
    steps = {}

    def gebd(command: str, *args) -> None:
        if traced:
            prefix = [sys.executable, HERE / "layertrace.py", out / f"trace-{command}.json"]
        else:
            prefix = [sys.executable, "-m", "gebd.cli"]
        steps[command] = runner.run([*prefix, command, *args], out / f"{command}.log")

    checkpoint = inp.checkpoint
    if inp.train is not None:
        gebd("train", *train_args(inp.train, out / "model"))
        checkpoint = out / "model" / "model.gebw"
    gebd("infer", "--checkpoint", checkpoint, "--features", inp.score, "--out", out / "scored",
         "--fps", 5)
    gebd("eval", "--detections", out / "scored" / "detections",
         "--annotations", inp.score / "annotations.json", "--out", out / "report.csv")
    return check_iteration(inp, out, steps, checkpoint)


def check_video(scored: Path, ann: dict) -> str | None:
    """None when the video's score and detection files are valid, else why not."""
    vid = ann["video_id"]
    try:
        scores = json.loads((scored / "scores" / f"{vid}.json").read_text())
        dets = json.loads((scored / "detections" / f"{vid}.json").read_text())
        x = [float(v) for v in scores["scores"]]
        fps = float(scores["fps"])
        stamps = [float(t) for t in dets["timestamps"]]
        if scores["video_id"] != vid or dets["video_id"] != vid:
            return "video id mismatch"
        smoothed = scores["smoothed"] is True
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"missing or malformed output: {e}"
    if len(x) != round(ann["duration"] * fps):
        return f"{len(x)} scores for a {ann['duration']} s video"
    if not smoothed:
        return "scores are not smoothed"
    if not all(math.isfinite(v) and 0.0 < v < 1.0 for v in x):
        return "a score is not finite or not inside (0, 1)"
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        return "timestamps are not strictly increasing"
    w = math.floor(PEAK_NEIGHBOR_SECONDS * fps + 1e-9)
    for ts in stamps:
        f = round(ts * fps - 0.5)
        if not 0 <= f < len(x):
            return f"detection at {ts} s is outside the video"
        if not (x[f] > PEAK_THRESHOLD and x[f] >= max(x[max(0, f - w):f + w + 1])):
            return f"detection at {ts} s fails the window-max predicate"
    return None


def read_report(path: Path) -> dict:
    with open(path, newline="") as f:
        return {row["tau"]: float(row["f1"]) for row in csv.DictReader(f)}


def check_iteration(inp: Inputs, out: Path, steps: dict, checkpoint: Path) -> Iteration:
    problems = [f"gebd {name} exited with {step.code}: "
                + " | ".join((out / f"{name}.log").read_text(errors="replace").splitlines()[-3:])
                for name, step in steps.items() if step.code]
    annotations = json.loads((inp.score / "annotations.json").read_text())
    failed = 0
    for ann in annotations:
        why = "gebd infer failed" if steps["infer"].code else check_video(out / "scored", ann)
        if why:
            failed += 1
            problems.append(f"{ann['video_id']}: {why}")
    report = {}
    if not steps["eval"].code:
        try:
            report = read_report(out / "report.csv")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"unreadable eval report: {e}")
    f1 = {name: report.get(tau, math.nan)
          for name, tau in (("f1_at_0.05", "0.05"), ("f1_at_0.25", "0.25"), ("f1_avg", "avg"))}
    if not all(0.0 <= v <= 1.0 for v in f1.values()):
        problems.append(f"eval report lacks a valid F1: {f1}")
    it = Iteration(steps, {
        "pipeline_s": sum(step.seconds for step in steps.values()),
        "pipeline_cpu_s": sum(step.cpu_s for step in steps.values()),
        "infer_frames_per_cpu_s": inp.frames / steps["infer"].cpu_s,
        "peak_rss_mb": max(step.peak_rss_mb for step in steps.values()),
        **{k: (v if 0.0 <= v <= 1.0 else 0.0) for k, v in f1.items()},
    }, len(annotations), failed, problems)
    if "train" in steps and not steps["train"].code:
        it.digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        train_videos = len(json.loads((inp.train / "annotations.json").read_text()))
        it.train_videos_per_s = RECIPE_EPOCHS * train_videos / steps["train"].seconds
        last = (out / "model" / "loss.csv").read_text().strip().splitlines()[-1]
        it.train_loss_final = float(last.split(",")[2])
        if not math.isfinite(it.train_loss_final):
            problems.append(f"final training loss is {it.train_loss_final}")
    return it


def median_iqr(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "pipeline_cpu_s": "s", "infer_frames_per_cpu_s": "frames/cpu_s",
             "peak_rss_mb": "MB",
             "f1_at_0.05": "ratio", "f1_at_0.25": "ratio", "f1_avg": "ratio"}


def measure(inp: Inputs, seconds: float, runner: Runner) -> tuple:
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(run_pipeline(inp, WORK / f"run{len(iterations)}", runner, traced=False))
    problems = [p for it in iterations for p in it.problems]
    repeat = {(it.digest, it.values["f1_avg"], it.train_loss_final) for it in iterations}
    if len(repeat) > 1:
        problems.append(f"runs on the same inputs disagree (digest, f1_avg, final loss): {repeat}")
    checkpoint = inp.checkpoint or WORK / f"run{len(iterations) - 1}" / "model" / "model.gebw"
    setup = [runner.run([sys.executable, "-c", SETUP_PROBE, checkpoint], WORK / f"setup{i}.log")
             for i in range(SETUP_SAMPLES)]
    problems += [f"set-up probe exited with {s.code}" for s in setup if s.code]
    samples = {"setup_s": [s.seconds for s in setup]}
    for name in E2E_UNITS:
        if name != "setup_s":
            samples[name] = [it.values[name] for it in iterations]
    for name, values in samples.items():
        mid, q1, q3 = median_iqr(values)
        print(f"{name} = {mid:.6g} {E2E_UNITS[name]}  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    for i, it in enumerate(iterations):
        print(f"pass {i}: " + ", ".join(f"{k} {s.seconds:.4g} s (cpu {s.cpu_s:.4g} s) {s.peak_rss_mb:.5g} MB"
                                       for k, s in it.steps.items()))
        if it.digest:
            print(f"train: {it.train_videos_per_s:.4g} videos/s, final loss {it.train_loss_final!r}, "
                  f"checkpoint sha256 {it.digest}")
    metrics = {name: (median_iqr(values)[0], E2E_UNITS[name]) for name, values in samples.items()}
    return metrics, sum(it.attempted for it in iterations), sum(it.failed for it in iterations), problems


def same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def measure_traced(inp: Inputs, runner: Runner) -> tuple:
    import layertrace

    plain = run_pipeline(inp, WORK / "plain", runner, traced=False)
    traced = run_pipeline(inp, WORK / "traced", runner, traced=True)
    problems = plain.problems + traced.problems
    if not plain.failed and not traced.failed:
        if not same_bytes(WORK / "plain/scored/detections", WORK / "traced/scored/detections"):
            problems.append("traced run's detection files differ from the untraced run's")
        if plain.digest != traced.digest:
            problems.append(f"traced checkpoint {traced.digest} differs from untraced {plain.digest}")
    aggregates = [json.loads(p.read_text()) for p in sorted((WORK / "traced").glob("trace-*.json"))]
    metrics = layertrace.summarize(aggregates)
    for name in ("train", "infer", "eval"):
        metrics[f"cli.{name}.s"] = (traced.steps[name].seconds if name in traced.steps else 0.0, "s")
        metrics[f"cli.{name}.untraced_s"] = (plain.steps[name].seconds if name in plain.steps else 0.0, "s")
    metrics["cli.videos_failed_share"] = (plain.failed / plain.attempted, "ratio")
    metrics["train.videos_per_s"] = (plain.train_videos_per_s, "videos/s")
    metrics["train.loss_final"] = (plain.train_loss_final, "loss")
    ratio = traced.values["pipeline_s"] / plain.values["pipeline_s"]
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    print(f"tracing overhead: traced/untraced pipeline_s = {traced.values['pipeline_s']:.4g} s / "
          f"{plain.values['pipeline_s']:.4g} s = {ratio:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + ("  (computed from shapes)" if name in layertrace.COMPUTED else ""))
    attempted = plain.attempted + traced.attempted
    return metrics, attempted, plain.failed + traced.failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gebd" / "__init__.py").is_file():
        print(f"perfbench: error: no gebd sources at {SRC}", file=sys.stderr)
        return 2
    # Every child inherits these: BLAS pinned to one thread, gebd's own worker
    # count, and the sources of this checkout.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("GEBD_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])

    # SIGTERM takes the same path as an error: the running child is killed and WORK removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner.run([sys.executable, "-c", ENV_PROBE], WORK / "env.log")
        env = json.loads((WORK / "env.log").read_text().splitlines()[-1])
        env["src_lines"] = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
        print("environment:", json.dumps(env))
        start = time.perf_counter()
        inp = build_inputs(args.workload, args.seed, runner)
        # On a virtual machine whose host backs guest memory lazily, the first
        # process to touch a page pays for it (pass 0 ran ~15% slower), so the
        # workload's peak memory is touched once, untimed.
        runner.run([sys.executable, "-c", f"import numpy; numpy.ones({WARM_MB[args.workload]} << 17)"],
                   WORK / "warm.log")
        print(f"inputs: {inp.frames} frames to score, built in {time.perf_counter() - start:.3g} s")
        if args.trace:
            metrics, attempted, failed, problems = measure_traced(inp, runner)
        else:
            metrics, attempted, failed, problems = measure(inp, args.seconds, runner)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"videos failed: {failed} of {attempted}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
