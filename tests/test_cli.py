"""End-to-end command line behavior, run in-process via cli.main()."""

import argparse
import hashlib
import json
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from gebd import cli
from gebd import model as model_mod
from gebd import util
from gebd.boundaries import load_annotations, load_detections, save_detections
from gebd.data import load_features, save_features, synth_video
from gebd.model import GebdModel, ModelConfig, load_checkpoint, model_forward, save_checkpoint
from gebd.postprocess import (
    gaussian_smooth,
    load_scores,
    pick_peaks,
    save_scores,
    smoothing_matrix,
)
from gebd.train import TrainConfig


SMALL = [
    "--frames", "30", "--fps", "5", "--stage-dims", "6,6,6,6",
    "--min-boundaries", "2", "--max-boundaries", "3",
]


DEFAULT_ECHO_SHA256 = "d3ba6a63a79f8c7cadb3afcee0863cbc19fe7734ff2e03b7dc3bf215c9d161ad"


def run(argv):
    return cli.main(argv)


def fresh_python(code):
    """stdout lines of `code` run in a new interpreter that imports gebd from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return out.stdout.splitlines()


def synth_small(tmp_path, n=4, seed=0, extra=()):
    out = tmp_path / "data"
    code = run(["synth", "--out", str(out), "--num-videos", str(n),
                "--seed", str(seed), *SMALL, *extra])
    assert code == 0
    return out


def train_small(tmp_path, data_dir, epochs=1, extra=()):
    out = tmp_path / "run"
    code = run([
        "train", "--features", str(data_dir), "--annotations", str(data_dir / "annotations.json"),
        "--out", str(out), "--epochs", str(epochs), "--batch-size", "2",
        "--warmup-epochs", "0" if epochs <= 2 else "1",
        "--d-out", "8", "--d-head", "4", "--seed", "0", *extra,
    ])
    assert code == 0
    return out


def running(pid):
    """Whether process `pid` exists and has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def interrupt_group(script, started, count):
    """Run `script` in a fresh interpreter in a session of its own, with
    SIGINT at its default as a terminal leaves it; once the directory
    `started` holds `count` files, send SIGINT to the session's process group
    as a terminal's Ctrl-C does. Returns (exit status, stderr, the sorted
    names in `started`)."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while len(list(started.iterdir())) < count and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(started.iterdir())) == count, f"exit code {proc.poll()}"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, err, sorted(f.name for f in started.iterdir())


class TestSynth:
    def test_writes_features_annotations_manifest(self, tmp_path):
        out = synth_small(tmp_path, n=10)
        gebf = [f"video{i:05d}.gebf" for i in range(10)]
        assert sorted(f.name for f in out.iterdir()) == sorted([*gebf, "annotations.json", "run_config.txt"])
        anns = load_annotations(out / "annotations.json")
        assert sorted(anns) == [name.removesuffix(".gebf") for name in gebf]

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        a = synth_small(tmp_path / "a", n=3, seed=5)
        b = synth_small(tmp_path / "b", n=3, seed=5)
        for fa in sorted(a.glob("*.gebf")):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        out = synth_small(tmp_path, n=2)
        code = run(["synth", "--out", str(out), "--num-videos", "2", *SMALL])
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err
        assert run(["synth", "--out", str(out), "--num-videos", "2", "--force", *SMALL]) == 0
        assert run(["synth", "--out", str(out), "--num-videos", "3", "--force", *SMALL]) == 0
        assert len(load_annotations(out / "annotations.json")) == len(list(out.glob("*.gebf"))) == 3

    def test_force_refuses_feature_files_it_would_not_write(self, tmp_path, capsys):
        out = synth_small(tmp_path, n=4)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert run(["synth", "--out", str(out), "--num-videos", "2", "--force", *SMALL]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), err
        assert err[0].endswith(": video00002.gebf, video00003.gebf"), err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_invalid_stage_dims(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "x"), "--num-videos", "1",
                    "--frames", "30", "--stage-dims", "6,0,6,6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert "stage_dims" in err

    def test_non_positive_or_non_finite_fps_rejected(self, tmp_path, capsys):
        for fps in ("0", "-5", "nan", "inf"):
            out = tmp_path / f"fps{fps}"
            code = run(["synth", "--out", str(out), "--num-videos", "1",
                        "--frames", "30", "--fps", fps, "--stage-dims", "6,6"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert "fps must be finite and positive" in err
            assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--min-gap-seconds", "nan"], "min_gap_seconds must be finite and >= 0"),
        (["--min-boundaries", "0", "--max-boundaries", "0", "--min-gap-seconds", "nan"], "min_gap_seconds must be"),
        (["--min-boundaries", "0", "--max-boundaries", "0", "--min-gap-seconds", "-5"], "min_gap_seconds must be"),
        (["--snr", "nan"], "snr must be positive"),
        (["--num-videos", "-1"], "num_videos must be >= 1"),
        (["--num-videos", "0"], "num_videos must be >= 1"),
        (["--snr", "1e-320"], "snr must be positive (at least 1e-30"),  # below config.MIN_SNR
        (["--snr", "1e-40"], "snr must be positive (at least 1e-30"),  # noise std 1/snr past float32
        (["--fps", "1e-320"], "fps must be finite and positive"),  # below config.MIN_FPS
        (["--min-gap-seconds=-inf"], "min_gap_seconds must be finite and >= 0"),
        (["--min-gap-seconds", "5"], "video00000: min_gap_seconds: cannot fit"),  # 6 s videos
    ])
    def test_nan_or_non_positive_settings_rejected(self, tmp_path, capsys, flags, message):
        code = run(["synth", "--out", str(tmp_path / "x"), "--num-videos", "1", *SMALL, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, corpus", [
        (["--num-videos", "100000000000", "--frames", "1", "--min-boundaries", "0", "--max-boundaries", "0"],
         "num_videos=100000000000 with max_boundaries=0"),
        (["--num-videos", "1", "--frames", "10", "--min-boundaries", "1000000000000",
          "--max-boundaries", "1000000000000", "--min-gap-seconds", "0"],
         "num_videos=1 with max_boundaries=1000000000000"),
    ], ids=["videos", "boundaries"])
    def test_corpus_past_the_address_space_limit_is_one_error_before_any_file(self, tmp_path, flags, corpus):
        # synth holds every video's id, annotation and boundary times at once;
        # these corpora need far more than a 1.5 GB address-space limit set in
        # the child, as `ulimit -v 1500000` sets it, and used to end in a
        # MemoryError traceback while their ids or boundary times were made
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1_536_000_000, resource.RLIM_INFINITY))

        out = tmp_path / "x"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "gebd.cli", "synth", "--out", str(out), "--stage-dims", "1",
                               *flags], env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=cap_address_space)
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), proc.stderr
        assert re.search(rf"a corpus of {corpus} needs \d+ bytes, more than the \d+ bytes of "
                         r"(physical memory|address space RLIMIT_AS allows)$", err[0]), err
        assert not out.exists()

    def test_annotation_fps_matches(self, tmp_path):
        out = synth_small(tmp_path, n=2)
        for ann in load_annotations(out / "annotations.json").values():
            assert ann.fps == 5.0
            assert ann.duration == 6.0


class TestTrain:
    def test_epochs_zero_writes_initialized_checkpoint(self, tmp_path):
        data = synth_small(tmp_path, n=2)
        out = train_small(tmp_path, data, epochs=0)
        model = load_checkpoint(out / "model.gebw")
        assert model.config.d_out == 8
        curve = (out / "loss.csv").read_text().strip().splitlines()
        assert curve == ["step,lr,loss"]

    def test_checkpoint_round_trips_bit_exact(self, tmp_path):
        data = synth_small(tmp_path, n=2)
        out = train_small(tmp_path, data, epochs=1)
        from gebd.model import save_checkpoint

        path = out / "model.gebw"
        model = load_checkpoint(path)
        save_checkpoint(tmp_path / "again.gebw", model)
        assert path.read_bytes() == (tmp_path / "again.gebw").read_bytes()

    def test_loss_csv_has_steps(self, tmp_path):
        data = synth_small(tmp_path, n=4)
        out = train_small(tmp_path, data, epochs=2)
        lines = (out / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 1 + 2 * 2  # 4 videos / batch 2 = 2 steps per epoch

    def test_overflowing_step_is_one_clean_error(self, tmp_path):
        # an overflow inside a step ends training at that step, with no numpy warning
        data = synth_small(tmp_path, n=3)
        argv = ["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                "--out", str(tmp_path / "r"), "--epochs", "2", "--warmup-epochs", "0",
                "--d-out", "8", "--d-head", "4", "--lr-peak=1e308"]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-m", "gebd.cli", *argv], env=env, capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr.startswith(cli.ERROR_PREFIX)
        assert "RuntimeWarning" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert "at step" in out.stderr
        assert not (tmp_path / "r").exists()  # `--out` is made only by the files of a finished run

    @pytest.mark.parametrize("flag", ["--decoder-blocks", "--branch-count"])
    def test_model_past_physical_memory_is_one_error_before_any_build(self, tmp_path, flag):
        # a billion blocks: 32 bytes a parameter (its grad and Adam's two moments
        # with it) exceed physical memory before a block is built. The child's
        # address space is capped, so a model that is built anyway fails fast.
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        data = synth_small(tmp_path, n=2)
        out = tmp_path / "r"
        argv = ["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                "--out", str(out), "--d-out", "8", "--d-head", "4", flag, "1000000000"]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "gebd.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_address_space)
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), proc.stderr
        assert re.search(r"needs \d+ bytes, more than the \d+ bytes of physical memory$", err[0]), err
        assert not out.exists()

    def test_model_past_the_address_space_limit_is_one_error_before_any_build(self, tmp_path):
        # 6.45 GB of training state fit in physical memory but not in a 1.5 GB
        # address-space limit set in the child, as `ulimit -v 1500000` sets
        # it; built anyway, the model's first (4096, 4096, 3) block fails to
        # allocate in a traceback
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1_536_000_000, resource.RLIM_INFINITY))

        data = synth_small(tmp_path, n=2, extra=["--stage-dims", "8"])
        out = tmp_path / "r"
        argv = ["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                "--out", str(out), "--d-out", "4096", "--d-head", "8", "--epochs", "1", "--warmup-epochs", "0"]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "gebd.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_address_space)
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), proc.stderr
        assert err[0].endswith("needs 6453893920 bytes, more than the 1536000000 bytes of address space "
                               "RLIMIT_AS allows"), err
        assert not out.exists()

    def test_similarity_vector_past_the_address_space_limit_is_one_error(self, tmp_path):
        # at 1e6 fps the neighbor radius is 1e6 frames, so a batch of two
        # 30-frame videos has a 1.92 GB similarity vector, past a 1 GB limit;
        # a one-unit model keeps everything before it well under the limit
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))

        data = synth_small(tmp_path, n=2, extra=["--fps", "1000000", "--stage-dims", "8",
                                                 "--min-boundaries", "0", "--max-boundaries", "0"])
        out = tmp_path / "r"
        argv = ["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                "--out", str(out), "--branch-count", "1", "--d-out", "1", "--d-head", "1"]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "gebd.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_address_space)
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), proc.stderr
        assert err[0].endswith(f"a similarity vector of shape (2, 30, 4000000) needs 1920000000 bytes, "
                               f"more than the {1 << 30} bytes of address space RLIMIT_AS allows"), err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sends SIGINT to a process group")
    def test_ctrl_c_is_one_line_and_makes_no_out(self, tmp_path):
        data = synth_small(tmp_path, n=2)
        started = tmp_path / "started"
        started.mkdir()
        out = tmp_path / "r"
        argv = ["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                "--out", str(out), "--epochs", "100000", "--d-out", "8", "--d-head", "4"]
        script = f"""
import sys
from pathlib import Path
import gebd.train
from gebd import cli

train_mod = sys.modules["gebd.train"]
real = train_mod._minibatch_gradients

def record_step(*args):
    (Path({str(started)!r}) / "step").touch()
    return real(*args)

train_mod._minibatch_gradients = record_step
raise SystemExit(cli.main({argv!r}))
"""
        code, err, _ = interrupt_group(script, started, 1)
        assert (code, err) == (130, "gebd: interrupted\n")
        assert not out.exists()

    def test_missing_annotations_error(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=2)
        (data / "annotations.json").unlink()
        code = run(["train", "--features", str(data),
                    "--annotations", str(data / "annotations.json"),
                    "--out", str(tmp_path / "r")])
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err


class TestInfer:
    def test_out_holding_other_videos_outputs_is_refused_untouched(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=3)
        ckpt_a = train_small(tmp_path, data, epochs=1) / "model.gebw"
        ckpt_b = tmp_path / "b.gebw"
        save_checkpoint(ckpt_b, GebdModel.build(load_checkpoint(ckpt_a).config, seed=5))
        out = tmp_path / "o"

        def infer(ckpt, features):
            return run(["infer", "--checkpoint", str(ckpt), "--features", str(features), "--out", str(out),
                        "--fps", "5"])

        assert infer(ckpt_a, data) == 0
        before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
        capsys.readouterr()
        # video00001's and video00002's files are A's: eval would score them as B's
        assert infer(ckpt_b, data / "video00000.gebf") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), err
        assert err[0].endswith(": detections/video00001.json, detections/video00002.json, "
                               "scores/video00001.json, scores/video00002.json"), err
        assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before
        assert infer(ckpt_b, data) == 0  # a run over the same inputs overwrites its own outputs

    def test_scores_and_detections_written(self, tmp_path):
        data = synth_small(tmp_path, n=3)
        run_dir = train_small(tmp_path, data, epochs=1)
        out = tmp_path / "infer"
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                    "--features", str(data), "--out", str(out), "--fps", "5"])
        assert code == 0
        score_files = sorted((out / "scores").glob("*.json"))
        det_files = sorted((out / "detections").glob("*.json"))
        assert len(score_files) == 3 and len(det_files) == 3
        s = load_scores(score_files[0])
        assert len(s.scores) == 30
        assert s.smoothed  # smoothing defaults on
        d = load_detections(det_files[0])
        assert d.timestamps == sorted(d.timestamps)

    def test_long_video_is_scored_whole_and_smoothed(self, tmp_path):
        # 3000 frames: more than one scoring window, scored and smoothed as one video
        data = tmp_path / "long"
        code = run(["synth", "--out", str(data), "--num-videos", "1", "--frames", "3000",
                    "--fps", "5", "--stage-dims", "6,6,6,6"])
        assert code == 0
        run_dir = train_small(tmp_path, data, epochs=0)
        out = tmp_path / "longinfer"
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                    "--features", str(data), "--out", str(out), "--fps", "5"])
        assert code == 0
        got = load_scores(next((out / "scores").glob("*.json")))
        assert got.smoothed

        model = load_checkpoint(run_dir / "model.gebw")
        video = load_features(next(data.glob("*.gebf")), fps=5.0)
        # the dense oracle, uncached: 72 MB at this length
        want = smoothing_matrix.__wrapped__(video.num_frames, 5.0) @ model.forward(video.stages).data[:, 0]
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["threads1", "threads2"])
    @pytest.mark.parametrize("group_bytes", [cli.INFER_GROUP_BYTES, 12000], ids=["default", "small"])
    def test_batched_groups_write_the_bytes_of_one_file_at_a_time(self, tmp_path, monkeypatch,
                                                                  group_bytes, threads):
        data = tmp_path / "data"
        for i, t in enumerate((50, 50, 37, 50, 37, 120)):
            video, _ = synth_video(i, t, 5.0, (6, 6, 6, 6), [1.5, 4.5], video_id=f"v{i}")
            save_features(data / f"v{i}.gebf", video)
        ckpt = tmp_path / "model.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4,
                                                          neighbor_radius=5), seed=3))
        monkeypatch.setattr(cli, "INFER_GROUP_BYTES", group_bytes)
        monkeypatch.setattr(cli, "worker_count", lambda: int(threads))
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        out = tmp_path / "infer"
        assert run(["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(out),
                    "--fps", "5"]) == 0
        workers = min(int(threads), len(cli._file_groups(sorted(data.glob("*.gebf")), group_bytes)))
        assert len(forks) == (0 if workers == 1 else workers)
        assert not multiprocessing.active_children()

        model = load_checkpoint(ckpt)
        want = tmp_path / "want"
        for path in sorted(data.glob("*.gebf")):
            video = load_features(path, fps=5.0)
            scores = gaussian_smooth(model_forward(video, model))
            save_scores(want / "scores" / f"{video.video_id}.json", scores)
            save_detections(want / "detections" / f"{video.video_id}.json", pick_peaks(scores))
        for kind in ("scores", "detections"):
            names = sorted(p.name for p in (want / kind).iterdir())
            assert sorted(p.name for p in (out / kind).iterdir()) == names
            for name in names:
                assert (out / kind / name).read_bytes() == (want / kind / name).read_bytes(), name

    def _one_group_per_file(self, tmp_path, monkeypatch, dims_of_v3=(6, 6, 6, 6)):
        """A checkpoint and a five-file corpus that `infer` scores as five
        groups over two worker processes."""
        data = tmp_path / "data"
        for i in range(5):
            dims = dims_of_v3 if i == 3 else (6, 6, 6, 6)
            video, _ = synth_video(i, 30, 5.0, dims, [1.5, 4.5], video_id=f"v{i}")
            save_features(data / f"v{i}.gebf", video)
        ckpt = tmp_path / "model.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4,
                                                          neighbor_radius=5), seed=3))
        monkeypatch.setattr(cli, "INFER_GROUP_BYTES", 1)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        return ["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(tmp_path / "o"),
                "--fps", "5"]

    def test_worker_error_is_one_error_line_and_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        argv = self._one_group_per_file(tmp_path, monkeypatch, dims_of_v3=(6, 6, 6, 5))
        code = run(argv)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 1
        assert err == [f"{cli.ERROR_PREFIX}v3: stage_dims mismatch: features (6, 6, 6, 5), "
                       f"model (6, 6, 6, 6)"], captured.err
        assert not multiprocessing.active_children()
        assert cli._infer_run is None

    def test_dying_worker_ends_in_one_error_line(self, tmp_path, monkeypatch):
        """A worker that exits while scoring ends `infer` with an error, not
        a hang. Run in a fresh interpreter, so a hang is cut by its timeout."""
        argv = self._one_group_per_file(tmp_path, monkeypatch)
        script = f"""
import multiprocessing, os
from gebd import cli

def die_on_v2(group):
    if any(path.stem == "v2" for path in group):
        os._exit(3)
    return real(group)

real = cli._infer_group
cli._infer_group = die_on_v2
cli.worker_count = lambda: 2
cli.INFER_GROUP_BYTES = 1
code = cli.main({argv!r})
print(code, len(multiprocessing.active_children()))
"""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.stdout.split() == ["1", "0"], (done.stdout, done.stderr)
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), done.stderr
        assert "terminated abruptly" in err[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
    def test_no_worker_outlives_a_killed_infer(self, tmp_path, monkeypatch):
        """SIGKILL an `infer` while its two workers score: both end with it.
        Run in a fresh interpreter, which the test kills."""
        argv = self._one_group_per_file(tmp_path, monkeypatch)
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = f"""
import os, time
from pathlib import Path
from gebd import cli

def record_and_sleep(group):
    (Path({str(pid_dir)!r}) / str(os.getpid())).touch()
    time.sleep(120)

cli._infer_group = record_and_sleep
cli.worker_count = lambda: 2
cli.INFER_GROUP_BYTES = 1
cli.main({argv!r})
"""

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rpartition(")")[2].split()[0] != "Z"  # a zombie has ended

        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        pids = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(f.name) for f in pid_dir.iterdir()]
            assert len(pids) == 2, f"workers started: {pids}, infer exit code: {proc.poll()}"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if running(pid)]
        finally:
            proc.kill()
            proc.wait()
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
    def test_ctrl_c_is_one_line_and_leaves_no_worker(self, tmp_path, monkeypatch):
        """Ctrl-C while two workers score the first two of five groups: no
        traceback, no worker left, and no queued group run."""
        argv = self._one_group_per_file(tmp_path, monkeypatch)
        started = tmp_path / "started"
        started.mkdir()
        script = f"""
import os, time
from pathlib import Path
from gebd import cli

def record_and_sleep(group):
    (Path({str(started)!r}) / f"{{os.getpid()}}-{{group[0].stem}}").touch()
    time.sleep(120)

cli._infer_group = record_and_sleep
cli.worker_count = lambda: 2
cli.INFER_GROUP_BYTES = 1
raise SystemExit(cli.main({argv!r}))
"""
        code, err, names = interrupt_group(script, started, 2)
        assert (code, err) == (130, "gebd: interrupted\n")
        assert sorted(name.partition("-")[2] for name in names) == ["v0", "v1"]  # no queued group ran
        pids = [int(name.partition("-")[0]) for name in names]
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if running(pid)]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_ctrl_c_while_a_worker_forks_is_one_line_and_leaves_no_worker(self, tmp_path, monkeypatch,
                                                                          blas_threads):
        """A SIGINT that lands while `infer` forks its two workers, sent from
        CPython's at-fork hook: it is not lost in the hooks, the run ends in
        one line with exit 130, and no worker is left. With a BLAS thread
        running, that thread takes the signal."""
        argv = self._one_group_per_file(tmp_path, monkeypatch)
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = f"""
import multiprocessing, os, signal
from pathlib import Path
from gebd import cli

signal.signal(signal.SIGINT, signal.default_int_handler)
os.register_at_fork(before=lambda: os.kill(os.getpid(), signal.SIGINT),
                    after_in_child=lambda: (Path({str(pid_dir)!r}) / str(os.getpid())).touch())
cli.worker_count = lambda: 2
cli.INFER_GROUP_BYTES = 1
code = cli.main({argv!r})
print(code, len(multiprocessing.active_children()))
"""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": blas_threads}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120)
        pids = [int(f.name) for f in pid_dir.iterdir()]
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert (done.stdout.split(), done.stderr) == (["130", "0"], "gebd: interrupted\n")
        assert len(pids) == 2 and not left

    def test_one_cpu_forks_no_worker(self, tmp_path, monkeypatch):
        argv = self._one_group_per_file(tmp_path, monkeypatch)
        monkeypatch.setattr(cli, "worker_count", util.worker_count)  # five groups, one CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert run(argv) == 0
        assert len(list((tmp_path / "o" / "detections").iterdir())) == 5
        assert forks == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_worker_count_is_the_cpus_the_process_may_run_on(self):
        code = ("import os\n"
                "from gebd.util import worker_count\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "print(worker_count())")
        assert fresh_python(code) == ["1"]

    def test_file_groups_stay_within_the_byte_limit(self, tmp_path):
        files = []
        for i, size in enumerate((40, 50, 30, 200, 10, 10)):
            files.append(tmp_path / f"f{i}")
            files[-1].write_bytes(b"x" * size)
        groups = cli._file_groups(files, 100)
        assert [[f.name for f in g] for g in groups] == [["f0", "f1"], ["f2"], ["f3"], ["f4", "f5"]]

    def test_checkpoint_header_payload_mismatch_clean_error(self, tmp_path, capsys, monkeypatch):
        data = synth_small(tmp_path, n=1)
        ckpt = tmp_path / "huge.gebw"
        ckpt.write_bytes(b"GEBW" + struct.pack("<9I", 1, 4, 6, 6, 6, 6, 4, 3, 60000)
                         + struct.pack("<3I", 128, 5, 7))

        def fail(*args, **kwargs):
            raise AssertionError("GebdModel.build called before the payload length was checked")

        monkeypatch.setattr(GebdModel, "build", fail)
        code = run(["infer", "--checkpoint", str(ckpt), "--features", str(data),
                    "--out", str(tmp_path / "o"), "--fps", "5"])
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err

    def test_checkpoint_mismatch_names_field(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=1)
        run_dir = train_small(tmp_path, data, epochs=0)
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                    "--features", str(data), "--out", str(tmp_path / "bad"),
                    "--fps", "2"])
        assert code == 1
        assert "neighbor_radius" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, words", [
        (["--fps", "3"], ["neighbor_radius mismatch", "radius 3", "radius 5"]),
        (["--fps", "5", "--features", "nope"], ["nope"]),
    ], ids=["fps", "missing_features"])
    def test_inputs_that_do_not_fit_fail_before_out_is_made(self, tmp_path, monkeypatch, capsys, problem, words):
        # were the inputs scored, the three files would be three groups over two forked workers
        data = synth_small(tmp_path, n=3)
        ckpt = tmp_path / "model.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4,
                                                          neighbor_radius=5), seed=3))
        monkeypatch.setattr(cli, "INFER_GROUP_BYTES", 1)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o"
        code = run(["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(out), *problem])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX), err
        assert all(w in err[0] for w in words), err
        assert not out.exists()
        assert forks == []

    def test_non_finite_fps_clean_error(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=1)
        run_dir = train_small(tmp_path, data, epochs=0)
        for fps in ("inf", "nan"):
            code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                        "--features", str(data), "--out", str(tmp_path / "bad"), "--fps", fps])
            assert code == 1
            assert "fps must be finite and positive" in capsys.readouterr().err
        # the fps is checked before the checkpoint is read
        code = run(["infer", "--checkpoint", str(tmp_path / "missing.gebw"),
                    "--features", str(data), "--out", str(tmp_path / "bad"), "--fps", "nan"])
        assert code == 1
        assert "fps must be finite and positive" in capsys.readouterr().err

    def test_tiny_fps_clean_error(self, tmp_path, capsys):
        # radius 1 takes every fps below 1.5; one this slow would put the
        # timestamps (f + 0.5) / fps past the float range
        data = synth_small(tmp_path, n=1, extra=["--fps", "0.9"])
        run_dir = train_small(tmp_path, data, epochs=0)
        for fps in ("1e-300", "1e-320"):
            code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                        "--features", str(data), "--out", str(tmp_path / "bad"), "--fps", fps])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert "fps must be finite and positive" in err

    def test_sub_one_fps_round_trip(self, tmp_path):
        # 0.4 fps maps to radius 1 both when training and when scoring
        data = synth_small(tmp_path, n=2, extra=["--fps", "0.4"])
        run_dir = train_small(tmp_path, data, epochs=1)
        assert load_checkpoint(run_dir / "model.gebw").config.neighbor_radius == 1
        out = tmp_path / "scored"
        assert run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(out), "--fps", "0.4"]) == 0
        assert len(list((out / "detections").glob("*.json"))) == 2

    def test_gelu_and_infer_load_scipys_erf_module_alone(self, tmp_path):
        # GELU takes erf from scipy's compiled ufunc module, without the
        # scipy.special package init; two threads that make the first GELU
        # call together share one load and get the same bits
        data = synth_small(tmp_path, n=2)
        ckpt = tmp_path / "m.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4), seed=0))
        race = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from gebd import nn\n"
            "from gebd.autodiff import Tensor\n"
            "x = Tensor(np.random.default_rng(0).standard_normal((64, 8)))\n"
            "barrier, outs = threading.Barrier(2), [None, None]\n"
            "def first_gelu(i):\n"
            "    barrier.wait()\n"
            "    outs[i] = nn.gelu(x).data\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=first_gelu, args=(i,)) for i in range(2)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(60)\n"
            "print('alive:', any(t.is_alive() for t in threads))\n"
            "print('same bits:', outs[0] is not None and np.array_equal(outs[0], outs[1]))\n"
            "print('loads:', nn._scipy_erf.cache_info().misses)\n"
            "print('scipy.special loaded:', 'scipy.special' in sys.modules)\n"
        )
        assert fresh_python(race) == ["alive: False", "same bits: True", "loads: 1",
                                      "scipy.special loaded: False"]
        infer = (
            "import sys, gebd.cli\n"
            f"code = gebd.cli.main(['infer', '--checkpoint', {str(ckpt)!r}, '--features', {str(data)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--fps', '5'])\n"
            "print('exit:', code)\n"
            "print('scipy.special loaded:', 'scipy.special' in sys.modules)\n"
        )
        assert fresh_python(infer)[-2:] == ["exit: 0", "scipy.special loaded: False"]
        assert len(list((tmp_path / "out" / "detections").glob("*.json"))) == 2

    def test_missing_erf_module_clean_error(self, tmp_path, capsys, monkeypatch):
        from importlib.metadata import version

        from gebd import nn

        data = synth_small(tmp_path, n=1)
        ckpt = tmp_path / "m.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4), seed=0))
        bare = tmp_path / "scipy"
        bare.mkdir()
        monkeypatch.setattr(nn, "_scipy_dir", lambda: str(bare))
        nn._scipy_erf.cache_clear()
        code = run(["infer", "--checkpoint", str(ckpt), "--features", str(data),
                    "--out", str(tmp_path / "out"), "--fps", "5"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(cli.ERROR_PREFIX), lines
        assert f"scipy {version('scipy')} at {bare}" in lines[0]

    def test_non_finite_checkpoint_clean_error(self, tmp_path, capsys):
        # the reader's scan is the one finiteness check of a checkpoint block
        data = synth_small(tmp_path, n=1)
        ckpt = tmp_path / "nan.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4), seed=0))
        raw = bytearray(ckpt.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        ckpt.write_bytes(bytes(raw))
        code = run(["infer", "--checkpoint", str(ckpt), "--features", str(data),
                    "--out", str(tmp_path / "out"), "--fps", "5"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(cli.ERROR_PREFIX), lines
        assert f"non-finite values in bias block at offset {len(raw) - 4}" in lines[0]

    @pytest.mark.parametrize("name, raw, message", [
        ("empty", b"", "bad magic at offset 0"),
        ("short", b"GEB", "bad magic at offset 0"),
        ("header-only", b"GEBW" + struct.pack("<12I", 1, 4, 6, 6, 6, 6, 4, 3, 8, 4, 5, 7),
         "truncated weights block at offset 52: need 432 bytes, have 0"),
        ("directory", None, "Is a directory"),
        ("missing", None, "No such file or directory"),
        ("flag-bit0-clear", b"GEBW" + struct.pack("<12I", 1, 4, 6, 6, 6, 6, 4, 3, 8, 4, 5, 6),
         "bit 0 (distance fusion) clear in flags 0x6 at offset 48"),
        ("flag-bit2-clear", b"GEBW" + struct.pack("<12I", 1, 4, 6, 6, 6, 6, 4, 3, 8, 4, 5, 3),
         "bit 2 (depthwise fronts) clear in flags 0x3 at offset 48"),
        ("flag-bit3", b"GEBW" + struct.pack("<12I", 1, 4, 6, 6, 6, 6, 4, 3, 8, 4, 5, 15),
         "unknown bits 0xf in flags at offset 48"),
    ], ids=["empty", "short", "header-only", "directory", "missing", "flag-bit0-clear", "flag-bit2-clear",
            "flag-bit3"])
    def test_empty_short_or_unreadable_checkpoint_clean_error(self, tmp_path, capsys, name, raw, message):
        # an empty file cannot be mapped, so the loader checks its size
        # first and these keep the reader's own messages
        data = synth_small(tmp_path, n=1)
        ckpt = tmp_path / "m.gebw"
        if name == "directory":
            ckpt.mkdir()
        elif raw is not None:
            ckpt.write_bytes(raw)
        code = run(["infer", "--checkpoint", str(ckpt), "--features", str(data),
                    "--out", str(tmp_path / "out"), "--fps", "5"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(cli.ERROR_PREFIX), lines
        assert message in lines[0]
        assert not (tmp_path / "out").exists()


class TestEval:
    def write_perfect_detections(self, tmp_path, data):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        anns = load_annotations(data / "annotations.json")
        for vid, ann in anns.items():
            (det_dir / f"{vid}.json").write_text(
                json.dumps({"video_id": vid, "timestamps": list(ann.boundaries)})
            )
        return det_dir

    def test_perfect_detections_all_ones(self, tmp_path):
        data = synth_small(tmp_path, n=3)
        det_dir = self.write_perfect_detections(tmp_path, data)
        report = tmp_path / "report.csv"
        code = run(["eval", "--detections", str(det_dir),
                    "--annotations", str(data / "annotations.json"),
                    "--out", str(report)])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 12
        for line in lines[1:]:
            _, p, r, f1 = line.split(",")
            assert float(p) == float(r) == float(f1) == 1.0

    def test_checkpoint_load_and_eval_leave_scipy_unloaded(self, tmp_path):
        # only nn.gelu needs scipy (for erf), and neither path runs it
        data = synth_small(tmp_path, n=2)
        det_dir = self.write_perfect_detections(tmp_path, data)
        save_checkpoint(tmp_path / "m.gebw", GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6)), seed=0))
        code = (
            "import sys, gebd, gebd.cli\n"
            f"gebd.load_checkpoint({str(tmp_path / 'm.gebw')!r})\n"
            "print('scipy loaded:', 'scipy' in sys.modules)\n"
            f"gebd.cli.main(['eval', '--detections', {str(det_dir)!r}, "
            f"'--annotations', {str(data / 'annotations.json')!r}, '--out', {str(tmp_path / 'r.csv')!r}])\n"
            "print('scipy loaded:', 'scipy' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = [line for line in out.stdout.splitlines() if line.startswith("scipy loaded:")]
        assert loaded == ["scipy loaded: False"] * 2
        assert (tmp_path / "r.csv").exists()

    def test_empty_detections_zero_report(self, tmp_path):
        data = synth_small(tmp_path, n=2)
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for vid in load_annotations(data / "annotations.json"):
            (det_dir / f"{vid}.json").write_text(
                json.dumps({"video_id": vid, "timestamps": []})
            )
        report = tmp_path / "report.csv"
        code = run(["eval", "--detections", str(det_dir),
                    "--annotations", str(data / "annotations.json"),
                    "--out", str(report)])
        assert code == 0
        for line in report.read_text().strip().splitlines()[1:]:
            assert line.split(",")[3] == "0.000000"

    def test_id_mismatch_lists_missing(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=2)
        det_dir = self.write_perfect_detections(tmp_path, data)
        next(iter(det_dir.glob("*.json"))).unlink()
        code = run(["eval", "--detections", str(det_dir),
                    "--annotations", str(data / "annotations.json"),
                    "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "without detections" in capsys.readouterr().err

    def test_non_finite_detections_or_duration_rejected(self, tmp_path, capsys):
        dets = tmp_path / "v.json"
        anns = tmp_path / "annotations.json"
        report = tmp_path / "r.csv"
        for timestamps, duration, message in (
            ("[1.0, NaN, 3.0]", "6.0", "timestamps must be finite"),
            ("[1.0, Infinity]", "6.0", "timestamps must be finite"),
            ("[1.0, 3.0]", "NaN", "duration must be finite"),
            ("[1.0, 3.0]", "Infinity", "duration must be finite"),
        ):
            dets.write_text(f'{{"video_id": "v", "timestamps": {timestamps}}}')
            anns.write_text(f'[{{"video_id": "v", "duration": {duration}, "fps": 5, "boundaries": [1.0, 3.0]}}]')
            code = run(["eval", "--detections", str(dets), "--annotations", str(anns),
                        "--out", str(report)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert message in err
            assert not report.exists()

    def test_json_values_of_the_wrong_type_rejected(self, tmp_path, capsys):
        # a string is not an array of numbers, and an id must be a string
        dets = tmp_path / "v.json"
        anns = tmp_path / "annotations.json"
        report = tmp_path / "r.csv"
        good_det = '{"video_id": "v", "timestamps": [1.0, 5.0]}'
        good_ann = '[{"video_id": "v", "duration": 10.0, "fps": 5, "boundaries": [1.0, 5.0]}]'
        for det, ann, message in (
            (good_det, '[{"video_id": "v", "duration": 10.0, "fps": 5, "boundaries": "123"}]',
             "boundaries must be a JSON array of numbers"),
            ('{"video_id": "v", "timestamps": "159"}', good_ann,
             "timestamps must be a JSON array of numbers"),
            ('{"video_id": ["v"], "timestamps": [1.0]}', good_ann, "video_id must be a JSON string"),
            (good_det, '[{"video_id": ["v"], "duration": 10.0, "fps": 5, "boundaries": []}]',
             "video_id must be a JSON string"),
            ('{"video_id": "v", "timestamps": [true, 5.0]}', good_ann, "timestamps[0] must be a JSON number"),
            ('{"video_id": "v", "timestamps": ["1.0", 5.0]}', good_ann, "timestamps[0] must be a JSON number"),
            (good_det, '[{"video_id": "v", "duration": "10", "fps": 5, "boundaries": []}]',
             "duration must be a JSON number"),
            ('{"video_id": "v", "timestamps": [1e999999999]}', good_ann, "timestamps must be finite"),
            ('{"video_id": "v", "timestamps": [1' + "0" * 400 + ']}', good_ann, "out of float range"),
        ):
            dets.write_text(det)
            anns.write_text(ann)
            code = run(["eval", "--detections", str(dets), "--annotations", str(anns),
                        "--out", str(report)])
            assert code == 1, (det, ann)
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert message in err, err
            assert not report.exists()

    def test_empty_or_non_finite_taus_rejected(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=2)
        det_dir = self.write_perfect_detections(tmp_path, data)
        report = tmp_path / "r.csv"
        for taus, message in (("", "empty threshold list"), ("nan", "finite and positive"),
                              ("0.05,nan", "finite and positive")):
            code = run(["eval", "--detections", str(det_dir),
                        "--annotations", str(data / "annotations.json"),
                        "--out", str(report), "--taus", taus])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert message in err
            assert not report.exists()


class TestConfigFile:
    def test_file_then_flags_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("frames = 40\nfps = 5\nnum_videos = 2\nsnr = 3.5\n")
        out = tmp_path / "out"
        code = run(["synth", "--out", str(out), "--config", str(cfg_file),
                    "--frames", "20", "--stage-dims", "4,4",
                    "--min-boundaries", "1", "--max-boundaries", "2"])
        assert code == 0
        echo = (out / "run_config.txt").read_text()
        assert "frames = 20" in echo     # flag wins
        assert "snr = 3.5" in echo       # file applies
        assert "num_videos = 2" in echo
        v = load_features(next(out.glob("*.gebf")), fps=5.0)
        assert v.num_frames == 20

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("nonsense_key = 3\n")
        code = run(["synth", "--out", str(tmp_path / "o"), "--config", str(cfg_file)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("num_videos = 3\nframes = 20\nnum_videos = 2\n")
        out = tmp_path / "o"
        assert run(["synth", "--out", str(out), "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{cli.ERROR_PREFIX}{cfg_file}:3: config key 'num_videos' repeats line 1"], err
        assert not out.exists()

    def test_echo_round_trips(self, tmp_path):
        out = synth_small(tmp_path, n=1)
        echo = out / "run_config.txt"
        parsed = cli.load_config_file(echo)
        assert parsed["frames"] == 30
        assert parsed["stage_dims"] == (6, 6, 6, 6)
        defaults = tmp_path / "defaults.txt"
        defaults.write_text(cli.format_config(cli.RunConfig()))
        assert cli.load_config_file(defaults) == asdict(cli.RunConfig())

    def test_default_echo_bytes_pinned(self):
        # run_config.txt is a reproducibility record: its default text must
        # not move when the defaults are restated or derived differently
        text = cli.format_config(cli.RunConfig()).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == DEFAULT_ECHO_SHA256

    def test_shared_fields_take_the_config_classes_defaults(self):
        run_defaults = cli.RunConfig()
        names = {f.name for f in fields(cli.RunConfig)}
        shared = 0
        for cls in (ModelConfig, TrainConfig):
            for f in fields(cls):
                if f.name in names:
                    assert getattr(run_defaults, f.name) == f.default, (cls.__name__, f.name)
                    shared += 1
        assert shared == 6 + 6  # ModelConfig's fields but neighbor_radius; all of TrainConfig's
        assert run_defaults.fps == ModelConfig.neighbor_radius


# An out-of-range value of every RunConfig field but the booleans (which
# take no value outside their range), with a fragment of its message.
OUT_OF_RANGE = [
    ("num_videos", "0", "num_videos must be >= 1"),
    ("frames", "0", "frames must be >= 1"),
    ("frames", "1000000000000", "bytes of physical memory"),
    ("fps", "nan", "fps must be finite and positive"),
    ("stage_dims", "6,0", "stage_dims must be positive"),
    ("stage_dims", "4294967296", "bytes of physical memory"),
    ("snr", "0", "snr must be positive"),
    ("min_boundaries", "-1", "need 0 <= min_boundaries <= max_boundaries"),
    ("max_boundaries", "2", "need 0 <= min_boundaries <= max_boundaries"),
    ("seed", "-1", "seed must be >= 0"),
    ("d_out", "0", "d_out must be >= 1"),
    ("d_head", "0", "d_head must be >= 1"),
    ("branch_count", "0", "branch_count must be >= 1"),
    ("decoder_blocks", "-1", "decoder_blocks must be >= 0"),
    ("epochs", "-3", "epochs must be >= 0"),
    ("batch_size", "0", "batch_size must be >= 1"),
    ("lr_peak", "0", "need 0 < lr_final < lr_peak"),
    ("lr_peak", "inf", "need 0 < lr_final < lr_peak < inf"),
    ("lr_final", "0", "need 0 < lr_final < lr_peak"),
    ("warmup_epochs", "-1", "warmup_epochs must be >= 0"),
    ("taus", "", "empty threshold list"),
    ("min_gap_seconds", "nan", "min_gap_seconds must be finite and >= 0"),
]


def command_argv(command: str, tmp_path: Path) -> list[str]:
    """A command whose inputs do not exist: a setting checked before any
    file is read fails on the setting, not on the missing input."""
    missing, out = tmp_path / "missing", str(tmp_path / "out")
    return {
        "synth": ["synth", "--out", out],
        "train": ["train", "--features", str(missing), "--annotations", str(missing / "a.json"), "--out", out],
        "infer": ["infer", "--checkpoint", str(missing / "m.gebw"), "--features", str(missing), "--out", out],
        "eval": ["eval", "--detections", str(missing), "--annotations", str(missing / "a.json"),
                 "--out", out],
    }[command]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def flag_commands(name: str) -> list[str]:
    return [c for c, p in subcommands().items() if any(a.dest == name for a in p._actions)]


# How many values a user can set: the fields of each config class (those of
# RunConfig are the config file's keys) and each subcommand's option strings
# but -h/--help. A new knob fails here, so it is seen in review.
SETTABLE_COUNTS = {"RunConfig": 20, "ModelConfig": 7, "TrainConfig": 6,
                   "synth": 12, "train": 16, "infer": 5, "eval": 5}


def test_settable_value_counts_are_pinned():
    counts = {cls.__name__: len(fields(cls)) for cls in (cli.RunConfig, ModelConfig, TrainConfig)}
    for command, parser in subcommands().items():
        counts[command] = sum(len(a.option_strings) for a in parser._actions
                              if not isinstance(a, argparse._HelpAction))
    assert counts == SETTABLE_COUNTS


def rejected_cases():
    for name, value, message in OUT_OF_RANGE:
        for command in ["synth", "train", "infer", "eval"]:
            yield pytest.param(command, "file", name, value, message, id=f"{name}={value}-{command}-file")
        for command in flag_commands(name):
            yield pytest.param(command, "flag", name, value, message, id=f"{name}={value}-{command}-flag")


# Settings that went, with a value, the command that had their flags and those flags.
RETIRED = [
    ("positive_radius_frames", "1", "train", ["--positive-radius-frames=1"]),
    ("fuse_distances", "true", "train", ["--fuse-distances", "--no-fuse-distances"]),
    ("use_depthwise", "true", "train", ["--use-depthwise", "--no-use-depthwise"]),
    ("smooth_training", "true", "train", ["--smooth-training", "--no-smooth-training"]),
    ("eval_average", "micro", "eval", ["--eval-average=micro"]),
    ("smooth_inference", "true", "infer", ["--smooth", "--no-smooth"]),
    ("clip_mode", "false", "infer", ["--clip-mode", "--no-clip-mode"]),
    ("clip_seconds", "10.0", "infer", ["--clip-seconds=10.0"]),
    ("overlap_seconds", "5.0", "infer", ["--overlap-seconds=5.0"]),
]
# A malformed list value of each list field, with what its error says.
EMPTY_ITEMS = [
    ("stage_dims", "4,,8,", "empty item in '4,,8,'"),
    ("taus", "0.05,,0.1,", "empty item in '0.05,,0.1,'"),
    ("stage_dims", "4,x", "item 'x' of '4,x' is not an integer"),
    ("taus", "0.05,x", "item 'x' of '0.05,x' is not a number"),
]


def unparsed_cases():
    """(command, config line or flag, fragment of its error) of settings
    that never reach a RunConfig: a retired setting's key and flags, and a
    list with an empty or malformed item."""
    for name, value, flag_command, flags in RETIRED:
        for command in ["synth", "train", "infer", "eval"]:
            yield pytest.param(command, f"{name} = {value}", f"unknown config key {name!r}",
                               id=f"{name}-{command}-file")
        for flag in flags:
            yield pytest.param(flag_command, flag, f"unrecognized arguments: {flag}",
                               id=f"{name}-{flag_command}{flag}")
    for name, value, message in EMPTY_ITEMS:
        flag = "--" + name.replace("_", "-")
        for command in ["synth", "train", "infer", "eval"]:
            yield pytest.param(command, f"{name} = {value}", f"bad value for {name!r}: {message}",
                               id=f"{name}={value}-{command}-file")
        for command in flag_commands(name):
            yield pytest.param(command, f"{flag}={value}", f"argument {flag}: {message}",
                               id=f"{name}={value}-{command}-flag")


class TestSettingsCheckedOnce:
    def test_table_covers_every_field_with_a_range(self):
        ranged = {f.name for f in fields(cli.RunConfig) if f.type != "bool"}
        assert {name for name, _, _ in OUT_OF_RANGE} == ranged

    @pytest.mark.parametrize("command, via, name, value, message", list(rejected_cases()))
    def test_out_of_range_value_rejected_before_any_file_or_directory(self, tmp_path, capsys,
                                                                       command, via, name, value, message):
        argv = command_argv(command, tmp_path)
        if via == "file":
            (tmp_path / "cfg.txt").write_text(f"{name} = {value}\n")
            argv += ["--config", str(tmp_path / "cfg.txt")]
        else:
            argv.append(f"--{name.replace('_', '-')}={value}")
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1, err
        assert message in err
        assert re.search(rf"\b{name}\b", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, setting, message", list(unparsed_cases()))
    def test_retired_or_malformed_setting_rejected_before_any_file_or_directory(self, tmp_path, capsys,
                                                                               command, setting, message):
        # a config line is one error line (exit 1), a flag argparse's usage error (exit 2)
        argv = command_argv(command, tmp_path)
        if setting.startswith("--"):
            with pytest.raises(SystemExit) as exit_info:
                run(argv + [setting])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert message in err, err
        else:
            (tmp_path / "cfg.txt").write_text(setting + "\n")
            assert run(argv + ["--config", str(tmp_path / "cfg.txt")]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert err.startswith(f"{cli.ERROR_PREFIX}{tmp_path / 'cfg.txt'}:1: {message}"), err
        assert "_parse" not in err  # the error says what is wrong, not which private function saw it
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--epochs", "2", "--warmup-epochs", "2"], "warmup_epochs 2 must be < epochs 2"),
        (["synth", "--stage-dims", ""], "stage_dims must be positive"),
    ])
    def test_rules_across_fields_rejected_before_any_file_or_directory(self, tmp_path, capsys, argv, message):
        assert run(command_argv(argv[0], tmp_path) + argv[1:]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_values_are_checked(self, tmp_path, capsys):
        # these used to be parsed, echoed into run_config.txt and exit 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("d_out = 0\nepochs = -3\nnum_videos = -5\ntaus =\n")
        data = synth_small(tmp_path, n=1)
        ckpt = tmp_path / "m.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4), seed=0))
        out = tmp_path / "out"
        assert run(["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(out),
                    "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(cli.ERROR_PREFIX)
        assert not out.exists()

    def test_parameter_block_past_physical_memory_rejected_before_any_directory(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=2)
        out = tmp_path / "out"
        code = run(["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                    "--out", str(out), "--d-out", "1000000000000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1, err
        assert "1000000000000" in err and "bytes of physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["missing annotations", "mixed fps"])
    def test_train_makes_no_directory_when_its_data_fails(self, tmp_path, capsys, problem):
        data = synth_small(tmp_path, n=2)
        if problem == "missing annotations":
            (data / "annotations.json").unlink()
        else:
            anns = json.loads((data / "annotations.json").read_text())
            anns[0]["fps"] = 4.0
            (data / "annotations.json").write_text(json.dumps(anns))
        out = tmp_path / "out"
        assert run(["train", "--features", str(data), "--annotations", str(data / "annotations.json"),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(cli.ERROR_PREFIX)
        assert not out.exists()

    def test_every_echo_loads_back_into_its_command(self, tmp_path):
        data = synth_small(tmp_path, n=2)
        run_dir = train_small(tmp_path, data, epochs=1)
        scored = tmp_path / "scored"
        assert run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(scored), "--fps", "5"]) == 0
        ann = str(data / "annotations.json")
        again = {
            data: ["synth", "--out", str(tmp_path / "data2")],
            run_dir: ["train", "--features", str(data), "--annotations", ann, "--out", str(tmp_path / "run2")],
            scored: ["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                     "--out", str(tmp_path / "scored2")],
        }
        for first, argv in again.items():
            echo = first / "run_config.txt"
            assert run([*argv, "--config", str(echo)]) == 0, argv[0]
            assert (Path(argv[-1]) / "run_config.txt").read_text() == echo.read_text()


class TestTrainSmokeTiming:
    def test_tiny_train_completes_quickly(self, tmp_path):
        import time

        data = synth_small(tmp_path, n=4)
        start = time.perf_counter()
        train_small(tmp_path, data, epochs=2)
        assert time.perf_counter() - start < 60.0

