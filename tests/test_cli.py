"""End-to-end command line behavior, run in-process via cli.main()."""

import argparse
import hashlib
import json
import multiprocessing
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from gebd import cli
from gebd import model as model_mod
from gebd.data import VideoFeatures, load_annotations, load_features, save_features, split_clips, synth_video
from gebd.model import GebdModel, ModelConfig, load_checkpoint, model_forward, save_checkpoint
from gebd.postprocess import (
    gaussian_smooth,
    load_detections,
    load_scores,
    merge_clip_scores,
    pick_peaks,
    save_detections,
    save_scores,
    smoothing_matrix,
)
from gebd.train import TrainConfig
from oracles import accumulate_clip_scores


SMALL = [
    "--frames", "30", "--fps", "5", "--stage-dims", "6,6,6,6",
    "--min-boundaries", "2", "--max-boundaries", "3",
]


DEFAULT_ECHO_SHA256 = "51b964b124a748621cf4e84a568c57bfdbf31bc9c3aeb4ad946f41f0edb756f8"


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


class TestSynth:
    def test_writes_features_annotations_manifest(self, tmp_path):
        out = synth_small(tmp_path, n=10)
        gebf = sorted(out.glob("*.gebf"))
        assert len(gebf) == 10
        anns = load_annotations(out / "annotations.json")
        assert len(anns) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["videos"]) == 10
        assert all("seed" in v for v in manifest["videos"])
        assert (out / "run_config.txt").exists()

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

    def test_missing_annotations_error(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=2)
        (data / "annotations.json").unlink()
        code = run(["train", "--features", str(data),
                    "--annotations", str(data / "annotations.json"),
                    "--out", str(tmp_path / "r")])
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err


class TestInfer:
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

    def test_no_smooth_changes_detections_on_noisy_input(self, tmp_path):
        data = synth_small(tmp_path, n=3, seed=2)
        run_dir = train_small(tmp_path, data, epochs=0)  # random-init model: noisy scores

        def detections(flag):
            out = tmp_path / f"infer_{flag}"
            code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                        "--features", str(data), "--out", str(out), "--fps", "5",
                        "--smooth" if flag else "--no-smooth"])
            assert code == 0
            return [load_detections(p).timestamps for p in sorted((out / "detections").glob("*.json"))]

        assert detections(True) != detections(False)

    def test_clip_mode_uses_expected_starts(self, tmp_path, monkeypatch):
        data = tmp_path / "long"
        code = run(["synth", "--out", str(data), "--num-videos", "1", "--frames", "100",
                    "--fps", "5", "--stage-dims", "6,6,6,6",
                    "--min-boundaries", "3", "--max-boundaries", "3"])
        assert code == 0
        run_dir = train_small(tmp_path, data, epochs=0)

        seen = []
        from gebd import postprocess as post_mod

        original = post_mod.merge_clip_scores

        def spy(scored):
            seen.append([clip.start_frame for clip, _ in scored])
            return original(scored)

        monkeypatch.setattr(post_mod, "merge_clip_scores", spy)
        out = tmp_path / "clipinfer"
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                    "--features", str(data), "--out", str(out), "--fps", "5",
                    "--clip-mode"])
        assert code == 0
        assert seen == [[0, 25, 50]]
        s = load_scores(next((out / "scores").glob("*.json")))
        assert len(s.scores) == 100

    def test_clip_mode_long_video_sums_smoothed_clip_scores(self, tmp_path):
        data = tmp_path / "long"
        code = run(["synth", "--out", str(data), "--num-videos", "1", "--frames", "3000",
                    "--fps", "5", "--stage-dims", "6,6,6,6"])
        assert code == 0
        run_dir = train_small(tmp_path, data, epochs=0)
        out = tmp_path / "clipinfer"
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                    "--features", str(data), "--out", str(out), "--fps", "5", "--clip-mode"])
        assert code == 0
        got = load_scores(next((out / "scores").glob("*.json")))
        assert got.smoothed

        model = load_checkpoint(run_dir / "model.gebw")
        video = load_features(next(data.glob("*.gebf")), fps=5.0)
        clips = split_clips(video, 10.0, 5.0)
        smoothed = [smoothing_matrix(c.num_frames, 5.0) @ model.forward(c.stages).data[:, 0]
                    for c in clips]
        want = accumulate_clip_scores([(c.start_frame, c.end_frame) for c in clips], smoothed,
                                      video.num_frames)
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["threads1", "threads2"])
    @pytest.mark.parametrize("group_bytes", [cli.INFER_GROUP_BYTES, 12000], ids=["default", "small"])
    @pytest.mark.parametrize("clip_mode", [False, True], ids=["whole", "clips"])
    def test_batched_groups_write_the_bytes_of_one_file_at_a_time(self, tmp_path, monkeypatch,
                                                                  clip_mode, group_bytes, threads):
        data = tmp_path / "data"
        for i, t in enumerate((50, 50, 37, 50, 37, 120)):
            video, _ = synth_video(i, t, 5.0, (6, 6, 6, 6), [1.5, 4.5], video_id=f"v{i}")
            save_features(data / f"v{i}.gebf", video)
        ckpt = tmp_path / "model.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4,
                                                          neighbor_radius=5), seed=3))
        monkeypatch.setattr(cli, "INFER_GROUP_BYTES", group_bytes)
        monkeypatch.setenv("GEBD_THREADS", threads)
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        clip_flags = ["--clip-mode", "--clip-seconds", "8", "--overlap-seconds", "4"] if clip_mode else []
        out = tmp_path / "infer"
        assert run(["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(out),
                    "--fps", "5", *clip_flags]) == 0
        workers = min(int(threads), len(cli._file_groups(sorted(data.glob("*.gebf")), group_bytes)))
        assert len(forks) == (0 if workers == 1 else workers)
        assert not multiprocessing.active_children()

        model = load_checkpoint(ckpt)
        want = tmp_path / "want"
        for path in sorted(data.glob("*.gebf")):
            video = load_features(path, fps=5.0)
            if clip_mode and video.num_frames > 40:
                scores = merge_clip_scores([
                    (clip, gaussian_smooth(model_forward(VideoFeatures(video.video_id, 5.0, clip.stages), model)))
                    for clip in split_clips(video, 8.0, 4.0)
                ])
            else:
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
        monkeypatch.setenv("GEBD_THREADS", "2")
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

    def test_non_finite_clip_settings_clean_error(self, tmp_path, capsys):
        # the clip settings are checked even when clip mode is off
        data = synth_small(tmp_path, n=1)
        run_dir = train_small(tmp_path, data, epochs=0)
        for flags in (["--clip-seconds", "inf"], ["--clip-seconds", "nan"],
                      ["--overlap-seconds", "inf"], ["--clip-mode", "--clip-seconds", "inf"]):
            code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"),
                        "--features", str(data), "--out", str(tmp_path / "bad"), "--fps", "5", *flags])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(cli.ERROR_PREFIX)
            assert "must be finite" in err

    def test_clip_settings_checked_without_clip_mode_before_the_checkpoint_is_read(self, tmp_path, capsys,
                                                                                   monkeypatch):
        data = synth_small(tmp_path, n=1)
        run_dir = train_small(tmp_path, data, epochs=0)

        def fail(*args, **kwargs):
            raise AssertionError("checkpoint read before the clip settings were checked")

        monkeypatch.setattr(model_mod, "load_checkpoint", fail)
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(tmp_path / "bad"), "--fps", "5", "--overlap-seconds", "20"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert "clip_seconds > overlap_seconds" in err

    def test_sub_one_fps_round_trip(self, tmp_path):
        # 0.4 fps maps to radius 1 both when training and when scoring
        data = synth_small(tmp_path, n=2, extra=["--fps", "0.4"])
        run_dir = train_small(tmp_path, data, epochs=1)
        assert load_checkpoint(run_dir / "model.gebw").config.neighbor_radius == 1
        out = tmp_path / "scored"
        assert run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(out), "--fps", "0.4"]) == 0
        assert len(list((out / "detections").glob("*.json"))) == 2

    def test_clip_frame_count_past_float_range_clean_error(self, tmp_path, capsys):
        data = synth_small(tmp_path, n=1)
        run_dir = train_small(tmp_path, data, epochs=0)
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(tmp_path / "bad"), "--fps", "5", "--clip-mode", "--clip-seconds", "1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert "more frames than a float holds" in err

    def test_clip_mode_checks_clip_settings_when_every_video_is_short(self, tmp_path, capsys):
        # every 30-frame video fits in one 20 s clip, but an overlap longer
        # than the clip is rejected all the same
        data = synth_small(tmp_path, n=2)
        run_dir = train_small(tmp_path, data, epochs=0)
        code = run(["infer", "--checkpoint", str(run_dir / "model.gebw"), "--features", str(data),
                    "--out", str(tmp_path / "bad"), "--fps", "5", "--clip-mode",
                    "--clip-seconds", "20", "--overlap-seconds", "25"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert "clip_seconds > overlap_seconds" in err

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
    ], ids=["empty", "short", "header-only", "directory", "missing"])
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

    def test_echo_round_trips(self, tmp_path):
        out = synth_small(tmp_path, n=1)
        echo = out / "run_config.txt"
        parsed = cli.load_config_file(echo)
        assert parsed["frames"] == 30
        assert parsed["stage_dims"] == (6, 6, 6, 6)
        assert parsed["smooth_inference"] is True
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
        assert shared == 8 + 7  # ModelConfig's fields but neighbor_radius; all of TrainConfig's
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
    ("positive_radius_frames", "-1", "positive_radius_frames must be >= 0"),
    ("clip_seconds", "inf", "clip_seconds > overlap_seconds"),
    ("overlap_seconds", "-1", "clip_seconds > overlap_seconds"),
    ("taus", "", "empty threshold list"),
    ("eval_average", "foo", "average must be 'micro' or 'macro'"),
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


def flag_commands(name: str) -> list[str]:
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [c for c, p in sub.choices.items() if any(a.dest == name for a in p._actions)]


def rejected_cases():
    for name, value, message in OUT_OF_RANGE:
        for command in ["synth", "train", "infer", "eval"]:
            yield pytest.param(command, "file", name, value, message, id=f"{name}={value}-{command}-file")
        for command in flag_commands(name):
            yield pytest.param(command, "flag", name, value, message, id=f"{name}={value}-{command}-flag")


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

    @pytest.mark.parametrize("argv, message", [
        (["train", "--epochs", "2", "--warmup-epochs", "2"], "warmup_epochs 2 must be < epochs 2"),
        (["infer", "--clip-seconds", "5", "--overlap-seconds", "5"], "clip_seconds > overlap_seconds"),
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


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        from gebd.util import worker_count

        monkeypatch.setenv("GEBD_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("GEBD_THREADS", "0")
        import pytest as _pytest
        with _pytest.raises(ValueError):
            worker_count()
        monkeypatch.delenv("GEBD_THREADS")
        assert worker_count() >= 1

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_value_fails_before_any_file_is_read(self, tmp_path, monkeypatch, capsys, value):
        def fail(*args, **kwargs):
            raise AssertionError("infer loaded the checkpoint before checking GEBD_THREADS")

        monkeypatch.setattr(model_mod, "load_checkpoint", fail)
        monkeypatch.setenv("GEBD_THREADS", value)
        out = tmp_path / "out"
        code = run(["infer", "--checkpoint", str(tmp_path / "m.gebw"), "--features", str(tmp_path / "f"),
                    "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(cli.ERROR_PREFIX) and "GEBD_THREADS" in err[0], err
        assert not out.exists()


class TestTrainSmokeTiming:
    def test_tiny_train_completes_quickly(self, tmp_path):
        import time

        data = synth_small(tmp_path, n=4)
        start = time.perf_counter()
        train_small(tmp_path, data, epochs=2)
        assert time.perf_counter() - start < 60.0
