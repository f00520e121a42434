"""End-to-end command line behavior, run in-process via cli.main()."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from gebd import cli
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
        (["--min-gap-seconds", "nan"], "cannot fit"),
        (["--snr", "nan"], "snr must be positive"),
        (["--num-videos", "-1"], "num_videos must be >= 1"),
        (["--num-videos", "0"], "num_videos must be >= 1"),
        (["--snr", "1e-320"], "not finite as float32"),  # noise std 1/snr is inf
        (["--fps", "1e-320"], "fps must be finite and positive"),  # below data.MIN_FPS
        (["--min-gap-seconds=-inf"], "duration and gap must be finite"),
    ])
    def test_nan_or_non_positive_settings_rejected(self, tmp_path, capsys, flags, message):
        code = run(["synth", "--out", str(tmp_path / "x"), "--num-videos", "1", *SMALL, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX)
        assert message in err

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

        monkeypatch.setattr(cli.post_mod, "merge_clip_scores", spy)
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

    @pytest.mark.parametrize("group_bytes", [cli.INFER_GROUP_BYTES, 12000], ids=["default", "small"])
    @pytest.mark.parametrize("clip_mode", [False, True], ids=["whole", "clips"])
    def test_batched_groups_write_the_bytes_of_one_file_at_a_time(self, tmp_path, monkeypatch,
                                                                  clip_mode, group_bytes):
        data = tmp_path / "data"
        for i, t in enumerate((50, 50, 37, 50, 37, 120)):
            video, _ = synth_video(i, t, 5.0, (6, 6, 6, 6), [1.5, 4.5], video_id=f"v{i}")
            save_features(data / f"v{i}.gebf", video)
        ckpt = tmp_path / "model.gebw"
        save_checkpoint(ckpt, GebdModel.build(ModelConfig(stage_dims=(6, 6, 6, 6), d_out=8, d_head=4,
                                                          neighbor_radius=5), seed=3))
        monkeypatch.setattr(cli, "INFER_GROUP_BYTES", group_bytes)
        clip_flags = ["--clip-mode", "--clip-seconds", "8", "--overlap-seconds", "4"] if clip_mode else []
        out = tmp_path / "infer"
        assert run(["infer", "--checkpoint", str(ckpt), "--features", str(data), "--out", str(out),
                    "--fps", "5", *clip_flags]) == 0

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

        monkeypatch.setattr(cli, "load_checkpoint", fail)
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
        assert shared == 8 + 6  # ModelConfig's fields but neighbor_radius; TrainConfig's but smooth_targets
        assert run_defaults.smooth_training == TrainConfig.smooth_targets
        assert run_defaults.fps == ModelConfig.neighbor_radius


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


class TestTrainSmokeTiming:
    def test_tiny_train_completes_quickly(self, tmp_path):
        import time

        data = synth_small(tmp_path, n=4)
        start = time.perf_counter()
        train_small(tmp_path, data, epochs=2)
        assert time.perf_counter() - start < 60.0
