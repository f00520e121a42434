"""Gaussian smoothing, peak picking, and clip-score merging."""

import json
import tracemalloc

import numpy as np
import pytest

from gebd.data import Clip, VideoFeatures, split_clips
from gebd.postprocess import (
    BoundaryScores,
    DetectionList,
    gaussian_smooth,
    load_detections,
    load_scores,
    merge_clip_scores,
    pick_peaks,
    save_detections,
    save_scores,
    smooth_frames,
    smoothing_matrix,
    smoothing_taps,
    smoothing_window,
)
from oracles import accumulate_clip_scores, loop_pick_peaks


def scores_of(values, fps=5.0, video_id="v", smoothed=False):
    return BoundaryScores(video_id, fps, np.asarray(values, dtype=float), smoothed)


class TestSmoothing:
    def test_window_forced_odd(self):
        assert smoothing_window(5.0) == 5
        assert smoothing_window(4.0) == 5
        assert smoothing_window(6.0) == 7
        assert smoothing_window(1.0) == 1

    def test_impulse_response_matches_normalized_taps(self):
        # normalized exp(-j^2/2) over a 5-tap window
        signal = np.zeros(21)
        signal[10] = 1.0
        out = gaussian_smooth(scores_of(signal)).scores
        assert out[10] == pytest.approx(0.40262, abs=1e-4)
        assert out[9] == out[11] == pytest.approx(0.24420, abs=1e-4)
        assert out[8] == out[12] == pytest.approx(0.05449, abs=1e-4)
        assert np.all(out[:8] == 0) and np.all(out[13:] == 0)

    def test_constant_signal_unchanged(self):
        out = gaussian_smooth(scores_of(np.full(17, 0.37))).scores
        np.testing.assert_allclose(out, np.full(17, 0.37), atol=1e-12)

    def test_max_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = scores_of(rng.uniform(0, 1, size=30))
            assert gaussian_smooth(s).scores.max() <= s.scores.max() + 1e-12

    def test_interior_mass_preserved(self):
        # a signal supported away from the edges keeps its total mass
        signal = np.zeros(30)
        signal[10:20] = np.linspace(0.2, 0.9, 10)
        out = gaussian_smooth(scores_of(signal)).scores
        assert out.sum() == pytest.approx(signal.sum(), abs=1e-9)

    def test_length_preserved_and_flag_set(self):
        out = gaussian_smooth(scores_of(np.ones(7)))
        assert len(out.scores) == 7
        assert out.smoothed

    def test_matrix_rows_sum_to_one(self):
        m = smoothing_matrix(12, 5.0)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(12), atol=1e-12)

    @pytest.mark.parametrize("fps", [5.0, 10.0, 30.0])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 4, 16, 31, 32, 100])
    def test_kernel_and_adjoint_match_dense_matrix(self, t_len, fps):
        # T at or below the tap window is where a "same"-mode convolution
        # would return max(T, taps) samples
        rng = np.random.default_rng(t_len)
        m = smoothing_matrix(t_len, fps)
        x = rng.uniform(0, 1, size=t_len)
        np.testing.assert_allclose(smooth_frames(x, fps), m @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth_frames(x, fps, adjoint=True), m.T @ x, rtol=0, atol=1e-12)
        xs = rng.standard_normal((t_len, 3))
        np.testing.assert_allclose(smooth_frames(xs, fps), m @ xs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth_frames(xs, fps, adjoint=True), m.T @ xs,
                                   rtol=0, atol=1e-12)

    def test_taps_symmetric_and_normalized(self):
        taps = smoothing_taps(5.0)
        assert len(taps) == 5
        np.testing.assert_allclose(taps, taps[::-1])
        assert taps.sum() == pytest.approx(1.0)


class TestPickPeaks:
    def test_all_below_threshold_empty(self):
        out = pick_peaks(scores_of(np.full(20, 0.1)))
        assert out.timestamps == []

    def test_single_spike(self):
        signal = np.full(50, 0.05)
        signal[20] = 0.9
        out = pick_peaks(scores_of(signal))
        assert out.timestamps == [pytest.approx(4.1)]

    def test_plateau_earliest_frame_fires(self):
        signal = np.full(50, 0.05)
        signal[10] = signal[11] = 0.9
        out = pick_peaks(scores_of(signal))
        assert out.timestamps == [pytest.approx(2.1)]

    def test_two_peaks_outside_window_both_fire(self):
        signal = np.full(50, 0.05)
        signal[10] = 0.9
        signal[20] = 0.8
        out = pick_peaks(scores_of(signal))
        assert len(out.timestamps) == 2

    def test_window_max_predicate_post_hoc(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(0, 1, size=int(rng.integers(5, 80)))
            s = scores_of(x)
            out = pick_peaks(s)
            w = 2  # floor(0.5 * 5 fps)
            for ts in out.timestamps:
                f = int(round(ts * 5.0 - 0.5))
                lo, hi = max(0, f - w), min(len(x), f + w + 1)
                assert x[f] > 0.1
                assert x[f] >= x[lo:hi].max()

    def test_sorted_and_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=60)
        a = pick_peaks(scores_of(x)).timestamps
        b = pick_peaks(scores_of(x)).timestamps
        assert a == b == sorted(a)

    @pytest.mark.parametrize("fps", [1.0, 2.0, 5.0, 10.0, 30.0])
    def test_matches_frame_loop_oracle(self, fps):
        rng = np.random.default_rng(int(fps))
        cases = [rng.uniform(0, 1, size=t) for t in (1, 2, 3)]
        for _ in range(200):
            t = int(rng.integers(1, 150))
            cases.append(rng.uniform(0, 1, size=t))
            # plateau-heavy: few distinct levels, long runs of equal values
            cases.append(np.repeat(rng.integers(0, 4, size=t) / 3.0,
                                   rng.integers(1, 6, size=t))[:t])
        for x in cases:
            assert pick_peaks(scores_of(x, fps=fps)).timestamps == loop_pick_peaks(x, fps)

    def test_smoothing_reduces_detections_on_noisy_corpus(self):
        # medians over 100 seeded noisy signals: smoothed <= raw
        rng = np.random.default_rng(3)
        raw_counts, smooth_counts = [], []
        for _ in range(100):
            x = np.clip(rng.uniform(0, 0.5, size=50) + rng.normal(0, 0.15, size=50), 0, 1)
            s = scores_of(x)
            raw_counts.append(len(pick_peaks(s).timestamps))
            smooth_counts.append(len(pick_peaks(gaussian_smooth(s)).timestamps))
        assert np.median(smooth_counts) <= np.median(raw_counts)


def test_whole_video_postprocess_memory_linear_in_frames():
    # 200 s at 30 fps: a dense T x T smoothing operator would be 288 MB
    t_len, fps = 6000, 30.0
    x = np.random.default_rng(6).uniform(0, 1, size=t_len)
    s = scores_of(x, fps=fps)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pick_peaks(gaussian_smooth(s))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * t_len * 8


class TestMergeClipScores:
    def make_clip(self, start, end, video_id="v", fps=5.0):
        frames = end - start
        return Clip(video_id, start, end, [np.zeros((frames, 2))], fps)

    def test_single_clip_unchanged(self):
        clip = self.make_clip(0, 30)
        sc = scores_of(np.linspace(0, 1, 30))
        merged = merge_clip_scores([(clip, sc)])
        np.testing.assert_array_equal(merged.scores, sc.scores)

    def test_overlap_sums(self):
        a = self.make_clip(0, 50)
        b = self.make_clip(25, 75)
        merged = merge_clip_scores([
            (a, scores_of(np.full(50, 0.5))),
            (b, scores_of(np.full(50, 0.5))),
        ])
        np.testing.assert_allclose(merged.scores[:25], 0.5)
        np.testing.assert_allclose(merged.scores[25:50], 1.0)
        np.testing.assert_allclose(merged.scores[50:], 0.5)

    def test_three_clip_layout_vs_loop_oracle(self):
        rng = np.random.default_rng(4)
        ranges = [(0, 50), (25, 75), (50, 100)]
        values = [rng.uniform(0, 1, size=50) for _ in ranges]
        scored = [(self.make_clip(s, e), scores_of(v)) for (s, e), v in zip(ranges, values)]
        merged = merge_clip_scores(scored)
        want = accumulate_clip_scores(ranges, values, 100)
        np.testing.assert_array_equal(merged.scores, want)

    def test_coverage_gap_errors(self):
        scored = [
            (self.make_clip(0, 20), scores_of(np.ones(20))),
            (self.make_clip(30, 50), scores_of(np.ones(20))),
        ]
        with pytest.raises(ValueError, match="coverage gap"):
            merge_clip_scores(scored)

    def test_split_then_merge_covers_parent(self):
        rng = np.random.default_rng(5)
        video = VideoFeatures("p", 5.0, [rng.standard_normal((110, 3))])
        clips = split_clips(video, 10.0, 5.0)
        scored = [(c, scores_of(np.ones(c.num_frames), video_id="p")) for c in clips]
        merged = merge_clip_scores(scored)
        assert len(merged.scores) == 110
        assert np.all(merged.scores >= 1.0)

    def test_mixed_fps_rejected(self):
        scored = [
            (self.make_clip(0, 20), scores_of(np.ones(20))),
            (self.make_clip(10, 30, fps=2.0), scores_of(np.ones(20), fps=2.0)),
        ]
        with pytest.raises(ValueError, match="fps"):
            merge_clip_scores(scored)


class TestScoreAndDetectionFiles:
    def test_score_round_trip(self, tmp_path):
        s = scores_of(np.linspace(0.1, 0.9, 12), smoothed=True)
        path = tmp_path / "s.json"
        save_scores(path, s)
        loaded = load_scores(path)
        assert loaded.video_id == s.video_id
        assert loaded.smoothed
        np.testing.assert_allclose(loaded.scores, s.scores, atol=1e-12)

    def test_detection_round_trip(self, tmp_path):
        d = DetectionList("v", [1.1, 2.3, 7.9])
        path = tmp_path / "d.json"
        save_detections(path, d)
        loaded = load_detections(path)
        assert loaded.video_id == "v"
        assert loaded.timestamps == pytest.approx([1.1, 2.3, 7.9])

    def test_invalid_file_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid"):
            load_scores(path)
        with pytest.raises(ValueError, match="invalid"):
            load_detections(path)

    def test_score_file_values_of_the_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        good = {"video_id": "v", "fps": 5.0, "scores": [0.1, 0.2], "smoothed": False}
        for key, value, message in (("scores", "0.5", "scores must be a JSON array"),
                                    ("scores", [0.1, "0.2"], r"scores\[1\] must be a JSON number"),
                                    ("smoothed", "false", "smoothed must be a JSON bool"),
                                    ("fps", "5", "fps must be a JSON number"),
                                    ("video_id", 7, "video_id must be a JSON string")):
            path.write_text(json.dumps({**good, key: value}))
            with pytest.raises(ValueError, match=message):
                load_scores(path)
        for fps in ("Infinity", "1e999", "NaN"):
            path.write_text(json.dumps(good).replace("5.0", fps))
            with pytest.raises(ValueError, match="fps must be finite and positive"):
                load_scores(path)
        path.write_text(json.dumps(good))
        assert load_scores(path).scores.tolist() == [0.1, 0.2]

    def test_detections_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            DetectionList("v", [2.0, 1.0])
