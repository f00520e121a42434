"""Feature file IO, synthetic generation, frame labels, clip splitting."""

import numpy as np
import pytest

from gebd.boundaries import load_annotations
from gebd.data import (
    Annotation,
    VideoFeatures,
    frame_labels,
    load_features,
    nearest_frame,
    random_boundary_times,
    save_annotations,
    save_features,
    split_clips,
    synth_video,
)
from oracles import open_descriptors


class TestFeatureFiles:
    def make_video(self, seed=0, t=12, dims=(4, 6)):
        rng = np.random.default_rng(seed)
        return VideoFeatures("vid", 5.0, [rng.standard_normal((t, d)) for d in dims])

    def test_round_trip_bit_identical(self, tmp_path):
        v = self.make_video()
        p1 = tmp_path / "a.gebf"
        p2 = tmp_path / "b.gebf"
        save_features(p1, v)
        loaded = load_features(p1, fps=5.0)
        save_features(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_stages_are_read_only_float32_views(self, tmp_path):
        path = tmp_path / "v.gebf"
        save_features(path, self.make_video())
        for stage in load_features(path, fps=5.0).stages:
            assert stage.dtype == np.float32
            assert not stage.flags.writeable
            assert not stage.flags.owndata

    def test_load_leaves_no_descriptor_open(self, tmp_path):
        # the file is read into bytes, not mapped: training holds every
        # video's stages, and a mapping would hold a descriptor per video
        path = tmp_path / "v.gebf"
        save_features(path, self.make_video())
        before = open_descriptors()
        video = load_features(path, fps=5.0)
        assert open_descriptors() == before
        assert video.num_frames == 12

    def test_synth_and_list_input_become_float64(self):
        video, _ = synth_video(0, 10, 5.0, (3, 4), [1.0])
        assert all(s.dtype == np.float64 for s in video.stages)
        listed = VideoFeatures("v", 5.0, [[[1.0, 2.0]], np.ones((1, 3), dtype=np.float16)])
        assert [s.dtype for s in listed.stages] == [np.float64, np.float64]

    def test_float32_array_kept_as_is(self):
        stage = np.ones((4, 2), dtype=np.float32)
        assert VideoFeatures("v", 5.0, [stage]).stages[0] is stage

    def test_header_shapes(self, tmp_path):
        dims = (256, 512, 1024, 2048)
        rng = np.random.default_rng(1)
        v = VideoFeatures("big", 5.0, [rng.standard_normal((50, d)) for d in dims])
        path = tmp_path / "big.gebf"
        save_features(path, v)
        loaded = load_features(path, fps=5.0)
        assert loaded.num_frames == 50
        assert loaded.stage_dims == dims

    def test_video_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "clip042.gebf"
        save_features(path, self.make_video())
        assert load_features(path, fps=5.0).video_id == "clip042"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.gebf"
        save_features(path, self.make_video())
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated.*offset"):
            load_features(path, fps=5.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gebf"
        save_features(path, self.make_video())
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic at offset 0"):
            load_features(path, fps=5.0)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.gebf"
        save_features(path, self.make_video())
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_features(path, fps=5.0)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.gebf"
        save_features(path, self.make_video())
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(ValueError, match="trailing"):
            load_features(path, fps=5.0)


class TestSynthVideo:
    def test_determinism(self):
        a, _ = synth_video(7, 20, 5.0, (4, 4), [1.5, 2.5])
        b, _ = synth_video(7, 20, 5.0, (4, 4), [1.5, 2.5])
        for sa, sb in zip(a.stages, b.stages):
            np.testing.assert_array_equal(sa, sb)

    def test_zero_noise_piecewise_constant(self):
        v, ann = synth_video(3, 25, 5.0, (6,), [2.0], snr=None)
        s = v.stages[0]
        # boundary at 2.0 s -> frames 0..9 in segment 0, 10..24 in segment 1
        adjacent = np.linalg.norm(np.diff(s, axis=0), axis=1)
        assert np.all(adjacent[:9] == 0)
        assert adjacent[9] > 0
        assert np.all(adjacent[10:] == 0)
        assert ann.boundaries == (2.0,)

    def test_cross_boundary_dominates_noise_at_snr4(self):
        # generator health: cross-boundary steps dwarf within-segment jitter
        cross, within = [], []
        for seed in range(100):
            v, _ = synth_video(seed, 50, 5.0, (8,), [3.0, 6.2], snr=4.0)
            s = v.stages[0]
            d2 = (np.diff(s, axis=0) ** 2).sum(axis=1)
            centers = (np.arange(50) + 0.5) / 5.0
            crossing = np.array([
                (centers[f] < b <= centers[f + 1]) for f in range(49)
                for b in [3.0, 6.2]
            ]).reshape(49, 2).any(axis=1)
            cross.extend(d2[crossing])
            within.extend(d2[~crossing])
        assert np.mean(cross) > 3 * np.mean(within)

    def test_boundary_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            synth_video(0, 20, 5.0, (4,), [2.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            synth_video(0, 20, 5.0, (4,), [4.5])  # duration is 4.0 s
        with pytest.raises(ValueError, match="positive"):
            synth_video(0, 20, 5.0, (4, 0), [1.0])


class TestNearestFrameAndLabels:
    def test_no_boundaries_all_zero(self):
        ann = Annotation("v", 10.0, (), 5.0)
        np.testing.assert_array_equal(frame_labels(ann, 50, 5.0, 1), np.zeros(50))

    def test_equidistant_tie_goes_earlier(self):
        # boundary 3.0 s at 5 fps: centers 2.9 (frame 14) and 3.1 (frame 15) tie
        assert nearest_frame(3.0, 5.0, 50) == 14
        ann = Annotation("v", 10.0, (3.0,), 5.0)
        labels = frame_labels(ann, 50, 5.0, 0)
        np.testing.assert_array_equal(np.flatnonzero(labels), [14])

    def test_non_tie_picks_nearest_center(self):
        assert nearest_frame(3.1, 5.0, 50) == 15
        assert nearest_frame(2.95, 5.0, 50) == 14

    def test_radius_one_widens_to_three_frames(self):
        ann = Annotation("v", 10.0, (3.0,), 5.0)
        labels = frame_labels(ann, 50, 5.0, 1)
        np.testing.assert_array_equal(np.flatnonzero(labels), [13, 14, 15])

    def test_radius_clipped_at_ends(self):
        ann = Annotation("v", 10.0, (0.1,), 5.0)
        labels = frame_labels(ann, 50, 5.0, 2)
        np.testing.assert_array_equal(np.flatnonzero(labels), [0, 1, 2])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            frame_labels(Annotation("v", 10.0, (), 5.0), 50, 5.0, -1)

    def test_length_always_t(self):
        ann = Annotation("v", 10.0, (1.0, 5.0, 9.9), 5.0)
        for t in (5, 50, 173):
            assert len(frame_labels(ann, t, 5.0, 1)) == t


class TestSplitClips:
    def make_video(self, t, fps=5.0):
        rng = np.random.default_rng(0)
        return VideoFeatures("v", fps, [rng.standard_normal((t, 3))])

    def test_short_video_single_clip(self):
        assert split_clips(self.make_video(30), 10.0, 5.0) == [(0, 30)]

    def test_hundred_frames_starts(self):
        assert split_clips(self.make_video(100), 10.0, 5.0) == [(0, 50), (25, 75), (50, 100)]

    def test_tail_rule(self):
        spans = split_clips(self.make_video(110), 10.0, 5.0)
        assert [s for s, _ in spans] == [0, 25, 50, 60]
        assert spans[-1][1] == 110

    def test_coverage_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = int(rng.integers(1, 400))
            spans = split_clips(self.make_video(t), 10.0, 5.0)
            covered = np.zeros(t, dtype=bool)
            for s, e in spans:
                covered[s:e] = True
                assert 0 <= s < e <= t and e - s <= 50
            assert covered.all()

    def test_sliced_data_matches_parent(self, monkeypatch):
        from gebd import cli
        from gebd import model as model_mod

        v = self.make_video(100)
        seen = []

        def spy(model, clips):
            seen.extend(clips)
            return [np.zeros(len(stages[0])) for stages in clips]

        monkeypatch.setattr(model_mod, "score_clips", spy)
        cli._score_videos([v], None, cli.RunConfig(clip_mode=True, clip_seconds=10.0, overlap_seconds=5.0))
        assert len(seen) == 3
        np.testing.assert_array_equal(seen[1][0], v.stages[0][25:75])
        assert np.shares_memory(seen[1][0], v.stages[0])

    def test_param_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            split_clips(self.make_video(10), 5.0, 5.0)
        with pytest.raises(ValueError, match="finite"):
            split_clips(self.make_video(10), float("inf"), 5.0)

    def test_clip_frame_count_past_float_range_rejected(self):
        # 1e308 s is finite, but 1e308 s at 5 fps is not
        with pytest.raises(ValueError, match="more frames than a float holds"):
            split_clips(self.make_video(10), 1e308, 5.0)


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        anns = [
            Annotation("a", 10.0, (1.25, 3.8), 5.0),
            Annotation("b", 12.0, (), 5.0),
        ]
        path = tmp_path / "ann.json"
        save_annotations(path, anns)
        loaded = load_annotations(path)
        assert set(loaded) == {"a", "b"}
        assert loaded["a"].boundaries == pytest.approx((1.25, 3.8), abs=1e-9)
        assert loaded["b"].boundaries == ()
        assert loaded["a"].duration == 10.0

    def test_duplicate_video_id(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '[{"video_id": "a", "duration": 5, "fps": 5, "boundaries": []},'
            ' {"video_id": "a", "duration": 6, "fps": 5, "boundaries": []}]'
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_annotations(path)

    def test_malformed_record_names_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"video_id": "a", "duration": 5, "fps": 5, "boundaries": []}, {"video_id": "b"}]')
        with pytest.raises(ValueError, match=r"annotations\[1\]"):
            load_annotations(path)

    def test_invalid_boundary_order(self):
        with pytest.raises(ValueError, match="increasing"):
            Annotation("v", 10.0, (3.0, 2.0), 5.0)
        with pytest.raises(ValueError, match="outside"):
            Annotation("v", 10.0, (11.0,), 5.0)

    def test_non_finite_fps_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('[{"video_id": "a", "duration": 5, "fps": Infinity, "boundaries": []}]')
        with pytest.raises(ValueError, match="finite and positive"):
            load_annotations(path)
        for fps in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                VideoFeatures("v", fps, [np.zeros((3, 2))])


class TestRandomBoundaryTimes:
    def test_respects_gap_and_margins(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            times = random_boundary_times(rng, 10.0, 6, min_gap=1.0)
            assert len(times) == 6
            assert all(1.0 <= t <= 9.0 for t in times)
            assert np.all(np.diff(times) >= 1.0)

    def test_infeasible_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="cannot fit"):
            random_boundary_times(rng, 5.0, 10, min_gap=1.0)

    @pytest.mark.parametrize("duration, gap", [(float("inf"), 1.0), (10.0, -float("inf")),
                                               (float("inf"), -float("inf")), (10.0, -1.0)])
    def test_non_finite_duration_or_gap_rejected(self, duration, gap):
        with pytest.raises(ValueError, match="must be finite"):
            random_boundary_times(np.random.default_rng(0), duration, 2, min_gap=gap)

    @pytest.mark.parametrize("duration, gap", [(10.0, float("nan")), (float("nan"), 1.0)])
    def test_no_boundaries_still_checks_duration_and_gap(self, duration, gap):
        with pytest.raises(ValueError, match="must be finite"):
            random_boundary_times(np.random.default_rng(0), duration, 0, gap)

    def test_no_boundaries_need_no_room(self):
        assert random_boundary_times(np.random.default_rng(0), 0.2, 0, min_gap=1.0) == []
