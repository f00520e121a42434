"""Windowed scoring (`model.score_clips`): a clip is computed as windows with
a halo of the model's receptive field, and gets the bits of one whole-clip
forward while its activations never span more than one window."""

import numpy as np
import pytest

from gebd import cli
from gebd.data import VideoFeatures, split_clips, synth_video
from gebd.model import (
    WINDOW_ALIGN,
    WINDOW_HALOS,
    GebdModel,
    ModelConfig,
    _score_windows,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    score_clips,
    window_spans,
)
from oracles import traced_peak

BENCH = ModelConfig(stage_dims=(32, 32, 32, 32), d_out=64, d_head=32, neighbor_radius=5)
SMALL = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=5)
HALO = 64  # the default structure's receptive field, 30, rounded up to WINDOW_ALIGN
KEEP = WINDOW_HALOS * HALO  # 2048: the frames each window of the default structure keeps
ONE_WINDOW = KEEP + 2 * HALO  # the longest clip that is a single window


def stages(seed, t, dims, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((t, d)).astype(dtype) for d in dims]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.gebw"
    save_checkpoint(path, GebdModel.build(BENCH, seed=30))
    return load_checkpoint(path)


@pytest.mark.parametrize("config, r", [
    (ModelConfig(stage_dims=(4,)), 30),  # branch 8 + 1, radius 5, merge 1, decoder 2 + 4 + 8, head 1
    (ModelConfig(stage_dims=(4, 6), branch_count=3, decoder_blocks=0, neighbor_radius=3),
     10),  # branch 4 + 1, radius 3, merge 1, head 1
    (ModelConfig(stage_dims=(4,), branch_count=1, decoder_blocks=1, neighbor_radius=2), 7),
])
def test_receptive_field_is_the_exact_halo(config, r):
    # float64, windows that keep 96 frames: a halo of R frames scores every
    # frame as the whole clip does (up to the last bits of an unaligned
    # window), and a halo of R - 1 misses a frame some score reads
    model = GebdModel.build(config, seed=31)
    assert model.receptive_field() == r
    x = stages(31, 400, config.stage_dims)
    whole = model.forward(x).data[:, 0]
    (exact,) = _score_windows(model, [x], 96, r)
    (short,) = _score_windows(model, [x], 96, r - 1)
    np.testing.assert_allclose(exact, whole, rtol=0, atol=1e-12)
    assert np.abs(short - whole).max() > 1e-8


@pytest.mark.parametrize("t", [1, 300, ONE_WINDOW, ONE_WINDOW + 1, 2 * KEEP + 1, 5000])
def test_windows_partition_the_clip_on_aligned_rows(t):
    spans = window_spans(t, KEEP, HALO)
    assert len(spans) == (1 if t <= ONE_WINDOW else -(-t // KEEP))
    assert [s[2] for s in spans] == [0] + [s[3] for s in spans[:-1]] and spans[-1][3] == t
    for lo, hi, start, end in spans:
        assert 0 <= lo <= start < end <= hi <= t and hi - lo <= ONE_WINDOW
        assert lo == max(0, start - HALO) and (hi == min(t, end + HALO) or len(spans) == 1)
        assert lo % WINDOW_ALIGN == 0 and (hi == t or hi % WINDOW_ALIGN == 0)


@pytest.mark.parametrize("t", [ONE_WINDOW, ONE_WINDOW + 1, 2250, 5000])
def test_windowed_scores_are_the_whole_video_bits(loaded, t):
    # 5000 = 78 * 64 + 8 frames: three windows, the last ending off the
    # 64-row grid. With OpenBLAS, the last score of the synthetic 2250-frame
    # video moves by 3e-8 under unaligned windows (a halo of 30 frames).
    video, _ = synth_video(1, t, 5.0, BENCH.stage_dims, [10.0 * k for k in range(1, t // 50)], snr=1.0)
    built = GebdModel.build(SMALL, seed=32)
    for model, x in ((loaded, video.stages), (built, stages(33, t, SMALL.stage_dims))):
        scores = model_forward(VideoFeatures("v", 5.0, x), model).scores
        np.testing.assert_array_equal(scores, model.forward(x).data[:, 0])


@pytest.mark.parametrize("clip_seconds, overlap_seconds, t", [
    (10.0, 5.0, 3000),   # 119 clips of 50 frames: batches of at most ONE_WINDOW frames
    (1000.0, 500.0, 6000),  # two clips of 5000 frames, three windows each
])
def test_clip_mode_gets_the_bits_of_each_clip_alone(loaded, monkeypatch, clip_seconds, overlap_seconds, t):
    video = VideoFeatures("v", 5.0, stages(34, t, BENCH.stage_dims, np.float32))
    spans = split_clips(video, clip_seconds, overlap_seconds)
    clips = [[stage[s:e] for stage in video.stages] for s, e in spans]
    want = [loaded.forward(c).data[:, 0] for c in clips]
    batch_frames = []
    forward = loaded.forward

    def spy(x):
        batch_frames.append(x[0].shape[0] * (x[0].shape[1] if x[0].ndim == 3 else 1))
        return forward(x)

    monkeypatch.setattr(loaded, "forward", spy)
    got = score_clips(loaded, clips)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert max(batch_frames) <= ONE_WINDOW and len(batch_frames) >= 3, batch_frames
    cfg = cli.RunConfig(stage_dims=BENCH.stage_dims, clip_mode=True, clip_seconds=clip_seconds,
                        overlap_seconds=overlap_seconds, smooth_inference=False)
    (merged,) = cli._score_videos([video], loaded, cfg)
    total = np.zeros(t)
    for (s, e), w in zip(spans, want):
        total[s:e] += w
    np.testing.assert_array_equal(merged.scores, total)


def test_scoring_memory_does_not_grow_with_t(loaded):
    # Only one window's activations are alive at a time, so eight times the
    # frames peak within 1.3x (about 1.1x here); a whole-video forward
    # peaked about 8x higher at 8W than at W.
    peaks = []
    for t in (KEEP, 8 * KEEP):
        video = VideoFeatures("v", 5.0, stages(35, t, BENCH.stage_dims, np.float32))
        model_forward(video, loaded)  # warm: first-call imports stay out of the peak
        scores, peak = traced_peak(model_forward, video, loaded)
        assert len(scores.scores) == t
        peaks.append(peak)
    assert peaks[1] < 1.3 * peaks[0], peaks
