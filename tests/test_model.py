"""Decoder, head, full model forward, and checkpoint round trips."""

import hashlib
import os
import stat
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gebd.autodiff import seq_tensor
from gebd.boundaries import load_detections
from gebd.data import Annotation, VideoFeatures, load_features, save_annotations, save_features
from gebd.model import (
    GebdModel,
    ModelConfig,
    SdParams,
    check_features_compatible,
    head_forward,
    init_decoder,
    init_head,
    load_checkpoint,
    model_forward,
    parameter_count,
    save_checkpoint,
    sd_forward,
    stack_videos,
)
from gebd.nn import gelu, random_params
from gradcheck import layer_norm
from oracles import open_descriptors, traced_peak

gelu(seq_tensor(np.zeros((1, 1))))  # loads GELU's erf here, so the memory tests keep its first-call load out of their peaks


TINY = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=2)
THREE_STAGE = ModelConfig(stage_dims=(4, 8, 16), branch_count=3, decoder_blocks=0, d_out=12,
                          d_head=6, neighbor_radius=3)
BENCH = ModelConfig(stage_dims=(32, 32, 32, 32), d_out=64, d_head=32, neighbor_radius=5)
# a 3.9 MB checkpoint whose largest block is 0.8 MB
FEW_MB = ModelConfig(stage_dims=(96, 96, 96, 96), d_out=128, d_head=64, neighbor_radius=2)
# every size field drawn off its default; use_residual takes both settings
OFF_DEFAULT_CONFIGS = st.builds(
    ModelConfig,
    stage_dims=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    branch_count=st.integers(1, 3),
    decoder_blocks=st.integers(0, 2),
    d_out=st.integers(1, 6),
    d_head=st.integers(1, 6),
    neighbor_radius=st.integers(1, 4),
    use_residual=st.booleans(),
)

# sha256 of save_checkpoint(GebdModel.build(cfg, seed)). Seeded checkpoints
# are reproducible artifacts: a change to the parameter tree code must not
# move a byte of them.
GOLDEN_CHECKPOINTS = [
    (TINY, 0, "b5ceb6e994f2fe933ecda92a9865225f46a4400b637b5c3402cbd0f22f861196"),
    (TINY, 7, "2958a03d588497ee9f656add8557a2110e36a192bdfccb03f01a5e640aa7d375"),
    (THREE_STAGE, 0, "67b3a03e37c4d4149fa2fa3b8c55eb792e0285218232eed7c463253bccb16645"),
    (THREE_STAGE, 7, "da95e7c9828fcf866ad7669de903b1b5e7580b642f60355831b9114a62985fc3"),
    (BENCH, 0, "e00d1c4c5e2244193ebf1ba4fe92491565978ad909d6dda6298a9dd7a525ce08"),
    (BENCH, 7, "9d3089410bd34802ded025c154e6aa23205196b90b7b856a673ac538c6a702a9"),
]

# sha256 of the newline-joined `parameters()` paths of each GOLDEN_CHECKPOINTS
# config: the names a divergence error prints, which the bytes do not pin.
GOLDEN_PATHS = [
    (TINY, "77a2545b7494d926f7ea7bcc96d19e9e02f793b3bc3b7e652878b3a3ae64a3bd"),
    (THREE_STAGE, "0741ab2e5d66de61b213b568ee7e4dfe032c27cfa10d8429a43c89506fc89216"),
    (BENCH, "77a2545b7494d926f7ea7bcc96d19e9e02f793b3bc3b7e652878b3a3ae64a3bd"),
]


def tiny_stages(seed=0, t=12, dims=(8, 8, 8, 8)):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((t, d)) for d in dims]


class TestSdForward:
    def test_shape_preserved(self):
        rng = np.random.default_rng(0)
        decoder = init_decoder(random_params(rng), TINY)
        x = seq_tensor(rng.standard_normal((15, 8)))
        assert sd_forward(x, decoder).data.shape == (15, 8)

    def test_dilations_ascending_powers(self):
        decoder = init_decoder(random_params(np.random.default_rng(1)), TINY)
        assert [b.conv.dilation for b in decoder.blocks] == [2, 4, 8]
        assert all(b.conv.width == 3 for b in decoder.blocks)

    def test_empty_stack_is_identity(self):
        rng = np.random.default_rng(2)
        x = seq_tensor(rng.standard_normal((10, 8)))
        out = sd_forward(x, SdParams([]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_receptive_field_bound(self):
        # width 3 at dilations 2+4+8 reaches at most 14 frames
        rng = np.random.default_rng(3)
        decoder = init_decoder(random_params(rng), TINY)
        x = rng.standard_normal((40, 8))
        base = sd_forward(seq_tensor(x), decoder).data
        xp = x.copy()
        xp[20] += 1.0
        out = sd_forward(seq_tensor(xp), decoder).data
        changed = np.flatnonzero(np.abs(out - base).max(axis=1) > 1e-12)
        assert changed.size > 0
        assert np.all(np.abs(changed - 20) <= 14)

    def test_identity_conv_blocks_reduce_to_norm_gelu_chain(self):
        rng = np.random.default_rng(4)
        decoder = init_decoder(random_params(rng), TINY)
        eye = np.zeros((8, 8, 3))
        eye[:, :, 1] = np.eye(8)
        for block in decoder.blocks:
            block.conv.weights.update_data(eye)
            block.conv.bias.update_data(np.zeros(8))
        x = seq_tensor(rng.standard_normal((9, 8)))
        got = sd_forward(x, decoder).data
        ref = x
        for block in decoder.blocks:
            ref = gelu(layer_norm(ref, block.norm))
        np.testing.assert_allclose(got, ref.data, atol=1e-12)

    def test_zero_is_fixed_point_of_identity_blocks(self):
        rng = np.random.default_rng(5)
        decoder = init_decoder(random_params(rng), TINY)
        eye = np.zeros((8, 8, 3))
        eye[:, :, 1] = np.eye(8)
        for block in decoder.blocks:
            block.conv.weights.update_data(eye)
            block.conv.bias.update_data(np.zeros(8))
        out = sd_forward(seq_tensor(np.zeros((6, 8))), decoder)
        np.testing.assert_allclose(out.data, np.zeros((6, 8)), atol=1e-15)


class TestHeadForward:
    def test_scores_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(6)
        head = init_head(random_params(rng), TINY)
        x = seq_tensor(rng.standard_normal((14, 8)) * 5)
        out = head_forward(x, head).data
        assert out.shape == (14, 1)
        assert np.all(out > 0) and np.all(out < 1)

    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(7)
        head = init_head(random_params(rng), TINY)
        head.conv1.weights.update_data(np.zeros_like(head.conv1.weights.data))
        head.conv1.bias.update_data(np.zeros(8))
        head.conv2.weights.update_data(np.zeros_like(head.conv2.weights.data))
        head.conv2.bias.update_data(np.zeros(1))
        out = head_forward(seq_tensor(np.random.default_rng(8).standard_normal((9, 8))), head)
        np.testing.assert_allclose(out.data, np.full((9, 1), 0.5))

    def test_raising_final_bias_raises_every_score(self):
        rng = np.random.default_rng(9)
        head = init_head(random_params(rng), TINY)
        x = seq_tensor(rng.standard_normal((11, 8)))
        base = head_forward(x, head).data
        head.conv2.bias.update_data(head.conv2.bias.data + 0.5)
        raised = head_forward(x, head).data
        assert np.all(raised > base)


class TestModelForward:
    def test_fifty_frames_give_fifty_scores(self):
        cfg = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=5)
        model = GebdModel.build(cfg, seed=0)
        video = VideoFeatures("v", 5.0, tiny_stages(t=50))
        scores = model_forward(video, model)
        assert len(scores.scores) == 50
        assert not scores.smoothed
        assert np.all((scores.scores > 0) & (scores.scores < 1))

    def test_deterministic(self):
        model = GebdModel.build(TINY, seed=1)
        stages = tiny_stages(1)
        a = model.forward(stages).data
        b = model.forward(stages).data
        np.testing.assert_array_equal(a, b)

    def test_stage_count_and_channel_checks(self):
        model = GebdModel.build(TINY, seed=2)
        with pytest.raises(ValueError, match="stages"):
            model.forward(tiny_stages(0)[:3])
        bad = tiny_stages(0)
        bad[2] = np.zeros((12, 5))
        with pytest.raises(ValueError, match="stage 2"):
            model.forward(bad)

    def test_translation_covariance_in_interior(self):
        cfg = ModelConfig(stage_dims=(6, 6, 6, 6), d_out=6, d_head=6, neighbor_radius=2)
        model = GebdModel.build(cfg, seed=3)
        t_len, shift = 96, 3
        # constant background with a localized pattern, then the same pattern shifted
        rng = np.random.default_rng(4)
        pattern = rng.standard_normal((5, 6))
        base_stage = np.tile(rng.standard_normal(6), (t_len, 1))

        def stages_with_pattern(pos):
            out = []
            for _ in range(4):
                s = base_stage.copy()
                s[pos:pos + 5] += pattern
                out.append(s)
            return out

        a = model.forward(stages_with_pattern(40)).data[:, 0]
        b = model.forward(stages_with_pattern(40 + shift)).data[:, 0]
        # model reach: branch (8+1) + distances 2 + merge 1 + decoder 14 + head 1 = 27
        lo, hi = 30, 60
        np.testing.assert_allclose(a[lo:hi], b[lo + shift:hi + shift], atol=1e-6)


class TestParameters:
    def test_fixed_order_and_depthwise_presence(self):
        model = GebdModel.build(TINY, seed=5)
        names = [n for n, _ in model.parameters()]
        assert names[0] == "tps/stages/0/branches/0/conv/weights"  # r=1 branch: no depthwise
        assert "tps/stages/0/branches/1/depthwise/weights" in names
        assert names[-1] == "head/conv2/bias"
        assert len(names) == len(set(names))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=OFF_DEFAULT_CONFIGS)
    @example(cfg=TINY)
    @example(cfg=THREE_STAGE)
    @example(cfg=BENCH)
    def test_parameter_count_is_the_built_models(self, cfg):
        model = GebdModel.build(cfg, seed=0)
        assert parameter_count(cfg) == sum(p.data.size for _, p in model.parameters())

    def test_build_rejects_parameters_past_physical_memory_before_any_block(self):
        cfg = ModelConfig(stage_dims=(4,), decoder_blocks=10 ** 9, d_out=4, d_head=4, neighbor_radius=1)
        with pytest.raises(ValueError, match=r"^the float64 parameters of ModelConfig\(.*decoder_blocks=1000000000, "
                                             r".*\) needs \d+ bytes, more than the \d+ bytes of physical memory$"):
            GebdModel.build(cfg)


class TestModelConfig:
    @pytest.mark.parametrize("name, value", [
        ("branch_count", 0),
        ("d_out", 0),
        ("d_head", 0),
        ("neighbor_radius", 0),
        ("decoder_blocks", -1),
        ("stage_dims", (8, 0, 8)),
    ])
    def test_out_of_range_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: value})


def test_whole_video_forward_memory_per_frame(tmp_path):
    # A loaded model keeps no tape, and `model_forward` scores the video as
    # windows of at most 2176 frames, each cast to float32 from the float64
    # stages as it runs: 18000 frames peak at about 380 bytes per frame, one
    # window's activations plus the scores. A whole-video forward held a few
    # layers of float32 activations for every frame, about 3.1 KB per frame,
    # and the taped float64 forward about 80 KB.
    path = tmp_path / "m.gebw"
    save_checkpoint(path, GebdModel.build(BENCH, seed=17))
    model = load_checkpoint(path)
    t = 18000
    rng = np.random.default_rng(17)
    video = VideoFeatures("long", 5.0, [rng.standard_normal((t, 32)) for _ in range(4)])
    scores, peak = traced_peak(model_forward, video, model)
    assert len(scores.scores) == t
    assert peak < 1_000 * t, peak / t


def test_feature_file_forward_memory_per_frame(tmp_path):
    # The file's stages reach the float32 model as views of its bytes, and
    # the model scores one window of at most 2176 frames at a time, so
    # reading the file (512 bytes per frame) and scoring it peak at about
    # 830 bytes per frame. A whole-video forward peaked at about 3.1 KB per
    # frame; before it read the file's views in place and each conv its
    # input, at about 6.1 KB.
    save_checkpoint(tmp_path / "m.gebw", GebdModel.build(BENCH, seed=18))
    model = load_checkpoint(tmp_path / "m.gebw")
    t = 18000
    rng = np.random.default_rng(18)
    save_features(tmp_path / "long.gebf", VideoFeatures("long", 5.0, [rng.standard_normal((t, 32)) for _ in range(4)]))
    scores, peak = traced_peak(lambda: model_forward(load_features(tmp_path / "long.gebf", fps=5.0), model))
    assert len(scores.scores) == t
    assert peak < 1_200 * t, peak / t


def _forward_inputs(model, stages, monkeypatch):
    """(array handed to seq_tensor, tensor it made) for each stage input of one forward."""
    import gebd.model as model_mod

    seen = []

    def capture(arr):
        t = seq_tensor(arr)
        seen.append((arr, t))
        return t

    monkeypatch.setattr(model_mod, "seq_tensor", capture)
    model.forward(stages)
    return seen


def test_stacked_and_cast_forward_inputs_are_held_once(tmp_path, monkeypatch):
    save_checkpoint(tmp_path / "m.gebw", GebdModel.build(TINY, seed=19))
    loaded = load_checkpoint(tmp_path / "m.gebw")
    rng = np.random.default_rng(19)
    videos = [[rng.standard_normal((12, 8)).astype(np.float32) for _ in range(4)] for _ in range(3)]
    stacks = stack_videos(videos)
    for stack, (arr, t) in zip(stacks, _forward_inputs(loaded, stacks, monkeypatch)):
        assert not stack.flags.writeable
        assert np.shares_memory(t.data, stack)  # float32 stack into a float32 model
    # float32 stacks into a float64 model: the forward's own cast is not copied again
    for arr, t in _forward_inputs(GebdModel.build(TINY, seed=19), stacks, monkeypatch):
        assert arr.dtype == np.float64 and t.data is arr


def test_a_loaded_file_reaches_the_forward_without_a_copy(tmp_path, monkeypatch):
    # `infer` hands `score_clips` each video's stages as the loaded file's
    # views, and a float32 model's forward reads them without a copy
    import gebd.data as data_mod
    import gebd.model as model_mod
    from gebd import cli

    save_checkpoint(tmp_path / "m.gebw", GebdModel.build(TINY, seed=20))
    loaded = load_checkpoint(tmp_path / "m.gebw")
    save_features(tmp_path / "v.gebf", VideoFeatures("v", 2.0, tiny_stages(20, t=30)))
    videos, clips = [], []
    load = data_mod.load_features
    score_clips = model_mod.score_clips

    def load_spy(path, fps):
        videos.append(load(path, fps))
        return videos[-1]

    def score_spy(model, stages):
        clips.extend(stages)
        return score_clips(model, stages)

    monkeypatch.setattr(data_mod, "load_features", load_spy)
    monkeypatch.setattr(model_mod, "score_clips", score_spy)
    monkeypatch.setattr(cli, "_infer_run", (loaded, cli.RunConfig(fps=2.0), tmp_path / "out"))
    counts = cli._infer_group([tmp_path / "v.gebf"])
    assert counts == [len(load_detections(tmp_path / "out" / "detections" / "v.json").timestamps)]
    (video,), (clip,) = videos, clips
    for stage, whole in zip(clip, video.stages):
        assert stage is whole and not stage.flags.owndata
    for stage, (arr, t) in zip(clip, _forward_inputs(loaded, stack_videos([clip]), monkeypatch)):
        assert np.shares_memory(t.data, stage)


class TestCheckpoint:
    @pytest.mark.parametrize("cfg, seed, digest", GOLDEN_CHECKPOINTS, ids=[
        "tiny-0", "tiny-7", "three_stage-0", "three_stage-7", "bench-0", "bench-7"])
    def test_seeded_checkpoint_bytes_pinned(self, tmp_path, cfg, seed, digest):
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(cfg, seed=seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("cfg, digest", GOLDEN_PATHS, ids=["tiny", "three_stage", "bench"])
    def test_parameter_paths_pinned(self, cfg, digest):
        paths = "\n".join(name for name, _ in GebdModel.build(cfg, seed=0).parameters())
        assert hashlib.sha256(paths.encode()).hexdigest() == digest

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        model = GebdModel.build(TINY, seed=0)
        video = VideoFeatures("v", 2.0, tiny_stages(0))
        old = os.umask(umask)
        try:
            save_checkpoint(tmp_path / "m.gebw", model)
            save_features(tmp_path / "v.gebf", video)
            save_annotations(tmp_path / "a.json", [Annotation("v", 6.0, (3.0,), 2.0)])
        finally:
            os.umask(old)
        for name in ("m.gebw", "v.gebf", "a.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(TINY, seed=3))

        def fail(*args, **kwargs):
            raise AssertionError("load_checkpoint initialized parameters at random")

        monkeypatch.setattr(GebdModel, "build", fail)
        monkeypatch.setattr(np.random, "default_rng", fail)
        again = tmp_path / "again.gebw"
        save_checkpoint(again, load_checkpoint(path))
        assert again.read_bytes() == path.read_bytes()

    def test_round_trip_bit_identical(self, tmp_path):
        model = GebdModel.build(TINY, seed=8)
        p1, p2 = tmp_path / "a.gebw", tmp_path / "b.gebw"
        save_checkpoint(p1, model)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_params_are_f32_cast_of_originals(self, tmp_path):
        model = GebdModel.build(TINY, seed=9)
        path = tmp_path / "m.gebw"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        for (name, p), (name2, q) in zip(model.parameters(), loaded.parameters()):
            assert name == name2
            np.testing.assert_array_equal(q.data, p.data.astype(np.float32).astype(np.float64))

    def test_config_survives(self, tmp_path):
        cfg = ModelConfig(stage_dims=(4, 8, 16, 32), branch_count=3, decoder_blocks=2,
                          d_out=12, d_head=6, neighbor_radius=3, use_residual=False)
        model = GebdModel.build(cfg, seed=10)
        path = tmp_path / "cfg.gebw"
        save_checkpoint(path, model)
        assert load_checkpoint(path).config == cfg

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=OFF_DEFAULT_CONFIGS)
    @example(cfg=ModelConfig(stage_dims=(1,), branch_count=1, decoder_blocks=0, d_out=1, d_head=1,
                             neighbor_radius=1, use_residual=False))
    def test_random_config_round_trips(self, tmp_path, cfg):
        for f in fields(ModelConfig):
            if f.type != "bool":
                assert getattr(cfg, f.name) != f.default, f.name
        path = tmp_path / "random.gebw"
        save_checkpoint(path, GebdModel.build(cfg, seed=0))
        raw = path.read_bytes()
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        save_checkpoint(path, loaded)
        assert path.read_bytes() == raw

    def test_scores_identical_after_reload_of_reloaded(self, tmp_path):
        # f32 storage: reload(save(reload)) is exact
        model = GebdModel.build(TINY, seed=11)
        path = tmp_path / "m.gebw"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        save_checkpoint(path, loaded)
        again = load_checkpoint(path)
        stages = tiny_stages(11)
        np.testing.assert_array_equal(loaded.forward(stages).data, again.forward(stages).data)

    def test_save_holds_about_one_block(self, tmp_path):
        # each block is cast, checked and written in turn; joining every
        # block's bytes before the write held about twice the file
        model = GebdModel.build(FEW_MB, seed=21)
        largest = max(p.data.size for _, p in model.parameters()) * 4
        _, peak = traced_peak(save_checkpoint, tmp_path / "m.gebw", model)
        size = (tmp_path / "m.gebw").stat().st_size
        assert largest < size / 4
        assert peak < 1.5 * largest, (peak, largest, size)

    def test_load_copies_nothing(self, tmp_path):
        # the parameters are views into a mapping of the file; the largest
        # allocation is the finiteness scan's bool temporary of one block
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(FEW_MB, seed=22))
        size = path.stat().st_size
        _, peak = traced_peak(load_checkpoint, path)
        assert peak < size / 8, (peak, size)

    def test_loaded_model_holds_one_descriptor_until_dropped(self, tmp_path):
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(TINY, seed=23))
        before = open_descriptors()
        loaded = load_checkpoint(path)
        assert open_descriptors() == before + 1
        del loaded
        assert open_descriptors() == before

    def test_replacing_a_loaded_checkpoint_leaves_its_model_unchanged(self, tmp_path):
        # save_checkpoint renames a new file over the path, so the mapping
        # a loaded model reads keeps the old file's bytes
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(TINY, seed=24))
        loaded = load_checkpoint(path)
        stages = tiny_stages(24)
        before = loaded.forward(stages).data.copy()
        save_checkpoint(path, GebdModel.build(TINY, seed=25))
        np.testing.assert_array_equal(loaded.forward(stages).data, before)
        assert not np.array_equal(load_checkpoint(path).forward(stages).data, before)

    def test_truncation_and_magic_errors(self, tmp_path):
        model = GebdModel.build(TINY, seed=12)
        path = tmp_path / "bad.gebw"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(raw + bytes(4))
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)
        path.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_header_checked_against_payload_before_build(self, tmp_path, monkeypatch):
        # 40-byte files, one stage, no payload. Allocating what the header
        # claims before reading would take 80.5 GiB for d_out=60000, 86 GiB
        # for a stage dim of 60000, or 2**31 branches and decoder blocks.
        headers = [
            (1, 1, 8, 4, 3, 60000, 128, 5, 7),
            (1, 1, 60000, 4, 3, 8, 8, 5, 7),
            (1, 1, 8, 2 ** 31, 2 ** 31, 8, 8, 5, 7),
        ]

        def fail(*args, **kwargs):
            raise AssertionError("GebdModel.build called before the payload length was checked")

        monkeypatch.setattr(GebdModel, "build", fail)
        path = tmp_path / "huge.gebw"
        for header in headers:
            path.write_bytes(b"GEBW" + struct.pack("<9I", *header))
            assert path.stat().st_size == 40
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="truncated"):
                    load_checkpoint(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (header, peak)

    def test_non_finite_parameters_rejected(self, tmp_path):
        path = tmp_path / "nan.gebw"
        save_checkpoint(path, GebdModel.build(TINY, seed=14))
        raw = bytearray(path.read_bytes())
        header = 4 + 4 * (2 + len(TINY.stage_dims) + 6)
        raw[header:header + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"non-finite values in weights block at offset {header}"):
            load_checkpoint(path)

    def test_loaded_model_is_float32_and_keeps_no_tape(self, tmp_path):
        path = tmp_path / "m.gebw"
        built = GebdModel.build(TINY, seed=15)
        save_checkpoint(path, built)
        loaded = load_checkpoint(path)
        for _, p in loaded.parameters():
            assert p.data.dtype == np.float32 and not p.requires_grad
            assert not p.data.flags.owndata  # a view into the checkpoint bytes
        out = loaded.forward(tiny_stages(15))
        assert out.data.dtype == np.float32
        assert out._parents == () and out._backward is None
        ref = built.forward(tiny_stages(15))
        assert ref.data.dtype == np.float64
        assert ref._parents and ref._backward is not None

    def test_loaded_scores_within_1e_4_of_built_float64(self, tmp_path):
        path = tmp_path / "m.gebw"
        built = GebdModel.build(BENCH, seed=16)
        save_checkpoint(path, built)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(16)
        video = VideoFeatures("v", 5.0, [rng.standard_normal((200, 32)) for _ in range(4)])
        np.testing.assert_allclose(model_forward(video, loaded).scores,
                                   model_forward(video, built).scores, rtol=0, atol=1e-4)

    def test_compatibility_check_names_field(self):
        model = GebdModel.build(TINY, seed=13)
        rng = np.random.default_rng(13)
        wrong_dims = VideoFeatures("v", 2.0, [rng.standard_normal((10, 4))] * 4)
        with pytest.raises(ValueError, match="stage_dims"):
            check_features_compatible(model.config, wrong_dims)
        wrong_fps = VideoFeatures("v", 5.0, [rng.standard_normal((10, 8)) for _ in range(4)])
        with pytest.raises(ValueError, match="neighbor_radius"):
            check_features_compatible(model.config, wrong_fps)
