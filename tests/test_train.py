"""Loss, schedule, Adam, and the training loop."""

import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from gebd.autodiff import Tensor, fold_sum
from gebd.data import frame_labels, load_features, save_features, synth_video
from gebd.model import GebdModel, ModelConfig, load_checkpoint, save_checkpoint
from gebd.train import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    bce_loss,
    lr_schedule,
    _minibatch_gradients,
    time_smooth,
    train,
    write_loss_curve,
)
from gradcheck import check_op_gradients
from oracles import traced_peak
from test_model import OFF_DEFAULT_CONFIGS


TINY = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=2)


def tiny_dataset(seed=0, count=1, t=12, fps=2.0):
    out = []
    for i in range(count):
        video, ann = synth_video(seed + i, t, fps, (8, 8, 8, 8), [2.1], snr=4.0)
        labels = frame_labels(ann, t, fps, 1)
        out.append((video, labels))
    return out


class TestBceLoss:
    def test_perfect_prediction_near_zero(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        pred = Tensor(y.reshape(-1, 1))
        assert float(bce_loss(pred, y).data[0, 0]) <= 1e-6

    def test_half_everywhere_is_ln2(self):
        pred = Tensor(np.full((10, 1), 0.5))
        assert float(bce_loss(pred, np.zeros(10)).data[0, 0]) == pytest.approx(math.log(2))

    def test_four_frame_hand_sum(self):
        p = np.array([0.9, 0.2, 0.7, 0.4])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        want = -(math.log(0.9) + math.log(0.8) + math.log(0.7) + math.log(0.6)) / 4
        got = float(bce_loss(Tensor(p.reshape(-1, 1)), y).data[0, 0])
        assert got == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions vs"):
            bce_loss(Tensor(np.full((3, 1), 0.5)), np.zeros(4))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.uniform(0.05, 0.95, size=(8, 1)), requires_grad=True)
        y = rng.integers(0, 2, size=8).astype(float)
        check_op_gradients(lambda: bce_loss(p, y), [p])


class TestLrSchedule:
    CFG = TrainConfig(epochs=10, warmup_epochs=2, lr_peak=4e-4, lr_final=4e-6)

    def test_step_zero_is_zero(self):
        assert lr_schedule(0, 25, self.CFG) == 0.0

    def test_warmup_is_linear(self):
        w = 2 * 25
        assert lr_schedule(w // 2, 25, self.CFG) == pytest.approx(2e-4)

    def test_end_of_warmup_hits_peak(self):
        assert lr_schedule(2 * 25, 25, self.CFG) == pytest.approx(4e-4)

    def test_continuous_at_junction(self):
        w = 2 * 25
        before = lr_schedule(w - 1, 25, self.CFG)
        at = lr_schedule(w, 25, self.CFG)
        assert at == pytest.approx(4e-4)
        assert before == pytest.approx(4e-4 * (w - 1) / w)

    def test_last_step_hits_final(self):
        last = 10 * 25 - 1
        assert lr_schedule(last, 25, self.CFG) == pytest.approx(4e-6, abs=1e-9)

    def test_monotone_decay_after_warmup(self):
        values = [lr_schedule(s, 25, self.CFG) for s in range(50, 250)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="warmup"):
            TrainConfig(epochs=2, warmup_epochs=2)
        with pytest.raises(ValueError, match="lr_final"):
            TrainConfig(lr_peak=1e-4, lr_final=1e-3)
        TrainConfig(epochs=0)  # initialize-only sentinel is allowed


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        state = AdamState.init([p])
        p.grad = np.zeros(3)
        adam_step(state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState.init([p])
        p.grad = np.ones(1)
        adam_step(state, lr=0.01)
        # bias-corrected m_hat / sqrt(v_hat) = 1 on the first step
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_three_step_trace_vs_scalar_reference(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = [0.3, -1.2, 0.7]
        # hand-rolled scalar loop
        theta, m, v = 2.0, 0.0, 0.0
        trace = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            trace.append(theta)
        p = Tensor(np.array([2.0]), requires_grad=True)
        state = AdamState.init([p])
        for g, want in zip(grads, trace):
            p.grad = np.array([g])
            adam_step(state, lr=lr)
            assert p.data[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_in_place_update_has_the_bits_of_the_array_expression(self, dtype):
        from gebd.train import ADAM_BETA1 as b1, ADAM_BETA2 as b2, ADAM_EPS as eps

        rng = np.random.default_rng(7)
        shapes = [(4, 3, 5), (6,), (1, 2)]
        params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
        state = AdamState.init(params)
        want = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t, lr in enumerate([1e-3, 0.3, 2e-2, 5e-4], start=1):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            given = [g.copy() for g in grads]
            for p, g in zip(params, grads):
                p.grad = g
            adam_step(state, lr=lr)
            for i, g in enumerate(given):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                want[i] = want[i] - lr * (m[i] / (1.0 - b1 ** t)) / (np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
                np.testing.assert_array_equal(grads[i], g)  # the caller's grad is not written
                assert params[i].grad is None  # and the parameter lets it go
                assert params[i].data.dtype == want[i].dtype and not params[i].data.flags.writeable
                np.testing.assert_array_equal(params[i].data, want[i])
                np.testing.assert_array_equal(state.m[i], m[i])
                np.testing.assert_array_equal(state.v[i], v[i])

    def test_shape_mismatch(self):
        # a (1,) grad would broadcast into the (3,) parameter without a word
        first = Tensor(np.ones(2), requires_grad=True)
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.init([first, p])
        first.grad, p.grad = np.ones(2), np.ones(1)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, lr=0.1)
        np.testing.assert_array_equal(first.data, np.ones(2))
        assert state.step == 0

    def test_missing_grad_names_the_parameter_and_moves_none(self):
        params = [Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros((3, 4)), requires_grad=True)]
        state = AdamState.init(params)
        params[0].grad = np.ones(2)
        with pytest.raises(ValueError, match=r"parameter 1 \(Tensor\(shape=\(3, 4\).*has no grad"):
            adam_step(state, lr=0.1)
        np.testing.assert_array_equal(params[0].data, np.ones(2))
        assert params[0].grad is not None and state.step == 0

    def test_state_keeps_the_parameters_in_order(self):
        params = [Tensor(np.zeros(s), requires_grad=True) for s in [(2,), (3, 1)]]
        state = AdamState.init(params)
        assert state.params == params and state.params is not params
        assert [m.shape for m in state.m] == [v.shape for v in state.v] == [(2,), (3, 1)]


class TestTrainLoop:
    def test_loss_decreases_with_small_fixed_lr(self):
        dataset = tiny_dataset(0, 1) * 6
        model = GebdModel.build(TINY, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=1, warmup_epochs=0,
                          lr_peak=1e-3, lr_final=9.9e-4, seed=0)
        _, curve = train(dataset, model, cfg)
        losses = [loss for _, _, loss in curve]
        assert len(losses) == 6
        drops = [b < a for a, b in zip(losses, losses[1:])]
        assert sum(1 for i in range(len(drops) - 2) if drops[i] and drops[i + 1] and drops[i + 2]) >= 1

    def test_seed_determinism_bit_identical(self):
        def run():
            dataset = tiny_dataset(3, 5)
            model = GebdModel.build(TINY, seed=1)
            cfg = TrainConfig(epochs=2, batch_size=2, warmup_epochs=1, seed=7)
            _, curve = train(dataset, model, cfg)
            return curve

        a, b = run(), run()
        assert a == b  # exact float equality

    def test_parameter_count_constant_and_shapes_stable(self):
        dataset = tiny_dataset(6, 3)
        model = GebdModel.build(TINY, seed=3)
        before = [(n, p.data.shape) for n, p in model.parameters()]
        cfg = TrainConfig(epochs=1, batch_size=3, warmup_epochs=0, seed=0)
        train(dataset, model, cfg)
        after = [(n, p.data.shape) for n, p in model.parameters()]
        assert before == after

    def test_non_finite_loss_aborts_with_step_index(self):
        dataset = tiny_dataset(7, 1)
        model = GebdModel.build(TINY, seed=4)
        model.tps.merge.norm.gamma.update_data(np.full(8, np.inf))
        cfg = TrainConfig(epochs=1, batch_size=1, warmup_epochs=0, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged, match="step 0"):
            train(dataset, model, cfg)

    def test_non_finite_gradient_aborts_before_adam(self, monkeypatch):
        train_mod = sys.modules["gebd.train"]
        dataset = tiny_dataset(7, 4)
        model = GebdModel.build(TINY, seed=4)
        target = model.decoder.blocks[0].conv.bias
        real = train_mod._minibatch_gradients
        snapshot = []

        def inject(dataset, batch, model, params, step):
            loss = real(dataset, batch, model, params, step)
            if step == 2:
                target.grad = np.array(target.grad)
                target.grad[1] = np.nan
                snapshot.extend(np.array(p.data) for _, p in model.parameters())
            return loss

        monkeypatch.setattr(train_mod, "_minibatch_gradients", inject)
        cfg = TrainConfig(epochs=2, batch_size=2, warmup_epochs=1, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite gradient of decoder/blocks/0/conv/bias at step 2"):
            train(dataset, model, cfg)
        assert snapshot
        for before, (_, p) in zip(snapshot, model.parameters()):
            np.testing.assert_array_equal(before, p.data)

    def test_no_grad_of_a_step_is_alive_during_the_next_backward(self, monkeypatch):
        train_mod = sys.modules["gebd.train"]
        real = train_mod.backward
        model = GebdModel.build(TINY, seed=4)
        last_step, alive = [], []

        def watched(loss):
            alive.append(sum(ref() is not None for ref in last_step))
            last_step[:] = []
            real(loss)
            last_step.extend(weakref.ref(p.grad) for _, p in model.parameters())

        monkeypatch.setattr(train_mod, "backward", watched)
        train(tiny_dataset(7, 4), model, TrainConfig(epochs=2, batch_size=2, warmup_epochs=1, seed=0))
        assert len(last_step) == len(model.parameters())
        assert alive == [0, 0, 0, 0]

    def test_epochs_zero_returns_untouched_model(self):
        dataset = tiny_dataset(8, 1)
        model = GebdModel.build(TINY, seed=5)
        before = [np.array(p.data) for _, p in model.parameters()]
        _, curve = train(dataset, model, TrainConfig(epochs=0))
        assert curve == []
        for b, (_, p) in zip(before, model.parameters()):
            np.testing.assert_array_equal(b, p.data)

    def test_loaded_checkpoint_rejected(self, tmp_path):
        # its parameters do not require grad: every step would be a zero step
        path = tmp_path / "m.gebw"
        save_checkpoint(path, GebdModel.build(TINY, seed=6))
        model = load_checkpoint(path)
        with pytest.raises(ValueError, match="loaded checkpoint is for inference"):
            train(tiny_dataset(8, 1), model, TrainConfig(epochs=1, warmup_epochs=0))

    def test_empty_dataset_rejected(self):
        model = GebdModel.build(TINY, seed=6)
        with pytest.raises(ValueError, match="empty"):
            train([], model, TrainConfig())

    def test_training_reduces_loss_on_real_schedule(self):
        dataset = tiny_dataset(9, 8, t=20)
        model = GebdModel.build(TINY, seed=7)
        cfg = TrainConfig(epochs=4, batch_size=4, warmup_epochs=1, lr_peak=2e-3,
                          lr_final=1e-5, seed=1)
        _, curve = train(dataset, model, cfg)
        first_epoch = np.mean([loss for _, _, loss in curve[:2]])
        last_epoch = np.mean([loss for _, _, loss in curve[-2:]])
        assert last_epoch < first_epoch


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cfg=OFF_DEFAULT_CONFIGS)
def test_one_minibatch_gives_every_parameter_a_grad(cfg):
    # what lets `train` hand Adam every `.grad` without a zeros fallback
    dataset = []
    for i, t in enumerate([6, 9, 6]):
        video, ann = synth_video(i, t, 2.0, cfg.stage_dims, [1.1], snr=4.0)
        dataset.append((video, frame_labels(ann, t, 2.0, 1)))
    model = GebdModel.build(cfg, seed=0)
    _minibatch_gradients(dataset, [2, 0, 1], model, [p for _, p in model.parameters()], 0)
    assert [name for name, p in model.parameters() if p.grad is None or p.grad.shape != p.data.shape] == []


class TestGradientOfLossThroughModel:
    def test_matches_finite_differences_on_tiny_model(self):
        from gradcheck import directional_check, spot_check_model_gradients

        dataset = tiny_dataset(10, 1)
        video, labels = dataset[0]
        model = GebdModel.build(TINY, seed=8)
        params = [p for _, p in model.parameters()]

        def build_loss():
            return bce_loss(model.forward(video.stages), labels)

        rng = np.random.default_rng(0)
        err = directional_check(build_loss, params, rng, tol=1e-3)
        assert err < 1e-3
        worst = spot_check_model_gradients(build_loss, params, rng,
                                           coords_per_param=1, tol=1e-3)
        assert worst < 1e-3


ABLATIONS = {
    "default": {},
    "no_residual": {"use_residual": False},
    "no_decoder": {"decoder_blocks": 0},
    "one_branch": {"branch_count": 1},
}


@pytest.mark.parametrize("switch", sorted(ABLATIONS))
def test_batched_model_gradients_match_finite_differences_under_each_ablation(switch):
    # every recomputed node of the model (the norm+GELU of each block, the
    # residual views, the convs over their parts) on the path each switch
    # leaves, through a batch of two videos whose weight gradients are folded
    from gradcheck import directional_check, spot_check_model_gradients

    config = ModelConfig(**{"stage_dims": (4, 5), "branch_count": 2, "decoder_blocks": 2, "d_out": 4,
                            "d_head": 3, "neighbor_radius": 2, **ABLATIONS[switch]})
    model = GebdModel.build(config, seed=3)
    params = [p for _, p in model.parameters()]
    rng = np.random.default_rng(3)
    stages = [rng.standard_normal((2, 9, d)) for d in config.stage_dims]
    labels = (rng.uniform(size=(2, 9)) < 0.3).astype(float)

    def build_loss():
        return fold_sum([bce_loss(time_smooth(model.forward(stages), 2.0), labels)])

    assert directional_check(build_loss, params, rng, tol=1e-3) < 1e-3
    assert spot_check_model_gradients(build_loss, params, rng, coords_per_param=2, tol=1e-3) < 1e-3


@pytest.mark.parametrize("t", [50, 200])
def test_step_memory_per_batch_frame(t):
    # Backward frees each activation and adjoint once nothing upstream needs
    # it, and the tape keeps no layer-norm output, residual sum or channel
    # concatenation: the backward rebuilds each from what it keeps. A
    # bench-size step (B=8, four 32-dim stages, d_out 64) therefore peaks at
    # about 37 KB per batch frame at both lengths: linear in T. Taping those
    # three peaked at ~52 KB, and a backward that held the whole tape and
    # every adjoint to its end at ~101 KB.
    config = ModelConfig(stage_dims=(32, 32, 32, 32), d_out=64, d_head=32, neighbor_radius=5)
    dataset = []
    for i in range(8):
        video, ann = synth_video(60 + i, t, 5.0, config.stage_dims, [0.5 * t / 5.0], snr=1.0)
        dataset.append((video, frame_labels(ann, t, 5.0, 1)))
    model = GebdModel.build(config, seed=0)
    params = [p for _, p in model.parameters()]
    batch = np.arange(8)
    _minibatch_gradients(dataset, batch, model, params, 0)  # warm: first-call imports stay out of the peak
    _, peak = traced_peak(_minibatch_gradients, dataset, batch, model, params, 1)
    assert peak < 42_000 * 8 * t, peak / (8 * t)


def test_step_memory_does_not_grow_with_dilation():
    # Decoder block i has dilation 2^(i+1), so at 18 blocks most taps reach
    # past both ends of a T=50 video. Those taps read only padding and are
    # skipped, so the weight gradient pads by at most T-1 rows: the step peaks
    # at about 1.3 MB with 3 blocks and 1.8 MB with 18. A pad of dilation
    # rows per side would peak at 34 MB with 18.
    peaks = []
    for blocks in (3, 18):
        config = ModelConfig(stage_dims=(8, 8, 8, 8), decoder_blocks=blocks, d_out=8, d_head=8)
        dataset = []
        for i in range(2):
            video, ann = synth_video(60 + i, 50, 5.0, config.stage_dims, [5.0], snr=1.0)
            dataset.append((video, frame_labels(ann, 50, 5.0, 1)))
        model = GebdModel.build(config, seed=0)
        params = [p for _, p in model.parameters()]
        batch = np.arange(2)
        _minibatch_gradients(dataset, batch, model, params, 0)  # warm: first-call imports stay out of the peak
        peaks.append(traced_peak(_minibatch_gradients, dataset, batch, model, params, 1)[1])
    assert peaks[1] < 2 * peaks[0], peaks


def test_write_loss_curve(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_curve(path, [(0, 0.0, 0.7), (1, 2e-4, 0.65)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss"
    assert lines[1] == "0,0,0.7"
    assert len(lines) == 3


PINNED_CONFIG = ModelConfig(stage_dims=(8, 8, 8, 8), d_out=8, d_head=8, neighbor_radius=5)
# (frame counts in name order, batch size, sha256 of model.gebw, sha256 of
# loss.csv) after one epoch: the trained bytes, including the float summation
# order of every parameter gradient and of the batch loss, must never drift.
# The shuffled minibatches of the ragged corpora hold runs of equal length
# after runs of another length, and the batch of 9 is past the 8 items at
# which numpy's pairwise summation starts. The last case trains on the same
# videos after a save_features -> load_features round trip, so the features
# reach the model as the float32 arrays a feature file holds.
PINNED_TRAINING = [
    ((50,) * 8, 4, False, "1dbdeb595361e6d78b50537959de06fd6bef5cbcf91bf905b7414e87f8ab5182",
     "0e370bb4733a8ebb58c27b47689287c26c6d0555eef13f534075fd6432cab428"),
    ((50, 37, 50, 50, 64, 37), 4, False, "0552ee1d78ea03fc27d921f49805a8357c42a24f063eb85ac0b79e76d57ba27b",
     "a692b5e663693b74e8f8955b2b4c38511fadc94285c46afa9dd375d8a323c7dc"),
    ((50, 37, 50, 37, 64, 50, 50, 37, 37), 9, False, "b20a0b8b55df7237b710138d7868e972b158fdfa29deb4a0ba9863be0126ac98",
     "e22dea640af5b49dd7a886f46ee9e0b01e2f97e79e7001ae02b2b88f45d56e5b"),
    ((50, 37, 50, 50, 64, 37), 4, True, "2e5cda5f4e3cb2abcf67a4f587985286dd9eed08e41c2afc00793125c1e3a498",
     "a692b5e663693b74e8f8955b2b4c38511fadc94285c46afa9dd375d8a323c7dc"),
]


@pytest.mark.parametrize("frames, batch_size, from_files, model_digest, loss_digest", PINNED_TRAINING,
                         ids=["equal_t", "ragged_t", "ragged_t_batch9", "ragged_t_from_files"])
def test_trained_bytes_pinned(tmp_path, frames, batch_size, from_files, model_digest, loss_digest):
    import hashlib

    dataset = []
    for i, t in enumerate(frames):
        video, ann = synth_video(40 + i, t, 5.0, (8, 8, 8, 8), [0.3 * t / 5.0, 0.7 * t / 5.0],
                                 snr=1.0, video_id=f"video{i:05d}")
        if from_files:
            save_features(tmp_path / f"{video.video_id}.gebf", video)
            video = load_features(tmp_path / f"{video.video_id}.gebf", fps=5.0)
        dataset.append((video, frame_labels(ann, t, 5.0, 1)))
    model = GebdModel.build(PINNED_CONFIG, seed=0)
    model, curve = train(dataset, model, TrainConfig(epochs=1, batch_size=batch_size, warmup_epochs=0, seed=0))
    save_checkpoint(tmp_path / "model.gebw", model)
    write_loss_curve(tmp_path / "loss.csv", curve)
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()  # noqa: E731
    assert (digest("model.gebw"), digest("loss.csv")) == (model_digest, loss_digest)
