"""A (B, T, d) batch through every model-path op gives the same bits as B
separate (T, d) calls: forward values and input adjoints per video, and
parameter gradients equal to the per-video gradients added in batch order.
B=9 is past the 8 items at which numpy's pairwise summation starts.
"""

import numpy as np
import pytest

from gebd.autodiff import (
    Tensor,
    add,
    backward,
    concat_channels,
    fold_sum,
    l2_normalize_rows,
    scale,
    seq_tensor,
    time_smooth,
)
from gebd.model import GebdModel, ModelConfig
from gebd.nn import (
    Conv1dKernel,
    DepthwiseKernel,
    LayerNormAffine,
    conv1d,
    depthwise_conv1d,
    gelu,
    layer_norm,
    sigmoid,
)
from gebd.postprocess import smooth_frames
from gebd.tps import similarity_vector
from gebd.train import bce_loss
from gradcheck import check_op_gradients, mul, sum_all

BATCHES = (1, 3, 9)
DTYPES = (np.float64, np.float32)
T, D = 7, 5


def _param(rng, shape, dtype):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(dtype), requires_grad=True)


def _kernels(dtype):
    rng = np.random.default_rng(3)
    return {
        "conv": Conv1dKernel(_param(rng, (4, D, 3), dtype), _param(rng, (4,), dtype), dilation=2),
        "pointwise": Conv1dKernel(_param(rng, (6, D, 1), dtype), _param(rng, (6,), dtype)),
        "depthwise": DepthwiseKernel(_param(rng, (D, 3), dtype), _param(rng, (D,), dtype), dilation=3),
        "norm": LayerNormAffine(_param(rng, (D,), dtype), _param(rng, (D,), dtype)),
        "head": Conv1dKernel(_param(rng, (1, D, 3), dtype), _param(rng, (1,), dtype)),
    }


def _ops(dtype):
    """name -> (op on one sequence tensor, the parameters it reads)."""
    k = _kernels(dtype)
    other = Tensor(np.random.default_rng(4).uniform(-1, 1, size=(T, D)).astype(dtype))

    def with_other(x, f):
        return f(x, Tensor(np.broadcast_to(other.data, x.data.shape)))

    return {
        "conv1d": (lambda x: conv1d(x, k["conv"]), [k["conv"].weights, k["conv"].bias]),
        "conv1d_width1": (lambda x: conv1d(x, k["pointwise"]), [k["pointwise"].weights, k["pointwise"].bias]),
        "depthwise_conv1d": (lambda x: depthwise_conv1d(x, k["depthwise"]),
                             [k["depthwise"].weights, k["depthwise"].bias]),
        "layer_norm": (lambda x: layer_norm(x, k["norm"]), [k["norm"].gamma, k["norm"].beta]),
        "gelu": (gelu, []),
        "sigmoid": (sigmoid, []),
        "scale": (lambda x: scale(x, 0.3), []),
        "add": (lambda x: with_other(x, add), []),
        "mul": (lambda x: with_other(x, mul), []),
        "concat_channels": (lambda x: concat_channels([x, gelu(x), x]), []),
        "l2_normalize_rows": (l2_normalize_rows, []),
        "neighbor_distances_r1": (lambda x: similarity_vector([x], 1), []),
        "neighbor_distances_r5": (lambda x: similarity_vector([x], 5), []),
        "similarity_vector": (lambda x: similarity_vector([x, gelu(x), l2_normalize_rows(x)], 2), []),
        "time_smooth": (lambda x: time_smooth(x, 5.0), []),
        "bce_loss": (lambda x: _head_loss(x, k["head"]), [k["head"].weights, k["head"].bias]),
        "conv_norm_gelu": (lambda x: gelu(layer_norm(depthwise_conv1d(x, k["depthwise"]), k["norm"])),
                           [k["depthwise"].weights, k["depthwise"].bias, k["norm"].gamma, k["norm"].beta]),
    }


def _head_loss(x, kernel):
    """Per-video BCE of a one-channel sigmoid head against fixed labels."""
    scores = sigmoid(conv1d(x, kernel))
    labels = (np.arange(scores.data.shape[-2]) % 3 == 0).astype(float)
    return bce_loss(scores, np.broadcast_to(labels, scores.data.shape[:-1]))


def _run(op, params, x, adjoint_seed, start=None):
    """Forward, then backward of sum(out * seed): the adjoint reaching out is
    seed exactly. Parameter grads start from `start` (None: from nothing)."""
    for i, p in enumerate(params):
        p.grad = None if start is None else start[i].copy()
    out = op(x)
    backward(sum_all(mul(out, Tensor(adjoint_seed(out.data.shape)))))
    return out.data, x.grad, [p.grad for p in params]


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name", sorted(_ops(np.float64)))
def test_batched_op_bits_equal_per_video_calls(name, batch, dtype):
    op, params = _ops(dtype)[name]
    rng = np.random.default_rng(batch)
    xs = rng.standard_normal((batch, T, D)).astype(dtype)
    seed_rng = np.random.default_rng(11)

    def seed(shape):
        return seed_rng.uniform(-1.0, 1.0, size=shape).astype(dtype)

    # one fixed adjoint seed per video, drawn once at the batched shape
    probe, _, _ = _run(op, params, seq_tensor(xs, requires_grad=True), lambda s: np.zeros(s))
    seeds = seed(probe.shape)

    # grads that already hold an earlier run's adjoints: each video must be
    # added onto them in turn, not the batch summed first and added once
    start = [seed(p.data.shape) for p in params]
    got_out, got_dx, got_dp = _run(op, params, seq_tensor(xs, requires_grad=True), lambda s: seeds, start)
    folded = start
    for b in range(batch):
        out, dx, dp = _run(op, params, seq_tensor(xs[b], requires_grad=True), lambda s, b=b: seeds[b])
        assert out.dtype == got_out.dtype
        np.testing.assert_array_equal(got_out[b], out, err_msg=f"forward, video {b}")
        np.testing.assert_array_equal(got_dx[b], dx, err_msg=f"input adjoint, video {b}")
        folded = [f + g for f, g in zip(folded, dp)]
    for got, want in zip(got_dp, folded):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
def test_smooth_frames_batched(batch, adjoint):
    xs = np.random.default_rng(1).standard_normal((batch, 12, 2))
    got = smooth_frames(xs, 5.0, adjoint=adjoint)
    for b in range(batch):
        np.testing.assert_array_equal(got[b], smooth_frames(xs[b], 5.0, adjoint=adjoint))
        np.testing.assert_array_equal(got[b, :, 0], smooth_frames(xs[b, :, 0], 5.0, adjoint=adjoint))


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("batch", BATCHES)
def test_model_forward_and_gradients_batched(batch, dtype):
    config = ModelConfig(stage_dims=(4, 6), branch_count=2, decoder_blocks=1, d_out=4, d_head=3,
                         neighbor_radius=2)
    model = GebdModel.build(config, seed=1)
    for _, p in model.parameters():
        p.update_data(p.data.astype(dtype))
    params = [p for _, p in model.parameters()]
    rng = np.random.default_rng(batch)
    stages = [rng.standard_normal((batch, 9, d)) for d in config.stage_dims]
    labels = (rng.uniform(size=(batch, 9)) < 0.3).astype(float)

    # two runs, video 0 alone and then the rest, as a ragged minibatch makes
    # them: the second run's videos must still be added onto the grads singly
    runs = [slice(0, 1), slice(1, batch)] if batch > 1 else [slice(0, 1)]
    model.zero_grads()
    preds, losses = [], []
    for run in runs:
        pred = model.forward([s[run] for s in stages])
        preds.append(pred.data)
        losses.append(bce_loss(time_smooth(pred, 2.0), labels[run]))
    backward(scale(fold_sum(losses), 1.0 / batch))
    got = [p.grad for p in params]
    pred = np.concatenate(preds)
    losses = []
    model.zero_grads()
    for b in range(batch):
        one = model.forward([s[b] for s in stages])
        np.testing.assert_array_equal(pred[b], one.data)
        losses.append(bce_loss(time_smooth(one, 2.0), labels[b]))
    backward(scale(fold_sum(losses), 1.0 / batch))
    for (name, p), g in zip(model.parameters(), got):
        np.testing.assert_array_equal(g, p.grad, err_msg=name)


def test_batched_forward_builds_each_similarity_vector_once_per_stage(monkeypatch):
    import gebd.tps as tps

    calls = []

    def counted(views, radius):
        calls.append(views[0].data.shape)
        return similarity_vector(views, radius)

    monkeypatch.setattr(tps, "similarity_vector", counted)
    config = ModelConfig(stage_dims=(4, 6, 5), branch_count=2, decoder_blocks=1, d_out=4, d_head=3,
                         neighbor_radius=2)
    rng = np.random.default_rng(6)
    GebdModel.build(config, seed=1).forward([rng.standard_normal((9, 8, d)) for d in config.stage_dims])
    assert calls == [(9, 8, d) for d in config.stage_dims]


def test_fold_sum_is_a_left_fold():
    # 1e16 + 1 + 1 ... loses every 1 in a left fold; pairwise summation keeps some
    parts = [Tensor([[1e16]])] + [Tensor([[1.0]]) for _ in range(15)]
    assert fold_sum(parts).data[0, 0] == 1e16
    assert fold_sum([Tensor(np.array([[[1e16]], [[1.0]], [[1.0]]]))]).data[0, 0] == 1e16


def test_batched_chain_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
    k = Conv1dKernel(_param(rng, (3, 3, 3), np.float64), _param(rng, (3,), np.float64), dilation=2)
    a = LayerNormAffine(_param(rng, (3,), np.float64), _param(rng, (3,), np.float64))
    w = Tensor(rng.uniform(-1, 1, size=(2, 6, 4)))
    check_op_gradients(
        lambda: sum_all(mul(similarity_vector([layer_norm(conv1d(x, k), a)], 2), w)),
        [x, k.weights, k.bias, a.gamma, a.beta],
    )
