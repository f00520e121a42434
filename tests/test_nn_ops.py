"""Convolutions, layer norm, GELU, sigmoid: values against naive oracles and
finite-difference gradients."""

import math

import numpy as np
import pytest

from gebd.autodiff import Tensor, backward, fold_sum, seq_tensor
from gebd.nn import (
    _conv1d_parts,
    _conv_block,
    _norm_gelu,
    _phi,
    _scipy_erf,
    Conv1dKernel,
    DepthwiseKernel,
    LayerNormAffine,
    conv1d,
    conv_block,
    depthwise_conv1d,
    doubling_dilation,
    gelu,
    init_conv1d,
    init_conv_block,
    init_depthwise,
    init_layer_norm,
    random_params,
    sigmoid,
)
from gradcheck import add, check_op_gradients, concat_channels, layer_norm, mul, sum_all
from oracles import naive_conv1d, naive_depthwise_conv1d, naive_layer_norm, traced_peak


def make_conv(rng, in_ch, out_ch, width, dilation):
    w = rng.uniform(-1, 1, size=(out_ch, in_ch, width))
    b = rng.uniform(-0.5, 0.5, size=out_ch)
    return Conv1dKernel(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), dilation)


def make_depthwise(rng, ch, width, dilation):
    w = rng.uniform(-1, 1, size=(ch, width))
    b = rng.uniform(-0.5, 0.5, size=ch)
    return DepthwiseKernel(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), dilation)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = seq_tensor(rng.standard_normal((7, 1)))
        k = Conv1dKernel(Tensor([[[0.0, 1.0, 0.0]]]), Tensor([0.0]), dilation=1)
        np.testing.assert_allclose(conv1d(x, k).data, x.data, atol=1e-15)

    def test_dilated_difference_example(self):
        x = seq_tensor(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]).T)
        k = Conv1dKernel(Tensor([[[1.0, 0.0, -1.0]]]), Tensor([0.0]), dilation=2)
        np.testing.assert_allclose(conv1d(x, k).data[:, 0], [-3.0, -4.0, -4.0, 2.0, 3.0])

    def test_width1_equals_matmul(self):
        rng = np.random.default_rng(1)
        x = seq_tensor(rng.standard_normal((6, 4)))
        k = make_conv(rng, 4, 3, 1, 1)
        expected = x.data @ k.weights.data[:, :, 0].T + k.bias.data
        np.testing.assert_allclose(conv1d(x, k).data, expected, atol=1e-12)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(2)
        k = make_conv(rng, 4, 3, 3, 1)
        with pytest.raises(ValueError, match="channels"):
            conv1d(seq_tensor(np.zeros((5, 3))), k)

    def test_odd_width_required(self):
        with pytest.raises(ValueError, match="odd"):
            Conv1dKernel(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    def test_matches_naive_oracle(self, dilation):
        rng = np.random.default_rng(40 + dilation)
        for _ in range(10):
            t = int(rng.integers(1, 21))
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            x = rng.uniform(-2, 2, size=(t, cin))
            k = make_conv(rng, cin, cout, 3, dilation)
            got = conv1d(seq_tensor(x), k).data
            want = naive_conv1d(x, k.weights.data, k.bias.data, dilation)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_locality(self):
        # output frame t depends only on frames within dilation * (width//2)
        rng = np.random.default_rng(3)
        t_len, reach = 16, 2 * 1
        x = rng.standard_normal((t_len, 2))
        k = make_conv(rng, 2, 2, 3, 2)
        base = conv1d(seq_tensor(x), k).data
        for t_perturb in (0, 7, 15):
            xp = x.copy()
            xp[t_perturb] += 1.0
            out = conv1d(seq_tensor(xp), k).data
            changed = np.flatnonzero(np.abs(out - base).max(axis=1) > 0)
            assert np.all(np.abs(changed - t_perturb) <= reach)


class TestDepthwiseConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = seq_tensor(rng.standard_normal((6, 3)))
        w = np.tile([0.0, 1.0, 0.0], (3, 1))
        k = DepthwiseKernel(Tensor(w), Tensor(np.zeros(3)), dilation=1)
        np.testing.assert_allclose(depthwise_conv1d(x, k).data, x.data, atol=1e-15)

    def test_channel_independence(self):
        rng = np.random.default_rng(5)
        x = seq_tensor(rng.standard_normal((6, 3)))
        w = np.tile([0.0, 1.0, 0.0], (3, 1))
        w[1] = 0.0  # zero out channel 1 only
        k = DepthwiseKernel(Tensor(w), Tensor(np.zeros(3)), dilation=1)
        out = depthwise_conv1d(x, k).data
        np.testing.assert_array_equal(out[:, 1], np.zeros(6))
        np.testing.assert_allclose(out[:, [0, 2]], x.data[:, [0, 2]], atol=1e-15)

    def test_two_channel_example_vs_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(4, 2))
        k = make_depthwise(rng, 2, 3, 1)
        want = naive_depthwise_conv1d(x, k.weights.data, k.bias.data, 1)
        np.testing.assert_allclose(depthwise_conv1d(seq_tensor(x), k).data, want, atol=1e-12)

    def test_equals_block_diagonal_dense_conv(self):
        rng = np.random.default_rng(7)
        ch, width, dilation = 3, 3, 2
        x = rng.uniform(-2, 2, size=(9, ch))
        dk = make_depthwise(rng, ch, width, dilation)
        dense = np.zeros((ch, ch, width))
        for c in range(ch):
            dense[c, c, :] = dk.weights.data[c]
        k = Conv1dKernel(Tensor(dense), Tensor(np.array(dk.bias.data)), dilation)
        got = depthwise_conv1d(seq_tensor(x), dk).data
        want = conv1d(seq_tensor(x), k).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(8)
        k = make_depthwise(rng, 3, 3, 1)
        with pytest.raises(ValueError, match="channels"):
            depthwise_conv1d(seq_tensor(np.zeros((4, 2))), k)


# (T, width, dilation) with taps whose offset dilation*j reaches |offset| >= T:
# those taps read no frame, and the rest still land where the oracle puts them
PAST_THE_ENDS = [(1, 3, 1), (2, 3, 2), (3, 3, 4), (4, 5, 2), (5, 5, 3)]


class TestTapsPastTheEnds:
    @pytest.mark.parametrize("t, width, dilation", PAST_THE_ENDS)
    def test_conv1d_matches_oracle(self, t, width, dilation):
        rng = np.random.default_rng(60 + t)
        x = rng.uniform(-2, 2, size=(2, t, 3))
        k = make_conv(rng, 3, 2, width, dilation)
        got = conv1d(seq_tensor(x), k).data
        for b in range(2):
            want = naive_conv1d(x[b], k.weights.data, k.bias.data, dilation)
            np.testing.assert_allclose(got[b], want, atol=1e-12)

    @pytest.mark.parametrize("t, width, dilation", PAST_THE_ENDS)
    def test_depthwise_conv1d_matches_oracle(self, t, width, dilation):
        rng = np.random.default_rng(70 + t)
        x = rng.uniform(-2, 2, size=(2, t, 3))
        k = make_depthwise(rng, 3, width, dilation)
        got = depthwise_conv1d(seq_tensor(x), k).data
        for b in range(2):
            want = naive_depthwise_conv1d(x[b], k.weights.data, k.bias.data, dilation)
            np.testing.assert_allclose(got[b], want, atol=1e-12)

    @pytest.mark.parametrize("t, width, dilation", PAST_THE_ENDS)
    def test_conv1d_gradients(self, t, width, dilation):
        rng = np.random.default_rng(80 + t)
        x = Tensor(rng.uniform(-2, 2, size=(t, 3)), requires_grad=True)
        k = make_conv(rng, 3, 2, width, dilation)
        w = Tensor(rng.uniform(-1, 1, size=(t, 2)))
        check_op_gradients(lambda: sum_all(mul(conv1d(x, k), w)), [x, k.weights, k.bias])

    @pytest.mark.parametrize("t, width, dilation", PAST_THE_ENDS)
    def test_depthwise_conv1d_gradients(self, t, width, dilation):
        rng = np.random.default_rng(90 + t)
        x = Tensor(rng.uniform(-2, 2, size=(t, 3)), requires_grad=True)
        k = make_depthwise(rng, 3, width, dilation)
        w = Tensor(rng.uniform(-1, 1, size=(t, 3)))
        check_op_gradients(lambda: sum_all(mul(depthwise_conv1d(x, k), w)), [x, k.weights, k.bias])

    @pytest.mark.parametrize("t, width, dilation", PAST_THE_ENDS)
    def test_taps_past_both_ends_get_exact_zero_weight_gradients(self, t, width, dilation):
        rng = np.random.default_rng(100 + t)
        x = seq_tensor(rng.uniform(-2, 2, size=(2, t, 3)))
        far = [tap for tap in range(width) if abs(dilation * (tap - width // 2)) >= t]
        assert far
        for op, k in ((conv1d, make_conv(rng, 3, 2, width, dilation)),
                      (depthwise_conv1d, make_depthwise(rng, 3, width, dilation))):
            backward(sum_all(op(x, k)))
            assert not k.weights.grad[..., far].any()
            assert k.weights.grad[..., width // 2].all()


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        a = init_layer_norm(random_params(np.random.default_rng(0)), 4)
        x = seq_tensor(np.full((3, 4), 7.5))
        np.testing.assert_allclose(layer_norm(x, a).data, np.zeros((3, 4)), atol=1e-9)

    def test_hand_computed_row(self):
        a = LayerNormAffine(Tensor(np.ones(3)), Tensor(np.zeros(3)))
        out = layer_norm(seq_tensor([[1.0, 2.0, 3.0]]), a)
        np.testing.assert_allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        a = init_layer_norm(random_params(rng), 5)
        x = rng.standard_normal((4, 5))
        base = layer_norm(seq_tensor(x), a).data
        shifted = layer_norm(seq_tensor(x + 3.25), a).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-2, 2, size=(5, 6))
        gamma = rng.uniform(0.5, 1.5, size=6)
        beta = rng.uniform(-0.5, 0.5, size=6)
        a = LayerNormAffine(Tensor(gamma), Tensor(beta))
        want = naive_layer_norm(x, gamma, beta, 1e-5)
        np.testing.assert_allclose(layer_norm(seq_tensor(x), a).data, want, atol=1e-12)

    def test_affine_size_check(self):
        a = init_layer_norm(random_params(np.random.default_rng(0)), 3)
        with pytest.raises(ValueError, match="channels"):
            layer_norm(seq_tensor(np.zeros((2, 4))), a)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([[0.0]])).data[0, 0] == 0.0

    def test_large_positive_passthrough(self):
        assert abs(gelu(Tensor([[10.0]])).data[0, 0] - 10.0) < 1e-6

    def test_at_one(self):
        assert gelu(Tensor([[1.0]])).data[0, 0] == pytest.approx(0.841345, abs=1e-5)

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_erf_is_scipys_bit_for_bit(self, dtype, bits):
        from scipy.special import erf

        edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 5.9, -5.9, 6.0, -6.0, 27.0, -27.0,
                 np.inf, -np.inf, np.nan]  # +-1 is the branch point
        x = np.concatenate([edges, np.random.default_rng(0).standard_normal(4096) * 3]).astype(dtype)
        assert np.array_equal(_scipy_erf()(x).view(bits), erf(x).view(bits))

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_phi_is_the_erf_formula_bit_for_bit(self, dtype, bits):
        # _phi runs erf on |u| and restores the sign; the direct formula runs it on u
        from scipy.special import erf

        edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 5.9, -5.9, 27.0, -27.0, np.inf, -np.inf]
        v = np.concatenate([edges, np.random.default_rng(1).standard_normal(4096)]).astype(dtype)
        want = 0.5 * (1.0 + erf(v * (1.0 / math.sqrt(2.0))))
        assert want.dtype == dtype
        assert np.array_equal(_phi(v).view(bits), want.view(bits))


class TestSigmoid:
    def test_at_zero(self):
        assert sigmoid(Tensor([[0.0]])).data[0, 0] == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-8, 8, size=(4, 4))
        left = sigmoid(Tensor(-x)).data
        right = 1.0 - sigmoid(Tensor(x)).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_at_four(self):
        assert sigmoid(Tensor([[4.0]])).data[0, 0] == pytest.approx(0.982014, abs=1e-5)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(Tensor([[-800.0, 800.0]])).data
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0, 0] and out[0, 1] <= 1.0


class TestGradients:
    """All five ops pass central finite-difference checks (rel err < 1e-4)."""

    def _weighted_sum(self, rng, out):
        return sum_all(mul(out, Tensor(rng.uniform(-1, 1, size=out.data.shape))))

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_conv1d(self, dilation):
        rng = np.random.default_rng(20 + dilation)
        x = Tensor(rng.uniform(-2, 2, size=(8, 3)), requires_grad=True)
        k = make_conv(rng, 3, 2, 3, dilation)
        w = Tensor(rng.uniform(-1, 1, size=(8, 2)))
        check_op_gradients(lambda: sum_all(mul(conv1d(x, k), w)),
                           [x, k.weights, k.bias])

    def test_depthwise_conv1d(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.uniform(-2, 2, size=(7, 3)), requires_grad=True)
        k = make_depthwise(rng, 3, 3, 2)
        w = Tensor(rng.uniform(-1, 1, size=(7, 3)))
        check_op_gradients(lambda: sum_all(mul(depthwise_conv1d(x, k), w)),
                           [x, k.weights, k.bias])

    def test_layer_norm(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.uniform(-2, 2, size=(5, 6)), requires_grad=True)
        a = init_layer_norm(random_params(rng), 6)
        a.gamma.update_data(rng.uniform(0.5, 1.5, size=6))
        a.beta.update_data(rng.uniform(-0.5, 0.5, size=6))
        w = Tensor(rng.uniform(-1, 1, size=(5, 6)))
        check_op_gradients(lambda: sum_all(mul(layer_norm(x, a), w)),
                           [x, a.gamma, a.beta])

    def test_gelu(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.uniform(-2, 2, size=(6, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(6, 4)))
        check_op_gradients(lambda: sum_all(mul(gelu(x), w)), [x])

    def test_sigmoid(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.uniform(-2, 2, size=(6, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(6, 4)))
        check_op_gradients(lambda: sum_all(mul(sigmoid(x), w)), [x])

    def test_composed_conv_norm_gelu_chain(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.uniform(-2, 2, size=(7, 3)), requires_grad=True)
        k = make_conv(rng, 3, 3, 3, 2)
        a = init_layer_norm(random_params(rng), 3)
        w = Tensor(rng.uniform(-1, 1, size=(7, 3)))

        def loss():
            return sum_all(mul(gelu(layer_norm(conv1d(x, k), a)), w))

        check_op_gradients(loss, [x, k.weights, k.bias, a.gamma, a.beta])


def _weighted(rng, out_shape, dtype=np.float64):
    return Tensor(rng.uniform(-1, 1, size=out_shape).astype(dtype))


def _grads(loss, leaves):
    """Every leaf's grad after one backward of `loss` from no grads."""
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    return [leaf.grad for leaf in leaves]


class TestRecomputedNodes:
    """The norm+GELU node and the conv over parts keep less on the tape than
    the chains they stand for, and give those chains' bits and gradients."""

    def _norm(self, rng, d):
        a = init_layer_norm(random_params(rng), d)
        a.gamma.update_data(rng.uniform(0.5, 1.5, size=d))
        a.beta.update_data(rng.uniform(-0.5, 0.5, size=d))
        return a

    @pytest.mark.parametrize("shape", [(5, 6), (3, 5, 6)])
    def test_norm_gelu_gradients(self, shape):
        rng = np.random.default_rng(40)
        y = Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True)
        a = self._norm(rng, shape[-1])
        w = _weighted(rng, shape)
        check_op_gradients(lambda: sum_all(mul(_norm_gelu(y, a), w)), [y, a.gamma, a.beta])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_norm_gelu_bits_equal_layer_norm_then_gelu(self, dtype):
        rng = np.random.default_rng(41)
        y = Tensor(rng.uniform(-2, 2, size=(3, 7, 5)).astype(dtype), requires_grad=True)
        a = self._norm(rng, 5)
        w = _weighted(rng, (3, 7, 5), dtype)
        leaves = [y, a.gamma, a.beta]
        fused = _norm_gelu(y, a)
        got = _grads(sum_all(mul(fused, w)), leaves)
        chain = gelu(layer_norm(y, a))
        want = _grads(sum_all(mul(chain, w)), leaves)
        np.testing.assert_array_equal(fused.data, chain.data)
        for g, h in zip(got, want):
            np.testing.assert_array_equal(g, h)

    def _parts(self, rng, batch=2, t=7):
        return [Tensor(rng.uniform(-2, 2, size=(batch, t, c)), requires_grad=True) for c in (2, 3)]

    @pytest.mark.parametrize("dilation", [1, 2, 8])
    def test_conv_over_parts_gradients(self, dilation):
        rng = np.random.default_rng(42 + dilation)
        parts = self._parts(rng)
        k = make_conv(rng, 5, 4, 3, dilation)
        w = _weighted(rng, (2, 7, 4))
        check_op_gradients(lambda: sum_all(mul(_conv1d_parts(parts, k), w)), [*parts, k.weights, k.bias])

    def test_conv_over_parts_bits_equal_conv_of_concatenation(self):
        rng = np.random.default_rng(45)
        parts = self._parts(rng, batch=9)
        k = make_conv(rng, 5, 4, 3, 2)
        w = _weighted(rng, (9, 7, 4))
        leaves = [*parts, k.weights, k.bias]
        over_parts = _conv1d_parts(parts, k)
        assert over_parts._parents == (*parts, k.weights, k.bias)  # the parts, not a concatenation
        got = _grads(sum_all(mul(over_parts, w)), leaves)
        concatenated = conv1d(concat_channels(parts), k)
        want = _grads(sum_all(mul(concatenated, w)), leaves)
        np.testing.assert_array_equal(over_parts.data, concatenated.data)
        for g, h in zip(got, want):
            np.testing.assert_array_equal(g, h)

    def test_conv_block_over_parts_bits_equal_conv_block_of_concatenation(self):
        rng = np.random.default_rng(46)
        parts = self._parts(rng, batch=3)
        block = init_conv_block(random_params(rng), 5, 4, dilation=2)
        w = _weighted(rng, (3, 7, 4))
        leaves = [*parts, block.conv.weights, block.conv.bias, block.norm.gamma, block.norm.beta]
        over_parts = _conv_block(parts, block)
        got = _grads(sum_all(mul(over_parts, w)), leaves)
        concatenated = conv_block(concat_channels(parts), block)
        want = _grads(sum_all(mul(concatenated, w)), leaves)
        np.testing.assert_array_equal(over_parts.data, concatenated.data)
        for g, h in zip(got, want):
            np.testing.assert_array_equal(g, h)


class TestWeightGradientFold:
    """A conv weight's grad is a tap-major array the op allocated, and later
    videos are added into it in place; an array the op did not allocate is
    never written."""

    def _video_by_video(self, x, k, seed, start=None):
        """The weight grad folded from separate per-video backwards, in batch order."""
        total = start
        for b in range(x.data.shape[0]):
            k.weights.grad = None
            backward(sum_all(mul(conv1d(Tensor(x.data[b]), k), Tensor(seed.data[b]))))
            total = k.weights.grad if total is None else total + k.weights.grad
        return total

    def test_grad_is_a_tap_major_view(self):
        rng = np.random.default_rng(50)
        k = make_conv(rng, 3, 4, 5, 1)
        backward(sum_all(conv1d(seq_tensor(rng.standard_normal((3, 6, 3))), k)))
        assert k.weights.grad.shape == (4, 3, 5)
        assert np.moveaxis(k.weights.grad, -1, 0).flags.c_contiguous

    def test_grad_set_by_the_caller_is_not_written(self):
        rng = np.random.default_rng(51)
        x = seq_tensor(rng.standard_normal((3, 6, 2)))
        k = make_conv(rng, 2, 3, 3, 1)
        seed = _weighted(rng, (3, 6, 3))
        start = rng.uniform(-1, 1, size=(3, 2, 3))
        held = start.copy()
        k.weights.grad = start
        backward(sum_all(mul(conv1d(x, k), seed)))
        got = k.weights.grad
        np.testing.assert_array_equal(start, held)
        np.testing.assert_array_equal(got, self._video_by_video(x, k, seed, held))

    @pytest.mark.parametrize("conv_first", [True, False])
    def test_adjoint_that_add_shares_is_not_written(self, conv_first):
        # add hands one adjoint array to both parents: the conv's fold onto
        # the weights must not write it, or q's grad would change too
        rng = np.random.default_rng(52)
        x = seq_tensor(rng.standard_normal((3, 6, 2)))
        k = make_conv(rng, 2, 3, 3, 1)
        q = Tensor(rng.uniform(-1, 1, size=(3, 2, 3)), requires_grad=True)
        seed, s2 = _weighted(rng, (3, 6, 3)), _weighted(rng, (3, 2, 3))
        conv_only = self._video_by_video(x, k, seed)
        k.weights.grad = None
        losses = [sum_all(mul(conv1d(x, k), seed)), sum_all(mul(add(k.weights, q), s2))]
        backward(fold_sum(losses if conv_first else losses[::-1]))
        np.testing.assert_array_equal(q.grad, s2.data)
        np.testing.assert_allclose(k.weights.grad, conv_only + s2.data, rtol=1e-12)

    def test_float32_weight_rounds_each_video_before_the_fold(self):
        # a float64 adjoint reaches a float32 conv: each video's weight
        # gradient is rounded to float32, and float32 grads are added
        rng = np.random.default_rng(53)
        x = seq_tensor(rng.standard_normal((3, 6, 2)).astype(np.float32))
        k = make_conv(rng, 2, 3, 3, 2)
        k = Conv1dKernel(Tensor(k.weights.data.astype(np.float32), requires_grad=True),
                         Tensor(k.bias.data.astype(np.float32), requires_grad=True), 2)
        seed = _weighted(rng, (3, 6, 3))
        backward(sum_all(mul(conv1d(x, k), seed)))
        got = k.weights.grad
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, self._video_by_video(x, k, seed))

    def test_wide_conv_backward_holds_one_scratch_beyond_the_grad(self):
        # 256 -> 256 channels, width 3, 8 videos. Each video's weight gradient
        # is written into one reused tap-major scratch and added into the grad
        # in place, so the backward peaks at about the grad, the scratch and
        # the loss's adjoint: 2.2 weights' bytes at T=16. A fresh grad + dw
        # per video and a temporary per tap peaked at 3.2.
        rng = np.random.default_rng(54)
        k = make_conv(rng, 256, 256, 3, 1)
        x = seq_tensor(rng.standard_normal((8, 16, 256)))
        loss = sum_all(conv1d(x, k))
        _, peak = traced_peak(backward, loss)
        adjoint = 8 * 16 * 256 * 8
        assert peak < 2.25 * k.weights.data.nbytes + adjoint, peak / k.weights.data.nbytes


def test_float32_in_float32_out():
    # gelu's constants are Python floats: NumPy float64 scalars would promote
    rng = np.random.default_rng(30)
    x = seq_tensor(rng.standard_normal((9, 4)).astype(np.float32))

    def f32(t):
        return Tensor(t.data.astype(np.float32))

    conv = make_conv(rng, 4, 3, 3, 2)
    conv = Conv1dKernel(f32(conv.weights), f32(conv.bias), conv.dilation)
    dw = make_depthwise(rng, 4, 3, 2)
    dw = DepthwiseKernel(f32(dw.weights), f32(dw.bias), dw.dilation)
    norm = LayerNormAffine(Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)))
    for out in (conv1d(x, conv), depthwise_conv1d(x, dw), layer_norm(x, norm), gelu(x), sigmoid(x)):
        assert out.data.dtype == np.float32
        assert out._parents == () and out._backward is None


class TestInit:
    def test_fan_in_bounds_and_zero_bias(self):
        rng = np.random.default_rng(29)
        k = init_conv1d(random_params(rng), 16, 8, 3, dilation=2)
        bound = (1.0 / (16 * 3)) ** 0.5
        assert np.all(np.abs(k.weights.data) <= bound)
        np.testing.assert_array_equal(k.bias.data, np.zeros(8))
        assert k.dilation == 2

    def test_depthwise_fan_in(self):
        rng = np.random.default_rng(30)
        k = init_depthwise(random_params(rng), 4)
        assert np.all(np.abs(k.weights.data) <= (1.0 / 3) ** 0.5)

    @pytest.mark.parametrize("depthwise", [False, True])
    def test_conv_block_requests_front_conv_norm_in_order(self, depthwise):
        requests = []
        rng = np.random.default_rng(32)

        def new(shape, kind):
            requests.append((shape, kind))
            return random_params(rng)(shape, kind)

        block = init_conv_block(new, 4, 6, dilation=2, depthwise=depthwise)
        front = [((4, 3), "weights"), ((4,), "bias")] if depthwise else []
        assert requests == front + [((6, 4, 3), "weights"), ((6,), "bias"), ((6,), "gamma"), ((6,), "beta")]
        assert (block.depthwise is not None) == depthwise and block.dilation == 2
        if depthwise:
            assert block.depthwise.width == 3 and block.depthwise.dilation == 1

    def test_doubling_dilation_stops_at_2_to_the_63(self):
        assert [doubling_dilation(i) for i in range(64)] == [2 ** i for i in range(64)]
        assert {doubling_dilation(i) for i in (64, 65, 3_000_000, 10 ** 9)} == {2 ** 63}

    def test_layer_norm_identity_affine(self):
        a = init_layer_norm(random_params(np.random.default_rng(0)), 5)
        np.testing.assert_array_equal(a.gamma.data, np.ones(5))
        np.testing.assert_array_equal(a.beta.data, np.zeros(5))

    def test_block_past_physical_memory_rejected_without_a_draw(self):
        rng = np.random.default_rng(31)
        want = np.random.default_rng(31).uniform(size=3)
        with pytest.raises(ValueError, match=r"a weights block of shape \(1000000000000, 8, 1\) needs "
                                             r"\d+ bytes, more than the \d+ bytes of physical memory"):
            init_conv1d(random_params(rng), 8, 10 ** 12, 1)
        np.testing.assert_array_equal(rng.uniform(size=3), want)  # the rejection drew nothing
