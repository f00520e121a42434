"""Convolutions, layer norm, GELU, sigmoid: values against naive oracles and
finite-difference gradients."""

import numpy as np
import pytest

from gebd.autodiff import Tensor, seq_tensor
from gebd.nn import (
    Conv1dKernel,
    DepthwiseKernel,
    LayerNormAffine,
    conv1d,
    depthwise_conv1d,
    gelu,
    init_conv1d,
    init_depthwise,
    init_layer_norm,
    layer_norm,
    random_params,
    sigmoid,
)
from gradcheck import check_op_gradients, mul, sum_all
from oracles import naive_conv1d, naive_depthwise_conv1d, naive_layer_norm


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


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        a = init_layer_norm(random_params(np.random.default_rng(0)), 4)
        x = seq_tensor(np.full((3, 4), 7.5))
        np.testing.assert_allclose(layer_norm(x, a).data, np.zeros((3, 4)), atol=1e-9)

    def test_hand_computed_row(self):
        a = LayerNormAffine(Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-12)
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
        a = LayerNormAffine(Tensor(gamma), Tensor(beta), eps=1e-5)
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
        k = init_depthwise(random_params(rng), 4, 3)
        assert np.all(np.abs(k.weights.data) <= (1.0 / 3) ** 0.5)

    def test_layer_norm_identity_affine(self):
        a = init_layer_norm(random_params(np.random.default_rng(0)), 5)
        np.testing.assert_array_equal(a.gamma.data, np.ones(5))
        np.testing.assert_array_equal(a.beta.data, np.zeros(5))
