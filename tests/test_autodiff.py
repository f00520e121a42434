"""Core tensor ops and the reverse-mode gradient contract."""

import numpy as np
import pytest

from gebd.autodiff import (
    Tensor,
    add,
    backward,
    concat_channels,
    l2_normalize_rows,
    scale,
    seq_tensor,
    time_smooth,
)
from gebd.postprocess import smoothing_matrix
from gradcheck import check_op_gradients, mul, rel_err, sum_all


def rnd(rng, rows, cols):
    return Tensor(rng.uniform(-2, 2, size=(rows, cols)), requires_grad=True)


class TestTensorBasics:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([[1.0, np.nan]])

    def test_seq_tensor_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            seq_tensor(np.zeros(3))
        with pytest.raises(ValueError):
            seq_tensor(np.zeros((0, 2)))

    def test_data_is_immutable(self):
        t = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_construction_does_not_freeze_caller_array(self):
        arr = np.ones((2, 2))
        Tensor(arr)
        arr[0, 0] = 3.0  # must still be writable

    def test_update_data_shape_check(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            t.update_data(np.zeros((3, 2)))


class TestAdd:
    def test_zero_identity(self):
        rng = np.random.default_rng(0)
        b = rnd(rng, 3, 2)
        out = add(Tensor(np.zeros((3, 2))), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_forced_arithmetic(self):
        out = add(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[4.0, 6.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones(self):
        rng = np.random.default_rng(1)
        a, b = rnd(rng, 4, 3), rnd(rng, 4, 3)
        backward(sum_all(add(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.ones((4, 3)))

    def test_commutative_associative(self):
        rng = np.random.default_rng(2)
        a, b, c = (rnd(rng, 5, 4) for _ in range(3))
        ab = add(a, b).data
        ba = add(b, a).data
        np.testing.assert_allclose(ab, ba, atol=1e-12)
        left = add(add(a, b), c).data
        right = add(a, add(b, c)).data
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestMul:
    def test_square_adjoint_is_2x(self):
        rng = np.random.default_rng(3)
        x = rnd(rng, 4, 4)
        backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)


class TestConcatChannels:
    def test_single_part_identity(self):
        rng = np.random.default_rng(4)
        a = rnd(rng, 3, 2)
        np.testing.assert_array_equal(concat_channels([a]).data, a.data)

    def test_column_order(self):
        a = Tensor([[1.0, 2.0], [5.0, 6.0]])
        b = Tensor([[3.0, 4.0, 7.0], [8.0, 9.0, 10.0]])
        out = concat_channels([a, b])
        assert out.data.shape == (2, 5)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            concat_channels([])
        with pytest.raises(ValueError, match="frame count"):
            concat_channels([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))])

    def test_concat_then_split_is_identity(self):
        rng = np.random.default_rng(5)
        parts = [rnd(rng, 4, w) for w in (2, 3, 1)]
        out = concat_channels(parts).data
        off = 0
        for p in parts:
            w = p.data.shape[1]
            np.testing.assert_array_equal(out[:, off:off + w], p.data)
            off += w

    def test_gradient_splits_back_exactly(self):
        rng = np.random.default_rng(6)
        parts = [rnd(rng, 4, w) for w in (2, 3)]
        weight = rng.uniform(-1, 1, size=(4, 5))
        backward(sum_all(mul(concat_channels(parts), Tensor(weight))))
        np.testing.assert_allclose(parts[0].grad, weight[:, :2], rtol=1e-12)
        np.testing.assert_allclose(parts[1].grad, weight[:, 2:], rtol=1e-12)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(Tensor([[3.0, 4.0]]), eps=1e-12)
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-9)

    def test_zero_row_maps_to_zero(self):
        out = l2_normalize_rows(Tensor([[0.0, 0.0], [1.0, 0.0]]), eps=1e-12)
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        out = l2_normalize_rows(Tensor(row), eps=1e-12)
        np.testing.assert_allclose(out.data, row, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 2.0, size=(6, 5))
        for c in (0.5, 3.0, 250.0):
            a = l2_normalize_rows(Tensor(x), eps=1e-12).data
            b = l2_normalize_rows(Tensor(c * x), eps=1e-12).data
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps"):
            l2_normalize_rows(Tensor(np.ones((2, 2))), eps=0.0)


class TestBackwardContract:
    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="1x1"):
            backward(add(x, x))

    def test_every_leaf_gets_adjoint_of_identical_shape(self):
        rng = np.random.default_rng(8)
        leaves = [rnd(rng, r, c) for r, c in ((3, 2), (3, 4), (3, 1))]
        loss = sum_all(mul(concat_channels(leaves), concat_channels(leaves)))
        backward(loss)
        for leaf in leaves:
            assert leaf.grad is not None
            assert leaf.grad.shape == leaf.data.shape

    def test_reused_node_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = add(x, x)  # dy/dx = 2
        backward(sum_all(y))
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_grads_accumulate_across_backward_calls(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        backward(sum_all(x))
        backward(sum_all(x))
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])


class TestTapeRule:
    """Only a node that requires grad keeps its parents and backward."""

    def test_node_without_grad_keeps_no_tape(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((4, 2)))
        for out in (add(a, a), mul(a, a), scale(a, 2.0), concat_channels([a, b]),
                    l2_normalize_rows(a), sum_all(a), time_smooth(a, 5.0)):
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None

    def test_node_with_grad_keeps_tape_and_passes_it_on(self):
        rng = np.random.default_rng(14)
        a = rnd(rng, 4, 3)
        c = Tensor(rng.standard_normal((4, 3)))
        out = mul(add(a, c), c)
        assert out.requires_grad
        assert len(out._parents) == 2 and out._backward is not None
        backward(sum_all(out))
        np.testing.assert_allclose(a.grad, c.data)
        assert c.grad is None

    def test_float32_kept_other_dtypes_become_float64(self):
        f32 = np.ones((2, 3), dtype=np.float32)
        assert Tensor(f32).data.dtype == np.float32
        for data in (np.ones((2, 3), dtype=np.float16), np.ones((2, 3), dtype=np.int64),
                     [[1, 2, 3]], np.ones((2, 3))):
            assert Tensor(data).data.dtype == np.float64
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t.update_data(f32)
        assert t.data.dtype == np.float32

    def test_float32_read_only_input_is_taken_without_a_copy(self):
        f32 = np.ones((2, 3), dtype=np.float32)
        f32.setflags(write=False)
        assert Tensor(f32).data is f32

    def test_ops_keep_float32(self):
        rng = np.random.default_rng(15)
        a = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((5, 2)).astype(np.float32))
        for out in (add(a, a), mul(a, a), scale(a, 0.5), concat_channels([a, b]),
                    l2_normalize_rows(a), sum_all(a)):
            assert out.data.dtype == np.float32


class TestFiniteDifferences:
    """Every differentiable core op against central differences (rel err < 1e-4)."""

    def _weighted(self, rng, out):
        w = Tensor(rng.uniform(-1, 1, size=out.data.shape))
        return sum_all(mul(out, w))

    @pytest.mark.parametrize("rows,cols", [(3, 2), (16, 16)])
    def test_add_mul_concat(self, rows, cols):
        rng = np.random.default_rng(9)
        a, b = rnd(rng, rows, cols), rnd(rng, rows, cols)
        w = Tensor(rng.uniform(-1, 1, size=(rows, 2 * cols)))
        worst = check_op_gradients(
            lambda: sum_all(mul(concat_channels([add(a, b), mul(a, b)]), w)), [a, b]
        )
        assert worst < 1e-4

    def test_l2_normalize_rows(self):
        rng = np.random.default_rng(10)
        x = rnd(rng, 6, 5)
        w = Tensor(rng.uniform(-1, 1, size=(6, 5)))
        check_op_gradients(lambda: sum_all(mul(l2_normalize_rows(x, 1e-6), w)), [x])

    def test_scale_and_time_smooth(self):
        rng = np.random.default_rng(11)
        x = rnd(rng, 5, 3)
        w = Tensor(rng.uniform(-1, 1, size=(5, 3)))
        check_op_gradients(lambda: sum_all(mul(scale(time_smooth(x, 5.0), 0.7), w)), [x])


def test_time_smooth_matches_dense_operator():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((6, 3)))
    np.testing.assert_allclose(time_smooth(x, 5.0).data, smoothing_matrix(6, 5.0) @ x.data,
                               rtol=1e-12)


def test_rel_err_helper_flags_disagreement():
    assert rel_err(np.array([1.0]), np.array([1.0])) == 0.0
    assert rel_err(np.array([1.0]), np.array([2.0])) == 0.5
