"""Temporal pyramid similarity: branch structure, distance vectors, stage and
full forwards against an independent straight-line oracle."""

import numpy as np
import pytest

from gebd.autodiff import Tensor, backward, seq_tensor
from gebd.model import ModelConfig
from gebd.nn import Conv1dKernel, random_params
from gebd.tps import (
    branch_forward,
    comprehensive_rep,
    init_branch,
    init_stage,
    init_tps,
    residual_normalize,
    similarity_vector,
    stage_forward,
    tps_forward,
)
from gradcheck import mul, sum_all
from oracles import naive_neighbor_distances, naive_neighbor_distances_backward, naive_stage_forward


def make_stage(seed=0, channels=6, n=4, d_out=8, radius=2, **switches):
    """A one-stage config and that stage's seeded parameters."""
    config = ModelConfig(stage_dims=(channels,), branch_count=n, d_out=d_out, neighbor_radius=radius, **switches)
    return init_stage(random_params(np.random.default_rng(seed)), channels, config), config


class TestBranchStructure:
    def test_depthwise_present_iff_dilated(self):
        rng = np.random.default_rng(0)
        dilations = [2 ** i for i in range(4)]
        branches = [init_branch(random_params(rng), 6, r, True) for r in dilations]
        assert branches[0].depthwise is None  # r=1
        for br in branches[1:]:  # r in {2, 4, 8}
            assert br.depthwise is not None
            assert br.depthwise.width == 3 and br.depthwise.dilation == 1
        assert [br.dilation for br in branches] == [1, 2, 4, 8]

    def test_shape_preserved_for_every_branch(self):
        rng = np.random.default_rng(1)
        x = seq_tensor(rng.standard_normal((11, 6)))
        for r in (1, 2, 4, 8):
            out = branch_forward(x, init_branch(random_params(rng), 6, r, True))
            assert out.data.shape == (11, 6)

    def test_zero_input_zero_params_gives_zero(self):
        # with zero biases and beta=0: norm(0)=0, gelu(0)=0
        br = init_branch(random_params(np.random.default_rng(2)), 4, 2, True)
        out = branch_forward(seq_tensor(np.zeros((6, 4))), br)
        np.testing.assert_allclose(out.data, np.zeros((6, 4)), atol=1e-15)


class TestResidualNormalize:
    def test_zero_branch_output_gives_normalized_input(self):
        rng = np.random.default_rng(3)
        x = seq_tensor(rng.standard_normal((5, 4)))
        out = residual_normalize(Tensor(np.zeros((5, 4))), x)
        norms = np.linalg.norm(x.data, axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, x.data / norms, atol=1e-9)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(4)
        f = Tensor(rng.standard_normal((6, 5)))
        x = seq_tensor(rng.standard_normal((6, 5)))
        out = residual_normalize(f, x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(6), atol=1e-9)

    def test_f_equals_x_keeps_direction(self):
        rng = np.random.default_rng(5)
        x = seq_tensor(rng.standard_normal((4, 3)))
        out = residual_normalize(x, x)
        norms = np.linalg.norm(x.data, axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, x.data / norms, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            residual_normalize(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 3))))


class TestNeighborDistances:
    def test_identical_rows_all_zero(self):
        r = seq_tensor(np.tile([0.5, 0.5], (6, 1)))
        np.testing.assert_array_equal(similarity_vector([r], 2).data, np.zeros((6, 4)))

    def test_edge_clamping(self):
        rng = np.random.default_rng(6)
        r = seq_tensor(rng.standard_normal((5, 3)))
        out = similarity_vector([r], 2).data
        # at t=0 both negative-offset slots compare frame 0 with itself
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0
        assert out[-1, 2] == 0.0 and out[-1, 3] == 0.0

    def test_unit_basis_hand_case(self):
        e1 = [1.0, 0.0]
        e2 = [0.0, 1.0]
        r = seq_tensor([e1, e2, e1])
        out = similarity_vector([r], 1).data
        np.testing.assert_allclose(out, [[0.0, 2.0], [2.0, 2.0], [2.0, 0.0]])

    def test_column_order_negative_then_positive(self):
        # rows 0,1,2,... scaled so distance grows with |q|; check slot layout
        r = seq_tensor(np.arange(6, dtype=float)[:, None] * [1.0])
        out = similarity_vector([r], 2).data
        # at t=3: slots q=-2,-1,1,2 -> distances 4,1,1,4
        np.testing.assert_allclose(out[3], [4.0, 1.0, 1.0, 4.0])

    def test_entries_bounded_for_unit_rows(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        out = similarity_vector([seq_tensor(x)], 3).data
        assert np.all(out >= 0)
        assert np.all(out <= 4.0 + 1e-12)

    def test_gradient_vs_finite_differences(self):
        from gradcheck import check_op_gradients

        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-2, 2, size=(6, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(6, 4)))
        check_op_gradients(
            lambda: sum_all(mul(similarity_vector([x], 2), w)), [x]
        )


    @pytest.mark.parametrize("t_len", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("radius", [1, 2, 5])
    def test_forward_and_backward_match_clamped_index_oracle(self, t_len, radius):
        rng = np.random.default_rng(100 * t_len + radius)
        x = rng.standard_normal((t_len, 6))
        g = rng.standard_normal((t_len, 2 * radius))
        r = Tensor(x, requires_grad=True)
        out = similarity_vector([r], radius)
        np.testing.assert_allclose(out.data, naive_neighbor_distances(x, radius), rtol=0, atol=1e-12)
        out._backward(g)
        np.testing.assert_allclose(r.grad, naive_neighbor_distances_backward(x, radius, g),
                                   rtol=0, atol=1e-12)


class TestSimilarityVector:
    """All views of a stage in one op: each view's neighbor distances side by
    side, for a (T, d) video or a (B, T, d) batch."""

    @staticmethod
    def naive(arrays, radius):
        """Concatenated per-view oracle, one video of a batch at a time."""
        if arrays[0].ndim == 2:
            return np.concatenate([naive_neighbor_distances(a, radius) for a in arrays], axis=1)
        return np.stack([TestSimilarityVector.naive([a[b] for a in arrays], radius)
                         for b in range(arrays[0].shape[0])])

    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "batched"])
    @pytest.mark.parametrize("t_len", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("radius", [1, 2, 5])
    @pytest.mark.parametrize("n_views", [1, 2, 3])
    def test_forward_matches_concatenated_oracle(self, n_views, radius, t_len, batched):
        rng = np.random.default_rng(1000 * n_views + 10 * t_len + radius)
        shape = (3, t_len, 4) if batched else (t_len, 4)
        arrays = [rng.standard_normal(shape) for _ in range(n_views)]
        out = similarity_vector([seq_tensor(a) for a in arrays], radius).data
        assert out.shape == shape[:-1] + (n_views * 2 * radius,)
        np.testing.assert_allclose(out, self.naive(arrays, radius), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "batched"])
    def test_backward_matches_per_view_oracle_and_skips_views_without_grad(self, batched):
        rng = np.random.default_rng(40)
        radius, shape = 2, ((2, 9, 3) if batched else (9, 3))
        arrays = [rng.standard_normal(shape) for _ in range(3)]
        views = [Tensor(a, requires_grad=i != 1) for i, a in enumerate(arrays)]
        out = similarity_vector(views, radius)
        g = rng.standard_normal(out.data.shape)
        out._backward(g)
        assert views[1].grad is None
        for i in (0, 2):
            gi = g[..., 2 * radius * i:2 * radius * (i + 1)]
            if batched:
                want = np.stack([naive_neighbor_distances_backward(arrays[i][b], radius, gi[b])
                                 for b in range(shape[0])])
            else:
                want = naive_neighbor_distances_backward(arrays[i], radius, gi)
            np.testing.assert_allclose(views[i].grad, want, rtol=0, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        from gradcheck import check_op_gradients

        rng = np.random.default_rng(41)
        xs = [Tensor(rng.uniform(-2, 2, size=(2, 6, 3)), requires_grad=True) for _ in range(3)]
        w = Tensor(rng.uniform(-1, 1, size=(2, 6, 12)))
        check_op_gradients(lambda: sum_all(mul(similarity_vector(xs, 2), w)), xs)

    def test_rejects_bad_input(self):
        x = seq_tensor(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="radius"):
            similarity_vector([x], 0)
        with pytest.raises(ValueError, match="one or more views of one shape"):
            similarity_vector([], 1)
        with pytest.raises(ValueError, match="one or more views of one shape"):
            similarity_vector([x, seq_tensor(np.zeros((5, 2)))], 1)
        with pytest.raises(ValueError, match="sequence"):
            similarity_vector([Tensor(np.zeros(5))], 1)


class TestComprehensiveRep:
    def test_output_shape_matches_stage_width(self):
        rng = np.random.default_rng(9)
        stage, _ = make_stage(channels=6)
        fs = [Tensor(rng.standard_normal((7, 6))) for _ in range(4)]
        out = comprehensive_rep(fs, stage.compress)
        assert out.data.shape == (7, 6)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(10)
        stage, _ = make_stage(channels=6)
        fs = [Tensor(rng.standard_normal((7, 6))) for _ in range(4)]
        out = comprehensive_rep(fs, stage.compress)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(7), atol=1e-9)

    def test_selector_weights_pick_first_branch(self):
        rng = np.random.default_rng(11)
        d, n = 5, 3
        w = np.zeros((d, n * d, 1))
        w[:, :d, 0] = np.eye(d)  # identity sub-block onto branch 1
        compress = Conv1dKernel(Tensor(w), Tensor(np.zeros(d)), 1)
        fs = [Tensor(rng.standard_normal((6, d))) for _ in range(n)]
        out = comprehensive_rep(fs, compress)
        want = fs[0].data / np.linalg.norm(fs[0].data, axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, want, atol=1e-9)


class TestStageForward:
    def test_output_shape(self):
        rng = np.random.default_rng(12)
        stage, config = make_stage(channels=6, d_out=8, radius=2)
        x = seq_tensor(rng.standard_normal((9, 6)))
        assert stage_forward(x, stage, config).data.shape == (9, 8)

    def test_alternative_fusion_reading_shape(self):
        rng = np.random.default_rng(13)
        stage, config = make_stage(channels=6, d_out=8, radius=2, fuse_distances=False)
        x = seq_tensor(rng.standard_normal((9, 6)))
        out = stage_forward(x, stage, config)
        assert out.data.shape == (9, 8)

    def test_constant_input_constant_interior(self):
        rng = np.random.default_rng(14)
        stage, config = make_stage(channels=4, n=4, d_out=6, radius=2)
        x = seq_tensor(np.tile(rng.standard_normal(4), (40, 1)))
        out = stage_forward(x, stage, config).data
        # interior: beyond max branch reach (8+1) plus the distance radius
        interior = out[11:29]
        np.testing.assert_allclose(interior, np.tile(interior[0], (len(interior), 1)), atol=1e-10)

    def test_matches_straight_line_oracle(self):
        # the second case is the view reading at stage width 2 * radius, where
        # the fuse input is as wide as in the distance reading
        for channels, switches in ((5, {}), (4, {"fuse_distances": False})):
            rng = np.random.default_rng(15)
            stage, config = make_stage(seed=16, channels=channels, n=3, d_out=7, radius=2, **switches)
            x = rng.standard_normal((12, channels))
            got = stage_forward(seq_tensor(x), stage, config).data
            want = naive_stage_forward(x, stage, 2, **switches)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_oracle_agreement_without_residual(self):
        rng = np.random.default_rng(17)
        stage, config = make_stage(seed=18, channels=4, n=2, d_out=5, radius=1, use_residual=False)
        x = rng.standard_normal((8, 4))
        got = stage_forward(seq_tensor(x), stage, config).data
        want = naive_stage_forward(x, stage, 1, use_residual=False)
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestTpsForward:
    config = ModelConfig(stage_dims=(4, 4, 4, 4), d_out=6, neighbor_radius=2)

    def make_params(self, seed=19):
        return init_tps(random_params(np.random.default_rng(seed)), self.config)

    def make_inputs(self, seed, dims, t=20):
        rng = np.random.default_rng(seed)
        return [seq_tensor(rng.standard_normal((t, d))) for d in dims]

    def test_output_shape(self):
        params = self.make_params()
        xs = self.make_inputs(20, (4, 4, 4, 4))
        assert tps_forward(xs, params, self.config).data.shape == (20, 6)

    def test_stage_order_matters(self):
        params = self.make_params()
        xs = self.make_inputs(21, (4, 4, 4, 4))
        base = tps_forward(xs, params, self.config).data
        permuted = tps_forward([xs[1], xs[0], xs[2], xs[3]], params, self.config).data
        assert np.abs(base - permuted).max() > 1e-6

    def test_gradient_reaches_every_stage(self):
        params = self.make_params()
        rng = np.random.default_rng(22)
        xs = [Tensor(rng.standard_normal((20, 4)), requires_grad=True) for _ in range(4)]
        backward(sum_all(tps_forward(xs, params, self.config)))
        for x in xs:
            assert x.grad is not None
            assert np.abs(x.grad).max() > 0

    def test_time_locality(self):
        # reach: conv r=8 (+1 depthwise) + distance radius + final width-3 conv
        params = self.make_params()
        radius_total = (8 + 1) + 2 + 1
        xs = self.make_inputs(23, (4, 4, 4, 4), t=40)
        base = tps_forward(xs, params, self.config).data
        t_perturb = 20
        arrays = [np.array(x.data) for x in xs]
        arrays[0][t_perturb] += 1.0
        out = tps_forward([seq_tensor(a) for a in arrays], params, self.config).data
        changed = np.flatnonzero(np.abs(out - base).max(axis=1) > 1e-12)
        assert changed.size > 0
        assert np.all(np.abs(changed - t_perturb) <= radius_total)

    def test_stage_count_checked(self):
        params = self.make_params()
        with pytest.raises(ValueError, match="stage inputs"):
            tps_forward(self.make_inputs(24, (4, 4, 4)), params, self.config)


class TestSingleBranchStage:
    def test_n1_stage_matches_oracle(self):
        # single-view stage: distances over normalize(branch(I) + I) plus the
        # comprehensive view, checked against the straight-line oracle
        rng = np.random.default_rng(30)
        stage, config = make_stage(seed=31, channels=4, n=1, d_out=5, radius=2)
        x = rng.standard_normal((10, 4))
        got = stage_forward(seq_tensor(x), stage, config).data
        want = naive_stage_forward(x, stage, 2)
        np.testing.assert_allclose(got, want, atol=1e-8)
