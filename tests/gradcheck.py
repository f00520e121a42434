"""Central finite-difference gradient checking helpers.

Relative error uses a floored denominator so near-zero gradients are judged
on an absolute scale a few orders above f64 finite-difference noise.
"""

import numpy as np

from gebd.autodiff import Tensor, _accumulate, backward

FD_EPS = 1e-6
REL_ERR_FLOOR = 1e-3


def sum_all(x: Tensor) -> Tensor:
    """Sum every entry into a 1x1 scalar carrier: the loss of a gradient check."""

    def bwd(g):
        _accumulate(x, np.full(x.data.shape, g[0, 0]))

    return Tensor([[x.data.sum()]], parents=(x,), backward=bwd, validate=False)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two equally shaped tensors: weights a checked op's
    output so that its loss depends on every entry differently."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor(a.data * b.data, parents=(a, b), backward=backward, validate=False)


def rel_err(a, b, floor=REL_ERR_FLOOR):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


def numeric_grad(f, x, eps=FD_EPS):
    """Central differences of scalar f with respect to every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_op_gradients(build_loss, leaves, tol=1e-4, eps=FD_EPS):
    """Compare analytic adjoints of each leaf against full finite differences.

    `build_loss()` must rebuild the graph from the current leaf values and
    return the scalar loss tensor. Returns the worst relative error seen.
    """
    loss = build_loss()
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    analytic = [np.array(leaf.grad) if leaf.grad is not None else np.zeros(leaf.data.shape)
                for leaf in leaves]
    worst = 0.0
    for leaf, got in zip(leaves, analytic):
        original = leaf.data

        def scalar_loss(values, leaf=leaf):
            leaf.update_data(values)
            out = float(build_loss().data[0, 0])
            return out

        expected = numeric_grad(scalar_loss, np.array(original), eps)
        leaf.update_data(original)
        err = rel_err(got, expected)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for leaf {leaf}: rel err {err:.3e} >= {tol}"
    return worst


def spot_check_model_gradients(build_loss, params, rng, coords_per_param=4,
                               tol=1e-3, eps=FD_EPS):
    """FD checks on sampled coordinates of every parameter leaf."""
    loss = build_loss()
    for p in params:
        p.grad = None
    backward(loss)
    worst = 0.0
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros(p.data.shape)
        n = min(coords_per_param, p.data.size)
        flat_choices = rng.choice(p.data.size, size=n, replace=False)
        original = p.data
        for flat in flat_choices:
            idx = np.unravel_index(flat, p.data.shape)
            pert = np.array(original)
            pert[idx] += eps
            p.update_data(pert)
            up = float(build_loss().data[0, 0])
            pert[idx] -= 2 * eps
            p.update_data(pert)
            down = float(build_loss().data[0, 0])
            p.update_data(original)
            fd = (up - down) / (2 * eps)
            err = rel_err(grad[idx], fd)
            worst = max(worst, err)
            assert err < tol, f"param coord {idx}: analytic {grad[idx]:.6e} vs fd {fd:.6e}"
    return worst


def directional_check(build_loss, params, rng, tol=1e-3, eps=FD_EPS):
    """FD along one random direction through the whole parameter vector."""
    loss = build_loss()
    for p in params:
        p.grad = None
    backward(loss)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum((d ** 2).sum() for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(
        ((p.grad if p.grad is not None else 0.0) * d).sum()
        for p, d in zip(params, direction)
    )
    originals = [p.data for p in params]

    def move(sign):
        for p, o, d in zip(params, originals, direction):
            p.update_data(o + sign * eps * d)
        return float(build_loss().data[0, 0])

    up = move(+1.0)
    down = move(-1.0)
    for p, o in zip(params, originals):
        p.update_data(o)
    fd = (up - down) / (2 * eps)
    err = rel_err(analytic, fd)
    assert err < tol, f"directional derivative: analytic {analytic:.6e} vs fd {fd:.6e}"
    return err
