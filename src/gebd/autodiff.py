"""Reverse-mode automatic differentiation over small dense arrays.

Sequence values are T x d matrices (frames x channels), or B x T x d
batches of B equal-length videos; parameters may be arrays of any shape.
Every sequence op works on frames along axis -2 and channels along axis -1,
so a (T, d) value and a (B, T, d) batch take the same code path, and each
video of a batch gets the bits it would get alone. A parameter's adjoint is
computed per video and folded onto its `grad` one video at a time, in batch
order (`_accumulate_videos`): that is the order in which the tapes of
separate per-video forwards add into it, so batching keeps gradient bits.
A fold adds in place only into a grad array that an earlier fold allocated
(or that an op handed over as its own, `owned`); a grad that a caller set,
or an adjoint that a backward also hands to another parent (as
`_normalized_sum` hands one to every term), is never written, so the
first fold onto it makes a fresh sum.
Values are float32 when the input is float32 and float64 otherwise; every
op of the model forward keeps float32 inputs in float32.

`requires_grad` passes from parents to children. A node that requires grad
remembers its inputs and how to push an adjoint back to them, so the graph
built during a forward pass doubles as the gradient tape. A node that does
not require grad keeps neither: no adjoint can ever reach it, so an
inference forward over parameters that do not require grad (a loaded
checkpoint) holds no tape, and each intermediate is freed as soon as the
next op no longer needs it. `backward` seeds the loss adjoint with 1 and
accumulates `grad` on every leaf (a parameter or input that requires grad)
reachable from the loss whose value influences it. It consumes the graph as
it sweeps: each interior node drops its adjoint, its inputs and its backward
once its backward has run, so a training step holds the tape once, not the
tape plus every adjoint. Only leaves keep `grad`, and a graph runs backward
once; a second `backward` that reaches a consumed node raises ValueError.

Tensor values are immutable (the wrapped array is frozen at construction)
and safe to share across threads; a graph must stay on the thread that
built it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# the eps of every row normalization, tps's residual views included
NORMALIZE_EPS = 1e-12


def _as_value(data) -> np.ndarray:
    """Contiguous float32 if `data` is float32, else contiguous float64."""
    arr = np.asarray(data)
    return np.ascontiguousarray(arr, dtype=np.float32 if arr.dtype == np.float32 else np.float64)


class Tensor:
    """Immutable array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "_grad", "_grad_owned", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        parents: Sequence["Tensor"] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        validate: bool = True,
    ):
        arr = _as_value(data)
        if validate:
            if not np.all(np.isfinite(arr)):
                raise ValueError("tensor data must be finite")
            if arr is data and arr.flags.writeable:
                arr = arr.copy()  # never freeze an array the caller still holds
        arr.setflags(write=False)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        # only a node that can receive an adjoint keeps the tape
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        # an array set from outside may be held elsewhere: folds never write it
        self._grad, self._grad_owned = g, False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def update_data(self, new) -> None:
        """Swap in a new value of the same shape (optimizer updates)."""
        arr = _as_value(new)
        if arr.shape != self.data.shape:
            raise ValueError(f"shape mismatch: {arr.shape} vs {self.data.shape}")
        if arr is new and arr.flags.writeable:
            arr = arr.copy()  # never freeze an array the caller still holds
        arr.setflags(write=False)
        self.data = arr

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def seq_tensor(data, requires_grad: bool = False) -> Tensor:
    """Leaf constructor enforcing the (T, d) or (B, T, d) sequence contract."""
    t = Tensor(data, requires_grad)
    if t.data.ndim not in (2, 3) or min(t.data.shape) < 1:
        raise ValueError(
            f"sequence tensor must be 2-D (T, d) or 3-D (B, T, d) with every size >= 1, "
            f"got shape {t.data.shape}"
        )
    return t


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> bool:
    """t.grad + g, with the bits and dtype of that sum. It is added in place
    into a grad that an earlier fold allocated; `owned` says that g is an
    array the caller allocated and holds alone, so it may become such a grad
    itself. Returns whether g became the grad."""
    if not t.requires_grad:
        return False
    if g.shape != t.data.shape:
        raise ValueError(f"adjoint shape {g.shape} does not match value shape {t.data.shape}")
    if t._grad is None:
        t._grad, t._grad_owned = g, owned
        return True
    if t._grad_owned and np.result_type(t._grad, g) == t._grad.dtype:
        np.add(t._grad, g, out=t._grad)
    else:
        t._grad, t._grad_owned = t._grad + g, True
    return False


def _videos(a: np.ndarray) -> np.ndarray:
    """A (T, d) or (B, T, d) array as a (B, T, d) view: a 2-D value is one video."""
    return a.reshape((-1,) + a.shape[-2:])


def _accumulate_videos(t: Tensor, per_video: Iterable[np.ndarray]) -> None:
    """Fold per-video adjoints of a parameter onto its grad, one video at a
    time in batch order, as separate per-video tapes would add them."""
    for g in per_video:
        _accumulate(t, g)


def _require_seq(x: Tensor, what: str) -> None:
    if x.data.ndim not in (2, 3):
        raise ValueError(f"{what}: expected a (T, d) or (B, T, d) sequence tensor, got shape {x.data.shape}")


def _sum(terms: Sequence[Tensor], what: str) -> np.ndarray:
    """The elementwise sum of equally shaped tensors: what `_normalized_sum`
    normalizes, and rebuilds in its backward."""
    if any(t.data.shape != terms[0].data.shape for t in terms):
        raise ValueError(f"{what}: shape mismatch {' vs '.join(str(t.data.shape) for t in terms)}")
    total = terms[0].data
    for t in terms[1:]:
        total = total + t.data
    return total


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward(g):
        _accumulate(x, g * c)

    return Tensor(x.data * c, parents=(x,), backward=backward, validate=False)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Divide each row by sqrt(|row|^2 + NORMALIZE_EPS^2); zero rows map to zero."""
    return _normalized_sum([x], "l2_normalize_rows")


def _normalized_sum(terms: Sequence[Tensor], what: str) -> Tensor:
    """l2_normalize_rows of the sum of `terms` (`_sum`) as one node. It keeps
    the terms and the row norms, not the sum: its backward rebuilds the sum
    with the forward's own adds, so it gets the forward's bits, and hands
    the sum's adjoint array itself to every term."""
    _require_seq(terms[0], what)
    total = _sum(terms, what)
    norms = np.sqrt((total ** 2).sum(axis=-1) + NORMALIZE_EPS * NORMALIZE_EPS)[..., None]

    def backward(g):
        total = _sum(terms, what)
        dot = (g * total).sum(axis=-1)[..., None]
        dsum = g / norms - total * (dot / norms ** 3)
        for t in terms:
            _accumulate(t, dsum)

    return Tensor(total / norms, parents=tuple(terms), backward=backward, validate=False)


def fold_sum(parts: Iterable[Tensor]) -> Tensor:
    """Every entry of every part, added left to right into a 1x1 scalar carrier.

    A left fold, not `np.sum` (pairwise from 8 entries on): per-video losses
    add in the order a chain of two-term sums over the videos would.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("fold_sum: empty part list")
    entries = [v for p in parts for v in p.data.reshape(-1)]
    total = entries[0]
    for v in entries[1:]:
        total = total + v

    def backward(g):
        for p in parts:
            _accumulate(p, np.full(p.data.shape, g[0, 0]))

    return Tensor([[total]], parents=tuple(parts), backward=backward, validate=False)


def _spent(g: np.ndarray) -> None:
    """The backward of every node that an earlier `backward` has consumed."""
    raise ValueError("backward: this graph was consumed by an earlier backward; run the forward again")


def backward(loss: Tensor) -> None:
    """Propagate adjoints from a scalar loss to every contributing tensor.

    Accumulates into the `.grad` of the leaves (parameters and inputs that
    require grad); callers zero parameter grads between steps. The sweep
    consumes the graph: once a node's backward has run, the node drops its
    adjoint, its parents and its closure, so each activation and adjoint is
    freed as soon as nothing upstream needs it. A graph runs backward once:
    a later `backward` that reaches a consumed node raises ValueError before
    any adjoint moves.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward: loss must be a 1x1 scalar tensor, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _spent:
            _spent(node.grad)  # before any adjoint moves, so no grad is half accumulated
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones((1, 1))
    while topo:
        node = topo.pop()  # the list lets go of each node as the sweep passes it
        if node._backward is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._parents, node._backward = None, (), _spent
