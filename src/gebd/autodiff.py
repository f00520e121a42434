"""Reverse-mode automatic differentiation over small dense arrays.

Sequence values are T x d matrices (frames x channels), or B x T x d
batches of B equal-length videos; parameters may be arrays of any shape.
Every sequence op works on frames along axis -2 and channels along axis -1,
so a (T, d) value and a (B, T, d) batch take the same code path, and each
video of a batch gets the bits it would get alone. A parameter's adjoint is
computed per video and folded onto its `grad` one video at a time, in batch
order (`_accumulate_videos`): that is the order in which the tapes of
separate per-video forwards add into it, so batching keeps gradient bits.
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

from .postprocess import smooth_frames


def _as_value(data) -> np.ndarray:
    """Contiguous float32 if `data` is float32, else contiguous float64."""
    arr = np.asarray(data)
    return np.ascontiguousarray(arr, dtype=np.float32 if arr.dtype == np.float32 else np.float64)


class Tensor:
    """Immutable array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ValueError(f"adjoint shape {g.shape} does not match value shape {t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equally shaped tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward, validate=False)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward(g):
        _accumulate(x, g * c)

    return Tensor(x.data * c, parents=(x,), backward=backward, validate=False)


def concat_channels(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate sequence tensors along the channel axis, order preserved."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat_channels: empty part list")
    for p in parts:
        _require_seq(p, "concat_channels")
    rows = parts[0].data.shape[:-1]
    if any(p.data.shape[:-1] != rows for p in parts):
        raise ValueError("concat_channels: all parts must share the frame count")
    widths = [p.data.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., off:off + w])
            off += w

    return Tensor(out, parents=tuple(parts), backward=backward, validate=False)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Divide each row by sqrt(|row|^2 + eps^2); zero rows map to zero."""
    if eps <= 0:
        raise ValueError("l2_normalize_rows: eps must be positive")
    _require_seq(x, "l2_normalize_rows")
    norms = np.sqrt((x.data ** 2).sum(axis=-1) + eps * eps)[..., None]

    def backward(g):
        dot = (g * x.data).sum(axis=-1)[..., None]
        dx = g / norms - x.data * (dot / norms ** 3)
        _accumulate(x, dx)

    return Tensor(x.data / norms, parents=(x,), backward=backward, validate=False)


def fold_sum(parts: Iterable[Tensor]) -> Tensor:
    """Every entry of every part, added left to right into a 1x1 scalar carrier.

    A left fold, not `np.sum` (pairwise from 8 entries on): per-video losses
    add in the order a chain of `add` calls over the videos would.
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


def time_smooth(x: Tensor, fps: float) -> Tensor:
    """Fixed Gaussian smoothing along the frame axis (`postprocess.smooth_frames`)."""
    _require_seq(x, "time_smooth")

    def backward(g):
        _accumulate(x, smooth_frames(g, fps, adjoint=True))

    return Tensor(smooth_frames(x.data, fps), parents=(x,), backward=backward, validate=False)


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
