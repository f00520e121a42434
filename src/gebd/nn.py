"""Neural building blocks: dilated 1D convolutions, GELU, sigmoid, and the
one block built from them, [depthwise ->] conv -> layer norm -> GELU, whose
layer norm runs only inside that block's norm+GELU node.

All operate on T x d sequence tensors or B x T x d batches of equal-length
videos (frames on axis -2, channels on axis -1, one code path for both),
preserve the frame count ("same" length, zero padding outside each video),
and are differentiable through the autodiff graph. Each parameter adjoint
is computed per video and folded onto `grad` in batch order; a conv
weight's grad is a tap-major (width, ...) array, exposed as its
(..., width) view, that later videos are added into in place. Convolution
tap j of a width 2m+1 kernel multiplies frame t + dilation*j;
`weights[..., j + m]` holds that tap. One rule says which taps run, in the
forward and in both gradients: a tap with |dilation*j| >= T reads only
padding and is skipped (`_tap_loop`), so no buffer grows with a dilation.

The tape keeps what a backward cannot rebuild for less than a GEMM, with
the forward's own ops and so with its bits. A block's layer norm and GELU
are one node (`_norm_gelu`) that keeps the conv output, each frame's mean
and inverse deviation and the GELU's Gaussian CDF, not the normalized
output. A conv over several inputs side by side (`_conv1d_parts`) keeps
them, not their concatenation.

The `init_*` constructors take a `ParamSource`, `new(shape, kind) -> array`,
called once per parameter in field order with kind the field name
("weights", "bias", "gamma", "beta"): `random_params` draws a fresh model,
a checkpoint reader returns the stored blocks. A source returns a finite
array that nothing else holds (`random_params` draws one, the reader
rejects a non-finite block and names it), so the constructors wrap it as a
parameter without a second finiteness scan or a copy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, ClassVar, Sequence

import numpy as np

from .autodiff import Tensor, _accumulate, _accumulate_videos, _require_seq, _videos
from .util import check_fits_in_memory

ParamSource = Callable[[tuple[int, ...], str], np.ndarray]

# Python floats, not NumPy float64 scalars, so float32 inputs stay float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5
BLOCK_WIDTH = 3  # the taps of every conv block's conv and of its depthwise front

_ERF_MODULE = "scipy.special._special_ufuncs"
_ERF_LOCK = threading.Lock()


@dataclass
class _Kernel:
    """Weights with their leading axis over output channels and taps on the
    last, odd-width axis; one bias per leading channel; dilation >= 1."""

    ndim: ClassVar[int]
    kind: ClassVar[str]
    weights: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        shape = self.weights.data.shape
        if len(shape) != self.ndim:
            raise ValueError(f"{self.kind} weights must be {self.ndim}-D, got shape {shape}")
        if shape[-1] % 2 != 1:
            raise ValueError(f"{self.kind} width must be odd, got {shape[-1]}")
        if self.bias.data.shape != shape[:1]:
            raise ValueError(f"{self.kind} bias shape {self.bias.data.shape} does not match {shape[0]} channels")
        if int(self.dilation) < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        self.dilation = int(self.dilation)

    @property
    def width(self) -> int:
        return self.weights.data.shape[-1]

    @property
    def reach(self) -> int:
        """Frames on each side of an output frame that it reads."""
        return self.dilation * (self.width // 2)


@dataclass
class Conv1dKernel(_Kernel):
    """Dense 1D convolution: weights (out_channels, in_channels, width)."""

    ndim = 3
    kind = "conv"


@dataclass
class DepthwiseKernel(_Kernel):
    """Per-channel 1D convolution: weights (channels, width)."""

    ndim = 2
    kind = "depthwise"


@dataclass
class LayerNormAffine:
    """Per-frame normalization affine: gamma/beta of length d."""

    gamma: Tensor
    beta: Tensor

    def __post_init__(self):
        if self.gamma.data.ndim != 1 or self.gamma.data.shape != self.beta.data.shape:
            raise ValueError("layer norm gamma/beta must be equal-length 1-D arrays")


@dataclass
class ConvBlock:
    """[depthwise ->] conv -> layer norm -> GELU, `BLOCK_WIDTH` taps wide: the TPS
    branches, the merge and the decoder. Only a dilated branch has the front."""

    depthwise: DepthwiseKernel | None
    conv: Conv1dKernel
    norm: LayerNormAffine

    @property
    def dilation(self) -> int:
        return self.conv.dilation

    @property
    def reach(self) -> int:
        return self.conv.reach + (self.depthwise.reach if self.depthwise is not None else 0)


def _add_rows(out: np.ndarray, y: np.ndarray, offset: int) -> None:
    """out[..., t, :] += y[..., t + offset, :] for every t with t + offset in
    [0, T); needs |offset| < T."""
    t = out.shape[-2]
    lo, hi = max(0, -offset), min(t, t - offset)
    out[..., lo:hi, :] += y[..., lo + offset:hi + offset, :]


def _channel_slices(parts: Sequence[Tensor], what: str) -> list[slice]:
    """The channel columns of each part in the concatenation of `parts`:
    sequence tensors that share their frames, concatenated in order."""
    if not parts:
        raise ValueError(f"{what}: empty part list")
    for p in parts:
        _require_seq(p, what)
    rows = parts[0].data.shape[:-1]
    if any(p.data.shape[:-1] != rows for p in parts):
        raise ValueError(f"{what}: all parts must share the frame count")
    ends = list(accumulate(p.data.shape[-1] for p in parts))
    return [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]


def _concat(parts: Sequence[Tensor]) -> np.ndarray:
    """The concatenated value of `parts` (a lone part's own array)."""
    return parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts], axis=-1)


def _split(parts: Sequence[Tensor], slices: Sequence[slice], g: np.ndarray) -> None:
    """Hand each part its channel columns of the concatenation's adjoint."""
    for p, cols in zip(parts, slices):
        _accumulate(p, g[..., cols])


def _tap_loop(name: str, parts: list[Tensor], k: _Kernel, forward, weight_grad, input_grad) -> Tensor:
    """Tap loop of both convolutions over the channel concatenation of
    `parts` (one part: its input): tap `tap` reads frame t + dilation*(tap - m)
    with weights `weights[..., tap]`, whose next-to-last axis is over the
    input channels. The kernel supplies the per-tap products: forward(v, w_tap)
    and input_grad(g, w_tap) on the whole (batched) value, and
    weight_grad(g, sx, out) on one video's (T, channels) slices, written
    into `out`.

    One tap rule: a tap whose offset reaches past both ends of the video
    (|offset| >= T) reads only zero padding, so the forward, the input
    gradient and the weight gradient all skip it, and its weight gradient
    is an exact zero. The forward and the input gradient read their input
    in place: each tap's product is taken on the unshifted value and added
    into the rows of the result it lands on (`_add_rows`). The tape keeps
    the parts, not their concatenation, which lives only through the
    forward. The weight gradient, whose reduction over T fixes its bits,
    reads the input shifted with zeros past the ends: the backward copies
    one video at a time, part by part into its channel columns, into a
    buffer padded by the largest reaching offset (at most T-1 rows) on each
    side and takes each tap's T rows as a slice of it.

    The weight gradient is tap-major: each video's taps are written into
    the contiguous slots of a (width, ...) array of the weights' dtype (so
    a float32 weight gets each video's gradient rounded before the fold),
    and the weights' grad is its (..., width) view. The first video's array
    becomes the grad when there is none yet; each later video (and each
    later run of a minibatch) is added onto the grad in place (`_accumulate`),
    in batch order, through one reused scratch array."""
    parts = tuple(parts)  # the backward keeps its own sequence, not the caller's list
    slices = _channel_slices(parts, name)
    w = k.weights.data
    if slices[-1].stop != w.shape[-2]:
        raise ValueError(f"{name}: input has {slices[-1].stop} channels, kernel expects {w.shape[-2]}")
    m = w.shape[-1] // 2
    shape = parts[0].data.shape[:-1] + (slices[-1].stop,)
    t = shape[-2]
    reaching = [(tap, off) for tap in range(w.shape[-1]) if abs(off := k.dilation * (tap - m)) < t]
    v = _concat(parts)
    out = np.tile(k.bias.data, shape[:-1] + (1,))
    for tap, off in reaching:
        _add_rows(out, forward(v, w[..., tap]), off)
    dtype = v.dtype
    del v
    grad_axes = (*range(1, w.ndim), 0)  # the tap-major (width, ...) buffer as the weights' (..., width) view

    def backward(g):
        if k.weights.requires_grad:
            pad = max(abs(off) for _, off in reaching)
            xp = np.zeros((t + 2 * pad, shape[-1]), dtype=dtype)
            dw = None
            for b, gv in enumerate(_videos(g)):
                for p, cols in zip(parts, slices):
                    xp[pad:pad + t, cols] = _videos(p.data)[b]  # the zero rows past both ends stay zero
                if dw is None:  # zeros: the taps that reach nothing stay exact zeros
                    dw = np.zeros((w.shape[-1],) + w.shape[:-1], dtype=w.dtype)
                for tap, off in reaching:
                    weight_grad(gv, xp[pad + off:pad + off + t], dw[tap])
                if _accumulate(k.weights, dw.transpose(grad_axes), owned=True):  # per video, in batch order
                    dw = None  # it is the grad now: a later video takes a new scratch
        _accumulate_videos(k.bias, _videos(g).sum(axis=1))
        if any(p.requires_grad for p in parts):
            dx = np.zeros(shape, dtype=dtype)
            for tap, off in reaching:
                _add_rows(dx, input_grad(g, w[..., tap]), -off)
            _split(parts, slices, dx)

    return Tensor(out, parents=(*parts, k.weights, k.bias), backward=backward, validate=False)


_DENSE = dict(
    forward=lambda v, w: v @ w.T,
    weight_grad=lambda g, sx, out: np.matmul(g.T, sx, out=out),
    input_grad=lambda g, w: g @ w,
)


def conv1d(x: Tensor, k: Conv1dKernel) -> Tensor:
    """Dilated 1D convolution with zero padding, output (..., T, out_channels)."""
    return _tap_loop("conv1d", [x], k, **_DENSE)


def _conv1d_parts(parts: list[Tensor], k: Conv1dKernel) -> Tensor:
    """conv1d of the channel concatenation of `parts`, keeping the parts on
    the tape instead of the concatenation."""
    return _tap_loop("conv1d", parts, k, **_DENSE)


def depthwise_conv1d(x: Tensor, k: DepthwiseKernel) -> Tensor:
    """Per-channel dilated 1D convolution; channel c depends only on channel c."""
    return _tap_loop(
        "depthwise_conv1d", [x], k,
        forward=lambda v, w: v * w,
        weight_grad=lambda g, sx, out: np.copyto(out, (g * sx).sum(axis=0)),
        input_grad=lambda g, w: g * w,
    )


def _norm_values(x: Tensor, a: LayerNormAffine) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layer norm of x with affine a: each frame normalized to zero mean
    and unit variance, then scaled by gamma and shifted by beta, with each
    frame's mean and inverse deviation."""
    _require_seq(x, "layer_norm")
    d = x.data.shape[-1]
    if a.gamma.data.shape[0] != d:
        raise ValueError(f"layer_norm: affine sized {a.gamma.data.shape[0]}, input has {d} channels")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return _affine(centered * inv, a), mu, inv


def _affine(xhat: np.ndarray, a: LayerNormAffine) -> np.ndarray:
    return xhat * a.gamma.data + a.beta.data


def _norm_backward(g: np.ndarray, x: Tensor, a: LayerNormAffine, xhat: np.ndarray, inv: np.ndarray) -> None:
    """Push the layer norm's output adjoint `g` to gamma, beta and the input x,
    given the normalized input and the inverse deviations."""
    _accumulate_videos(a.beta, _videos(g).sum(axis=1))
    _accumulate_videos(a.gamma, _videos(g * xhat).sum(axis=1))
    if x.requires_grad:
        dxhat = g * a.gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx)


def _scipy_dir() -> str:
    """The installed scipy package's directory, found without importing it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("GELU needs scipy's erf, and scipy is not installed")
    return spec.submodule_search_locations[0]


@functools.cache
def _scipy_erf() -> np.ufunc:
    """scipy's erf ufunc, the very object `scipy.special.erf` re-exports, so
    GELU keeps its bits. It is loaded from its own compiled module, without
    running `scipy.special`'s package init, whose array-API layer imports
    numpy.f2py, numpy.testing, numpy.ma and numpy.random."""
    scipy_dir = _scipy_dir()
    spec = importlib.machinery.PathFinder.find_spec(_ERF_MODULE, [os.path.join(scipy_dir, "special")])
    if spec is None:
        from importlib.metadata import version  # only to name the install in the error

        raise RuntimeError(
            f"GELU needs scipy's compiled erf ({_ERF_MODULE}), which scipy "
            f"{version('scipy')} at {scipy_dir} lacks; install scipy>=1.17"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.erf


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), with Phi from scipy's erf.
    Importing gebd loads nothing of scipy; the first GELU of a process loads
    the erf module (`_scipy_erf`)."""
    phi_cdf = _phi(x.data)

    def backward(g):
        _accumulate(x, _gelu_adjoint(g, x.data, phi_cdf))

    return Tensor(x.data * phi_cdf, parents=(x,), backward=backward, validate=False)


def _phi(v: np.ndarray) -> np.ndarray:
    """The Gaussian CDF of every entry: GELU(v) is v * _phi(v). erf runs on
    |u| and the sign is restored after, which keeps every bit (scipy's erf
    returns -erf(-x) for x < 0) and skips the sign branch erf would take on
    about half the entries."""
    with _ERF_LOCK:  # threads that make the first GELU call together share one load
        erf = _scipy_erf()
    u = v * _INV_SQRT2
    e = np.abs(u)
    erf(e, out=e)
    np.copysign(e, u, out=e)
    e += 1.0
    e *= 0.5
    return e


def _gelu_adjoint(g: np.ndarray, v: np.ndarray, phi_cdf: np.ndarray) -> np.ndarray:
    """The adjoint of GELU's input v, given its output adjoint and _phi(v)."""
    pdf = np.exp(-0.5 * v ** 2) * _INV_SQRT_2PI
    return g * (phi_cdf + v * pdf)


def _norm_gelu(y: Tensor, a: LayerNormAffine) -> Tensor:
    """gelu of the layer norm of y (`_norm_values`) as one node. The tape
    keeps y, each frame's mean and inverse deviation, and the normalized
    output's Gaussian CDF, not the normalized output: the backward rebuilds
    it with the forward's own ops (`_affine`), so both gradients get the
    bits of a layer norm node followed by a GELU node."""
    z, mu, inv = _norm_values(y, a)
    phi_cdf = _phi(z)
    out = z * phi_cdf
    del z  # freed before the next op runs, in training and in inference

    def backward(g):
        xhat = (y.data - mu) * inv
        _norm_backward(_gelu_adjoint(g, _affine(xhat, a), phi_cdf), y, a, xhat, inv)

    return Tensor(out, parents=(y, a.gamma, a.beta), backward=backward, validate=False)


def conv_block(x: Tensor, block: ConvBlock) -> Tensor:
    """gelu(layer_norm(conv1d([depthwise_conv1d](x)))), the norm and the GELU
    as one node (`_norm_gelu`)."""
    return _conv_block([x], block)


def _conv_block(parts: list[Tensor], block: ConvBlock) -> Tensor:
    """conv_block of the channel concatenation of `parts` (`_conv1d_parts`);
    only a one-part block has a depthwise front."""
    if block.depthwise is not None:
        (x,) = parts
        parts = [depthwise_conv1d(x, block.depthwise)]
    y = _conv1d_parts(parts, block.conv)
    del parts  # an input no tape or caller holds is freed before the norm and GELU run
    return _norm_gelu(y, block.norm)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for large |x|."""
    pos = x.data >= 0
    z = np.exp(np.where(pos, -x.data, x.data))
    s = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        _accumulate(x, g * s * (1.0 - s))

    return Tensor(s, parents=(x,), backward=backward, validate=False)


def random_params(rng: np.random.Generator) -> ParamSource:
    """Seeded parameter source: fan-in uniform weights, unit gammas, zero
    biases and betas. Only weights draw from rng, in request order. A block
    larger than physical memory is rejected before it is allocated."""

    def new(shape: tuple[int, ...], kind: str) -> np.ndarray:
        check_fits_in_memory(8 * math.prod(shape), f"a {kind} block of shape {shape}")
        if kind == "weights":
            bound = (1.0 / math.prod(shape[1:])) ** 0.5
            return rng.uniform(-bound, bound, size=shape)
        return np.ones(shape) if kind == "gamma" else np.zeros(shape)

    return new


def _param(new: ParamSource, shape: tuple[int, ...], kind: str) -> Tensor:
    return Tensor(new(shape, kind), requires_grad=True, validate=False)


def init_conv1d(new: ParamSource, in_channels: int, out_channels: int,
                width: int, dilation: int = 1) -> Conv1dKernel:
    return Conv1dKernel(
        _param(new, (out_channels, in_channels, width), "weights"),
        _param(new, (out_channels,), "bias"),
        dilation,
    )


def init_depthwise(new: ParamSource, channels: int) -> DepthwiseKernel:
    return DepthwiseKernel(_param(new, (channels, BLOCK_WIDTH), "weights"), _param(new, (channels,), "bias"))


def init_layer_norm(new: ParamSource, channels: int) -> LayerNormAffine:
    return LayerNormAffine(_param(new, (channels,), "gamma"), _param(new, (channels,), "beta"))


def init_conv_block(new: ParamSource, in_channels: int, out_channels: int,
                    dilation: int = 1, depthwise: bool = False) -> ConvBlock:
    """Every `ConvBlock`: with `depthwise`, a depthwise front over the input,
    then the conv (both `BLOCK_WIDTH` wide), then the layer norm, in that order."""
    front = init_depthwise(new, in_channels) if depthwise else None
    return ConvBlock(front, init_conv1d(new, in_channels, out_channels, BLOCK_WIDTH, dilation),
                     init_layer_norm(new, out_channels))


def doubling_dilation(i: int) -> int:
    """2 ** i, the dilation of the i-th block of a doubling stack, stopping
    at 2 ** 63: no array has that many frames, so every tap but the center
    of such a block already reads only padding, and a deep stack holds no
    integer of more than 64 bits."""
    return 2 ** min(i, 63)
