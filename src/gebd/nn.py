"""Neural building blocks: dilated 1D convolutions, layer norm, GELU, sigmoid,
and the one block built from them, [depthwise ->] conv -> layer norm -> GELU.

All operate on T x d sequence tensors or B x T x d batches of equal-length
videos (frames on axis -2, channels on axis -1, one code path for both),
preserve the frame count ("same" length, zero padding outside each video),
and are differentiable through the autodiff graph. Each parameter adjoint
is computed per video and folded onto `grad` in batch order. Convolution
tap j of a width 2m+1 kernel multiplies frame t + dilation*j;
`weights[..., j + m]` holds that tap. One rule says which taps run, in the
forward and in both gradients: a tap with |dilation*j| >= T reads only
padding and is skipped (`_tap_loop`), so no buffer grows with a dilation.

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
from typing import Callable, ClassVar

import numpy as np

from .autodiff import Tensor, _accumulate, _accumulate_videos, _require_seq, _videos
from .util import check_fits_in_memory

ParamSource = Callable[[tuple[int, ...], str], np.ndarray]

# Python floats, not NumPy float64 scalars, so float32 inputs stay float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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
    eps: float = 1e-5

    def __post_init__(self):
        if self.gamma.data.ndim != 1 or self.gamma.data.shape != self.beta.data.shape:
            raise ValueError("layer norm gamma/beta must be equal-length 1-D arrays")
        if self.eps <= 0:
            raise ValueError("layer norm eps must be positive")


@dataclass
class ConvBlock:
    """[depthwise ->] conv -> layer norm -> GELU: the TPS branches, the merge
    and the decoder. Only a dilated TPS branch has the depthwise front."""

    depthwise: DepthwiseKernel | None
    conv: Conv1dKernel
    norm: LayerNormAffine

    @property
    def dilation(self) -> int:
        return self.conv.dilation


def _add_rows(out: np.ndarray, y: np.ndarray, offset: int) -> None:
    """out[..., t, :] += y[..., t + offset, :] for every t with t + offset in
    [0, T); needs |offset| < T."""
    t = out.shape[-2]
    lo, hi = max(0, -offset), min(t, t - offset)
    out[..., lo:hi, :] += y[..., lo + offset:hi + offset, :]


def _tap_loop(name: str, x: Tensor, k: _Kernel, forward, weight_grad, input_grad) -> Tensor:
    """Tap loop of both convolutions: tap `tap` reads frame t + dilation*(tap - m)
    with weights `weights[..., tap]`, whose next-to-last axis is over the
    input channels. The kernel supplies the per-tap products: forward(v, w_tap)
    and input_grad(g, w_tap) on the whole (batched) value, weight_grad(g, sx)
    on one video's (T, channels) slices.

    One tap rule: a tap whose offset reaches past both ends of the video
    (|offset| >= T) reads only zero padding, so the forward, the input
    gradient and the weight gradient all skip it, and its weight gradient
    is an exact zero. The forward and the input gradient read their input
    in place: each tap's product is taken on the unshifted value and added
    into the rows of the result it lands on (`_add_rows`). The weight
    gradient, whose reduction over T fixes its bits, reads the input shifted
    with zeros past the ends: the backward copies one video at a time into a
    buffer padded by the largest reaching offset (at most T-1 rows) on each
    side and takes each tap's T rows as a slice of it. Neither the forward
    nor the tape holds a shifted or padded copy."""
    _require_seq(x, name)
    w = k.weights.data
    if x.data.shape[-1] != w.shape[-2]:
        raise ValueError(f"{name}: input has {x.data.shape[-1]} channels, kernel expects {w.shape[-2]}")
    m = w.shape[-1] // 2
    t = x.data.shape[-2]
    reaching = [(tap, off) for tap in range(w.shape[-1]) if abs(off := k.dilation * (tap - m)) < t]
    out = np.tile(k.bias.data, x.data.shape[:-1] + (1,))
    for tap, off in reaching:
        _add_rows(out, forward(x.data, w[..., tap]), off)

    def backward(g):
        if k.weights.requires_grad:
            pad = max(abs(off) for _, off in reaching)
            xp = np.zeros((t + 2 * pad, x.data.shape[-1]), dtype=x.data.dtype)
            for gv, xv in zip(_videos(g), _videos(x.data)):
                xp[pad:pad + t] = xv  # the zero rows past both ends stay zero
                dw = np.zeros_like(w)
                for tap, off in reaching:
                    dw[..., tap] = weight_grad(gv, xp[pad + off:pad + off + t])
                _accumulate(k.weights, dw)  # per video, in batch order
                del dw  # free it before the next video's: one weight-sized array at a time
        _accumulate_videos(k.bias, _videos(g).sum(axis=1))
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            for tap, off in reaching:
                _add_rows(dx, input_grad(g, w[..., tap]), -off)
            _accumulate(x, dx)

    return Tensor(out, parents=(x, k.weights, k.bias), backward=backward, validate=False)


def conv1d(x: Tensor, k: Conv1dKernel) -> Tensor:
    """Dilated 1D convolution with zero padding, output (..., T, out_channels)."""
    return _tap_loop(
        "conv1d", x, k,
        forward=lambda v, w: v @ w.T,
        weight_grad=lambda g, sx: g.T @ sx,
        input_grad=lambda g, w: g @ w,
    )


def depthwise_conv1d(x: Tensor, k: DepthwiseKernel) -> Tensor:
    """Per-channel dilated 1D convolution; channel c depends only on channel c."""
    return _tap_loop(
        "depthwise_conv1d", x, k,
        forward=lambda v, w: v * w,
        weight_grad=lambda g, sx: (g * sx).sum(axis=0),
        input_grad=lambda g, w: g * w,
    )


def layer_norm(x: Tensor, a: LayerNormAffine) -> Tensor:
    """Normalize each frame to zero mean / unit variance, then apply gamma/beta.

    The tape keeps only each frame's mean and inverse deviation, (..., T, 1);
    the backward recomputes the normalized input from them with the
    forward's own ops, so it gets the forward's bits without holding a
    (..., T, d) copy.
    """
    _require_seq(x, "layer_norm")
    d = x.data.shape[-1]
    if a.gamma.data.shape[0] != d:
        raise ValueError(f"layer_norm: affine sized {a.gamma.data.shape[0]}, input has {d} channels")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.eps)
    out = centered * inv * a.gamma.data + a.beta.data

    def backward(g):
        xhat = (x.data - mu) * inv
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

    return Tensor(out, parents=(x, a.gamma, a.beta), backward=backward, validate=False)


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
    with _ERF_LOCK:  # threads that make the first GELU call together share one load
        erf = _scipy_erf()
    phi_cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x.data ** 2) * _INV_SQRT_2PI
        _accumulate(x, g * (phi_cdf + x.data * pdf))

    return Tensor(x.data * phi_cdf, parents=(x,), backward=backward, validate=False)


def conv_block(x: Tensor, block: ConvBlock) -> Tensor:
    """gelu(layer_norm(conv1d([depthwise_conv1d](x))))."""
    if block.depthwise is not None:
        x = depthwise_conv1d(x, block.depthwise)  # rebound, so the `del` below frees it after the conv
    y = conv1d(x, block.conv)
    del x  # an input no tape or caller holds is freed before the norm and GELU run
    return gelu(layer_norm(y, block.norm))


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


def init_depthwise(new: ParamSource, channels: int, width: int,
                   dilation: int = 1) -> DepthwiseKernel:
    return DepthwiseKernel(
        _param(new, (channels, width), "weights"),
        _param(new, (channels,), "bias"),
        dilation,
    )


def init_layer_norm(new: ParamSource, channels: int, eps: float = 1e-5) -> LayerNormAffine:
    return LayerNormAffine(
        _param(new, (channels,), "gamma"),
        _param(new, (channels,), "beta"),
        eps,
    )


def init_conv_block(new: ParamSource, in_channels: int, out_channels: int,
                    width: int, dilation: int = 1) -> ConvBlock:
    """A block without a depthwise front (`tps.init_branch` builds the one with it)."""
    return ConvBlock(None, init_conv1d(new, in_channels, out_channels, width, dilation),
                     init_layer_norm(new, out_channels))
