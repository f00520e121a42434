"""Neural building blocks: dilated 1D convolutions, layer norm, GELU, sigmoid,
and the conv -> layer norm -> GELU block built from them.

All operate on T x d sequence tensors or B x T x d batches of equal-length
videos (frames on axis -2, channels on axis -1, one code path for both),
preserve the frame count ("same" length, zero padding outside each video),
and are differentiable through the autodiff graph. Each parameter adjoint
is computed per video and folded onto `grad` in batch order. Convolution
tap j of a width 2m+1 kernel multiplies frame t + dilation*j;
`weights[..., j + m]` holds that tap.

The `init_*` constructors take a `ParamSource`, `new(shape, kind) -> array`,
called once per parameter in field order with kind the field name
("weights", "bias", "gamma", "beta"): `random_params` draws a fresh model,
a checkpoint reader returns the stored blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Tensor, _accumulate, _accumulate_videos, _require_seq, _videos

ParamSource = Callable[[tuple[int, ...], str], np.ndarray]

# Python floats, not NumPy float64 scalars, so float32 inputs stay float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass
class Conv1dKernel:
    """Dense 1D convolution: weights (out_channels, in_channels, width), odd width."""

    weights: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        if self.weights.data.ndim != 3:
            raise ValueError(f"conv weights must be 3-D, got shape {self.weights.data.shape}")
        out_ch, _, width = self.weights.data.shape
        if width % 2 != 1:
            raise ValueError(f"conv width must be odd, got {width}")
        if self.bias.data.shape != (out_ch,):
            raise ValueError(f"conv bias shape {self.bias.data.shape} does not match {out_ch} outputs")
        if int(self.dilation) < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        self.dilation = int(self.dilation)

    @property
    def out_channels(self) -> int:
        return self.weights.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.data.shape[1]

    @property
    def width(self) -> int:
        return self.weights.data.shape[2]


@dataclass
class DepthwiseKernel:
    """Per-channel 1D convolution: weights (channels, width), odd width."""

    weights: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        if self.weights.data.ndim != 2:
            raise ValueError(f"depthwise weights must be 2-D, got shape {self.weights.data.shape}")
        ch, width = self.weights.data.shape
        if width % 2 != 1:
            raise ValueError(f"depthwise width must be odd, got {width}")
        if self.bias.data.shape != (ch,):
            raise ValueError(f"depthwise bias shape {self.bias.data.shape} does not match {ch} channels")
        if int(self.dilation) < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        self.dilation = int(self.dilation)

    @property
    def channels(self) -> int:
        return self.weights.data.shape[0]

    @property
    def width(self) -> int:
        return self.weights.data.shape[1]


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
    """Conv -> layer norm -> GELU: the TPS branches, the merge and the decoder."""

    conv: Conv1dKernel
    norm: LayerNormAffine


def _add_rows(out: np.ndarray, y: np.ndarray, offset: int) -> None:
    """out[..., t, :] += y[..., t + offset, :] for every t with t + offset in
    [0, T); needs |offset| < T."""
    t = out.shape[-2]
    lo, hi = max(0, -offset), min(t, t - offset)
    out[..., lo:hi, :] += y[..., lo + offset:hi + offset, :]


def _tap_loop(x: Tensor, weights: Tensor, bias: Tensor, dilation: int,
              forward, weight_grad, input_grad) -> Tensor:
    """Tap loop of both convolutions: tap `tap` reads frame t + dilation*(tap - m)
    with weights `weights[..., tap]`. The kernel supplies the per-tap products:
    forward(v, w_tap) and input_grad(g, w_tap) on the whole (batched) value,
    weight_grad(g, sx) on one video's (T, channels) slices.

    The forward and the input gradient read their input in place: each tap's
    product is taken on the unshifted value and added into the rows of the
    result it lands on (`_add_rows`), and a tap that reaches past both ends
    of the video adds nothing. Only the weight gradient, whose reduction
    over T fixes its bits, reads the input shifted with zeros past the ends:
    the backward copies one video at a time into a buffer with dilation*m
    zero rows on each side and takes each tap's T rows as a slice of it.
    Neither the forward nor the tape holds a shifted or padded copy."""
    w = weights.data
    width = w.shape[-1]
    m = width // 2
    t = x.data.shape[-2]
    offsets = [dilation * (tap - m) for tap in range(width)]
    reaching = [(tap, off) for tap, off in enumerate(offsets) if abs(off) < t]
    out = np.tile(bias.data, x.data.shape[:-1] + (1,))
    for tap, off in reaching:
        _add_rows(out, forward(x.data, w[..., tap]), off)

    def backward(g):
        if weights.requires_grad:
            pad = dilation * m
            xp = np.zeros((t + 2 * pad, x.data.shape[-1]), dtype=x.data.dtype)
            for gv, xv in zip(_videos(g), _videos(x.data)):
                xp[pad:pad + t] = xv  # the zero rows past both ends stay zero
                dw = np.empty_like(w)
                for tap, off in enumerate(offsets):
                    dw[..., tap] = weight_grad(gv, xp[pad + off:pad + off + t])
                _accumulate(weights, dw)  # per video, in batch order
                del dw  # free it before the next video's: one weight-sized array at a time
        _accumulate_videos(bias, _videos(g).sum(axis=1))
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            for tap, off in reaching:
                _add_rows(dx, input_grad(g, w[..., tap]), -off)
            _accumulate(x, dx)

    return Tensor(out, parents=(x, weights, bias), backward=backward, validate=False)


def conv1d(x: Tensor, k: Conv1dKernel) -> Tensor:
    """Dilated 1D convolution with zero padding, output (..., T, out_channels)."""
    _require_seq(x, "conv1d")
    if x.data.shape[-1] != k.in_channels:
        raise ValueError(f"conv1d: input has {x.data.shape[-1]} channels, kernel expects {k.in_channels}")
    return _tap_loop(
        x, k.weights, k.bias, k.dilation,
        forward=lambda v, w: v @ w.T,
        weight_grad=lambda g, sx: g.T @ sx,
        input_grad=lambda g, w: g @ w,
    )


def depthwise_conv1d(x: Tensor, k: DepthwiseKernel) -> Tensor:
    """Per-channel dilated 1D convolution; channel c depends only on channel c."""
    _require_seq(x, "depthwise_conv1d")
    if x.data.shape[-1] != k.channels:
        raise ValueError(f"depthwise_conv1d: input has {x.data.shape[-1]} channels, kernel expects {k.channels}")
    return _tap_loop(
        x, k.weights, k.bias, k.dilation,
        forward=lambda v, w: v * w,
        weight_grad=lambda g, sx: (g * sx).sum(axis=0),
        input_grad=lambda g, w: g * w,
    )


def layer_norm(x: Tensor, a: LayerNormAffine) -> Tensor:
    """Normalize each frame to zero mean / unit variance, then apply gamma/beta."""
    _require_seq(x, "layer_norm")
    d = x.data.shape[-1]
    if a.gamma.data.shape[0] != d:
        raise ValueError(f"layer_norm: affine sized {a.gamma.data.shape[0]}, input has {d} channels")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.eps)
    xhat = centered * inv
    out = xhat * a.gamma.data + a.beta.data

    def backward(g):
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


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    from scipy.special import erf  # here, so that importing gebd does not load scipy

    phi_cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x.data ** 2) * _INV_SQRT_2PI
        _accumulate(x, g * (phi_cdf + x.data * pdf))

    return Tensor(x.data * phi_cdf, parents=(x,), backward=backward, validate=False)


def conv_block(x: Tensor, block: ConvBlock) -> Tensor:
    """gelu(layer_norm(conv1d(x))). Any block with `conv` and `norm` fields
    runs here, a TPS branch after its depthwise front included."""
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
    biases and betas. Only weights draw from rng, in request order."""

    def new(shape: tuple[int, ...], kind: str) -> np.ndarray:
        if kind == "weights":
            bound = (1.0 / math.prod(shape[1:])) ** 0.5
            return rng.uniform(-bound, bound, size=shape)
        return np.ones(shape) if kind == "gamma" else np.zeros(shape)

    return new


def init_conv1d(new: ParamSource, in_channels: int, out_channels: int,
                width: int, dilation: int = 1) -> Conv1dKernel:
    return Conv1dKernel(
        Tensor(new((out_channels, in_channels, width), "weights"), requires_grad=True),
        Tensor(new((out_channels,), "bias"), requires_grad=True),
        dilation,
    )


def init_depthwise(new: ParamSource, channels: int, width: int,
                   dilation: int = 1) -> DepthwiseKernel:
    return DepthwiseKernel(
        Tensor(new((channels, width), "weights"), requires_grad=True),
        Tensor(new((channels,), "bias"), requires_grad=True),
        dilation,
    )


def init_layer_norm(new: ParamSource, channels: int, eps: float = 1e-5) -> LayerNormAffine:
    return LayerNormAffine(
        Tensor(new((channels,), "gamma"), requires_grad=True),
        Tensor(new((channels,), "beta"), requires_grad=True),
        eps,
    )


def init_conv_block(new: ParamSource, in_channels: int, out_channels: int,
                    width: int, dilation: int = 1) -> ConvBlock:
    return ConvBlock(init_conv1d(new, in_channels, out_channels, width, dilation),
                     init_layer_norm(new, out_channels))
