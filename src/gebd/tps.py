"""Temporal pyramid similarity: multi-dilation branches over each feature stage,
residual-normalized representations, the similarity vector of each stage (the
neighbor squared distances of all its views), and the projections that fuse
them into one T x d_out sequence per stage and overall.

Every constructor and forward reads the structure (sizes, neighbor radius
and the residual switch) from the `ModelConfig` it takes; none restates any
of it. A branch is an `nn.ConvBlock`, built by `nn.init_conv_block` and run
by `nn.conv_block` like the merge and the decoder; every dilated branch (all
but the first) has a depthwise front. A branch dilated past a video's length
keeps only its center tap there, in the forward and in both gradients
(`nn._tap_loop`).

No sum or concatenation stays on the training tape: a residual view is one
node that keeps the branch output and the stage input and rebuilds their
sum in its backward, and the convs that read several tensors side by side
(`compress` and `merge`) keep those tensors, not their concatenation
(`nn._conv1d_parts`).

Every function takes a (T, d) video or a (B, T, d) batch of equal-length
videos (frames on axis -2, channels on axis -1) and returns the same
layout; each video of a batch gets the bits it would get alone. A batch
takes one call of each op per stage, `similarity_vector` included: no op
splits it into videos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _accumulate, _normalized_sum, _require_seq, l2_normalize_rows
from .config import ModelConfig
from .nn import (
    Conv1dKernel,
    ConvBlock,
    ParamSource,
    _conv1d_parts,
    _conv_block,
    conv1d,
    conv_block,
    doubling_dilation,
    init_conv1d,
    init_conv_block,
)
from .util import check_fits_in_memory


@dataclass
class TpsStageParams:
    """Branches plus the two width-1 projections of one feature stage:
    `compress` maps concatenated branch outputs back to the stage width
    (the comprehensive view), `fuse` maps the similarity vector of the
    views to d_out."""

    branches: list[ConvBlock]
    compress: Conv1dKernel
    fuse: Conv1dKernel


@dataclass
class TpsParams:
    """All stages plus the width-3 merge block applied to their concatenation."""

    stages: list[TpsStageParams]
    merge: ConvBlock


def residual_normalize(f: Tensor, x: Tensor) -> Tensor:
    """Row-normalized residual sum: (f + x) / |f + x|, as one node that
    keeps f and x, not their sum: its backward rebuilds the sum."""
    return _normalized_sum([f, x], "residual_normalize")


def similarity_vector(views: Sequence[Tensor], radius: int) -> Tensor:
    """The fuse input of one stage: its views' neighbor distances side by side.

    The views are (T, d) or (B, T, d), all of one shape. View i fills
    columns i*2r .. (i+1)*2r - 1 of the (..., T, len(views)*2r) output with
    the squared distances between each frame and its neighbors at offsets
    [-radius .. -1, 1 .. radius]; out-of-range neighbors are clamped to the
    edge frame (of each video of a batch), so corner slots compare a frame
    with itself. Time and memory are linear in T: on a view padded with
    `radius` copies of each edge row, the pairs q frames apart are two
    contiguous slices, and one distance vector per q fills both the -q and
    the +q column. No T x 2r x d difference tensor is built, one view's
    padded copy is alive at a time, and the backward recomputes each
    difference instead of keeping it.
    """
    views = list(views)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not views or any(v.data.shape != views[0].data.shape for v in views):
        raise ValueError("similarity_vector: expected one or more views of one shape")
    _require_seq(views[0], "similarity_vector")
    *batch, t, d = views[0].data.shape
    clamped = np.clip(np.arange(-radius, t + radius), 0, t - 1)
    shape, dtype = (*batch, t, len(views) * 2 * radius), np.result_type(*(v.data for v in views))
    check_fits_in_memory(math.prod(shape) * dtype.itemsize, f"a similarity vector of shape {shape}")
    out = np.empty(shape, dtype=dtype)
    for i, v in enumerate(views):
        mid = (2 * i + 1) * radius  # view i fills columns mid - radius .. mid + radius - 1
        padded = v.data[..., clamped, :]
        for q in range(1, radius + 1):
            diff = padded[..., :-q, :] - padded[..., q:, :]  # row j pairs padded rows j and j + q
            dist = np.einsum("...td,...td->...t", diff, diff)
            out[..., mid - q] = dist[..., radius - q:radius - q + t]
            out[..., mid + q - 1] = dist[..., radius:radius + t]
        del padded, diff

    def backward(g):
        for i, v in enumerate(views):
            if not v.requires_grad:
                continue
            mid = (2 * i + 1) * radius
            padded = v.data[..., clamped, :]
            dpad = np.zeros((*batch, t + 2 * radius, d))
            for q in range(1, radius + 1):
                gq = np.zeros((*batch, t + 2 * radius - q))
                gq[..., radius - q:radius - q + t] += g[..., mid - q]
                gq[..., radius:radius + t] += g[..., mid + q - 1]
                w = (padded[..., :-q, :] - padded[..., q:, :]) * (2.0 * gq)[..., None]
                dpad[..., :-q, :] += w
                dpad[..., q:, :] -= w
            del padded, w
            # pad rows are copies of the edge rows: fold their adjoints back
            dr = dpad[..., radius:radius + t, :]
            dr[..., 0, :] += dpad[..., :radius, :].sum(axis=-2)
            dr[..., -1, :] += dpad[..., radius + t:, :].sum(axis=-2)
            _accumulate(v, dr)

    return Tensor(out, parents=tuple(views), backward=backward, validate=False)


def comprehensive_rep(branch_outputs: list[Tensor], compress: Conv1dKernel) -> Tensor:
    """Width-1 projection of all branch outputs back to the stage width,
    row-normalized. The projection reads the branch outputs side by side and
    keeps them, not their concatenation (`nn._conv1d_parts`)."""
    return l2_normalize_rows(_conv1d_parts(branch_outputs, compress))


def stage_forward(x: Tensor, stage: TpsStageParams, config: ModelConfig) -> Tensor:
    """One feature stage to its T x d_out similarity features, as `config` says.

    Branch outputs become n+1 row-normalized views (n residual views plus
    the comprehensive one; with `use_residual` off the branch outputs are
    normalized alone). `fuse` projects their similarity vector
    (`similarity_vector`: every view's neighbor distances at
    `neighbor_radius`, built by one op for the whole batch).

    The comprehensive view is made first; then each branch output is let go
    as its own view is made, so an inference forward (no tape) holds one
    branch output fewer with each view instead of all of them to the end.
    """
    branch_outputs = [conv_block(x, b) for b in stage.branches]
    comprehensive = comprehensive_rep(branch_outputs, stage.compress)
    views = []
    while branch_outputs:
        f = branch_outputs.pop(0)
        views.append(residual_normalize(f, x) if config.use_residual else l2_normalize_rows(f))
        del f
    views.append(comprehensive)
    return conv1d(similarity_vector(views, config.neighbor_radius), stage.fuse)


def tps_forward(stage_inputs: list[Tensor], params: TpsParams, config: ModelConfig) -> Tensor:
    """All stages, merged side by side by the width-3 block, to T x d_out."""
    if len(stage_inputs) != len(params.stages):
        raise ValueError(f"expected {len(params.stages)} stage inputs, got {len(stage_inputs)}")
    return _conv_block([stage_forward(x, p, config) for x, p in zip(stage_inputs, params.stages)], params.merge)


def init_stage(new: ParamSource, channels: int, config: ModelConfig) -> TpsStageParams:
    n = config.branch_count
    return TpsStageParams(
        branches=[init_conv_block(new, channels, channels, dilation=doubling_dilation(i),
                                  depthwise=i > 0) for i in range(n)],
        compress=init_conv1d(new, n * channels, channels, width=1),
        fuse=init_conv1d(new, (n + 1) * 2 * config.neighbor_radius, config.d_out, width=1),
    )


def init_tps(new: ParamSource, config: ModelConfig) -> TpsParams:
    return TpsParams(
        stages=[init_stage(new, d, config) for d in config.stage_dims],
        merge=init_conv_block(new, len(config.stage_dims) * config.d_out, config.d_out),
    )
