"""Temporal pyramid similarity: multi-dilation branches over each feature stage,
residual-normalized representations, the similarity vector of each stage (the
neighbor squared distances of all its views), and the projections that fuse
them into one T x d_out sequence per stage and overall.

Every constructor and forward reads the structure (sizes, neighbor radius
and switches) from the `ModelConfig` it takes; none restates any of it.

Every function takes a (T, d) video or a (B, T, d) batch of equal-length
videos (frames on axis -2, channels on axis -1) and returns the same
layout; each video of a batch gets the bits it would get alone. A batch
takes one call of each op per stage, `similarity_vector` included: no op
splits it into videos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate,
    _require_seq,
    add,
    concat_channels,
    l2_normalize_rows,
)
from .nn import (
    Conv1dKernel,
    ConvBlock,
    DepthwiseKernel,
    LayerNormAffine,
    ParamSource,
    conv1d,
    conv_block,
    depthwise_conv1d,
    init_conv1d,
    init_conv_block,
    init_depthwise,
)

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig

NORMALIZE_EPS = 1e-12


@dataclass
class TpsBranchParams:
    """One dilation-rate view: optional width-3 depthwise front, then a width-3
    dilated conv block (`conv_block` runs its conv and norm). Depthwise is
    present only for dilation > 1."""

    depthwise: DepthwiseKernel | None
    conv: Conv1dKernel
    norm: LayerNormAffine

    @property
    def dilation(self) -> int:
        return self.conv.dilation


@dataclass
class TpsStageParams:
    """Branches plus the two width-1 projections of one feature stage:
    `compress` maps concatenated branch outputs back to the stage width
    (the comprehensive view), `fuse` maps the concatenated per-view
    features to d_out."""

    branches: list[TpsBranchParams]
    compress: Conv1dKernel
    fuse: Conv1dKernel


@dataclass
class TpsParams:
    """All stages plus the width-3 merge block applied to their concatenation."""

    stages: list[TpsStageParams]
    merge: ConvBlock


def branch_forward(x: Tensor, branch: TpsBranchParams) -> Tensor:
    """[depthwise if dilated] -> conv -> layer norm -> gelu; shape preserved."""
    # the depthwise output is passed unnamed, so `conv_block` can free it after the conv
    return conv_block(x if branch.depthwise is None else depthwise_conv1d(x, branch.depthwise), branch)


def residual_normalize(f: Tensor, x: Tensor) -> Tensor:
    """Row-normalized residual sum: (f + x) / |f + x|."""
    return l2_normalize_rows(add(f, x), NORMALIZE_EPS)


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
    out = np.empty((*batch, t, len(views) * 2 * radius), dtype=np.result_type(*(v.data for v in views)))
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
    """Width-1 projection of all branch outputs back to the stage width, row-normalized."""
    return l2_normalize_rows(conv1d(concat_channels(branch_outputs), compress), NORMALIZE_EPS)


def stage_forward(x: Tensor, stage: TpsStageParams, config: ModelConfig) -> Tensor:
    """One feature stage to its T x d_out similarity features, as `config` says.

    Branch outputs become n+1 row-normalized views (n residual views plus
    the comprehensive one; with `use_residual` off the branch outputs are
    normalized alone). With `fuse_distances` on, `fuse` projects their
    similarity vector (`similarity_vector`: every view's neighbor distances
    at `neighbor_radius`, built by one op for the whole batch); with it off
    the views themselves are concatenated instead (the alternative reading
    of the fusion input).
    """
    branch_outputs = [branch_forward(x, b) for b in stage.branches]
    if config.use_residual:
        views = [residual_normalize(f, x) for f in branch_outputs]
    else:
        views = [l2_normalize_rows(f, NORMALIZE_EPS) for f in branch_outputs]
    views.append(comprehensive_rep(branch_outputs, stage.compress))
    feats = similarity_vector(views, config.neighbor_radius) if config.fuse_distances else concat_channels(views)
    return conv1d(feats, stage.fuse)


def tps_forward(stage_inputs: list[Tensor], params: TpsParams, config: ModelConfig) -> Tensor:
    """All stages, concatenated and merged by the width-3 block, to T x d_out."""
    if len(stage_inputs) != len(params.stages):
        raise ValueError(f"expected {len(params.stages)} stage inputs, got {len(stage_inputs)}")
    per_stage = [stage_forward(x, p, config) for x, p in zip(stage_inputs, params.stages)]
    return conv_block(concat_channels(per_stage), params.merge)


def init_branch(new: ParamSource, channels: int, dilation: int, use_depthwise: bool) -> TpsBranchParams:
    depthwise = init_depthwise(new, channels, width=3) if dilation > 1 and use_depthwise else None
    block = init_conv_block(new, channels, channels, width=3, dilation=dilation)
    return TpsBranchParams(depthwise, block.conv, block.norm)


def init_stage(new: ParamSource, channels: int, config: ModelConfig) -> TpsStageParams:
    n = config.branch_count
    fuse_in = (n + 1) * (2 * config.neighbor_radius if config.fuse_distances else channels)
    return TpsStageParams(
        branches=[init_branch(new, channels, 2 ** i, config.use_depthwise) for i in range(n)],
        compress=init_conv1d(new, n * channels, channels, width=1),
        fuse=init_conv1d(new, fuse_in, config.d_out, width=1),
    )


def init_tps(new: ParamSource, config: ModelConfig) -> TpsParams:
    return TpsParams(
        stages=[init_stage(new, d, config) for d in config.stage_dims],
        merge=init_conv_block(new, len(config.stage_dims) * config.d_out, config.d_out, width=3),
    )
