"""Temporal pyramid similarity: multi-dilation branches over each feature stage,
residual-normalized representations, neighbor squared-distance vectors, and the
projections that fuse them into one T x d_out sequence per stage and overall.

Every function takes a (T, d) video or a (B, T, d) batch of equal-length
videos (frames on axis -2, channels on axis -1) and returns the same
layout; each video of a batch gets the bits it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate,
    _require_seq,
    add,
    concat_channels,
    l2_normalize_rows,
    stack,
    unstack,
)
from .nn import (
    Conv1dKernel,
    DepthwiseKernel,
    LayerNormAffine,
    ParamSource,
    conv1d,
    depthwise_conv1d,
    gelu,
    init_conv1d,
    init_depthwise,
    init_layer_norm,
    layer_norm,
)

NORMALIZE_EPS = 1e-12


@dataclass
class TpsBranchParams:
    """One dilation-rate view: optional width-3 depthwise front, then a width-3
    dilated conv block (conv -> layer norm -> gelu). Depthwise is present only
    for dilation > 1."""

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
    merge_conv: Conv1dKernel
    merge_norm: LayerNormAffine
    neighbor_radius: int

    def __post_init__(self):
        if self.neighbor_radius < 1:
            raise ValueError("neighbor_radius must be >= 1")


def branch_forward(x: Tensor, branch: TpsBranchParams) -> Tensor:
    """[depthwise if dilated] -> conv -> layer norm -> gelu; shape preserved."""
    if branch.depthwise is not None:
        x = depthwise_conv1d(x, branch.depthwise)
    x = conv1d(x, branch.conv)
    x = layer_norm(x, branch.norm)
    return gelu(x)


def residual_normalize(f: Tensor, x: Tensor, eps: float = NORMALIZE_EPS) -> Tensor:
    """Row-normalized residual sum: (f + x) / |f + x|."""
    return l2_normalize_rows(add(f, x), eps)


def neighbor_distances(r: Tensor, radius: int) -> Tensor:
    """Squared distances between each frame and its +-radius neighbors.

    Column order is [-radius .. -1, 1 .. radius]; out-of-range neighbors are
    clamped to the edge frame, so corner slots compare a frame with itself.
    These are the 2*radius diagonal bands of the frame self-distance matrix,
    computed in time and memory linear in T: on r padded with `radius`
    copies of each edge row, the pairs q frames apart are two contiguous
    slices, and one distance vector per q fills both the -q and the +q
    column. No T x 2radius x d difference tensor is built, and the backward
    recomputes each difference from r instead of keeping it. A (B, T, d)
    batch gives (B, T, 2*radius), each video padded at its own edges.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    _require_seq(r, "neighbor_distances")
    *batch, t, d = r.data.shape
    clamped = np.clip(np.arange(-radius, t + radius), 0, t - 1)
    padded = r.data[..., clamped, :]
    out = np.empty((*batch, t, 2 * radius), dtype=r.data.dtype)
    for q in range(1, radius + 1):
        diff = padded[..., :-q, :] - padded[..., q:, :]  # row i pairs padded rows i and i + q
        dist = np.einsum("...td,...td->...t", diff, diff)
        out[..., radius - q] = dist[..., radius - q:radius - q + t]
        out[..., radius + q - 1] = dist[..., radius:radius + t]

    def backward(g):
        if not r.requires_grad:
            return
        padded = r.data[..., clamped, :]
        dpad = np.zeros((*batch, t + 2 * radius, d))
        for q in range(1, radius + 1):
            gq = np.zeros((*batch, t + 2 * radius - q))
            gq[..., radius - q:radius - q + t] += g[..., radius - q]
            gq[..., radius:radius + t] += g[..., radius + q - 1]
            w = (padded[..., :-q, :] - padded[..., q:, :]) * (2.0 * gq)[..., None]
            dpad[..., :-q, :] += w
            dpad[..., q:, :] -= w
        # pad rows are copies of the edge rows: fold their adjoints back
        dr = dpad[..., radius:radius + t, :]
        dr[..., 0, :] += dpad[..., :radius, :].sum(axis=-2)
        dr[..., -1, :] += dpad[..., radius + t:, :].sum(axis=-2)
        _accumulate(r, dr)

    return Tensor(out, parents=(r,), backward=backward, validate=False)


def comprehensive_rep(branch_outputs: list[Tensor], compress: Conv1dKernel,
                      eps: float = NORMALIZE_EPS) -> Tensor:
    """Width-1 projection of all branch outputs back to the stage width, row-normalized."""
    return l2_normalize_rows(conv1d(concat_channels(branch_outputs), compress), eps)


def stage_forward(
    x: Tensor,
    stage: TpsStageParams,
    radius: int,
    fuse_distances: bool = True,
    use_residual: bool = True,
) -> Tensor:
    """One feature stage to its T x d_out similarity features.

    Branch outputs become n+1 row-normalized views (n residual views plus
    the comprehensive one). By default each view is turned into a neighbor
    distance vector and the concatenation is projected by `fuse`; with
    fuse_distances=False the views themselves are concatenated instead
    (the alternative reading of the fusion input).
    """
    branch_outputs = [branch_forward(x, b) for b in stage.branches]
    if use_residual:
        views = [residual_normalize(f, x) for f in branch_outputs]
    else:
        views = [l2_normalize_rows(f, NORMALIZE_EPS) for f in branch_outputs]
    views.append(comprehensive_rep(branch_outputs, stage.compress))
    if not fuse_distances:
        return conv1d(concat_channels(views), stage.fuse)
    if x.data.ndim == 2:
        return conv1d(concat_channels([neighbor_distances(v, radius) for v in views]), stage.fuse)
    # neighbor_distances takes a batch as well, but the per-layer trace of
    # perfbench/layertrace.py sizes each call from a (T, d) shape, so a
    # batch is measured one video at a time
    per_video = zip(*(unstack(v) for v in views))
    feats = stack([concat_channels([neighbor_distances(v, radius) for v in vs]) for vs in per_video])
    return conv1d(feats, stage.fuse)


def tps_forward(
    stage_inputs: list[Tensor],
    params: TpsParams,
    fuse_distances: bool = True,
    use_residual: bool = True,
) -> Tensor:
    """All stages, concatenated and merged by the width-3 block, to T x d_out."""
    if len(stage_inputs) != len(params.stages):
        raise ValueError(f"expected {len(params.stages)} stage inputs, got {len(stage_inputs)}")
    per_stage = [
        stage_forward(x, p, params.neighbor_radius, fuse_distances, use_residual)
        for x, p in zip(stage_inputs, params.stages)
    ]
    y = conv1d(concat_channels(per_stage), params.merge_conv)
    y = layer_norm(y, params.merge_norm)
    return gelu(y)


def init_branch(new: ParamSource, channels: int, dilation: int,
                use_depthwise: bool = True) -> TpsBranchParams:
    return TpsBranchParams(
        depthwise=init_depthwise(new, channels, width=3) if dilation > 1 and use_depthwise else None,
        conv=init_conv1d(new, channels, channels, width=3, dilation=dilation),
        norm=init_layer_norm(new, channels),
    )


def init_stage(
    new: ParamSource,
    channels: int,
    branch_count: int,
    d_out: int,
    radius: int,
    fuse_distances: bool = True,
    use_depthwise: bool = True,
) -> TpsStageParams:
    fuse_in = (branch_count + 1) * (2 * radius if fuse_distances else channels)
    return TpsStageParams(
        branches=[init_branch(new, channels, 2 ** i, use_depthwise) for i in range(branch_count)],
        compress=init_conv1d(new, branch_count * channels, channels, width=1),
        fuse=init_conv1d(new, fuse_in, d_out, width=1),
    )


def init_tps(
    new: ParamSource,
    stage_dims: tuple[int, ...],
    branch_count: int,
    d_out: int,
    radius: int,
    fuse_distances: bool = True,
    use_depthwise: bool = True,
) -> TpsParams:
    return TpsParams(
        stages=[
            init_stage(new, d, branch_count, d_out, radius, fuse_distances, use_depthwise)
            for d in stage_dims
        ],
        merge_conv=init_conv1d(new, len(stage_dims) * d_out, d_out, width=3),
        merge_norm=init_layer_norm(new, d_out),
        neighbor_radius=radius,
    )
