"""Full scoring model: similarity features, dilated decoder, per-frame head.

`ModelConfig` is the one statement of the model's structure: every
constructor and forward, those of `tps` included, reads it from the config.

The parameter tree is written once, in the `init_*` constructors: each
takes a parameter source (`nn.ParamSource`) and requests every parameter
in the field order of its dataclass. `GebdModel.build` passes a seeded
random source; `load_checkpoint` passes a reader over the payload, so a
loaded model is never randomly initialized first. `GebdModel.parameters()`
walks the dataclass fields in declaration order, which is the same order.

Checkpoint layout (little endian):
    magic "GEBW" | u32 version=1 | u32 num_stages | num_stages x u32 stage dims |
    one u32 per `_SIZE_FIELDS` entry (branch_count, decoder_blocks, d_out,
    d_head, neighbor_radius) | u32 flags (bit i is `_FLAG_FIELDS[i]`:
    fuse_distances, use_residual, use_depthwise; any other bit is rejected) |
    flat f32 blocks for every parameter in `GebdModel.parameters()` order
    (shapes follow from the config).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, seq_tensor
from .data import VideoFeatures
from .nn import (
    Conv1dKernel,
    ConvBlock,
    ParamSource,
    conv1d,
    conv_block,
    gelu,
    init_conv1d,
    init_conv_block,
    random_params,
    sigmoid,
)
from .postprocess import BoundaryScores
from .tps import TpsParams, init_tps, tps_forward
from .util import BlockReader, write_blocks

CHECKPOINT_MAGIC = b"GEBW"
CHECKPOINT_VERSION = 1
# `ModelConfig` fields in header order after the stage dims; bit i of the
# flags word that follows them is `_FLAG_FIELDS[i]`
_SIZE_FIELDS = ("branch_count", "decoder_blocks", "d_out", "d_head", "neighbor_radius")
_FLAG_FIELDS = ("fuse_distances", "use_residual", "use_depthwise")


@dataclass
class ModelConfig:
    """Structural hyperparameters; neighbor_radius is `neighbor_radius_for(fps)`
    of the data the model is built for (one second of neighbors per side)."""

    stage_dims: tuple[int, ...] = (256, 512, 1024, 2048)
    branch_count: int = 4
    decoder_blocks: int = 3
    d_out: int = 256
    d_head: int = 128
    neighbor_radius: int = 5
    fuse_distances: bool = True
    use_residual: bool = True
    use_depthwise: bool = True

    def __post_init__(self):
        self.stage_dims = tuple(int(d) for d in self.stage_dims)
        if not self.stage_dims or any(d < 1 for d in self.stage_dims):
            raise ValueError(f"stage_dims must be positive, got {self.stage_dims}")
        for name in ("branch_count", "d_out", "d_head", "neighbor_radius"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.decoder_blocks < 0:
            raise ValueError("decoder_blocks must be >= 0")


@dataclass
class SdParams:
    """Stacked width-3 conv blocks with dilations 2, 4, ... applied in order."""

    blocks: list[ConvBlock] = field(default_factory=list)


@dataclass
class HeadParams:
    """Two-conv scoring head: width-3 to d_head with gelu, width-1 to one channel."""

    conv1: Conv1dKernel
    conv2: Conv1dKernel


def sd_forward(x: Tensor, params: SdParams) -> Tensor:
    """Sequential conv -> layer norm -> gelu blocks; empty stack is identity."""
    for block in params.blocks:
        x = conv_block(x, block)
    return x


def head_forward(x: Tensor, params: HeadParams) -> Tensor:
    """Per-frame boundary scores, strictly inside (0, 1); shape T x 1."""
    return sigmoid(conv1d(gelu(conv1d(x, params.conv1)), params.conv2))


def init_decoder(new: ParamSource, config: ModelConfig) -> SdParams:
    return SdParams([
        init_conv_block(new, config.d_out, config.d_out, width=3, dilation=2 ** (i + 1))
        for i in range(config.decoder_blocks)
    ])


def init_head(new: ParamSource, config: ModelConfig) -> HeadParams:
    return HeadParams(
        conv1=init_conv1d(new, config.d_out, config.d_head, width=3),
        conv2=init_conv1d(new, config.d_head, 1, width=1),
    )


def init_model(new: ParamSource, config: ModelConfig) -> "GebdModel":
    return GebdModel(config, init_tps(new, config), init_decoder(new, config), init_head(new, config))


def _leaves(obj, prefix: str):
    """(field path, tensor) for every Tensor under obj, in declaration order."""
    if isinstance(obj, Tensor):
        yield prefix[:-1], obj
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{prefix}{i}/")
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{prefix}{f.name}/")


@dataclass(eq=False)
class GebdModel:
    """Model parameters plus the forward pass from stage features to scores."""

    config: ModelConfig
    tps: TpsParams
    decoder: SdParams
    head: HeadParams

    @classmethod
    def build(cls, config: ModelConfig, seed: int = 0) -> "GebdModel":
        return init_model(random_params(np.random.default_rng(seed)), config)

    def forward(self, stages: list[np.ndarray]) -> Tensor:
        """Per-frame scores (T x 1) in the parameters' dtype: the stage inputs
        are cast to it, so a loaded float32 model runs in float32 and reads
        a loaded feature file's read-only float32 stages without a copy, and
        a read-only stack or a cast is not copied again. Stage
        inputs stacked as (B, T, d) score B equal-length videos in one pass
        and give (B, T, 1), each video's scores bit-identical to its own pass."""
        if len(stages) != len(self.config.stage_dims):
            raise ValueError(
                f"expected {len(self.config.stage_dims)} stages, got {len(stages)}"
            )
        dtype = self.head.conv2.weights.data.dtype
        inputs = []
        for k, (arr, d) in enumerate(zip(stages, self.config.stage_dims)):
            cast = np.asarray(arr, dtype=dtype)
            if cast is not arr and cast.flags.owndata:
                cast.setflags(write=False)  # made here and held by no one else: no copy needed
            x = seq_tensor(cast)
            if x.data.shape[-1] != d:
                raise ValueError(f"stage {k}: expected {d} channels, got {x.data.shape[-1]}")
            inputs.append(x)
        t = tps_forward(inputs, self.tps, self.config)
        return head_forward(sd_forward(t, self.decoder), self.head)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable leaf with its field path (e.g.
        "tps/stages/0/branches/1/conv/weights"), in checkpoint order."""
        return list(_leaves(self, ""))

    def zero_grads(self) -> None:
        for _, p in self.parameters():
            p.grad = None


def stack_videos(stage_lists: list[list[np.ndarray]]) -> list[np.ndarray]:
    """`GebdModel.forward` input for equal-length videos, given each video's
    stage arrays: one read-only (B, T, d) array per stage, which the forward
    takes without a copy, or a lone video's own (T, d) arrays, which are not
    copied."""
    if len(stage_lists) == 1:
        return list(stage_lists[0])
    stacks = [np.stack(arrays) for arrays in zip(*stage_lists)]
    for s in stacks:
        s.setflags(write=False)
    return stacks


def model_forward(video: VideoFeatures, model: GebdModel) -> BoundaryScores:
    """Raw (unsmoothed) per-frame boundary scores for one video."""
    check_features_compatible(model.config, video)
    pred = model.forward(video.stages)
    return BoundaryScores(video.video_id, video.fps, pred.data[:, 0].copy(), smoothed=False)


def neighbor_radius_for(fps: float) -> int:
    """The one fps -> radius rule: a model trains with it and scores the fps that map to its radius."""
    return max(1, round(fps))


def check_features_compatible(config: ModelConfig, video: VideoFeatures) -> None:
    """Raise naming the mismatched field when features do not fit the model."""
    if video.stage_dims != config.stage_dims:
        raise ValueError(
            f"{video.video_id}: stage_dims mismatch: features {video.stage_dims}, "
            f"model {config.stage_dims}"
        )
    radius = neighbor_radius_for(video.fps)
    if radius != config.neighbor_radius:
        raise ValueError(
            f"{video.video_id}: neighbor_radius mismatch: features at {video.fps} fps need "
            f"radius {radius}, the model has radius {config.neighbor_radius}"
        )


def save_checkpoint(path: str | Path, model: GebdModel) -> None:
    cfg = model.config
    flags = sum(bool(getattr(cfg, name)) << i for i, name in enumerate(_FLAG_FIELDS))
    sizes = [getattr(cfg, name) for name in _SIZE_FIELDS]
    header = (CHECKPOINT_VERSION, len(cfg.stage_dims), *cfg.stage_dims, *sizes, flags)
    write_blocks(path, CHECKPOINT_MAGIC, header, [p.data for _, p in model.parameters()])


def load_checkpoint(path: str | Path) -> GebdModel:
    """An inference model: every parameter is a read-only float32 view into
    the file bytes with requires_grad False, so its forward runs in float32
    and keeps no tape. `train` rejects it; train a built model instead."""
    reader = BlockReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    num_stages = reader.u32("stage count")
    dims = tuple(reader.u32(f"stage {k} dim") for k in range(num_stages))
    sizes = {name: reader.u32(name) for name in _SIZE_FIELDS}
    flags = reader.u32("flags")
    if flags >> len(_FLAG_FIELDS):
        # a bit that no config sets could never be saved back: reject it
        raise ValueError(f"{reader.path}: unknown bits {flags:#x} in flags at offset {reader.offset - 4}")
    switches = {name: bool(flags >> i & 1) for i, name in enumerate(_FLAG_FIELDS)}
    config = ModelConfig(stage_dims=dims, **sizes, **switches)
    model = init_model(lambda shape, kind: reader.f32(shape, f"{kind} block"), config)
    reader.finish()
    for _, p in model.parameters():
        p.requires_grad = False
    return model
