"""Full scoring model: similarity features, dilated decoder, per-frame head.

`ModelConfig` (defined in `config`, which needs no numpy) is the one
statement of the model's structure: every constructor and forward, those
of `tps` included, reads it from the config.

The parameter tree is written once, in the `init_*` constructors: each
takes a parameter source (`nn.ParamSource`) and requests every parameter
in the field order of its dataclass. `GebdModel.build` passes a seeded
random source; `load_checkpoint` passes a reader over the payload, so a
loaded model is never randomly initialized first. `GebdModel.parameters()`
walks the dataclass fields in declaration order, which is the same order.

Checkpoint layout (little endian):
    magic "GEBW" | u32 version=1 | u32 num_stages | num_stages x u32 stage dims |
    one u32 per `_SIZE_FIELDS` entry (branch_count, decoder_blocks, d_out,
    d_head, neighbor_radius) | u32 flags (bit 1 is use_residual; bits 0
    and 2, the distance fusion and the depthwise fronts, are always set; a
    clear bit 0 or 2, or any higher bit, is rejected) |
    flat f32 blocks for every parameter in `GebdModel.parameters()` order
    (shapes follow from the config).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from .autodiff import Tensor, seq_tensor
from .config import ModelConfig, neighbor_radius_for
from .data import BlockReader, VideoFeatures, map_read_only, write_blocks
from .nn import (
    BLOCK_WIDTH,
    Conv1dKernel,
    ConvBlock,
    ParamSource,
    conv1d,
    conv_block,
    doubling_dilation,
    gelu,
    init_conv1d,
    init_conv_block,
    random_params,
    sigmoid,
)
from .postprocess import BoundaryScores
from .tps import TpsParams, init_tps, tps_forward
from .util import check_fits_in_memory

CHECKPOINT_MAGIC = b"GEBW"
CHECKPOINT_VERSION = 1
# `ModelConfig` fields in header order after the stage dims; bit i + 1 of the flags
# word that follows them is `_FLAG_FIELDS[i]`, and each of `_SET_BITS` is always set
_SIZE_FIELDS = ("branch_count", "decoder_blocks", "d_out", "d_head", "neighbor_radius")
_FLAG_FIELDS = ("use_residual",)
_SET_BITS = {0: "distance fusion", 2: "depthwise fronts"}
# `score_clips` computes a clip as windows that keep WINDOW_HALOS halos of its
# frames each, so the halos cost at most 2/WINDOW_HALOS more frames. A halo is
# the receptive field rounded up to a multiple of WINDOW_ALIGN rows, at least
# one multiple (the head's width-3 conv reads a frame on each side), so a
# window keeps at least 2048 frames, exactly 2048 for the default model. Every
# window starts on such a row and every window but a clip's last spans a
# multiple of it: OpenBLAS runs a GEMM's last M mod 16 rows through a
# different kernel, whose last bits differ, and aligned windows leave those
# rows where the whole clip has them.
WINDOW_HALOS = 32
WINDOW_ALIGN = 64


@dataclass
class SdParams:
    """Stacked width-3 conv blocks with dilations 2, 4, ... applied in order."""

    blocks: list[ConvBlock]


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
        init_conv_block(new, config.d_out, config.d_out, dilation=doubling_dilation(i + 1))
        for i in range(config.decoder_blocks)
    ])


def init_head(new: ParamSource, config: ModelConfig) -> HeadParams:
    return HeadParams(
        conv1=init_conv1d(new, config.d_out, config.d_head, width=3),
        conv2=init_conv1d(new, config.d_head, 1, width=1),
    )


def init_model(new: ParamSource, config: ModelConfig) -> "GebdModel":
    return GebdModel(config, init_tps(new, config), init_decoder(new, config), init_head(new, config))


def parameter_count(config: ModelConfig) -> int:
    """The number of parameters `init_model` requests for `config`, from the
    sizes alone, so a model too large to hold is rejected before any of it
    is built, however many blocks it has; blocks are `nn.BLOCK_WIDTH` wide."""

    def block(c_in: int, c_out: int) -> int:  # conv weights and bias, norm gamma and beta
        return c_out * (c_in * BLOCK_WIDTH + 3)

    n, d = config.branch_count, config.d_out
    fuse_in = (n + 1) * 2 * config.neighbor_radius  # the similarity vector's width

    def stage(c: int) -> int:  # branches, the dilated ones' depthwise fronts, compress and fuse
        return n * block(c, c) + (n - 1) * (BLOCK_WIDTH + 1) * c + c * (n * c + 1) + d * (fuse_in + 1)

    return (sum(stage(c) for c in config.stage_dims) + block(len(config.stage_dims) * d, d)
            + config.decoder_blocks * block(d, d) + config.d_head * (3 * d + 1) + config.d_head + 1)


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
        """A seeded random model; one whose float64 parameters exceed physical
        memory is rejected before the first draw."""
        check_fits_in_memory(8 * parameter_count(config), f"the float64 parameters of {config}")
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

    def receptive_field(self) -> int:
        """Frames on each side of a frame that its score reads, from the
        kernels' reach and the neighbor radius: 30 for the default model
        (widest branch 8 + its depthwise 1, radius 5, merge 1, decoder
        2 + 4 + 8, head 1). Every layer is local in time, so a window with
        this many more frames on each side, or that ends where the video
        does, scores its own frames as the whole video would."""
        stage = max(max(b.reach for b in s.branches) + s.compress.reach + s.fuse.reach for s in self.tps.stages)
        return (stage + self.config.neighbor_radius + self.tps.merge.reach
                + sum(b.reach for b in self.decoder.blocks) + self.head.conv1.reach + self.head.conv2.reach)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable leaf with its field path (e.g.
        "tps/stages/0/branches/1/conv/weights"), in checkpoint order."""
        return list(_leaves(self, ""))


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


def window_spans(t: int, keep: int, halo: int) -> list[tuple[int, int, int, int]]:
    """(lo, hi, start, end) of each window of a t-frame clip: frames
    [lo, hi) are computed to keep [start, end), the runs of `keep` frames
    from frame 0, with `halo` more frames on each side clamped at the clip's
    ends. A clip of at most keep + 2 * halo frames is one window."""
    if t <= keep + 2 * halo:
        return [(0, t, 0, t)]
    return [(max(0, s - halo), min(t, s + keep + halo), s, min(t, s + keep)) for s in range(0, t, keep)]


def score_clips(model: GebdModel, clips: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Raw per-frame scores of each clip, given its stage arrays, in the
    model's dtype. Each clip is computed as windows (`window_spans`) with a
    halo of the receptive field rounded up to WINDOW_ALIGN frames, so its
    scores have the bits of a whole-clip forward while the activations alive
    at once never span more than one window. Consecutive windows of equal
    length take one batched forward, but no batch spans more frames than
    the widest window."""
    halo = -(-model.receptive_field() // WINDOW_ALIGN) * WINDOW_ALIGN
    return _score_windows(model, clips, WINDOW_HALOS * halo, halo)


def _score_windows(model: GebdModel, clips: list[list[np.ndarray]], keep: int, halo: int) -> list[np.ndarray]:
    """`score_clips` with windows that keep `keep` frames and have `halo`."""
    dtype = model.head.conv2.weights.data.dtype
    scores = [np.empty(len(stages[0]), dtype) for stages in clips]
    windows = [(i, *span) for i, stages in enumerate(clips) for span in window_spans(len(stages[0]), keep, halo)]
    for length, run in groupby(windows, key=lambda w: w[2] - w[1]):
        run = list(run)
        per_batch = max(1, (keep + 2 * halo) // length)
        for b in range(0, len(run), per_batch):
            batch = run[b:b + per_batch]
            pred = model.forward(stack_videos([[s[lo:hi] for s in clips[i]] for i, lo, hi, _, _ in batch]))
            for (i, lo, _, start, end), x in zip(batch, pred.data.reshape(len(batch), -1)):
                scores[i][start:end] = x[start - lo:end - lo]
            del pred  # and a built model's tape with it, before the next window runs
    return scores


def model_forward(video: VideoFeatures, model: GebdModel) -> BoundaryScores:
    """Raw (unsmoothed) per-frame boundary scores for one video (`score_clips`)."""
    check_features_compatible(model.config, video)
    (scores,) = score_clips(model, [video.stages])
    return BoundaryScores(video.video_id, video.fps, scores, smoothed=False)


def check_features_compatible(config: ModelConfig, video: VideoFeatures) -> None:
    """Raise naming the mismatched field when features do not fit the model."""
    if video.stage_dims != config.stage_dims:
        raise ValueError(
            f"{video.video_id}: stage_dims mismatch: features {video.stage_dims}, "
            f"model {config.stage_dims}"
        )
    check_fps_compatible(config, video.fps, video.video_id)


def check_fps_compatible(config: ModelConfig, fps: float, video_id: str | None = None) -> None:
    """Raise naming both radii when features at `fps` need another neighbor
    radius than the model's."""
    radius = neighbor_radius_for(fps)
    if radius != config.neighbor_radius:
        where = "" if video_id is None else f"{video_id}: "
        raise ValueError(
            f"{where}neighbor_radius mismatch: features at {fps} fps need "
            f"radius {radius}, the model has radius {config.neighbor_radius}"
        )


def save_checkpoint(path: str | Path, model: GebdModel) -> None:
    cfg = model.config
    flags = sum(1 << b for b in _SET_BITS) + sum(bool(getattr(cfg, f)) << i for i, f in enumerate(_FLAG_FIELDS, 1))
    sizes = [getattr(cfg, name) for name in _SIZE_FIELDS]
    header = (CHECKPOINT_VERSION, len(cfg.stage_dims), *cfg.stage_dims, *sizes, flags)
    write_blocks(path, CHECKPOINT_MAGIC, header, [p.data for _, p in model.parameters()])


def load_checkpoint(path: str | Path) -> GebdModel:
    """An inference model: every parameter is a read-only float32 view into a
    read-only mapping of the file (`data.map_read_only`), not into a copy,
    with requires_grad False, so its forward runs in float32 and keeps no
    tape. The model holds the mapping's one file descriptor until it is
    dropped; replace a checkpoint it reads by rename (as `save_checkpoint`
    does), never in place. `train` rejects it; train a built model instead."""
    reader = BlockReader(map_read_only(path), path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    num_stages = reader.u32("stage count")
    dims = tuple(reader.u32(f"stage {k} dim") for k in range(num_stages))
    sizes = {name: reader.u32(name) for name in _SIZE_FIELDS}
    flags = reader.u32("flags")
    # a bit that no config sets, or a clear `_SET_BITS` bit, could never be saved back: reject it
    if flags >> 3:  # bits 0 to 2 are the whole layout
        raise ValueError(f"{reader.path}: unknown bits {flags:#x} in flags at offset {reader.offset - 4}")
    for bit, design in _SET_BITS.items():
        if not flags >> bit & 1:
            raise ValueError(f"{reader.path}: bit {bit} ({design}) clear in flags {flags:#x} "
                             f"at offset {reader.offset - 4}")
    switches = {name: bool(flags >> i & 1) for i, name in enumerate(_FLAG_FIELDS, 1)}
    config = ModelConfig(stage_dims=dims, **sizes, **switches)
    model = init_model(lambda shape, kind: reader.f32(shape, f"{kind} block"), config)
    reader.finish()
    for _, p in model.parameters():
        p.requires_grad = False
    return model
