"""Full scoring model: similarity features, dilated decoder, per-frame head.

Checkpoint layout (little endian):
    magic "GEBW" | u32 version=1 | u32 num_stages | num_stages x u32 stage dims |
    u32 branch_count | u32 decoder_blocks | u32 d_out | u32 d_head |
    u32 neighbor_radius | u32 flags (bit0 fuse_distances, bit1 use_residual,
    bit2 use_depthwise) | flat f32 blocks for every parameter in
    `GebdModel.parameters()` order (shapes follow from the config).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, seq_tensor
from .data import VideoFeatures
from .nn import Conv1dKernel, LayerNormAffine, conv1d, gelu, init_conv1d, init_layer_norm, layer_norm, sigmoid
from .postprocess import BoundaryScores
from .tps import TpsParams, init_tps, tps_forward
from .util import atomic_write_bytes

CHECKPOINT_MAGIC = b"GEBW"
CHECKPOINT_VERSION = 1
_FLAG_FUSE_DISTANCES = 1
_FLAG_USE_RESIDUAL = 2
_FLAG_USE_DEPTHWISE = 4


@dataclass
class ModelConfig:
    """Structural hyperparameters; neighbor_radius is the frames-per-second
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
class SdBlock:
    conv: Conv1dKernel
    norm: LayerNormAffine


@dataclass
class SdParams:
    """Stacked width-3 conv blocks with dilations 2, 4, ... applied in order."""

    blocks: list[SdBlock] = field(default_factory=list)


@dataclass
class HeadParams:
    """Two-conv scoring head: width-3 to d_head with gelu, width-1 to one channel."""

    conv1: Conv1dKernel
    conv2: Conv1dKernel


def sd_forward(x: Tensor, params: SdParams) -> Tensor:
    """Sequential conv -> layer norm -> gelu blocks; empty stack is identity."""
    for block in params.blocks:
        x = gelu(layer_norm(conv1d(x, block.conv), block.norm))
    return x


def head_forward(x: Tensor, params: HeadParams) -> Tensor:
    """Per-frame boundary scores, strictly inside (0, 1); shape T x 1."""
    return sigmoid(conv1d(gelu(conv1d(x, params.conv1)), params.conv2))


def init_decoder(rng: np.random.Generator, config: ModelConfig) -> SdParams:
    blocks = [
        SdBlock(
            conv=init_conv1d(rng, config.d_out, config.d_out, width=3, dilation=2 ** (i + 1)),
            norm=init_layer_norm(config.d_out),
        )
        for i in range(config.decoder_blocks)
    ]
    return SdParams(blocks)


def init_head(rng: np.random.Generator, config: ModelConfig) -> HeadParams:
    return HeadParams(
        conv1=init_conv1d(rng, config.d_out, config.d_head, width=3),
        conv2=init_conv1d(rng, config.d_head, 1, width=1),
    )


class GebdModel:
    """Model parameters plus the forward pass from stage features to scores."""

    def __init__(self, config: ModelConfig, tps: TpsParams, decoder: SdParams, head: HeadParams):
        self.config = config
        self.tps = tps
        self.decoder = decoder
        self.head = head

    @classmethod
    def build(cls, config: ModelConfig, seed: int = 0) -> "GebdModel":
        rng = np.random.default_rng(seed)
        tps = init_tps(
            rng,
            config.stage_dims,
            config.branch_count,
            config.d_out,
            config.neighbor_radius,
            config.fuse_distances,
            config.use_depthwise,
        )
        return cls(config, tps, init_decoder(rng, config), init_head(rng, config))

    def forward(self, stages: list[np.ndarray]) -> Tensor:
        if len(stages) != len(self.config.stage_dims):
            raise ValueError(
                f"expected {len(self.config.stage_dims)} stages, got {len(stages)}"
            )
        inputs = []
        for k, (arr, d) in enumerate(zip(stages, self.config.stage_dims)):
            x = seq_tensor(arr)
            if x.data.shape[1] != d:
                raise ValueError(f"stage {k}: expected {d} channels, got {x.data.shape[1]}")
            inputs.append(x)
        t = tps_forward(inputs, self.tps, self.config.fuse_distances, self.config.use_residual)
        return head_forward(sd_forward(t, self.decoder), self.head)

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every learnable leaf in the fixed checkpoint order."""
        out: list[tuple[str, Tensor]] = []
        for k, stage in enumerate(self.tps.stages):
            for i, br in enumerate(stage.branches):
                prefix = f"stage{k}/branch{i}"
                if br.depthwise is not None:
                    out.append((f"{prefix}/depthwise/weights", br.depthwise.weights))
                    out.append((f"{prefix}/depthwise/bias", br.depthwise.bias))
                out.append((f"{prefix}/conv/weights", br.conv.weights))
                out.append((f"{prefix}/conv/bias", br.conv.bias))
                out.append((f"{prefix}/norm/gamma", br.norm.gamma))
                out.append((f"{prefix}/norm/beta", br.norm.beta))
            out.append((f"stage{k}/compress/weights", stage.compress.weights))
            out.append((f"stage{k}/compress/bias", stage.compress.bias))
            out.append((f"stage{k}/fuse/weights", stage.fuse.weights))
            out.append((f"stage{k}/fuse/bias", stage.fuse.bias))
        out.append(("merge/conv/weights", self.tps.merge_conv.weights))
        out.append(("merge/conv/bias", self.tps.merge_conv.bias))
        out.append(("merge/norm/gamma", self.tps.merge_norm.gamma))
        out.append(("merge/norm/beta", self.tps.merge_norm.beta))
        for i, block in enumerate(self.decoder.blocks):
            out.append((f"decoder{i}/conv/weights", block.conv.weights))
            out.append((f"decoder{i}/conv/bias", block.conv.bias))
            out.append((f"decoder{i}/norm/gamma", block.norm.gamma))
            out.append((f"decoder{i}/norm/beta", block.norm.beta))
        out.append(("head/conv1/weights", self.head.conv1.weights))
        out.append(("head/conv1/bias", self.head.conv1.bias))
        out.append(("head/conv2/weights", self.head.conv2.weights))
        out.append(("head/conv2/bias", self.head.conv2.bias))
        return out

    def zero_grads(self) -> None:
        for _, p in self.parameters():
            p.grad = None


def parameter_count(config: ModelConfig) -> int:
    """Learnable scalars in a model of this config, from its shapes alone.

    Lets `load_checkpoint` check a header against the payload length before
    it allocates anything.
    """
    n, d_out, d_head = config.branch_count, config.d_out, config.d_head
    total = 0
    for c in config.stage_dims:
        depthwise = n - 1 if config.use_depthwise else 0  # every branch but dilation 1
        total += depthwise * 4 * c + n * (3 * c * c + 3 * c)  # [depthwise] conv, norm
        fuse_in = (n + 1) * (2 * config.neighbor_radius if config.fuse_distances else c)
        total += n * c * c + c + fuse_in * d_out + d_out  # compress, fuse
    total += 3 * len(config.stage_dims) * d_out * d_out + 3 * d_out  # merge conv, norm
    total += config.decoder_blocks * (3 * d_out * d_out + 3 * d_out)
    total += 3 * d_out * d_head + d_head + d_head + 1  # head conv1, conv2
    return total


def model_forward(video: VideoFeatures, model: GebdModel) -> BoundaryScores:
    """Raw (unsmoothed) per-frame boundary scores for one video."""
    check_features_compatible(model.config, video)
    pred = model.forward(video.stages)
    return BoundaryScores(video.video_id, video.fps, pred.data[:, 0].copy(), smoothed=False)


def check_features_compatible(config: ModelConfig, video: VideoFeatures) -> None:
    """Raise naming the mismatched field when features do not fit the model."""
    if video.stage_dims != config.stage_dims:
        raise ValueError(
            f"{video.video_id}: stage_dims mismatch: features {video.stage_dims}, "
            f"model {config.stage_dims}"
        )
    if round(video.fps) != config.neighbor_radius:
        raise ValueError(
            f"{video.video_id}: neighbor_radius mismatch: model expects data at "
            f"{config.neighbor_radius} fps, features are {video.fps} fps"
        )


def _config_flags(config: ModelConfig) -> int:
    flags = 0
    if config.fuse_distances:
        flags |= _FLAG_FUSE_DISTANCES
    if config.use_residual:
        flags |= _FLAG_USE_RESIDUAL
    if config.use_depthwise:
        flags |= _FLAG_USE_DEPTHWISE
    return flags


def save_checkpoint(path: str | Path, model: GebdModel) -> None:
    cfg = model.config
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<II", CHECKPOINT_VERSION, len(cfg.stage_dims)),
        struct.pack(f"<{len(cfg.stage_dims)}I", *cfg.stage_dims),
        struct.pack(
            "<IIIIII",
            cfg.branch_count,
            cfg.decoder_blocks,
            cfg.d_out,
            cfg.d_head,
            cfg.neighbor_radius,
            _config_flags(cfg),
        ),
    ]
    for _, p in model.parameters():
        parts.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str | Path) -> GebdModel:
    path = Path(path)
    raw = path.read_bytes()
    if raw[0:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic at offset 0, expected {CHECKPOINT_MAGIC!r}")

    def u32(offset: int, what: str) -> int:
        if offset + 4 > len(raw):
            raise ValueError(f"{path}: truncated while reading {what} at offset {offset}")
        return struct.unpack_from("<I", raw, offset)[0]

    version = u32(4, "version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version} at offset 4")
    num_stages = u32(8, "stage count")
    offset = 12
    dims = []
    for k in range(num_stages):
        dims.append(u32(offset, f"stage {k} dim"))
        offset += 4
    fields = []
    for what in ("branch_count", "decoder_blocks", "d_out", "d_head", "neighbor_radius", "flags"):
        fields.append(u32(offset, what))
        offset += 4
    branch_count, decoder_blocks, d_out, d_head, radius, flags = fields
    config = ModelConfig(
        stage_dims=tuple(dims),
        branch_count=branch_count,
        decoder_blocks=decoder_blocks,
        d_out=d_out,
        d_head=d_head,
        neighbor_radius=radius,
        fuse_distances=bool(flags & _FLAG_FUSE_DISTANCES),
        use_residual=bool(flags & _FLAG_USE_RESIDUAL),
        use_depthwise=bool(flags & _FLAG_USE_DEPTHWISE),
    )
    need = 4 * parameter_count(config)
    have = len(raw) - offset
    if have < need:
        raise ValueError(
            f"{path}: truncated parameters at offset {offset}: header implies {need} bytes, "
            f"have {have}"
        )
    if have > need:
        raise ValueError(f"{path}: {have - need} trailing bytes at offset {offset + need}")
    model = GebdModel.build(config, seed=0)
    for _, p in model.parameters():
        block = np.frombuffer(raw, dtype="<f4", count=p.data.size, offset=offset)
        p.update_data(block.astype(np.float64).reshape(p.data.shape))
        offset += p.data.size * 4
    return model
