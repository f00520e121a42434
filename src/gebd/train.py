"""Training: time smoothing, per-frame BCE loss, warmup + cosine schedule, Adam, and the loop.

The schedule rises linearly from 0 to lr_peak over the warmup epochs, then
follows a cosine from lr_peak down to lr_final at the last step. The model
from the last epoch is the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _accumulate, _require_seq, backward, fold_sum, scale
from .config import TrainConfig
from .data import VideoFeatures
from .model import GebdModel, stack_videos
from .postprocess import smooth_frames
from .util import atomic_write_text

BCE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    pass


def bce_loss(pred: Tensor, target) -> Tensor:
    """Mean binary cross entropy over frames, predictions clamped away from 0/1.

    pred is (T, 1) with T targets, giving a 1x1 loss, or a (B, T, 1) batch
    with (B, T) targets, giving one loss per video as (B, 1, 1).
    """
    p = pred.data[..., 0]
    y = np.asarray(target, dtype=np.float64)
    if pred.data.shape[-1:] != (1,) or p.size != y.size:
        raise ValueError(f"bce_loss: {p.size} predictions vs {y.size} targets (predictions {pred.data.shape})")
    y = y.reshape(p.shape)
    n = p.shape[-1]
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    pc = np.clip(p, lo, hi)
    values = -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).mean(axis=-1)

    def bwd(g):
        active = (p >= lo) & (p <= hi)  # clamp kills the gradient outside
        dp = (-(y / pc) + (1.0 - y) / (1.0 - pc)) / n * g[..., 0] * active
        _accumulate(pred, dp.reshape(pred.data.shape))

    return Tensor(values[..., None, None], parents=(pred,), backward=bwd, validate=False)


def time_smooth(x: Tensor, fps: float) -> Tensor:
    """Fixed Gaussian smoothing along the frame axis (`postprocess.smooth_frames`)."""
    _require_seq(x, "time_smooth")

    def backward(g):
        _accumulate(x, smooth_frames(g, fps, adjoint=True))

    return Tensor(smooth_frames(x.data, fps), parents=(x,), backward=backward, validate=False)


def lr_schedule(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for a global step index (0-based)."""
    if step < 0 or steps_per_epoch < 1:
        raise ValueError("step must be >= 0 and steps_per_epoch >= 1")
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    total_steps = cfg.epochs * steps_per_epoch
    if step < warmup_steps:
        return cfg.lr_peak * step / warmup_steps
    denom = max(1, total_steps - 1 - warmup_steps)
    u = min(max((step - warmup_steps) / denom, 0.0), 1.0)
    return cfg.lr_final + (cfg.lr_peak - cfg.lr_final) * 0.5 * (1.0 + math.cos(math.pi * u))


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros(p.data.shape) for p in params],
            v=[np.zeros(p.data.shape) for p in params],
        )


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update (ADAM_BETA1, ADAM_BETA2, ADAM_EPS),
    in place on the parameter tensors.

    `m` and `v` are updated in place, and each parameter's update needs two
    parameter-sized temporaries; every element goes through the operations
    of `p - lr * m_hat / (sqrt(v_hat) + eps)` in that order, so the bits are
    those of the textbook expression."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(f"grad shape {g.shape} does not match param {p.data.shape}")
        tmp = np.multiply(1.0 - ADAM_BETA1, g)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, 1.0 - ADAM_BETA1 ** t)  # m_hat
        step *= lr
        step /= tmp
        np.subtract(p.data, step, out=step)
        step.setflags(write=False)  # handed over: update_data keeps it without a copy
        p.update_data(step)


def train(
    dataset: Sequence[tuple[VideoFeatures, np.ndarray]],
    model: GebdModel,
    cfg: TrainConfig,
) -> tuple[GebdModel, list[tuple[int, float, float]]]:
    """Seeded mini-batch training; returns the model plus a (step, lr, loss) curve.

    When cfg.smooth_training is on, predictions are Gaussian-smoothed before
    the loss so training optimizes the smoothed scores; targets stay hard.
    The minibatch loss is the left fold of the per-video losses divided by
    the batch size, and batched passes keep the bits of a video-by-video
    pass (see `_minibatch_gradients`).
    Every parameter must require grad: a loaded checkpoint does not, and
    would silently take zero steps. A non-finite loss or gradient raises
    TrainingDiverged naming the step (and the parameter) before Adam runs;
    so does a floating-point overflow, invalid operation or division by zero
    anywhere in a step's forward, backward or Adam update.
    """
    if not len(dataset):
        raise ValueError("train: empty dataset")
    frozen = [name for name, p in model.parameters() if not p.requires_grad]
    if frozen:
        raise ValueError(
            f"train: parameter {frozen[0]} does not require grad ({len(frozen)} in all); "
            "a loaded checkpoint is for inference only, train a model from GebdModel.build"
        )
    if cfg.epochs == 0:
        return model, []
    named = model.parameters()
    params = [p for _, p in named]
    state = AdamState.init(params)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    curve: list[tuple[int, float, float]] = []
    global_step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            lr = lr_schedule(global_step, steps_per_epoch, cfg)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    loss_value = _minibatch_gradients(dataset, batch, model, params, cfg.smooth_training, global_step)
                    grads = [p.grad if p.grad is not None else np.zeros(p.data.shape) for p in params]
                    for (name, _), g in zip(named, grads):
                        if not np.all(np.isfinite(g)):
                            raise TrainingDiverged(f"non-finite gradient of {name} at step {global_step}")
                    adam_step(params, grads, state, lr)
            except FloatingPointError as e:
                raise TrainingDiverged(f"{e} at step {global_step}") from e
            curve.append((global_step, lr, loss_value))
            global_step += 1
    return model, curve


def _minibatch_gradients(dataset, batch, model: GebdModel, params: Sequence[Tensor],
                         smooth_training: bool, step: int) -> float:
    """Set the grad of every parameter in `params` (all of the model's) to
    the minibatch loss gradient; return the loss.

    Each maximal run of consecutive equal-length videos is one batched pass.
    The graph is local, so it is freed before the next minibatch's forward.
    """
    losses = []
    for (_, fps), run in groupby(batch, key=lambda i: (dataset[i][0].num_frames, dataset[i][0].fps)):
        run = list(run)
        pred = model.forward(stack_videos([dataset[i][0].stages for i in run]))
        if smooth_training:
            pred = time_smooth(pred, fps)
        losses.append(bce_loss(pred, np.stack([dataset[i][1] for i in run])))
    total = scale(fold_sum(losses), 1.0 / len(batch))
    loss_value = float(total.data[0, 0])
    if not math.isfinite(loss_value):
        raise TrainingDiverged(f"non-finite loss at step {step}")
    for p in params:
        p.grad = None
    backward(total)
    return loss_value


def write_loss_curve(path: str | Path, curve: Sequence[tuple[int, float, float]]) -> None:
    lines = ["step,lr,loss"]
    for step, lr, loss in curve:
        lines.append(f"{step},{lr:.10g},{loss:.10g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
