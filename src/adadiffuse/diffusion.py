"""Forward diffusion, noise-level sampling and the training loop of both models.

Training draws its noise levels from training_schedule, the linear
family's fixed schedule (ScheduleFamily.fixed, beta0 = 1e-4): a stage
uniform in 1..N, then a level uniform in that stage's boundary interval.
Only the level reaches the models: the denoiser is conditioned on it,
and the estimator's target is its square. The denoiser learns to
predict injected noise under an L1 objective; the noise-level estimator
regresses the cumulative retention alpha-bar under an L2 loss on
log(1 - alpha_bar), which weights errors near 1 heavily.
Both models train in one loop, bit-deterministic given (seed, step index).

Each step draws its inputs from its own generator, default_rng([seed,
step]), which no update reads or advances. So the loop draws the inputs
of BLOCK_STEPS steps ahead, gathers and corrupts them (and, for the
denoiser, builds the conditioned rows) in one call each, and then runs
the updates one step at a time on contiguous slices: the corruption and
the embedding are elementwise, so every row and every update has the
bits it would have had if built alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .models import Denoiser, Estimator
from .nn import AdamState, adam_step
from .schedule import NoiseSchedule, ScheduleFamily

AB_CLAMP = 1e-7  # an alpha-bar is clipped into (0, 1) before a log

# Training steps whose inputs are drawn and corrupted together. Per step
# these are about 40 small numpy calls; batched over 16 steps, run back to
# back rather than between the updates, train ran about 14% faster. 32
# steps gained about the same and raised the train workload's peak RSS by
# 3.0 MB against 1.1 MB.
BLOCK_STEPS = 16


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    total_steps: int = 20000
    seed: int = 0
    stage_count: int = 1000

    def __post_init__(self):
        if not (0 < self.learning_rate < np.inf):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size <= 0 or self.total_steps <= 0:
            raise ValueError("batch_size and total_steps must be positive")
        if self.stage_count <= 0:
            raise ValueError("stage_count must be positive")
        if self.seed < 0:
            raise ValueError(f"train.seed must be >= 0, got {self.seed}")


def training_schedule(stage_count: int) -> NoiseSchedule:
    """Fixed training-time schedule: the linear family's, from beta0 = 1e-4."""
    return ScheduleFamily("linear", 1e-4).fixed(stage_count)


def forward_diffuse(y0: np.ndarray, alpha_bar, epsilon: np.ndarray) -> np.ndarray:
    """Closed-form corruption: sqrt(ab)*y0 + sqrt(1-ab)*eps.

    alpha_bar may be a scalar or a per-sample vector for batched y0.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if y0.shape != epsilon.shape:
        raise ShapeError(f"epsilon shape {epsilon.shape} != y0 shape {y0.shape}")
    ab = np.asarray(alpha_bar, dtype=np.float64)
    if not (np.all(ab >= 0.0) and np.all(ab <= 1.0)):  # NaN fails both
        raise ValueError("alpha_bar outside [0, 1]")
    if ab.ndim == 1 and y0.ndim == 2:
        if ab.shape[0] != y0.shape[0]:
            raise ShapeError("per-sample alpha_bar length != batch size")
        ab = ab[:, None]
    elif ab.ndim != 0:
        raise ShapeError("alpha_bar must be scalar or per-sample vector")
    return np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * epsilon


def sample_noise_levels(rng: np.random.Generator, schedule: NoiseSchedule, size: int):
    """size (stage, sqrt_alpha_bar) draws: stage uniform, level uniform in its interval."""
    s = rng.integers(1, len(schedule) + 1, size=size)
    a = rng.uniform(schedule.boundaries[s], schedule.boundaries[s - 1])
    return s, a


@dataclass(frozen=True)
class NoisyBatch:
    """Training inputs: clean samples, corrupted samples and the draw record."""

    y0: np.ndarray
    y_s: np.ndarray
    sqrt_alpha_bar: np.ndarray
    epsilon: np.ndarray


def make_noisy_batch(data: np.ndarray, schedule: NoiseSchedule, rngs,
                     batch_size: int) -> NoisyBatch:
    """The inputs of one training step per generator in rngs, stacked in order.

    Each generator draws its step's batch_size rows: the data rows picked,
    then the stages, the levels within them and the noise. One gather and
    one forward_diffuse cover every row; step i owns rows
    [i * batch_size, (i + 1) * batch_size).
    """
    picks, levels, noise = [], [], []
    for rng in rngs:
        picks.append(rng.integers(0, data.shape[0], size=batch_size))
        levels.append(sample_noise_levels(rng, schedule, batch_size)[1])
        noise.append(rng.standard_normal((batch_size, *data.shape[1:])))
    y0 = data[np.concatenate(picks)]
    sqrt_ab, eps = np.concatenate(levels), np.concatenate(noise)
    y_s = forward_diffuse(y0, sqrt_ab**2, eps)
    return NoisyBatch(y0=y0, y_s=y_s, sqrt_alpha_bar=sqrt_ab, epsilon=eps)


def _denoiser_rows(denoiser: Denoiser, batch: NoisyBatch):
    """The denoiser's network input rows, conditioned on each row's level, and target rows."""
    return denoiser.conditioned_input(batch.y_s, batch.sqrt_alpha_bar), batch.epsilon


def denoiser_train_step(denoiser: Denoiser, opt: AdamState, x: np.ndarray,
                        epsilon: np.ndarray) -> float:
    """One L1 noise-prediction step on conditioned input rows x and their
    injected noise; aborts (params untouched) on non-finite loss."""
    acts = denoiser.net.forward(x)
    diff = acts[-1] - epsilon
    loss = float(np.mean(np.abs(diff)))
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss; step aborted")
    grad_out = np.sign(diff) / diff.size
    adam_step(denoiser.net, denoiser.net.backward(acts, grad_out), opt)
    return loss


def _loss_and_gap(alpha_bar_true, alpha_bar_hat):
    """The estimator loss, the clipped log-gap it is taken over, and clipped ab_hat."""
    t = np.clip(np.asarray(alpha_bar_true, dtype=np.float64), AB_CLAMP, 1.0 - AB_CLAMP)
    h = np.clip(np.asarray(alpha_bar_hat, dtype=np.float64), AB_CLAMP, 1.0 - AB_CLAMP)
    gap = np.log1p(-t) - np.log1p(-h)
    return float(np.sqrt(np.mean(gap**2))), gap, h


def estimator_loss(alpha_bar_true, alpha_bar_hat) -> float:
    """Root-mean-square gap between log(1-ab_true) and log(1-ab_hat)."""
    return _loss_and_gap(alpha_bar_true, alpha_bar_hat)[0]


def _estimator_rows(estimator: Estimator, batch: NoisyBatch):
    """The estimator's network input and target rows (alpha-bar) for a batch."""
    return batch.y_s, batch.sqrt_alpha_bar**2


def estimator_train_step(estimator: Estimator, opt: AdamState, y_s: np.ndarray,
                         ab_true: np.ndarray) -> float:
    """One log-gap regression step on noisy rows y_s and their alpha-bar."""
    acts = estimator.net.forward(y_s)
    pred = acts[-1][:, 0]
    loss, gap, h = _loss_and_gap(ab_true, pred)
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss; step aborted")
    m = pred.size
    if loss > 0.0:
        grad = gap / (m * loss * (1.0 - h))
        grad[(pred < AB_CLAMP) | (pred > 1.0 - AB_CLAMP)] = 0.0
    else:
        grad = np.zeros(m)
    adam_step(estimator.net, estimator.net.backward(acts, grad[:, None]), opt)
    return loss


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, step])


def _train(model, rows, train_step, data: np.ndarray, cfg: TrainConfig, progress) -> list[float]:
    """Build each block's inputs with make_noisy_batch, drawn from the
    training schedule, and rows(model, batch), then run train_step on one
    step's slice of them at a time."""
    schedule = training_schedule(cfg.stage_count)
    opt = AdamState.for_network(model.net, learning_rate=cfg.learning_rate)
    size = cfg.batch_size
    losses = []
    for first in range(0, cfg.total_steps, BLOCK_STEPS):
        steps = range(first, min(first + BLOCK_STEPS, cfg.total_steps))
        batch = make_noisy_batch(data, schedule, [_step_rng(cfg.seed, s) for s in steps], size)
        x, target = rows(model, batch)
        for i, step in enumerate(steps):
            part = slice(i * size, (i + 1) * size)
            loss = train_step(model, opt, x[part], target[part])
            losses.append(loss)
            if progress is not None:
                progress(step, loss)
    return losses


def train_denoiser(
    denoiser: Denoiser,
    data: np.ndarray,
    cfg: TrainConfig,
    progress=None,
) -> list[float]:
    """Run cfg.total_steps denoiser updates; returns the per-step loss list."""
    return _train(denoiser, _denoiser_rows, denoiser_train_step, data, cfg, progress)


def train_estimator(
    estimator: Estimator,
    data: np.ndarray,
    cfg: TrainConfig,
    progress=None,
) -> list[float]:
    """Run cfg.total_steps estimator updates; returns the per-step loss list."""
    return _train(estimator, _estimator_rows, estimator_train_step, data, cfg, progress)
