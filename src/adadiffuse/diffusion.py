"""Forward diffusion, noise-level sampling and the training loop of both models.

The denoiser learns to predict injected noise under an L1 objective; the
noise-level estimator regresses the cumulative retention alpha-bar under
an L2 loss on log(1 - alpha_bar), which weights errors near 1 heavily.
Both models train in one loop, bit-deterministic given (seed, step index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .models import Denoiser, Estimator
from .nn import AdamState, adam_step
from .schedule import NoiseSchedule

LOG_CLAMP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    total_steps: int = 20000
    seed: int = 0
    stage_count: int = 1000

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.total_steps <= 0:
            raise ValueError("learning_rate, batch_size and total_steps must be positive")
        if self.stage_count <= 0:
            raise ValueError("stage_count must be positive")


def training_schedule(stage_count: int) -> NoiseSchedule:
    """Fixed training-time schedule: linear betas from 1e-4 to 2e-2."""
    return NoiseSchedule.from_betas(np.linspace(1e-4, 2e-2, stage_count))


def forward_diffuse(y0: np.ndarray, alpha_bar, epsilon: np.ndarray) -> np.ndarray:
    """Closed-form corruption: sqrt(ab)*y0 + sqrt(1-ab)*eps.

    alpha_bar may be a scalar or a per-sample vector for batched y0.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if y0.shape != epsilon.shape:
        raise ShapeError(f"epsilon shape {epsilon.shape} != y0 shape {y0.shape}")
    ab = np.asarray(alpha_bar, dtype=np.float64)
    if np.any(ab < 0.0) or np.any(ab > 1.0):
        raise ValueError("alpha_bar outside [0, 1]")
    if ab.ndim == 1 and y0.ndim == 2:
        if ab.shape[0] != y0.shape[0]:
            raise ShapeError("per-sample alpha_bar length != batch size")
        ab = ab[:, None]
    elif ab.ndim != 0:
        raise ShapeError("alpha_bar must be scalar or per-sample vector")
    return np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * epsilon


def sample_noise_level(rng: np.random.Generator, bounds: np.ndarray, n_stages: int):
    """One (stage, sqrt_alpha_bar) draw: stage uniform, level uniform in its interval."""
    s, a = sample_noise_levels(rng, bounds, n_stages, 1)
    return int(s[0]), float(a[0])


def sample_noise_levels(rng: np.random.Generator, bounds: np.ndarray, n_stages: int, size: int):
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.size != n_stages + 1:
        raise ShapeError(f"boundary table length {bounds.size} != stage count {n_stages} + 1")
    s = rng.integers(1, n_stages + 1, size=size)
    a = rng.uniform(bounds[s], bounds[s - 1])
    return s, a


@dataclass(frozen=True)
class NoisyBatch:
    """One training batch: clean samples, corrupted samples and the draw record."""

    y0: np.ndarray
    y_s: np.ndarray
    sqrt_alpha_bar: np.ndarray
    epsilon: np.ndarray
    stages: np.ndarray


def make_noisy_batch(y0: np.ndarray, schedule: NoiseSchedule, rng: np.random.Generator) -> NoisyBatch:
    stages, sqrt_ab = sample_noise_levels(rng, schedule.boundaries, len(schedule), y0.shape[0])
    eps = rng.standard_normal(y0.shape)
    y_s = forward_diffuse(y0, sqrt_ab**2, eps)
    return NoisyBatch(y0=y0, y_s=y_s, sqrt_alpha_bar=sqrt_ab, epsilon=eps, stages=stages)


def denoiser_train_step(
    denoiser: Denoiser,
    opt: AdamState,
    y0: np.ndarray,
    rng: np.random.Generator,
    schedule: NoiseSchedule,
) -> float:
    """One L1 noise-prediction step; aborts (params untouched) on non-finite loss."""
    batch = make_noisy_batch(y0, schedule, rng)
    if denoiser.conditioning_mode == "discrete_index":
        cond = batch.stages / float(len(schedule))
    else:
        cond = batch.sqrt_alpha_bar
    pred = denoiser.net.forward(denoiser.conditioned_input(batch.y_s, cond))
    diff = pred - batch.epsilon
    loss = float(np.mean(np.abs(diff)))
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss; step aborted")
    grad_out = np.sign(diff) / diff.size
    adam_step(denoiser.net, denoiser.net.backward(grad_out), opt)
    return loss


def _loss_and_gap(alpha_bar_true, alpha_bar_hat):
    """The estimator loss, the clipped log-gap it is taken over, and clipped ab_hat."""
    t = np.clip(np.asarray(alpha_bar_true, dtype=np.float64), LOG_CLAMP, 1.0 - LOG_CLAMP)
    h = np.clip(np.asarray(alpha_bar_hat, dtype=np.float64), LOG_CLAMP, 1.0 - LOG_CLAMP)
    gap = np.log1p(-t) - np.log1p(-h)
    return float(np.sqrt(np.mean(gap**2))), gap, h


def estimator_loss(alpha_bar_true, alpha_bar_hat) -> float:
    """Root-mean-square gap between log(1-ab_true) and log(1-ab_hat)."""
    return _loss_and_gap(alpha_bar_true, alpha_bar_hat)[0]


def estimator_train_step(
    estimator: Estimator,
    opt: AdamState,
    y0: np.ndarray,
    rng: np.random.Generator,
    schedule: NoiseSchedule,
) -> float:
    """One log-gap regression step on the noise-level estimator."""
    batch = make_noisy_batch(y0, schedule, rng)
    ab_true = batch.sqrt_alpha_bar**2
    pred = estimator.net.forward(batch.y_s)[:, 0]
    loss, gap, h = _loss_and_gap(ab_true, pred)
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss; step aborted")
    m = pred.size
    if loss > 0.0:
        grad = gap / (m * loss * (1.0 - h))
        grad[(pred < LOG_CLAMP) | (pred > 1.0 - LOG_CLAMP)] = 0.0
    else:
        grad = np.zeros(m)
    adam_step(estimator.net, estimator.net.backward(grad[:, None]), opt)
    return loss


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, step])


def _pick_batch(data: np.ndarray, rng: np.random.Generator, batch_size: int) -> np.ndarray:
    idx = rng.integers(0, data.shape[0], size=batch_size)
    return data[idx]


def _train(model, train_step, data: np.ndarray, cfg: TrainConfig, progress) -> list[float]:
    schedule = training_schedule(cfg.stage_count)
    opt = AdamState.for_network(model.net, learning_rate=cfg.learning_rate)
    losses = []
    for step in range(cfg.total_steps):
        rng = _step_rng(cfg.seed, step)
        y0 = _pick_batch(data, rng, cfg.batch_size)
        loss = train_step(model, opt, y0, rng, schedule)
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
    return _train(denoiser, denoiser_train_step, data, cfg, progress)


def train_estimator(
    estimator: Estimator,
    data: np.ndarray,
    cfg: TrainConfig,
    progress=None,
) -> list[float]:
    """Run cfg.total_steps estimator updates; returns the per-step loss list."""
    return _train(estimator, estimator_train_step, data, cfg, progress)
