"""Reverse-process sampling: fixed schedules and mid-run schedule adaptation.

The adaptive procedure runs the usual reverse updates but, at a configured
set of step indices, asks the noise-level estimator where the chain
actually is and re-derives the remaining schedule in closed form. A step
always executes (mean update and its noise injection) under the schedule
in force when it started; a re-solve triggered at step n governs steps
n-1 .. 1.

One vectorized engine evolves a batch of independent chains; the public
single-chain operations are batch-1 wrappers over it. Its state is the
schedule in force: a view of alpha_bar rows whose last row is alpha_bar_n
of the step about to run, first one shared column from the
NoiseSchedule. Each step reads the last two rows and drops the last. A
re-solve at step n installs per-chain rows alpha_bar_{lo-1}..alpha_bar_{n-1}
only, lo being the step of the next re-solve or 1; they are folded in
blocks (schedule._solve_window), so no (batch, n) array is built. No beta
rows are kept: beta_n comes from a function set with the schedule, the
start schedule's row or one row of the re-solve's closed form, clipped.
The same step code broadcasts either form. Both networks run through the
models' predict (Network.apply: no activation cache, no checks); the
engine checks the estimate and the state once per step, so a non-finite
value still raises at the step that made it. A step record holds the
beta_n and alpha_bar_n that chain 0's step ran under, so a run's trace is
O(N): chain 0's whole in-force schedule after a re-solve at step n is
update_noise_schedule(rec.alpha_hat, n - 1, cfg.family). The engine runs
the public formulas' code: _reverse_step (behind ddpm_update and
ddim_update), _solve_batch, clamp_betas and _indices_for_levels.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleError, ShapeError
from .models import Denoiser, Estimator
from .nn import check_finite
from .schedule import (
    NoiseSchedule,
    ScheduleFamily,
    _indices_for_levels,
    _solve_batch,
    _solve_window,
    clamp_betas,
)

UPDATE_RULES = ("ddpm", "ddim")

AB_CLAMP = 1e-7  # estimator outputs clipped into (0,1) before solving


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    adjustment_set: frozenset[int] = frozenset()
    family: ScheduleFamily = ScheduleFamily("linear", 1e-4)
    update_rule: str = "ddpm"
    eta: float = 0.0
    conditioning_mode: str = "continuous_alpha"
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        object.__setattr__(self, "adjustment_set", frozenset(self.adjustment_set))
        if not all(1 <= u <= self.steps for u in self.adjustment_set):
            raise ValueError("adjustment set must be a subset of {1..steps}")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.seed < 0:
            raise ValueError(f"sampler.seed must be >= 0, got {self.seed}")


@dataclass
class StepRecord:
    """One executed reverse step: index, optional estimate, and the beta_n
    and alpha_bar_n chain 0's step ran under (before any re-solve)."""

    n: int
    alpha_hat: float | None
    beta: float
    alpha_bar: float
    wall_ms: float


@dataclass
class SamplingRun:
    """Result of one reverse run (a batch of independent chains)."""

    y0: np.ndarray
    steps: list[StepRecord]
    y_init: np.ndarray
    clamp_events: int = 0
    wall_ms: float = 0.0


def initial_noise_schedule(cfg: SamplerConfig) -> NoiseSchedule:
    """Fixed N-step baseline for the configured family.

    linear: betas evenly spaced from beta0 to 2e-2; fibonacci: the
    recurrence seeded (beta0, beta0), truncated and clamped.
    """
    n, beta0 = cfg.steps, cfg.family.beta0
    if cfg.family.kind == "linear":
        betas = np.linspace(beta0, 2e-2, n)
    else:
        seq = [beta0, beta0]
        while len(seq) < n:
            seq.append(seq[-1] + seq[-2])
        betas = np.array(seq[:n])
    return NoiseSchedule.from_betas(clamp_betas(betas)[0])


def _reverse_step(y, eps_hat, n: int, beta, abar, abar_prev, rule: str, eta: float):
    """One DDPM or DDIM reverse step, split as (deterministic part, noise scale).

    The step's result is det + scale * z; the engine keeps the two apart
    because the estimator reads det, the state before noise is added.
    beta, abar = alpha_bar_n and abar_prev = alpha_bar_{n-1} are scalars
    or per-chain columns that broadcast against the state y.
    """
    if rule == "ddpm":
        alpha = 1.0 - beta
        det = (y - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
        return det, np.sqrt(beta) if n != 1 else np.zeros(np.shape(beta))
    sigma = eta * np.sqrt(beta * (1.0 - abar_prev) * (1.0 - abar))
    resid = 1.0 - abar_prev - sigma**2
    if np.any(resid < -1e-9):
        raise ScheduleError(f"inconsistent schedule: 1 - abar_prev - sigma^2 = {np.min(resid)}")
    resid = np.maximum(resid, 0.0)
    det = np.sqrt(abar_prev) * predicted_clean(y, eps_hat, abar) + np.sqrt(resid) * eps_hat
    return det, sigma


def _public_step(y_n, eps_hat, n: int, schedule: NoiseSchedule, z, rule: str, eta: float):
    y_n = np.asarray(y_n, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if not (1 <= n <= len(schedule)):
        raise ScheduleError(f"step index {n} outside schedule of length {len(schedule)}")
    if eps_hat.shape != y_n.shape or z.shape != y_n.shape:
        raise ShapeError("eps_hat and z must match the state shape")
    det, scale = _reverse_step(
        y_n, eps_hat, n, schedule.betas[n - 1],
        schedule.alpha_bar(n), schedule.alpha_bar(n - 1), rule, eta,
    )
    return det + scale * z


def ddpm_update(y_n, eps_hat, n: int, schedule: NoiseSchedule, z) -> np.ndarray:
    """Stochastic reverse step; injects sqrt(beta_n)*z except at n = 1."""
    return _public_step(y_n, eps_hat, n, schedule, z, "ddpm", 0.0)


def ddim_update(y_n, eps_hat, n: int, schedule: NoiseSchedule, eta: float, z) -> np.ndarray:
    """Reverse step through the predicted clean sample; deterministic at eta = 0."""
    return _public_step(y_n, eps_hat, n, schedule, z, "ddim", eta)


def predicted_clean(y_n, eps_hat, abar) -> np.ndarray:
    """Invert the closed-form corruption given a noise prediction."""
    y_n = np.asarray(y_n, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (y_n - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)


def _solved_beta(ab_hat: np.ndarray, n: int, kind: str, beta0: float):
    """k -> beta_k of the clipped remaining n-step schedules, one per chain."""
    return lambda k: clamp_betas(_solve_batch(ab_hat, n, kind, beta0, k - 1, k)[0])[0]


def _reverse_engine(
    denoiser: Denoiser,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    estimator: Estimator | None,
    adjust: frozenset[int],
    batch: int,
    y_init: np.ndarray | None,
    train_bounds: np.ndarray | None,
) -> SamplingRun:
    n_steps = cfg.steps
    if len(schedule) != n_steps:
        raise ScheduleError(f"schedule length {len(schedule)} != configured steps {n_steps}")
    if adjust and estimator is None:
        raise ValueError("adjustment steps configured but no estimator supplied")
    if cfg.conditioning_mode != denoiser.conditioning_mode:
        raise ConfigError(
            f"sampler conditioning {cfg.conditioning_mode!r} does not match the "
            f"denoiser's {denoiser.conditioning_mode!r}"
        )
    if cfg.conditioning_mode == "discrete_index" and train_bounds is None:
        raise ValueError("discrete_index conditioning needs the training boundary table")
    dim = denoiser.data_dim

    if y_init is None:
        y = rng.standard_normal((batch, dim))
    else:
        y = np.array(y_init, dtype=np.float64)
        if y.shape != (batch, dim):
            raise ShapeError(f"y_init shape {y.shape} != {(batch, dim)}")
    y_start = y.copy()

    # the in-force schedule: a view of alpha_bar rows ending at alpha_bar_n of
    # the step about to run, one column shared or one per chain; beta_of(n)
    # is beta_n of the same schedule
    abar = np.concatenate([[1.0], schedule.alpha_bars])[:, None]
    beta_of = lambda k: schedule.betas[k - 1:k]
    kind, beta0 = cfg.family.kind, cfg.family.beta0

    trace: list[StepRecord] = []
    clamp_events = 0
    run_t0 = time.perf_counter()

    for n in range(n_steps, 0, -1):
        t0 = time.perf_counter()
        beta_n, abar_n, abar_prev = beta_of(n), abar[-1], abar[-2]
        abar = abar[:-1]
        # chain 0's step, under the schedule in force before any re-solve
        rec = StepRecord(n=n, alpha_hat=None, beta=float(beta_n[0]),
                         alpha_bar=float(abar_n[0]), wall_ms=0.0)

        if cfg.conditioning_mode == "discrete_index":
            t_idx = _indices_for_levels(abar_n, train_bounds)
            cond = t_idx / float(train_bounds.size - 1)
        else:
            cond = np.sqrt(abar_n)
        eps_hat = denoiser.predict(y, cond)
        z = rng.standard_normal((batch, dim))
        y_det, noise_scale = _reverse_step(
            y, eps_hat, n, beta_n[:, None], abar_n[:, None], abar_prev[:, None],
            cfg.update_rule, cfg.eta,
        )

        if n in adjust:
            ab_hat = estimator.predict(y_det)
            check_finite(ab_hat, f"estimate at step {n}")
            ab_hat = np.clip(ab_hat, AB_CLAMP, 1.0 - AB_CLAMP)
            rec.alpha_hat = float(ab_hat[0])
            if n > 1:
                # the new schedule governs steps down to the next re-solve's
                lo = next((k for k in range(n - 1, 1, -1) if k in adjust), 1)
                abar, n_clamped = _solve_window(ab_hat, n - 1, kind, beta0, lo)
                beta_of = _solved_beta(ab_hat, n - 1, kind, beta0)
                clamp_events += n_clamped

        y = y_det + noise_scale * z
        check_finite(y, f"state after step {n}")
        rec.wall_ms = (time.perf_counter() - t0) * 1e3
        trace.append(rec)

    return SamplingRun(
        y0=y,
        steps=trace,
        y_init=y_start,
        clamp_events=clamp_events,
        wall_ms=(time.perf_counter() - run_t0) * 1e3,
    )


def _single_chain(denoiser, schedule, cfg, rng, estimator, adjust, y_init, train_bounds):
    run = _reverse_engine(
        denoiser, schedule, cfg, rng,
        estimator=estimator, adjust=adjust, batch=1,
        y_init=None if y_init is None else np.atleast_2d(y_init),
        train_bounds=train_bounds,
    )
    run.y0 = run.y0[0]
    run.y_init = run.y_init[0]
    return run


def sample_fixed(
    denoiser: Denoiser,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    train_bounds: np.ndarray | None = None,
    y_init: np.ndarray | None = None,
) -> SamplingRun:
    """Run the reverse process once under an unchanging schedule."""
    return _single_chain(denoiser, schedule, cfg, rng, None, frozenset(), y_init, train_bounds)


def sample_adaptive(
    denoiser: Denoiser,
    estimator: Estimator,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    train_bounds: np.ndarray | None = None,
    y_init: np.ndarray | None = None,
) -> SamplingRun:
    """Reverse process with estimator-driven schedule re-solves at cfg.adjustment_set."""
    return _single_chain(
        denoiser, initial_noise_schedule(cfg), cfg, rng,
        estimator, cfg.adjustment_set, y_init, train_bounds,
    )


def sample_batch(
    denoiser: Denoiser,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    batch: int,
    estimator: Estimator | None = None,
    adaptive: bool = False,
    train_bounds: np.ndarray | None = None,
    y_init: np.ndarray | None = None,
) -> SamplingRun:
    """Evolve a batch of independent chains in one vectorized run."""
    if batch < 1:
        raise ShapeError(f"batch must be >= 1, got {batch}")
    return _reverse_engine(
        denoiser, initial_noise_schedule(cfg), cfg, rng,
        estimator=estimator if adaptive else None,
        adjust=cfg.adjustment_set if adaptive else frozenset(),
        batch=batch, y_init=y_init, train_bounds=train_bounds,
    )
