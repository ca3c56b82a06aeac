"""Reverse-process sampling: fixed schedules and mid-run schedule adaptation.

The adaptive procedure runs the usual reverse updates but, at a configured
set of step indices, asks the noise-level estimator where the chain
actually is and re-derives the remaining schedule in closed form. A step
always executes (mean update and its noise injection) under the schedule
in force when it started; a re-solve triggered at step n governs steps
n-1 .. 1.

A re-solve first guards each chain's estimate, alpha_bar_hat <-
max(alpha_bar_hat, in-force alpha_bar_{n-1}), so it can move the rest of
a chain's schedule toward less noise only; the paper lets it move either
way, and unguarded, noisy estimates push chains back into noise.

One vectorized engine evolves a batch of independent chains; the public
single-chain operations are batch-1 wrappers over it. Its state is the
schedule in force as k -> alpha_bar_k and k -> beta_k: the start
schedule's table (the family's ScheduleFamily.fixed), shared by all
chains, or the last re-solve's closed form, four coefficients per chain
(each chain's Fibonacci recurrence or linear form), so steps and
re-solves are O(batch). A re-solve reads its interval ends, which depend
on the remaining step count only, from a table the run builds once
(_interval_ends). Both networks run through the models' predict
(Network.apply: float32 layers, no checks); the
engine's own arithmetic stays float64. It checks the
estimate and the state once per step, so a non-finite value, including a
state beyond float32's range that the networks turned into inf, raises
at the step that made it. A step record holds the beta_n and alpha_bar_n
that chain 0's step ran under, so a trace is O(N): the target of a
re-solve at step n is the next record's alpha_bar, and chain 0's schedule
after it is update_noise_schedule(next.alpha_bar, n - 1, cfg.family), to
rounding. The engine runs the public formulas' code: _reverse_step
(behind ddpm_update and ddim_update, with DDIM's sigma from eq. 16 of
arXiv:2010.02502) and _project (behind update_noise_schedule). The
denoiser is conditioned on the in-force level sqrt(alpha_bar_n) of each
chain, whatever schedule set it.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .diffusion import AB_CLAMP
from .errors import ScheduleError, ShapeError
from .models import Denoiser, Estimator, _require_continuous
from .nn import check_finite
from .schedule import NoiseSchedule, ScheduleFamily, _interval_ends, _project

UPDATE_RULES = ("ddpm", "ddim")


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
        for u in self.adjustment_set:  # 2.5 would match no step and turn adaptation off
            if not (isinstance(u, numbers.Integral) and 1 <= u <= self.steps):
                raise ValueError(f"adjustment step {u!r} is not an integer in 1..{self.steps}")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        if not (0.0 <= self.eta <= 1.0):  # NaN fails too; DDIM's sigma needs eta <= 1
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        _require_continuous(self.conditioning_mode)
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
    """Fixed N-step baseline for the configured family (ScheduleFamily.fixed)."""
    return cfg.family.fixed(cfg.steps)


def _reverse_step(y, eps_hat, n: int, beta, abar, abar_prev, rule: str, eta: float):
    """One DDPM or DDIM reverse step, split as (deterministic part, noise scale).

    The step's result is det + scale * z; the engine keeps the two apart
    because the estimator reads det, the state before noise is added.
    beta, abar = alpha_bar_n and abar_prev = alpha_bar_{n-1} are scalars
    or per-chain columns that broadcast against the state y. DDIM's noise
    scale is eq. 16 of arXiv:2010.02502, sigma^2 = eta^2 * beta *
    (1 - abar_prev) / (1 - abar), which at eta = 1 is DDPM's posterior
    variance; beta <= 1 - abar keeps 1 - abar_prev - sigma^2 >= 0 for
    eta <= 1.
    """
    if rule == "ddpm":
        alpha = 1.0 - beta
        det = (y - (1.0 - alpha) / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
        return det, np.sqrt(beta) if n != 1 else np.zeros(np.shape(beta))
    sigma = eta * np.sqrt(beta * (1.0 - abar_prev) / (1.0 - abar))
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


def _reverse_engine(
    denoiser: Denoiser,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    estimator: Estimator | None,
    adjust: frozenset[int],
    batch: int,
    y_init: np.ndarray | None,
) -> SamplingRun:
    n_steps = cfg.steps
    if len(schedule) != n_steps:
        raise ScheduleError(f"schedule length {len(schedule)} != configured steps {n_steps}")
    if adjust and estimator is None:
        raise ValueError("adjustment steps configured but no estimator supplied")
    dim = denoiser.data_dim

    if y_init is None:
        y = rng.standard_normal((batch, dim))
    else:
        y = np.array(y_init, dtype=np.float64)
        if y.shape != (batch, dim):
            raise ShapeError(f"y_init shape {y.shape} != {(batch, dim)}")
    y_start = y.copy()

    # the schedule in force: one shared column until a re-solve
    abar_table = np.concatenate([[1.0], schedule.alpha_bars])
    abar_of = lambda k: abar_table[k:k + 1]
    beta_of = lambda k: schedule.betas[k - 1:k]
    kind, beta0 = cfg.family.kind, cfg.family.beta0
    if adjust:  # row n - 1: the feasible targets of a re-solve for n remaining steps
        ends = _interval_ends(np.arange(1, n_steps), kind, beta0)

    trace: list[StepRecord] = []
    clamp_events = 0
    run_t0 = time.perf_counter()

    for n in range(n_steps, 0, -1):
        t0 = time.perf_counter()
        beta_n, abar_n, abar_prev = beta_of(n), abar_of(n), abar_of(n - 1)
        # chain 0's step, under the schedule in force before any re-solve
        rec = StepRecord(n=n, alpha_hat=None, beta=float(beta_n[0]),
                         alpha_bar=float(abar_n[0]), wall_ms=0.0)

        eps_hat = denoiser.predict(y, np.sqrt(abar_n))
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
                guarded = np.maximum(ab_hat, abar_prev)  # toward less noise only
                form, n_projected = _project(guarded, n - 1, kind, beta0, ends[n - 2])
                abar_of, beta_of = form.alpha_bar, form.beta
                clamp_events += n_projected

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


def _single_chain(denoiser, schedule, cfg, rng, estimator, adjust, y_init):
    run = _reverse_engine(
        denoiser, schedule, cfg, rng,
        estimator=estimator, adjust=adjust, batch=1,
        y_init=None if y_init is None else np.atleast_2d(y_init),
    )
    run.y0 = run.y0[0]
    run.y_init = run.y_init[0]
    return run


def sample_fixed(
    denoiser: Denoiser,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    y_init: np.ndarray | None = None,
) -> SamplingRun:
    """Run the reverse process once under an unchanging schedule."""
    return _single_chain(denoiser, schedule, cfg, rng, None, frozenset(), y_init)


def sample_adaptive(
    denoiser: Denoiser,
    estimator: Estimator,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    y_init: np.ndarray | None = None,
) -> SamplingRun:
    """Reverse process with estimator-driven schedule re-solves at cfg.adjustment_set."""
    return _single_chain(
        denoiser, initial_noise_schedule(cfg), cfg, rng,
        estimator, cfg.adjustment_set, y_init,
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
    """Evolve a batch of independent chains in one vectorized run.

    train_bounds is not read. It remains so that callers written when the
    denoiser could be conditioned on a training interval index, which
    needed that table, still run.
    """
    if batch < 1:
        raise ShapeError(f"batch must be >= 1, got {batch}")
    return _reverse_engine(
        denoiser, initial_noise_schedule(cfg), cfg, rng,
        estimator=estimator if adaptive else None,
        adjust=cfg.adjustment_set if adaptive else frozenset(),
        batch=batch, y_init=y_init,
    )
