"""Noise-schedule algebra and the closed-form remaining-schedule solvers.

A schedule is a per-step noise sequence beta_1..beta_N with derived
cumulative retentions alpha_bar_n = prod_{i<=n}(1 - beta_i) and interval
boundaries l_0..l_N (their square roots, l_0 = 1). Two solver families
reconstruct a schedule for a given remaining step count from a target
cumulative retention: an arithmetic progression and a Fibonacci
recurrence with golden-ratio closed form.

Each formula has one vectorized implementation that the sampler runs
per chain: _solve_batch (both closed forms, at any rows, optionally into
a given buffer), clamp_betas (the beta clip) and _indices_for_levels (the
level-to-interval lookup). _solve_window folds the first two into
alpha_bars block by block through one reused buffer, clipping in place
only the blocks that can clamp. solve_linear, solve_fibonacci,
update_noise_schedule and index_for_level are their validated batch-1
views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError

BETA_FLOOR = 1e-6
BETA_CEIL = 0.999

WINDOW_BLOCK = 128  # schedule rows per block of _solve_window's alpha_bar fold

PHI = (1.0 + math.sqrt(5.0)) / 2.0
PHI_CONJ = (1.0 - math.sqrt(5.0)) / 2.0

FAMILIES = ("linear", "fibonacci")


def _validate_betas(betas, floor: float) -> np.ndarray:
    b = np.asarray(betas, dtype=np.float64)
    if b.ndim != 1 or b.size == 0:
        raise ScheduleError("betas must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(b)):
        raise ScheduleError("betas contain non-finite entries")
    if np.any(b < floor) or np.any(b > BETA_CEIL):
        raise ScheduleError(f"betas outside [{floor}, {BETA_CEIL}]")
    return b


def cumulative_alpha_bar(betas) -> np.ndarray:
    """Cumulative retention alpha_bar_1..alpha_bar_N."""
    b = _validate_betas(betas, floor=0.0)
    return np.cumprod(1.0 - b)


def boundaries(betas) -> np.ndarray:
    """Interval boundaries l_0..l_N, l_s = sqrt(prod_{i<=s}(1 - beta_i))."""
    return np.concatenate([[1.0], np.sqrt(cumulative_alpha_bar(betas))])


@dataclass(frozen=True)
class NoiseSchedule:
    """Beta sequence with derived alpha-bar and boundary arrays.

    Every beta lies in [BETA_FLOOR, BETA_CEIL] and alpha_bar_N > 0.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray
    boundaries: np.ndarray
    clamped: int = 0  # solver entries that hit the beta clamp

    @classmethod
    def from_betas(cls, betas, clamped: int = 0) -> "NoiseSchedule":
        b = _validate_betas(betas, floor=BETA_FLOOR)
        alpha_bars = cumulative_alpha_bar(b)
        if alpha_bars[-1] == 0.0:
            first = int(np.argmax(alpha_bars == 0.0)) + 1
            raise ScheduleError(f"alpha_bar underflows to 0 at step {first} of {b.size}")
        return cls(
            betas=b,
            alpha_bars=alpha_bars,
            boundaries=boundaries(b),
            clamped=clamped,
        )

    def __len__(self) -> int:
        return self.betas.size

    def alpha_bar(self, n: int) -> float:
        """alpha_bar_n with alpha_bar_0 defined as 1."""
        if n == 0:
            return 1.0
        return float(self.alpha_bars[n - 1])


@dataclass(frozen=True)
class ScheduleFamily:
    """Solver selector: schedule kind plus its first noise parameter."""

    kind: str
    beta0: float

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ScheduleError(f"unknown schedule family {self.kind!r}")
        if not (1e-6 <= self.beta0 <= 1e-2):
            raise ScheduleError(f"beta0 {self.beta0} outside [1e-6, 1e-2]")


def clamp_betas(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip betas into [BETA_FLOOR, BETA_CEIL]; also returns how many moved."""
    clamped = np.clip(raw, BETA_FLOOR, BETA_CEIL)
    return clamped, int(np.count_nonzero(clamped != raw))


def _solve_batch(
    ab_hat: np.ndarray, n: int, kind: str, beta0: float, start: int = 0, stop: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unclamped remaining n-step betas for a batch of targets, one column each.

    Rows start..stop-1 (default all n) of the solution: entry [j, c] is
    chain c's beta_{start+j+1}. With out, a (rows, batch) array, the rows
    are written into it and it is returned. The single solver behind
    solve_linear, solve_fibonacci, update_noise_schedule and the sampler's
    re-solves.
    """
    i = np.arange(start, n if stop is None else stop, dtype=np.float64)[:, None]
    if out is None:
        out = np.empty((i.shape[0], ab_hat.size))
    if n == 1:
        out[...] = 1.0 - ab_hat
    elif kind == "linear":
        x = np.log(ab_hat)  # x = -2 * (log(ab_hat) + n * beta0) / (n * (n - 1))
        x += n * beta0
        x *= -2.0
        x /= n * (n - 1)
        np.multiply(x, i, out=out)
        out += beta0  # the bits of beta0 + x * i
    elif n == 2:
        out[...] = np.where(i == 0, beta0, -np.log(ab_hat) - beta0)
    else:
        target = -np.log(ab_hat)
        geo = lambda r: (r**n - 1.0) / (r - 1.0)
        a = (target - beta0 * geo(PHI_CONJ)) / (geo(PHI) - geo(PHI_CONJ))
        b = beta0 - a
        np.multiply(a, PHI**i, out=out)
        out += b * PHI_CONJ**i
    return out


def _solve_window(ab_hat: np.ndarray, n: int, kind: str, beta0: float, lo: int):
    """alpha_bar_{lo-1}..alpha_bar_n of the clamped remaining n-step schedules.

    Returns (abar, clamped) in a (steps, batch) layout: abar[k - lo + 1] =
    alpha_bar_k for k in lo-1..n, and clamped counts the clipped entries of
    all n rows. beta_k itself is row k-1 of _solve_batch, clipped. The
    alpha_bar_{lo-1} prefix is folded through one (WINDOW_BLOCK, batch)
    buffer and the window filled in blocks of as many rows; the alpha_bars
    are sequential products along axis 0, so each has the bits of
    cumulative_alpha_bar on the whole schedule. A block is clipped only if
    it can clamp: linear rows are monotone in i, so its first and last rows
    bound it; Fibonacci rows alternate, so its own min and max do.
    """
    def solve_clamped(start, stop, out):
        nonlocal clamped
        block = _solve_batch(ab_hat, n, kind, beta0, start, stop, out)
        bounds = block[::max(len(block) - 1, 1)] if kind == "linear" else block
        if bounds.min() < BETA_FLOOR or bounds.max() > BETA_CEIL:
            # for finite betas, the entries clamp_betas would move
            moved = np.count_nonzero(block < BETA_FLOOR) + np.count_nonzero(block > BETA_CEIL)
            clamped += int(moved)
            np.clip(block, BETA_FLOOR, BETA_CEIL, out=block)
        return np.subtract(1.0, block, out=block)

    clamped = 0
    prefix = np.ones(ab_hat.size)  # alpha_bar after the rows folded so far
    buf = np.empty((min(WINDOW_BLOCK, lo - 1), ab_hat.size))
    for start in range(0, lo - 1, WINDOW_BLOCK):
        stop = min(start + WINDOW_BLOCK, lo - 1)
        block = solve_clamped(start, stop, buf[:stop - start])
        block[0] *= prefix
        np.multiply.reduce(block, axis=0, out=prefix)
    abar = np.empty((n - lo + 2, ab_hat.size))
    abar[0] = prefix
    for start in range(lo - 1, n, WINDOW_BLOCK):
        stop = min(start + WINDOW_BLOCK, n)
        solve_clamped(start, stop, abar[start - lo + 2:stop - lo + 2])
    for k in range(1, abar.shape[0]):
        abar[k] *= abar[k - 1]
    return abar, clamped


def _solve_one(alpha_bar_hat: float, n: int, kind: str, beta0: float) -> np.ndarray:
    if n < 1:
        raise ScheduleError(f"remaining step count must be >= 1, got {n}")
    if not (0.0 < alpha_bar_hat < 1.0) or not math.isfinite(alpha_bar_hat):
        raise ScheduleError(f"target alpha_bar {alpha_bar_hat} outside (0, 1)")
    return _solve_batch(np.array([alpha_bar_hat], dtype=np.float64), n, kind, beta0)[:, 0]


def solve_linear(alpha_bar_hat: float, n: int, beta0: float, clamp: bool = True) -> np.ndarray:
    """Arithmetic-progression betas: beta_i = beta0 + i*x, i = 0..n-1.

    The common difference is x = -2*(log(alpha_bar_hat) + n*beta0)/(n*(n-1)),
    which makes the beta sum equal -log(alpha_bar_hat) exactly. n = 1 returns
    the exact single-step schedule [1 - alpha_bar_hat] regardless of beta0.
    With clamp=True (default) entries are clipped into [1e-6, 0.999]; pass
    clamp=False to inspect the raw solution.
    """
    raw = _solve_one(alpha_bar_hat, n, "linear", beta0)
    return clamp_betas(raw)[0] if clamp else raw


def solve_fibonacci(alpha_bar_hat: float, n: int, beta0: float, clamp: bool = True) -> np.ndarray:
    """Fibonacci-recurrence betas via the golden-ratio closed form.

    For n >= 3, beta_i = A*phi**i + B*phi'**i with phi, phi' the roots of
    x^2 - x - 1, where (A, B) solve {A + B = beta0; sum beta_i =
    -log(alpha_bar_hat)} using geometric-series sums. n = 1 is the exact
    single-step schedule; n = 2 pins beta0 and sets beta_1 from the sum.
    """
    raw = _solve_one(alpha_bar_hat, n, "fibonacci", beta0)
    return clamp_betas(raw)[0] if clamp else raw


def update_noise_schedule(alpha_bar_hat: float, n: int, family: ScheduleFamily) -> NoiseSchedule:
    """Re-derive the remaining n-step schedule from an estimated alpha-bar."""
    betas, n_clamped = clamp_betas(_solve_one(alpha_bar_hat, n, family.kind, family.beta0))
    return NoiseSchedule.from_betas(betas, clamped=n_clamped)


def _indices_for_levels(ab: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Interval index t in [1, N] with sqrt(ab) in [l_t, l_{t-1}], per entry."""
    level = np.sqrt(ab)
    # bounds is decreasing: find first t with bounds[t] <= level
    t = np.searchsorted(-bounds, -level, side="left")
    return np.clip(t, 1, bounds.size - 1)


def index_for_level(alpha_bar_hat: float, bounds: np.ndarray) -> int:
    """Interval index t >= 1 with sqrt(alpha_bar_hat) in [l_t, l_{t-1}].

    Out-of-range levels clamp to the first/last interval. bounds must be
    strictly decreasing with bounds[0] == 1.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.size < 2 or bounds[0] != 1.0 or np.any(np.diff(bounds) >= 0):
        raise ScheduleError("boundaries must start at 1 and strictly decrease")
    return int(_indices_for_levels(np.array([alpha_bar_hat], dtype=np.float64), bounds)[0])
