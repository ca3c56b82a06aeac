"""Noise schedules: the fixed schedules, their derived rows and the
closed-form remaining-schedule solvers.

A schedule is a per-step noise sequence beta_1..beta_N with derived
cumulative retentions alpha_bar_n = prod_{i<=n}(1 - beta_i) and interval
boundaries l_0..l_N (their square roots, l_0 = 1). NoiseSchedule.from_betas
is the one path from betas to these rows, and holds the one validity rule:
every beta in [BETA_FLOOR, BETA_CEIL]. ScheduleFamily.fixed builds each
family's fixed N-step schedule, the sampler's start schedule and (linear,
beta0 = 1e-4) the training schedule. Two solver families
reconstruct a schedule for a given remaining step count from a target
cumulative retention: an arithmetic progression and a Fibonacci
recurrence with golden-ratio closed form. Both are read in log space,
gamma = -log(1 - beta), so gammas that sum to -log(alpha_bar_hat) meet
prod(1 - beta) = alpha_bar_hat exactly. A re-solve in the Fibonacci
family takes the recurrence where every gamma fits the beta bounds and
the linear form where only that one fits; a target that no form fits is
first projected, so that no gamma is clipped.

Each solver formula has one vectorized implementation that the sampler
runs per chain: _ClosedForm (one expression for both forms, four
coefficients per chain), _solve_batch (each form's coefficients) and
_project (the target projection and the choice of form). solve_linear
and solve_fibonacci are raw batch-1 views of _solve_batch, and
update_noise_schedule is the batch-1 view of _project.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ScheduleError

BETA_FLOOR = 1e-6
BETA_CEIL = 0.999

# gamma = -log(1 - beta) at the beta bounds
GAMMA_FLOOR = -math.log1p(-BETA_FLOOR)
GAMMA_CEIL = -math.log1p(-BETA_CEIL)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
PHI_CONJ = (1.0 - math.sqrt(5.0)) / 2.0
FIB_REACH = 34  # the longest Fibonacci schedule that fits the beta bounds (beta0 = 1e-6)
_PHI_POW_MAX = 1473  # the largest k with PHI**k and its geometric sum finite in float64

FAMILIES = ("linear", "fibonacci")


@dataclass(frozen=True)
class NoiseSchedule:
    """Beta sequence with derived alpha-bar and boundary arrays.

    Every beta lies in [BETA_FLOOR, BETA_CEIL] and alpha_bar_N > 0.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray
    boundaries: np.ndarray
    clamped: int = 0  # 1 if the solver projected its target, else 0

    @classmethod
    def from_betas(cls, betas) -> "NoiseSchedule":
        """The schedule of a non-empty beta sequence inside [BETA_FLOOR, BETA_CEIL]."""
        b = np.asarray(betas, dtype=np.float64)
        if b.ndim != 1 or b.size == 0:
            raise ScheduleError("betas must be a non-empty 1-D sequence")
        if not np.all((b >= BETA_FLOOR) & (b <= BETA_CEIL)):  # NaN fails too
            raise ScheduleError(f"betas outside [{BETA_FLOOR}, {BETA_CEIL}]")
        return cls._from_rows(b, np.cumprod(1.0 - b))

    @classmethod
    def _from_rows(cls, betas: np.ndarray, alpha_bars: np.ndarray, clamped: int = 0):
        if alpha_bars[-1] == 0.0:
            first = int(np.argmax(alpha_bars == 0.0)) + 1
            raise ScheduleError(f"alpha_bar underflows to 0 at step {first} of {betas.size}")
        bounds = np.concatenate([[1.0], np.sqrt(alpha_bars)])
        return cls(betas=betas, alpha_bars=alpha_bars, boundaries=bounds, clamped=clamped)

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

    def fixed(self, n: int) -> NoiseSchedule:
        """The fixed n-step schedule: linear betas evenly spaced from beta0 to
        2e-2, or the Fibonacci recurrence seeded (beta0, beta0); clipped into
        [BETA_FLOOR, BETA_CEIL]."""
        if self.kind == "linear":
            betas = np.linspace(self.beta0, 2e-2, n)
        else:
            seq = [self.beta0, self.beta0]
            while len(seq) < n:
                seq.append(seq[-1] + seq[-2])
            betas = np.array(seq[:n])
        return NoiseSchedule.from_betas(np.clip(betas, BETA_FLOOR, BETA_CEIL))


def _geo(r: float, k):  # 1 + r + ... + r**(k-1)
    return (np.power(r, k) - 1.0) / (r - 1.0)


class _ClosedForm(NamedTuple):
    """gamma_i = c + d*i + e*PHI**i + f*PHI_CONJ**i, one (c, d, e, f) per
    chain: the linear form has e = f = 0, the Fibonacci form c = d = 0. Step
    k reads beta_k = -expm1(-gamma_{k-1}) and alpha_bar_k =
    exp(-sum_{i<k} gamma_i), each sum in closed form. PHI's powers stop at
    _PHI_POW_MAX, so a zero e stays zero at any step count."""

    c: np.ndarray | float
    d: np.ndarray | float
    e: np.ndarray | float = 0.0
    f: np.ndarray | float = 0.0

    # the d term comes last: a linear form's other terms are scalars, so its
    # per-step reads cost the array operations of c + d*i alone
    def gamma(self, i):
        phi_i = np.power(PHI, np.minimum(i, _PHI_POW_MAX))
        return self.c + self.e * phi_i + self.f * np.power(PHI_CONJ, i) + self.d * i

    def beta(self, k):
        # the clip moves a rounding error only, or a beta0 below GAMMA_FLOOR
        return np.clip(-np.expm1(-self.gamma(k - 1)), BETA_FLOOR, BETA_CEIL)

    def alpha_bar(self, k):
        phi_sum = self.e * _geo(PHI, np.minimum(k, _PHI_POW_MAX))
        return np.exp(-(self.c * k + phi_sum + self.f * _geo(PHI_CONJ, k)
                        + self.d * (k * (k - 1) / 2)))


def _solve_batch(target: np.ndarray, n: int, kind: str, beta0: float) -> _ClosedForm:
    """The n-step closed forms whose gammas sum to target = -log(alpha_bar_hat),
    one per entry: gamma_0 = target at n = 1, else gamma_0 = beta0 and an
    arithmetic progression (linear; fibonacci at n = 2) or the recurrence."""
    if n == 1:
        return _ClosedForm(target, 0.0)
    if kind == "linear" or n == 2:
        return _ClosedForm(beta0, 2.0 * (target - n * beta0) / (n * (n - 1)))
    g, g_conj = _geo(PHI, n), _geo(PHI_CONJ, n)
    a = (target - beta0 * g_conj) / (g - g_conj)
    return _ClosedForm(0.0, 0.0, a, beta0 - a)


def _project(ab_hat: np.ndarray, n: int, kind: str, beta0: float) -> tuple[_ClosedForm, int]:
    """The remaining n-step closed forms for a batch of targets, and how many
    targets no form of the family meets. Each form has an interval of
    T = -log(alpha_bar_hat) where every gamma lies in [GAMMA_FLOOR,
    GAMMA_CEIL]; a target outside the union of the family's intervals is
    projected into it, and then each chain takes the Fibonacci recurrence
    if its T lies in that form's interval, else the linear form.

    Each gamma_i is affine in T. Linear gammas run from beta0 to gamma_{n-1},
    which sets both ends, except that gamma_1 sets the floor end when beta0
    lies below GAMMA_FLOOR; Fibonacci gammas grow along i, so gamma_1 sets
    the floor end. The Fibonacci interval is empty past some n (FIB_REACH at
    beta0 = 1e-6, 17 at 1e-2), and where it is not it overlaps the linear
    one, so the union is one interval.
    """
    def ends(kind, floor_row):  # T at gamma_floor_row = GAMMA_FLOOR, gamma_{n-1} = GAMMA_CEIL
        rows = np.array([[floor_row], [n - 1]])
        g = _solve_batch(np.array([0.0, 1.0]), n, kind, beta0).gamma(rows)
        return (np.array([GAMMA_FLOOR, GAMMA_CEIL]) - g[:, 0]) / (g[:, 1] - g[:, 0])

    lo, hi = ends("linear", 1 if beta0 < GAMMA_FLOOR else n - 1)
    f_lo, f_hi = ends(kind, 1) if kind == "fibonacci" and 2 < n <= FIB_REACH else (np.inf, -np.inf)
    if f_lo <= f_hi:
        lo, hi = min(lo, f_lo), max(hi, f_hi)
    target = -np.log(ab_hat)
    moved = np.count_nonzero(target < lo) + np.count_nonzero(target > hi)
    target = np.clip(target, lo, hi)
    form = _solve_batch(target, n, "linear", beta0)
    if f_lo <= f_hi:  # the recurrence for each chain in the Fibonacci interval
        fib = (f_lo <= target) & (target <= f_hi)
        form = _ClosedForm(*map(np.where, [fib] * 4, _solve_batch(target, n, kind, beta0), form))
    return form, int(moved)


def _check_target(alpha_bar_hat: float, n: int) -> None:
    if n < 1:
        raise ScheduleError(f"remaining step count must be >= 1, got {n}")
    if not (0.0 < alpha_bar_hat < 1.0):  # NaN and +-inf fail too
        raise ScheduleError(f"target alpha_bar {alpha_bar_hat} outside (0, 1)")


def _solve_one(alpha_bar_hat: float, n: int, kind: str, beta0: float) -> np.ndarray:
    _check_target(alpha_bar_hat, n)
    return _solve_batch(-np.log([alpha_bar_hat]), n, kind, beta0).gamma(np.arange(n))


def solve_linear(alpha_bar_hat: float, n: int, beta0: float) -> np.ndarray:
    """Arithmetic-progression gammas: gamma_i = beta0 + i*x, i = 0..n-1.

    The common difference is x = -2*(log(alpha_bar_hat) + n*beta0)/(n*(n-1)),
    which makes the sum equal -log(alpha_bar_hat) exactly. n = 1 returns
    [-log(alpha_bar_hat)] regardless of beta0. The gammas are raw: for a
    target no form reaches they leave [GAMMA_FLOOR, GAMMA_CEIL], the gammas
    of the beta bounds. update_noise_schedule is the solve that projects.
    """
    return _solve_one(alpha_bar_hat, n, "linear", beta0)


def solve_fibonacci(alpha_bar_hat: float, n: int, beta0: float) -> np.ndarray:
    """Fibonacci-recurrence gammas via the golden-ratio closed form.

    For n >= 3, gamma_i = A*phi**i + B*phi'**i with phi, phi' the roots of
    x^2 - x - 1, where (A, B) solve {A + B = beta0; sum gamma_i =
    -log(alpha_bar_hat)} using geometric-series sums. n = 1 is as in
    solve_linear; n = 2 pins beta0 and sets gamma_1 from the sum. The
    gammas are raw, as in solve_linear.
    """
    return _solve_one(alpha_bar_hat, n, "fibonacci", beta0)


def update_noise_schedule(alpha_bar_hat: float, n: int, family: ScheduleFamily) -> NoiseSchedule:
    """Re-derive the remaining n-step schedule from an estimated alpha-bar.

    The target is met to rounding by the family's Fibonacci recurrence or
    linear form, or projected first if no form meets it (clamped = 1); the
    rows have the bits the sampler's re-solve gives each chain.
    """
    _check_target(alpha_bar_hat, n)
    form, moved = _project(np.array([alpha_bar_hat]), n, family.kind, family.beta0)
    k = np.arange(1, n + 1, dtype=np.float64)
    return NoiseSchedule._from_rows(form.beta(k), form.alpha_bar(k), moved)
