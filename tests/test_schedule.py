import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.errors import ScheduleError
from adadiffuse.schedule import (
    BETA_CEIL,
    BETA_FLOOR,
    PHI,
    GAMMA_CEIL,
    GAMMA_FLOOR,
    PHI_CONJ,
    NoiseSchedule,
    ScheduleFamily,
    solve_fibonacci,
    solve_linear,
    update_noise_schedule,
)

SOLVER_GRID = [
    (ab, n, b0)
    for ab in (0.9, 0.5, 0.1)
    for n in (3, 6, 10, 25, 35, 40, 100, 1000)  # past FIB_REACH the raw forms still hold
    for b0 in (1e-6, 1e-4, 1e-3)
]


def test_boundaries_rejects_empty():
    with pytest.raises(ScheduleError):
        NoiseSchedule.from_betas([])


def test_boundaries_single_step():
    np.testing.assert_allclose(NoiseSchedule.from_betas([0.19]).boundaries, [1.0, 0.9], atol=1e-15)


def test_boundaries_product_oracle():
    l = NoiseSchedule.from_betas(np.full(10, 0.01)).boundaries
    assert l[10] == pytest.approx(math.sqrt(0.99**10), abs=1e-15)
    assert l.size == 11


def test_cumulative_alpha_bar_trivial():
    np.testing.assert_allclose(NoiseSchedule.from_betas([0.5, 0.5]).alpha_bars, [0.5, 0.25],
                               atol=1e-15)


def test_boundary_square_identity():
    rng = np.random.default_rng(5)
    sched = NoiseSchedule.from_betas(rng.uniform(1e-4, 0.05, size=20))
    np.testing.assert_allclose(sched.boundaries[1:] ** 2, sched.alpha_bars, atol=1e-12)


def test_solve_linear_constant_when_target_matches():
    beta0 = 0.01
    n = 5
    betas = solve_linear(math.exp(-n * beta0), n, beta0)
    np.testing.assert_allclose(betas, np.full(n, beta0), atol=1e-12)


def test_solve_linear_single_step_exact():
    # the one-step gamma; read as beta = -expm1(-gamma) it is 1 - 0.6
    np.testing.assert_allclose(solve_linear(0.6, 1, 0.01), [-math.log(0.6)], atol=1e-15)
    np.testing.assert_allclose(-np.expm1(-solve_linear(0.6, 1, 0.01)), [0.4], atol=1e-15)


def test_solve_linear_two_step_example():
    # x = -(log 0.8 + 0.02); product lands 2.6% from the target, outside
    # the Taylor regime (beta_1 ~ 0.21), sum identity still exact
    betas = solve_linear(0.8, 2, 0.01)
    x = -(math.log(0.8) + 0.02)
    np.testing.assert_allclose(betas, [0.01, 0.01 + x], atol=1e-15)
    assert betas.sum() == pytest.approx(-math.log(0.8), abs=1e-12)
    assert np.prod(1 - betas) == pytest.approx(0.7789878841989324, abs=1e-12)


def test_solve_linear_rejects_bad_inputs():
    with pytest.raises(ScheduleError):
        solve_linear(0.0, 3, 1e-4)
    with pytest.raises(ScheduleError):
        solve_linear(1.0, 3, 1e-4)
    with pytest.raises(ScheduleError):
        solve_linear(0.5, 0, 1e-4)


def test_default_clip_is_in_gamma_and_keeps_the_target():
    # gammas past the beta ceiling's 0.999 but below GAMMA_CEIL = -log(0.001)
    lin = solve_linear(0.001, 2, 1e-4)
    fib = solve_fibonacci(0.01, 3, 1e-4)  # gammas 1e-4, ~2.30, ~2.30
    assert lin[-1] > 0.999 and fib[-1] > 0.999
    assert lin.sum() == pytest.approx(-math.log(0.001), abs=1e-12)
    assert fib.sum() == pytest.approx(-math.log(0.01), abs=1e-12)
    # beyond GAMMA_CEIL the raw gamma passes the ceiling and still meets the target
    raw = solve_linear(1e-4, 2, 1e-4)
    assert raw[-1] > GAMMA_CEIL
    assert raw.sum() == pytest.approx(-math.log(1e-4), abs=1e-12)


# 1e-4 in 2 steps needs a gamma past GAMMA_CEIL; 0.9999995 in 4 steps from
# beta0 = 1e-4 needs gammas below GAMMA_FLOOR (negative ones)
@pytest.mark.parametrize("ab,n", [(1e-4, 2), (0.9999995, 4)])
def test_raw_solve_meets_an_unreachable_target_that_the_schedule_projects(ab, n):
    raw = solve_linear(ab, n, 1e-4)
    assert not np.all((GAMMA_FLOOR <= raw) & (raw <= GAMMA_CEIL))
    assert abs(raw.sum() + math.log(ab)) <= 1e-12
    sched = update_noise_schedule(ab, n, ScheduleFamily("linear", 1e-4))
    assert sched.clamped == 1
    assert sched.alpha_bars[-1] != pytest.approx(ab, rel=1e-6)


def test_solve_fibonacci_small_step_counts():
    np.testing.assert_allclose(solve_fibonacci(0.6, 1, 1e-4), [-math.log(0.6)], atol=1e-15)
    betas = solve_fibonacci(0.6, 2, 1e-4)
    np.testing.assert_allclose(betas, [1e-4, -math.log(0.6) - 1e-4], atol=1e-15)


def test_solve_fibonacci_six_steps_against_independent_solver():
    # oracle: Cramer's rule on the pinned-beta0 / sum-constraint system
    ab, n, b0 = 0.5, 6, 1e-4
    g = lambda r: (r**n - 1) / (r - 1)
    det = g(PHI_CONJ) - g(PHI)
    A = (b0 * g(PHI_CONJ) - (-math.log(ab))) / det
    B = b0 - A
    expected = A * PHI ** np.arange(n) + B * PHI_CONJ ** np.arange(n)
    got = solve_fibonacci(ab, n, b0)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    assert abs(got.sum() - math.log(2)) <= 1e-10
    assert np.max(np.abs(got[2:] - got[1:-1] - got[:-2])) <= 1e-12


@pytest.mark.parametrize("ab,n,b0", SOLVER_GRID)
def test_linear_raw_solution_identities(ab, n, b0):
    raw = solve_linear(ab, n, b0)
    assert abs(raw.sum() + math.log(ab)) <= 1e-10
    if n >= 2:
        diffs = np.diff(raw)
        assert np.max(np.abs(diffs - diffs[0])) <= 1e-12
    assert raw[0] == pytest.approx(b0 if n > 1 else 1 - ab, abs=1e-12)


@pytest.mark.parametrize("ab,n,b0", SOLVER_GRID)
def test_fibonacci_raw_solution_identities(ab, n, b0):
    raw = solve_fibonacci(ab, n, b0)
    assert abs(raw.sum() + math.log(ab)) <= 1e-10
    if n >= 3:
        assert np.max(np.abs(raw[2:] - raw[1:-1] - raw[:-2])) <= 1e-12
    if n >= 2:
        assert raw[0] == pytest.approx(b0, abs=1e-12)


@pytest.mark.parametrize("solver", [solve_linear, solve_fibonacci])
@pytest.mark.parametrize("ab", [0.9, 0.5, 0.1])
@pytest.mark.parametrize("n", [3, 6, 10, 25])
def test_product_tracks_target_in_taylor_regime(solver, ab, n):
    betas = solver(ab, n, 1e-4)
    if np.max(betas) <= 1e-2 and np.min(betas) > 0:
        assert np.prod(1 - betas) == pytest.approx(ab, rel=0.01)


def test_update_noise_schedule_constant_case():
    # gamma = 1e-3 at every step, read as beta = -expm1(-gamma)
    family = ScheduleFamily("linear", 1e-3)
    sched = update_noise_schedule(math.exp(-3 * 1e-3), 3, family)
    np.testing.assert_allclose(sched.betas, np.full(3, -math.expm1(-1e-3)), atol=1e-12)
    np.testing.assert_allclose(sched.boundaries[1:] ** 2, sched.alpha_bars, atol=1e-15)


@pytest.mark.parametrize("ab", [0.9, 0.5, 0.1])
@pytest.mark.parametrize("b0", [1e-6, 1e-4, 1e-3])
def test_update_noise_schedule_fibonacci_monotone(ab, b0):
    sched = update_noise_schedule(ab, 6, ScheduleFamily("fibonacci", b0))
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert np.all(np.diff(sched.boundaries) < 0)


@pytest.mark.parametrize("kind", ["linear", "fibonacci"])
def test_update_noise_schedule_near_clean_target_clamps(kind):
    sched = update_noise_schedule(0.999999, 6, ScheduleFamily(kind, 1e-6))
    assert np.all(sched.betas >= 1e-6)
    assert sched.clamped == 1  # the target was projected
    assert np.all(np.isfinite(sched.alpha_bars))


def test_noise_schedule_invariants_enforced():
    # each bound is inside, and so is its inner neighbour; its outer
    # neighbour, the infinities and NaN are not
    for beta in (BETA_FLOOR, BETA_CEIL, np.nextafter(BETA_FLOOR, 1), np.nextafter(BETA_CEIL, 0)):
        assert NoiseSchedule.from_betas([beta]).betas[0] == beta
    for beta in (np.nextafter(BETA_FLOOR, 0), np.nextafter(BETA_CEIL, 1), 1e-9, 0.9999,
                 -np.inf, np.inf, np.nan):
        with pytest.raises(ScheduleError, match="outside"):
            NoiseSchedule.from_betas([beta])
    with pytest.raises(ScheduleError, match="underflows to 0 at step 108 of 120"):
        NoiseSchedule.from_betas(np.full(120, 0.999))  # 0.001**108 is below every double


def test_schedule_family_validation():
    with pytest.raises(ScheduleError):
        ScheduleFamily("cosine", 1e-4)
    with pytest.raises(ScheduleError):
        ScheduleFamily("linear", 0.5)


@settings(max_examples=60, deadline=None)
@given(
    ab=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
    n=st.integers(min_value=1, max_value=40),
    b0=st.floats(min_value=1e-6, max_value=1e-2),
    kind=st.sampled_from(["linear", "fibonacci"]),
)
def test_update_noise_schedule_always_valid(ab, n, b0, kind):
    sched = update_noise_schedule(ab, n, ScheduleFamily(kind, b0))
    assert len(sched) == n
    assert np.all(sched.betas >= 1e-6) and np.all(sched.betas <= 0.999)
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert sched.boundaries[0] == 1.0
    np.testing.assert_allclose(sched.boundaries[1:] ** 2, sched.alpha_bars, atol=1e-12)


def _feasible_targets(solve, m, beta0):
    """[lo, hi] of T = -log(alpha_bar) over which every gamma_i, i >= 1, of
    the raw closed form lies in [GAMMA_FLOOR, GAMMA_CEIL] (gamma_0 = T at m = 1,
    else beta0), empty if lo > hi; each gamma_i is affine in T, so two solves
    give its line."""
    g1, g2 = (solve(math.exp(-t), m, beta0) for t in (1.0, 2.0))
    rows = range(1, m) if m > 1 else range(1)
    lo = max(1.0 + (GAMMA_FLOOR - g1[i]) / (g2[i] - g1[i]) for i in rows)
    hi = min(1.0 + (GAMMA_CEIL - g1[i]) / (g2[i] - g1[i]) for i in rows)
    return lo, hi


@pytest.mark.parametrize("beta0,kind,m", [
    # beta0 at or above GAMMA_FLOOR, so gamma_0 fits too
    *[(beta0, kind, m) for beta0 in (1e-4, 1e-2) for kind, m in [
        *[("linear", m) for m in (1, 2, 3, 7, 999, 2000)],
        *[("fibonacci", m) for m in (1, 2, 3, 7, 16, 17, 25)],
        ("fibonacci", 40),  # no Fibonacci schedule this long fits: the linear form
    ]],
    # near its reach the Fibonacci interval is narrow; a target in the linear
    # one is not projected
    *[(1e-6, "fibonacci", m) for m in (30, 33, 34)],
    # beta0 below GAMMA_FLOOR: gamma_1, not gamma_{m-1}, sets the linear floor end
    *[(1e-6, "linear", m) for m in (3, 7, 999)],
])
def test_update_noise_schedule_projects_targets_onto_the_feasible_interval(beta0, kind, m):
    # linear m = 3, beta0 = 1e-4 at the floor end solves to beta_3 =
    # 9.99999999999987e-07 before the rounding clip
    lo, hi = _feasible_targets(solve_linear, m, beta0)
    # T = 12 lies past the linear interval's end at m = 3 (10.36) but inside
    # the Fibonacci one's (13.8)
    targets = [lo, lo / 2, hi, 2 * hi, -math.log(0.3), 12.0]
    fib_lo, fib_hi = math.inf, -math.inf
    if kind == "fibonacci":
        fib_lo, fib_hi = _feasible_targets(solve_fibonacci, m, beta0)
    if fib_lo <= fib_hi:  # the two intervals overlap; a target in their union is met
        assert fib_lo <= hi and lo <= fib_hi
        targets += [fib_lo, fib_lo / 2, fib_hi, 2 * fib_hi]
        lo, hi = min(lo, fib_lo), max(hi, fib_hi)
    for t in (t for t in targets if t < 700):  # exp(-t) must be a positive double
        sched = update_noise_schedule(math.exp(-t), m, ScheduleFamily(kind, beta0))
        assert len(sched) == m
        assert np.all(sched.betas >= BETA_FLOOR) and np.all(sched.betas <= BETA_CEIL)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        np.testing.assert_allclose(sched.boundaries[1:] ** 2, sched.alpha_bars, rtol=1e-12)
        np.testing.assert_allclose(np.cumprod(1 - sched.betas), sched.alpha_bars, rtol=1e-12)
        projected = min(max(t, lo), hi)
        assert sched.alpha_bars[-1] == pytest.approx(math.exp(-projected), rel=1e-12)
        if not lo * (1 - 1e-9) <= t <= hi * (1 + 1e-9):
            assert sched.clamped == 1
        elif lo * (1 + 1e-9) < t < hi * (1 - 1e-9):
            assert sched.clamped == 0
        # the recurrence in the Fibonacci interval, the linear form elsewhere
        if m >= 3 and not any(math.isclose(projected, e, rel_tol=1e-9) for e in (fib_lo, fib_hi)):
            g = -np.log1p(-sched.betas)
            residual = g[2:] - g[1:-1] - g[:-2] if fib_lo < projected < fib_hi else np.diff(g, 2)
            assert np.max(np.abs(residual)) <= 1e-9 * g.max() + 1e-12
