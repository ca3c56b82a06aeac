import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adadiffuse.errors import ScheduleError
from adadiffuse.schedule import (
    BETA_CEIL,
    BETA_FLOOR,
    PHI,
    PHI_CONJ,
    NoiseSchedule,
    ScheduleFamily,
    _solve_batch,
    _solve_window,
    boundaries,
    clamp_betas,
    cumulative_alpha_bar,
    index_for_level,
    solve_fibonacci,
    solve_linear,
    update_noise_schedule,
)

SOLVER_GRID = [
    (ab, n, b0)
    for ab in (0.9, 0.5, 0.1)
    for n in (3, 6, 10, 25)
    for b0 in (1e-6, 1e-4, 1e-3)
]


def test_boundaries_rejects_empty_and_handles_zero():
    with pytest.raises(ScheduleError):
        boundaries([])
    np.testing.assert_array_equal(boundaries([0.0]), [1.0, 1.0])


def test_boundaries_single_step():
    np.testing.assert_allclose(boundaries([0.19]), [1.0, 0.9], atol=1e-15)


def test_boundaries_product_oracle():
    betas = np.full(10, 0.01)
    l = boundaries(betas)
    assert l[10] == pytest.approx(math.sqrt(0.99**10), abs=1e-15)
    assert l.size == 11


def test_cumulative_alpha_bar_trivial():
    np.testing.assert_array_equal(cumulative_alpha_bar([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(cumulative_alpha_bar([0.5, 0.5]), [0.5, 0.25], atol=1e-15)


def test_boundary_square_identity():
    rng = np.random.default_rng(5)
    betas = rng.uniform(1e-4, 0.05, size=20)
    l = boundaries(betas)
    ab = cumulative_alpha_bar(betas)
    np.testing.assert_allclose(l[1:] ** 2, ab, atol=1e-12)


def test_solve_linear_constant_when_target_matches():
    beta0 = 0.01
    n = 5
    betas = solve_linear(math.exp(-n * beta0), n, beta0)
    np.testing.assert_allclose(betas, np.full(n, beta0), atol=1e-12)


def test_solve_linear_single_step_exact():
    np.testing.assert_allclose(solve_linear(0.6, 1, 0.01), [0.4], atol=1e-15)


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


def test_solve_fibonacci_small_step_counts():
    np.testing.assert_allclose(solve_fibonacci(0.6, 1, 1e-4), [0.4], atol=1e-15)
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
    got = solve_fibonacci(ab, n, b0, clamp=False)
    np.testing.assert_allclose(got, expected, atol=1e-13)
    assert abs(got.sum() - math.log(2)) <= 1e-10
    assert np.max(np.abs(got[2:] - got[1:-1] - got[:-2])) <= 1e-12


@pytest.mark.parametrize("ab,n,b0", SOLVER_GRID)
def test_linear_raw_solution_identities(ab, n, b0):
    raw = solve_linear(ab, n, b0, clamp=False)
    assert abs(raw.sum() + math.log(ab)) <= 1e-10
    if n >= 2:
        diffs = np.diff(raw)
        assert np.max(np.abs(diffs - diffs[0])) <= 1e-12
    assert raw[0] == pytest.approx(b0 if n > 1 else 1 - ab, abs=1e-12)


@pytest.mark.parametrize("ab,n,b0", SOLVER_GRID)
def test_fibonacci_raw_solution_identities(ab, n, b0):
    raw = solve_fibonacci(ab, n, b0, clamp=False)
    assert abs(raw.sum() + math.log(ab)) <= 1e-10
    if n >= 3:
        assert np.max(np.abs(raw[2:] - raw[1:-1] - raw[:-2])) <= 1e-12
    if n >= 2:
        assert raw[0] == pytest.approx(b0, abs=1e-12)


@pytest.mark.parametrize("solver", [solve_linear, solve_fibonacci])
@pytest.mark.parametrize("ab", [0.9, 0.5, 0.1])
@pytest.mark.parametrize("n", [3, 6, 10, 25])
def test_product_tracks_target_in_taylor_regime(solver, ab, n):
    betas = solver(ab, n, 1e-4, clamp=False)
    if np.max(betas) <= 1e-2 and np.min(betas) > 0:
        assert np.prod(1 - betas) == pytest.approx(ab, rel=0.01)


def test_update_noise_schedule_constant_case():
    family = ScheduleFamily("linear", 1e-3)
    sched = update_noise_schedule(math.exp(-3 * 1e-3), 3, family)
    np.testing.assert_allclose(sched.betas, np.full(3, 1e-3), atol=1e-12)
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
    assert sched.clamped > 0
    assert np.all(np.isfinite(sched.alpha_bars))


def test_index_for_level_trivial_cases():
    l = np.array([1.0, 0.9, 0.5])
    assert index_for_level(1.0, l) == 1
    assert index_for_level(0.49, l) == 2  # sqrt(0.49) = 0.7 in [0.5, 0.9]
    assert index_for_level(0.999999, l) == 1
    assert index_for_level(0.01, l) == 2  # below l_N clamps to N


def test_index_for_level_matches_linear_scan():
    rng = np.random.default_rng(17)
    betas = rng.uniform(1e-4, 0.05, size=50)
    l = boundaries(betas)
    for level in rng.uniform(0.0, 1.0, size=1000):
        ab = level**2
        t = index_for_level(ab, l)
        # linear-scan reference
        scan = 50
        for s in range(1, 51):
            if l[s] <= level <= l[s - 1]:
                scan = s
                break
        else:
            scan = 1 if level > l[1] else 50
        assert t == scan


def test_index_for_level_rejects_bad_boundaries():
    with pytest.raises(ScheduleError):
        index_for_level(0.5, np.array([0.9, 0.5]))
    with pytest.raises(ScheduleError):
        index_for_level(0.5, np.array([1.0, 0.5, 0.5]))


def test_noise_schedule_invariants_enforced():
    with pytest.raises(ScheduleError):
        NoiseSchedule.from_betas([1e-9])  # below the beta floor
    with pytest.raises(ScheduleError):
        NoiseSchedule.from_betas([0.9999])
    with pytest.raises(ScheduleError, match="underflows to 0 at step 108 of 120"):
        NoiseSchedule.from_betas(np.full(120, 0.999))  # 0.001**108 is below every double


def test_cumulative_products_accept_zero_beta():
    np.testing.assert_array_equal(cumulative_alpha_bar([0.0, 0.75]), [1.0, 0.25])
    np.testing.assert_array_equal(boundaries([0.0, 0.75]), [1.0, 1.0, 0.5])


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


# each bound, its neighbouring floats on both sides, and the infinities
EDGE_BETAS = [
    edge
    for bound in (BETA_FLOOR, BETA_CEIL)
    for edge in (bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf))
] + [-np.inf, np.inf]


@settings(max_examples=100, deadline=None)
@given(raw=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
    elements=st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_BETAS)),
))
def test_clamp_betas_clips_in_place_and_counts_the_entries_it_moved(raw):
    expected = np.clip(raw, BETA_FLOOR, BETA_CEIL)
    arg = raw.copy()
    out, moved = clamp_betas(arg)
    assert out is arg
    assert arg.tobytes() == expected.tobytes()
    assert moved == np.count_nonzero(expected != raw) and type(moved) is int


# The blocked re-solve as it was before it reused one buffer and clipped
# only the blocks that can clamp; _solve_window must keep its bits and
# its clamp count.
def _ref_solve_batch(ab_hat, n, kind, beta0, start, stop):
    i = np.arange(start, stop, dtype=np.float64)[:, None]
    if n == 1:
        return (1.0 - ab_hat)[None, :]
    if kind == "linear":
        x = -2.0 * (np.log(ab_hat) + n * beta0) / (n * (n - 1))
        return beta0 + x * i
    target = -np.log(ab_hat)
    if n == 2:
        return np.where(i == 0, beta0, target - beta0)
    geo = lambda r: (r**n - 1.0) / (r - 1.0)
    a = (target - beta0 * geo(PHI_CONJ)) / (geo(PHI) - geo(PHI_CONJ))
    b = beta0 - a
    return a * PHI**i + b * PHI_CONJ**i


def _ref_solve_window(ab_hat, n, kind, beta0, lo, block_rows=128):
    def clamped_block(start, stop):
        raw = _ref_solve_batch(ab_hat, n, kind, beta0, start, stop)
        block = np.clip(raw, BETA_FLOOR, BETA_CEIL)
        return block, int(np.count_nonzero(block != raw))

    prefix = np.ones(ab_hat.size)
    clamped = 0
    for start in range(0, lo - 1, block_rows):
        block, n_clamped = clamped_block(start, min(start + block_rows, lo - 1))
        clamped += n_clamped
        block = 1.0 - block
        block[0] *= prefix
        prefix = np.multiply.reduce(block, axis=0)
    betas = np.empty((n - lo + 1, ab_hat.size))
    for start in range(lo - 1, n, block_rows):
        stop = min(start + block_rows, n)
        betas[start - lo + 1:stop - lo + 1], n_clamped = clamped_block(start, stop)
        clamped += n_clamped
    abar = np.empty((betas.shape[0] + 1, ab_hat.size))
    abar[0] = prefix
    abar[1:] = 1.0 - betas
    for k in range(1, abar.shape[0]):
        abar[k] *= abar[k - 1]
    return betas, abar, clamped


def _check_window_against_reference(ab_hat, n, kind, beta0, lo):
    ref_betas, ref_abar, ref_clamped = _ref_solve_window(ab_hat, n, kind, beta0, lo)
    abar, clamped = _solve_window(ab_hat, n, kind, beta0, lo)
    assert abar.tobytes() == ref_abar.tobytes()
    assert clamped == ref_clamped and type(clamped) is int  # metrics.json stores it
    # the sampler reads beta_k as row k-1 of the closed form, clipped
    for k in range(lo, n + 1):
        beta_k = clamp_betas(_solve_batch(ab_hat, n, kind, beta0, k - 1, k)[0])[0]
        assert beta_k.tobytes() == ref_betas[k - lo].tobytes()
    return ref_clamped


WINDOW_TARGETS = np.concatenate([
    [1e-7, 1.0 - 1e-7],
    np.random.default_rng(11).uniform(1e-7, 1.0 - 1e-7, 14),
    10.0 ** -np.random.default_rng(12).uniform(0.0, 7.0, 8),
]).clip(1e-7, 1.0 - 1e-7)


@pytest.mark.parametrize("kind,beta0", [("linear", 1e-4), ("linear", 1e-2), ("fibonacci", 1e-4)])
@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 300, 999])
def test_solve_window_matches_the_plain_blocked_fold(kind, beta0, n):
    # lo - 1 on a 128-row block edge (lo = 1, 129, 257) and off it
    for lo in sorted({1, 2, 3, 64, 129, 130, 257, n // 2, n - 1, n} & set(range(1, n + 1))):
        _check_window_against_reference(WINDOW_TARGETS, n, kind, beta0, lo)


def test_solve_window_counts_fibonacci_clamps_that_sit_mid_block():
    # the alternating rows 1, 3, ... and 16..29 clamp at the floor, while
    # rows 0 and 33..39, the ends of every block below, stay in range
    ab, n, beta0 = np.array([0.9991142482275172]), 40, 1e-3
    raw = _solve_batch(ab, n, "fibonacci", beta0)[:, 0]
    clipped = np.flatnonzero((raw < BETA_FLOOR) | (raw > BETA_CEIL))
    assert clipped.size > 10 and clipped.min() > 0 and clipped.max() < 33
    for lo in (1, 12, 35, 40):
        assert _check_window_against_reference(ab, n, "fibonacci", beta0, lo) == clipped.size


@pytest.mark.parametrize("n", [128, 256])
def test_solve_window_counts_a_linear_clamp_on_a_block_last_row(n):
    # x < 0 puts beta_n, the last row of a 128-row block, alone below the floor
    beta0 = 1e-4
    x = -(beta0 - BETA_FLOOR) / (n - 1.5)
    ab = np.array([math.exp(-(n * beta0 + x * n * (n - 1) / 2))])
    raw = _solve_batch(ab, n, "linear", beta0)[:, 0]
    assert list(np.flatnonzero((raw < BETA_FLOOR) | (raw > BETA_CEIL))) == [n - 1]
    for lo in (1, 2, 100, n - 1, n):
        assert _check_window_against_reference(ab, n, "linear", beta0, lo) == 1
