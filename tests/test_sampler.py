import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.diffusion import forward_diffuse, training_schedule
from adadiffuse.errors import ConfigError, ScheduleError
from adadiffuse.models import make_denoiser, make_estimator
from adadiffuse.sampler import (
    AB_CLAMP,
    SamplerConfig,
    ddim_update,
    ddpm_update,
    initial_noise_schedule,
    predicted_clean,
    sample_adaptive,
    sample_batch,
    sample_fixed,
)
from adadiffuse.schedule import NoiseSchedule, ScheduleFamily, update_noise_schedule


def _cfg(**kw):
    defaults = dict(
        steps=6,
        adjustment_set=frozenset(),
        family=ScheduleFamily("linear", 1e-4),
        update_rule="ddpm",
        eta=0.0,
        conditioning_mode="continuous_alpha",
        seed=0,
    )
    defaults.update(kw)
    return SamplerConfig(**defaults)


def test_ddpm_update_zero_noise_prediction_rescales():
    sched = NoiseSchedule.from_betas([0.19])
    y = np.array([2.0])
    out = ddpm_update(y, np.zeros(1), 1, sched, np.ones(1))
    assert out[0] == pytest.approx(2.0 / math.sqrt(0.81), rel=1e-14)


def test_ddpm_update_matches_duplicate_formula():
    rng = np.random.default_rng(3)
    sched = NoiseSchedule.from_betas(rng.uniform(1e-3, 0.05, size=8))
    for n in range(1, 9):
        y = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        z = rng.standard_normal(4)
        beta = sched.betas[n - 1]
        alpha = 1.0 - beta
        abar = np.prod(1.0 - sched.betas[:n])
        expected = (y - ((1 - alpha) / math.sqrt(1 - abar)) * eps) / math.sqrt(alpha)
        if n != 1:
            expected = expected + math.sqrt(beta) * z
        np.testing.assert_allclose(ddpm_update(y, eps, n, sched, z), expected, atol=1e-12)


def test_ddpm_update_rejects_out_of_range_step():
    sched = NoiseSchedule.from_betas([0.01, 0.02])
    with pytest.raises(ScheduleError):
        ddpm_update(np.zeros(2), np.zeros(2), 3, sched, np.zeros(2))


def test_ddim_inversion_recovers_clean_sample():
    rng = np.random.default_rng(11)
    sched = NoiseSchedule.from_betas(rng.uniform(1e-3, 0.1, size=10))
    for n in (1, 4, 10):
        abar = sched.alpha_bar(n)
        y0 = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        y_n = forward_diffuse(y0, abar, eps)
        np.testing.assert_allclose(predicted_clean(y_n, eps, abar), y0, atol=1e-10)


def test_ddim_update_deterministic_at_eta_zero():
    rng = np.random.default_rng(5)
    sched = NoiseSchedule.from_betas(rng.uniform(1e-3, 0.05, size=5))
    y = rng.standard_normal(2)
    eps = rng.standard_normal(2)
    out1 = ddim_update(y, eps, 3, sched, 0.0, rng.standard_normal(2))
    out2 = ddim_update(y, eps, 3, sched, 0.0, rng.standard_normal(2))
    np.testing.assert_array_equal(out1, out2)


def test_ddim_update_matches_duplicate_formula_eta_one():
    rng = np.random.default_rng(7)
    sched = NoiseSchedule.from_betas(rng.uniform(1e-3, 0.05, size=6))
    for n in range(1, 7):
        y = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        z = rng.standard_normal(3)
        beta = sched.betas[n - 1]
        abar = np.prod(1.0 - sched.betas[:n])
        abar_prev = np.prod(1.0 - sched.betas[: n - 1]) if n > 1 else 1.0
        y0_hat = (y - math.sqrt(1 - abar) * eps) / math.sqrt(abar)
        sigma = 1.0 * math.sqrt(beta * (1 - abar_prev) * (1 - abar))
        expected = (
            math.sqrt(abar_prev) * y0_hat
            + math.sqrt(max(0.0, 1 - abar_prev - sigma**2)) * eps
            + sigma * z
        )
        np.testing.assert_allclose(ddim_update(y, eps, n, sched, 1.0, z), expected, atol=1e-12)


def test_ddim_final_step_is_clean_prediction():
    # alpha_bar_0 = 1 makes the n = 1 update return y0_hat exactly at eta = 0
    sched = NoiseSchedule.from_betas([0.3])
    y = np.array([1.0, 2.0])
    eps = np.array([0.1, -0.2])
    out = ddim_update(y, eps, 1, sched, 0.0, np.zeros(2))
    np.testing.assert_allclose(out, (y - math.sqrt(0.3) * eps) / math.sqrt(0.7), atol=1e-14)


def test_initial_noise_schedule_linear_single_step():
    sched = initial_noise_schedule(_cfg(steps=1))
    np.testing.assert_allclose(sched.betas, [1e-4], atol=1e-18)


def test_initial_noise_schedule_fibonacci_by_hand():
    cfg = _cfg(steps=4, family=ScheduleFamily("fibonacci", 1e-4))
    np.testing.assert_allclose(
        initial_noise_schedule(cfg).betas, [1e-4, 1e-4, 2e-4, 3e-4], atol=1e-18
    )


@pytest.mark.parametrize("kind", ["linear", "fibonacci"])
@pytest.mark.parametrize("n", [1, 2, 6, 25, 100])
@pytest.mark.parametrize("beta0", [1e-6, 1e-4, 1e-2])
def test_initial_noise_schedule_invariants(kind, n, beta0):
    sched = initial_noise_schedule(_cfg(steps=n, family=ScheduleFamily(kind, beta0)))
    assert len(sched) == n
    assert np.all(sched.betas >= 1e-6) and np.all(sched.betas <= 0.999)
    assert np.all(np.diff(sched.alpha_bars) < 0) or n == 1


def test_initial_noise_schedule_rejects_alpha_bar_underflow():
    # the clamped Fibonacci recurrence drives alpha_bar to exactly 0 from step 128
    cfg = _cfg(steps=200, family=ScheduleFamily("fibonacci", 1e-4))
    with pytest.raises(ScheduleError, match="step 128 of 200"):
        initial_noise_schedule(cfg)


@pytest.fixture(scope="module")
def small_models():
    return make_denoiser(2, seed=100), make_estimator(2, seed=101)


def test_sample_fixed_single_step_trace(small_models):
    den, _ = small_models
    cfg = _cfg(steps=1)
    run = sample_fixed(den, initial_noise_schedule(cfg), cfg, np.random.default_rng(0))
    assert len(run.steps) == 1
    assert run.steps[0].n == 1
    assert run.y0.shape == (2,)


def test_sample_fixed_seed_determinism(small_models):
    den, _ = small_models
    cfg = _cfg(steps=5)
    sched = initial_noise_schedule(cfg)
    r1 = sample_fixed(den, sched, cfg, np.random.default_rng(9))
    r2 = sample_fixed(den, sched, cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(r1.y0, r2.y0)
    np.testing.assert_array_equal(r1.y_init, r2.y_init)


def test_sample_fixed_rejects_wrong_schedule_length(small_models):
    den, _ = small_models
    cfg = _cfg(steps=5)
    with pytest.raises(ScheduleError):
        sample_fixed(den, initial_noise_schedule(_cfg(steps=4)), cfg, np.random.default_rng(0))


@pytest.mark.parametrize("rule", ["ddpm", "ddim"])
def test_adaptive_with_empty_adjustment_reduces_to_fixed(small_models, rule):
    den, est = small_models
    cfg = _cfg(steps=6, update_rule=rule, eta=0.7)
    sched = initial_noise_schedule(cfg)
    fixed = sample_fixed(den, sched, cfg, np.random.default_rng(21))
    adaptive = sample_adaptive(den, est, cfg, np.random.default_rng(21))
    np.testing.assert_array_equal(fixed.y0, adaptive.y0)
    for a, b in zip(fixed.steps, adaptive.steps):
        assert a.n == b.n and a.alpha_hat is None and b.alpha_hat is None
        np.testing.assert_array_equal(a.betas, b.betas)


def test_adaptive_records_every_query(small_models):
    den, est = small_models
    cfg = _cfg(steps=6, adjustment_set=frozenset(range(1, 7)))
    run = sample_adaptive(den, est, cfg, np.random.default_rng(4))
    hats = [rec.alpha_hat for rec in run.steps]
    assert len(run.steps) == 6
    assert all(h is not None and 0.0 < h < 1.0 for h in hats)
    # in-force schedule shrinks with the remaining step count
    assert [rec.betas.size for rec in run.steps] == [6, 5, 4, 3, 2, 1]


def test_adaptive_alpha_hat_only_on_adjustment_steps(small_models):
    den, est = small_models
    cfg = _cfg(steps=6, adjustment_set=frozenset({6, 3}))
    run = sample_adaptive(den, est, cfg, np.random.default_rng(4))
    queried = {rec.n for rec in run.steps if rec.alpha_hat is not None}
    assert queried == {6, 3}


def test_adaptive_installed_schedules_satisfy_invariants(small_models):
    den, est = small_models
    cfg = _cfg(steps=8, adjustment_set=frozenset(range(1, 9)), update_rule="ddim")
    run = sample_adaptive(den, est, cfg, np.random.default_rng(12))
    for rec in run.steps:
        sched = NoiseSchedule.from_betas(rec.betas)  # strict validation
        assert np.all(np.diff(sched.alpha_bars) < 0) or len(sched) == 1
    assert np.all(np.isfinite(run.y0))


def test_engine_replay_matches_public_updates(small_models):
    # replay the engine's rng stream and re-apply the public update ops
    den, _ = small_models
    for rule, eta in (("ddpm", 0.0), ("ddim", 0.8)):
        cfg = _cfg(steps=7, update_rule=rule, eta=eta)
        sched = initial_noise_schedule(cfg)
        run = sample_fixed(den, sched, cfg, np.random.default_rng(33))

        rng = np.random.default_rng(33)
        y = rng.standard_normal((1, 2))[0]
        for n in range(7, 0, -1):
            cond = math.sqrt(sched.alpha_bar(n))
            eps_hat = den.predict(y, cond)
            z = rng.standard_normal((1, 2))[0]
            if rule == "ddpm":
                y = ddpm_update(y, eps_hat, n, sched, z)
            else:
                y = ddim_update(y, eps_hat, n, sched, eta, z)
        np.testing.assert_allclose(run.y0, y, atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "fibonacci"])
@pytest.mark.parametrize("adjust", [{8, 5, 2}, set(range(1, 9))], ids=["8,5,2", "all"])
@pytest.mark.parametrize("rule,eta", [("ddpm", 0.0), ("ddim", 0.0), ("ddim", 0.7)])
def test_adaptive_engine_matches_public_formula_replay(small_models, kind, adjust, rule, eta):
    # replay the engine's rng stream with the public update, estimator and
    # re-solve: every re-solve installs update_noise_schedule's schedule
    den, est = small_models
    cfg = _cfg(steps=8, adjustment_set=frozenset(adjust), family=ScheduleFamily(kind, 1e-4),
               update_rule=rule, eta=eta)
    run = sample_adaptive(den, est, cfg, np.random.default_rng(17))

    def update(y, eps_hat, n, sched, z):
        if rule == "ddpm":
            return ddpm_update(y, eps_hat, n, sched, z)
        return ddim_update(y, eps_hat, n, sched, eta, z)

    rng = np.random.default_rng(17)
    y = rng.standard_normal((1, 2))[0]
    sched = initial_noise_schedule(cfg)
    clamps = 0
    assert [rec.n for rec in run.steps] == list(range(8, 0, -1))
    for n, rec in zip(range(8, 0, -1), run.steps):
        np.testing.assert_array_equal(rec.betas, sched.betas[:n])
        eps_hat = den.predict(y, np.sqrt(sched.alpha_bar(n)))
        z = rng.standard_normal((1, 2))[0]
        det = update(y, eps_hat, n, sched, np.zeros(2))
        y = update(y, eps_hat, n, sched, z)
        if n not in adjust:
            assert rec.alpha_hat is None
            continue
        ab_hat = float(np.clip(est.predict(det), AB_CLAMP, 1.0 - AB_CLAMP))
        assert rec.alpha_hat == ab_hat
        if n > 1:
            sched = update_noise_schedule(ab_hat, n - 1, cfg.family)
            clamps += sched.clamped
    np.testing.assert_array_equal(run.y0, y)
    assert run.clamp_events == clamps


def test_fixed_run_holds_one_schedule_row(small_models):
    # a shared schedule is state of shape (N,): no per-chain copy of it and
    # no per-step copy for the trace
    den, _ = small_models
    cfg = _cfg(steps=1000, update_rule="ddim")
    tracemalloc.start()
    try:
        run = sample_batch(den, cfg, np.random.default_rng(0), 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert all(rec.betas.base is run.steps[0].betas.base for rec in run.steps)
    assert not run.steps[0].betas.flags.writeable


def test_batched_chains_match_single_runs_at_eta_zero(small_models):
    # eta = 0 ddim consumes no z, so per-chain outputs must be identical to
    # single-chain runs started from the same y_init rows
    den, est = small_models
    cfg = _cfg(steps=6, update_rule="ddim", adjustment_set=frozenset(range(1, 7)))
    y_init = np.random.default_rng(50).standard_normal((3, 2))
    batched = sample_batch(
        den, cfg, np.random.default_rng(0), batch=3,
        estimator=est, adaptive=True, y_init=y_init,
    )
    for i in range(3):
        single = sample_adaptive(
            den, est, cfg, np.random.default_rng(i + 1), y_init=y_init[i]
        )
        np.testing.assert_allclose(batched.y0[i], single.y0, atol=1e-12)


def test_eta_zero_output_depends_only_on_initial_state(small_models):
    den, _ = small_models
    cfg = _cfg(steps=5, update_rule="ddim")
    sched = initial_noise_schedule(cfg)
    y_init = np.array([0.3, -1.1])
    r1 = sample_fixed(den, sched, cfg, np.random.default_rng(1), y_init=y_init)
    r2 = sample_fixed(den, sched, cfg, np.random.default_rng(999), y_init=y_init)
    np.testing.assert_array_equal(r1.y0, r2.y0)


def test_discrete_index_conditioning_runs(small_models):
    _, est = small_models
    den = make_denoiser(2, seed=100, conditioning_mode="discrete_index")
    cfg = _cfg(steps=6, conditioning_mode="discrete_index",
               adjustment_set=frozenset(range(1, 7)))
    bounds = training_schedule(1000).boundaries
    run = sample_adaptive(den, est, cfg, np.random.default_rng(3), train_bounds=bounds)
    assert np.all(np.isfinite(run.y0))
    with pytest.raises(ValueError):
        sample_adaptive(den, est, cfg, np.random.default_rng(3))  # missing table


def test_conditioning_mode_must_match_the_denoiser(small_models):
    den, est = small_models  # built for continuous_alpha
    cfg = _cfg(steps=3, conditioning_mode="discrete_index")
    bounds = training_schedule(100).boundaries
    with pytest.raises(ConfigError, match="'discrete_index'.*'continuous_alpha'"):
        sample_batch(den, cfg, np.random.default_rng(0), 4, train_bounds=bounds)
    discrete = make_denoiser(2, seed=100, conditioning_mode="discrete_index")
    with pytest.raises(ConfigError, match="'continuous_alpha'.*'discrete_index'"):
        sample_batch(discrete, _cfg(steps=3), np.random.default_rng(0), 4,
                     estimator=est, adaptive=True)


def test_adaptive_counts_solver_clamps(small_models):
    den, est = small_models
    # an aggressive 2-step target forces clamped entries somewhere in the run
    cfg = _cfg(steps=12, adjustment_set=frozenset(range(1, 13)),
               family=ScheduleFamily("fibonacci", 1e-6))
    run = sample_adaptive(den, est, cfg, np.random.default_rng(8))
    assert run.clamp_events >= 0
    assert len(run.steps) == 12


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    rule=st.sampled_from(["ddpm", "ddim"]),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_every_step_state_stays_finite(small_models, n, seed, rule, eta):
    den, est = small_models
    cfg = _cfg(steps=n, update_rule=rule, eta=eta,
               adjustment_set=frozenset(range(1, n + 1)))
    run = sample_adaptive(den, est, cfg, np.random.default_rng(seed))
    assert np.all(np.isfinite(run.y0))
    assert len(run.steps) == n
