import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.diffusion import forward_diffuse, training_schedule
from adadiffuse.errors import ScheduleError, ShapeError
from adadiffuse.models import Denoiser, Estimator, make_denoiser, make_estimator
from adadiffuse.nn import Network, _layer_out
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
        sigma = 1.0 * math.sqrt(beta * (1 - abar_prev) / (1 - abar))
        expected = (
            math.sqrt(abar_prev) * y0_hat
            + math.sqrt(max(0.0, 1 - abar_prev - sigma**2)) * eps
            + sigma * z
        )
        np.testing.assert_allclose(ddim_update(y, eps, n, sched, 1.0, z), expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_ddim_sigma_at_eta_one_is_the_ddpm_posterior_variance(n):
    # DDIM eq. 16: sigma^2 = beta_n (1 - alpha_bar_{n-1}) / (1 - alpha_bar_n)
    sched = initial_noise_schedule(_cfg(steps=6))
    y, eps = np.array([0.3, -1.2]), np.array([0.5, 0.1])
    ones = np.ones(2)
    sigma = ddim_update(y, eps, n, sched, 1.0, ones) - ddim_update(y, eps, n, sched, 1.0, 0 * ones)
    want = sched.betas[n - 1] * (1 - sched.alpha_bar(n - 1)) / (1 - sched.alpha_bar(n))
    np.testing.assert_allclose(sigma**2, want, rtol=1e-9)


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


@pytest.mark.parametrize("kind,n,beta0", [
    ("linear", 1, 1e-4), ("linear", 6, 1e-4), ("linear", 1000, 1e-6), ("linear", 100, 1e-2),
    ("fibonacci", 1, 1e-4), ("fibonacci", 6, 1e-4), ("fibonacci", 34, 1e-6),
    ("fibonacci", 40, 1e-4),  # saturates at 0.999 from step 21
])
def test_initial_noise_schedule_keeps_the_bits_of_the_inline_formulas(kind, n, beta0):
    if kind == "linear":
        betas = np.linspace(beta0, 2e-2, n)
    else:
        seq = [beta0, beta0]
        while len(seq) < n:
            seq.append(seq[-1] + seq[-2])
        betas = np.array(seq[:n])
    want = NoiseSchedule.from_betas(np.clip(betas, 1e-6, 0.999))
    got = initial_noise_schedule(_cfg(steps=n, family=ScheduleFamily(kind, beta0)))
    for row in ("betas", "alpha_bars", "boundaries"):
        assert getattr(got, row).tobytes() == getattr(want, row).tobytes()
    if (kind, n) == ("fibonacci", 40):
        assert np.count_nonzero(got.betas == 0.999) == 20


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
        assert (a.beta, a.alpha_bar) == (b.beta, b.alpha_bar)


def test_adaptive_records_every_query(small_models):
    den, est = small_models
    cfg = _cfg(steps=6, adjustment_set=frozenset(range(1, 7)))
    run = sample_adaptive(den, est, cfg, np.random.default_rng(4))
    hats = [rec.alpha_hat for rec in run.steps]
    assert len(run.steps) == 6
    assert all(h is not None and 0.0 < h < 1.0 for h in hats)
    # each step runs under the schedule the previous step's guarded estimate
    # re-solved
    assert [rec.n for rec in run.steps] == [6, 5, 4, 3, 2, 1]
    sched = initial_noise_schedule(cfg)
    for prev, rec in zip(run.steps, run.steps[1:]):
        target = max(prev.alpha_hat, sched.alpha_bar(prev.n - 1))
        sched = update_noise_schedule(target, prev.n - 1, cfg.family)
        assert (rec.beta, rec.alpha_bar) == (sched.betas[-1], sched.alpha_bar(rec.n))


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
    for rec, nxt in zip(run.steps, run.steps[1:]):
        # the schedule this re-solve installed for steps n-1 .. 1, which ends
        # at the target it used: the next step's alpha_bar
        sched = update_noise_schedule(nxt.alpha_bar, rec.n - 1, cfg.family)  # validated
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
            eps_hat = den.predict(y[None], cond)[0]
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
    # re-solve: every re-solve installs update_noise_schedule's schedule for
    # the guarded estimate
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
        assert rec.beta == sched.betas[n - 1] and rec.alpha_bar == sched.alpha_bar(n)
        eps_hat = den.predict(y[None], np.sqrt(sched.alpha_bar(n)))[0]
        z = rng.standard_normal((1, 2))[0]
        det = update(y, eps_hat, n, sched, np.zeros(2))
        y = update(y, eps_hat, n, sched, z)
        if n not in adjust:
            assert rec.alpha_hat is None
            continue
        ab_hat = float(np.clip(est.predict(det[None])[0], AB_CLAMP, 1.0 - AB_CLAMP))
        assert rec.alpha_hat == ab_hat
        if n > 1:
            target = max(ab_hat, sched.alpha_bar(n - 1))
            sched = update_noise_schedule(target, n - 1, cfg.family)
            clamps += sched.clamped
    np.testing.assert_array_equal(run.y0, y)
    assert run.clamp_events == clamps


def test_fixed_run_holds_one_schedule_row(small_models):
    # a shared schedule is state of shape (N,): no per-chain copy of it
    den, _ = small_models
    cfg = _cfg(steps=1000, update_rule="ddim")
    tracemalloc.start()
    try:
        sample_batch(den, cfg, np.random.default_rng(0), 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_adaptive_run_holds_no_schedule_copies(small_models):
    # step records hold scalars, so what a returned 1000-step run keeps is O(N)
    den, est = small_models
    cfg = _cfg(steps=1000, update_rule="ddim", adjustment_set=frozenset(range(1, 1001)))
    tracemalloc.start()
    try:
        run = sample_batch(den, cfg, np.random.default_rng(0), 8, estimator=est, adaptive=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(run.steps) == 1000
    assert held < 2**20, f"run holds {held / 2**20:.2f} MiB"


def test_adaptive_run_peak_memory_is_batch_sized(small_models):
    # a re-solve keeps one coefficient pair per chain and each step reads its
    # schedule entries in closed form, so an adaptive run peaks O(batch) above
    # a fixed one. At batch 64 a windowed re-solve that kept all n-1 alpha_bar
    # rows after a lone re-solve at N peaked at 0.92 MiB against 0.43
    den, est = small_models

    def peak(adjust):
        cfg = _cfg(steps=1000, update_rule="ddim", adjustment_set=frozenset(adjust))
        tracemalloc.start()
        try:
            sample_batch(den, cfg, np.random.default_rng(0), 64, estimator=est, adaptive=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fixed = peak(())
    for adjust in (range(1, 1001), {1000}):
        extra = peak(adjust) - fixed
        assert extra < 2**17, f"{extra / 2**20:.2f} MiB above the fixed run"


@pytest.mark.parametrize("batch", [0, -1])
def test_sample_batch_rejects_an_empty_batch_before_any_work(small_models, batch):
    den, est = small_models
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match="batch"):
        sample_batch(den, _cfg(adjustment_set=frozenset({6, 3})), rng, batch,
                     estimator=est, adaptive=True)
    assert rng.random() == np.random.default_rng(0).random()  # no draw was taken


def _noise_reading_estimator():
    # reads pure noise everywhere: zero last-layer weights, bias logit(1e-7)
    est = make_estimator(2, seed=101)
    est.net.layers[-1].weight[...] = 0.0
    est.net.layers[-1].bias[...] = math.log(1e-7 / (1.0 - 1e-7))
    return est


@pytest.mark.parametrize("steps", [6, 100, 1000])
def test_guard_never_moves_a_chain_toward_more_noise(small_models, steps):
    # every estimate reads noisier than the schedule, so the guard binds at
    # every re-solve. The unguarded Taylor-form re-solve with clipped betas
    # took chain 0's alpha_bar from 0.941 to 1e-12 over the N=6 run, and max
    # |y| to 7.7e7 (1.5e79 at N=1000)
    den, _ = small_models
    cfg = _cfg(steps=steps, update_rule="ddim", adjustment_set=frozenset(range(1, steps + 1)))
    run = sample_batch(den, cfg, np.random.default_rng(0), 64,
                       estimator=_noise_reading_estimator(), adaptive=True)
    assert np.all(np.isfinite(run.y0))  # and the engine checked every state
    alpha_bars = [rec.alpha_bar for rec in run.steps]
    assert all(a <= b for a, b in zip(alpha_bars, alpha_bars[1:]))
    assert run.clamp_events == 0  # in-force levels lie inside the linear interval


@pytest.mark.parametrize("kind", ["linear", "fibonacci"])
def test_trace_rebuilds_chain_0_schedule(small_models, kind):
    # the target a re-solve at step n used is the next record's alpha_bar
    den, est = small_models
    cfg = _cfg(steps=40, update_rule="ddim", family=ScheduleFamily(kind, 1e-4),
               adjustment_set=frozenset({40, 31, 30, 12, 3, 2}))
    run = sample_batch(den, cfg, np.random.default_rng(2), 8, estimator=est, adaptive=True)
    sched = initial_noise_schedule(cfg)
    for rec, nxt in zip(run.steps, run.steps[1:]):
        if rec.alpha_hat is not None:
            sched = update_noise_schedule(nxt.alpha_bar, rec.n - 1, cfg.family)
        np.testing.assert_allclose([nxt.beta, nxt.alpha_bar],
                                   [sched.betas[nxt.n - 1], sched.alpha_bar(nxt.n)], rtol=1e-12)


def _recurs(sched):
    """True if the schedule's gammas follow the Fibonacci recurrence."""
    g = -np.log1p(-sched.betas)
    return bool(np.all(np.abs(g[2:] - g[1:-1] - g[:-2]) <= 1e-9 * g.max() + 1e-12))


def _replay_batch(den, est, cfg, seed, batch):
    """A batched run's chains, each re-run with the public update, estimator
    and re-solve; the networks see the whole batch, as in the engine. Also
    counts the re-solves that give some chains the Fibonacci recurrence and
    others the linear form."""
    def update(y, eps_hat, n, sched, z):
        if cfg.update_rule == "ddpm":
            return ddpm_update(y, eps_hat, n, sched, z)
        return ddim_update(y, eps_hat, n, sched, cfg.eta, z)

    rng = np.random.default_rng(seed)
    y = rng.standard_normal((batch, 2))
    scheds = [initial_noise_schedule(cfg)] * batch
    steps, clamps, mixed = [], 0, 0
    for n in range(cfg.steps, 0, -1):
        eps_hat = den.predict(y, np.array([np.sqrt(s.alpha_bar(n)) for s in scheds]))
        z = rng.standard_normal((batch, 2))
        det = np.array([update(y[c], eps_hat[c], n, scheds[c], np.zeros(2)) for c in range(batch)])
        y = np.array([update(y[c], eps_hat[c], n, scheds[c], z[c]) for c in range(batch)])
        ab_hat = None
        if n in cfg.adjustment_set:
            ab_hat = np.clip(est.predict(det), AB_CLAMP, 1.0 - AB_CLAMP)
        steps.append((n, None if ab_hat is None else float(ab_hat[0]),
                      scheds[0].betas[n - 1], scheds[0].alpha_bar(n)))
        if ab_hat is not None and n > 1:
            scheds = [update_noise_schedule(max(float(a), s.alpha_bar(n - 1)), n - 1, cfg.family)
                      for a, s in zip(ab_hat, scheds)]
            clamps += sum(s.clamped for s in scheds)
            mixed += n > 3 and len({_recurs(s) for s in scheds}) == 2
    return y, steps, clamps, mixed


@pytest.mark.parametrize("kind,beta0,steps", [
    ("linear", 1e-4, 400),
    # the start schedule underflows from N = 128; a re-solve longer than 26
    # steps has no Fibonacci interval and gives every chain the linear form
    ("fibonacci", 1e-4, 40),
    # every re-solve is within that reach: a chain takes the recurrence if
    # its target lies in the Fibonacci interval, else the linear form
    ("fibonacci", 1e-4, 27),
    ("linear", 1e-2, 300),  # many targets lie below the floor end and are projected
], ids=["linear", "fibonacci", "fibonacci-mixed", "linear-clamp-heavy"])
@pytest.mark.parametrize("sparse", [False, True], ids=["all", "sparse"])
@pytest.mark.parametrize("rule,eta", [("ddpm", 0.0), ("ddim", 0.7)])
def test_batched_re_solves_match_per_chain_public_replay(
    small_models, kind, beta0, steps, sparse, rule, eta
):
    den, est = small_models
    # the sparse set leaves one schedule in force for hundreds of steps
    adjust = {steps, steps * 9 // 10, steps // 10} if sparse else set(range(1, steps + 1))
    cfg = _cfg(steps=steps, adjustment_set=frozenset(adjust),
               family=ScheduleFamily(kind, beta0), update_rule=rule, eta=eta)
    run = sample_batch(den, cfg, np.random.default_rng(5), 12, estimator=est, adaptive=True)
    y0, steps_replayed, clamps, mixed = _replay_batch(den, est, cfg, 5, 12)
    np.testing.assert_array_equal(run.y0, y0)
    assert [(r.n, r.alpha_hat, r.beta, r.alpha_bar) for r in run.steps] == steps_replayed
    assert run.clamp_events == clamps
    if kind == "fibonacci" and steps == 27:
        assert mixed > 0  # one batch holds both forms
    if beta0 == 1e-2 and not sparse:
        assert clamps > 0.1 * 12 * (steps - 1)  # of the targets, one per chain and re-solve


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


@pytest.mark.parametrize("adaptive", [False, True])
def test_sample_batch_ignores_the_training_boundary_table(small_models, adaptive):
    den, est = small_models
    cfg = _cfg(steps=6, adjustment_set=frozenset(range(1, 7)))
    runs = [
        sample_batch(den, cfg, np.random.default_rng(3), 8, estimator=est,
                     adaptive=adaptive, train_bounds=bounds)
        for bounds in (None, training_schedule(100).boundaries)
    ]
    assert runs[0].y0.tobytes() == runs[1].y0.tobytes()
    assert runs[0].clamp_events == runs[1].clamp_events
    assert [r.alpha_hat for r in runs[0].steps] == [r.alpha_hat for r in runs[1].steps]


def test_only_continuous_conditioning_is_accepted():
    with pytest.raises(ValueError, match="'discrete_index' is not supported.*continuous_alpha"):
        _cfg(conditioning_mode="discrete_index")


@pytest.mark.parametrize("step", [2.5, 2.0, "2", None])
def test_a_non_integer_adjustment_step_is_rejected(step):
    # 2.5 matches no step index, so it would silently turn adaptation off
    with pytest.raises(ValueError, match=f"adjustment step {step!r} is not an integer"):
        _cfg(steps=6, adjustment_set={1, step})
    assert _cfg(steps=6, adjustment_set={np.int64(2), 3}).adjustment_set == {2, 3}


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


def test_non_finite_network_outputs_raise_at_the_step_that_made_them(small_models):
    # the engine's networks run without per-layer checks; the estimate and
    # the state are checked once per step
    den, est = small_models
    cfg = _cfg(steps=6, adjustment_set=frozenset({3}))
    bad_est = make_estimator(2, seed=101)
    bad_est.net.layers[-1].bias[0] = np.nan
    with pytest.raises(ValueError, match="estimate at step 3"):
        sample_batch(den, cfg, np.random.default_rng(0), 4, estimator=bad_est, adaptive=True)
    bad_den = make_denoiser(2, seed=100)
    bad_den.net.layers[-1].bias[1] = np.inf
    with pytest.raises(ValueError, match="after step 6"):
        sample_batch(bad_den, cfg, np.random.default_rng(0), 4, estimator=est, adaptive=True)


def test_engine_inference_goes_through_the_models_predict(small_models, monkeypatch):
    # one denoiser predict per step and one estimator predict per adjustment step
    den, est = small_models
    calls = {Denoiser: 0, Estimator: 0}
    for cls in calls:
        def counted(self, *args, _predict=cls.predict, _cls=cls):
            calls[_cls] += 1
            return _predict(self, *args)
        monkeypatch.setattr(cls, "predict", counted)
    cfg = _cfg(steps=9, adjustment_set=frozenset({9, 5, 4, 1}))
    sample_batch(den, cfg, np.random.default_rng(0), 8, estimator=est, adaptive=True)
    assert calls == {Denoiser: 9, Estimator: 4}


def _apply_float64(self, x):
    """The float64 reference for Network.apply: the layer loop on the float64 parameters."""
    for layer in self.layers:
        x = _layer_out(layer, x)
    return x


@pytest.mark.parametrize("beta0", [1e-4, 1e-6], ids=["linear", "linear-clamp"])
@pytest.mark.parametrize("steps", [6, 100])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_float32_inference_moves_sampled_outputs_by_float32_rounding_only(
    small_models, monkeypatch, beta0, steps, adaptive
):
    # the engine with float32 networks against the same engine with the
    # float64 layer loop; at beta0 = 1e-6 the first re-solve projects the
    # target of every chain
    den, est = small_models
    cfg = _cfg(steps=steps, family=ScheduleFamily("linear", beta0),
               adjustment_set=frozenset(range(1, steps + 1)))

    def run():
        return sample_batch(den, cfg, np.random.default_rng(3), 64, estimator=est, adaptive=adaptive)

    shipped = run()
    if adaptive and beta0 == 1e-6:
        assert shipped.clamp_events > 0
    monkeypatch.setattr(Network, "apply", _apply_float64)
    reference = run()
    assert np.max(np.abs(shipped.y0 - reference.y0)) <= 1e-4
    assert shipped.clamp_events == reference.clamp_events


def test_a_state_beyond_float32_range_raises_at_the_step_that_met_it(small_models, monkeypatch):
    # 1e39 overflows float32 inside the networks, and the engine's state
    # check names the step; the float64 layer loop samples on. Healthy
    # chains stay within |y| <= 3
    den, _ = small_models
    cfg = _cfg(steps=6)
    y_init = np.full((4, 2), 1e39)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="state after step 6"):
            sample_batch(den, cfg, np.random.default_rng(0), 4, y_init=y_init)
    monkeypatch.setattr(Network, "apply", _apply_float64)
    run = sample_batch(den, cfg, np.random.default_rng(0), 4, y_init=y_init)
    assert np.all(np.isfinite(run.y0))
