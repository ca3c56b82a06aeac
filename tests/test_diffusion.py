import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.datasets import DatasetSpec, generate
from adadiffuse.diffusion import (
    BLOCK_STEPS,
    TrainConfig,
    denoiser_train_step,
    estimator_loss,
    estimator_train_step,
    forward_diffuse,
    make_noisy_batch,
    sample_noise_levels,
    train_denoiser,
    train_estimator,
    training_schedule,
)
from adadiffuse.errors import ShapeError
from adadiffuse.models import Estimator, make_denoiser, make_estimator
from adadiffuse.nn import AdamState
from adadiffuse.schedule import NoiseSchedule


def test_forward_diffuse_extremes():
    y0 = np.array([1.0, -2.0])
    eps = np.array([0.5, 0.5])
    np.testing.assert_array_equal(forward_diffuse(y0, 1.0, eps), y0)
    np.testing.assert_array_equal(forward_diffuse(y0, 0.0, eps), eps)


def test_forward_diffuse_quarter_retention():
    got = forward_diffuse(np.array([2.0]), 0.25, np.array([4.0]))
    assert got[0] == pytest.approx(0.5 * 2.0 + math.sqrt(0.75) * 4.0, abs=1e-15)


def test_forward_diffuse_rejects_mismatch():
    with pytest.raises(ShapeError):
        forward_diffuse(np.zeros(3), 0.5, np.zeros(2))
    with pytest.raises(ValueError):
        forward_diffuse(np.zeros(2), 1.5, np.zeros(2))


@pytest.mark.parametrize("ab", [math.nan, np.array([0.5, math.nan])])
def test_forward_diffuse_rejects_nan_alpha_bar(ab):
    with pytest.raises(ValueError, match="outside"):
        forward_diffuse(np.zeros((2, 3)), ab, np.zeros((2, 3)))


def test_sample_noise_level_single_interval():
    sched = NoiseSchedule.from_betas([0.75])  # l = 1, 0.5
    s, a = sample_noise_levels(np.random.default_rng(0), sched, 200)
    assert np.all(s == 1)
    assert np.all((0.5 <= a) & (a <= 1.0))


def test_sample_noise_level_deterministic_under_seed():
    sched = training_schedule(50)
    s1, a1 = sample_noise_levels(np.random.default_rng(42), sched, 5)
    s2, a2 = sample_noise_levels(np.random.default_rng(42), sched, 5)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(a1, a2)


def test_sample_noise_level_interval_frequencies():
    # chi-square against the uniform multinomial, df = 9, 3 sigma ~ 21.7
    sched = training_schedule(10)
    l = sched.boundaries
    rng = np.random.default_rng(123)
    s, a = sample_noise_levels(rng, sched, 100_000)
    counts = np.bincount(s, minlength=11)[1:]
    chi2 = (((counts - 10_000.0) ** 2) / 10_000.0).sum()
    assert chi2 < 9 + 3 * math.sqrt(18)
    assert np.all(a <= l[s - 1]) and np.all(a >= l[s])


def test_noisy_batch_identity_holds_exactly():
    data = generate(DatasetSpec(size=256, seed=3))
    sched = training_schedule(100)
    batch = make_noisy_batch(data, sched, [np.random.default_rng(9)], 256)
    recon = batch.sqrt_alpha_bar[:, None] * batch.y0 + np.sqrt(
        1.0 - batch.sqrt_alpha_bar[:, None] ** 2
    ) * batch.epsilon
    np.testing.assert_array_equal(batch.y_s, recon)


class _EchoNoiseDenoiser:
    """Test double: reproduces the injected noise it will be asked about."""


def test_denoiser_step_zero_loss_when_prediction_exact(monkeypatch):
    data = generate(DatasetSpec(size=64, seed=1))
    den = make_denoiser(2, seed=0)
    sched = training_schedule(50)
    opt = AdamState.for_network(den.net)

    batch = make_noisy_batch(data, sched, [np.random.default_rng(7)], 16)
    x = den.conditioned_input(batch.y_s, batch.sqrt_alpha_bar)
    monkeypatch.setattr(
        den.net, "forward", lambda x: [x, batch.epsilon.copy()]
    )
    monkeypatch.setattr(den.net, "backward", lambda acts, g: np.zeros_like(den.net.params))
    before = den.net.params.copy()
    loss = denoiser_train_step(den, opt, x, batch.epsilon)
    assert loss == 0.0
    assert np.array_equal(before, den.net.params)


def test_denoiser_training_deterministic():
    data = generate(DatasetSpec(size=128, seed=4))
    cfg = TrainConfig(batch_size=16, total_steps=5, seed=11, stage_count=50)
    den1 = make_denoiser(2, seed=2)
    den2 = make_denoiser(2, seed=2)
    l1 = train_denoiser(den1, data, cfg)
    l2 = train_denoiser(den2, data, cfg)
    assert l1 == l2
    assert np.array_equal(den1.net.params, den2.net.params)


def test_denoiser_training_reduces_loss():
    # training-progress oracle: late-window mean undercuts the untrained
    # early-window mean
    data = generate(DatasetSpec(size=512, seed=5))
    cfg = TrainConfig(batch_size=64, total_steps=400, seed=1, stage_count=200)
    den = make_denoiser(2, seed=6)
    losses = train_denoiser(den, data, cfg)
    assert np.mean(losses[-40:]) < np.mean(losses[:40])


def test_estimator_loss_values():
    assert estimator_loss(0.7, 0.7) == 0.0
    assert estimator_loss(0.9, 0.99) == pytest.approx(math.log(10), rel=1e-12)


def test_estimator_loss_is_rms_over_batch():
    rng = np.random.default_rng(2)
    t = rng.uniform(0.01, 0.99, size=50)
    h = rng.uniform(0.01, 0.99, size=50)
    gaps = np.log(1 - t) - np.log(1 - h)
    assert estimator_loss(t, h) == pytest.approx(np.sqrt(np.mean(gaps**2)), rel=1e-12)


def test_estimator_loss_symmetric_and_zero_iff_equal():
    assert estimator_loss(0.3, 0.8) == pytest.approx(estimator_loss(0.8, 0.3), rel=1e-12)
    assert estimator_loss(0.3, 0.8) > 0


def test_estimator_loss_penalizes_near_one_errors_more():
    delta = 1e-3
    assert estimator_loss(0.999, 0.999 - delta) > estimator_loss(0.5, 0.5 - delta)


def test_estimator_training_deterministic():
    data = generate(DatasetSpec(size=128, seed=4))
    cfg = TrainConfig(batch_size=16, total_steps=5, seed=3, stage_count=50)
    e1, e2 = make_estimator(2, seed=8), make_estimator(2, seed=8)
    assert train_estimator(e1, data, cfg) == train_estimator(e2, data, cfg)


def test_estimator_training_reduces_loss():
    # per-step losses are noisy (batch-dependent noise-level draws), so the
    # progress oracle compares windowed means
    data = generate(DatasetSpec(size=512, seed=6))
    cfg = TrainConfig(batch_size=64, total_steps=800, seed=2, stage_count=200)
    est = make_estimator(2, seed=7)
    losses = train_estimator(est, data, cfg)
    assert np.mean(losses[-40:]) < np.mean(losses[:40])


def test_estimator_step_zero_loss_perfect_prediction(monkeypatch):
    data = generate(DatasetSpec(size=32, seed=9))
    est = make_estimator(2, seed=0)
    sched = training_schedule(50)
    opt = AdamState.for_network(est.net)
    batch = make_noisy_batch(data, sched, [np.random.default_rng(5)], 32)
    monkeypatch.setattr(est.net, "forward", lambda x: [x, (batch.sqrt_alpha_bar**2)[:, None]])
    monkeypatch.setattr(est.net, "backward", lambda acts, g: np.zeros_like(est.net.params))
    loss = estimator_train_step(est, opt, batch.y_s, batch.sqrt_alpha_bar**2)
    assert loss == 0.0


def _per_step_reference(model, data, cfg):
    """The unblocked loop: each step picks, draws, corrupts and conditions
    its own batch, then updates."""
    schedule = training_schedule(cfg.stage_count)
    opt = AdamState.for_network(model.net, learning_rate=cfg.learning_rate)
    losses = []
    for step in range(cfg.total_steps):
        rng = np.random.default_rng([cfg.seed, step])
        y0 = data[rng.integers(0, data.shape[0], size=cfg.batch_size)]
        _, sqrt_ab = sample_noise_levels(rng, schedule, y0.shape[0])
        eps = rng.standard_normal(y0.shape)
        y_s = forward_diffuse(y0, sqrt_ab**2, eps)
        if isinstance(model, Estimator):
            loss = estimator_train_step(model, opt, y_s, sqrt_ab**2)
        else:
            loss = denoiser_train_step(model, opt, model.conditioned_input(y_s, sqrt_ab), eps)
        losses.append(loss)
    return losses


_MODELS = {
    "continuous_alpha": (lambda: make_denoiser(2, 3, "continuous_alpha"), train_denoiser),
    "estimator": (lambda: make_estimator(2, 3), train_estimator),
}


@pytest.mark.parametrize("kind", sorted(_MODELS))
@pytest.mark.parametrize("total_steps", [
    1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3])
def test_blocked_training_matches_the_per_step_loop_bit_for_bit(kind, total_steps):
    make, trainer = _MODELS[kind]
    data = generate(DatasetSpec(size=300, seed=2))
    cfg = TrainConfig(batch_size=24, total_steps=total_steps, seed=5, stage_count=80)
    blocked, reference = make(), make()
    assert trainer(blocked, data, cfg) == _per_step_reference(reference, data, cfg)
    assert np.array_equal(blocked.net.params, reference.net.params)


def test_progress_sees_each_step_loss_and_that_step_parameters():
    data = generate(DatasetSpec(size=200, seed=4))
    total, inside = 2 * BLOCK_STEPS + 3, BLOCK_STEPS + 4
    cfg = TrainConfig(batch_size=16, total_steps=total, seed=9, stage_count=50)
    den = make_denoiser(2, seed=1)
    seen, snapshot = [], []

    def progress(step, loss):
        seen.append((step, loss))
        if step == inside:
            snapshot.append(den.net.params.copy())

    losses = train_denoiser(den, data, cfg, progress=progress)
    assert seen == list(enumerate(losses))
    short = make_denoiser(2, seed=1)
    assert train_denoiser(short, data, TrainConfig(
        batch_size=16, total_steps=inside + 1, seed=9, stage_count=50)) == losses[:inside + 1]
    assert np.array_equal(snapshot[0], short.net.params)


def test_non_finite_loss_mid_block_stops_at_that_step(monkeypatch):
    data = generate(DatasetSpec(size=200, seed=4))
    bad = BLOCK_STEPS + 5
    cfg = TrainConfig(batch_size=16, total_steps=3 * BLOCK_STEPS, seed=2, stage_count=50)
    est = make_estimator(2, seed=6)
    forward, calls, seen = est.net.forward, [], []

    def poisoned(x):
        calls.append(None)
        acts = forward(x)
        return [*acts[:-1], acts[-1] * np.nan] if len(calls) == bad + 1 else acts

    monkeypatch.setattr(est.net, "forward", poisoned)
    with pytest.raises(ValueError, match="non-finite training loss"):
        train_estimator(est, data, cfg, progress=lambda step, loss: seen.append(step))
    assert seen == list(range(bad))
    clean = make_estimator(2, seed=6)
    train_estimator(clean, data, TrainConfig(batch_size=16, total_steps=bad, seed=2, stage_count=50))
    assert np.array_equal(est.net.params, clean.net.params)


def test_training_memory_is_one_block_whatever_the_step_count():
    import tracemalloc

    data = generate(DatasetSpec(size=1024, seed=1))

    def peak(total_steps):
        den = make_denoiser(2, seed=0)
        cfg = TrainConfig(batch_size=128, total_steps=total_steps, seed=0, stage_count=100)
        tracemalloc.start()
        try:
            train_denoiser(den, data, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = BLOCK_STEPS * 128 * (2 + 1 + 16) * 8  # the conditioned rows
    step, block, blocks = peak(1), peak(BLOCK_STEPS), peak(6 * BLOCK_STEPS)
    assert blocks - step < 2 * one_block  # one block's inputs over one step's peak
    assert blocks < block + one_block / 4  # and no more for more blocks


@settings(max_examples=30, deadline=None)
@given(
    ab=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_forward_diffuse_identity_property(ab, seed):
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((4, 3))
    eps = rng.standard_normal((4, 3))
    ys = forward_diffuse(y0, ab, eps)
    np.testing.assert_allclose(
        ys, math.sqrt(ab) * y0 + math.sqrt(1 - ab) * eps, atol=1e-15
    )


def test_training_schedule_is_valid():
    sched = training_schedule(1000)
    assert isinstance(sched, NoiseSchedule)
    assert len(sched) == 1000
    assert sched.betas[0] == pytest.approx(1e-4)
    assert sched.betas[-1] == pytest.approx(2e-2)


@pytest.mark.parametrize("n", [1, 2, 6, 50, 1000, 4000])
def test_training_schedule_keeps_the_bits_of_the_linspace_schedule(n):
    got = training_schedule(n)
    want = NoiseSchedule.from_betas(np.linspace(1e-4, 2e-2, n))
    for row in ("betas", "alpha_bars", "boundaries"):
        assert getattr(got, row).tobytes() == getattr(want, row).tobytes()
