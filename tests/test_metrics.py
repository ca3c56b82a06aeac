import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse import metrics
from adadiffuse.datasets import DatasetSpec, generate
from adadiffuse.errors import ShapeError
from adadiffuse.metrics import energy_distance, eval_estimator_curve
from adadiffuse.models import make_estimator


def test_energy_distance_identical_sets_zero():
    x = np.random.default_rng(0).standard_normal((100, 2))
    assert abs(energy_distance(x, x.copy())) <= 1e-12


def test_energy_distance_singletons():
    a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
    assert energy_distance(a, b) == pytest.approx(10.0, abs=1e-12)


def test_energy_distance_symmetric():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((60, 3)), rng.standard_normal((80, 3)) + 0.5
    assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), abs=1e-12)


def test_energy_distance_separation_oracle():
    # disjoint far-apart clusters vs a same-distribution split
    rng = np.random.default_rng(2)
    base = rng.standard_normal((400, 2))
    near = energy_distance(base[:200], base[200:])
    far = energy_distance(base[:200], base[200:] + 10.0)
    assert far > near
    assert far > 1.0


def test_energy_distance_rejects_mismatch_and_empty():
    with pytest.raises(ShapeError):
        energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        energy_distance(np.zeros((0, 2)), np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["first", "second"])
def test_energy_distance_rejects_non_finite_points(bad, which):
    good, poisoned = np.zeros((4, 2)), np.zeros((5, 2))
    poisoned[3, 1] = bad
    poisoned[4, 0] = bad
    args = (poisoned, good) if which == "first" else (good, poisoned)
    with pytest.raises(ValueError, match=f"{which} sample set .* row 3"):
        energy_distance(*args)


def test_energy_distance_subsampling_stays_consistent():
    # above the 1e6-pair budget the strided estimate must stay close to the
    # full-pair value computed on a smaller equivalent problem
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2000, 2))
    b = rng.standard_normal((2000, 2)) + 1.0
    big = energy_distance(a, b)  # 4e6 pairs -> strided
    small = energy_distance(a[::4], b[::4])  # exact on 500x500
    assert big == pytest.approx(small, abs=0.05)
    assert abs(energy_distance(a, a.copy())) <= 1e-12  # zero survives striding


def _broadcast_pairwise_mean(a, b):
    d = a[:, None, :] - b[None, :, :]
    return float(np.sqrt((d * d).sum(axis=-1)).mean())


def _broadcast_energy_distance(a, b):
    """Full-tensor formula with the package's striding rule, as the oracle."""
    if a.shape[0] * b.shape[0] > metrics.MAX_PAIRS:
        scale = np.sqrt(metrics.MAX_PAIRS / (a.shape[0] * b.shape[0]))
        a = metrics._stride_subsample(a, max(1, int(a.shape[0] * scale)))
        b = metrics._stride_subsample(b, max(1, int(b.shape[0] * scale)))
    return (2.0 * _broadcast_pairwise_mean(a, b)
            - _broadcast_pairwise_mean(a, a) - _broadcast_pairwise_mean(b, b))


def _clustered(rng, n, centres):
    """Points on a few centres: exact duplicates and pairs 1e-9 apart."""
    jitter = rng.integers(0, 2, size=(n, 1)) * 1e-9
    return centres[rng.integers(0, centres.shape[0], size=n)] + jitter


@pytest.mark.parametrize("dim, m, regime", [
    pytest.param(1, 2048, "plain", id="1"),
    pytest.param(2, 2048, "plain", id="2"),
    pytest.param(3, 2048, "plain", id="3"),
    pytest.param(4, 2048, "plain", id="4"),
    # many dims; m is smaller so the (m, m, 64) oracle stays small
    pytest.param(64, 256, "plain", id="64"),
    # squared norms 1e12 above the squared distances
    pytest.param(2, 2048, "shifted", id="2-shifted-1e6"),
    # near-duplicate pairs take the exact-recompute branch
    pytest.param(2, 2048, "clustered", id="2-clustered"),
])
def test_blocked_kernel_matches_broadcast_oracle_around_block_boundaries(dim, m, regime):
    rng = np.random.default_rng(dim)
    rows = metrics._BLOCK_ELEMS // m
    offset = 1e6 if regime == "shifted" else 0.0
    if regime == "clustered":
        centres = rng.standard_normal((64, dim))
        b = _clustered(rng, m, centres)
        assert abs(energy_distance(b, b.copy())) <= 1e-12
    else:
        b = rng.standard_normal((m, dim)) + offset
    for n in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1):
        if regime == "clustered":
            a = _clustered(rng, n, centres)
        else:
            a = rng.standard_normal((n, dim)) + 0.3 + offset
        got = metrics._pairwise_mean(a, b)
        assert got == pytest.approx(_broadcast_pairwise_mean(a, b), rel=1e-12, abs=0)
        ed = energy_distance(a, b)
        assert ed == pytest.approx(_broadcast_energy_distance(a, b), rel=1e-12, abs=0)


def test_reference_term_memo_never_serves_a_stale_value(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_PAIRS", 1000)
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((20, 2)), rng.standard_normal((40, 2))

    def check(x, y):
        got = energy_distance(x, y)
        assert got == pytest.approx(_broadcast_energy_distance(x, y), rel=1e-12, abs=0)
        return got

    first = check(a, b)
    assert check(a, b.copy()) == first  # equal reference: equal value
    b[3] += 2.0  # mutated in place between calls
    check(a, b)
    check(a, b + 0.5)  # same shape, other values
    check(rng.standard_normal((30, 2)), b)  # 30 x 40 pairs stride b to 36 rows


def test_energy_distance_peak_memory_stays_small(monkeypatch):
    monkeypatch.setattr(metrics, "_self_term_memo", None)
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((512, 2)), rng.standard_normal((2048, 2))
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_energy_distance_1d_inputs_are_scalar_samples():
    # E|X-Y| = 9.5/9, E|X-X'| = 8/9, E|Y-Y'| = 10/9
    assert energy_distance([0.0, 1.0, 2.0], [0.0, 1.0, 2.5]) == pytest.approx(1 / 9, abs=1e-12)
    # E|X-Y| = 5/6, E|X-X'| = 8/9, E|Y-Y'| = 1/2
    assert energy_distance([0.0, 1.0, 2.0], [0.0, 1.0]) == pytest.approx(5 / 18, abs=1e-12)
    x = np.random.default_rng(13).standard_normal(50)
    assert energy_distance(x, x + 1.0) == energy_distance(x[:, None], x[:, None] + 1.0)


def test_energy_distance_rejects_inputs_above_2d():
    with pytest.raises(ShapeError):
        energy_distance(np.zeros((2, 2, 2)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        energy_distance(np.zeros((3, 2)), np.zeros((2, 2, 2)))


@settings(max_examples=20, deadline=None)
@given(
    na=st.integers(min_value=1, max_value=40),
    nb=st.integers(min_value=1, max_value=40),
    shift=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_energy_distance_nonnegative_property(na, nb, shift, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((na, 2))
    b = rng.standard_normal((nb, 2)) + shift
    assert energy_distance(a, b) >= -1e-12


class _OracleEstimator:
    """Test double that knows the true level it will be asked about."""

    def __init__(self, value):
        self.value = value

    def predict(self, y):
        return np.full(np.atleast_2d(y).shape[0], self.value)


def test_curve_zero_for_perfect_oracle():
    data = generate(DatasetSpec(size=128, seed=0))
    grid = [0.25]
    curve = eval_estimator_curve(_OracleEstimator(0.25), data, grid, 64)
    assert curve[0] == (0.25, 0.0)


def test_curve_names_the_grid_point_of_a_non_finite_prediction():
    # predict does not check its output; the curve checks what it reads
    data = generate(DatasetSpec(size=64, seed=0))
    est = make_estimator(2, seed=0)
    est.net.layers[-1].bias[0] = np.nan
    with pytest.raises(ValueError, match="grid point 0.25"):
        eval_estimator_curve(est, data, [0.25, 0.5], 16)


def test_curve_rejects_empty_or_out_of_range_grid():
    data = generate(DatasetSpec(size=16, seed=0))
    est = make_estimator(2, seed=0)
    with pytest.raises(ValueError):
        eval_estimator_curve(est, data, [], 16)
    with pytest.raises(ValueError):
        eval_estimator_curve(est, data, [0.0, 0.5], 16)
    with pytest.raises(ValueError):
        eval_estimator_curve(est, data, [0.5], samples_per_point=0)


def test_curve_deterministic_and_sized():
    data = generate(DatasetSpec(size=256, seed=1))
    est = make_estimator(2, seed=3)
    grid = (0.1, 0.5, 0.9)
    c1 = eval_estimator_curve(est, data, grid, 64, seed=5)
    c2 = eval_estimator_curve(est, data, grid, 64, seed=5)
    assert c1 == c2
    assert [ab for ab, _ in c1] == list(grid)


def test_training_improves_curve_broadly_and_near_one():
    # before/after comparison oracle. An untrained net emits ~0.48 constant,
    # which no single-sample 2-D estimator can beat on MSE at the mid grid
    # points, so the comparison is asserted where information allows: most
    # of the grid pointwise, the near-1 region decisively, and the mean.
    from adadiffuse.diffusion import TrainConfig, train_estimator

    data = generate(DatasetSpec(size=2048, seed=2))
    grid = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    untrained = make_estimator(2, seed=4)
    baseline = eval_estimator_curve(untrained, data, grid, 256)
    trained = make_estimator(2, seed=4)
    train_estimator(trained, data, TrainConfig(batch_size=256, total_steps=3000, seed=0))
    after = eval_estimator_curve(trained, data, grid, 256)

    wins = sum(t <= u for (_, t), (_, u) in zip(after, baseline))
    assert wins >= 0.6 * len(grid)
    by_ab = {ab: (t, u) for (ab, t), (_, u) in zip(after, baseline)}
    for ab in (0.99, 0.999):
        t, u = by_ab[ab]
        assert t < 0.5 * u
    assert np.mean([t for _, t in after]) < np.mean([u for _, u in baseline])
