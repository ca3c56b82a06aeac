"""Two-sample energy distance and the estimator accuracy curve.

The energy distance sums pairwise Euclidean distances block by block: rows
of the first set are taken a few at a time so that each (rows, m) block of
distances holds at most about 2**15 float64 (256 KB), and no (n, m, dim)
difference tensor is ever built. Every point of both sets is taken: time
grows as n * m and memory stays at one block. The reference set's self-term
E|Y-Y'| is kept for the last reference seen, so repeated calls against one
held-out set compute it once.

Each block of squared distances is one matmul of augmented, centred
coordinates. Both sets are shifted by the second set's mean, so the squared
norms measure the sets' spread rather than their distance from the origin.
Left rows [-2a_i, |a_i|^2, 1] times right columns [b_j, 1, |b_j|^2] then
give |a_i - b_j|^2, rounded to within about (dim+2) * 2**-52 of the squared
norms, so an entry near 0 can come out as noise or negative. Entries below
_TAU * (max|a|^2 + max|b|^2), _TAU = 1e-8, are recomputed from the exact
differences of the inputs; these are near-duplicate pairs, looked for only
when the block minimum falls below the cut. A self term's diagonal is set
to exactly 0. _TAU sits about 7e5 times above the rounding error at dim 64
and 1e7 times at dim 2, so every kept entry is positive and good to about
six digits even at the cut; entries that near the cut are distances under
1e-4 of the sets' spread and barely weigh in the mean. Contract: each
pairwise mean agrees with the broadcast (n, m, dim) formula to 1e-12
relative, tested on 1- to 64-dim sets, sets shifted by 1e6 and clustered
sets with exact duplicates and pairs about 1e-9 apart.

Against the per-coordinate np.subtract.outer kernel it replaced (2 vCPU,
OPENBLAS_NUM_THREADS=1), one energy_distance(512x2, 2048x2) call with the
reference term cached took 3.6-4.4 ms instead of 6.4-8.4 ms, and
perfbench's few_step body (run_benchmark at N=6) 0.27 s instead of 0.35 s.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .diffusion import forward_diffuse
from .models import Estimator
from .nn import check_finite

# no cap: every pair is summed; kept only for perfbench/layers.py's pair counter
MAX_PAIRS = math.inf
_BLOCK_ELEMS = 1 << 15
# Gram entries below _TAU * (max|a|^2 + max|b|^2) are recomputed exactly
_TAU = 1e-8

# (copy of the reference set, its E|Y-Y'|), replaced on every miss
_self_term_memo: tuple[np.ndarray, float] | None = None


def _pairwise_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs.

    Pass the same array twice for a self term: its diagonal is then exactly 0.
    """
    n, m = a.shape[0], b.shape[0]
    same = a is b
    shift = b.mean(axis=0)
    ca = a - shift
    cb = ca if same else b - shift
    a_sq = (ca * ca).sum(axis=1)
    b_sq = a_sq if same else (cb * cb).sum(axis=1)
    # left row i times right column j is |a_i|^2 - 2 a_i.b_j + |b_j|^2
    left = np.column_stack([-2.0 * ca, a_sq, np.ones(n)])
    right = np.vstack([cb.T, np.ones(m), b_sq])
    cut = _TAU * (a_sq.max() + b_sq.max())
    rows = max(1, _BLOCK_ELEMS // m)
    buf = np.empty((min(rows, n), m))
    total = 0.0
    for start in range(0, n, rows):
        block = left[start:start + rows]
        d2 = np.matmul(block, right, out=buf[:block.shape[0]])
        if same:
            diag = np.arange(d2.shape[0])
            d2[diag, start + diag] = cut  # kept out of the recompute, zeroed below
        if d2.min() < cut:
            i, j = np.nonzero(d2 < cut)
            diff = a[start + i] - b[j]
            d2[i, j] = (diff * diff).sum(axis=1)
        if same:
            d2[diag, start + diag] = 0.0
        np.sqrt(d2, out=d2)
        total += float(d2.sum())
    return total / (n * m)


def _self_term(b: np.ndarray) -> float:
    """E|Y-Y'| of b, reused while b equals the last reference seen."""
    global _self_term_memo
    memo = _self_term_memo
    if memo is not None and np.array_equal(memo[0], b):
        return memo[1]
    value = _pairwise_mean(b, b)
    _self_term_memo = (b.copy(), value)
    return value


def _as_points(x) -> np.ndarray:
    """(n, dim) float64 view of a point set."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"sample sets must be 2-D (n, dim), got shape {x.shape}")
    return x


def energy_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| over all pairs (V-statistic).

    Symmetric, zero for identical sample sets, nonnegative up to float
    error. Inputs are (n, dim) point sets; any other rank raises ShapeError.
    Every point of both sets is taken, so the cost grows as n * m, while
    memory stays at one row block of at most about 2**15 distances.
    E|Y-Y'| is reused from the previous call when the second set is equal
    to the one seen then. A NaN or infinite coordinate raises ValueError
    naming the set and its row.
    """
    a, b = _as_points(samples_a), _as_points(samples_b)
    for which, x in (("first", a), ("second", b)):
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise ValueError(f"{which} sample set has a non-finite point at row {int(bad.argmax())}")
    if a.size == 0 or b.size == 0:
        raise ValueError("energy distance needs non-empty sample sets")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return 2.0 * _pairwise_mean(a, b) - _pairwise_mean(a, a) - _self_term(b)


def eval_estimator_curve(
    estimator: Estimator,
    data: np.ndarray,
    grid,
    samples_per_point: int = 256,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Per-grid-point MSE of the estimator on freshly corrupted samples."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("evaluation grid must not be empty")
    if any(not (0.0 < g < 1.0) for g in grid):
        raise ValueError("grid values must lie in (0, 1)")
    if samples_per_point < 1:
        raise ValueError(f"samples_per_point must be >= 1, got {samples_per_point}")
    data = np.asarray(data, dtype=np.float64)
    curve = []
    for i, ab in enumerate(grid):
        rng = np.random.default_rng([seed, i])
        y0 = data[rng.integers(0, data.shape[0], size=samples_per_point)]
        eps = rng.standard_normal(y0.shape)
        y = forward_diffuse(y0, ab, eps)
        pred = estimator.predict(y)
        check_finite(pred, f"estimator prediction at grid point {ab!r}")
        curve.append((ab, float(np.mean((pred - ab) ** 2))))
    return curve
