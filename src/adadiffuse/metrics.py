"""Two-sample energy distance and the estimator accuracy curve.

The energy distance sums pairwise Euclidean distances block by block: rows
of the first set are taken a few at a time so that each (rows, m) block of
distances holds at most about 2**15 float64 (256 KB), and no (n, m, dim)
difference tensor is ever built. The reference set's self-term E|Y-Y'| is
kept for the last reference seen, so repeated calls against one held-out
set compute it once.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .diffusion import forward_diffuse
from .models import Estimator
from .nn import check_finite

MAX_PAIRS = 1_000_000
_BLOCK_ELEMS = 1 << 15

# (strided reference copy, its E|Y-Y'|), replaced on every miss
_self_term_memo: tuple[np.ndarray, float] | None = None


def _pairwise_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance over all (row of a, row of b) pairs."""
    n, m = a.shape[0], b.shape[0]
    rows = max(1, _BLOCK_ELEMS // m)
    total = 0.0
    for start in range(0, n, rows):
        block = a[start:start + rows]
        acc = np.subtract.outer(block[:, 0], b[:, 0])
        acc *= acc
        for k in range(1, a.shape[1]):
            d = np.subtract.outer(block[:, k], b[:, k])
            d *= d
            acc += d
        np.sqrt(acc, out=acc)
        total += float(acc.sum())
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


def _stride_subsample(x: np.ndarray, k: int) -> np.ndarray:
    if x.shape[0] <= k:
        return x
    idx = np.linspace(0, x.shape[0] - 1, k).astype(np.int64)
    return x[idx]


def _as_points(x) -> np.ndarray:
    """(n, dim) float64 view of a point set; a 1-D input is n scalar samples."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2:
        raise ShapeError(f"sample sets must be 1-D or 2-D, got shape {x.shape}")
    return x if x.ndim == 2 else x.reshape(-1, 1)


def energy_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| over all pairs (V-statistic).

    Symmetric, zero for identical sample sets, nonnegative up to float
    error. Inputs are (n, dim) point sets; a 1-D input is n scalar samples.
    Point sets are deterministically strided down when the pair count
    would exceed 1e6. Pairwise sums run in row blocks of at most about
    2**15 distances, and E|Y-Y'| of the strided second set is reused from
    the previous call when that set is equal to the one seen then.
    """
    a, b = _as_points(samples_a), _as_points(samples_b)
    if a.size == 0 or b.size == 0:
        raise ValueError("energy distance needs non-empty sample sets")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] * b.shape[0] > MAX_PAIRS:
        scale = np.sqrt(MAX_PAIRS / (a.shape[0] * b.shape[0]))
        a = _stride_subsample(a, max(1, int(a.shape[0] * scale)))
        b = _stride_subsample(b, max(1, int(b.shape[0] * scale)))
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
