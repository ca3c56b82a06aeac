"""Deterministic toy datasets, standardized to zero mean / unit variance.

Standardization uses fixed per-kind moments (analytic where available,
deterministic quadrature for the swiss roll), never batch statistics, so
generation stays a pure function of the DatasetSpec and sample moments
obey the usual statistical fluctuation bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KINDS = ("gaussian_mixture_2d", "swiss_roll_2d", "sinusoid_1d")


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "gaussian_mixture_2d"
    size: int = 4096
    seed: int = 0
    # gaussian_mixture_2d: components on a circle
    components: int = 8
    radius: float = 2.0
    sigma: float = 0.1
    weights: tuple[float, ...] | None = None
    # swiss_roll_2d
    roll_noise: float = 0.3
    # sinusoid_1d
    wave_length: int = 64
    freq_lo: float = 1.0
    freq_hi: float = 8.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.kind == "gaussian_mixture_2d":
            if self.components < 1 or not (0 < self.sigma < np.inf):
                raise ValueError("mixture needs components >= 1 and a finite sigma > 0")
            if not np.isfinite(self.radius):
                raise ValueError(f"mixture radius must be finite, got {self.radius}")
            if self.weights is not None:
                if len(self.weights) != self.components:
                    raise ValueError("weights length must equal components")
                w = np.asarray(self.weights, dtype=np.float64)
                if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
                    raise ValueError("weights must be finite and nonnegative with positive sum")
        elif self.kind == "swiss_roll_2d":
            if not np.isfinite(self.roll_noise):
                raise ValueError(f"roll_noise must be finite, got {self.roll_noise}")
        else:
            if self.wave_length < 1:
                raise ValueError(f"wave_length must be >= 1, got {self.wave_length}")
            if not (-np.inf < self.freq_lo <= self.freq_hi < np.inf):
                raise ValueError(
                    f"sinusoid needs finite freq_lo <= freq_hi, got {self.freq_lo} and {self.freq_hi}"
                )

    @property
    def dim(self) -> int:
        return self.wave_length if self.kind == "sinusoid_1d" else 2


def _mixture_centers(spec: DatasetSpec) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(spec.components) / spec.components
    return spec.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _mixture_weights(spec: DatasetSpec) -> np.ndarray:
    if spec.weights is None:
        return np.full(spec.components, 1.0 / spec.components)
    w = np.asarray(spec.weights, dtype=np.float64)
    return w / w.sum()


def _mixture_moments(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    centers = _mixture_centers(spec)
    w = _mixture_weights(spec)
    mean = w @ centers
    var = w @ (centers**2) + spec.sigma**2 - mean**2
    return mean, var


@lru_cache(maxsize=16)
def _roll_moments(noise: float) -> tuple[tuple[float, float], tuple[float, float]]:
    # deterministic midpoint quadrature over the roll parameter
    u = (np.arange(1 << 19) + 0.5) / (1 << 19)
    t = 1.5 * np.pi * (1.0 + 2.0 * u)
    xy = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
    mean = xy.mean(axis=0)
    var = xy.var(axis=0) + noise**2
    return tuple(mean), tuple(var)


def generate(spec: DatasetSpec) -> np.ndarray:
    """Draw spec.size standardized samples; bit-identical for equal specs."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian_mixture_2d":
        centers = _mixture_centers(spec)
        comp = rng.choice(spec.components, size=spec.size, p=_mixture_weights(spec))
        raw = centers[comp] + spec.sigma * rng.standard_normal((spec.size, 2))
        mean, var = _mixture_moments(spec)
    elif spec.kind == "swiss_roll_2d":
        t = 1.5 * np.pi * (1.0 + 2.0 * rng.uniform(size=spec.size))
        raw = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
        raw += spec.roll_noise * rng.standard_normal((spec.size, 2))
        m, v = _roll_moments(spec.roll_noise)
        mean, var = np.array(m), np.array(v)
    else:
        freq = rng.uniform(spec.freq_lo, spec.freq_hi, size=spec.size)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.size)
        j = np.arange(spec.wave_length)
        raw = np.sin(2.0 * np.pi * freq[:, None] * j / spec.wave_length + phase[:, None])
        # uniform phase: per-dim mean 0, variance 1/2 exactly
        mean, var = np.zeros(spec.wave_length), np.full(spec.wave_length, 0.5)
    out = (raw - mean) / np.sqrt(var)
    if not np.all(np.isfinite(out)):
        raise ValueError("generated batch contains non-finite values")
    return out


def held_out(spec: DatasetSpec, size: int | None = None) -> DatasetSpec:
    """Same distribution, disjoint stream: bumps the seed."""
    from dataclasses import replace

    return replace(spec, seed=spec.seed + 1, size=spec.size if size is None else size)
