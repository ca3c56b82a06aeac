"""Deterministic toy datasets, standardized to zero mean / unit variance.

Standardization uses fixed analytic per-kind moments, never batch
statistics, so generation stays a pure function of the DatasetSpec and
sample moments obey the usual statistical fluctuation bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("gaussian_mixture_2d", "sinusoid_1d")


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "gaussian_mixture_2d"
    size: int = 4096
    seed: int = 0
    # gaussian_mixture_2d: components on a circle
    components: int = 8
    radius: float = 2.0
    sigma: float = 0.1
    # sinusoid_1d
    wave_length: int = 64
    freq_lo: float = 1.0
    freq_hi: float = 8.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.seed < 0:
            raise ValueError(f"dataset.seed must be >= 0, got {self.seed}")
        if self.kind == "gaussian_mixture_2d":
            if self.components < 1 or not (0 < self.sigma < np.inf):
                raise ValueError("mixture needs components >= 1 and a finite sigma > 0")
            if not np.isfinite(self.radius):
                raise ValueError(f"mixture radius must be finite, got {self.radius}")
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
    return np.full(spec.components, 1.0 / spec.components)


def _mixture_moments(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    centers = _mixture_centers(spec)
    w = _mixture_weights(spec)
    mean = w @ centers
    var = w @ (centers**2) + spec.sigma**2 - mean**2
    return mean, var


def generate(spec: DatasetSpec) -> np.ndarray:
    """Draw spec.size standardized samples; bit-identical for equal specs."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian_mixture_2d":
        centers = _mixture_centers(spec)
        comp = rng.choice(spec.components, size=spec.size, p=_mixture_weights(spec))
        raw = centers[comp] + spec.sigma * rng.standard_normal((spec.size, 2))
        mean, var = _mixture_moments(spec)
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
