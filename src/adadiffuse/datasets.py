"""Deterministic toy datasets, standardized to zero mean / unit variance.

Standardization uses the mixture's fixed analytic moments, never batch
statistics, so generation stays a pure function of the DatasetSpec and
sample moments obey the usual statistical fluctuation bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("gaussian_mixture_2d",)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "gaussian_mixture_2d"
    size: int = 4096
    seed: int = 0
    # gaussian_mixture_2d: components on a circle
    components: int = 8
    radius: float = 2.0
    sigma: float = 0.1
    dim = 2  # a class constant, not a field

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.seed < 0:
            raise ValueError(f"dataset.seed must be >= 0, got {self.seed}")
        if self.components < 1 or not (0 < self.sigma < np.inf):
            raise ValueError("mixture needs components >= 1 and a finite sigma > 0")
        if not np.isfinite(self.radius):
            raise ValueError(f"mixture radius must be finite, got {self.radius}")


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
    centers = _mixture_centers(spec)
    comp = rng.choice(spec.components, size=spec.size, p=_mixture_weights(spec))
    raw = centers[comp] + spec.sigma * rng.standard_normal((spec.size, 2))
    mean, var = _mixture_moments(spec)
    out = (raw - mean) / np.sqrt(var)
    if not np.all(np.isfinite(out)):
        raise ValueError("generated batch contains non-finite values")
    return out


def held_out(spec: DatasetSpec, size: int | None = None) -> DatasetSpec:
    """Same distribution, disjoint stream: bumps the seed."""
    from dataclasses import replace

    return replace(spec, seed=spec.seed + 1, size=spec.size if size is None else size)
