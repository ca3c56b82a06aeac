"""Denoiser and noise-level estimator models.

Both are plain MLPs from the nn kernel and take a batch of state rows
(n, data_dim); a single state is one row. The denoiser consumes each
state concatenated with its conditioning signal, the continuous noise
level sqrt(alpha_bar) (as in WaveGrad, arXiv:2009.00713), plus a 16-dim
sinusoidal embedding of that scalar. A re-solved schedule asks about
levels no training stage names, and the continuous level takes any of
them directly. The estimator consumes the raw state and emits one
sigmoid-bounded value per row. predict is the one inference path, used
by the sampler and the estimator curve: it runs Network.apply, which
computes in float32 and returns float64 (agreeing with Network.forward's
output to float32 precision) and does not check its output for
finiteness. Training runs the networks through Network.forward and
Network.backward in float64 (diffusion.py).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nn import Network, init_network

EMBED_DIM = 16

DENOISER_HIDDEN = (128, 128, 128)
ESTIMATOR_HIDDEN = (64, 64)


def _require_continuous(conditioning_mode: str) -> None:
    """Reject every conditioning mode but continuous_alpha, the one left."""
    if conditioning_mode != "continuous_alpha":
        raise ValueError(f"conditioning mode {conditioning_mode!r} is not supported: the "
                         "denoiser conditions on sqrt(alpha_bar) only (continuous_alpha)")


def sinusoidal_embedding(c: np.ndarray) -> np.ndarray:
    """16-dim sin/cos features of a scalar in [0, 1], geometric frequencies."""
    c = np.asarray(c, dtype=np.float64)
    freqs = np.pi * 2.0 ** np.arange(EMBED_DIM // 2)
    ang = c[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@dataclass
class Denoiser:
    """Noise-prediction network conditioned on the noise level sqrt(alpha_bar)."""

    net: Network
    data_dim: int

    def __post_init__(self):
        expect = self.data_dim + 1 + EMBED_DIM
        if self.net.input_dim != expect or self.net.output_dim != self.data_dim:
            raise ValueError(
                f"denoiser network dims {self.net.input_dim}->{self.net.output_dim} "
                f"do not match data_dim {self.data_dim}"
            )

    def conditioned_input(self, y: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Rows [y, cond, embedding(cond)] of states y (n, data_dim); cond is
        a scalar or one value per row.

        A level that all rows share (cond of shape () or (1,), as in every
        fixed step) is embedded once and broadcast into the rows; the bits
        are those of embedding it per row.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.data_dim:
            raise ShapeError(f"state shape {y.shape} is not (batch, data_dim {self.data_dim})")
        cond = np.asarray(cond, dtype=np.float64)
        batch = y.shape[0]
        if cond.shape not in ((), (1,), (batch,)):
            raise ShapeError(
                f"cond shape {cond.shape} does not match batch {batch} "
                f"(data_dim {self.data_dim}); expected a scalar or ({batch},)"
            )
        emb = np.broadcast_to(sinusoidal_embedding(cond.reshape(-1)), (batch, EMBED_DIM))
        cond = np.broadcast_to(cond, (batch,))
        return np.concatenate([y, cond[:, None], emb], axis=1)

    def predict(self, y: np.ndarray, cond) -> np.ndarray:
        """Predicted injected noise per state row of y at conditioning value(s) cond."""
        return self.net.apply(self.conditioned_input(y, cond))


@dataclass
class Estimator:
    """Predicts the cumulative signal retention (alpha-bar) of a noisy state."""

    net: Network
    data_dim: int

    def __post_init__(self):
        if self.net.input_dim != self.data_dim or self.net.output_dim != 1:
            raise ValueError("estimator network dims do not match data_dim -> 1")
        if self.net.layers[-1].activation != "sigmoid":
            raise ValueError("estimator output must be sigmoid-bounded")

    def predict(self, y: np.ndarray) -> np.ndarray:
        """Estimated alpha-bar per state row of y (n, data_dim), shape (n,)."""
        return self.net.apply(y)[:, 0]


def make_denoiser(data_dim: int, seed: int, conditioning_mode: str = "continuous_alpha") -> Denoiser:
    """A fresh denoiser; conditioning_mode must be continuous_alpha."""
    _require_continuous(conditioning_mode)
    dims = [data_dim + 1 + EMBED_DIM, *DENOISER_HIDDEN, data_dim]
    acts = ["relu"] * len(DENOISER_HIDDEN) + ["identity"]
    return Denoiser(init_network(dims, acts, seed), data_dim)


def make_estimator(data_dim: int, seed: int) -> Estimator:
    dims = [data_dim, *ESTIMATOR_HIDDEN, 1]
    acts = ["relu"] * len(ESTIMATOR_HIDDEN) + ["sigmoid"]
    return Estimator(init_network(dims, acts, seed), data_dim)
