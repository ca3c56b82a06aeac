"""Minimal dense neural network kernel.

Float64 feedforward networks built from (weight, bias, activation) layers,
with hand-derived backward passes, an Adam optimizer and a central
finite-difference gradient checker. This is all the model machinery the
denoiser and the noise-level estimator need; there is no general autodiff
graph and no convolution support.

The kernel allocates little per step, with the same bits as the plain
formulas: forward adds each layer's bias and applies its ReLU in place on
the fresh matmul output, the sigmoid uses no boolean masks, backward
copies the caller's grad_out once and applies each ReLU slope in place on
its own gradient (never on the cached activations), and Adam keeps each
moment in one flat buffer that a single sequence of in-place ufuncs
updates. Network.forward is for training and finite_diff_check: it checks
its input and output and caches activations for backward. Network.apply
is for inference (the models' predict): the same layer code and bits,
with no activation cache and no finiteness checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, StateError

ACTIVATIONS = ("identity", "relu", "sigmoid")


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    """act(z); relu writes into z, which the caller owns."""
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0, out=z)
    if tag == "sigmoid":
        # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, both from e = e^-|z|
        e = np.exp(np.minimum(z, -z))  # -|z|, keeping a NaN input's sign
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)
    raise ValueError(f"unknown activation {tag!r}")


def _apply_slope(tag: str, g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """g times the activation's slope, read from its output a = act(z).

    relu writes into g; the identity slope is skipped, as g * 1.0 == g.
    """
    if tag == "identity":
        return g
    if tag == "relu":
        mask = a > 0.0  # max(z, 0) > 0 exactly where z > 0
        return np.multiply(g, mask, out=g)
    if tag == "sigmoid":
        slope = 1.0 - a
        slope *= a
        return np.multiply(g, slope, out=slope)
    raise ValueError(f"unknown activation {tag!r}")


@dataclass
class DenseLayer:
    """One affine layer: out = act(in @ weight + bias).

    weight has shape (in_dim, out_dim), bias shape (out_dim,).
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        self.weight = _as_f64(self.weight)
        self.bias = _as_f64(self.bias)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weight must be 2-D and bias 1-D")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != weight out-dim {self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def _layer_out(layer: DenseLayer, a: np.ndarray) -> np.ndarray:
    """act(a @ weight + bias), the bias add and any ReLU in the matmul's output."""
    z = a @ layer.weight
    z += layer.bias
    return _activate(layer.activation, z)


@dataclass
class Network:
    """Feedforward stack of DenseLayers with cached-activation backward.

    Mutating operations (forward caching, parameter updates) are not
    thread-safe per instance; distinct instances are independent.
    """

    layers: list[DenseLayer]
    _cache: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for k in range(len(self.layers) - 1):
            if self.layers[k].out_dim != self.layers[k + 1].in_dim:
                raise ShapeError(
                    f"layer {k} out-dim {self.layers[k].out_dim} != "
                    f"layer {k + 1} in-dim {self.layers[k + 1].in_dim}"
                )
            if self.layers[k].activation == "sigmoid":
                raise ValueError("sigmoid is only permitted as the final activation")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; caches activations for backward().

        Accepts a single vector (input_dim,) or a batch (n, input_dim).
        """
        x = _as_f64(x)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape} incompatible with input_dim {self.input_dim}")
        check_finite(x, "network input")
        acts = [x]
        for layer in self.layers:
            acts.append(_layer_out(layer, acts[-1]))
        check_finite(acts[-1], "network output")
        self._cache = (acts, single)
        return acts[-1][0] if single else acts[-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """forward() for inference on a batch (n, input_dim), with the same bits.

        Keeps no activation cache and checks no entry for finiteness; the
        caller checks what it reads.
        """
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape} incompatible with input_dim {self.input_dim}")
        for layer in self.layers:
            x = _layer_out(layer, x)
        return x

    def backward(self, grad_out: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact gradients of a scalar loss w.r.t. every weight and bias.

        grad_out is dLoss/dOutput for the most recent forward() input,
        same shape as that output. Returns [(dW, db), ...] per layer.
        """
        if self._cache is None:
            raise StateError("backward() called before forward()")
        acts, single = self._cache
        g = np.array(grad_out, dtype=np.float64)  # backward's own, written in place
        if single:
            g = g[None, :]
        if g.shape != acts[-1].shape:
            raise ShapeError(f"upstream gradient shape {g.shape} != output shape {acts[-1].shape}")
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            gz = _apply_slope(layer.activation, g, acts[k + 1])
            grads[k] = (acts[k].T @ gz, gz.sum(axis=0))
            if k > 0:
                g = gz @ layer.weight.T
        return grads

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


def init_network(dims: list[int], activations: list[str], seed: int) -> Network:
    """Build a network with symmetric-uniform weights of scale 1/sqrt(fan_in)."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(dims) - 1):
        scale = 1.0 / np.sqrt(dims[k])
        w = rng.uniform(-scale, scale, size=(dims[k], dims[k + 1]))
        b = np.zeros(dims[k + 1])
        layers.append(DenseLayer(w, b, activations[k]))
    return Network(layers)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _flat_views(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """One float64 buffer holding the arrays end to end, and a view per array."""
    arrays = [_as_f64(a) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


@dataclass
class AdamState:
    """Adam moment buffers, congruent to a Network's parameter list.

    Each moment is one flat buffer; first_moment and second_moment are
    per-parameter views of it, so adam_step updates all of them at once.
    """

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 1e-3
    _m: np.ndarray = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._m, self.first_moment = _flat_views(self.first_moment)
        self._v, self.second_moment = _flat_views(self.second_moment)

    @classmethod
    def for_network(cls, net: Network, learning_rate: float = 1e-3) -> "AdamState":
        params = net.parameters()
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
            learning_rate=learning_rate,
        )


def adam_step(net: Network, grads: list[tuple[np.ndarray, np.ndarray]], state: AdamState) -> None:
    """One bias-corrected Adam update, in place on net and state.

    Rejects non-finite gradients before touching any parameter. The
    gradient is gathered into one flat array and the moments are updated
    over their flat buffers, in the element-wise operation order
    m*b1 + (1-b1)g, v*b2 + ((1-b2)g)g, lr*(m/bc1) / (sqrt(v/bc2) + eps).
    """
    flat = [g for pair in grads for g in pair]
    params = net.parameters()
    if len(flat) != len(params):
        raise ShapeError("gradient list not congruent to parameters")
    for g, p in zip(flat, params):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    g = np.concatenate([_as_f64(x).ravel() for x in flat])
    if state._m.size != g.size or state._v.size != g.size:
        raise ShapeError(f"Adam state holds {state._m.size} entries, parameters {g.size}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient entry; parameters left untouched")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state._m, state._v
    m *= ADAM_BETA1
    v *= ADAM_BETA2
    tmp = (1.0 - ADAM_BETA2) * g
    tmp *= g
    v += tmp
    g *= 1.0 - ADAM_BETA1
    m += g
    step = np.divide(m, bc1, out=g)
    step *= state.learning_rate
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPSILON
    step /= tmp
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size


def finite_diff_check(net: Network, x: np.ndarray, loss_fn, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps the network output to a scalar and must also provide the
    analytic output gradient: loss_fn(y) -> (scalar, dLoss/dy).
    """
    for p in net.parameters():
        if not np.all(np.isfinite(p)):
            raise ValueError("network parameters contain non-finite entries")
    y = net.forward(x)
    _, gy = loss_fn(y)
    analytic = net.backward(gy)
    worst = 0.0
    for k, layer in enumerate(net.layers):
        for arr, ga in ((layer.weight, analytic[k][0]), (layer.bias, analytic[k][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                lp, _ = loss_fn(net.forward(x))
                arr[idx] = orig - step
                lm, _ = loss_fn(net.forward(x))
                arr[idx] = orig
                num = (lp - lm) / (2.0 * step)
                rel = abs(ga[idx] - num) / (abs(ga[idx]) + 1e-12)
                worst = max(worst, rel)
    net.forward(x)  # restore cache for the unperturbed input
    return worst
