"""Minimal dense neural network kernel.

Feedforward networks built from float64 (weight, bias, activation) layers,
with hand-derived backward passes, an Adam optimizer and a central
finite-difference gradient checker. This is all the model machinery the
denoiser and the noise-level estimator need; there is no general autodiff
graph and no convolution support.

A Network holds its layers and nothing else, and every call takes a batch
of rows (n, input_dim). Network.forward is for training and
finite_diff_check: it runs in float64, checks its input and output, and
returns the activation list [x, a_1, ..., output] without keeping it.
Network.backward(acts, grad_out) takes that list, so a gradient depends
only on its arguments and calls on one network may interleave in any
order. Network.apply is for inference (the models' predict): the same
layer code in float32, cast from the float64 parameters on each call,
with no finiteness checks. It returns float64 that agrees with forward's
output to float32 precision, |apply - forward| <= 1e-5 + 1e-5 |forward|
for inputs and activations of order one; a value beyond float32's range
(about 3.4e38) becomes inf.

The kernel allocates little per step, with the same bits as the plain
formulas: forward adds each layer's bias and applies its ReLU in place on
the fresh matmul output, the sigmoid uses no boolean masks, backward
copies the caller's grad_out once and applies each ReLU slope in place on
its own gradient (never on the activations it was given), and Adam keeps
each moment in a flat buffer, m and v, that one sequence of in-place
ufuncs updates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

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
    """act(a @ weight + bias) in a's dtype, the bias add and any ReLU in the
    matmul's output; float64 rows use the parameters themselves, uncopied."""
    z = a @ layer.weight.astype(a.dtype, copy=False)
    z += layer.bias.astype(a.dtype, copy=False)
    return _activate(layer.activation, z)


@dataclass
class Network:
    """Feedforward stack of DenseLayers; forward returns the activations
    that backward takes, and the network stores none of them."""

    layers: list[DenseLayer]

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

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations [x, a_1, ..., output] of a batch x (n, input_dim), in float64."""
        x = _as_f64(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape} incompatible with input_dim {self.input_dim}")
        check_finite(x, "network input")
        acts = [x]
        for layer in self.layers:
            acts.append(_layer_out(layer, acts[-1]))
        check_finite(acts[-1], "network output")
        return acts

    def apply(self, x: np.ndarray) -> np.ndarray:
        """forward()'s output for inference on a batch (n, input_dim), in float32.

        Casts the rows and each layer's parameters to float32 on every call
        (Adam updates the float64 parameters in place, so no copy is kept)
        and returns float64 that agrees with forward() to float32
        precision (see the module docstring). Checks no entry for
        finiteness; the caller checks what it reads.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape} incompatible with input_dim {self.input_dim}")
        for layer in self.layers:
            x = _layer_out(layer, x)
        return x.astype(np.float64)

    def backward(self, acts: list[np.ndarray],
                 grad_out: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact gradients of a scalar loss w.r.t. every weight and bias.

        acts is what forward() returned and grad_out is dLoss/dOutput, of
        the output's shape; neither is modified. Returns [(dW, db), ...]
        per layer.
        """
        g = np.array(grad_out, dtype=np.float64)  # backward's own, written in place
        if g.ndim != 2 or g.shape != acts[-1].shape:
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


@dataclass
class AdamState:
    """Adam's moments m and v, each one flat float64 buffer holding every
    parameter end to end in Network.parameters() order; a given float64
    buffer is updated in place, other input is copied to float64."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        self.m = _as_f64(self.m).ravel()
        self.v = _as_f64(self.v).ravel()

    @classmethod
    def for_network(cls, net: Network, learning_rate: float = 1e-3) -> "AdamState":
        size = sum(p.size for p in net.parameters())
        return cls(np.zeros(size), np.zeros(size), learning_rate=learning_rate)


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
    if state.m.size != g.size or state.v.size != g.size:
        raise ShapeError(f"Adam state holds {state.m.size} entries, parameters {g.size}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient entry; parameters left untouched")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
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

    x is a batch of rows, or one input vector, which is checked as one
    row. loss_fn maps the network's output rows to a scalar and must also
    provide the analytic output gradient: loss_fn(y) -> (scalar, dLoss/dy).
    Every perturbed entry is put back, also when forward or loss_fn raises.
    """
    for p in net.parameters():
        if not np.all(np.isfinite(p)):
            raise ValueError("network parameters contain non-finite entries")
    x = np.atleast_2d(x)
    acts = net.forward(x)
    _, gy = loss_fn(acts[-1])
    analytic = net.backward(acts, gy)
    worst = 0.0
    for k, layer in enumerate(net.layers):
        for arr, ga in ((layer.weight, analytic[k][0]), (layer.bias, analytic[k][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                try:
                    arr[idx] = orig + step
                    lp, _ = loss_fn(net.forward(x)[-1])
                    arr[idx] = orig - step
                    lm, _ = loss_fn(net.forward(x)[-1])
                finally:
                    arr[idx] = orig
                num = (lp - lm) / (2.0 * step)
                rel = abs(ga[idx] - num) / (abs(ga[idx]) + 1e-12)
                worst = max(worst, rel)
    return worst
