"""Minimal dense neural network kernel.

Feedforward networks built from float64 (weight, bias, activation) layers,
with hand-derived backward passes, an Adam optimizer and a central
finite-difference gradient checker. This is all the model machinery the
denoiser and the noise-level estimator need; there is no general autodiff
graph and no convolution support.

A Network holds its layers and one float64 vector, Network.params, with
every weight and bias end to end: layer 0's weight (row-major), layer 0's
bias, layer 1's weight, and so on. Each layer's weight and bias are
reshaped views of that vector, which the Network copies the given arrays
into, so writing a layer array writes params and the reverse.

Every call takes a batch of rows (n, input_dim). Network.forward is for
training and finite_diff_check: it runs in float64, checks its input and
output, and returns the activation list [x, a_1, ..., output] without
keeping it. Network.backward(acts, grad_out) takes that list and returns
the gradient as one new vector in params' layout, so a gradient depends
only on its arguments and calls on one network may interleave in any
order. Network.apply is for inference (the models' predict): the same
layer code in float32, on one float32 cast of params per call, with no
finiteness checks. It returns float64 that agrees with forward's output
to float32 precision, |apply - forward| <= 1e-5 + 1e-5 |forward| for
inputs and activations of order one; a value beyond float32's range
(about 3.4e38) becomes inf.

The kernel allocates little per step, with the same bits as the plain
per-array formulas: forward adds each layer's bias and applies its ReLU
in place on the fresh matmul output, the sigmoid uses no boolean masks,
backward copies the caller's grad_out once, applies each ReLU slope in
place on its own gradient (never on the activations it was given) and
writes each layer's dW and db into its slice of the gradient vector.
adam_step updates Adam's moments m and v, flat vectors of params' size,
and params itself in whole-vector passes; it sets the subnormal entries
of m to 0, as a moment whose gradient stays 0 otherwise decays into the
subnormal range and sticks there (0.9 * 5e-324 rounds back to 5e-324),
slowing every later pass over it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


def _layer_out(weight: np.ndarray, bias: np.ndarray, activation: str, a: np.ndarray) -> np.ndarray:
    """act(a @ weight + bias), the bias add and any ReLU in the matmul's output."""
    z = a @ weight
    z += bias
    return _activate(activation, z)


@dataclass
class Network:
    """Feedforward stack of DenseLayers whose weights and biases are views
    of one vector, params; forward returns the activations that backward
    takes, and the network stores none of them.

    Building a Network copies the given layers' arrays into a new params
    and rebinds each layer's weight and bias to views of it.
    """

    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False)

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
        self.params = np.concatenate([a.ravel() for l in self.layers for a in (l.weight, l.bias)])
        for layer, (w, b) in zip(self.layers, self._views(self.params)):
            layer.weight, layer.bias = w, b

    def _views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's (weight, bias) as views of a vector in params' layout."""
        views, start = [], 0
        for layer in self.layers:
            n_in, n_out = layer.weight.shape
            end = start + n_in * n_out
            views.append((vec[start:end].reshape(n_in, n_out), vec[end:end + n_out]))
            start = end + n_out
        return views

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
            acts.append(_layer_out(layer.weight, layer.bias, layer.activation, acts[-1]))
        check_finite(acts[-1], "network output")
        return acts

    def apply(self, x: np.ndarray) -> np.ndarray:
        """forward()'s output for inference on a batch (n, input_dim), in float32.

        Casts the rows and params to float32 on every call (Adam updates
        params in place, so no copy is kept) and returns float64 that
        agrees with forward() to float32 precision (see the module
        docstring). Checks no entry for finiteness; the caller checks what
        it reads.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"input dim {x.shape} incompatible with input_dim {self.input_dim}")
        for layer, (w, b) in zip(self.layers, self._views(self.params.astype(np.float32))):
            x = _layer_out(w, b, layer.activation, x)
        return x.astype(np.float64)

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
        """Exact gradient of a scalar loss w.r.t. params, as a new vector of
        params' layout.

        acts is what forward() returned and grad_out is dLoss/dOutput, of
        the output's shape; neither is modified.
        """
        g = np.array(grad_out, dtype=np.float64)  # backward's own, written in place
        if g.ndim != 2 or g.shape != acts[-1].shape:
            raise ShapeError(f"upstream gradient shape {g.shape} != output shape {acts[-1].shape}")
        grad = np.empty_like(self.params)
        views = self._views(grad)
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            gz = _apply_slope(layer.activation, g, acts[k + 1])
            np.matmul(acts[k].T, gz, out=views[k][0])
            np.sum(gz, axis=0, out=views[k][1])
            if k > 0:
                g = gz @ layer.weight.T
        return grad


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
    """Adam's moments m and v, each one float64 vector in Network.params'
    layout; a given float64 vector is updated in place, other input is
    copied to float64."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        self.m = _as_f64(self.m).ravel()
        self.v = _as_f64(self.v).ravel()

    @classmethod
    def for_network(cls, net: Network, learning_rate: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params),
                   learning_rate=learning_rate)


def adam_step(net: Network, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on net.params and state.

    grad is a gradient in params' layout, as backward returns it; it is
    not modified. Rejects non-finite gradients before touching any
    parameter. Each pass runs over the whole vector, in the element-wise
    operation order m*b1 + (1-b1)g, v*b2 + ((1-b2)g)g,
    lr*(m/bc1) / (sqrt(v/bc2) + eps). Subnormal entries of m are set to 0
    before the step is taken from it: their step is below
    lr * tiny / ((1 - b1) * eps), about lr * 2.2e-299, less than half an ulp
    of any parameter above about lr * 2e-283 in magnitude.
    """
    g = _as_f64(grad)
    if g.shape != net.params.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter shape {net.params.shape}")
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
    step = (1.0 - ADAM_BETA1) * g
    m += step
    np.abs(m, out=tmp)
    m[tmp < np.finfo(np.float64).tiny] = 0.0
    np.divide(m, bc1, out=step)
    step *= state.learning_rate
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPSILON
    step /= tmp
    net.params -= step


def finite_diff_check(net: Network, x: np.ndarray, loss_fn, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    x is a batch of rows, or one input vector, which is checked as one
    row. loss_fn maps the network's output rows to a scalar and must also
    provide the analytic output gradient: loss_fn(y) -> (scalar, dLoss/dy).
    Every perturbed entry is put back, also when forward or loss_fn raises.
    """
    params = net.params
    if not np.all(np.isfinite(params)):
        raise ValueError("network parameters contain non-finite entries")
    x = np.atleast_2d(x)
    acts = net.forward(x)
    _, gy = loss_fn(acts[-1])
    analytic = net.backward(acts, gy)
    worst = 0.0
    for i in range(params.size):
        orig = params[i]
        try:
            params[i] = orig + step
            lp, _ = loss_fn(net.forward(x)[-1])
            params[i] = orig - step
            lm, _ = loss_fn(net.forward(x)[-1])
        finally:
            params[i] = orig
        num = (lp - lm) / (2.0 * step)
        rel = abs(analytic[i] - num) / (abs(analytic[i]) + 1e-12)
        worst = max(worst, rel)
    return worst
