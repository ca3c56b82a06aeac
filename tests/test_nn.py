import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.checkpoint import load_checkpoint, save_checkpoint
from adadiffuse.errors import ShapeError
from adadiffuse.models import make_denoiser, make_estimator
from adadiffuse.nn import (
    AdamState,
    DenseLayer,
    Network,
    _activate,
    adam_step,
    finite_diff_check,
    init_network,
)


def sq_loss(target):
    """Squared-error loss returning (value, gradient w.r.t. the output)."""

    def fn(y):
        d = y - target
        return float((d * d).sum()), 2.0 * d

    return fn


def test_zero_network_maps_to_zero():
    net = Network([DenseLayer(np.zeros((3, 2)), np.zeros(2), "identity")])
    assert np.array_equal(net.forward(np.array([[1.0, -2.0, 3.0]]))[-1], np.zeros((1, 2)))


def test_relu_clamps_negatives():
    net = Network([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    assert np.array_equal(net.forward(np.array([[-1.0, 2.0]]))[-1], np.array([[0.0, 2.0]]))


def test_forward_matches_straight_line_reevaluation():
    net = init_network([4, 5, 3], ["relu", "identity"], seed=7)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 4))
    # independent re-evaluation of the same weights
    h = x @ net.layers[0].weight + net.layers[0].bias
    h = np.where(h > 0, h, 0.0)
    expected = h @ net.layers[1].weight + net.layers[1].bias
    assert np.array_equal(net.forward(x)[-1], expected)


def test_forward_deterministic_bitwise():
    net = init_network([6, 8, 2], ["relu", "identity"], seed=3)
    x = np.random.default_rng(0).standard_normal((1, 6))
    assert np.array_equal(net.forward(x)[-1], net.forward(x)[-1])


def test_forward_rejects_dimension_mismatch():
    net = init_network([4, 2], ["identity"], seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 5)))


def test_zero_upstream_gradient_gives_zero_grads():
    net = init_network([4, 6, 2], ["relu", "identity"], seed=2)
    acts = net.forward(np.random.default_rng(0).standard_normal((1, 4)))
    grad = net.backward(acts, np.zeros((1, 2)))
    assert grad.shape == net.params.shape and not grad.any()


def test_identity_layer_squared_error_closed_form():
    net = init_network([3, 3], ["identity"], seed=5)
    x = np.array([[0.3, -1.2, 2.0]])
    target = np.array([1.0, 0.0, -1.0])
    acts = net.forward(x)
    y = acts[-1]
    dw, db = _split(net, net.backward(acts, 2.0 * (y - target)))
    np.testing.assert_allclose(dw, np.outer(x, 2.0 * (y - target)), atol=1e-15)
    np.testing.assert_allclose(db, 2.0 * (y[0] - target), atol=1e-15)


def test_backward_matches_finite_differences_three_layers():
    net = init_network([5, 8, 8, 3], ["relu", "relu", "identity"], seed=11)
    x = np.random.default_rng(4).standard_normal(5)
    err = finite_diff_check(net, x, sq_loss(np.zeros(3)))
    assert err <= 1e-5


def test_adam_zero_gradients_is_identity():
    net = init_network([3, 4, 2], ["relu", "identity"], seed=9)
    before = net.params.copy()
    state = AdamState.for_network(net)
    for _ in range(5):
        adam_step(net, np.zeros_like(net.params), state)
    assert np.array_equal(before, net.params)
    assert state.step_count == 5


def test_adam_first_step_moves_by_learning_rate():
    # hand-evaluated bias-corrected recurrence for grad 1.0 at step 1
    net = Network([DenseLayer(np.array([[1.0]]), np.zeros(1), "identity")])
    state = AdamState.for_network(net, learning_rate=1e-3)
    adam_step(net, np.array([1.0, 0.0]), state)  # [dW, db]
    assert net.layers[0].weight[0, 0] == pytest.approx(1.0 - 0.0009999999900000003, abs=1e-15)


def test_adam_converges_on_quadratic_bowl():
    # scalar convergence oracle: f(w) = w^2, analytic gradient 2w
    net = Network([DenseLayer(np.array([[1.0]]), np.zeros(1), "identity")])
    state = AdamState.for_network(net, learning_rate=0.01)
    for _ in range(1000):
        w = net.layers[0].weight[0, 0]
        adam_step(net, np.array([2.0 * w, 0.0]), state)
    assert abs(net.layers[0].weight[0, 0]) < 1e-3


def test_adam_rejects_non_finite_gradients():
    net = init_network([2, 3, 2], ["relu", "identity"], seed=1)
    state = AdamState.for_network(net)
    rng = np.random.default_rng(0)
    good = rng.standard_normal(net.params.size)
    for _ in range(2):
        adam_step(net, good, state)  # moments away from zero
    before = net.params.copy()
    m_before, v_before = state.m.copy(), state.v.copy()
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[-1] = bad_value  # the last entry of the last layer's bias
        with pytest.raises(ValueError):
            adam_step(net, bad, state)
    assert np.array_equal(before, net.params)
    assert np.array_equal(m_before, state.m)
    assert np.array_equal(v_before, state.v)
    assert state.step_count == 2


def test_adam_rejects_a_state_of_another_network():
    net = init_network([2, 3, 2], ["relu", "identity"], seed=1)
    before = net.params.copy()
    state = AdamState.for_network(init_network([2, 4, 2], ["relu", "identity"], seed=1))
    with pytest.raises(ShapeError):
        adam_step(net, np.zeros_like(net.params), state)
    with pytest.raises(ShapeError):  # a gradient of the other network's size
        adam_step(net, np.zeros_like(state.m), state)
    assert np.array_equal(before, net.params)
    assert state.step_count == 0


def test_adam_state_built_from_given_moments_updates_them():
    # a state built from given flat moments follows the per-array reference
    net_a = init_network([3, 4, 2], ["relu", "identity"], seed=4)
    net_b = init_network([3, 4, 2], ["relu", "identity"], seed=4)
    rng = np.random.default_rng(3)
    m0 = [rng.standard_normal(p.shape) for p in _split(net_a, net_a.params)]
    v0 = [rng.random(p.shape) for p in _split(net_a, net_a.params)]
    state = AdamState(_flat(m0), _flat(v0), learning_rate=0.01)
    ref_params = [p.copy() for p in _split(net_b, net_b.params)]
    ref_m, ref_v = [m.copy() for m in m0], [v.copy() for v in v0]
    for t in range(1, 4):
        grad = rng.standard_normal(net_a.params.size)
        grad_before = grad.copy()
        adam_step(net_a, grad, state)
        assert grad.tobytes() == grad_before.tobytes()  # the gradient is not modified
        _ref_adam(ref_params, _split(net_a, grad), ref_m, ref_v, t, 0.01)
    assert state.step_count == 3
    np.testing.assert_array_equal(net_a.params, _flat(ref_params))
    np.testing.assert_array_equal(state.m, _flat(ref_m))
    np.testing.assert_array_equal(state.v, _flat(ref_v))


def test_adam_sets_subnormal_first_moments_to_zero():
    # with zero gradients m only decays; 0.9 * 5e-324 rounds back to 5e-324,
    # so the per-array reference keeps its subnormal entries for good, while
    # adam_step zeroes them and moves the parameters the same
    net = init_network([3, 4, 2], ["relu", "identity"], seed=4)
    for layer in net.layers:
        layer.bias[...] = 0.5  # no parameter at 0, where a subnormal step would show
    tiny = np.finfo(np.float64).tiny  # the smallest normal float64
    m0 = np.full(net.params.size, 5e-324)
    m0[:2] = [4.0 * tiny, -tiny]  # normal for four steps; subnormal after one
    v0 = np.ones(net.params.size)
    state = AdamState(m0.copy(), v0.copy(), learning_rate=0.01)
    ref_params, ref_m, ref_v = _split(net, net.params), _split(net, m0), _split(net, v0)
    zero = np.zeros_like(net.params)
    for t in range(1, 5):
        adam_step(net, zero, state)
        _ref_adam(ref_params, _split(net, zero), ref_m, ref_v, t, 0.01)
        m = _flat(ref_m)
        assert m[-1] == 5e-324
        np.testing.assert_array_equal(state.m, np.where(np.abs(m) < tiny, 0.0, m))
    assert state.m[0] >= tiny and not state.m[1:].any()
    assert net.params.tobytes() == _flat(ref_params).tobytes()
    assert state.v.tobytes() == _flat(ref_v).tobytes()


def test_layer_arrays_are_views_of_params(tmp_path):
    w, b = np.arange(6.0).reshape(2, 3), np.ones(3)
    net = Network([DenseLayer(w, b, "relu"), DenseLayer(np.ones((3, 1)), np.zeros(1), "identity")])
    assert net.params.tobytes() == _flat([w, b, np.ones((3, 1)), np.zeros(1)]).tobytes()
    for layer in net.layers:
        assert np.shares_memory(layer.weight, net.params)
        assert np.shares_memory(layer.bias, net.params)
    state = AdamState.for_network(net, learning_rate=0.1)
    adam_step(net, np.ones_like(net.params), state)
    layer_arrays = [a for layer in net.layers for a in (layer.weight, layer.bias)]
    assert _flat(layer_arrays).tobytes() == net.params.tobytes()
    np.testing.assert_allclose(net.layers[0].weight, w - 0.1, rtol=0, atol=1e-8)  # moved
    assert np.array_equal(w, np.arange(6.0).reshape(2, 3))  # the given array is copied
    net.layers[1].bias[0] = 7.0
    assert net.params[-1] == 7.0

    den, est = make_denoiser(2, seed=1), make_estimator(2, seed=2)
    path = tmp_path / "models.nesd"
    save_checkpoint({"denoiser": den, "estimator": est}, None, path)
    models, _ = load_checkpoint(path)
    for key, model in (("denoiser", den), ("estimator", est)):
        loaded = models[key].net
        assert loaded.params.tobytes() == model.net.params.tobytes()
        for layer in loaded.layers:
            assert np.shares_memory(layer.weight, loaded.params)
            assert np.shares_memory(layer.bias, loaded.params)


def test_finite_diff_identity_net_tight():
    net = init_network([3, 2], ["identity"], seed=21)
    x = np.array([0.5, -0.25, 1.5])
    assert finite_diff_check(net, x, sq_loss(np.zeros(2))) <= 1e-7


def test_finite_diff_relu_net_away_from_kinks():
    net = init_network([4, 16, 16, 2], ["relu", "relu", "identity"], seed=13)
    x = np.random.default_rng(8).standard_normal(4) + 0.1
    pre = x @ net.layers[0].weight + net.layers[0].bias
    assert np.abs(pre).min() > 1e-3  # inputs bounded away from relu kinks
    assert finite_diff_check(net, x, sq_loss(np.ones(2))) <= 1e-5


def test_finite_diff_rejects_nan_weight():
    net = init_network([2, 2], ["identity"], seed=0)
    net.layers[0].weight[0, 0] = np.nan
    with pytest.raises(ValueError):
        finite_diff_check(net, np.zeros(2), sq_loss(np.zeros(2)))


def test_mismatched_layer_dims_rejected():
    with pytest.raises(ShapeError):
        Network([
            DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu"),
            DenseLayer(np.zeros((4, 1)), np.zeros(1), "identity"),
        ])


def test_sigmoid_only_as_final_activation():
    with pytest.raises(ValueError):
        Network([
            DenseLayer(np.zeros((2, 3)), np.zeros(3), "sigmoid"),
            DenseLayer(np.zeros((3, 1)), np.zeros(1), "identity"),
        ])
    Network([
        DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu"),
        DenseLayer(np.zeros((3, 1)), np.zeros(1), "sigmoid"),
    ])


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=5),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shape_invariants_random_networks(dims, batch, seed):
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    net = init_network(dims, acts, seed=seed)
    x = np.random.default_rng(seed).standard_normal((batch, dims[0]))
    acts = net.forward(x)
    y = acts[-1]
    assert y.shape == (batch, dims[-1])
    assert np.all(np.isfinite(y))
    grad = net.backward(acts, np.ones_like(y))
    assert grad.shape == net.params.shape == (sum(a * b + b for a, b in zip(dims, dims[1:])),)
    assert np.all(np.isfinite(grad))


# The plain per-array formulas the allocation-light kernel replaced; the
# kernel must reproduce them bit for bit.
def _ref_activation(tag, z):
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_slope(tag, a):
    if tag == "identity":
        return np.ones_like(a)
    if tag == "relu":
        return (a > 0.0).astype(np.float64)
    return a * (1.0 - a)


def _ref_forward_backward(layers, x, g):
    """(output, [(dW, db), ...]) of a list of (weight, bias, activation)."""
    a = x
    acts = [x]
    for w, b, tag in layers:
        a = _ref_activation(tag, a @ w + b)
        acts.append(a)
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        gz = g * _ref_slope(layers[k][2], acts[k + 1])
        grads[k] = (acts[k].T @ gz, gz.sum(axis=0))
        if k > 0:
            g = gz @ layers[k][0].T
    return a, grads


def _flat(arrays):
    """The arrays end to end, as Network.params and Adam's state hold them."""
    return np.concatenate([a.ravel() for a in arrays])


def _split(net, vec):
    """A vector in net.params' layout as copies of [W_0, b_0, W_1, b_1, ...]."""
    out, start = [], 0
    for layer in net.layers:
        for a in (layer.weight, layer.bias):
            out.append(vec[start:start + a.size].reshape(a.shape).copy())
            start += a.size
    assert start == vec.size
    return out


def _ref_adam(params, flat_grads, ms, vs, t, lr):
    bc1 = 1.0 - 0.9**t
    bc2 = 1.0 - 0.999**t
    for g, p, m, v in zip(flat_grads, params, ms, vs):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


# sigmoid inputs at the edges of exp's range and beyond: exp(-745.2) is
# subnormal, exp(-800) underflows to 0
SIGMOID_EXTREMES = np.concatenate([
    [0.0, -0.0, 745.2, -745.2, 800.0, -800.0, np.inf, -np.inf, np.nan],
    np.random.default_rng(3).standard_normal(64) * 40.0,
])

KERNEL_NETS = {
    "relu-identity": ([5, 16, 16, 3], ["relu", "relu", "identity"]),
    "relu-sigmoid": ([4, 8, 8, 1], ["relu", "relu", "sigmoid"]),
    "relu-top": ([3, 6, 4], ["relu", "relu"]),
    "identity": ([3, 2], ["identity"]),
    "sigmoid": ([3, 1], ["sigmoid"]),
}


@pytest.mark.parametrize("dims,acts", KERNEL_NETS.values(), ids=KERNEL_NETS.keys())
@pytest.mark.parametrize("batch", [1, 7], ids=["batch-1", "batch-7"])
def test_kernel_matches_plain_formulas_bit_for_bit(dims, acts, batch):
    net = init_network(dims, acts, seed=17)
    ref_params = _split(net, net.params)
    ref_layers = [(ref_params[2 * k], ref_params[2 * k + 1], a) for k, a in enumerate(acts)]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    state = AdamState.for_network(net, learning_rate=0.05)
    rng = np.random.default_rng(2)
    for t in range(1, 6):
        x = rng.standard_normal((batch, dims[0]))
        activations = net.forward(x)
        g = rng.standard_normal(activations[-1].shape)
        ref_y, ref_grads = _ref_forward_backward(ref_layers, x, g)
        np.testing.assert_array_equal(activations[-1], ref_y)
        grad = net.backward(activations, g)
        ref_flat_grads = [a for pair in ref_grads for a in pair]
        assert grad.tobytes() == _flat(ref_flat_grads).tobytes()
        adam_step(net, grad, state)
        _ref_adam(ref_params, ref_flat_grads, ref_m, ref_v, t, 0.05)
        assert net.params.tobytes() == _flat(ref_params).tobytes()
        np.testing.assert_array_equal(state.m, _flat(ref_m))
        np.testing.assert_array_equal(state.v, _flat(ref_v))
    if "sigmoid" in acts:
        z = SIGMOID_EXTREMES.reshape(-1, 1)
        got = _activate("sigmoid", z.copy())
        assert got.tobytes() == _ref_activation("sigmoid", z).tobytes()


@pytest.mark.parametrize("dims,acts", KERNEL_NETS.values(), ids=KERNEL_NETS.keys())
@pytest.mark.parametrize("batch", [1, 5])
def test_forward_and_backward_leave_their_inputs_alone(dims, acts, batch):
    net = init_network(dims, acts, seed=23)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((batch, dims[0]))
    x_before = x.copy()
    activations = net.forward(x)
    np.testing.assert_array_equal(x, x_before)
    acts_before = [a.copy() for a in activations]
    g = rng.standard_normal(activations[-1].shape)
    g_before = g.copy()
    first = net.backward(activations, g)
    second = net.backward(activations, g)
    np.testing.assert_array_equal(g, g_before)
    for a, before in zip(activations, acts_before):
        assert a.tobytes() == before.tobytes()
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("dims,acts", KERNEL_NETS.values(), ids=KERNEL_NETS.keys())
def test_interleaved_calls_give_each_batch_its_own_gradients(dims, acts):
    # the network stores nothing between calls: two forwards, then their
    # backwards in reverse order, match two isolated forward/backward pairs
    net = init_network(dims, acts, seed=31)
    rng = np.random.default_rng(9)
    xs = [rng.standard_normal((n, dims[0])) for n in (3, 6)]
    gs = [rng.standard_normal((n, dims[-1])) for n in (3, 6)]
    alone = [net.backward(net.forward(x), g) for x, g in zip(xs, gs)]
    acts_a, acts_b = net.forward(xs[0]), net.forward(xs[1])
    grads_b = net.backward(acts_b, gs[1])
    grads_a = net.backward(acts_a, gs[0])
    for got, want in zip((grads_a, grads_b), alone):
        assert got.tobytes() == want.tobytes()


def test_forward_and_backward_reject_a_1d_array():
    net = init_network([3, 4, 2], ["relu", "identity"], seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros(3))
    acts = net.forward(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        net.backward(acts, np.zeros(2))


@pytest.mark.parametrize("raise_on", [2, 3], ids=["plus-step", "minus-step"])
def test_finite_diff_check_puts_back_the_entry_when_loss_fn_raises(raise_on):
    # call 1 is the unperturbed loss; calls 2 and 3 see the first entry
    # moved by +step and -step
    net = init_network([3, 4, 2], ["relu", "identity"], seed=5)
    before = net.params.tobytes()
    calls, loss = [], sq_loss(np.zeros(2))

    def failing(y):
        calls.append(None)
        if len(calls) == raise_on:
            raise RuntimeError("loss failed")
        return loss(y)

    with pytest.raises(RuntimeError, match="loss failed"):
        finite_diff_check(net, np.ones(3), failing)
    assert net.params.tobytes() == before


@pytest.mark.parametrize("dims,acts", KERNEL_NETS.values(), ids=KERNEL_NETS.keys())
@pytest.mark.parametrize("batch", [1, 7])
def test_apply_matches_forward_to_float32_precision(dims, acts, batch):
    # apply runs the layers in float32 (worst case here about 2.6e-7 abs)
    net = init_network(dims, acts, seed=29)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((batch, dims[0])) * 3.0
    x_before = x.copy()
    out = net.apply(x)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, net.forward(x)[-1], rtol=1e-5, atol=1e-5)
    assert net.apply(x).tobytes() == out.tobytes()
    assert net.apply(rng.standard_normal((batch, dims[0]))).shape == (batch, dims[-1])
    np.testing.assert_array_equal(x, x_before)


def test_apply_rejects_what_forward_rejects_by_shape():
    net = init_network([3, 4, 2], ["relu", "identity"], seed=0)
    for bad in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ShapeError):
            net.apply(bad)
