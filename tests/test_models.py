import numpy as np
import pytest

from adadiffuse.errors import ShapeError
from adadiffuse.models import (
    EMBED_DIM,
    make_denoiser,
    make_estimator,
    sinusoidal_embedding,
)


def test_embedding_shape_and_range():
    emb = sinusoidal_embedding(np.array([0.0, 0.5, 1.0]))
    assert emb.shape == (3, EMBED_DIM)
    assert np.all(np.abs(emb) <= 1.0)


def test_embedding_deterministic_and_distinct():
    a = sinusoidal_embedding(np.array([0.3]))
    b = sinusoidal_embedding(np.array([0.3]))
    c = sinusoidal_embedding(np.array([0.7]))
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_denoiser_input_layout():
    den = make_denoiser(2, seed=0)
    y = np.array([[1.0, -1.0]])
    x = den.conditioned_input(y, 0.25)
    assert x.shape == (1, 2 + 1 + EMBED_DIM)
    np.testing.assert_array_equal(x[0, :2], y[0])
    assert x[0, 2] == 0.25
    np.testing.assert_array_equal(x[0, 3:], sinusoidal_embedding(np.array([0.25]))[0])


def test_denoiser_dims_and_output():
    den = make_denoiser(2, seed=1)
    assert den.net.output_dim == 2
    out = den.predict(np.zeros(2), 0.9)
    assert out.shape == (2,)
    batch = den.predict(np.zeros((5, 2)), np.full(5, 0.9))
    assert batch.shape == (5, 2)
    assert den.predict(np.zeros((5, 2)), np.array([0.9])).shape == (5, 2)


@pytest.mark.parametrize("y,cond,match", [
    (np.zeros((4, 3)), 0.5, r"\(4, 3\).*batch 4, data_dim 2"),
    (np.zeros(3), 0.5, r"\(1, 3\).*batch 1, data_dim 2"),
    (np.zeros((4, 2)), np.ones(3), r"cond shape \(3,\).*batch 4.*data_dim 2"),
    (np.zeros((4, 2)), np.ones((4, 1)), r"cond shape \(4, 1\).*batch 4.*data_dim 2"),
], ids=["wide-state", "wide-1-D-state", "short-cond", "2-D-cond"])
def test_denoiser_rejects_mismatched_state_or_cond(y, cond, match):
    den = make_denoiser(2, seed=0)
    for call in (den.conditioned_input, den.predict):
        with pytest.raises(ShapeError, match=match):
            call(y, cond)


def test_estimator_output_bounded():
    est = make_estimator(2, seed=2)
    vals = est.predict(np.random.default_rng(0).standard_normal((64, 2)))
    assert np.all((vals > 0.0) & (vals < 1.0))
    single = est.predict(np.zeros(2))
    assert isinstance(single, float)


@pytest.mark.parametrize("mode", ["fourier", "discrete_index"])
def test_bad_conditioning_mode_rejected(mode):
    with pytest.raises(ValueError, match=f"'{mode}' is not supported.*continuous_alpha"):
        make_denoiser(2, 0, mode)


def test_predict_leaves_the_network_cache_as_it_found_it():
    # predict is inference: it runs Network.apply, which neither caches
    # activations nor replaces the cache a training forward left
    den, est = make_denoiser(2, seed=0), make_estimator(2, seed=1)
    y = np.random.default_rng(0).standard_normal((5, 2))
    for model, call in ((den, lambda: den.predict(y, 0.5)), (est, lambda: est.predict(y))):
        assert model.net._cache is None
        call()
        assert model.net._cache is None
        model.net.forward(np.zeros((3, model.net.input_dim)))
        cache = model.net._cache
        call()
        assert model.net._cache is cache
