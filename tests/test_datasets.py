import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadiffuse.datasets import DatasetSpec, generate, held_out


def test_same_spec_gives_bit_identical_batches():
    spec = DatasetSpec(kind="gaussian_mixture_2d", size=512, seed=7)
    np.testing.assert_array_equal(generate(spec), generate(spec))


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        DatasetSpec(size=0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DatasetSpec(kind="spiral_3d")


def test_single_component_mixture_mean_bound():
    # one zero-centered unit-variance component: standardized sample mean
    # obeys the law-of-large-numbers bound 4/sqrt(size)
    size = 4096
    spec = DatasetSpec(
        kind="gaussian_mixture_2d", size=size, seed=11,
        components=1, radius=0.0, sigma=1.0,
    )
    batch = generate(spec)
    assert np.all(np.abs(batch.mean(axis=0)) < 4.0 / np.sqrt(size))


def test_mixture_standardization_moments():
    batch = generate(DatasetSpec(kind="gaussian_mixture_2d", size=50_000, seed=5))
    np.testing.assert_allclose(batch.mean(axis=0), 0.0, atol=0.03)
    np.testing.assert_allclose(batch.var(axis=0), 1.0, rtol=0.02)


def test_two_d_kinds_emit_pairs():
    spec = DatasetSpec(kind="gaussian_mixture_2d", size=8, seed=0)
    assert spec.dim == 2
    assert generate(spec).shape == (8, 2)


def test_held_out_differs_but_same_distribution():
    spec = DatasetSpec(size=256, seed=4)
    a, b = generate(spec), generate(held_out(spec))
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_held_out_size_zero_is_not_the_default():
    spec = DatasetSpec(size=256, seed=4)
    assert held_out(spec).size == 256
    with pytest.raises(ValueError, match="size"):
        held_out(spec, size=0)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["gaussian_mixture_2d"]),
    size=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generation_finite_and_deterministic(kind, size, seed):
    spec = DatasetSpec(kind=kind, size=size, seed=seed)
    batch = generate(spec)
    assert batch.shape == (size, spec.dim)
    assert np.all(np.isfinite(batch))
    np.testing.assert_array_equal(batch, generate(spec))
