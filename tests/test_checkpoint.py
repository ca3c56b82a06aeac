import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adadiffuse.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    read_tensors,
    save_checkpoint,
    write_tensors,
)
from adadiffuse.errors import CheckpointError
from adadiffuse.models import EMBED_DIM, Denoiser, Estimator, make_denoiser, make_estimator
from adadiffuse.nn import init_network
from adadiffuse.schedule import NoiseSchedule


def test_tensor_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a/weight": rng.standard_normal((3, 5)),
        "b/values": rng.standard_normal(7),
        "c/scalarish": np.array([1.5]),
    }
    path = tmp_path / "t.nesd"
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == np.float64
        assert back[name].shape == tensors[name].shape
        assert np.array_equal(back[name], tensors[name])
        assert back[name].tobytes() == tensors[name].tobytes()


def test_model_checkpoint_round_trip(tmp_path):
    den = make_denoiser(2, seed=1)
    est = make_estimator(2, seed=2)
    sched = NoiseSchedule.from_betas(np.linspace(1e-4, 2e-2, 100))
    path = tmp_path / "models.nesd"
    save_checkpoint({"denoiser": den, "estimator": est}, sched, path)
    models, sched2 = load_checkpoint(path)

    assert models["denoiser"].data_dim == 2
    assert read_tensors(path)["denoiser/meta"].tolist() == [2.0, 0.0]  # code 0: continuous
    for l1, l2 in zip(den.net.layers, models["denoiser"].net.layers):
        assert np.array_equal(l1.weight, l2.weight)
        assert np.array_equal(l1.bias, l2.bias)
        assert l1.activation == l2.activation
    for l1, l2 in zip(est.net.layers, models["estimator"].net.layers):
        assert np.array_equal(l1.weight, l2.weight)
    assert np.array_equal(sched2.betas, sched.betas)

    # loaded models produce identical outputs
    x = np.random.default_rng(3).standard_normal((4, 2))
    np.testing.assert_array_equal(
        est.net.forward(x)[-1], models["estimator"].net.forward(x)[-1]
    )


def test_a_removed_discrete_index_denoiser_is_rejected_by_name(tmp_path):
    # conditioning code 1 is what a discrete_index denoiser stored
    path = tmp_path / "d.nesd"
    save_checkpoint({"denoiser": make_denoiser(2, seed=1)}, None, path)
    tensors = read_tensors(path)
    tensors["denoiser/meta"][1] = 1.0
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError, match="a discrete_index denoiser; that mode was removed"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nesd"
    path.write_bytes(b"XXXX" + struct.pack("<I", VERSION))
    with pytest.raises(CheckpointError, match="magic"):
        read_tensors(path)


def test_wrong_version_rejected_with_both_numbers(tmp_path):
    path = tmp_path / "v9.nesd"
    path.write_bytes(MAGIC + struct.pack("<I", 9))
    with pytest.raises(CheckpointError) as err:
        read_tensors(path)
    assert "9" in str(err.value) and str(VERSION) in str(err.value)


def test_truncated_file_rejected_without_partial_state(tmp_path):
    path = tmp_path / "full.nesd"
    write_tensors(path, {"x": np.arange(10.0)})
    blob = path.read_bytes()
    for cut in (6, len(blob) // 2, len(blob) - 1):
        trunc = tmp_path / f"cut{cut}.nesd"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated|magic"):
            read_tensors(trunc)


def test_empty_model_dict_round_trips_schedule_only(tmp_path):
    sched = NoiseSchedule.from_betas([0.01, 0.02, 0.03])
    path = tmp_path / "s.nesd"
    save_checkpoint({}, sched, path)
    models, sched2 = load_checkpoint(path)
    assert models == {}
    assert np.array_equal(sched2.betas, sched.betas)


@pytest.mark.parametrize(
    "name,index,value",
    [
        ("denoiser/meta", 1, 7.0),  # unknown conditioning code
        ("denoiser/layer3/activation", 0, -2.0),  # negative activation index
        ("denoiser/layer0/activation", 0, 1.7),  # non-integer activation index
        ("estimator/meta", 0, float("nan")),
    ],
)
def test_malformed_metadata_raises_checkpoint_error(tmp_path, name, index, value):
    path = tmp_path / "models.nesd"
    models = {"denoiser": make_denoiser(2, seed=1), "estimator": make_estimator(2, seed=2)}
    save_checkpoint(models, None, path)
    tensors = read_tensors(path)
    tensors[name][index] = value
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("name,value,where", [
    ("denoiser/layer1/weight", float("nan"), "layer 1 under 'denoiser'"),
    ("estimator/layer2/bias", float("inf"), "layer 2 under 'estimator'"),
], ids=["nan-denoiser-weight", "inf-estimator-bias"])
def test_non_finite_parameters_raise_checkpoint_error_naming_the_layer(tmp_path, name, value, where):
    # caught at load, not as a non-finite sampler state steps later
    path = tmp_path / "models.nesd"
    models = {"denoiser": make_denoiser(2, seed=1), "estimator": make_estimator(2, seed=2)}
    save_checkpoint(models, None, path)
    tensors = read_tensors(path)
    tensors[name].flat[0] = value
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError, match=f"non-finite parameters in {where}"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["denoiser/meta", "estimator/layer0/activation"])
def test_metadata_of_the_wrong_rank_raises_checkpoint_error(tmp_path, name):
    path = tmp_path / "models.nesd"
    models = {"denoiser": make_denoiser(2, seed=1), "estimator": make_estimator(2, seed=2)}
    save_checkpoint(models, None, path)
    tensors = read_tensors(path)
    tensors[name] = np.zeros((2, 0))
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def test_failed_write_leaves_previous_checkpoint_and_no_temp_file(tmp_path):
    path = tmp_path / "models.nesd"
    write_tensors(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        # "a" is written before "b" fails to convert
        write_tensors(path, {"a": np.zeros(3), "b": np.array(["not a number"])})
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["models.nesd"]


def test_save_fsyncs_the_file_then_its_directory_after_the_rename(tmp_path, monkeypatch):
    # a rename is durable only once the directory holding the entry is synced
    path = tmp_path / "models.nesd"
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        st_ = os.fstat(fd)
        synced.append((stat.S_ISDIR(st_.st_mode), st_.st_ino, path.exists()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    save_checkpoint({"estimator": make_estimator(2, seed=2)}, None, path)
    assert synced == [(False, synced[0][1], False), (True, tmp_path.stat().st_ino, True)]
    assert synced[0][1] == path.stat().st_ino  # the file synced is the one renamed


HEADER = MAGIC + struct.pack("<I", VERSION)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _loads_or_raises_checkpoint_error(path, blob, load=read_tensors):
    path.write_bytes(blob)
    try:
        load(path)
    except CheckpointError:
        pass


def _flipped(blob: bytes, data, min_flips: int = 0) -> bytes:
    out = bytearray(blob)
    for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, len(out) - 1),
                                                  st.integers(1, 255)),
                                        min_size=min_flips, max_size=3)):
        out[pos] ^= mask
    return bytes(out)


@FUZZ
@given(tail=st.binary(max_size=200))
@example(tail=struct.pack("<I", 1) + b"\xff" + struct.pack("<I", 0))  # name not UTF-8
@example(tail=struct.pack("<I", 1) + b"x" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1))
@example(tail=struct.pack("<I", 1) + b"x" + struct.pack("<66I", 65, *[0] * 65))  # numpy max 64
def test_read_tensors_fuzz_bytes_after_valid_header(tmp_path, tail):
    _loads_or_raises_checkpoint_error(tmp_path / "fuzz.nesd", HEADER + tail)


@FUZZ
@given(data=st.data())
def test_read_tensors_fuzz_truncated_and_flipped_files(tmp_path, data):
    valid = tmp_path / "valid.nesd"
    write_tensors(valid, {"w": np.arange(6.0).reshape(2, 3), "b\u00e9": np.ones(3),
                          "scalar": np.array(2.5)})
    blob = _flipped(valid.read_bytes(), data)
    cut = data.draw(st.integers(0, len(blob)))
    _loads_or_raises_checkpoint_error(tmp_path / "fuzz.nesd", blob[:cut])


def test_invalid_stored_schedule_raises_checkpoint_error(tmp_path):
    path = tmp_path / "s.nesd"
    write_tensors(path, {"schedule/betas": np.array([0.01, 5.0])})
    with pytest.raises(CheckpointError, match="schedule"):
        load_checkpoint(path)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_fuzz_flipped_model_files(tmp_path, data):
    # tiny networks, so that flips hit names, shapes and metadata as often as weights
    models = {
        "denoiser": Denoiser(init_network([2 + 1 + EMBED_DIM, 3, 2], ["relu", "identity"], 0), 2),
        "estimator": Estimator(init_network([2, 3, 1], ["relu", "sigmoid"], 1), 2),
    }
    valid = tmp_path / "valid.nesd"
    save_checkpoint(models, NoiseSchedule.from_betas([0.01, 0.02]), valid)
    _loads_or_raises_checkpoint_error(tmp_path / "fuzz.nesd",
                                      _flipped(valid.read_bytes(), data, min_flips=1),
                                      load=load_checkpoint)
