"""Binary tensor checkpointing.

File layout: magic b"NESD", format version (u32 LE), then per tensor:
name byte-length (u32 LE), UTF-8 name, rank (u32 LE), dims (u32 LE each),
raw little-endian float64 values. Round trips are bit-exact. Writes are
atomic and durable: a temp file in the target's directory is fsynced and
renamed over the target, then the directory is fsynced, so a failed write
leaves any previous file as it was and a returned write survives a crash.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .models import Denoiser, Estimator
from .nn import ACTIVATIONS, DenseLayer, Network
from .schedule import NoiseSchedule

MAGIC = b"NESD"
VERSION = 1

_COND_CODES = {"continuous_alpha": 0, "discrete_index": 1}
_COND_NAMES = {v: k for k, v in _COND_CODES.items()}
_DIM_LIMIT = 2**32  # tensor dims are stored as u32


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for name, arr in tensors.items():
                arr = np.ascontiguousarray(arr, dtype="<f8")
                raw_name = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw_name)))
                fh.write(raw_name)
                fh.write(struct.pack("<I", arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # the rename is durable once the directory entry is on disk
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tensors(path) -> dict[str, np.ndarray]:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a tensor checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version}, expected {VERSION}"
        )
    pos = 8
    tensors: dict[str, np.ndarray] = {}

    def take(nbytes: int, what: str) -> bytes:
        nonlocal pos
        if pos + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        out = blob[pos : pos + nbytes]
        pos += nbytes
        return out

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not valid UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        count = math.prod(dims)
        data = np.frombuffer(take(8 * count, f"values of {name!r}"), dtype="<f8")
        try:
            tensors[name] = data.reshape(dims).astype(np.float64)
        except ValueError as exc:  # more dims than numpy allows, or sizes it cannot index
            raise CheckpointError(f"{path}: tensor {name!r} has dims {dims}: {exc}") from exc
    return tensors


def _network_tensors(prefix: str, net: Network) -> dict[str, np.ndarray]:
    out = {}
    for k, layer in enumerate(net.layers):
        out[f"{prefix}/layer{k}/weight"] = layer.weight
        out[f"{prefix}/layer{k}/bias"] = layer.bias
        out[f"{prefix}/layer{k}/activation"] = np.array(
            [float(ACTIVATIONS.index(layer.activation))]
        )
    return out


def _stored_int(value, stop: int, what: str) -> int:
    """A float read from a checkpoint that must hold an integer in [0, stop)."""
    v = float(value)
    if not (v.is_integer() and 0 <= v < stop):
        raise CheckpointError(f"{what} {v!r} is not an integer in [0, {stop})")
    return int(v)


def _network_from_tensors(prefix: str, tensors: dict[str, np.ndarray]) -> Network:
    layers = []
    k = 0
    while f"{prefix}/layer{k}/weight" in tensors:
        try:
            w = tensors[f"{prefix}/layer{k}/weight"]
            b = tensors[f"{prefix}/layer{k}/bias"]
            code = tensors[f"{prefix}/layer{k}/activation"][0]
        except (KeyError, IndexError) as exc:
            raise CheckpointError(f"incomplete layer {k} under {prefix!r}") from exc
        what = f"activation of layer {k} under {prefix!r}"
        act = ACTIVATIONS[_stored_int(code, len(ACTIVATIONS), what)]
        layers.append(DenseLayer(w.copy(), b.copy(), act))
        k += 1
    if not layers:
        raise CheckpointError(f"no layers found under {prefix!r}")
    return Network(layers)


def save_checkpoint(models: dict, schedule: NoiseSchedule | None, path) -> None:
    """Persist denoiser/estimator models and optionally a schedule."""
    tensors: dict[str, np.ndarray] = {}
    den = models.get("denoiser")
    if den is not None:
        tensors.update(_network_tensors("denoiser", den.net))
        tensors["denoiser/meta"] = np.array(
            [float(den.data_dim), float(_COND_CODES[den.conditioning_mode])]
        )
    est = models.get("estimator")
    if est is not None:
        tensors.update(_network_tensors("estimator", est.net))
        tensors["estimator/meta"] = np.array([float(est.data_dim)])
    if schedule is not None:
        tensors["schedule/betas"] = schedule.betas
    write_tensors(path, tensors)


def load_checkpoint(path) -> tuple[dict, NoiseSchedule | None]:
    tensors = read_tensors(path)
    models: dict = {}
    schedule = None
    try:
        if "denoiser/meta" in tensors:
            meta = tensors["denoiser/meta"]
            code = _stored_int(meta[1], len(_COND_NAMES), "denoiser conditioning code")
            models["denoiser"] = Denoiser(
                net=_network_from_tensors("denoiser", tensors),
                data_dim=_stored_int(meta[0], _DIM_LIMIT, "denoiser data_dim"),
                conditioning_mode=_COND_NAMES[code],
            )
        if "estimator/meta" in tensors:
            meta = tensors["estimator/meta"]
            models["estimator"] = Estimator(
                net=_network_from_tensors("estimator", tensors),
                data_dim=_stored_int(meta[0], _DIM_LIMIT, "estimator data_dim"),
            )
        if "schedule/betas" in tensors:
            schedule = NoiseSchedule.from_betas(tensors["schedule/betas"])
    except CheckpointError:
        raise
    except (IndexError, ValueError) as exc:  # short meta, unfit dims, an invalid schedule
        raise CheckpointError(f"{path}: malformed model or schedule data: {exc}") from exc
    return models, schedule
