"""Run configuration: flat namespaced key=value text files.

Example:

    dataset.kind = gaussian_mixture_2d
    dataset.size = 4096
    train.total_steps = 20000
    sampler.steps = 6
    sampler.adjust = all
    seeds = 0,1,2,3

Each key is one row of the _KEYS table, which drives parsing, the
unknown-key check and to_text(). Keys a file leaves out take the
RunConfig defaults. Unknown keys are rejected. to_text()/parse_text()
round-trip.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

from .datasets import DatasetSpec
from .diffusion import TrainConfig
from .errors import ConfigError
from .sampler import SamplerConfig

DEFAULT_EVAL_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)


@dataclass(frozen=True)
class BenchConfig:
    steps_list: tuple[int, ...] = (6, 1000)
    samples_per_run: int = 512
    reference_size: int = 2048

    def __post_init__(self):
        if not all(n >= 1 for n in self.steps_list):
            raise ConfigError(f"bench.steps_list entries must be >= 1, got {self.steps_list}")
        if len(set(self.steps_list)) != len(self.steps_list):
            raise ConfigError(f"bench.steps_list repeats an entry: {self.steps_list}")
        if self.samples_per_run < 1 or self.reference_size < 1:
            raise ConfigError("bench.samples_per_run and bench.reference_size must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerConfig = field(
        default_factory=lambda: SamplerConfig(
            steps=6, adjustment_set=frozenset(range(1, 7)), update_rule="ddim"
        )
    )
    bench: BenchConfig = field(default_factory=BenchConfig)
    output_dir: str = "runs"
    eval_grid: tuple[float, ...] = DEFAULT_EVAL_GRID
    eval_samples_per_point: int = 256
    seeds: tuple[int, ...] = tuple(range(10))
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.eval_samples_per_point < 1:
            raise ConfigError("eval.samples_per_point must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("train.checkpoint_every must be >= 0")
        if not all(0.0 < g < 1.0 for g in self.eval_grid):
            raise ConfigError(f"eval.grid values must lie in (0, 1), got {self.eval_grid}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds repeats an entry: {self.seeds}")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")


def _parse_adjust(v: str, steps: int) -> frozenset[int]:
    v = v.strip().lower()
    if v == "all":
        return frozenset(range(1, steps + 1))
    if v in ("none", ""):
        return frozenset()
    try:
        return frozenset(int(tok) for tok in v.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse adjustment set from {v!r}") from exc


def _adjust_to_text(adjust: frozenset[int], steps: int) -> str:
    if not adjust:
        return "none"
    if adjust == frozenset(range(1, steps + 1)):
        return "all"
    return ",".join(str(i) for i in sorted(adjust))


def _plain(parse, fmt=str):
    return (lambda text, fields: parse(text)), (lambda value, holder: fmt(value))


def _listed(parse, fmt=str):
    return _plain(lambda text: tuple(parse(t) for t in text.split(",")),
                  lambda values: ",".join(fmt(v) for v in values))


# A codec is (decode(text, fields decoded so far for the same holder),
# encode(value, holder)); the holder is the object that has the field.
_INT, _FLOAT, _STR = _plain(int), _plain(float, repr), _plain(str)
_INTS, _FLOATS = _listed(int), _listed(float, repr)
_ADJUST = (lambda text, fields: _parse_adjust(text, fields["steps"]),
           lambda value, sampler: _adjust_to_text(value, sampler.steps))

# key -> (section, field, codec), in to_text order. The section is a
# RunConfig field ("" is RunConfig itself); the field may be dotted.
_KEYS = {
    "dataset.kind": ("dataset", "kind", _STR),
    "dataset.size": ("dataset", "size", _INT),
    "dataset.seed": ("dataset", "seed", _INT),
    "dataset.components": ("dataset", "components", _INT),
    "dataset.radius": ("dataset", "radius", _FLOAT),
    "dataset.sigma": ("dataset", "sigma", _FLOAT),
    "train.learning_rate": ("train", "learning_rate", _FLOAT),
    "train.batch_size": ("train", "batch_size", _INT),
    "train.total_steps": ("train", "total_steps", _INT),
    "train.seed": ("train", "seed", _INT),
    "train.stage_count": ("train", "stage_count", _INT),
    "train.checkpoint_every": ("", "checkpoint_every", _INT),
    "sampler.steps": ("sampler", "steps", _INT),
    "sampler.adjust": ("sampler", "adjustment_set", _ADJUST),
    "sampler.family": ("sampler", "family.kind", _STR),
    "sampler.beta0": ("sampler", "family.beta0", _FLOAT),
    "sampler.update_rule": ("sampler", "update_rule", _STR),
    "sampler.eta": ("sampler", "eta", _FLOAT),
    "sampler.seed": ("sampler", "seed", _INT),
    "bench.steps_list": ("bench", "steps_list", _INTS),
    "bench.samples_per_run": ("bench", "samples_per_run", _INT),
    "bench.reference_size": ("bench", "reference_size", _INT),
    "output_dir": ("", "output_dir", _STR),
    "eval.grid": ("", "eval_grid", _FLOATS),
    "eval.samples_per_point": ("", "eval_samples_per_point", _INT),
    "seeds": ("", "seeds", _INTS),
}

def _holder(section: str, attr: str) -> tuple[tuple[str, ...], str]:
    """The attribute path from RunConfig to the object holding a field, and its name."""
    *path, name = (part for part in f"{section}.{attr}".split(".") if part)
    return tuple(path), name


# key -> (holder path, field name, codec)
_FIELDS = {key: (*_holder(section, attr), codec) for key, (section, attr, codec) in _KEYS.items()}


def _replaced(obj, path: tuple[str, ...], changes: dict):
    if not path:
        return replace(obj, **changes)
    head = getattr(obj, path[0])
    return replace(obj, **{path[0]: _replaced(head, path[1:], changes)})


def _encoded(cfg: RunConfig) -> dict[str, str]:
    out = {}
    for key, (path, name, (_, encode)) in _FIELDS.items():
        holder = reduce(getattr, path, cfg)
        out[key] = encode(getattr(holder, name), holder)
    return out


# A file's missing keys read as the RunConfig defaults written out as text,
# so that the default "all" adjustment set follows the file's step count.
_DEFAULT_TEXT = _encoded(RunConfig())


def parse_text(text: str) -> RunConfig:
    given: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        given[key] = value

    raw = {**_DEFAULT_TEXT, **given}
    changes: dict[tuple[str, ...], dict] = {}
    try:
        for key, (path, name, (decode, _)) in _FIELDS.items():
            fields = changes.setdefault(path, {})
            fields[name] = decode(raw[key], fields)
        cfg = RunConfig()
        # innermost objects first: each replace validates one whole object
        for path in sorted(changes, key=len, reverse=True):
            cfg = _replaced(cfg, path, changes[path])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path) -> RunConfig:
    try:  # a missing, unreadable or non-UTF-8 file is a config error
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_text(text)


def to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in _encoded(cfg).items())


def with_overrides(cfg: RunConfig, seed: int | None = None, out: str | None = None) -> RunConfig:
    if seed is not None:
        try:
            cfg = replace(
                cfg,
                train=replace(cfg.train, seed=seed),
                sampler=replace(cfg.sampler, seed=seed),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if out is not None:
        cfg = replace(cfg, output_dir=out)
    return cfg
