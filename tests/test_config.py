import pytest

from adadiffuse.config import RunConfig, load_config, parse_text, to_text
from adadiffuse.errors import ConfigError


MINIMAL = """
# comment lines and blanks are fine
dataset.kind = gaussian_mixture_2d
dataset.size = 1024
train.total_steps = 100
sampler.steps = 6
sampler.adjust = all
seeds = 0,1,2
"""


def test_parse_minimal_config():
    cfg = parse_text(MINIMAL)
    assert cfg.dataset.size == 1024
    assert cfg.train.total_steps == 100
    assert cfg.sampler.steps == 6
    assert cfg.sampler.adjustment_set == frozenset(range(1, 7))
    assert cfg.seeds == (0, 1, 2)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_text("dataset.kind = gaussian_mixture_2d\nsampler.temperature = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_text("sampler.steps = 6\nsampler.steps = 7\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_text("just some words\n")


def test_bad_value_becomes_config_error():
    with pytest.raises(ConfigError):
        parse_text("train.total_steps = soon\n")
    with pytest.raises(ConfigError):
        parse_text("sampler.adjust = 1,two,3\n")
    for text in ("bench.steps_list = 6,-2", "bench.samples_per_run = 0",
                 "bench.reference_size = 0", "eval.samples_per_point = 0",
                 "train.checkpoint_every = -3", "sampler.eta = nan", "sampler.eta = inf",
                 "sampler.eta = 1.5",
                 "eval.grid = 0.5,1.5", "eval.grid = 0,0.5", "eval.grid = nan",
                 "seeds = 0,1,0", "bench.steps_list = 6,1000,6"):
        with pytest.raises(ConfigError):
            parse_text(text + "\n")


@pytest.mark.parametrize("text", [
    "train.learning_rate = nan",
    "train.learning_rate = inf",
    "dataset.radius = nan",
    "dataset.radius = inf",
    "dataset.sigma = nan",
    "dataset.sigma = inf",
    "train.seed = -1",
    "dataset.seed = -1",
    "sampler.seed = -1",
    "seeds = 0,-1",
])
def test_values_that_would_fail_during_training_are_rejected_at_parse_time(text):
    with pytest.raises(ConfigError):
        parse_text(text + "\n")


def test_adjust_forms():
    assert parse_text("sampler.adjust = none\n").sampler.adjustment_set == frozenset()
    assert parse_text("sampler.adjust = 1,3\n").sampler.adjustment_set == frozenset({1, 3})
    cfg = parse_text("sampler.steps = 4\nsampler.adjust = all\n")
    assert cfg.sampler.adjustment_set == frozenset({1, 2, 3, 4})


def test_round_trip_through_text():
    cfg = parse_text(MINIMAL)
    text = to_text(cfg)
    again = parse_text(text)
    assert again == cfg
    # defaults round-trip too
    assert parse_text(to_text(RunConfig())) == RunConfig()


@pytest.mark.parametrize("text,steps", [("", 6), ("sampler.steps = 4\n", 4)])
def test_defaults_a_file_leaves_out(text, steps):
    sampler = parse_text(text).sampler
    assert sampler.update_rule == "ddim"
    assert sampler.adjustment_set == frozenset(range(1, steps + 1))
    assert parse_text(to_text(RunConfig())) == RunConfig()


def test_empty_file_gives_the_default_config():
    assert parse_text("") == RunConfig()


@pytest.mark.parametrize("text,message", [
    ("dataset.components = 2\ndataset.weights = 0.5,0.5", "unknown key 'dataset.weights'"),
    ("dataset.wave_length = 64", "unknown key 'dataset.wave_length'"),
    ("dataset.kind = sinusoid_1d", "unknown dataset kind 'sinusoid_1d'"),
], ids=["weights", "wave_length", "sinusoid_1d"])
def test_removed_dataset_keys_and_kind_are_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_text(text + "\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config(tmp_path / "missing.cfg")


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xff" + MINIMAL.encode())
    with pytest.raises(ConfigError, match="latin.cfg.*utf-8"):
        load_config(path)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    assert load_config(path) == parse_text(MINIMAL)
