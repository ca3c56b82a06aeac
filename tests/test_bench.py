import re
from dataclasses import replace

import pytest

from adadiffuse import bench
from adadiffuse.bench import (
    read_bench_csv,
    read_curve_csv,
    read_metrics_json,
    read_trace_jsonl,
    run_benchmark,
    write_trace_jsonl,
)
from adadiffuse.config import BenchConfig, RunConfig, parse_text
from adadiffuse.datasets import DatasetSpec
from adadiffuse.diffusion import TrainConfig
from adadiffuse.errors import ConfigError, TraceError
from adadiffuse.models import make_denoiser, make_estimator
from adadiffuse.sampler import SamplerConfig, StepRecord, sample_adaptive, sample_batch
from adadiffuse.schedule import ScheduleFamily


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = RunConfig(
        dataset=DatasetSpec(size=256, seed=0),
        train=TrainConfig(batch_size=32, total_steps=50, seed=1, stage_count=100),
        sampler=SamplerConfig(
            steps=4, adjustment_set=frozenset({1, 2, 3, 4}),
            family=ScheduleFamily("linear", 1e-4),
            update_rule="ddim", eta=0.0, seed=5,
        ),
        bench=BenchConfig(steps_list=(4,), samples_per_run=32, reference_size=128),
        eval_grid=(0.1, 0.9),
        eval_samples_per_point=32,
        seeds=(0, 1, 2),
    )
    return cfg, make_denoiser(2, seed=7), make_estimator(2, seed=8)


def test_benchmark_outputs_and_bookkeeping(tiny_setup, tmp_path):
    cfg, den, est = tiny_setup
    record = run_benchmark(cfg, den, est, tmp_path)
    # one N, three seeds -> 6 recorded runs
    assert len(record.rows) == 6
    assert {r.method for r in record.rows} == {"fixed", "adaptive"}
    assert record.clamp_events >= 0
    for r in record.rows:
        assert r.energy_distance >= -1e-12
        assert r.wall_ms_per_sample > 0

    # paired runs consumed identical initial noise
    by_seed = {}
    for r in record.rows:
        by_seed.setdefault(r.seed, {})[r.method] = r.y_init_sha
    for seed, shas in by_seed.items():
        assert shas["fixed"] == shas["adaptive"]

    # emitted files re-parse to the same content
    rows = read_bench_csv(tmp_path / "bench.csv")
    assert len(rows) == 6
    for parsed, r in zip(rows, record.rows):
        assert parsed["method"] == r.method
        assert parsed["energy_distance"] == pytest.approx(r.energy_distance, rel=1e-12)
    curve = read_curve_csv(tmp_path / "curve.csv")
    assert curve == [(a, pytest.approx(m, rel=1e-12)) for a, m in record.estimator_curve]
    loaded = read_metrics_json(tmp_path / "metrics.json")
    assert loaded.clamp_events == record.clamp_events
    assert loaded.wall_time_ms.keys() == record.wall_time_ms.keys()

    trace = read_trace_jsonl(tmp_path / "trace_adaptive_N4_seed0.jsonl")
    assert [t.n for t in trace] == [4, 3, 2, 1]
    assert all(t.alpha_hat is not None for t in trace)


def test_benchmark_keeps_finished_pairs_when_a_later_pair_fails(tiny_setup, tmp_path,
                                                               monkeypatch):
    cfg, den, est = tiny_setup
    calls = []

    def failing_third_pair(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:  # the first of the third pair's two runs
            raise RuntimeError("injected failure")
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(bench, "sample_batch", failing_third_pair)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_benchmark(cfg, den, est, tmp_path)
    rows = read_bench_csv(tmp_path / "bench.csv")
    assert [(r["seed"], r["method"]) for r in rows] == [
        (0, "adaptive"), (0, "fixed"), (1, "adaptive"), (1, "fixed")]
    loaded = read_metrics_json(tmp_path / "metrics.json")
    assert [r.seed for r in loaded.rows] == [0, 0, 1, 1]
    assert set(loaded.wall_time_ms) == {("fixed", 4), ("adaptive", 4)}
    # a pair's traces are written once both its runs are done
    assert sorted(p.name for p in tmp_path.glob("trace_*.jsonl")) == [
        f"trace_{method}_N4_seed{seed}.jsonl" for method in ("adaptive", "fixed")
        for seed in (0, 1)]


def test_benchmark_deterministic_across_calls(tiny_setup, tmp_path):
    cfg, den, est = tiny_setup
    first = run_benchmark(cfg, den, est, tmp_path / "first")
    second = run_benchmark(cfg, den, est, tmp_path / "second")
    assert [r.energy_distance for r in first.rows] == [r.energy_distance for r in second.rows]
    assert [r.y_init_sha for r in first.rows] == [r.y_init_sha for r in second.rows]
    assert [r.clamp_events for r in first.rows] == [r.clamp_events for r in second.rows]


def test_benchmark_pair_with_a_failed_adaptive_run_leaves_no_trace(tiny_setup, tmp_path,
                                                                  monkeypatch):
    cfg, den, est = tiny_setup
    calls = []

    def failing_first_adaptive_run(*args, **kwargs):
        calls.append(kwargs["adaptive"])
        if kwargs["adaptive"]:
            raise RuntimeError("injected failure")
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(bench, "sample_batch", failing_first_adaptive_run)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_benchmark(cfg, den, est, tmp_path)
    assert calls == [False, True]  # the fixed run finished before the failure
    assert list(tmp_path.glob("trace_*.jsonl")) == []
    assert read_bench_csv(tmp_path / "bench.csv") == []
    assert read_metrics_json(tmp_path / "metrics.json").rows == []


def _with_adjust(cfg, adjust, steps_list=None):
    bench_cfg = cfg.bench if steps_list is None else replace(cfg.bench, steps_list=steps_list)
    return replace(cfg, sampler=replace(cfg.sampler, adjustment_set=frozenset(adjust)),
                   bench=bench_cfg)


def test_benchmark_without_adjustment_runs_fixed_twice(tiny_setup, tmp_path):
    cfg, den, est = tiny_setup
    record = run_benchmark(_with_adjust(cfg, ()), den, est, tmp_path)
    fixed = [r for r in record.rows if r.method == "fixed"]
    adaptive = [r for r in record.rows if r.method == "adaptive"]
    assert [r.energy_distance for r in adaptive] == [r.energy_distance for r in fixed]
    assert [r.clamp_events for r in adaptive] == [0, 0, 0]


def test_benchmark_adjustment_set_per_step_count(tiny_setup, tmp_path):
    cfg, den, est = tiny_setup
    cfg = replace(cfg, seeds=(0,))
    # the full set 1..sampler.steps adjusts every step of each N
    run_benchmark(_with_adjust(cfg, {1, 2, 3, 4}, (2, 6)), den, est, tmp_path / "all")
    for n in (2, 6):
        trace = read_trace_jsonl(tmp_path / "all" / f"trace_adaptive_N{n}_seed0.jsonl")
        assert all(t.alpha_hat is not None for t in trace)
    # any other set names the same step indices at every N
    run_benchmark(_with_adjust(cfg, {2, 3}, (3, 6)), den, est, tmp_path / "some")
    for n in (3, 6):
        trace = read_trace_jsonl(tmp_path / "some" / f"trace_adaptive_N{n}_seed0.jsonl")
        assert {t.n for t in trace if t.alpha_hat is not None} == {2, 3}
    # an index above some N fails before any pair runs
    with pytest.raises(ConfigError, match="sampler.adjust step 3"):
        run_benchmark(_with_adjust(cfg, {3}, (4, 2)), den, est, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def test_trace_jsonl_round_trip(tmp_path):
    steps = [
        StepRecord(n=2, alpha_hat=0.5, beta=0.02, alpha_bar=0.99 * 0.98, wall_ms=1.5),
        StepRecord(n=1, alpha_hat=None, beta=0.1 / 3, alpha_bar=1 - 0.1 / 3, wall_ms=0.7),
    ]
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(steps, path)
    assert read_trace_jsonl(path) == steps


@pytest.mark.parametrize("bad", [
    '{"n": 3, "alpha_hat": null, "betas": [0.01, 0.02], "wall_ms": 1.0}',  # old format
    '{"n": 3, "alpha_hat": null, "beta": 0.0',  # truncated
    '{"n": "three", "alpha_hat": [1], "beta": "x", "alpha_bar": null, "wall_ms": {}}',
    '{"n": true, "alpha_hat": null, "beta": 0.01, "alpha_bar": 0.99, "wall_ms": 1.0}',
    '{"n": 3.0, "alpha_hat": null, "beta": 0.01, "alpha_bar": 0.99, "wall_ms": 1.0}',
    '{"n": 3, "alpha_hat": "0.5", "beta": 0.01, "alpha_bar": 0.99, "wall_ms": 1.0}',
    '{"n": 3, "alpha_hat": 0.5, "beta": 0.01, "alpha_bar": 0.99, "wall_ms": false}',
], ids=["old-format", "truncated", "wrong-types", "bool-index", "float-index",
        "string-estimate", "bool-wall-time"])
def test_trace_reader_names_file_and_line_of_a_malformed_line(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    good = StepRecord(n=4, alpha_hat=None, beta=0.01, alpha_bar=0.99, wall_ms=1.0)
    write_trace_jsonl([good], path)
    with open(path, "a") as fh:
        fh.write(bad + "\n")
    with pytest.raises(TraceError, match=re.escape(f"{path}, line 2")):
        read_trace_jsonl(path)


@pytest.mark.parametrize("text", [
    "alpha_bar,loss\n0.5,0.1\n",  # missing column
    "alpha_bar,mse\n0.5,0.1\n0.9,abc\n",  # non-number
], ids=["missing-column", "non-number"])
def test_curve_reader_raises_trace_error_naming_file_and_line(tmp_path, text):
    path = tmp_path / "curve.csv"
    path.write_text(text)
    line = 2 if "loss" in text else 3
    with pytest.raises(TraceError, match=re.escape(f"{path}, line {line}")):
        read_curve_csv(path)


@pytest.mark.parametrize("text", [
    "method,N,seed,energy_distance\nfixed,6,0,0.01\n",  # missing column
    "method,N,seed,energy_distance,wall_ms\nfixed,6,0,0.01,0.2\nfixed,six,1,0.01,0.2\n",
], ids=["missing-column", "non-number"])
def test_bench_reader_raises_trace_error_naming_file_and_line(tmp_path, text):
    path = tmp_path / "bench.csv"
    path.write_text(text)
    line = 2 if "wall_ms" not in text else 3
    with pytest.raises(TraceError, match=re.escape(f"{path}, line {line}")):
        read_bench_csv(path)


@pytest.mark.parametrize("reader,header", [
    (read_curve_csv, b"alpha_bar,mse\n0.5,0.1\n"),
    (read_bench_csv, b"method,N,seed,energy_distance,wall_ms\nfixed,6,0,0.01,0.2\n"),
], ids=["curve", "bench"])
def test_csv_readers_raise_trace_error_on_a_non_utf8_byte(tmp_path, reader, header):
    path = tmp_path / "rows.csv"
    path.write_bytes(header + b"\xff,0.2\n")
    with pytest.raises(TraceError, match=re.escape(f"{path}: not UTF-8")):
        reader(path)


@pytest.mark.parametrize("text", [
    '{"estimator_curve": [[0.5, 0.1]], "runs": [',  # truncated
    '{"estimator_curve": [[0.5, 0.1]]}',  # missing key
    '{"estimator_curve": [0.5], "runs": []}',  # a number where a pair belongs
], ids=["truncated", "missing-key", "non-pair"])
def test_metrics_reader_raises_trace_error_naming_file(tmp_path, text):
    path = tmp_path / "metrics.json"
    path.write_text(text)
    with pytest.raises(TraceError, match=re.escape(str(path))):
        read_metrics_json(path)


def test_config_default_grid_matches_design():
    cfg = parse_text("")
    assert cfg.eval_grid == (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    assert cfg.eval_samples_per_point == 256
