"""Experiment harness: paired fixed-vs-adaptive benchmarks and file outputs.

For each configured step count and seed, one fixed-schedule batch run and
one adaptive batch run consume identical initial noise (verified by
hashing). The adaptive run re-solves at the steps of sampler.adjust, read
at each N as _adjustment_for states. Energy distances are measured
against a held-out data batch.
Outputs: metrics.json, curve.csv, bench.csv and a trace.jsonl per run
(one StepRecord per line), all re-parseable by this module. The
ADADIFFUSE_THREADS environment variable caps the worker count for
fanning runs out across processes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .datasets import generate, held_out
from .diffusion import training_schedule
from .errors import ConfigError, TraceError
from .metrics import energy_distance, eval_estimator_curve
from .models import Denoiser, Estimator
from .sampler import SamplerConfig, SamplingRun, StepRecord, sample_batch

METHODS = ("fixed", "adaptive")


@dataclass
class BenchRow:
    method: str
    steps: int
    seed: int
    energy_distance: float
    wall_ms_per_sample: float
    clamp_events: int
    y_init_sha: str


@dataclass
class MetricsRecord:
    estimator_curve: list[tuple[float, float]] = field(default_factory=list)
    rows: list[BenchRow] = field(default_factory=list)

    def energy_distances(self, method: str, steps: int) -> list[float]:
        return [r.energy_distance for r in self.rows
                if r.method == method and r.steps == steps]

    @property
    def wall_time_ms(self) -> dict:
        """(method, N) -> {mean, std} of the rows' per-sample wall times."""
        walls = {}
        for r in sorted(self.rows, key=lambda row: (row.steps, METHODS.index(row.method))):
            walls.setdefault((r.method, r.steps), []).append(r.wall_ms_per_sample)
        return {key: {"mean": float(np.mean(w)), "std": float(np.std(w))}
                for key, w in walls.items()}

    @property
    def clamp_events(self) -> int:
        return sum(r.clamp_events for r in self.rows)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def write_trace_jsonl(steps: list[StepRecord], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(vars(rec)) + "\n" for rec in steps)


def _parsed(path, rows, parse, what: str) -> list:
    """parse(row) for each (line number, row) of a file; a row that does not
    parse raises TraceError naming the file and the line."""
    out = []
    for lineno, row in rows:
        try:
            out.append(parse(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}, line {lineno}: not a {what}: {exc!r}") from None
    return out


def _read_csv(path, parse, what: str) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return _parsed(path, ((reader.line_num, r) for r in reader), parse, what)


def read_trace_jsonl(path) -> list[StepRecord]:
    with open(path, "rb") as fh:
        return _parsed(path, enumerate(fh, 1), lambda line: StepRecord(**json.loads(line)),
                       "step record")


def write_curve_csv(curve, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_bar", "mse"])
        w.writerows([(f"{a!r}", f"{m!r}") for a, m in curve])


def read_curve_csv(path) -> list[tuple[float, float]]:
    return _read_csv(path, lambda r: (float(r["alpha_bar"]), float(r["mse"])), "curve row")


def write_bench_csv(rows: list[BenchRow], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "N", "seed", "energy_distance", "wall_ms"])
        for r in rows:
            w.writerow([r.method, r.steps, r.seed,
                        f"{r.energy_distance!r}", f"{r.wall_ms_per_sample!r}"])


def read_bench_csv(path) -> list[dict]:
    return _read_csv(path, lambda r: {
        "method": r["method"], "N": int(r["N"]), "seed": int(r["seed"]),
        "energy_distance": float(r["energy_distance"]), "wall_ms": float(r["wall_ms"]),
    }, "bench row")


def write_samples_csv(samples: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(samples.shape[1])])
        w.writerows([[f"{float(v)!r}" for v in row] for row in samples])


def write_metrics_json(record: MetricsRecord, path) -> None:
    payload = {
        "estimator_curve": [[a, m] for a, m in record.estimator_curve],
        "runs": [{
            "method": r.method, "N": r.steps, "seed": r.seed,
            "energy_distance": r.energy_distance,
            "wall_ms_per_sample": r.wall_ms_per_sample,
            "clamp_events": r.clamp_events, "y_init_sha": r.y_init_sha,
        } for r in record.rows],
        "wall_time_ms": {f"{m}/{n}": v for (m, n), v in record.wall_time_ms.items()},
        "clamp_events": record.clamp_events,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def read_metrics_json(path) -> MetricsRecord:
    with open(path) as fh:
        try:
            payload = json.load(fh)
            return MetricsRecord(
                estimator_curve=[(a, m) for a, m in payload["estimator_curve"]],
                rows=[BenchRow(
                    method=r["method"], steps=r["N"], seed=r["seed"],
                    energy_distance=r["energy_distance"],
                    wall_ms_per_sample=r["wall_ms_per_sample"],
                    clamp_events=r["clamp_events"], y_init_sha=r["y_init_sha"],
                ) for r in payload["runs"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}: not a metrics record: {exc!r}") from None


def worker_count(n_tasks: int) -> int:
    env = os.environ.get("ADADIFFUSE_THREADS")
    try:
        cap = max(1, int(env)) if env else 1
    except ValueError:
        raise ConfigError(f"ADADIFFUSE_THREADS must be an integer, got {env!r}") from None
    return max(1, min(cap, n_tasks))


def _adjustment_for(sampler: SamplerConfig, steps: int) -> frozenset[int]:
    """The adjustment set of the benchmark's runs at N = steps.

    The full set 1..sampler.steps means every step of each N and the empty
    set means no re-solve; any other set names the same step indices at
    every N, so none of them may exceed N.
    """
    adjust = sampler.adjustment_set
    if adjust == frozenset(range(1, sampler.steps + 1)):
        return frozenset(range(1, steps + 1))
    if max(adjust, default=0) > steps:
        raise ConfigError(
            f"sampler.adjust step {max(adjust)} exceeds the benchmark's N = {steps}"
        )
    return adjust


def _run_pair(args) -> tuple[list[BenchRow], dict[str, SamplingRun]]:
    denoiser, estimator, cfg, scfg, seed, reference = args
    steps = scfg.steps
    bounds = training_schedule(cfg.train.stage_count).boundaries
    batch = cfg.bench.samples_per_run
    rows, runs = [], {}
    for method in METHODS:
        rng = np.random.default_rng([scfg.seed, steps, seed])
        run = sample_batch(
            denoiser, scfg, rng, batch,
            estimator=estimator, adaptive=(method == "adaptive"),
            train_bounds=bounds,
        )
        rows.append(BenchRow(
            method=method, steps=steps, seed=seed,
            energy_distance=energy_distance(run.y0, reference),
            wall_ms_per_sample=run.wall_ms / batch,
            clamp_events=run.clamp_events,
            y_init_sha=_sha(run.y_init),
        ))
        runs[method] = run
    if rows[0].y_init_sha != rows[1].y_init_sha:
        raise RuntimeError(f"paired runs diverged on initial noise at N={steps} seed={seed}")
    return rows, runs


def run_benchmark(cfg: RunConfig, denoiser: Denoiser, estimator: Estimator,
                  out_dir) -> MetricsRecord:
    """Paired fixed/adaptive comparison over cfg.bench.steps_list x cfg.seeds."""
    # every N's adjustment set is checked before the first pair runs
    samplers = [replace(cfg.sampler, steps=n, adjustment_set=_adjustment_for(cfg.sampler, n))
                for n in cfg.bench.steps_list]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = generate(held_out(cfg.dataset, size=cfg.bench.reference_size))
    record = MetricsRecord()
    record.estimator_curve = eval_estimator_curve(
        estimator, generate(cfg.dataset), cfg.eval_grid, cfg.eval_samples_per_point
    )

    tasks = [(denoiser, estimator, cfg, scfg, seed, reference)
             for scfg in samplers for seed in cfg.seeds]
    workers = worker_count(len(tasks))
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            # each pair is kept as it finishes, so a later failure loses no finished pair
            results = pool.map(_run_pair, tasks) if pool else map(_run_pair, tasks)
            for (rows, runs), (_, _, _, scfg, seed, _) in zip(results, tasks):
                record.rows.extend(rows)
                for method, run in runs.items():
                    write_trace_jsonl(
                        run.steps, out_dir / f"trace_{method}_N{scfg.steps}_seed{seed}.jsonl"
                    )
    finally:
        # flush whatever completed, even on failure
        record.rows.sort(key=lambda r: (r.steps, r.seed, r.method))
        write_bench_csv(record.rows, out_dir / "bench.csv")
        write_curve_csv(record.estimator_curve, out_dir / "curve.csv")
        write_metrics_json(record, out_dir / "metrics.json")
    return record
