"""Tiny-size self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Runs every workload, plain and traced, on a shrunken config and shrunken
budgets (a few seconds in all), and checks that:

- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- the output checks pass on healthy runs;
- a non-finite chain injected into a sampling run counts as diverged, and
  an exception from the engine fails the operation and counts its chains;
- spans nest and the per-layer self times add up to the traced wall time;
- the host-speed clock scales short intervals and intervals with probes
  inside by their neighbouring probes, and long ones without by the run.

Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_CONFIG = """\
dataset.kind = gaussian_mixture_2d
dataset.size = 256
dataset.seed = 0
train.batch_size = 16
train.seed = 1
train.stage_count = 50
sampler.steps = 3
sampler.adjust = all
sampler.update_rule = ddim
bench.steps_list = 3
bench.samples_per_run = 16
bench.reference_size = 32
eval.grid = 0.1,0.9
eval.samples_per_point = 8
seeds = 0,1
"""


def shrink() -> Path:
    """Shrink the workloads' budgets and write the tiny config; returns the
    root directory holding it."""
    tiny = dict(BATCH=16, REFERENCE=32, ESTIMATOR_BATCH=16, LONG_STEPS=8, FEW_STEPS=3,
                SETUP_TRAIN_STEPS=20, TRAIN_STEPS=20, CHECKPOINT_EVERY=5, LOSS_TAIL=5,
                RATE_WINDOW=5, VALIDATION_PAIRS=2, VALIDATION_REPEATS=2,
                LONG_FIXED_REPEATS=2, ED_FIXED_BOUND=math.inf)
    for name, value in tiny.items():
        expect(hasattr(workloads, name), f"workloads.{name} exists")
        setattr(workloads, name, value)
    for w in workloads.WORKLOADS.values():
        w.setup_repeats = 2
    root = run.OUT / "selftest"
    (root / "configs").mkdir(parents=True, exist_ok=True)
    (root / workloads.CONFIG).write_text(TINY_CONFIG)
    return root


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_names(metrics: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: unit for k, (_, unit) in metrics.items()}
    expect(got == want, f"{what}: emitted {sorted(set(got) ^ set(want))} differ from "
                        f"BENCHMARK.json, or units differ")
    for k, (v, _) in metrics.items():
        expect(isinstance(v, (int, float)) and math.isfinite(v), f"{what}: {k} = {v!r}")


def check_workloads(root: Path, spec: dict) -> None:
    for w in workloads.WORKLOADS.values():
        out = root / w.name
        tally = workloads.Tally()
        metrics = run.run_plain(w, root, 0, 0.0, out, tally)
        expect(tally.failed == 0, f"{w.name}: {tally.errors}")
        check_names(metrics, spec["end_to_end"], w.name)
        for k, (v, _) in metrics.items():
            expect(v != 0, f"{w.name}: end-to-end metric {k} is 0")

        tally = workloads.Tally()
        metrics = run.run_traced(w, root, 0, out, tally)
        expect(tally.failed == 0, f"{w.name} traced: {tally.errors}")
        check_names(metrics, spec["per_layer"], f"{w.name} traced")
        own = sum(v for k, (v, _) in metrics.items() if k.startswith("self_ms."))
        expect(abs(own - metrics["traced.wall_ms"][0]) < 1e-6 * own + 1e-6,
               f"{w.name}: layer self times {own} != traced wall {metrics['traced.wall_ms'][0]}")
        shares = sum(v for k, (v, _) in metrics.items() if k.startswith("body.share."))
        expect(abs(shares - 100.0) < 1e-6, f"{w.name}: body shares sum to {shares}")


def check_divergence(root: Path) -> None:
    w = workloads.WORKLOADS["sample_long"]
    state, _ = w.setup(root, 0, root / "inject")
    original = workloads.sampler.sample_batch

    def nan_chain(*args, **kwargs):
        result = original(*args, **kwargs)
        result.y0[0] = np.nan
        return result

    def failing(*args, **kwargs):
        raise ValueError("non-finite state after step 1")

    try:
        workloads.sampler.sample_batch = nan_chain
        tally = workloads.Tally()
        done = tally.run("body", w.body, state, tally)
        expect(done is not None and tally.failed == 0, f"injected NaN: {tally.errors}")
        expect(tally.chains == 2 * workloads.BATCH, f"chains counted once per run: {tally.chains}")
        expect(tally.diverged >= 2, f"a NaN chain per run counts as diverged: {tally.diverged}")
        expect(math.isfinite(done[0]["ed_fixed"]), "ED skips the diverged chain")

        workloads.sampler.sample_batch = failing
        tally = workloads.Tally()
        expect(tally.run("body", w.body, state, tally) is None, "engine exception fails the body")
        expect((tally.attempted, tally.failed) == (1, 1), f"failure counted: {tally}")
        expect(tally.diverged == tally.chains == workloads.BATCH,
               f"a failed run's chains count as diverged: {tally}")
    finally:
        workloads.sampler.sample_batch = original

    y = np.zeros((4, 2))
    y[1, 0], y[2, 1], y[3, 0] = np.inf, layers.DIVERGED_ABS * 2, -layers.DIVERGED_ABS
    expect(layers.diverged_mask(y).tolist() == [False, True, True, False], "diverged_mask")


def check_spans() -> None:
    tracer = Tracer()
    with tracer.phase("body"):
        with tracer.span("nn.forward"):
            pass
        with tracer.span("sampler.sample_batch.fixed"):
            with tracer.span("nn.forward"):
                pass
    incl, own, calls = tracer.totals()
    expect(calls == {"body": 1, "nn.forward": 2, "sampler.sample_batch.fixed": 1}, f"{calls}")
    expect(abs(sum(own.values()) - tracer.phase_ms("body")) < 1e-9, "self times cover the phase")
    parents = [s[3] for s in tracer.spans]
    expect(parents == [-1, 0, 0, 2], f"parents {parents}")


def check_hostspeed() -> None:
    ref = hostspeed.REFERENCE_S
    clock = hostspeed.HostClock()
    clock.marks = [0.0, 0.5, 5.0, 9.5, 10.0]
    clock.probes = [ref, ref, 4 * ref, 2 * ref, 2 * ref]
    cases = [
        (hostspeed.Timed(0.2, 0.3), 0.1),                 # short: probes at 0 and 0.5
        (hostspeed.Timed(4.0, 6.0), 0.5),                 # a probe inside: the one at 5
        (hostspeed.Timed(0.6, 4.9), 2.15),                # long, none inside: the run's median
        (hostspeed.Timed(0.6, 4.9, scaled=False), 4.3),
        (hostspeed.Timed(0.2, 0.3, work=10.0), 100.0),    # a rate: work per reference second
    ]
    for t, want in cases:
        expect(abs(clock.value(t) - want) < 1e-9, f"hostspeed {t}: {clock.value(t)} != {want}")
    off = hostspeed.HostClock(enabled=False)
    off.probe(3)
    expect(off.probes == [] and off.seconds(hostspeed.Timed(0.0, 2.0)) == 2.0, "a disabled clock")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS),
           "BENCHMARK.json end_to_end names follow run.END_TO_END_UNITS")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")
    root = shrink()
    check_spans()
    check_hostspeed()
    check_workloads(root, spec)
    check_divergence(root)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
