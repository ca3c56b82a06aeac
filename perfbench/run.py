"""Run one benchmark workload on the adadiffuse source tree and print its result.

    python3 perfbench/run.py --workload {train,sample_long,few_step} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root. With --trace 0 nothing is wrapped: the
run sets up several times (setup_s is the median), repeats the timed
body for about --seconds seconds (wall_s and the rates are medians) and
prints the end-to-end metrics. Timings are in reference seconds, corrected
for the shared host's drifting speed (see hostspeed.py); few_step's wall_s
is plain wall time. With --trace 1 it sets up once and runs the
body once plain and once with every layer's public calls wrapped, and
prints the per-layer metrics; spans go to .perfbench_out/<workload>/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the machine and
code record of the run.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CONFIG = ROOT / "configs" / "mixture.cfg"
PACKAGE = ROOT / "src" / "adadiffuse"
# One BLAS thread. On a shared 2-vCPU host, two OpenBLAS threads on the
# program's small matrices wait on each other whenever the other vCPU is
# busy: N=6 sample_batch runs then took 2.5-4x longer, so the rates measured
# the neighbours' load. With one thread they took about a quarter longer
# on an idle host, and the same load added at most a fifth.
BLAS_THREADS = 1
# host-speed probes before and after each set-up and body: one probe alone
# reads up to 1.4x the median of its neighbours
PROBES_AROUND = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "denoiser_steps_per_s": "1/s",
    "estimator_steps_per_s": "1/s",
    "fixed_chain_steps_per_s": "1/s",
    "adaptive_chain_steps_per_s": "1/s",
    "ed_fixed": "1",
    "ed_adaptive": "1",
    "healthy_chain_frac": "frac",
    "denoiser_loss": "1",
    "estimator_loss": "1",
    "peak_rss_mb": "MB",
}


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads(np) -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_record(threads_env: str | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "ADADIFFUSE_THREADS": threads_env,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "config_sha256": hashlib.sha256(CONFIG.read_bytes()).hexdigest(),
        "src_sha256": src.hexdigest(),
    }


def _repeatable(fingerprints, what: str):
    from workloads import check

    check(len(set(fingerprints)) <= 1, f"{what} repeats reproduce bit for bit")


def pool(values, measured: dict) -> None:
    """Add one operation's measurements: a list holds samples, one per timed piece."""
    for k, v in measured.items():
        values[k].extend(v if isinstance(v, list) else [v])


def run_plain(w, root: Path, seed: int, seconds: float, out: Path, tally, record=None):
    """Set up and run the body untraced; timings are in reference seconds
    (hostspeed), and `record` receives their sample counts and unscaled medians."""
    import hostspeed

    clock = hostspeed.HostClock()
    hostspeed.use(clock)
    values, prints = defaultdict(list), []
    for _ in range(w.setup_repeats):
        t0 = clock.start(PROBES_AROUND)
        done = tally.run("setup", w.setup, root, seed, out)
        if done is None:
            return None
        values["setup_s"].append(clock.since(t0, probes=PROBES_AROUND))
        state, fingerprint = done
        prints.append(fingerprint)
        pool(values, state.get("measured", {}))
    tally.run("setup repeatability", _repeatable, prints, "setup")

    walls, prints = [], []
    start = time.perf_counter()
    while True:
        t0 = clock.start(PROBES_AROUND)
        done = tally.run("body", w.body, state, tally)
        walls.append(clock.since(t0, scaled=w.scale_wall, probes=PROBES_AROUND))
        if done is not None:
            pool(values, done[0])
            prints.append(done[1])
        raw = statistics.median(t.t1 - t.t0 for t in walls)
        if time.perf_counter() - start + raw > seconds:
            break
    values["wall_s"] = walls
    tally.run("body repeatability", _repeatable, prints, "body")
    done = tally.run("validate", w.validate, state, tally)
    pool(values, done[0] if done else {})

    metrics, timings = {}, {}
    for k, v in values.items():
        if isinstance(v[0], hostspeed.Timed):
            metrics[k] = statistics.median(clock.value(t) for t in v)
            raw = statistics.median(t.t1 - t.t0 if t.work is None else t.work / (t.t1 - t.t0)
                                    for t in v)
            timings[k] = {"samples": len(v), "median": metrics[k], "unscaled_median": raw}
        else:
            metrics[k] = statistics.median(v)
    if tally.chains:
        metrics["healthy_chain_frac"] = 1.0 - tally.diverged / tally.chains
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if record is not None:
        record["timings"] = timings
        record["host"] = {"probes": len(clock.probes), "reference_s": hostspeed.REFERENCE_S,
                          "probe_median_s": statistics.median(clock.probes) if clock.probes else None}
    return {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items() if k in metrics}


def run_traced(w, root: Path, seed: int, out: Path, tally):
    import hostspeed
    import layers
    from spans import Tracer

    hostspeed.use(hostspeed.HostClock(enabled=False))
    tracer = Tracer()
    try:
        layers.install(tracer)
        with tracer.phase("setup"):
            done = tally.run("setup", w.setup, root, seed, out)
        tracer.unwrap_all()
        if done is None:
            return None
        state = done[0]
        t0 = time.perf_counter()
        plain = tally.run("body", w.body, state, tally)
        plain_s = time.perf_counter() - t0
        layers.install(tracer)
        with tracer.phase("body"):
            traced = tally.run("body", w.body, state, tally)
        with tracer.phase("check"):
            tally.run("validate", w.validate, state, tally)
    finally:
        tracer.unwrap_all()
    tracer.write(out / f"spans_seed{seed}.jsonl")
    if plain is None or traced is None:
        return None
    tally.run("traced body reproduces the plain one", _repeatable, [plain[1], traced[1]], "traced")
    return layers.per_layer_metrics(tracer, "body", tracer.phase_ms("body") / 1e3 - plain_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "sample_long", "few_step"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"perfbench: no adadiffuse source tree and config under {ROOT}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("ADADIFFUSE_THREADS", None)
    # set before numpy loads OpenBLAS: see BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import adadiffuse

    if Path(adadiffuse.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported adadiffuse from {adadiffuse.__file__}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS, Tally

    w = WORKLOADS[args.workload]
    out = OUT / w.name
    out.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    t0 = time.perf_counter()
    timing = {}
    if args.trace:
        metrics = run_traced(w, ROOT, args.seed, out, tally)
    else:
        metrics = run_plain(w, ROOT, args.seed, args.seconds, out, tally, timing)
    metrics = metrics or {}
    complete = bool(metrics) if args.trace else set(metrics) == set(END_TO_END_UNITS)
    result = {
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "run_s": time.perf_counter() - t0,
        "chains": tally.chains,
        "diverged_chains": tally.diverged,
        "diverged_chain_frac": tally.diverged / tally.chains if tally.chains else None,
        "diverged_threshold_abs": layers.DIVERGED_ABS,
        "errors": tally.errors,
        **timing,
        "machine": machine_record(threads_env),
    }
    (out / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, **result}, indent=1))
    for err in tally.errors:
        print(err, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
