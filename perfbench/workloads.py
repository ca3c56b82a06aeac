"""The benchmark's workloads: set-up, timed body and output checks.

All load comes from this one process. Every call waits for the one before
it (a closed loop of batch jobs with one client), ADADIFFUSE_THREADS is
unset so run_benchmark stays sequential, and OpenBLAS keeps its default
thread count.

The workload seed seeds the sampler: the initial noise of the paired
runs and run_benchmark's sampler seed, from which it derives its pairing.
Models are trained from the config's train.seed on every workload: the
energy distance of models trained from different seeds spreads across
seeds by far more than any usable regression bound, while for one model
it is steady. The program only sees the generated inputs.

The benchmark calls the program through module attributes (bench.x,
sampler.x, ...) so that the traced run, which swaps those attributes for
timing wrappers, sees the benchmark's own calls too.
"""
from __future__ import annotations

import hashlib
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hostspeed
from adadiffuse import bench, checkpoint, config, datasets, diffusion, metrics, models, sampler
from layers import diverged_mask

CONFIG = Path("configs") / "mixture.cfg"
BATCH = 512                # chains per paired sample_batch run
REFERENCE = 1024           # held-out points the paired runs' energy distances compare against
ESTIMATOR_BATCH = 256      # the estimator's training batch, as in the acceptance suite
LONG_STEPS = 1000          # reverse steps on sample_long
FEW_STEPS = 6              # reverse steps on few_step and the train workload's validation
SETUP_TRAIN_STEPS = 2000   # per model: the reduced budget behind sample_long and few_step
TRAIN_STEPS = 1000         # per model: the train workload's job
CHECKPOINT_EVERY = 250     # periodic checkpoint interval of the train job
LOSS_TAIL = 100            # losses averaged at the end of a training budget
RATE_WINDOW = 50           # training steps per window of the steps/s median
PROBE_EVERY = 25           # training steps per host-speed probe (hostspeed)
ED_FIXED_BOUND = 0.5       # sanity bound on a fixed-schedule energy distance
VALIDATION_PAIRS = 8       # fixed/adaptive N=6 pairs sampled after the train and few_step bodies
VALIDATION_REPEATS = 8     # timed repeats of each of those runs
LONG_FIXED_REPEATS = 3     # timed repeats of sample_long's fixed run (adaptive: 1)


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed; chains sampled and diverged."""

    attempted: int = 0
    failed: int = 0
    chains: int = 0
    diverged: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, what: str, fn, *args):
        """Run one operation; an exception or failed check is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the run must go on and report the failure
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


@dataclass
class Inputs:
    cfg: config.RunConfig
    data: np.ndarray
    reference: np.ndarray
    out: Path


def load_inputs(root: Path, seed: int, out: Path) -> Inputs:
    cfg = config.load_config(root / CONFIG)
    cfg = replace(cfg, sampler=replace(cfg.sampler, seed=seed))
    data = datasets.generate(cfg.dataset)
    reference = datasets.generate(datasets.held_out(cfg.dataset, size=REFERENCE))
    out.mkdir(parents=True, exist_ok=True)
    return Inputs(cfg, data, reference, out)


def _params(model) -> str:
    return sha(*[p for layer in model.net.layers for p in (layer.weight, layer.bias)])


def _same_model(a, b) -> bool:
    return (_params(a) == _params(b) and a.data_dim == b.data_dim
            and [l.activation for l in a.net.layers] == [l.activation for l in b.net.layers]
            and getattr(a, "conditioning_mode", None) == getattr(b, "conditioning_mode", None))


def train_and_reload(inp: Inputs, steps: int, checkpoint_every: int = 0):
    """Train both models from scratch, checkpoint them as the CLI does, and
    reload them; returns the reloaded models and per-model measurements."""
    cfg = inp.cfg
    schedule = diffusion.training_schedule(cfg.train.stage_count)
    jobs = (
        ("denoiser", lambda: models.make_denoiser(
            cfg.dataset.dim, cfg.train.seed, cfg.sampler.conditioning_mode),
         diffusion.train_denoiser, cfg.train.batch_size),
        ("estimator", lambda: models.make_estimator(cfg.dataset.dim, cfg.train.seed),
         diffusion.train_estimator, ESTIMATOR_BATCH),
    )
    reloaded, out = {}, {}
    for key, make, trainer, batch in jobs:
        model = make()
        path = inp.out / f"{key}.nesd"
        clock = hostspeed.CLOCK
        stamps = [clock.start()]

        def progress(step, _loss, model=model, key=key, path=path, stamps=stamps):
            if step % PROBE_EVERY == 0:
                clock.probe()
            stamps.append(clock.now())
            if checkpoint_every and (step + 1) % checkpoint_every == 0:
                checkpoint.save_checkpoint({key: model}, schedule, path)

        losses = trainer(model, inp.data, replace(cfg.train, total_steps=steps, batch_size=batch),
                         progress=progress)
        check(bool(np.all(np.isfinite(losses))), f"{key} training losses are finite")
        checkpoint.save_checkpoint({key: model}, schedule, path)
        loaded = checkpoint.load_checkpoint(path)[0].get(key)
        check(loaded is not None and _same_model(model, loaded),
              f"{key} checkpoint reload is bit-exact")
        reloaded[key] = loaded
        # one sample per window of steps: the median moves only with the
        # windows a burst of outside load or a checkpoint write hits
        clock.probe()
        out[f"{key}_steps_per_s"] = [
            hostspeed.Timed(stamps[i], stamps[i + RATE_WINDOW], RATE_WINDOW)
            for i in range(0, len(stamps) - RATE_WINDOW, RATE_WINDOW)]
        out[f"{key}_loss"] = float(np.mean(losses[-LOSS_TAIL:]))
    return reloaded, out


def check_estimator_curve(inp: Inputs, estimator) -> None:
    """The estimator curve the CLI's eval-estimator step computes."""
    curve = metrics.eval_estimator_curve(
        estimator, inp.data, inp.cfg.eval_grid, inp.cfg.eval_samples_per_point)
    check(all(np.isfinite(m) for _, m in curve), "estimator curve is finite")


def initial_noise(seed, batch: int, dim: int) -> np.ndarray:
    """Standard-normal initial states from a randomly shifted low-discrepancy
    set: the R_d Kronecker sequence (Roberts' generalised golden ratio),
    shifted by a seeded uniform vector and mapped through the normal
    quantile. The energy distance of 512 such chains spreads across seeds
    several times less than that of i.i.d. noise."""
    g = 2.0
    for _ in range(60):  # Newton's method for g**(dim+1) = g + 1
        g -= (g ** (dim + 1) - g - 1.0) / ((dim + 1) * g ** dim - 1.0)
    alpha = g ** -np.arange(1.0, dim + 1)
    shift = np.random.default_rng(seed).random(dim)
    u = (shift + np.arange(1, batch + 1)[:, None] * alpha) % 1.0
    quantile = np.vectorize(statistics.NormalDist().inv_cdf)
    return quantile(np.clip(u, 1e-12, 1.0 - 1e-12))


def sample_pairs(inp: Inputs, trained: dict, n_steps: int, tally: Tally,
                 pairs: int = 1, repeats: tuple[int, int] = (1, 1)):
    """Fixed and adaptive sample_batch runs from identical initial states,
    for `pairs` independent sets of initial states.

    The energy distance of each run is taken over its chains that did not
    diverge and averaged over the pairs; the diverged chains are tallied.
    Each fixed and adaptive run is timed repeats[0] and repeats[1] times
    and must reproduce bit for bit; each timed run is one sample of its
    chain rate, in chain steps per reference second (hostspeed).
    """
    cfg = inp.cfg
    scfg = replace(cfg.sampler, steps=n_steps, adjustment_set=frozenset(range(1, n_steps + 1)))
    bounds = diffusion.training_schedule(cfg.train.stage_count).boundaries
    measured, prints, runs = defaultdict(list), [], {}
    for k in range(pairs):
        y_init = initial_noise([scfg.seed, k], BATCH, cfg.dataset.dim)
        for method, times in zip(("fixed", "adaptive"), repeats):
            outputs = set()
            tally.chains += BATCH  # once: the repeats re-run the same chains for timing
            try:
                for _ in range(times):
                    t0 = hostspeed.CLOCK.start()
                    run = sampler.sample_batch(
                        trained["denoiser"], scfg, np.random.default_rng([scfg.seed, k]), BATCH,
                        estimator=trained["estimator"], adaptive=(method == "adaptive"),
                        train_bounds=bounds, y_init=y_init)
                    measured[f"{method}_chain_steps_per_s"].append(
                        hostspeed.CLOCK.since(t0, BATCH * n_steps))
                    outputs.add(sha(run.y0, run.y_init, [run.clamp_events]))
            except Exception:
                tally.diverged += BATCH
                raise
            bad = diverged_mask(run.y0)
            tally.diverged += int(bad.sum())
            check(len(outputs) == 1, f"{method} runs reproduce bit for bit")
            check(sha(run.y_init) == sha(y_init), f"{method} run starts from the paired states")
            check(not bad.all(), f"{method}: some chains stay finite and bounded")
            ed = metrics.energy_distance(run.y0[~bad], inp.reference)
            measured[f"ed_{method}"].append(ed)
            runs[method, k] = run
            prints.append(f"{sha(run.y0)}:{run.clamp_events}:{ed!r}")
    out = {k: v for k, v in measured.items() if k.endswith("_per_s")}
    out["ed_fixed"] = float(np.mean(measured["ed_fixed"]))
    out["ed_adaptive"] = float(np.mean(measured["ed_adaptive"]))
    check(out["ed_fixed"] < ED_FIXED_BOUND, f"fixed-schedule ED {out['ed_fixed']} < {ED_FIXED_BOUND}")
    return out, "/".join(prints), runs


def write_traces(inp: Inputs, runs: dict) -> None:
    """Per-step traces of sample_pairs' runs, as the CLI's sample command writes them."""
    for (method, k), run in runs.items():
        bench.write_trace_jsonl(run.steps, inp.out / f"trace_{method}_N{len(run.steps)}_pair{k}.jsonl")


class Workload:
    """One named workload. setup() returns (state, fingerprint); body(), the
    timed operation, and validate(), untimed checks after it, return
    (measurements, fingerprint). Equal inputs must give equal fingerprints.
    scale_wall says whether wall_s is in reference seconds (hostspeed)."""

    name = ""
    setup_repeats = 2
    scale_wall = True

    def setup(self, root: Path, seed: int, out: Path):
        raise NotImplementedError

    def body(self, state, tally: Tally):
        raise NotImplementedError

    def validate(self, state, tally: Tally):
        return {}, ""


class Train(Workload):
    name = "train"
    setup_repeats = 25

    def setup(self, root, seed, out):
        inp = load_inputs(root, seed, out)
        return {"inputs": inp}, sha(inp.data, inp.reference, [inp.cfg.train.seed])

    def body(self, state, tally):
        trained, out = train_and_reload(state["inputs"], TRAIN_STEPS, CHECKPOINT_EVERY)
        state["models"] = trained
        return out, _params(trained["denoiser"]) + _params(trained["estimator"])

    def validate(self, state, tally):
        inp, trained = state["inputs"], state["models"]
        out, prints, runs = sample_pairs(inp, trained, FEW_STEPS, tally,
                                          VALIDATION_PAIRS, (VALIDATION_REPEATS,) * 2)
        write_traces(inp, runs)
        check_estimator_curve(inp, trained["estimator"])
        return out, prints


class SamplingWorkload(Workload):
    """Set-up shared by the sampling workloads: config, data, reduced-budget
    training, checkpoint and reload, and the estimator curve."""

    def setup(self, root, seed, out):
        inp = load_inputs(root, seed, out)
        trained, measured = train_and_reload(inp, SETUP_TRAIN_STEPS)
        check_estimator_curve(inp, trained["estimator"])
        fingerprint = _params(trained["denoiser"]) + _params(trained["estimator"])
        return {"inputs": inp, "models": trained, "measured": measured}, fingerprint


class SampleLong(SamplingWorkload):
    name = "sample_long"

    def body(self, state, tally):
        out, prints, state["runs"] = sample_pairs(state["inputs"], state["models"], LONG_STEPS,
                                                  tally, repeats=(LONG_FIXED_REPEATS, 1))
        return out, prints

    def validate(self, state, tally):
        # traces of 1000-step runs take about a tenth of the body to write; untimed here
        write_traces(state["inputs"], state["runs"])
        return {}, ""


class FewStep(SamplingWorkload):
    name = "few_step"
    # The body is about 95% energy distance, which streams 16 MB difference
    # tensors through memory; its speed follows the host's memory traffic,
    # not the probe. Over 12 bodies in one process, scaled by the probes at
    # their ends, the wall times spread more (cv 0.09) than unscaled (0.067);
    # over five sets of five runs, scaled by the run's median probe, they
    # spread by 0.09-0.22 of their median against 0.08-0.21 unscaled. So
    # wall_s here is plain wall time.
    scale_wall = False

    def body(self, state, tally):
        inp = state["inputs"]
        cfg = replace(inp.cfg, bench=replace(inp.cfg.bench, steps_list=(FEW_STEPS,)))
        try:
            record = bench.run_benchmark(cfg, state["models"]["denoiser"],
                                         state["models"]["estimator"], inp.out / "few_step")
        except Exception:
            # run_benchmark returns no samples, so its chains count only when it fails
            chains = len(cfg.seeds) * 2 * cfg.bench.samples_per_run
            tally.chains += chains
            tally.diverged += chains
            raise
        out = {}
        for method in bench.METHODS:
            rows = [r for r in record.rows if r.method == method]
            check(len(rows) == len(cfg.seeds), f"one {method} row per seed")
            eds = [r.energy_distance for r in rows]
            check(bool(np.all(np.isfinite(eds))), f"{method} energy distances are finite")
            out[f"ed_{method}"] = float(np.mean(eds))
        shas = {(r.seed, r.method): r.y_init_sha for r in record.rows}
        check(all(shas[(s, "fixed")] == shas[(s, "adaptive")] for s in cfg.seeds),
              "paired runs start from identical noise")
        check(out["ed_fixed"] < ED_FIXED_BOUND, f"fixed-schedule ED {out['ed_fixed']} < {ED_FIXED_BOUND}")
        fingerprint = "/".join(f"{r.energy_distance!r}:{r.clamp_events}:{r.y_init_sha}"
                               for r in record.rows)
        return out, fingerprint

    def validate(self, state, tally):
        # The chain rates come from warm, repeated N=6 runs as on train.
        # run_benchmark's own per-run times are single 6-step runs right
        # after long energy-distance calls; across runs they spread by up to
        # 0.45 of their median.
        out, prints, _ = sample_pairs(state["inputs"], state["models"], FEW_STEPS, tally,
                                      VALIDATION_PAIRS, (VALIDATION_REPEATS,) * 2)
        return {k: v for k, v in out.items() if k.endswith("_per_s")}, prints


WORKLOADS = {w.name: w for w in (Train(), SampleLong(), FewStep())}
