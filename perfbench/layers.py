"""Which public calls of adadiffuse the traced run wraps, and the counts
each call adds.

Each layer is one module of the package. Counts marked "computed" are
derived from call arguments and the program's documented algorithm, not
observed inside the program:

- nn.forward.gflop = 2 * rows * sum(in_dim * out_dim) over the layers;
- metrics.energy_distance.pairs = the point pairs the V-statistic sums
  after the program's stride subsampling (MAX_PAIRS);
- metrics.energy_distance.temp_mb = the largest (n_a, n_b, dim) float64
  difference tensor one call builds, in 1e6 bytes;
- checkpoint and bench bytes = sizes of the files written or read.
"""
from __future__ import annotations

import inspect
import os

import numpy as np

LAYERS = ("nn", "models", "sampler", "schedule", "diffusion", "datasets",
          "metrics", "checkpoint", "bench", "config")

# A chain whose final state is non-finite or exceeds this in max-norm has
# diverged. The standardized mixture data lie within |y| <= 1.7, and adaptive
# chains past 3 spread from there to 1e10 and beyond.
DIVERGED_ABS = 3.0


def diverged_mask(y: np.ndarray) -> np.ndarray:
    y = np.atleast_2d(y)
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(y).all(axis=1) | (np.abs(y).max(axis=1) > DIVERGED_ABS)


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _forward(c, args, kwargs, result):
    net, x = args[0], args[1]
    rows = _rows(x)
    c["nn.forward.rows"] += rows
    c["nn.forward.gflop"] += 2.0 * rows * sum(l.in_dim * l.out_dim for l in net.layers) / 1e9


def _rows_counter(key):
    def count(c, args, kwargs, result):
        c[key] += _rows(args[1])
    return count


def _sample_batch_counter(fn):
    arguments = _bound(fn)

    def count(c, args, kwargs, result):
        a = arguments(args, kwargs)
        batch, steps = a["batch"], a["cfg"].steps
        c["sampler.chain_steps"] += batch * steps
        c["sampler.diverged_chains"] += int(diverged_mask(result.y0).sum())
        if a["adaptive"]:
            # a re-solve happens at every estimated step with steps left
            left = [rec.n - 1 for rec in result.steps if rec.alpha_hat is not None and rec.n > 1]
            c["schedule.resolves"] += batch * len(left)
            c["schedule.betas_solved"] += batch * sum(left)
            c["schedule.clamp_events"] += result.clamp_events
    return count


def _sample_batch_name(fn):
    arguments = _bound(fn)

    def name(args, kwargs):
        return "sampler.sample_batch." + ("adaptive" if arguments(args, kwargs)["adaptive"] else "fixed")
    return name


def _energy_distance_counter(max_pairs):
    def count(c, args, kwargs, result):
        a, b = np.atleast_2d(args[0]), np.atleast_2d(args[1])
        na, nb, dim = a.shape[0], b.shape[0], a.shape[1]
        if na * nb > max_pairs:
            scale = np.sqrt(max_pairs / (na * nb))
            na, nb = min(na, max(1, int(na * scale))), min(nb, max(1, int(nb * scale)))
        c["metrics.energy_distance.pairs"] += na * nb + na * na + nb * nb
        temp = max(na * nb, na * na, nb * nb) * dim * 8 / 1e6
        c["metrics.energy_distance.temp_mb"] = max(c["metrics.energy_distance.temp_mb"], temp)
    return count


def _file_bytes(fn, key):
    arguments = _bound(fn)

    def count(c, args, kwargs, result):
        c[key] += os.path.getsize(arguments(args, kwargs)["path"])
    return count


def install(tracer, package: str = "adadiffuse") -> None:
    """Wrap every traced call; tracer.unwrap_all() undoes it."""
    import importlib

    mod = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
    wrap = lambda module, qualname, name, counter=None: tracer.wrap(
        package, module, qualname, name, counter)

    wrap("nn", "Network.forward", "nn.forward", _forward)
    wrap("nn", "Network.backward", "nn.backward")
    wrap("nn", "adam_step", "nn.adam")
    wrap("models", "Denoiser.conditioned_input", "models.conditioned_input",
         _rows_counter("models.conditioned_input.rows"))
    wrap("models", "Estimator.predict", "models.estimator_predict",
         _rows_counter("models.estimator_predict.rows"))
    wrap("models", "make_denoiser", "models.make_denoiser")
    wrap("models", "make_estimator", "models.make_estimator")
    sample_batch = mod["sampler"].sample_batch
    wrap("sampler", "sample_batch", _sample_batch_name(sample_batch),
         _sample_batch_counter(sample_batch))
    wrap("schedule", "NoiseSchedule.from_betas", "schedule.from_betas")
    wrap("diffusion", "train_denoiser", "diffusion.train_denoiser")
    wrap("diffusion", "train_estimator", "diffusion.train_estimator")
    wrap("diffusion", "denoiser_train_step", "diffusion.train_step")
    wrap("diffusion", "estimator_train_step", "diffusion.train_step")
    wrap("diffusion", "make_noisy_batch", "diffusion.make_noisy_batch")
    wrap("datasets", "generate", "datasets.generate")
    wrap("config", "load_config", "config.load")
    wrap("metrics", "energy_distance", "metrics.energy_distance",
         _energy_distance_counter(mod["metrics"].MAX_PAIRS))
    wrap("metrics", "eval_estimator_curve", "metrics.estimator_curve")
    wrap("checkpoint", "save_checkpoint", "checkpoint.save",
         _file_bytes(mod["checkpoint"].save_checkpoint, "checkpoint.save.bytes"))
    wrap("checkpoint", "load_checkpoint", "checkpoint.load",
         _file_bytes(mod["checkpoint"].load_checkpoint, "checkpoint.load.bytes"))
    wrap("bench", "run_benchmark", "bench.run_benchmark")
    for writer in ("write_trace_jsonl", "write_bench_csv", "write_curve_csv",
                   "write_metrics_json", "write_samples_csv"):
        wrap("bench", writer, "bench.write." + writer[len("write_"):],
             _file_bytes(getattr(mod["bench"], writer), "bench.write.bytes"))


def per_layer_metrics(tracer, body_id: str, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics, as name -> (value, unit)."""
    incl, own, calls = tracer.totals()
    c = tracer.counts
    ms = lambda name: incl.get(name, 0.0)
    prefixed = lambda prefix, table: sum(v for k, v in table.items() if k.startswith(prefix))
    solved = c["schedule.betas_solved"]
    out = {
        "nn.forward.ms": (ms("nn.forward"), "ms"),
        "nn.forward.calls": (calls.get("nn.forward", 0), "count"),
        "nn.forward.rows": (c["nn.forward.rows"], "count"),
        "nn.forward.gflop": (c["nn.forward.gflop"], "GFLOP"),
        "nn.backward.ms": (ms("nn.backward"), "ms"),
        "nn.adam.ms": (ms("nn.adam"), "ms"),
        "nn.adam.calls": (calls.get("nn.adam", 0), "count"),
        "models.conditioned_input.ms": (ms("models.conditioned_input"), "ms"),
        "models.conditioned_input.rows": (c["models.conditioned_input.rows"], "count"),
        "models.estimator_predict.ms": (ms("models.estimator_predict"), "ms"),
        "models.estimator_predict.rows": (c["models.estimator_predict.rows"], "count"),
        "sampler.self_ms.fixed": (own.get("sampler.sample_batch.fixed", 0.0), "ms"),
        "sampler.self_ms.adaptive": (own.get("sampler.sample_batch.adaptive", 0.0), "ms"),
        "sampler.chain_steps": (c["sampler.chain_steps"], "count"),
        "sampler.diverged_chains": (c["sampler.diverged_chains"], "count"),
        "schedule.resolves": (c["schedule.resolves"], "count"),
        "schedule.betas_solved": (solved, "count"),
        "schedule.clamp_events": (c["schedule.clamp_events"], "count"),
        "schedule.clamp_frac": (c["schedule.clamp_events"] / solved if solved else 0.0, "frac"),
        "diffusion.make_noisy_batch.ms": (ms("diffusion.make_noisy_batch"), "ms"),
        "diffusion.train_step.self_ms": (own.get("diffusion.train_step", 0.0), "ms"),
        "datasets.generate.ms": (ms("datasets.generate"), "ms"),
        "config.load.ms": (ms("config.load"), "ms"),
        "metrics.energy_distance.ms": (ms("metrics.energy_distance"), "ms"),
        "metrics.energy_distance.calls": (calls.get("metrics.energy_distance", 0), "count"),
        "metrics.energy_distance.pairs": (c["metrics.energy_distance.pairs"], "count"),
        "metrics.energy_distance.temp_mb": (c["metrics.energy_distance.temp_mb"], "MB"),
        "metrics.estimator_curve.ms": (ms("metrics.estimator_curve"), "ms"),
        "checkpoint.save.ms": (ms("checkpoint.save"), "ms"),
        "checkpoint.save.bytes": (c["checkpoint.save.bytes"], "bytes"),
        "checkpoint.load.ms": (ms("checkpoint.load"), "ms"),
        "checkpoint.load.bytes": (c["checkpoint.load.bytes"], "bytes"),
        "bench.self_ms": (prefixed("bench.", own), "ms"),
        "bench.write.ms": (prefixed("bench.write.", incl), "ms"),
        "bench.write.bytes": (c["bench.write.bytes"], "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    out["traced.wall_ms"] = (sum(tracer.phase_ms(p) for p in tracer.phases()), "ms")
    whole = {layer: 0.0 for layer in (*LAYERS, "other")}
    for phase in tracer.phases():
        for layer, v in tracer.layer_self_ms(phase, LAYERS).items():
            whole[layer] += v
    for layer, v in whole.items():
        out[f"self_ms.{layer}"] = (v, "ms")
    body_ms = tracer.phase_ms(body_id)
    out["body.wall_ms"] = (body_ms, "ms")
    for layer, v in tracer.layer_self_ms(body_id, LAYERS).items():
        out[f"body.share.{layer}"] = (100.0 * v / body_ms, "%")
    return out
