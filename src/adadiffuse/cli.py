"""Command-line experiment runner.

Subcommands: train-denoiser, train-estimator, eval-estimator,
solve-schedule, sample, benchmark. Exit codes: 0 success, 2 config or
usage error, 1 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .bench import run_benchmark, write_curve_csv, write_samples_csv, write_trace_jsonl
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, with_overrides
from .datasets import generate
from .diffusion import train_denoiser, train_estimator, training_schedule
from .errors import ConfigError, ScheduleError
from .metrics import eval_estimator_curve
from .models import make_denoiser, make_estimator
from .sampler import sample_batch
from .schedule import ScheduleFamily, update_noise_schedule


def _require_config(args) -> "RunConfig":
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    return with_overrides(cfg, seed=args.seed, out=args.out)


def _out_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_loss_csv(losses, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "loss"])
        w.writerows([(i, f"{v!r}") for i, v in enumerate(losses)])


def _load_models(args, cfg, need=("denoiser", "estimator")):
    directory = Path(args.models) if getattr(args, "models", None) else Path(cfg.output_dir)
    models = {}
    for name in need:
        path = directory / f"{name}.nesd"
        if not path.is_file():
            raise FileNotFoundError(f"missing checkpoint: {path}")
        loaded, _ = load_checkpoint(path)
        if name not in loaded:
            raise FileNotFoundError(f"checkpoint {path} does not contain a {name}")
        models[name] = loaded[name]
    return models


def _cmd_train(args, which: str) -> int:
    cfg = _require_config(args)
    out = _out_dir(cfg)
    data = generate(cfg.dataset)
    schedule = training_schedule(cfg.train.stage_count)
    if which == "denoiser":
        model = make_denoiser(cfg.dataset.dim, cfg.train.seed, cfg.sampler.conditioning_mode)
        trainer, key = train_denoiser, "denoiser"
    else:
        model = make_estimator(cfg.dataset.dim, cfg.train.seed)
        trainer, key = train_estimator, "estimator"
    ckpt_path = out / f"{key}.nesd"

    def progress(step, _loss):
        if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            save_checkpoint({key: model}, schedule, ckpt_path)

    losses = trainer(model, data, cfg.train, progress=progress)
    save_checkpoint({key: model}, schedule, ckpt_path)
    _write_loss_csv(losses, out / f"{key}_loss.csv")
    print(f"trained {key}: final loss {losses[-1]:.6f} -> {ckpt_path}")
    return 0


def _cmd_eval_estimator(args) -> int:
    cfg = _require_config(args)
    out = _out_dir(cfg)
    est = _load_models(args, cfg, need=("estimator",))["estimator"]
    curve = eval_estimator_curve(
        est, generate(cfg.dataset), cfg.eval_grid, cfg.eval_samples_per_point
    )
    write_curve_csv(curve, out / "curve.csv")
    for ab, mse in curve:
        print(f"alpha_bar={ab:g} mse={mse:.6g}")
    return 0


def _cmd_solve_schedule(args) -> int:
    try:  # every input is an argument, so a rejected one is a usage error
        schedule = update_noise_schedule(
            args.alpha_bar, args.steps, ScheduleFamily(args.family, args.beta0)
        )
    except ScheduleError as exc:
        raise ConfigError(str(exc)) from None
    lines = ["i,beta,alpha_bar,l"]
    for i in range(len(schedule)):
        lines.append(
            f"{i},{float(schedule.betas[i])!r},{float(schedule.alpha_bars[i])!r},"
            f"{float(schedule.boundaries[i + 1])!r}"
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_sample(args) -> int:
    cfg = _require_config(args)
    out = _out_dir(cfg)
    adaptive = args.mode == "adaptive"
    models = _load_models(args, cfg, need=("denoiser", "estimator") if adaptive else ("denoiser",))
    run = sample_batch(
        models["denoiser"], cfg.sampler, np.random.default_rng(cfg.sampler.seed), 1,
        estimator=models.get("estimator"), adaptive=adaptive,
        train_bounds=training_schedule(cfg.train.stage_count).boundaries,
    )
    write_samples_csv(run.y0, out / "sample.csv")
    write_trace_jsonl(run.steps, out / "trace.jsonl")
    print(f"sampled ({args.mode}, N={cfg.sampler.steps}) -> {out / 'sample.csv'}")
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _require_config(args)
    models = _load_models(args, cfg)
    record = run_benchmark(cfg, models["denoiser"], models["estimator"], cfg.output_dir)
    for (method, steps), stats in sorted(record.wall_time_ms.items()):
        eds = record.energy_distances(method, steps)
        print(
            f"{method:<8} N={steps:<5} mean_energy_distance={np.mean(eds):.5f} "
            f"wall_ms/sample={stats['mean']:.3f}"
        )
    print(f"clamp_events={record.clamp_events} -> {Path(cfg.output_dir) / 'metrics.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adadiffuse",
        description="Adaptive noise-schedule diffusion experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a run config file")
    common.add_argument("--seed", type=int, help="override train/sampler seed")
    common.add_argument("--out", help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    for which in ("denoiser", "estimator"):
        p = sub.add_parser(f"train-{which}", parents=[common])
        p.set_defaults(handler=partial(_cmd_train, which=which))

    p = sub.add_parser("eval-estimator", parents=[common])
    p.add_argument("--models", help="directory holding estimator.nesd")
    p.set_defaults(handler=_cmd_eval_estimator)

    p = sub.add_parser("solve-schedule", parents=[common])
    p.add_argument("--family", choices=("linear", "fibonacci"), required=True)
    p.add_argument("--alpha-bar", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--beta0", type=float, required=True)
    p.set_defaults(handler=_cmd_solve_schedule)

    p = sub.add_parser("sample", parents=[common])
    p.add_argument("--models", help="directory holding model checkpoints")
    p.add_argument("--mode", choices=("fixed", "adaptive"), default="adaptive")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("benchmark", parents=[common])
    p.add_argument("--models", help="directory holding model checkpoints")
    p.set_defaults(handler=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
