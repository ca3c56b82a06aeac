import json
import math

import numpy as np
import pytest

from adadiffuse.checkpoint import load_checkpoint
from adadiffuse.cli import main
from adadiffuse.schedule import ScheduleFamily, update_noise_schedule


SMALL_CFG = """
dataset.kind = gaussian_mixture_2d
dataset.size = 512
dataset.seed = 0
train.learning_rate = 1e-3
train.batch_size = 32
train.total_steps = 60
train.seed = 1
train.stage_count = 100
sampler.steps = 4
sampler.adjust = all
sampler.family = linear
sampler.beta0 = 1e-4
sampler.update_rule = ddim
sampler.eta = 0.0
sampler.seed = 3
bench.steps_list = 4
bench.samples_per_run = 16
bench.reference_size = 64
eval.grid = 0.1,0.5,0.9
eval.samples_per_point = 32
seeds = 0,1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG + f"output_dir = {out}\n")
    return path, out


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert main(["solve-schedule", "--bogus"]) == 2


def test_missing_config_exits_2_with_path(capsys):
    assert main(["benchmark", "--config", "missing.cfg"]) == 2
    assert "missing.cfg" in capsys.readouterr().err


def test_solve_schedule_prints_linear_solution(capsys):
    rc = main([
        "solve-schedule", "--family", "linear",
        "--alpha-bar", "0.8", "--steps", "2", "--beta0", "0.01",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "i,beta,alpha_bar,l"
    sched = update_noise_schedule(0.8, 2, ScheduleFamily("linear", 0.01))
    got = [[float(tok) for tok in line.split(",")] for line in out[1:]]
    for i, row in enumerate(got):
        assert row[0] == i
        assert row[1] == pytest.approx(sched.betas[i], rel=1e-12)
        assert row[2] == pytest.approx(sched.alpha_bars[i], rel=1e-12)
        assert row[3] == pytest.approx(sched.boundaries[i + 1], rel=1e-12)
    # the two-step closed form: x = -(log 0.8 + 2 b0)/1, betas = b0, b0 + x
    x = -(math.log(0.8) + 0.02)
    assert got[1][1] == pytest.approx(0.01 + x, rel=1e-12)


@pytest.mark.parametrize("flag,value,named", [
    ("--alpha-bar", "1.5", "alpha_bar 1.5"),
    ("--alpha-bar", "nan", "alpha_bar nan"),
    ("--steps", "0", "got 0"),
    ("--beta0", "0.5", "beta0 0.5"),
], ids=["alpha-bar-1.5", "alpha-bar-nan", "steps-0", "beta0-0.5"])
def test_solve_schedule_bad_argument_exits_2(tmp_path, capsys, flag, value, named):
    args = {"--family": "linear", "--alpha-bar": "0.8", "--steps": "2", "--beta0": "0.01"}
    args[flag] = value
    out = tmp_path / "sched.csv"
    argv = ["solve-schedule", "--out", str(out)] + [tok for kv in args.items() for tok in kv]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_train_sample_benchmark_pipeline(cfg_file, capsys):
    cfg_path, out = cfg_file
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 0
    assert main(["train-estimator", "--config", str(cfg_path)]) == 0
    assert (out / "denoiser.nesd").is_file()
    assert (out / "estimator.nesd").is_file()
    assert (out / "denoiser_loss.csv").read_text().startswith("step,loss")

    models, sched = load_checkpoint(out / "denoiser.nesd")
    assert models["denoiser"].data_dim == 2
    assert len(sched) == 100

    assert main(["eval-estimator", "--config", str(cfg_path)]) == 0
    assert (out / "curve.csv").is_file()

    assert main(["sample", "--config", str(cfg_path), "--mode", "adaptive"]) == 0
    trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
    assert [t["n"] for t in trace] == [4, 3, 2, 1]
    assert all(t["alpha_hat"] is not None for t in trace)

    assert main(["benchmark", "--config", str(cfg_path)]) == 0
    assert (out / "bench.csv").is_file()
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["runs"]) == 4  # 1 N x 2 seeds x 2 methods


def test_sample_with_the_other_conditioning_mode_exits_2(cfg_file, capsys):
    cfg_path, out = cfg_file
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 0
    cfg_path.write_text(cfg_path.read_text() + "sampler.conditioning = discrete_index\n")
    assert main(["sample", "--config", str(cfg_path), "--mode", "fixed"]) == 2
    err = capsys.readouterr().err
    assert "discrete_index" in err and "continuous_alpha" in err
    assert not (out / "sample.csv").exists()


def test_sample_without_checkpoints_exits_1(cfg_file, capsys):
    cfg_path, out = cfg_file
    rc = main(["sample", "--config", str(cfg_path), "--mode", "fixed"])
    assert rc == 1
    assert "denoiser.nesd" in capsys.readouterr().err


def test_benchmark_without_checkpoints_exits_1_names_path(cfg_file, capsys):
    cfg_path, out = cfg_file
    rc = main(["benchmark", "--config", str(cfg_path)])
    assert rc == 1
    assert str(out / "denoiser.nesd") in capsys.readouterr().err


def test_benchmark_with_non_integer_threads_exits_2(cfg_file, capsys, monkeypatch):
    cfg_path, out = cfg_file
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 0
    assert main(["train-estimator", "--config", str(cfg_path)]) == 0
    monkeypatch.setenv("ADADIFFUSE_THREADS", "abc")
    assert main(["benchmark", "--config", str(cfg_path)]) == 2
    assert "ADADIFFUSE_THREADS" in capsys.readouterr().err


def test_benchmark_with_adjust_step_above_an_n_exits_2(cfg_file, capsys):
    cfg_path, out = cfg_file
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 0
    assert main(["train-estimator", "--config", str(cfg_path)]) == 0
    text = cfg_path.read_text().replace("sampler.adjust = all", "sampler.adjust = 3")
    cfg_path.write_text(text.replace("bench.steps_list = 4", "bench.steps_list = 4,2"))
    assert main(["benchmark", "--config", str(cfg_path)]) == 2
    assert "sampler.adjust" in capsys.readouterr().err
    assert not (out / "bench.csv").exists()


def test_train_with_a_nan_learning_rate_exits_2_before_any_checkpoint(cfg_file, capsys):
    cfg_path, out = cfg_file
    cfg_path.write_text(cfg_path.read_text().replace(
        "train.learning_rate = 1e-3", "train.learning_rate = nan"))
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not (out / "denoiser.nesd").exists()


def test_a_negative_seed_override_exits_2_before_any_checkpoint(cfg_file, capsys):
    cfg_path, out = cfg_file
    assert main(["train-denoiser", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "denoiser.nesd").exists()


def test_a_config_that_is_not_utf8_exits_2_before_any_checkpoint(cfg_file, capsys):
    cfg_path, out = cfg_file
    cfg_path.write_bytes(b"\xff" + cfg_path.read_bytes())
    assert main(["train-denoiser", "--config", str(cfg_path)]) == 2
    assert str(cfg_path) in capsys.readouterr().err
    assert not (out / "denoiser.nesd").exists()


def test_train_requires_config(capsys):
    assert main(["train-denoiser"]) == 2


def test_checkpoint_interval_writes_during_training(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        SMALL_CFG + f"output_dir = {out}\ntrain.checkpoint_every = 20\n"
    )
    assert main(["train-estimator", "--config", str(cfg)]) == 0
    assert (out / "estimator.nesd").is_file()
