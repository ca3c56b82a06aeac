"""End-to-end smoke on a 64-dim synthetic array and on the shipped config."""
from dataclasses import replace
from pathlib import Path

import numpy as np

from adadiffuse.config import load_config, parse_text, to_text
from adadiffuse.diffusion import TrainConfig, train_denoiser, train_estimator
from adadiffuse.models import make_denoiser, make_estimator
from adadiffuse.sampler import SamplerConfig, sample_adaptive, sample_batch
from adadiffuse.schedule import ScheduleFamily

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_shipped_config_parses_and_round_trips():
    cfg = load_config(REPO_ROOT / "configs" / "mixture.cfg")
    assert cfg.dataset.kind == "gaussian_mixture_2d"
    assert cfg.train.total_steps == 20000
    assert cfg.sampler.adjustment_set == frozenset(range(1, 7))
    assert parse_text(to_text(cfg)) == cfg


def test_waveform_training_and_adaptive_sampling_smoke():
    data = np.random.default_rng(2).standard_normal((256, 64))
    tcfg = TrainConfig(batch_size=32, total_steps=40, seed=0, stage_count=100)

    den = make_denoiser(data.shape[1], seed=1)
    est = make_estimator(data.shape[1], seed=2)
    dl = train_denoiser(den, data, tcfg)
    el = train_estimator(est, data, tcfg)
    assert np.all(np.isfinite(dl)) and np.all(np.isfinite(el))

    scfg = SamplerConfig(
        steps=5, adjustment_set=frozenset(range(1, 6)),
        family=ScheduleFamily("fibonacci", 1e-4),
        update_rule="ddim", eta=0.0, seed=0,
    )
    run = sample_adaptive(den, est, scfg, np.random.default_rng(0))
    assert run.y0.shape == (64,)
    assert np.all(np.isfinite(run.y0))

    batch = sample_batch(den, replace(scfg, update_rule="ddpm"),
                         np.random.default_rng(1), batch=8,
                         estimator=est, adaptive=True)
    assert batch.y0.shape == (8, 64)
    assert np.all(np.isfinite(batch.y0))
