"""Shared fixtures: full-scale trained models for the acceptance suite.

Training is deterministic (fixed seeds), takes a few minutes once per
session, and is shared by every test that needs trained models.
"""
import numpy as np
import pytest

from adadiffuse.config import load_config
from adadiffuse.datasets import generate
from adadiffuse.diffusion import train_denoiser, train_estimator
from adadiffuse.models import make_denoiser, make_estimator

CONFIG_PATH = "configs/mixture.cfg"


@pytest.fixture(scope="session")
def run_config():
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def mixture_data(run_config):
    return generate(run_config.dataset)


@pytest.fixture(scope="session")
def trained_denoiser(run_config, mixture_data):
    den = make_denoiser(run_config.dataset.dim, run_config.train.seed)
    train_denoiser(den, mixture_data, run_config.train)
    return den


@pytest.fixture(scope="session")
def trained_estimator(run_config, mixture_data):
    from dataclasses import replace

    est = make_estimator(run_config.dataset.dim, run_config.train.seed)
    train_estimator(est, mixture_data, replace(run_config.train, batch_size=256))
    return est
