"""Adaptive noise-schedule control for toy denoising diffusion models."""

from .datasets import DatasetSpec, generate
from .diffusion import (
    NoisyBatch,
    TrainConfig,
    estimator_loss,
    forward_diffuse,
    train_denoiser,
    train_estimator,
    training_schedule,
)
from .metrics import energy_distance, eval_estimator_curve
from .models import Denoiser, Estimator, make_denoiser, make_estimator
from .nn import AdamState, DenseLayer, Network, adam_step, finite_diff_check, init_network
from .sampler import (
    SamplerConfig,
    SamplingRun,
    StepRecord,
    ddim_update,
    ddpm_update,
    initial_noise_schedule,
    sample_adaptive,
    sample_batch,
    sample_fixed,
)
from .schedule import (
    NoiseSchedule,
    ScheduleFamily,
    solve_fibonacci,
    solve_linear,
    update_noise_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "DatasetSpec", "DenseLayer", "Denoiser", "Estimator",
    "Network", "NoiseSchedule", "NoisyBatch", "SamplerConfig", "SamplingRun",
    "ScheduleFamily", "StepRecord", "TrainConfig", "adam_step", "ddim_update",
    "ddpm_update", "energy_distance", "estimator_loss", "eval_estimator_curve",
    "finite_diff_check", "forward_diffuse", "generate", "init_network",
    "initial_noise_schedule", "make_denoiser", "make_estimator",
    "sample_adaptive", "sample_batch", "sample_fixed", "solve_fibonacci",
    "solve_linear", "train_denoiser", "train_estimator", "training_schedule",
    "update_noise_schedule",
]
