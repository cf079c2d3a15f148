"""Adaptive single-photon phase estimation in a two-mode interferometer.

Simulation library and benchmark suite: discretized Bayesian posterior
engine, online feedback rules (Gaussian closed-form rule and particle
guess heuristic), swarm-trained offline policies, non-adaptive
baselines, noise channels with their Cramer-Rao reference bounds, and a
reproducible Monte Carlo experiment harness.
"""

from .circular import TWO_PI, wrap_phase, wrap_signed
from .harness import (
    BatchStats,
    PhaseBatch,
    RunRecord,
    batch_stats_at_step,
    phase_average,
    reference_curves,
    run_batch,
    run_estimation,
    sigma_vs_probes,
    sweep_phases,
)
from .heuristics import (
    SIGMA_VALID_MAX,
    Heuristic,
    feedback_offset,
    go_feedback,
    next_feedback,
    offset_coefficient,
    pgh_feedback,
)
from .interferometer import (
    IDEAL,
    NoiseChannel,
    fisher_information,
    noisy_likelihood,
    precision_bound,
    sample_outcome,
    sample_outcomes,
)
from .nonadaptive import inversion_estimate
from .posterior import (
    DEFAULT_GRID_SIZE,
    DegeneratePosteriorError,
    GaussianSummary,
    InfiniteVarianceError,
    PosteriorGrid,
    UndefinedMeanError,
)
from .pso import (
    Policy,
    PsoConfig,
    apply_policy_step,
    estimate_sharpness,
    pso_step,
    train_policy,
)
from .rng import make_generator

__version__ = "0.1.0"
