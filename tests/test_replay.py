"""Replay checks: a run's recorded (feedback, outcome) sequence, fed
through a small posterior grid, reproduces the summaries the run
recorded at the default 2^17 grid.

A posterior after k probes is a trigonometric polynomial of degree k,
so any grid of k + 2 or more points gives its circular mean and Holevo
sigma exactly; the two grids differ only by rounding.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase import DEFAULT_GRID_SIZE, IDEAL, NoiseChannel, run_estimation, wrap_signed

from _oracles import replay_summaries

N = 30
PHASES = (1.0, 4.2)
# (sample channel, model channel): noisy samples under the ideal model,
# and two noise-aware models
CHANNELS = [
    ("ideal", "ideal"),
    ("depolarizing:0.25", "ideal"),
    ("phase:1", "ideal"),
    ("depolarizing:0.05", "depolarizing:0.05"),
    ("phase:1", "phase:1"),
]
MODEL_CHANNELS = [IDEAL, *(NoiseChannel.parse(s) for s in ("depolarizing:0.25", "phase:1"))]


def _assert_same_summaries(replayed, estimates, sigmas):
    """Every step with a sigma in the reference matches it and its mean."""
    checked = 0
    for (mu, sigma), want_mu, want_sigma in zip(replayed, estimates, sigmas):
        if math.isnan(want_sigma):
            continue
        tol = 1e-12 * max(1.0, want_sigma)
        assert abs(wrap_signed(mu - want_mu)) <= tol
        assert abs(sigma - want_sigma) <= tol
        checked += 1
    return checked


@pytest.fixture(scope="module")
def recorded():
    """go and pgh runs recorded at the default grid."""
    return [
        run_estimation(phi, N, strategy, NoiseChannel.parse(sample), NoiseChannel.parse(model),
                       DEFAULT_GRID_SIZE, seed=[24, i])
        for strategy in ("go", "pgh")
        for sample, model in CHANNELS
        for i, phi in enumerate(PHASES)
    ]


@pytest.mark.parametrize("grid_size", [N + 2, 128, 1024])
def test_small_grids_replay_the_default_grid_runs(recorded, grid_size):
    for record in recorded:
        replayed = replay_summaries(record, grid_size)
        checked = _assert_same_summaries(replayed, record.estimates, record.sigmas)
        assert checked >= N - 2  # at most a zero resultant or two are skipped


@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True), st.integers(0, 1)),
        min_size=1,
        max_size=12,
    ),
    model=st.sampled_from(MODEL_CHANNELS),
)
def test_a_grid_of_k_plus_2_points_equals_the_default_grid_under_replay(steps, model):
    feedbacks, outcomes = (np.array(column) for column in zip(*steps))
    record = SimpleNamespace(feedbacks=feedbacks, outcomes=outcomes, model_channel=model)
    reference = replay_summaries(record, DEFAULT_GRID_SIZE)
    mus, sigmas = (np.array(column) for column in zip(*reference))
    _assert_same_summaries(replay_summaries(record, len(steps) + 2), mus, sigmas)
