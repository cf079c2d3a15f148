"""Bit-identity goldens for estimation runs.

``golden_runs.json`` maps ``strategy|channel|phi_true|seed`` to the first
16 hex digits of the SHA-256 of the run record's JSON form (floats in
repr, so equal digests mean equal bits). The values were recorded with
the noise model written per channel kind, before it was expressed
through the fringe visibility; a refactor of the likelihood, the
posterior loop or the sampling must reproduce every one of them.

Each run uses the same channel for sampling and as the updater's model,
30 probes and a 1024-point grid. ``pgh|ideal|1.0|1111`` hits a zero
resultant: at step 2 pgh picks the antipode of the first feedback with
the same outcome, which cancels the posterior resultant, so that step
repeats the step-1 estimate with a null sigma. It raised
``UndefinedMeanError`` before zero resultants were handled; every other
digest predates that.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mzphase import NoiseChannel, Policy, run_estimation

GOLDEN = json.loads((Path(__file__).parent / "golden_runs.json").read_text())
POLICY = Policy(0.3 + 0.6 * np.cos(np.arange(30)))


def _digest(record):
    blob = json.dumps(record.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_record_matches_golden(case):
    strategy, spec, phi, seed = case.split("|")
    channel = NoiseChannel.parse(spec)
    run = dict(
        phi_true=float(phi),
        n=30,
        strategy=POLICY if strategy == "policy" else strategy,
        sample_channel=channel,
        model_channel=channel,
        grid_size=1024,
        seed=int(seed),
    )
    assert _digest(run_estimation(**run)) == GOLDEN[case]


# go, pgh and bayes-fixed at the default 2**17 grid (phi_true 1.0, seed 0),
# where the PGH cumulative sum spans several blocks; recorded before the
# posterior step kept its resultant and wrote its likelihood in place
GOLDEN_DEFAULT_GRID = {
    "go|ideal": "0b4b9ffce75350fc",
    "go|depolarizing:0.1": "2c345a54950bf39f",
    "go|phase:0.3": "1c005e3da404b9a0",
    "pgh|ideal": "6b1c3835131ddd99",
    "pgh|depolarizing:0.1": "437448c2d39cb63f",
    "pgh|phase:0.3": "37fbc7e31c993afb",
    "bayes-fixed|ideal": "d2830827026e58c8",
    "bayes-fixed|depolarizing:0.1": "c70f7537f2da44a6",
    "bayes-fixed|phase:0.3": "3604f0f79dc6929c",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DEFAULT_GRID))
def test_default_grid_run_matches_golden(case):
    strategy, spec = case.split("|")
    channel = NoiseChannel.parse(spec)
    record = run_estimation(1.0, 30, strategy, sample_channel=channel, model_channel=channel, seed=0)
    assert _digest(record) == GOLDEN_DEFAULT_GRID[case]


def test_golden_covers_every_strategy_and_channel():
    cases = [case.split("|") for case in GOLDEN]
    assert {c[0] for c in cases} == {"go", "pgh", "bayes-fixed", "inversion", "policy"}
    assert {c[1] for c in cases} == {"ideal", "depolarizing:0.1", "phase:0.3"}
