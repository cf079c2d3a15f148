"""Bit-identity goldens for estimation runs and policy training.

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

from mzphase import (
    Heuristic,
    NoiseChannel,
    Policy,
    PsoConfig,
    harness,
    run_batch,
    run_estimation,
    train_policy,
)

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


def _one_by_one_generators(monkeypatch):
    """Keep every run generator the harness makes, and have adaptive runs
    draw from it one by one. A run leaves the rest of its Draws unread, so
    only one-by-one draws leave the generator in the state the values
    were recorded at."""
    made = []

    def make_generator(entropy, original=harness.make_generator):
        made.append(original(entropy))
        return made[-1]

    monkeypatch.setattr(harness, "make_generator", make_generator)
    monkeypatch.setattr(harness, "Draws", lambda rng, count: rng)
    return made


# the run generator's final PCG64 state after 30 probes at grid 1024
# (phi_true 1.0, seed [7, 0, 2], the channel also the updater's model),
# recorded while each strategy family still had its own run loop. Every
# double drawn advances the state by one step, so the state pins the
# number of draws a run makes.
GOLDEN_STREAM = {
    "go|ideal": "1e73c5e20846c5aad776b9a3e721d718",
    "go|depolarizing:0.1": "87cbb5b8829cd053e09ff1d7124e4fb6",
    "go|phase:0.3": "14405dd502360d736240342b0939af04",
    "pgh|ideal": "bcf56dc91f9ae198ba2564abbede91a7",
    "pgh|depolarizing:0.1": "32d0e8275c6116def96ccaa5440e779d",
    "pgh|phase:0.3": "05ac7a02507de61084f0010434407203",
    "policy|ideal": "d065ffa8d9d46857724b84818471faa1",
    "policy|depolarizing:0.1": "bcf56dc91f9ae198ba2564abbede91a7",
    "policy|phase:0.3": "32d0e8275c6116def96ccaa5440e779d",
    "inversion|ideal": "d065ffa8d9d46857724b84818471faa1",
    "inversion|depolarizing:0.1": "bcf56dc91f9ae198ba2564abbede91a7",
    "inversion|phase:0.3": "32d0e8275c6116def96ccaa5440e779d",
    "bayes-fixed|ideal": "d065ffa8d9d46857724b84818471faa1",
    "bayes-fixed|depolarizing:0.1": "bcf56dc91f9ae198ba2564abbede91a7",
    "bayes-fixed|phase:0.3": "32d0e8275c6116def96ccaa5440e779d",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STREAM))
def test_run_leaves_its_generator_in_the_golden_state(case, monkeypatch):
    made = _one_by_one_generators(monkeypatch)
    strategy, spec = case.split("|")
    channel = NoiseChannel.parse(spec)
    run_estimation(1.0, 30, POLICY if strategy == "policy" else strategy,
                   sample_channel=channel, model_channel=channel, grid_size=1024, seed=[7, 0, 2])
    [rng] = made
    state = rng.bit_generator.state
    assert state["state"]["state"] == int(GOLDEN_STREAM[case], 16)
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)


# final PCG64 states of runs whose draw count depends on the data, taken
# the same way as GOLDEN_STREAM: go falling back to pgh while sigma is
# wide, go flipping a coin for its sign, and run 15 of a pgh batch of 37
# (base seed 40, 2 probes), which hits a zero resultant at step 2
GOLDEN_STREAM_DATA_DEPENDENT = {
    "go-pgh-fallback|ideal": "89f54abb309420cf388c7298614a424a",
    "go-pgh-fallback|depolarizing:0.1": "305f9431a1c551d7b0b2a5f6971d64c5",
    "go-pgh-fallback|phase:0.3": "66a9ca2ebf56dfb597c01a34b665d258",
    "go-random-sign|ideal": "bcf56dc91f9ae198ba2564abbede91a7",
    "go-random-sign|depolarizing:0.1": "32d0e8275c6116def96ccaa5440e779d",
    "go-random-sign|phase:0.3": "05ac7a02507de61084f0010434407203",
    "pgh-zero-resultant": "aa1c5a2266c7880a5ae987fdd3cf01c0",
}
DATA_DEPENDENT_HEURISTICS = {
    "go-pgh-fallback": Heuristic("go", go_fallback="pgh"),
    "go-random-sign": Heuristic("go", sign_convention="random"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STREAM_DATA_DEPENDENT))
def test_data_dependent_draws_leave_the_golden_state(case, monkeypatch):
    made = _one_by_one_generators(monkeypatch)
    if case == "pgh-zero-resultant":
        run_batch(1.0, 2, "pgh", 37, grid_size=1024, base_seed=40)
        rng = made[15]
    else:
        name, spec = case.split("|")
        channel = NoiseChannel.parse(spec)
        run_estimation(1.0, 30, DATA_DEPENDENT_HEURISTICS[name], sample_channel=channel,
                       model_channel=channel, grid_size=1024, seed=[7, 0, 2])
        [rng] = made
    state = rng.bit_generator.state
    assert state["state"]["state"] == int(GOLDEN_STREAM_DATA_DEPENDENT[case], 16)
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)


def test_golden_covers_every_strategy_and_channel():
    cases = [case.split("|") for case in GOLDEN]
    assert {c[0] for c in cases} == {"go", "pgh", "bayes-fixed", "inversion", "policy"}
    assert {c[1] for c in cases} == {"ideal", "depolarizing:0.1", "phase:0.3"}


# Trained policies as float.hex, recorded while the swarm was a list of
# particle objects updated one at a time; the array update must keep
# every bit. Seed 1 trains a swarm of 8 with radius 2, seed 4 a swarm of
# 6 with radius 5, clipped to 3, so both ring ends reach the same
# neighbour.
GOLDEN_TRAINING_HEX = {
    "ideal|1": (
        [
            "-0x1.0b8d987b3eb0cp-1", "-0x1.8227c5e2a0a1cp-1", "0x1.87aa0ad2973b8p+0",
            "0x1.b1bac26eb3a88p-1", "0x1.894c90630db3cp-1", "0x1.7ba539fb8bf48p-2",
        ],
        "0x1.acade0d9260b7p-1",
    ),
    "ideal|4": (
        [
            "0x1.87764f9a917c0p-1", "-0x1.55f4cbad6e998p-2", "0x1.9e190d014a7b3p+0",
            "0x1.2c22760a9ea00p-2", "0x1.c8725a92a3138p-2", "0x1.1337d8e411440p-2",
        ],
        "0x1.b50b00532844ap-1",
    ),
    "depolarizing:0.2|1": (
        [
            "-0x1.c3334bf0b3920p-2", "0x1.83d75f0637b20p-1", "-0x1.434454141c3e8p-1",
            "-0x1.ddb135f840990p-3", "-0x1.2771af0eeae3cp+0", "-0x1.f18d982705178p-2",
        ],
        "0x1.41599dd082c11p-1",
    ),
    "depolarizing:0.2|4": (
        [
            "0x1.0632acb28b128p-2", "0x1.3affc2bc95bd0p-1", "0x1.310cca2925cd4p+0",
            "0x1.0c3a136e17b88p-2", "0x1.83bec0555e610p-1", "0x1.65fbb96cc70c0p-2",
        ],
        "0x1.7fc68eefb4084p-1",
    ),
    "phase:0.5|1": (
        [
            "0x1.02ed6e795acc0p-3", "-0x1.7750b53505488p-2", "0x1.faf7778fa1598p-1",
            "0x1.aa70a3451fd30p-1", "-0x1.590ffd0c462c0p-5", "0x1.9bd24c621cdacp-1",
        ],
        "0x1.6f7594911df53p-1",
    ),
    "phase:0.5|4": (
        [
            "-0x1.d60c3d3cbca00p-6", "0x1.45f2446ed6100p-2", "0x1.3117df9cde45cp+0",
            "0x1.5ffb8a6e90210p-2", "0x1.902c0096e3e50p-1", "0x1.8eaee6adf4c90p-2",
        ],
        "0x1.9c36edf1cb9c1p-1",
    ),
}
TRAINING_SHAPES = {
    1: dict(swarm_size=8, neighborhood_radius=2),
    4: dict(swarm_size=6, neighborhood_radius=5),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRAINING_HEX))
def test_train_policy_matches_golden_training_bits(case):
    spec, seed = case.split("|")
    config = PsoConfig(
        iterations=30, fitness_samples=200, seed=int(seed), **TRAINING_SHAPES[int(seed)]
    )
    policy = train_policy(6, channel=NoiseChannel.parse(spec), config=config)
    deltas, sharpness = GOLDEN_TRAINING_HEX[case]
    assert [float(d).hex() for d in policy.deltas] == deltas
    assert type(policy.sharpness) is float
    assert policy.sharpness.hex() == sharpness


# Trainings at the benchmark's shape: the default swarm of 40 with 1000
# fitness samples, so one evaluation spans several fitness row blocks.
# Recorded before the fitness was scored in blocks. In 3 iterations the
# noisy channels keep the same best particle, an initial position, but
# score it differently.
GOLDEN_TRAINING_DEFAULT_SHAPE_HEX = {
    "ideal": (
        [
            "0x1.303d8f79e5900p-5", "0x1.6a48ce770b50cp+0", "-0x1.1e2f0ed25d9e8p+0",
            "0x1.68d3468255f64p+0", "-0x1.2eab1281a7c5cp-1", "-0x1.ed50f4579efc0p-3",
            "0x1.078dd71e49f46p+0", "-0x1.241b05524bd90p-2", "0x1.3f15bacd6e590p-3",
            "-0x1.7bf5a22a2b4a0p+0", "0x1.97c6515be1274p-1", "0x1.ead3a6b717000p-4",
            "-0x1.11e031a252f10p-1", "0x1.cfefae54da0a4p-1", "-0x1.3c8f6a89a01dcp-1",
            "-0x1.2b3198549e8e0p-3", "-0x1.2652359953af0p+0", "-0x1.37af447bca290p-2",
            "-0x1.dcfdab25452e8p-1", "-0x1.7e5162668f5e0p-1",
        ],
        "0x1.9b33295f0a322p-1",
    ),
    "depolarizing:0.2": (
        [
            "0x1.1460a0e370c20p-1", "-0x1.adcec019bed60p-2", "-0x1.274003d46ae48p+0",
            "0x1.294c10e7c9e1fp+0", "-0x1.47268aba90f08p+0", "-0x1.74b915f561c08p-1",
            "0x1.53e6826eb0732p+0", "-0x1.f335270caed60p-1", "0x1.b7bb23ba01550p-1",
            "0x1.ce38fe7808980p-2", "0x1.716085ab1b6b0p-1", "0x1.5af12ae5d1fc0p-3",
            "-0x1.2c03238c3f5b0p-2", "0x1.2898fa6085d68p-1", "-0x1.3f623b9445bf8p+0",
            "-0x1.14a22edf23788p-2", "-0x1.1d8378b81cb74p-1", "-0x1.3f8341458e3c8p-2",
            "-0x1.e56da0672fc60p-1", "-0x1.437768a2fc614p-1",
        ],
        "0x1.5f15060d9b80ep-1",
    ),
    "phase:0.5": (
        [
            "0x1.1460a0e370c20p-1", "-0x1.adcec019bed60p-2", "-0x1.274003d46ae48p+0",
            "0x1.294c10e7c9e1fp+0", "-0x1.47268aba90f08p+0", "-0x1.74b915f561c08p-1",
            "0x1.53e6826eb0732p+0", "-0x1.f335270caed60p-1", "0x1.b7bb23ba01550p-1",
            "0x1.ce38fe7808980p-2", "0x1.716085ab1b6b0p-1", "0x1.5af12ae5d1fc0p-3",
            "-0x1.2c03238c3f5b0p-2", "0x1.2898fa6085d68p-1", "-0x1.3f623b9445bf8p+0",
            "-0x1.14a22edf23788p-2", "-0x1.1d8378b81cb74p-1", "-0x1.3f8341458e3c8p-2",
            "-0x1.e56da0672fc60p-1", "-0x1.437768a2fc614p-1",
        ],
        "0x1.7df1fe537aabfp-1",
    ),
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_TRAINING_DEFAULT_SHAPE_HEX))
def test_default_shape_training_matches_golden_bits(spec):
    policy = train_policy(20, NoiseChannel.parse(spec), PsoConfig(seed=1, iterations=3))
    deltas, sharpness = GOLDEN_TRAINING_DEFAULT_SHAPE_HEX[spec]
    assert [float(d).hex() for d in policy.deltas] == deltas
    assert policy.sharpness.hex() == sharpness
