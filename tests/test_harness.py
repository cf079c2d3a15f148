import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase import (
    IDEAL,
    BatchStats,
    Heuristic,
    NoiseChannel,
    Policy,
    PosteriorGrid,
    PsoConfig,
    batch_stats_at_step,
    inversion_estimate,
    phase_average,
    reference_curves,
    run_batch,
    run_estimation,
    sigma_vs_probes,
    sweep_phases,
    train_policy,
    wrap_signed,
)
from mzphase import harness, posterior
from mzphase.harness import STRATEGIES, write_batch_csv
from mzphase.rng import Draws

GRID = 1024


def test_run_estimation_record_shape_and_final():
    record = run_estimation(2.0, 15, "go", grid_size=GRID, seed=[1])
    assert record.n == 15
    assert record.strategy == "go"
    assert record.final_estimate == record.estimates[-1]
    assert record.outcomes.shape == (15,)
    assert np.all((record.feedbacks >= 0) & (record.feedbacks < 2 * math.pi))
    assert not np.isnan(record.sigmas).any()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_true_phase_is_rejected(phi):
    with pytest.raises(ValueError, match="finite"):
        run_estimation(phi, 5, "go", grid_size=64)
    with pytest.raises(ValueError, match="finite"):
        sweep_phases("inversion", 5, [0.5, phi], 4)


def test_run_estimation_is_deterministic_and_serializable(tmp_path):
    a = run_estimation(2.0, 10, "pgh", grid_size=GRID, seed=[3, 0, 1])
    b = run_estimation(2.0, 10, "pgh", grid_size=GRID, seed=[3, 0, 1])
    assert a.to_dict() == b.to_dict()
    path = tmp_path / "run.json"
    a.write_json(path)
    b.write_json(tmp_path / "run2.json")
    assert path.read_bytes() == (tmp_path / "run2.json").read_bytes()
    assert json.loads(path.read_text()) == a.to_dict()


@pytest.mark.parametrize("grid_size", [1024, 2 ** 17])
def test_go_takes_one_resultant_per_probe_step(grid_size, monkeypatch):
    calls = []
    summarise = PosteriorGrid._summarise
    monkeypatch.setattr(PosteriorGrid, "_summarise", lambda self: calls.append(1) or summarise(self))
    seen = []
    run_estimation(1.0, 10, "go", grid_size=grid_size, seed=3,
                   snapshot=lambda k, grid: seen.append(len(calls)))
    # one for the flat prior at construction; then one per update, which
    # the step-k summary and the step-k+1 rule share
    assert seen == list(range(2, 12))
    assert len(calls) == 11


def _count_likelihood_calls(monkeypatch):
    calls = []
    likelihood = posterior.noisy_likelihood
    monkeypatch.setattr(
        posterior, "noisy_likelihood", lambda *a, **k: calls.append(1) or likelihood(*a, **k)
    )
    return calls


def test_bayes_fixed_evaluates_the_likelihood_once_per_run(monkeypatch):
    calls = _count_likelihood_calls(monkeypatch)
    record = run_estimation(1.0, 30, "bayes-fixed", grid_size=GRID, seed=6)
    assert set(record.outcomes[1:]) == {0, 1}
    # Phi = 0 at every probe: the noiseless p(0) is evaluated once and kept,
    # and each outcome's law is built from it
    assert len(calls) == 1


def test_go_evaluates_the_likelihood_every_probe(monkeypatch):
    calls = _count_likelihood_calls(monkeypatch)
    run_estimation(1.0, 30, "go", grid_size=GRID, seed=6)
    assert len(calls) == 30


def test_single_probe_posterior_matches_single_likelihood():
    record = run_estimation(1.0, 1, "go", grid_size=GRID, seed=[4])
    # one update from flat prior: sharpness 1/2, sigma sqrt(3)
    assert record.sigmas[0] == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_policy_all_zeros_run_is_deterministic():
    record = run_estimation(0.0, 8, Policy(np.zeros(8)), seed=[5])
    assert np.all(record.feedbacks == 0.0)
    assert np.all(record.outcomes == 0)
    assert np.all(record.estimates == 0.0)
    assert np.isnan(record.sigmas).all()


def test_policy_shorter_than_run_rejected():
    with pytest.raises(ValueError):
        run_estimation(0.0, 9, Policy(np.zeros(8)), seed=[6])


def test_run_estimation_rejects_zero_probes():
    with pytest.raises(ValueError):
        run_estimation(0.0, 0, "go", seed=[7])


def test_model_channel_defaults_to_ideal_under_noise():
    noisy = NoiseChannel.depolarizing(0.3)
    a = run_estimation(1.5, 12, "go", sample_channel=noisy, grid_size=GRID, seed=[8])
    assert a.model_channel == IDEAL
    assert a.sample_channel == noisy


def test_batch_stats_all_exact():
    stats = BatchStats.from_estimates(np.full(10, 1.25), 1.25)
    assert stats.sigma_est == 0.0
    assert stats.quad_loss == 0.0
    assert stats.circ_mean == pytest.approx(1.25)
    assert stats.err_mean == 0.0


def test_batch_stats_two_point_errors_match_tangent():
    # errors +-a in equal halves: sigma_est -> tan(a)
    a = 0.1
    estimates = np.concatenate([np.full(5000, 1.0 + a), np.full(5000, 1.0 - a)])
    stats = BatchStats.from_estimates(estimates, 1.0)
    assert stats.sigma_est == pytest.approx(math.tan(a), abs=1e-12)
    assert stats.quad_loss == pytest.approx(a * a)
    assert stats.err_mean == pytest.approx(stats.sigma_est / math.sqrt(10000))
    assert stats.err_sigma == pytest.approx(stats.sigma_est / math.sqrt(2 * 9999))


def test_batch_stats_wraps_errors():
    # estimates across the 0/2pi seam must not blow up the loss
    estimates = np.array([0.05, 2 * math.pi - 0.05])
    stats = BatchStats.from_estimates(estimates, 0.0)
    assert stats.quad_loss == pytest.approx(0.05 ** 2)
    assert stats.sigma_est < 0.06


def test_batch_stats_requires_two_runs():
    with pytest.raises(ValueError):
        BatchStats.from_estimates([1.0], 1.0)


def test_run_batch_reproducible_and_unbiased():
    stats, records = run_batch(2.6819, 20, "go", m=40, grid_size=GRID, base_seed=9)
    stats2, _ = run_batch(2.6819, 20, "go", m=40, grid_size=GRID, base_seed=9)
    assert stats == stats2
    assert len(records) == 40
    assert all(r.seed == (9, 0, i) for i, r in enumerate(records))
    # unbiasedness within generous error bars
    offset = wrap_signed(stats.circ_mean - 2.6819)
    assert abs(offset) < 5 * stats.err_mean + 0.05


def test_run_batch_worker_pool_matches_serial():
    # the pool maps contiguous row blocks: 2 of 4 runs here
    for strategy in ("pgh", "go", "bayes-fixed"):
        serial, serial_records = run_batch(1.0, 8, strategy, m=8, grid_size=256, base_seed=10,
                                           workers=1)
        pooled, pooled_records = run_batch(1.0, 8, strategy, m=8, grid_size=256, base_seed=10,
                                           workers=2)
        assert serial == pooled, strategy
        assert [r.to_dict() for r in serial_records] == [r.to_dict() for r in pooled_records]


@pytest.mark.parametrize("cpus, m, want", [
    (64, 2, [2]),  # 2 blocks
    (3, 40, [3]),  # 3 CPUs
    (1, 40, []),  # no pool
    (None, 40, []),  # the CPU count is unknown
])
def test_a_pool_asks_for_no_more_workers_than_blocks_or_cpus(cpus, m, want, monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:  # maps in this process, keeping the max_workers asked for
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    _, records = run_batch(1.0, 3, "go", m, grid_size=64, workers=1000)
    assert asked == want
    for record, serial in zip(records, run_batch(1.0, 3, "go", m, grid_size=64)[1], strict=True):
        _same_bits(record, serial)


def _record_generators(monkeypatch):
    """Keep every run generator the harness makes, in the order made."""
    made = []

    def make_generator(entropy, original=harness.make_generator):
        made.append(original(entropy))
        return made[-1]

    monkeypatch.setattr(harness, "make_generator", make_generator)
    return made


def _same_bits(a, b):
    assert a.seed == b.seed
    for name in ("feedbacks", "outcomes", "estimates", "sigmas"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (a.seed, name)


_ROW_STRATEGIES = {
    "go": "go",
    "pgh": "pgh",
    "policy": Policy(0.3 + 0.6 * np.cos(np.arange(12))),
    "inversion": "inversion",
    "bayes-fixed": "bayes-fixed",
    # heuristics whose number of draws per step depends on the posterior
    "go-pgh-fallback": Heuristic(go_fallback="pgh"),
    "go-random-sign": Heuristic(sign_convention="random"),
}


@pytest.mark.parametrize("model_is_sample", [False, True])
@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.1", "phase:0.3"])
@pytest.mark.parametrize("name", sorted(_ROW_STRATEGIES))
@pytest.mark.parametrize("grid_size", [64, 1024])
def test_batch_rows_equal_lone_runs(grid_size, name, spec, model_is_sample, monkeypatch):
    # 37 runs: one partial block at G=64 (512 rows a block), 32 + 5 at G=1024
    channel = NoiseChannel.parse(spec)
    model = channel if model_is_sample else None
    strategy = _ROW_STRATEGIES[name]
    made = _record_generators(monkeypatch)
    _, records = run_batch(2.2, 12, strategy, 37, sample_channel=channel, model_channel=model,
                           grid_size=grid_size, base_seed=4, phase_index=3)
    batch_states = [g.bit_generator.state for g in made]
    made.clear()
    for i, record in enumerate(records):
        alone = run_estimation(2.2, 12, strategy, channel, model, grid_size, seed=[4, 3, i])
        _same_bits(record, alone)
        assert made[-1].bit_generator.state == batch_states[i]
    assert len(made) == len(records) == 37


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32),
    m=st.integers(2, 20),
    rows=st.integers(1, 20),
    strategy=st.sampled_from(STRATEGIES),
)
def test_block_size_moves_no_bit(seed, m, rows, strategy):
    if strategy == "policy":
        strategy = Policy(0.3 + 0.6 * np.cos(np.arange(6)))
    kept = harness._BLOCK_POINTS
    harness._BLOCK_POINTS = rows * 64  # blocks of `rows` runs
    try:
        _, records = run_batch(0.7, 6, strategy, m, sample_channel=NoiseChannel.phase(0.4),
                               grid_size=64, base_seed=seed, phase_index=1)
    finally:
        harness._BLOCK_POINTS = kept
    for i, record in enumerate(records):
        _same_bits(record, run_estimation(0.7, 6, strategy, NoiseChannel.phase(0.4), None, 64,
                                          seed=[seed, 1, i]))


@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.1", "phase:0.3"])
@pytest.mark.parametrize("name", sorted(_ROW_STRATEGIES))
def test_draw_block_size_moves_no_bit(name, spec, monkeypatch):
    # the generator itself draws one by one; a Draws of 5 times the count
    # leaves more unread
    channel = NoiseChannel.parse(spec)

    def batch():
        return run_batch(2.2, 12, _ROW_STRATEGIES[name], 9, sample_channel=channel,
                         grid_size=64, base_seed=6, phase_index=2)[1]

    expected = batch()
    for wrap in (lambda rng, count: rng, lambda rng, count: Draws(rng, 5 * count)):
        sizes = []

        def draws(rng, count, wrap=wrap):
            sizes.append(count)
            return wrap(rng, count)

        monkeypatch.setattr(harness, "Draws", draws)
        records = batch()
        # fixed-feedback runs draw straight from their generators; an
        # adaptive run draws 1 per probe for its feedback (a policy none)
        # and the channel's draws for its click
        per_probe = (name != "policy") + channel.draws
        assert sizes == ([] if name in ("inversion", "bayes-fixed") else [12 * per_probe] * 9)
        for record, want in zip(records, expected):
            _same_bits(record, want)


class _CountingDraws:
    """A run generator that counts the uniforms drawn since its last click."""

    def __init__(self, rng):
        self._random, self.since_click = rng.random, 0

    def random(self):
        self.since_click += 1
        return self._random()


_BOUND_STRATEGIES = {
    "go": Heuristic(),
    "go-pgh-fallback": Heuristic(go_fallback="pgh"),
    "go-random-sign": Heuristic(sign_convention="random"),
    "go-pgh-fallback-random-sign": Heuristic(go_fallback="pgh", sign_convention="random"),
    "pgh": "pgh",
    "policy": Policy(0.3 + 0.6 * np.cos(np.arange(30))),
}


@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.1", "phase:0.3"])
@pytest.mark.parametrize("name", sorted(_BOUND_STRATEGIES))
def test_a_probe_draws_at_most_four_uniforms(name, spec, monkeypatch):
    # _run_rows draws an adaptive run's uniforms at once: per probe 1 for
    # its feedback (a policy none) and the channel's draws for its click
    n, channel = 30, NoiseChannel.parse(spec)
    bound = (name != "policy") + channel.draws
    per_probe = []

    def draws(rng, count):
        assert count == bound * n
        return _CountingDraws(rng)

    def sample_outcome(channel, phi, feedback, rng, original=harness.sample_outcome):
        x = original(channel, phi, feedback, rng)
        per_probe.append(rng.since_click)
        rng.since_click = 0
        return x

    monkeypatch.setattr(harness, "Draws", draws)
    monkeypatch.setattr(harness, "sample_outcome", sample_outcome)
    # run 15 of this batch hits a zero resultant at step 2 on the ideal channel
    _, records = run_batch(1.0, n, _BOUND_STRATEGIES[name], 37, sample_channel=channel,
                           grid_size=1024, base_seed=40)
    if (name, spec) == ("pgh", "ideal"):
        assert math.isnan(records[15].sigmas[1])
    assert len(per_probe) == 37 * n
    assert max(per_probe) <= bound
    if "random-sign" in name and spec.startswith("phase"):  # the bound is tight
        assert set(per_probe) == {4}


def test_inversion_table_holds_every_estimate():
    table = harness._inversion_table(60)
    for k in range(1, 61):
        assert table[k - 1, :k + 1].tolist() == [
            inversion_estimate(n0, k) for n0 in range(k + 1)
        ]


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("spec", ["ideal", "depolarizing:0.1", "phase:0.3"])
def test_inversion_estimates_follow_the_zero_counts(spec, extra):
    # read from the table up to its length, evaluated one by one past it
    n = harness._INVERSION_TABLE_STEPS + extra
    _, records = run_batch(1.2, n, "inversion", 5, sample_channel=NoiseChannel.parse(spec))
    for record in records:
        zeros = np.cumsum(record.outcomes == 0).tolist()
        assert record.estimates.tolist() == [
            inversion_estimate(n0, k) for k, n0 in enumerate(zeros, 1)
        ]


def test_zero_resultant_row_leaves_its_block_neighbours_alone():
    # found by search: run 15 of this batch redraws an antipode at step 2
    _, records = run_batch(1.0, 2, "pgh", 37, grid_size=1024, base_seed=40, phase_index=0)
    hit = [i for i, r in enumerate(records) if np.isnan(r.sigmas).any()]
    assert hit == [15]
    record = records[15]
    assert np.isnan(record.sigmas[1]) and not np.isnan(record.sigmas[0])
    assert record.estimates[1] == record.estimates[0]
    for i, record in enumerate(records):
        _same_bits(record, run_estimation(1.0, 2, "pgh", grid_size=1024, seed=[40, 0, i]))


@pytest.mark.parametrize("model", [NoiseChannel.depolarizing(1.0), NoiseChannel.phase(1e200)])
def test_a_model_channel_without_a_fringe_leaves_the_posterior_flat(model):
    # v = 0: every likelihood is flat, so a full-circle posterior keeps a
    # zero resultant and no estimate past step 1's feedback
    assert model.visibility == 0.0
    n = 20
    phis = PosteriorGrid.uniform(64).phis
    for name in ("go", "pgh"):
        record = run_estimation(1.0, n, name, model_channel=model, grid_size=64, seed=[5])
        assert np.isnan(record.sigmas).all()
        assert (record.estimates == record.feedbacks[0]).all()
        assert ((record.feedbacks >= 0.0) & (record.feedbacks < 2 * math.pi)).all()
        if name == "go":  # a uniform phase at every step
            assert len(set(record.feedbacks.tolist())) == n
        else:  # a grid point at every step
            assert np.isin(record.feedbacks, phis).all()
            assert len(set(record.feedbacks.tolist())) > 1
    # on [0, pi] the flat posterior's mean is pi/2
    record = run_estimation(1.0, n, "bayes-fixed", model_channel=model, grid_size=64, seed=[5])
    assert np.abs(record.estimates - math.pi / 2).max() < 1e-12
    assert np.isfinite(record.sigmas).all()


@pytest.mark.parametrize("strategy", ["go", "inversion", "bayes-fixed"])
@pytest.mark.parametrize("grid_size", [0, 1, -4])
def test_run_batch_rejects_a_grid_of_fewer_than_two_points(strategy, grid_size):
    with pytest.raises(ValueError, match=f"grid size must be >= 2, got {grid_size}"):
        run_batch(1.0, 4, strategy, 4, grid_size=grid_size)


def test_sweep_single_phase_matches_run_batch():
    stats, _ = run_batch(1.3, 10, "go", m=10, grid_size=GRID, base_seed=11)
    sweep = sweep_phases("go", 10, [1.3], 10, grid_size=GRID, base_seed=11)
    assert len(sweep) == 1
    assert sweep[0].stats == stats


def test_sweep_phase_count_grid():
    sweep = sweep_phases("pgh", 5, 4, 4, grid_size=256, base_seed=12)
    phases = [b.phi_true for b in sweep]
    expected = [(j + 0.5) * 2 * math.pi / 4 for j in range(4)]
    assert phases == pytest.approx(expected)
    numpy_count = sweep_phases("pgh", 5, np.int64(4), 4, grid_size=256, base_seed=12)
    assert [b.stats for b in numpy_count] == [b.stats for b in sweep]
    assert [b.phi_true for b in numpy_count] == phases


@pytest.mark.parametrize("count", [2.5, np.float64(2.0), True, False, 0, -1, "3"])
def test_sweep_phase_count_must_be_an_integer_of_at_least_one(count):
    with pytest.raises(ValueError, match="phase count"):
        sweep_phases("go", 4, count, 2, grid_size=64)


def test_batch_stats_at_step_and_sigma_vs_probes():
    sweep = sweep_phases("go", 20, [0.9, 3.5], 25, grid_size=GRID, base_seed=13)
    rows = sigma_vs_probes(sweep, [5, 20])
    assert [row["n"] for row in rows] == [5, 20]
    assert rows[1]["sigma_est"] < rows[0]["sigma_est"]
    by_hand = np.mean(
        [batch_stats_at_step(batch.records, 20).sigma_est for batch in sweep]
    )
    assert rows[1]["sigma_est"] == pytest.approx(by_hand)


@pytest.mark.parametrize("k", [0, -1, 7])
def test_steps_outside_the_run_are_rejected(k):
    sweep = sweep_phases("inversion", 6, [0.9], 3, base_seed=13)
    with pytest.raises(ValueError, match="probe step"):
        batch_stats_at_step(sweep[0].records, k)
    with pytest.raises(ValueError, match="probe step"):
        sigma_vs_probes(sweep, [3, k])


def test_empty_phase_average_and_zero_probe_reference_are_rejected():
    with pytest.raises(ValueError, match="no phases"):
        phase_average([])
    with pytest.raises(ValueError, match="probe count"):
        reference_curves(IDEAL, [0])


def test_sigma_vs_probes_at_n_is_the_phase_average_of_the_sweep():
    sweep = sweep_phases("go", 12, 9, 5, grid_size=256, base_seed=17)
    average = phase_average([b.stats for b in sweep])
    assert sigma_vs_probes(sweep, [12]) == [{"n": 12, **average}]
    assert average["err_sigma"] > 0.0


def test_holevo_sigma_squared_tracks_quadratic_loss_when_narrow():
    stats, _ = run_batch(2.0, 40, "go", m=60, grid_size=GRID, base_seed=14)
    assert stats.sigma_est < 0.3
    assert stats.sigma_est ** 2 == pytest.approx(stats.quad_loss, rel=0.10)


def test_strategies_improve_with_more_probes():
    policy = train_policy(
        40, config=PsoConfig(swarm_size=12, iterations=60, fitness_samples=200, seed=3)
    )
    for strategy in ("go", "pgh", "inversion", "bayes-fixed", policy):
        label = strategy if isinstance(strategy, str) else "policy"
        phases = 6 if label not in ("inversion", "bayes-fixed") else [0.4, 1.0, 2.2]
        short = sweep_phases(strategy, 10, phases, 20, grid_size=GRID, base_seed=15)
        long = sweep_phases(strategy, 40, phases, 20, grid_size=GRID, base_seed=16)
        loss_short = np.mean([b.stats.quad_loss for b in short])
        loss_long = np.mean([b.stats.quad_loss for b in long])
        assert loss_long < loss_short, label


def test_sigma_est_roughly_phase_independent():
    sweep = sweep_phases("go", 60, 10, 40, grid_size=GRID, base_seed=17)
    sigmas = [b.stats.sigma_est for b in sweep]
    assert max(sigmas) / min(sigmas) <= 2.0


def test_inversion_loss_dips_at_half_pi_under_depolarizing():
    channel = NoiseChannel.depolarizing(0.25)
    phases = [0.3, math.pi / 2, math.pi - 0.3]
    sweep = sweep_phases(
        "inversion", 40, phases, 60, sample_channel=channel, base_seed=18
    )
    losses = {round(b.phi_true, 3): b.stats.quad_loss for b in sweep}
    mid = losses[round(math.pi / 2, 3)]
    assert mid < losses[0.3]
    assert mid < losses[round(math.pi - 0.3, 3)]


def test_reference_curves_values():
    rows = reference_curves(IDEAL, [100])
    assert rows[0] == {"n": 100, "sql": 0.1, "crb": 0.1}
    rows = reference_curves(NoiseChannel.depolarizing(0.1), [100])
    assert rows[0]["crb"] == pytest.approx(1.0 / 9.0)
    rows = reference_curves(NoiseChannel.phase(1.0), [100])
    assert rows[0]["crb"] == pytest.approx(math.exp(0.5) / 10.0)
    with pytest.raises(ValueError):
        reference_curves(IDEAL, [])


def test_write_batch_csv_quoting(tmp_path):
    path = tmp_path / "rows.csv"
    write_batch_csv(
        path,
        [
            {
                "strategy": "go,variant",  # embedded comma must be quoted
                "channel": "ideal",
                "phi_true": 1.0,
                "n": 10,
                "m": 4,
                "circ_mean": 1.0,
                "sigma_est": 0.5,
                "err_mean": 0.25,
                "err_sigma": 0.2,
                "quad_loss": 0.25,
                "sql": 0.31,
                "crb": 0.31,
            },
            # a summary row: no phase, no mean, None where a value is undefined
            {"strategy": "pgh", "channel": "ideal", "n": 10, "m": 4, "sigma_est": 0.1,
             "err_sigma": None, "quad_loss": np.float64(1.5), "sql": 0.31, "crb": 0.31},
        ],
    )
    text = path.read_text()
    assert '"go,variant"' in text
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["strategy"] == "go,variant"
    assert float(rows[0]["sigma_est"]) == 0.5
    assert text.splitlines()[2] == "pgh,ideal,,10,4,,0.1,,,1.5,0.31,0.31"


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 63),
    strategy=st.sampled_from(STRATEGIES),
    spec=st.sampled_from(["ideal", "depolarizing:0.3", "phase:0.7"]),
    phi_true=st.floats(-10.0, 10.0),
)
def test_same_seed_gives_same_bytes(seed, strategy, spec, phi_true):
    kwargs = dict(sample_channel=NoiseChannel.parse(spec), grid_size=64, seed=[seed])
    if strategy == "policy":
        strategy = Policy(0.3 + 0.6 * np.cos(np.arange(12)))
    first, second = (run_estimation(phi_true, 12, strategy, **kwargs) for _ in range(2))
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
