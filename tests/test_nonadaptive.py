import math

import numpy as np
import pytest

from mzphase import (
    IDEAL,
    NoiseChannel,
    PosteriorGrid,
    inversion_estimate,
    make_generator,
    run_batch,
    run_estimation,
    sample_outcome,
)

from _oracles import (
    exact_bayes_fixed_resultant,
    exact_inversion_resultant,
    exact_policy_resultant,
    optimal_ideal_sharpness,
)


def test_inversion_estimate_endpoints_and_midpoint():
    assert inversion_estimate(50, 50) == 0.0
    assert inversion_estimate(0, 50) == pytest.approx(math.pi)
    assert inversion_estimate(25, 50) == pytest.approx(math.pi / 2)


def test_inversion_estimate_monotone_in_ratio():
    estimates = [inversion_estimate(n0, 100) for n0 in range(101)]
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))


@pytest.mark.parametrize("n0, n", [(0, 0), (-1, 4), (5, 4)])
def test_inversion_estimate_rejects_impossible_counts(n0, n):
    with pytest.raises(ValueError):
        inversion_estimate(n0, n)


def simulate_counts(phi_true, n, channel, rng):
    """(N0, N): clicks of outcome 0 in n probes at feedback 0."""
    return sum(sample_outcome(channel, phi_true, 0.0, rng) == 0 for _ in range(n)), n


def fixed_phase_posterior(outcomes, grid_size):
    """Posterior of the bayes-fixed strategy: a [0, pi] prior updated
    with the feedback held at 0."""
    grid = PosteriorGrid.uniform(grid_size, support=(0.0, math.pi))
    for x in outcomes:
        grid.update(x, 0.0)
    return grid


def test_fixed_phase_bayes_concentrates_at_endpoints():
    grid = fixed_phase_posterior([0] * 50, grid_size=4096)
    assert grid.circular_mean() < 0.3
    assert abs(grid.weights.sum() - 1.0) < 1e-10
    est1 = fixed_phase_posterior([1] * 50, grid_size=4096).circular_mean()
    assert est1 > math.pi - 0.3


def test_fixed_phase_bayes_rejects_empty():
    with pytest.raises(ValueError):
        run_estimation(1.0, 0, "bayes-fixed", grid_size=64)


def test_fixed_phase_bayes_support_restriction():
    grid = fixed_phase_posterior([0, 1, 0], grid_size=512)
    outside = grid.phis > math.pi + 1e-9
    assert np.all(grid.weights[outside] == 0.0)


@pytest.mark.parametrize("phi_true", [0.5, 1.2, math.pi - 0.5])
def test_quadratic_loss_decreases_with_probe_count(phi_true):
    # median loss over repeated noiseless runs drops as N grows
    medians = {}
    for n in (10, 40, 160):
        losses_inv = []
        losses_bay = []
        for i in range(60):
            rng = make_generator([50, n, i])
            counts = simulate_counts(phi_true, n, IDEAL, rng)
            losses_inv.append((inversion_estimate(*counts) - phi_true) ** 2)
            outcomes = [
                sample_outcome(IDEAL, phi_true, 0.0, make_generator([51, n, i, k]))
                for k in range(n)
            ]
            est = fixed_phase_posterior(outcomes, grid_size=1024).circular_mean()
            losses_bay.append((est - phi_true) ** 2)
        medians[n] = (np.median(losses_inv), np.median(losses_bay))
    assert medians[160][0] < medians[40][0] < medians[10][0]
    assert medians[160][1] < medians[40][1] < medians[10][1]


def test_inversion_bias_toward_half_pi_under_depolarizing():
    channel = NoiseChannel.depolarizing(0.25)
    phi_true = 0.3
    estimates = []
    for i in range(400):
        rng = make_generator([52, i])
        estimates.append(inversion_estimate(*simulate_counts(phi_true, 100, channel, rng)))
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)
    assert (estimates.mean() - phi_true) / se > 10.0
    assert phi_true < estimates.mean() < math.pi / 2


def test_inversion_estimate_needs_no_clamp():
    # 2 acos(sqrt(x)) lies in [0, pi] for x in [0, 1] and 2 acos(0.0) is
    # math.pi, so clamping to [0, pi] changes no value
    def clamped(n0, n):
        return min(max(2.0 * math.acos(math.sqrt(n0 / n)), 0.0), math.pi)

    mismatches = [
        (n0, n)
        for n in range(1, 2001)
        for n0 in range(n + 1)
        if not 0.0 <= (est := inversion_estimate(n0, n)) <= math.pi
        or est.hex() != clamped(n0, n).hex()
    ]
    assert mismatches == []
    assert inversion_estimate(0, 7) == math.pi


@pytest.mark.parametrize("phi", [0.7, 2.1])
@pytest.mark.parametrize(
    "channel", [IDEAL, NoiseChannel.depolarizing(0.25), NoiseChannel.phase(1.0)],
    ids=lambda c: c.kind,
)
@pytest.mark.parametrize(
    "strategy, exact",
    [("inversion", exact_inversion_resultant), ("bayes-fixed", exact_bayes_fixed_resultant)],
)
def test_fixed_feedback_batches_match_the_exact_resultant(strategy, exact, channel, phi):
    n, m = 10, 4000
    _, records = run_batch(phi, n, strategy, m, sample_channel=channel, grid_size=1024,
                           base_seed=1)
    z = np.exp(1j * np.array([r.final_estimate for r in records]))
    # each of the real and imaginary parts within 4 standard errors
    want = exact(n, phi, channel)
    for part, value in ((z.real, want.real), (z.imag, want.imag)):
        se = part.std(ddof=1) / math.sqrt(m)
        assert abs(part.mean() - value) < 4.0 * se, (part.mean(), value, se)


_FLOOR_DELTAS = 0.3 + 0.6 * np.cos(np.arange(12))


def _phase_averaged(resultant, n, count):
    """|mean of E e^{i(est - phi)}| over an even grid of count phases."""
    phis = np.arange(count) * (2.0 * math.pi / count)
    return abs(np.mean([resultant(n, phi) * np.exp(-1j * phi) for phi in phis]))


@pytest.mark.parametrize(
    "resultant",
    [
        lambda n, phi: exact_inversion_resultant(n, phi, IDEAL),
        lambda n, phi: exact_bayes_fixed_resultant(n, phi, IDEAL),
        lambda n, phi: exact_policy_resultant(_FLOOR_DELTAS[:n], phi, IDEAL),
    ],
    ids=["inversion", "bayes-fixed", "policy"],
)
def test_phase_averaged_resultant_is_at_most_the_ideal_floor(resultant):
    # E e^{i(est - phi)} is a trigonometric polynomial of degree <= n + 1 in
    # phi, so an even grid of 4 n + 8 phases averages it exactly
    for n in range(1, 13):
        sharpness = _phase_averaged(resultant, n, 4 * n + 8)
        assert sharpness == pytest.approx(_phase_averaged(resultant, n, 8 * n + 16), abs=1e-12), n
        assert sharpness <= optimal_ideal_sharpness(n) + 1e-12, n


def test_one_inversion_probe_reaches_the_ideal_floor():
    # E e^{i est} = cos phi, whose phase average against e^{-i phi} is S_1 = 1/2
    sharpness = _phase_averaged(lambda n, phi: exact_inversion_resultant(n, phi, IDEAL), 1, 12)
    assert sharpness == pytest.approx(optimal_ideal_sharpness(1), abs=1e-12)
