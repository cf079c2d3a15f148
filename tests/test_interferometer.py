import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzphase import (
    IDEAL,
    NoiseChannel,
    fisher_information,
    make_generator,
    noisy_likelihood,
    precision_bound,
    sample_outcome,
    sample_outcomes,
    wrap_phase,
)

from mzphase.interferometer import _sample_fixed_outcomes

from _oracles import numeric_fisher_information

DEP25 = NoiseChannel.depolarizing(0.25)
PHASE1 = NoiseChannel.phase(1.0)


def test_wrap_phase_range_and_offset():
    rng = make_generator(0)
    xs = rng.uniform(-1e3, 1e3, 2000)
    wrapped = wrap_phase(xs)
    assert np.all((wrapped >= 0.0) & (wrapped < 2 * math.pi))
    # wrap(x) - x must be an integer multiple of 2*pi
    multiples = np.round((wrapped - xs) / (2 * math.pi))
    assert np.max(np.abs((wrapped - xs) - multiples * 2 * math.pi)) < 1e-12


def test_ideal_likelihood_values():
    assert noisy_likelihood(IDEAL, 0, math.pi / 2, math.pi / 2) == pytest.approx(1.0)
    assert noisy_likelihood(IDEAL, 0, math.pi, 0.0) == pytest.approx(0.0, abs=1e-30)
    assert noisy_likelihood(IDEAL, 0, math.pi / 2, 0.0) == pytest.approx(0.5)  # cos^2(pi/4)


def test_noisy_likelihood_values():
    assert noisy_likelihood(DEP25, 0, 1.3, 1.3) == pytest.approx(0.875)
    assert noisy_likelihood(NoiseChannel.phase(0.0), 1, math.pi, 0.0) == pytest.approx(1.0)
    expected = math.exp(-0.5) + (1 - math.exp(-0.5)) / 2
    assert noisy_likelihood(NoiseChannel.phase(1.0), 0, 0.7, 0.7) == pytest.approx(expected)


@pytest.mark.parametrize("channel", [IDEAL, DEP25, NoiseChannel.phase(0.4)])
def test_outcome_probabilities_sum_to_one(channel):
    rng = make_generator(1)
    for _ in range(200):
        phi, fb = rng.uniform(0, 2 * math.pi, 2)
        total = noisy_likelihood(channel, 0, phi, fb) + noisy_likelihood(channel, 1, phi, fb)
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("channel", [IDEAL, DEP25, NoiseChannel.phase(0.4)])
def test_likelihood_depends_on_phase_difference_only(channel):
    rng = make_generator(2)
    for _ in range(100):
        phi, fb, shift = rng.uniform(-10, 10, 3)
        a = noisy_likelihood(channel, 0, phi, fb)
        b = noisy_likelihood(channel, 0, phi + shift, fb + shift)
        assert abs(a - b) < 1e-12


def test_zero_noise_channels_match_ideal_exactly():
    rng = make_generator(3)
    for _ in range(100):
        phi, fb = rng.uniform(0, 2 * math.pi, 2)
        p = noisy_likelihood(IDEAL, 1, phi, fb)
        assert noisy_likelihood(NoiseChannel.depolarizing(0.0), 1, phi, fb) == p
        assert noisy_likelihood(NoiseChannel.phase(0.0), 1, phi, fb) == p


def test_channel_validation():
    with pytest.raises(ValueError):
        NoiseChannel.depolarizing(1.5)
    with pytest.raises(ValueError):
        NoiseChannel.phase(-0.1)
    with pytest.raises(ValueError):
        NoiseChannel("bogus")
    for spec in ("phase:nan", "phase:inf", "depolarizing:nan", "depolarizing:-inf", "ideal:"):
        with pytest.raises(ValueError):
            NoiseChannel.parse(spec)
    with pytest.raises(ValueError):
        NoiseChannel.from_dict({"kind": "ideal", "kappa": math.nan})


def test_channel_spec_roundtrip():
    for ch in (IDEAL, DEP25, PHASE1):
        assert NoiseChannel.parse(ch.spec()) == ch
        assert NoiseChannel.from_dict(ch.to_dict()) == ch


def test_sample_outcome_deterministic_cases():
    rng = make_generator(4)
    assert all(sample_outcome(IDEAL, 1.1, 1.1, rng) == 0 for _ in range(50))
    assert all(sample_outcome(IDEAL, 1.1, 1.1 + math.pi, rng) == 1 for _ in range(50))


def test_sample_outcome_fair_coin_at_full_depolarization():
    rng = make_generator(5)
    channel = NoiseChannel.depolarizing(1.0)
    n = 10 ** 5
    draws = sample_outcomes(
        channel, np.ones((1, n)), np.zeros((1, n)), [rng], np.empty((1, channel.draws, n)),
        np.empty((1, n)),
    )
    assert abs(np.mean(draws == 0) - 0.5) < 0.01


FIXED_CHANNELS = [
    IDEAL,
    NoiseChannel.depolarizing(0.0),
    NoiseChannel.depolarizing(0.1),
    NoiseChannel.depolarizing(1.0),
    NoiseChannel.phase(0.0),
    NoiseChannel.phase(0.3),
]


@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi])
@pytest.mark.parametrize("channel", FIXED_CHANNELS, ids=lambda c: c.spec())
def test_fixed_outcomes_are_the_one_by_one_outcomes(channel, phi):
    # values and final generator state of n sample_outcome calls at Phi = 0
    n = 200
    rng, twin = make_generator([9, 2]), make_generator([9, 2])
    clicks = _sample_fixed_outcomes(channel, phi, n, rng)
    assert clicks.dtype == np.int64
    assert clicks.tolist() == [sample_outcome(channel, phi, 0.0, twin) for _ in range(n)]
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "channel,phi,fb",
    [
        (IDEAL, 2.1, 0.9),
        (DEP25, 2.1, 0.9),
        (NoiseChannel.phase(0.6), 2.1, 0.9),
        (NoiseChannel.depolarizing(0.1), 5.5, 0.2),
    ],
)
def test_empirical_frequencies_match_marginal(channel, phi, fb):
    # 4-sigma binomial tolerance at 1e5 samples
    n = 10 ** 5
    rng = make_generator(6)
    draws = sample_outcomes(
        channel, np.full((1, n), math.cos(phi - fb)), np.full((1, n), math.sin(phi - fb)), [rng],
        np.empty((1, channel.draws, n)), np.empty((1, n)),
    )
    p0 = noisy_likelihood(channel, 0, phi, fb)
    tol = 4.0 * math.sqrt(p0 * (1 - p0) / n)
    assert abs(np.mean(draws == 0) - p0) < tol


@pytest.mark.parametrize(
    "kappa, phi, fb, n, seed",
    [
        pytest.param(0.8, 2.0, 1.1, 2 * 10 ** 4, 7, id="kappa-0.8"),
        # at phi = Phi, a kick 5% too wide moves p0 by about 18 standard errors
        pytest.param(1.0, 0.7, 0.7, 2 * 10 ** 5, 8, id="kappa-1"),
    ],
)
def test_scalar_sampler_matches_marginal_too(kappa, phi, fb, n, seed):
    rng = make_generator(seed)
    channel = NoiseChannel.phase(kappa)
    freq = sum(sample_outcome(channel, phi, fb, rng) == 0 for _ in range(n)) / n
    p0 = noisy_likelihood(channel, 0, phi, fb)
    assert abs(freq - p0) < 4.0 * math.sqrt(p0 * (1 - p0) / n)


def test_fisher_information_closed_forms():
    assert fisher_information(IDEAL) == 1.0
    assert fisher_information(NoiseChannel.depolarizing(0.1)) == pytest.approx(0.81)
    assert fisher_information(NoiseChannel.phase(0.2)) == pytest.approx(math.exp(-0.04))


@pytest.mark.parametrize("channel", [NoiseChannel.depolarizing(0.25), NoiseChannel.phase(0.5)])
def test_fisher_information_against_finite_differences(channel):
    # smaller grid here; the full 1e4-point scan runs in the acceptance suite
    def p0(delta):
        return noisy_likelihood(channel, 0, delta, 0.0)

    numeric = numeric_fisher_information(p0, grid_points=2000)
    assert abs(numeric - fisher_information(channel)) < 1e-6


def test_precision_bound_values():
    assert precision_bound(IDEAL, 100) == pytest.approx(0.1)
    assert precision_bound(DEP25, 100) == pytest.approx(1.0 / 7.5)
    assert precision_bound(PHASE1, 1) == pytest.approx(math.exp(0.5))
    with pytest.raises(ValueError):
        precision_bound(IDEAL, 0)


probabilities = st.floats(min_value=0.0, max_value=1.0)
strengths = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
channels = st.one_of(
    st.just(IDEAL),
    probabilities.map(NoiseChannel.depolarizing),
    strengths.map(NoiseChannel.phase),
)
angles = st.floats(min_value=-10.0, max_value=10.0)


@given(channels)
def test_channel_round_trips(channel):
    assert NoiseChannel.from_dict(channel.to_dict()) == channel
    spec = channel.spec()
    assert NoiseChannel.parse(spec).spec() == spec


@given(channels)
def test_parse_inverts_spec(channel):
    assert NoiseChannel.parse(channel.spec()) == channel


def test_spec_is_short_where_that_is_exact():
    for spec in ("ideal", "depolarizing:0.1", "phase:0.3", "phase:1", "depolarizing:0.1234567"):
        assert NoiseChannel.parse(spec).spec() == spec
    assert NoiseChannel.depolarizing(0.1 + 0.2).spec() == "depolarizing:0.30000000000000004"


@pytest.mark.parametrize("channel", [IDEAL, DEP25, NoiseChannel.phase(0.4)])
def test_likelihood_writes_into_out(channel):
    phis = np.linspace(0.0, 7.0, 101)
    for x in (0, 1):
        out = np.empty_like(phis)
        result = noisy_likelihood(channel, x, phis, 1.3, out=out)
        assert result is out
        assert np.array_equal(out, noisy_likelihood(channel, x, phis, 1.3))
        assert np.array_equal(
            [noisy_likelihood(channel, x, float(phi), 1.3) for phi in phis], out
        )
    out = np.empty_like(phis)
    assert noisy_likelihood(IDEAL, 1, phis, 0.2, out=out) is out


@given(channels, angles, angles)
def test_likelihoods_of_both_outcomes_sum_to_one(channel, phi, feedback):
    total = noisy_likelihood(channel, 0, phi, feedback) + noisy_likelihood(channel, 1, phi, feedback)
    assert abs(total - 1.0) <= 1e-15


@given(channels)
def test_fisher_information_is_squared_visibility(channel):
    assert fisher_information(channel) == channel.visibility ** 2
    closed_form = {
        "ideal": 1.0,
        "depolarizing": (1.0 - channel.p) ** 2,
        "phase": math.exp(-min(channel.kappa, 40.0) ** 2),
    }[channel.kind]
    assert math.isclose(fisher_information(channel), closed_form, rel_tol=1e-15, abs_tol=1e-300)


def test_fringe_lost_entirely():
    for channel in (NoiseChannel.depolarizing(1.0), NoiseChannel.phase(1e200)):
        assert channel.visibility == 0.0
        assert noisy_likelihood(channel, 0, 0.3, 1.2) == 0.5
        assert precision_bound(channel, 10) == math.inf
