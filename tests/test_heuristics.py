import cmath
import math

import numpy as np
import pytest

from mzphase import (
    IDEAL,
    SIGMA_VALID_MAX,
    GaussianSummary,
    Heuristic,
    NoiseChannel,
    PosteriorGrid,
    feedback_offset,
    go_feedback,
    make_generator,
    next_feedback,
    offset_coefficient,
    pgh_feedback,
    run_batch,
    wrap_phase,
)

from _oracles import (
    argmin_expected_posterior_variance,
    exact_go_sharpness,
    expected_posterior_variance,
    expected_posterior_variance_closed_form,
    optimal_ideal_sharpness,
    wrapped_normal_weights,
)

TWO_PI = 2 * math.pi
SMALL_SIGMA_OFFSET = -math.pi / 2 + math.asin(math.sqrt(2.0) - 1.0)


def test_offset_small_sigma_limit():
    assert feedback_offset(1e-4) == pytest.approx(SMALL_SIGMA_OFFSET, abs=1e-6)
    assert feedback_offset(0.0) == pytest.approx(SMALL_SIGMA_OFFSET, abs=1e-12)
    # continuity at sigma -> 0
    assert abs(feedback_offset(0.0) - feedback_offset(1e-4)) < 1e-6


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.6, 0.9])
def test_closed_form_expected_posterior_variance_matches_quadrature(sigma):
    for offset in np.linspace(-math.pi, math.pi, 9)[:-1] + 0.1:
        exact = expected_posterior_variance_closed_form(offset, sigma)
        assert expected_posterior_variance(offset, sigma) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 0.6, 0.9])
def test_expected_posterior_variance_argmin_is_a_quarter_turn(sigma):
    offsets = np.linspace(-math.pi, 0.0, 20001)[1:-1]
    values = expected_posterior_variance_closed_form(offsets, sigma)
    argmin = argmin_expected_posterior_variance(sigma)
    assert argmin == -math.pi / 2
    assert values.min() >= expected_posterior_variance_closed_form(argmin, sigma)


def test_go_feedback_example_values():
    fb = go_feedback(GaussianSummary(0.0, 1e-4), +1)
    assert fb == pytest.approx(wrap_phase(SMALL_SIGMA_OFFSET), abs=1e-6)
    assert fb == pytest.approx(5.139468, abs=1e-5)

    fb = go_feedback(GaussianSummary(2.0, 0.1), -1)
    assert fb == pytest.approx(2.0 + 1.139472, abs=1e-5)


def test_go_feedback_never_returns_two_pi():
    # mu + offset is one ulp below 0, which x % 2pi rounds up to 2pi
    offset = feedback_offset(0.1)
    mu = float(np.nextafter(-offset, 0.0))
    assert mu + offset < 0.0
    assert go_feedback(GaussianSummary(mu, 0.1), +1) == 0.0


def test_offset_coefficient_at_zero():
    assert offset_coefficient(0.0).real == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert offset_coefficient(0.0).imag == 0.0


def test_offset_coefficient_real_and_bounded_in_validity_range():
    sigmas = np.linspace(0.0, SIGMA_VALID_MAX, 10 ** 4)
    values = np.array([offset_coefficient(s) for s in sigmas])
    assert np.max(np.abs(values.imag)) == 0.0
    assert np.max(np.abs(values)) <= 1.0


def test_offset_coefficient_leaves_unit_range_past_threshold():
    a = offset_coefficient(0.93)
    assert a.imag == 0.0 and abs(a.real) > 1.0


def test_offset_never_zero_in_validity_range():
    # feedback at the mean is a stationary point of the wrong kind;
    # the rule must always displace the feedback for valid sigma
    for sigma in np.linspace(1e-3, SIGMA_VALID_MAX, 500):
        assert feedback_offset(sigma) != 0.0


def test_offset_quadratic_convergence_to_limit():
    sigmas = np.array([0.01, 0.02, 0.05, 0.1])
    deviations = np.array(
        [abs(feedback_offset(s) - SMALL_SIGMA_OFFSET) for s in sigmas]
    )
    ratios = deviations / sigmas ** 2
    assert np.all(ratios < 1.0)  # bounded constant => O(sigma^2)


def test_offset_real_part_fallback_regimes():
    # real coefficient below -1 clamps the offset to zero
    assert feedback_offset(1.0) == 0.0
    # complex coefficient region keeps a finite real offset
    off = feedback_offset(math.sqrt(3.0))
    assert -math.pi < off < 0.0
    # far regime saturates at -pi, including sigma large enough to
    # overflow the exponential if evaluated naively
    assert feedback_offset(2.5) == -math.pi
    assert feedback_offset(1e9) == -math.pi


def test_go_feedback_translation_equivariance():
    for sigma in (0.05, 0.4, 0.8):
        base = go_feedback(GaussianSummary(0.0, sigma), +1)
        for shift in (0.5, 2.0, 5.0):
            shifted = go_feedback(GaussianSummary(shift, sigma), +1)
            assert math.remainder(shifted - base - shift, TWO_PI) == pytest.approx(
                0.0, abs=1e-12
            )


def test_pgh_feedback_from_delta_posterior():
    weights = np.zeros(64)
    weights[7] = 1.0
    grid = PosteriorGrid(weights)
    rng = make_generator(20)
    assert pgh_feedback(grid, rng) == grid.phis[7]


def test_pgh_feedback_spread_matches_half_normal():
    # |Phi - mu| over draws from a narrow posterior has mean sigma*sqrt(2/pi)
    grid_size = 2 ** 13
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    sigma, mu = 0.1, 3.0
    grid = PosteriorGrid(wrapped_normal_weights(phis, mu, sigma))
    rng = make_generator(21)
    draws = np.array([pgh_feedback(grid, rng) for _ in range(10 ** 4)])
    spread = np.abs(np.angle(np.exp(1j * (draws - mu)))).mean()
    assert spread == pytest.approx(sigma * math.sqrt(2 / math.pi), rel=0.05)


def test_pgh_feedback_deterministic_given_seed():
    grid = PosteriorGrid.uniform(256)
    a = pgh_feedback(grid, make_generator(22))
    b = pgh_feedback(grid, make_generator(22))
    assert a == b


def test_heuristic_validation():
    with pytest.raises(ValueError):
        Heuristic(kind="bogus")
    with pytest.raises(ValueError):
        Heuristic(go_fallback="clip")
    with pytest.raises(ValueError):
        Heuristic(sign_convention="fixed")


def test_next_feedback_uniform_prior_is_uniform_random():
    grid = PosteriorGrid.uniform(1024)
    rng = make_generator(23)
    draws = [next_feedback(Heuristic(), grid, 1, rng) for _ in range(2000)]
    draws = np.array(draws)
    assert np.all((draws >= 0) & (draws < TWO_PI))
    # roughly uniform: mean resultant of a uniform sample is ~ 1/sqrt(n)
    assert np.abs(np.exp(1j * draws).mean()) < 0.1


def test_next_feedback_alternates_offset_sign():
    grid_size = 2 ** 13
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    grid = PosteriorGrid(wrapped_normal_weights(phis, 0.0, 0.01))
    rng = make_generator(24)
    fb2 = next_feedback(Heuristic(), grid, 2, rng)
    fb3 = next_feedback(Heuristic(), grid, 3, rng)
    off2 = math.remainder(fb2, TWO_PI)
    off3 = math.remainder(fb3, TWO_PI)
    assert off2 == pytest.approx(-off3, abs=1e-6)
    assert off2 * off3 < 0.0


def test_next_feedback_pgh_delegation_and_fallback():
    weights = np.zeros(64)
    weights[5] = 1.0
    delta = PosteriorGrid(weights)
    rng = make_generator(25)
    assert next_feedback(Heuristic(kind="pgh"), delta, 3, rng) == delta.phis[5]

    # wide posterior (sigma > threshold): pgh fallback samples the grid
    grid = PosteriorGrid.uniform(256).update(0, 1.0)
    assert grid.gaussian_summary().sigma > SIGMA_VALID_MAX
    fb = next_feedback(Heuristic(go_fallback="pgh"), grid, 2, rng)
    assert fb in grid.phis  # sampled from the grid points
    fb = next_feedback(Heuristic(go_fallback="real-part"), grid, 2, rng)
    mu, sigma = grid.gaussian_summary()
    expected = math.remainder(feedback_offset(sigma), TWO_PI)
    assert math.remainder(fb - mu, TWO_PI) == pytest.approx(expected, abs=1e-9)

    # the threshold itself: Holevo sigma 0.91 keeps the go rule, 0.93 falls
    # back to a pgh draw (a wrapped normal of width s has e^{s^2} - 1 as
    # its Holevo variance)
    phis = np.arange(4096) * (TWO_PI / 4096)
    for target, falls_back in [(0.91, False), (0.93, True)]:
        width = math.sqrt(math.log1p(target ** 2))
        grid = PosteriorGrid(wrapped_normal_weights(phis, 2.0, width))
        summary = grid.gaussian_summary()
        assert summary.sigma == pytest.approx(target, abs=1e-6)
        fb = next_feedback(Heuristic(go_fallback="pgh"), grid, 2, rng)
        go = go_feedback(summary, 1.0)
        assert (fb in grid.phis and fb != go) if falls_back else fb == go


def test_next_feedback_random_sign_convention_uses_both_signs():
    grid_size = 2 ** 12
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    grid = PosteriorGrid(wrapped_normal_weights(phis, 1.0, 0.05))
    rng = make_generator(26)
    heur = Heuristic(sign_convention="random")
    offsets = [
        math.remainder(next_feedback(heur, grid, 5, rng) - 1.0, TWO_PI)
        for _ in range(200)
    ]
    assert any(o > 0 for o in offsets) and any(o < 0 for o in offsets)


def test_next_feedback_rejects_bad_step():
    with pytest.raises(ValueError):
        next_feedback(Heuristic(), PosteriorGrid.uniform(64), 0, make_generator(27))


CHANNELS = [IDEAL, NoiseChannel.depolarizing(0.25), NoiseChannel.phase(1.0)]


def test_exact_go_sharpness_does_not_depend_on_the_grid():
    # n + 4 points already sum every integrand exactly
    for n in range(1, 13):
        for channel in CHANNELS:
            assert exact_go_sharpness(n, channel) == pytest.approx(
                exact_go_sharpness(n, channel, grid_size=n + 20), abs=1e-9
            ), (n, channel)


def test_exact_go_sharpness_is_at_most_the_optimal_ideal_sharpness():
    # S_n is the largest sharpness any n single-photon probes reach on the
    # ideal channel; one probe with Phi_1 = 0 reaches it
    for n in range(1, 13):
        bound = optimal_ideal_sharpness(n)
        exact = exact_go_sharpness(n, IDEAL)
        assert exact <= bound + 1e-12, n
        if n == 1:
            assert exact == pytest.approx(bound, abs=1e-12)


def _minus_half_pi(sigma):
    return -math.pi / 2


def _minus_half_pi_when_wide(sigma):
    return -math.pi / 2 if sigma > SIGMA_VALID_MAX else feedback_offset(sigma)


_DEP = NoiseChannel.depolarizing(0.1)
_PHASE = NoiseChannel.phase(0.3)  # v = 0.9560


@pytest.mark.parametrize(
    "offset, sample, model, sigmas",
    [
        # the closed form with its real-part fallback
        (feedback_offset, IDEAL, IDEAL, (0.9073, 0.5870, 0.4547)),
        (_minus_half_pi_when_wide, IDEAL, IDEAL, (0.6504, 0.4243, 0.3239)),
        (_minus_half_pi, IDEAL, IDEAL, (0.6220, 0.4146, 0.3260)),
        # at n = 4 and 8 the noise-aware closed form is worse than the noise-unaware one
        (feedback_offset, _DEP, IDEAL, (1.0795, 0.7176, 0.5535)),
        (feedback_offset, _DEP, _DEP, (1.2011, 0.7445, 0.5261)),
        (_minus_half_pi_when_wide, _DEP, IDEAL, (0.8269, 0.5469, 0.4181)),
        (_minus_half_pi_when_wide, _DEP, _DEP, (0.7839, 0.5428, 0.4081)),
        (_minus_half_pi, _DEP, IDEAL, (0.7864, 0.5255, 0.4154)),
        (_minus_half_pi, _DEP, _DEP, (0.7839, 0.5129, 0.3986)),
        # under phase noise too, and either -pi/2 rule beats the closed form at every n
        (feedback_offset, _PHASE, IDEAL, (0.9799, 0.6424, 0.4957)),
        (feedback_offset, _PHASE, _PHASE, (1.0341, 0.6466, 0.4919)),
        (_minus_half_pi_when_wide, _PHASE, IDEAL, (0.7261, 0.4757, 0.3622)),
        (_minus_half_pi_when_wide, _PHASE, _PHASE, (0.7453, 0.4803, 0.3612)),
        (_minus_half_pi, _PHASE, IDEAL, (0.6921, 0.4599, 0.3618)),
        (_minus_half_pi, _PHASE, _PHASE, (0.6915, 0.4558, 0.3563)),
    ],
    ids=[
        "closed-form", "minus-half-pi-when-wide", "minus-half-pi",
        "closed-form-dep-ideal-model", "closed-form-dep-aware-model",
        "minus-half-pi-when-wide-dep-ideal-model", "minus-half-pi-when-wide-dep-aware-model",
        "minus-half-pi-dep-ideal-model", "minus-half-pi-dep-aware-model",
        "closed-form-phase-ideal-model", "closed-form-phase-aware-model",
        "minus-half-pi-when-wide-phase-ideal-model", "minus-half-pi-when-wide-phase-aware-model",
        "minus-half-pi-phase-ideal-model", "minus-half-pi-phase-aware-model",
    ],
)
def test_exact_go_sigma_under_each_offset_rule(offset, sample, model, sigmas):
    # sigma = sqrt(S^-2 - 1) of the exact sharpness S, above the floor that
    # the canonical measurement sets at each n on the ideal channel
    for n, want in zip((4, 8, 12), sigmas):
        sigma = math.sqrt(exact_go_sharpness(n, sample, model, offset=offset) ** -2 - 1.0)
        assert sigma == pytest.approx(want, abs=1e-4), n
        assert sigma > math.sqrt(optimal_ideal_sharpness(n) ** -2 - 1.0), n


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.kind)
def test_go_batches_match_the_exact_sharpness(channel):
    n, phases, m = 10, 6, 1000
    errors = []
    for j in range(phases):
        phi = (j + 0.5) * TWO_PI / phases
        _, records = run_batch(
            phi, n, "go", m, sample_channel=channel, model_channel=IDEAL, grid_size=64,
            base_seed=1, phase_index=j,
        )
        errors.extend(r.final_estimate - phi for r in records)
    errors = np.array(errors)
    mean = np.exp(1j * errors).mean()
    # the standard error of the cosines about the pooled mean direction
    cosines = np.cos(errors - np.angle(mean))
    se = cosines.std(ddof=1) / math.sqrt(len(cosines))
    z = (abs(mean) - exact_go_sharpness(n, channel)) / se
    assert abs(z) < 4.0, z


def test_go_batches_match_the_exact_sharpness_under_a_noise_aware_model():
    # a model visibility above 2/sqrt(5) leaves no zero resultant in go's tree
    channel = NoiseChannel.depolarizing(0.05)
    for n in range(1, 11):
        exact_go_sharpness(n, channel, channel)  # raises at a zero resultant
    n, phases, m = 10, 6, 1000
    errors = []
    for j in range(phases):
        phi = (j + 0.5) * TWO_PI / phases
        _, records = run_batch(
            phi, n, "go", m, sample_channel=channel, model_channel=channel, grid_size=64,
            base_seed=1, phase_index=j,
        )
        errors.extend(r.final_estimate - phi for r in records)
    errors = np.array(errors)
    mean = np.exp(1j * errors).mean()
    cosines = np.cos(errors - np.angle(mean))
    se = cosines.std(ddof=1) / math.sqrt(len(cosines))
    z = (abs(mean) - exact_go_sharpness(n, channel, channel)) / se
    assert abs(z) <= 4.0, z
