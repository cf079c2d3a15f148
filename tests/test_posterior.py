import csv
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase import (
    IDEAL,
    DegeneratePosteriorError,
    InfiniteVarianceError,
    NoiseChannel,
    PosteriorGrid,
    UndefinedMeanError,
    make_generator,
    noisy_likelihood,
    run_estimation,
    wrap_phase,
)

import mzphase
from mzphase import posterior
from mzphase.posterior import _CDF_BLOCK

from _oracles import cdf_draw_index, wrapped_normal_weights

TWO_PI = 2 * math.pi


def delta_grid(location, grid_size=256):
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    weights = np.zeros(grid_size)
    weights[int(np.argmin(np.abs(phis - location)))] = 1.0
    return PosteriorGrid(weights)


def test_uniform_prior_small():
    grid = PosteriorGrid.uniform(4)
    assert np.allclose(grid.weights, 0.25)


def test_uniform_prior_truncated_support():
    grid = PosteriorGrid.uniform(8, support=(0.0, math.pi))
    nonzero = grid.weights[grid.weights > 0]
    assert nonzero.size == 5  # points 0, pi/4, pi/2, 3pi/4, pi
    assert np.allclose(nonzero, 0.2)
    assert np.all(grid.weights[5:] == 0.0)


def test_uniform_prior_default_grid():
    grid = PosteriorGrid.uniform(2 ** 17)
    assert np.allclose(grid.weights, 2.0 ** -17)


def test_uniform_prior_rejects_bad_input():
    with pytest.raises(ValueError):
        PosteriorGrid.uniform(1)
    with pytest.raises(ValueError):
        PosteriorGrid.uniform(8, support=(2.0, 1.0))
    with pytest.raises(ValueError):
        PosteriorGrid.uniform(4, support=(0.2, 0.3))  # no grid point inside


def test_single_update_cos2_posterior_statistics():
    # posterior after outcome 0 at feedback 0 from a flat prior is
    # cos^2(phi/2)/pi, whose sharpness is exactly 1/2
    grid = PosteriorGrid.uniform(2 ** 12).update(0, 0.0)
    assert abs(grid.sharpness() - 0.5) < 1e-12
    assert abs(grid.holevo_variance() - 3.0) < 1e-10
    mu, sigma = grid.gaussian_summary()
    assert mu == pytest.approx(0.0, abs=1e-9) or mu == pytest.approx(TWO_PI, abs=1e-9)
    assert sigma == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_update_degenerate_posterior_raises():
    grid = delta_grid(1.0)
    location = float(grid.phis[np.argmax(grid.weights)])
    with pytest.raises(DegeneratePosteriorError):
        grid.update(1, location)  # sin^2(0) = 0 at the only support point


def test_two_updates_opposite_outcomes_closed_form():
    grid_size = 512
    grid = PosteriorGrid.uniform(grid_size)
    grid.update(0, 1.0).update(1, 1.0)
    phis = grid.phis
    expected = (np.cos((phis - 1.0) / 2) * np.sin((phis - 1.0) / 2)) ** 2
    expected /= expected.sum()
    assert np.max(np.abs(grid.weights - expected)) < 1e-10


def test_update_order_invariance():
    rng = make_generator(10)
    for _ in range(20):
        fb1, fb2 = rng.uniform(0, TWO_PI, 2)
        x1, x2 = int(rng.integers(2)), int(rng.integers(2))
        a = PosteriorGrid.uniform(128).update(x1, fb1).update(x2, fb2)
        b = PosteriorGrid.uniform(128).update(x2, fb2).update(x1, fb1)
        assert np.max(np.abs(a.weights - b.weights)) < 1e-12


@pytest.mark.parametrize("grid_size", [16, 64])
def test_brute_force_product_oracle(grid_size):
    rng = make_generator(11)
    channel = NoiseChannel.depolarizing(0.2)
    updates = [(int(rng.integers(2)), float(rng.uniform(0, TWO_PI))) for _ in range(5)]
    grid = PosteriorGrid.uniform(grid_size)
    for x, fb in updates:
        grid.update(x, fb, channel)
    # direct normalized product of prior and likelihoods
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    direct = np.full(grid_size, 1.0 / grid_size)
    for x, fb in updates:
        direct = direct * noisy_likelihood(channel, x, phis, fb)
    direct /= direct.sum()
    assert np.max(np.abs(grid.weights - direct)) < 1e-14


def test_normalization_after_many_updates():
    rng = make_generator(12)
    grid = PosteriorGrid.uniform(1024)
    for _ in range(1000):
        # resample to a fresh prior occasionally so weights stay nondegenerate
        if grid.sharpness() > 0.999999:
            grid = PosteriorGrid.uniform(1024)
        grid.update(int(rng.integers(2)), float(rng.uniform(0, TWO_PI)))
        assert abs(grid.weights.sum() - 1.0) < 1e-10
        assert np.all(grid.weights >= 0.0)


def test_shift_equivariance():
    shift = 0.7137
    rng = make_generator(13)
    updates = [(int(rng.integers(2)), float(rng.uniform(0, TWO_PI))) for _ in range(6)]
    a = PosteriorGrid.uniform(4096)
    b = PosteriorGrid.uniform(4096)
    for x, fb in updates:
        a.update(x, fb)
        b.update(x, fb + shift)
    expected = wrap_phase(a.circular_mean() + shift)
    got = b.circular_mean()
    delta = abs(math.remainder(got - expected, TWO_PI))
    # grid spacing limits how exactly an off-grid shift can be represented
    assert delta < 1e-2
    assert abs(a.sharpness() - b.sharpness()) < 1e-3


def test_shift_equivariance_exact_on_grid_multiple():
    grid_size = 4096
    shift = 16 * TWO_PI / grid_size  # exact multiple of grid spacing
    rng = make_generator(14)
    updates = [(int(rng.integers(2)), float(rng.uniform(0, TWO_PI))) for _ in range(6)]
    a = PosteriorGrid.uniform(grid_size)
    b = PosteriorGrid.uniform(grid_size)
    for x, fb in updates:
        a.update(x, fb)
        b.update(x, fb + shift)
    delta = math.remainder(b.circular_mean() - a.circular_mean() - shift, TWO_PI)
    assert abs(delta) < 1e-10
    assert abs(a.sharpness() - b.sharpness()) < 1e-10


def test_circular_mean_point_mass_and_two_points():
    grid = delta_grid(1.3, 4096)
    assert grid.circular_mean() == pytest.approx(1.3, abs=1e-3)
    assert grid.sharpness() == pytest.approx(1.0)
    assert grid.holevo_variance() == pytest.approx(0.0, abs=1e-12)

    grid_size = 8
    weights = np.zeros(grid_size)
    weights[0] = 0.5  # phi = 0
    weights[2] = 0.5  # phi = pi/2
    two = PosteriorGrid(weights)
    assert two.circular_mean() == pytest.approx(math.pi / 4)


def test_uniform_grid_has_no_mean_and_infinite_variance():
    grid = PosteriorGrid.uniform(2 ** 14)
    assert grid.sharpness() < 1e-12
    with pytest.raises(UndefinedMeanError):
        grid.circular_mean()
    with pytest.raises(InfiniteVarianceError):
        grid.holevo_variance()
    with pytest.raises(UndefinedMeanError):
        grid.gaussian_summary()


def test_gaussian_summary_recovers_narrow_wrapped_normal():
    grid_size = 2 ** 14
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    weights = wrapped_normal_weights(phis, 2.0, 0.05)
    mu, sig = PosteriorGrid(weights).gaussian_summary()
    assert mu == pytest.approx(2.0, abs=1e-6)
    assert sig == pytest.approx(0.05, rel=0.01)
    # wider densities match the exact circular width sqrt(e^{sigma^2} - 1)
    weights = wrapped_normal_weights(phis, 2.0, 0.2)
    _, sig = PosteriorGrid(weights).gaussian_summary()
    assert sig == pytest.approx(math.sqrt(math.exp(0.04) - 1.0), rel=1e-6)


def test_gaussian_summary_of_cos2_posterior():
    grid = PosteriorGrid.uniform(2 ** 12).update(0, 0.0)
    mu, sigma = grid.gaussian_summary()
    assert min(mu, TWO_PI - mu) == pytest.approx(0.0, abs=1e-9)
    assert sigma == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_sample_from_delta_and_frequencies():
    rng = make_generator(15)
    grid = delta_grid(0.7, 1024)
    loc = float(grid.phis[np.argmax(grid.weights)])
    assert all(grid.sample(rng) == loc for _ in range(20))

    # two-point distribution 0.9 / 0.1
    weights = np.zeros(64)
    weights[0], weights[32] = 0.9, 0.1
    two = PosteriorGrid(weights)
    draws = np.array([two.sample(rng) for _ in range(10 ** 5)])
    assert abs(np.mean(draws == 0.0) - 0.9) < 0.01
    assert abs(np.mean(draws == two.phis[32]) - 0.1) < 0.01

    # balanced two-point distribution over {0, pi}
    weights = np.zeros(64)
    weights[0], weights[32] = 0.5, 0.5
    balanced = PosteriorGrid(weights)
    draws = np.array([balanced.sample(rng) for _ in range(10 ** 5)])
    assert abs(np.mean(draws == 0.0) - 0.5) < 0.01


def test_sample_respects_truncated_support():
    rng = make_generator(16)
    grid = PosteriorGrid.uniform(64, support=(0.0, math.pi))
    draws = [grid.sample(rng) for _ in range(500)]
    assert all(0.0 <= d <= math.pi for d in draws)


def test_truncated_support_stays_zero_after_updates():
    grid = PosteriorGrid.uniform(256, support=(0.0, math.pi))
    outside = grid.weights == 0.0
    for fb in (0.3, 1.1, 2.0):
        grid.update(0, fb)
        assert np.all(grid.weights[outside] == 0.0)


class FixedDraw:
    """Stands in for a generator whose next uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _oracle_weights(rng, grid_size):
    """Weight sets that stress the draw's rounding margin, by name."""
    sparse = rng.random(grid_size) ** 4
    sparse[rng.random(grid_size) < 0.05] = 0.0
    # zeros after each block boundary tie its last CDF value to the next block's first ones
    for edge in range(_CDF_BLOCK, grid_size, _CDF_BLOCK):
        sparse[edge:edge + 3] = 0.0
    # long runs of zeros across each block edge
    zero_runs = rng.random(grid_size)
    for edge in range(_CDF_BLOCK, grid_size, _CDF_BLOCK):
        zero_runs[edge - _CDF_BLOCK // 3:edge + _CDF_BLOCK // 3] = 0.0
    return {
        "sparse": sparse,
        "uniform": np.ones(grid_size),  # exact ties at every k/G
        "wide": 10.0 ** rng.uniform(-300.0, 0.0, grid_size),
        "zero runs": zero_runs,
    }


@pytest.mark.parametrize(
    "grid_size",
    # many blocks from 8191 on, and the default grid
    [2, 3, 1000, _CDF_BLOCK - 1, _CDF_BLOCK, _CDF_BLOCK + 1, 2 * _CDF_BLOCK, 3 * _CDF_BLOCK + 5,
     8191, 8192, 8193, 16384, 24581, 2 ** 17],
)
def test_sample_matches_full_cdf_oracle(grid_size):
    rng = make_generator(17)
    for kind, weights in _oracle_weights(rng, grid_size).items():
        grid = PosteriorGrid(weights)
        cdf = np.cumsum(grid.weights)
        randoms = rng.random(20).tolist()
        draws = [0.0, 1.0 - 2.0 ** -53, *randoms, *(np.arange(1, 4) / 4 * cdf[-1]).tolist()]
        # at, just below and just above the prefix sums around a crossing
        crossings = [cdf_draw_index(grid.weights, u) for u in randoms[:4]]
        near = {j for i in crossings for j in range(i - 2, i + 3)}
        edges = range(_CDF_BLOCK - 1, grid_size, _CDF_BLOCK)
        for j in sorted(near.union(edges, [grid_size - 1])):
            if 0 <= j < grid_size:
                at = cdf[j]
                draws += [float(np.nextafter(at, -1.0)), float(at), float(np.nextafter(at, 2.0))]
        for u in draws:
            want = grid.phis[cdf_draw_index(grid.weights, u)]
            assert grid.sample(FixedDraw(u)) == want, (kind, u)
        # a draw at or past the last prefix sum clamps to the last point
        for u in (float(cdf[-1]), float(np.nextafter(cdf[-1], 2.0))):
            assert grid.sample(FixedDraw(u)) == grid.phis[-1], (kind, u)


def _count_exact_draws(monkeypatch):
    calls = []
    exact = posterior._cdf_index
    monkeypatch.setattr(posterior, "_cdf_index", lambda *a: calls.append(1) or exact(*a))
    return calls


def test_a_draw_on_a_prefix_sum_takes_the_full_cumulative_sum(monkeypatch):
    calls = _count_exact_draws(monkeypatch)
    grid = PosteriorGrid(make_generator(19).random(4096))
    cdf = np.cumsum(grid.weights)
    for j in (0, 700, _CDF_BLOCK - 1, _CDF_BLOCK, 4000):
        before = len(calls)
        u = float(cdf[j])
        assert grid.sample(FixedDraw(u)) == grid.phis[cdf_draw_index(grid.weights, u)]
        assert len(calls) == before + 1


def test_a_pgh_run_at_the_default_grid_draws_without_the_full_cumulative_sum(monkeypatch):
    calls = _count_exact_draws(monkeypatch)
    run_estimation(1.0, 100, "pgh", seed=5)
    # a uniform lands within the rounding margin of the two prefix sums
    # that bracket it with probability about 4 * 2^17 * 2^-52 per draw
    assert len(calls) <= 1


@pytest.mark.parametrize("channel", [IDEAL, NoiseChannel.depolarizing(0.1), NoiseChannel.phase(0.3)])
@pytest.mark.parametrize("support", [None, (0.0, math.pi), (1.0, 2.5)])
def test_update_keeps_the_bits_of_the_full_grid_product(channel, support):
    rng = make_generator(18)
    grid = PosteriorGrid.uniform(4096, support=support)
    weights = grid.weights.copy()
    for _ in range(12):
        x, fb = int(rng.integers(2)), float(rng.uniform(0, TWO_PI))
        grid.update(x, fb, channel)
        weights = weights * noisy_likelihood(channel, x, grid.phis, fb)
        weights /= weights.sum()
        assert np.array_equal(grid.weights, weights)
        assert not np.signbit(grid.weights).any()


@pytest.mark.parametrize("support", [None, (0.0, math.pi), (1.0, 2.5)])
def test_repeated_updates_keep_the_bits_of_the_full_grid_product(support):
    # (outcome, feedback, channel) repeats while the outcome and the channel
    # switch between repeats, so a kept likelihood must match all three
    depolarizing = NoiseChannel.depolarizing(0.1)
    steps = [
        (0, 0.0, IDEAL), (0, 0.0, IDEAL), (1, 0.0, IDEAL), (0, 0.0, IDEAL),
        (0, 0.0, depolarizing), (0, 0.0, depolarizing), (1, 0.0, depolarizing),
        (1, 0.0, IDEAL), (0, 0.0, depolarizing), (0, 1.3, IDEAL), (0, 1.3, IDEAL),
        (1, 1.3, IDEAL), (0, 0.0, IDEAL), (0, 0.0, IDEAL), (1, 0.0, IDEAL),
    ]
    grid = PosteriorGrid.uniform(4096, support=support)
    weights = grid.weights.copy()
    for x, fb, channel in steps:
        grid.update(x, fb, channel)
        weights = weights * noisy_likelihood(channel, x, grid.phis, fb)
        weights /= weights.sum()
        assert np.array_equal(grid.weights, weights), (x, fb, channel)
        assert not np.signbit(grid.weights).any()


def test_block_summaries_equal_lone_grids_after_every_update():
    rng = make_generator(23)
    block = PosteriorGrid.uniform(256, rows=4)
    lone = [PosteriorGrid.uniform(256) for _ in range(4)]
    for step in range(6):
        xs, fbs = rng.integers(0, 2, 4), rng.uniform(0, 2 * math.pi, 4)
        block.update(xs, fbs)
        for grid, x, fb in zip(lone, xs, fbs):
            grid.update(int(x), float(fb))
        summaries = [row.gaussian_summary() for row in block.rows]
        assert [row.gaussian_summary() for row in block.rows] == summaries
        assert summaries == [grid.gaussian_summary() for grid in lone]
    # a zero resultant keeps no summary: every call raises
    flat = PosteriorGrid.uniform(256)
    for _ in range(2):
        with pytest.raises(UndefinedMeanError):
            flat.gaussian_summary()


@pytest.mark.parametrize("channel", [IDEAL, NoiseChannel.depolarizing(0.1), NoiseChannel.phase(0.3)])
@pytest.mark.parametrize("support", [None, (0.0, math.pi)])
def test_block_rows_update_like_lone_grids(channel, support):
    # one feedback per row, then a shared one repeated, as bayes-fixed gives
    rng = make_generator(19)
    for rows in (5, 1):
        block = PosteriorGrid.uniform(512, support=support, rows=rows)
        lone = [PosteriorGrid.uniform(512, support=support) for _ in range(rows)]
        for step in range(14):
            xs = rng.integers(0, 2, rows)
            fbs = rng.uniform(0, TWO_PI, rows) if step < 7 else np.zeros(rows)
            block.update(xs, fbs if step < 7 else 0.0, channel)
            for grid, x, fb in zip(lone, xs, fbs):
                grid.update(int(x), float(fb), channel)
            for row, grid in zip(block.rows, lone):
                assert row.weights.tobytes() == grid.weights.tobytes()
                assert row.gaussian_summary() == grid.gaussian_summary()
                assert np.shares_memory(row.weights, block.weights)
        twin = block.copy()
        assert [r.weights.tobytes() for r in twin.rows] == [r.weights.tobytes() for r in block.rows]
        assert not np.shares_memory(twin.weights, block.weights)


def test_a_shared_feedback_keeps_its_noiseless_likelihood_until_it_changes(monkeypatch):
    calls = []
    likelihood = posterior.noisy_likelihood
    monkeypatch.setattr(
        posterior, "noisy_likelihood", lambda *a, **k: calls.append(1) or likelihood(*a, **k)
    )
    grid = PosteriorGrid.uniform(64)
    for x, fb in zip([0, 0, 1, 0, 0], [0.4, 0.4, 0.4, 1.1, 0.4]):
        grid.update(x, fb)
    # feedback a: p(0) evaluated once, then serves both outcomes; b drops it
    # and evaluates its own; back at a, b's is dropped
    assert len(calls) == 3
    assert grid._key == 0.4 and grid._kept.shape == (64,)


@pytest.mark.parametrize("channel", [IDEAL, NoiseChannel.depolarizing(0.1), NoiseChannel.phase(0.3)])
@pytest.mark.parametrize("rows", [None, 5])
def test_a_shared_feedback_update_is_the_bits_of_a_fresh_likelihood(channel, rows):
    # bayes-fixed's update: Phi = 0 on a [0, pi] prior, each outcome's law
    # built from the kept p(0); a block mixes outcomes within a step
    rng = make_generator(27)
    grid = PosteriorGrid.uniform(512, support=(0.0, math.pi), rows=rows)
    span = grid._span
    phis = grid.phis[span]
    seen, mixed = set(), False
    for step in range(8):
        xs = rng.integers(0, 2, rows or 1)
        want = np.atleast_2d(grid.weights).copy()
        for w, x in zip(want, xs):
            w[span] = w[span] * noisy_likelihood(channel, int(x), phis, 0.0)
            w /= w.sum()
        grid.update(xs if rows else int(xs[0]), 0.0, channel)
        assert np.atleast_2d(grid.weights).tobytes() == want.tobytes()
        seen.update(xs.tolist())
        mixed |= 0 < xs.sum() < len(xs)
    assert seen == {0, 1} and mixed == (rows is not None)


@pytest.mark.parametrize("size", [2, 3, 6, 7, 1000, 1024, 2 ** 17])
@pytest.mark.parametrize("rows", [None, 3])
def test_a_flat_prior_is_the_bits_of_normalised_constant_weights(size, rows):
    # normalising moves 1/G for some G (6, 7 and 1000 here), so it must stay
    shape = (size,) if rows is None else (rows, size)
    grid = PosteriorGrid.uniform(size, rows=rows)
    want = PosteriorGrid(np.full(shape, 1.0 / size))
    assert grid.weights.tobytes() == want.weights.tobytes()
    assert [(r.resultant(), r._summary) for r in grid.rows] == [
        (r.resultant(), r._summary) for r in want.rows
    ]


def test_block_rows_are_their_own_grids():
    grid = PosteriorGrid.uniform(8)
    assert grid.rows == (grid,)
    block = PosteriorGrid.uniform(8, support=(0.0, math.pi), rows=3)
    assert block.weights.shape == (3, 8) and block.grid_size == 8
    assert [r.weights.tolist() for r in block.rows] == [[0.2] * 5 + [0.0] * 3] * 3
    with pytest.raises(ValueError):
        PosteriorGrid.uniform(8, rows=0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([None, (0.0, math.pi), (1.0, 2.5)]),
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(st.sampled_from([0.0, 1.3]), st.floats(0.0, TWO_PI)),
            st.sampled_from([IDEAL, NoiseChannel.depolarizing(0.1), NoiseChannel.phase(0.3)]),
        ),
        max_size=40,
    ),
)
def test_updates_keep_the_weights_a_distribution_on_the_support(support, steps):
    grid = PosteriorGrid.uniform(1024, support=support)
    outside = grid.weights == 0.0
    for x, fb, channel in steps:
        try:
            grid.update(x, fb, channel)
        except DegeneratePosteriorError:
            return
        assert not np.signbit(grid.weights).any()
        assert np.all(grid.weights[outside] == 0.0)
        assert abs(grid.weights.sum() - 1.0) <= 1e-15


def test_copy_updates_like_the_original():
    grid = PosteriorGrid.uniform(256, support=(0.0, math.pi))
    for x in (0, 0, 1):
        grid.update(x, 0.0)
    twin = grid.copy()
    for x in (1, 0, 0):
        grid.update(x, 0.0)
        twin.update(x, 0.0)
    assert np.array_equal(twin.weights, grid.weights)


def test_bound_views_follow_every_re_bind():
    # an update reads views bound when the grid takes its weights: a
    # support's re-bind, a copy and user weights must each point them at
    # their own arrays, so every grid matches lone twins bit for bit
    rng = make_generator(41)
    size, rows, half = 256, 3, (0.0, math.pi)
    user = rng.random((rows, size))
    user[:, 40:90] = 0.0
    first = (np.array([0, 1, 0]), np.array([0.3, 2.2, 4.0]))

    def half_twins():
        twins = [PosteriorGrid.uniform(size, support=half) for _ in range(rows)]
        for twin, x, fb in zip(twins, *first):
            twin.update(int(x), float(fb))
        return twins

    support = PosteriorGrid.uniform(size, support=half, rows=rows).update(*first)
    grids = [
        (support, half_twins()),
        (support.copy(), half_twins()),
        (PosteriorGrid(user), [PosteriorGrid(w) for w in user]),
    ]
    for _ in range(5):
        xs, fbs = rng.integers(0, 2, rows), rng.uniform(0, TWO_PI, rows)
        for grid, twins in grids:
            grid.update(xs, fbs)
            for twin, x, fb in zip(twins, xs, fbs):
                twin.update(int(x), float(fb))
    outside = [support.phis > math.pi + 1e-9] * 2 + [user[0] == 0.0]
    for (grid, twins), zeros in zip(grids, outside):
        for row, twin in zip(grid.rows, twins):
            assert [w.hex() for w in row.weights.tolist()] == [
                w.hex() for w in twin.weights.tolist()
            ]
            assert np.shares_memory(row.weights, grid.weights)
        assert all(w.hex() == "0x0.0p+0" for w in grid.weights[:, zeros].ravel().tolist())
    with pytest.raises(AttributeError):
        support.weights = user


def test_summaries_share_one_resultant_per_update(monkeypatch):
    calls = []
    summarise = PosteriorGrid._summarise
    monkeypatch.setattr(PosteriorGrid, "_summarise", lambda self: calls.append(1) or summarise(self))
    # one pass at construction and one per update, none per summary asked
    grid = PosteriorGrid.uniform(256).update(0, 0.4)
    grid.gaussian_summary(), grid.circular_mean(), grid.sharpness(), grid.holevo_variance()
    assert len(calls) == 2
    assert grid.copy().sharpness() == grid.sharpness()
    assert len(calls) == 3
    grid.update(1, 2.0)
    mu, _ = grid.gaussian_summary()
    grid.resultant(), grid.sharpness()
    assert len(calls) == 4
    z = grid.resultant()
    assert mu == wrap_phase(math.atan2(z.imag, z.real))


def test_a_zero_resultant_row_in_a_block_raises_alone():
    # row 0 takes outcome 0 then outcome 1 at one feedback: its posterior is
    # sin^2(phi - 0.7), whose resultant is zero
    steps = [([0, 1, 0, 0], [0.7, 1.9, 3.1, 4.4]), ([1, 1, 0, 1], [0.7, 2.8, 5.0, 0.2])]
    block = PosteriorGrid.uniform(256, rows=4)
    lone = [PosteriorGrid.uniform(256) for _ in range(4)]
    for xs, fbs in steps:
        block.update(np.array(xs), np.array(fbs))
        for grid, x, fb in zip(lone, xs, fbs):
            grid.update(x, fb)
    # each update sets every row's summary with its weights: the zero row
    # has none, so asking raises every time, and the other rows keep theirs
    for _ in range(2):
        with pytest.raises(UndefinedMeanError):
            block.rows[0].gaussian_summary()
    with pytest.raises(UndefinedMeanError):
        lone[0].gaussian_summary()
    for row, grid in zip(block.rows, lone):
        assert row.sharpness().hex() == grid.sharpness().hex()
    for row, grid in zip(block.rows[1:], lone[1:]):
        assert [v.hex() for v in row.gaussian_summary()] == [
            v.hex() for v in grid.gaussian_summary()
        ]


@pytest.mark.parametrize("rows", [1, 3])
def test_per_posterior_calls_on_a_block_point_to_its_rows(rows, tmp_path):
    block = PosteriorGrid.uniform(64, rows=rows).update(np.zeros(rows, int), np.full(rows, 0.4))
    rng = make_generator(2)
    state = rng.bit_generator.state
    path = tmp_path / "block.csv"
    calls = [getattr(block, name) for name in
             ("resultant", "sharpness", "gaussian_summary", "holevo_variance", "circular_mean")]
    calls += [lambda: block.sample(rng), lambda: block.dump_csv(path)]
    for call in calls:
        with pytest.raises(ValueError, match=r"grid\.rows"):
            call()
    assert not path.exists()
    assert rng.bit_generator.state == state
    lone = PosteriorGrid.uniform(64).update(0, 0.4)
    assert [row.gaussian_summary() for row in block.rows] == [lone.gaussian_summary()] * rows
    # a row kept past its block still summarises itself
    orphan = PosteriorGrid.uniform(64, rows=rows).update(np.zeros(rows, int), np.full(rows, 0.4))
    orphan = orphan.rows[-1]
    assert orphan.gaussian_summary() == lone.gaussian_summary()


class _Referable(PosteriorGrid):
    # PosteriorGrid has no __weakref__ slot; this adds one to watch a block go
    __slots__ = ("__weakref__",)


def test_a_block_and_its_rows_form_no_reference_cycle():
    # rows hold views of the block's arrays but no reference to the block,
    # so the block goes with its last reference, without the cycle collector
    steps = (np.array([0, 1, 1, 0]), np.array([0.3, 1.7, 4.2, 5.5]))
    block = _Referable.uniform(256, rows=4).update(*steps)
    twin = PosteriorGrid.uniform(256).update(1, 4.2)
    kept, ref = block.rows[2], weakref.ref(block)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del block
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    for got, want in [(kept.gaussian_summary(), twin.gaussian_summary()),
                      ([kept.sharpness()], [twin.sharpness()])]:
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("size", [64, 1024])
def test_summaries_exist_from_construction(size):
    for row in PosteriorGrid.uniform(size, rows=3).rows:
        with pytest.raises(UndefinedMeanError):
            row.gaussian_summary()
    half = (0.0, math.pi)
    lone = PosteriorGrid.uniform(size, support=half)
    mu, _ = lone.gaussian_summary()
    assert abs(mu - math.pi / 2) <= 1e-12
    assert abs(lone.sharpness() - 2 / math.pi) <= 2 / size
    for row in PosteriorGrid.uniform(size, support=half, rows=3).rows:
        assert [v.hex() for v in row.gaussian_summary()] == [
            v.hex() for v in lone.gaussian_summary()
        ]
        assert row.sharpness().hex() == lone.sharpness().hex()


# Checks in a fresh interpreter, so that the BLAS thread count set in its
# environment holds: the block's batched resultants against np.dot per row.
_BLAS_CHILD = """
import numpy as np
from mzphase.posterior import PosteriorGrid, _grid_arrays

rng = np.random.default_rng(31)
for rows, size in [(32, 1024), (7, 1023), (1, 2 ** 17)]:
    _, phasors = _grid_arrays(size)
    for grid in (PosteriorGrid(rng.random((rows, size))), PosteriorGrid(rng.random(size))):
        got = [row.resultant() for row in grid.rows]
        want = [complex(np.dot(row.weights, phasors)) for row in grid.rows]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (rows, size)
print("ok")
"""


@pytest.mark.parametrize("threads", ["1", None])
def test_batched_resultants_are_the_bits_of_a_dot_per_row(threads):
    # perfbench runs with one BLAS thread and the goldens were recorded
    # with the default count; at 2^17 the count can move np.dot's bits,
    # so each setting must give the same bits on both paths
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    root = str(Path(mzphase.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _BLAS_CHILD], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


@pytest.mark.parametrize("size", [2, 3, 64, 1000, 1024, 2 ** 17])
def test_grid_arrays_are_the_bits_of_their_formulas(size):
    phis, phasors = posterior._grid_arrays(size)
    want = np.arange(size) * (TWO_PI / size)
    assert phis.tobytes() == want.tobytes()
    assert phasors.tobytes() == np.exp(1j * want).tobytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_building_the_grid_arrays_takes_no_more_than_they_keep():
    # 3 MiB kept at 2^17; building them from temporaries peaked at 5 MiB
    peak = _traced_peak(lambda: posterior._grid_arrays.__wrapped__(2 ** 17))
    assert peak < 3.5 * 2 ** 20


@pytest.mark.parametrize("strategy", ["go", "pgh", "bayes-fixed"])
def test_a_default_grid_run_memory_peak(strategy):
    # above the cached grid arrays: 1 MiB of weights and a 2 MiB complex
    # scratch, and for bayes-fixed its kept half-grid p(0). Casting the
    # weights for the resultant took 1 MiB more, as did a normalised copy
    # of the flat prior beside it and a second kept likelihood. A small run
    # first pays the one-off costs of a process's first run.
    posterior._grid_arrays(2 ** 17)
    run_estimation(1.0, 3, strategy, grid_size=64, seed=5)
    peak = _traced_peak(lambda: run_estimation(1.0, 3, strategy, grid_size=2 ** 17, seed=5))
    assert peak < (3.75 if strategy == "bayes-fixed" else 3.25) * 2 ** 20


def test_dump_csv(tmp_path):
    grid = PosteriorGrid.uniform(8)
    path = tmp_path / "posterior.csv"
    grid.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "phi,weight"
    assert len(lines) == 9
    phi0, w0 = lines[1].split(",")
    assert float(phi0) == 0.0
    assert float(w0) == 0.125


def _csv_module_dump(grid, path):
    # the csv module's default dialect: the reference for dump_csv's bytes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "weight"])
        for phi, w in zip(grid.phis, grid.weights):
            writer.writerow([repr(float(phi)), repr(float(w))])


def _last_posterior(strategy, grid_size, n=20):
    grids = {}
    run_estimation(1.0, n, strategy, grid_size=grid_size, seed=7,
                   snapshot=lambda k, grid: grids.update(last=grid))
    return grids["last"]


@pytest.mark.parametrize("strategy, grid_size", [("go", 2 ** 17), ("bayes-fixed", 2 ** 17), ("go", 3)])
def test_dump_csv_writes_the_bytes_of_the_csv_module(strategy, grid_size, tmp_path):
    grid = _last_posterior(strategy, grid_size)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    grid.dump_csv(got)
    _csv_module_dump(grid, want)
    assert got.read_bytes() == want.read_bytes()
    if strategy == "bayes-fixed":  # the truncated prior's exact +0.0 outside [0, pi]
        outside = grid.weights[grid.phis > math.pi]
        assert outside.size and not outside.any() and not np.signbit(outside).any()
        assert got.read_bytes().endswith(b",0.0\r\n")


def test_dump_csv_builds_no_copy_of_the_grid(tmp_path):
    # a list of the 2^17 rows' floats alone would take about 8 MiB
    grid = _last_posterior("go", 2 ** 17, n=3)
    path = tmp_path / "posterior.csv"
    assert _traced_peak(lambda: grid.dump_csv(path)) < 2 ** 20
