"""Discretized Bayesian posterior over the unknown phase.

The posterior lives on a regular grid of G points phi_j = 2*pi*j/G and
is represented by non-negative weights that sum to one. Integrals are
Riemann sums over the grid points; for the smooth periodic integrands
that appear here the sums converge spectrally fast.

The default grid size is 2**17, chosen for fidelity runs; tests and
quick scans can use much smaller grids.

A grid owns one scratch array of its size. An update evaluates the
likelihood into it over the index span of the support only (half the
grid for a [0, pi] prior) and divides by the total over that span only,
so weights outside it stay exactly +0.0 (0.0 / total is +0.0) and the
likelihood allocates nothing. The normalising sum still runs over every
weight, because its pairwise order depends on the length. The PGH draw
builds its cumulative sum in the same array.

An update that repeats the feedback and channel of the one before it
evaluates the likelihood of its outcome into an array of its own and
keeps it; while that key stands, later updates multiply the kept array
in, and a new feedback or channel drops it. The same ufuncs on the same
inputs give the same array, so no bit changes. Only a repeated feedback
keeps anything, at most one span-sized array per outcome: bayes-fixed's
Phi = 0 at every probe, and on a coarse grid the odd pgh or go step
(pgh drawing the same point twice in a row). Any other update pays one
key comparison.

The resultant is computed once per update and kept until the next, so
the summaries taken between two updates share it.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circular import TWO_PI, wrap_phase
from .interferometer import IDEAL, noisy_likelihood

DEFAULT_GRID_SIZE = 2 ** 17

_RESULTANT_EPS = 1e-12

# entries of the cumulative sum built per step of PosteriorGrid.sample
_CDF_BLOCK = 8192


class DegeneratePosteriorError(Exception):
    """All weights vanished after an update (likelihood zero on the support)."""


class UndefinedMeanError(Exception):
    """The resultant vector is numerically zero; no circular mean exists."""


class InfiniteVarianceError(Exception):
    """Sharpness is zero, so the Holevo variance diverges."""


class GaussianSummary(NamedTuple):
    """Gaussian model (mu, sigma) of a posterior: circular mean and
    square root of the Holevo variance."""

    mu: float
    sigma: float


@lru_cache(maxsize=8)
def _grid_arrays(grid_size):
    phis = np.arange(grid_size) * (TWO_PI / grid_size)
    phasors = np.exp(1j * phis)
    phis.setflags(write=False)
    phasors.setflags(write=False)
    return phis, phasors


class PosteriorGrid:
    """Probability weights over the phase grid, optionally restricted to
    a closed sub-interval of [0, 2*pi). Only update changes the
    weights, since the resultant is kept from one update to the next."""

    __slots__ = ("weights", "_span", "_scratch", "_resultant", "_key", "_kept")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size < 2:
            raise ValueError("weights must be a 1-D array with at least 2 entries")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0.0:
            raise DegeneratePosteriorError("weights sum to zero")
        self.weights = weights / total
        self._span = slice(0, weights.size)
        self._scratch = np.empty_like(self.weights)
        self._resultant = None
        self._key = None  # (feedback, channel) of the last update
        self._kept = {}  # outcome == 0 -> its likelihood under self._key

    @classmethod
    def uniform(cls, grid_size=DEFAULT_GRID_SIZE, support=None):
        """Flat prior over the whole circle, or over a closed interval
        [lo, hi] when support is given."""
        if grid_size < 2:
            raise ValueError(f"grid size must be >= 2, got {grid_size}")
        if support is None:
            return cls(np.full(grid_size, 1.0 / grid_size))
        lo, hi = support
        if not 0.0 <= lo < hi:
            raise ValueError(f"invalid support interval [{lo}, {hi}]")
        phis, _ = _grid_arrays(grid_size)
        span = slice(
            int(np.searchsorted(phis, lo - 1e-12, side="left")),
            int(np.searchsorted(phis, hi + 1e-12, side="right")),
        )
        if span.start >= span.stop:
            raise ValueError(f"support [{lo}, {hi}] contains no grid point")
        weights = np.zeros(grid_size)
        weights[span] = 1.0
        grid = cls(weights)
        grid._span = span
        return grid

    @property
    def grid_size(self):
        return self.weights.size

    @property
    def phis(self):
        return _grid_arrays(self.grid_size)[0]

    def copy(self):
        """An independent grid with the same weights; it keeps no likelihood."""
        g = PosteriorGrid.__new__(PosteriorGrid)
        g.weights = self.weights.copy()
        g._span = self._span
        g._scratch = np.empty_like(self._scratch)
        g._resultant = self._resultant
        g._key, g._kept = None, {}
        return g

    def update(self, outcome, feedback, channel=IDEAL):
        """Multiply in the outcome likelihood and renormalize, in place.

        channel is the likelihood model assumed by the updater; callers
        default it to the ideal channel even when the samples come from
        a noisy one, so the protocol stays noise-unaware unless asked.
        """
        span, key = self._span, (feedback, channel)
        if key != self._key:  # a new key keeps nothing until it repeats
            self._key, self._kept = key, {}
            like = noisy_likelihood(
                channel, outcome, self.phis[span], feedback, out=self._scratch[span]
            )
        else:
            like = self._kept.get(outcome == 0)
            if like is None:
                out = np.empty(span.stop - span.start)
                like = self._kept[outcome == 0] = noisy_likelihood(
                    channel, outcome, self.phis[span], feedback, out=out
                )
        inside = self.weights[span]
        inside *= like
        self._resultant = None
        total = self.weights.sum()
        if total <= 0.0:
            raise DegeneratePosteriorError(
                "posterior vanished: likelihood is zero across the support"
            )
        inside /= total
        return self

    def resultant(self):
        """Complex mean resultant sum(w_j e^{i phi_j}), kept until the
        next update."""
        _, phasors = _grid_arrays(self.grid_size)
        self._resultant = complex(np.dot(self.weights, phasors))
        return self._resultant

    def _kept_resultant(self):
        return self.resultant() if self._resultant is None else self._resultant

    def sharpness(self):
        """|sum w_j e^{i phi_j}|, 1 for a point mass, 0 when fully spread."""
        return abs(self._kept_resultant())

    def circular_mean(self):
        return self.gaussian_summary().mu

    def holevo_variance(self):
        s = self.sharpness()
        if s < _RESULTANT_EPS:
            raise InfiniteVarianceError("sharpness is zero")
        return 1.0 / (s * s) - 1.0

    def gaussian_summary(self):
        """(mu, sigma) with mu the circular mean and sigma^2 the Holevo
        variance; for narrow posteriors this matches a Gaussian fit."""
        z = self._kept_resultant()
        r = abs(z)
        if r < _RESULTANT_EPS:
            raise UndefinedMeanError("zero resultant vector")
        mu = wrap_phase(math.atan2(z.imag, z.real))
        sigma = math.sqrt(max(1.0 / (r * r) - 1.0, 0.0))
        return GaussianSummary(mu, sigma)

    def sample(self, rng):
        """Draw a grid point with probability equal to its weight.

        The cumulative sum is built block by block, each block seeded
        with the running total, up to the first block that passes the
        draw. cumsum adds strictly in sequence, so the index is the one
        the full cumulative sum gives, clamped to the last point.
        """
        u = rng.random()
        idx = self.grid_size - 1
        total = 0.0
        for start in range(0, self.grid_size, _CDF_BLOCK):
            cdf = self._scratch[start:start + _CDF_BLOCK]
            cdf[:] = self.weights[start:start + _CDF_BLOCK]
            cdf[0] += total
            np.cumsum(cdf, out=cdf)
            total = cdf[-1]
            if total > u:
                idx = start + int(np.searchsorted(cdf, u, side="right"))
                break
        return float(self.phis[idx])

    def dump_csv(self, path):
        """Write the snapshot as CSV with columns (phi, weight)."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phi", "weight"])
            for phi, w in zip(self.phis, self.weights):
                writer.writerow([repr(float(phi)), repr(float(w))])
