"""Discretized Bayesian posterior over the unknown phase.

The posterior lives on a regular grid of G points phi_j = 2*pi*j/G and
is represented by non-negative weights that sum to one. Integrals are
Riemann sums over the grid points; for the smooth periodic integrands
that appear here the sums converge spectrally fast.

The default grid size is 2**17, chosen for fidelity runs; tests and
quick scans can use much smaller grids.

A grid holds one posterior, or a block of independent posteriors on
the same grid and support, one per row of a (rows, G) weight array. A
block advances all its rows with one set of array operations per update,
and serves each row's summaries and draws through a row grid whose
weights and scratch are views of the block's. Every ufunc acts element
by element, the normalising sum of a row is the pairwise sum a lone row
takes, and the block's resultants come from one batched product whose
per-row dot product is the BLAS call np.dot makes for a lone row, so a
row's bits do not depend on the block it sits in. The likelihood's
outcome-1 pass runs row by row: at 2^17 a ufunc `where=` mask took
about 4x the time of an unmasked pass.

A grid holds its weights and one complex scratch array of their shape,
and its real scratch is the first half of those bytes; a grid given a
shared feedback also keeps one likelihood over its support (see below).
A flat prior is normalised in place, so building one takes no more
than the grid keeps. The resultant's pass casts the weights into the
complex scratch for np.matmul, which would otherwise allocate that
cast itself; by then an update has used up the likelihood in the real
scratch, and a draw's cumulative sum lives only between updates, so
the shared bytes are never needed twice at once.
An update evaluates the likelihood over the index span of the support
only (half the grid for a [0, pi] prior) and divides by the total over
that span only, so weights outside it stay exactly +0.0 (0.0 / total
is +0.0). The normalising sum still runs over every weight, because
its pairwise order depends on the length. The PGH draw finds its point
from block sums and one block's cumulative sum, built in the real
scratch, and builds the full sequential cumulative sum there only when
rounding could move the point. A grid binds the views an update reads
once, when it takes its weights (at construction and copy): the span
of the weights and of the real scratch as rows, and the span's phases.
An update builds no view, and the weights array is changed in place,
never replaced.

An update reads a lone posterior as a block of one. Given one feedback
phase per row, as go and pgh give, it evaluates the likelihood into the
real scratch and keeps nothing. Given one feedback phase shared by every
row, as bayes-fixed's Phi = 0, it keeps the noiseless p(0) over the
support in an array of its own while that feedback stands; it depends on
no channel, and a new feedback replaces it. Each update builds the law
of each outcome present once, from p(0), in the real-scratch row of the
first row with that outcome (the ideal outcome 0 is p(0) itself), by the
passes noisy_likelihood takes after its p(0). The same ufuncs on the
same inputs give the same array, so no bit changes, and a bayes-fixed
run evaluates its likelihood once. Each step then pays the passes
after p(0) again: 1 - p0 for a click, and the fringe's two under noise.

A grid's resultants and Gaussian summaries are set with its weights: at
construction, copy and every update, one pass takes every row's, with
one np.matmul for the resultants and then one loop of the scalar math
per row (numpy's abs and arctan2 round differently from abs and
math.atan2). The summaries only read what the pass stored, and a zero
resultant stores no summary, so every call raises. A block sets its
rows' summaries and its rows hold no reference to it.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circular import TWO_PI, wrap_phase
from .interferometer import IDEAL, _click_law, noisy_likelihood

DEFAULT_GRID_SIZE = 2 ** 17

_RESULTANT_EPS = 1e-12

# weights per block sum of PosteriorGrid.sample's fast path
_CDF_BLOCK = 1024

_EPS = np.finfo(float).eps  # 2^-52, twice the unit roundoff


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


def _cdf_index(weights, u, cdf):
    """The draw's definition: the index of the first entry of the full
    sequential cumulative sum of weights (built in cdf) above u, clamped
    to the last point."""
    weights.cumsum(out=cdf)
    return min(int(cdf.searchsorted(u, side="right")), len(weights) - 1)


@lru_cache(maxsize=8)
def _grid_arrays(grid_size):
    # built in place: the same bits as arange(G) * (2 pi / G) and
    # exp(1j * phis), since the real part of 1j * phi is +0
    phis = np.arange(grid_size, dtype=float)
    phis *= TWO_PI / grid_size
    phasors = np.zeros(grid_size, dtype=complex)
    phasors.imag = phis
    np.exp(phasors, out=phasors)
    phis.setflags(write=False)
    phasors.setflags(write=False)
    return phis, phasors


class PosteriorGrid:
    """Probability weights over the phase grid, optionally restricted to
    a closed sub-interval of [0, 2*pi). Only update changes the
    weights, since the summaries are set with them.

    A grid holds one posterior (weights of shape (G,)) or a block of
    independent posteriors, one per row (weights of shape (rows, G)),
    on the same support. One update advances every row. The summaries,
    draws and dumps are per posterior, and a block raises ValueError for
    them: take them from `rows`, which holds a grid per row whose weights
    and scratch are views of the block's. A one-posterior grid is its
    own only row.
    """

    __slots__ = (
        "_weights", "_span", "_cast", "_scratch", "_inside", "_out", "_phis", "_resultant",
        "_summary", "_key", "_kept", "_views",
    )

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim not in (1, 2) or weights.shape[-1] < 2:
            raise ValueError("weights must be a 1-D array (or a 2-D block of rows) "
                             "with at least 2 entries")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum(axis=-1, keepdims=True)
        if np.any(total <= 0.0):
            raise DegeneratePosteriorError("weights sum to zero")
        weights = weights / total
        self._bind(weights, slice(0, weights.shape[-1]), np.empty(weights.shape, complex))
        self._summarise()

    def _bind(self, weights, span, scratch):
        """Take over normalised weights, the support span and a complex
        scratch array of their shape, and the views an update reads: the
        span's weights and real scratch as rows, and its phases. The real
        scratch is the first half of the complex one's bytes, a contiguous
        array of the weights' shape. A block makes its row grids on views
        of both arrays. Every caller then sets the summaries with
        _summarise, a block its rows' (a block has none of its own)."""
        self._weights, self._span, self._cast = weights, span, scratch
        self._scratch = scratch.reshape(-1).view(float)[:weights.size].reshape(weights.shape)
        self._inside = np.atleast_2d(weights)[:, span]
        self._out = np.atleast_2d(self._scratch)[:, span]
        self._phis = _grid_arrays(weights.shape[-1])[0][span]
        self._resultant = self._summary = None
        self._key = self._kept = None  # a shared feedback and its noiseless p(0)
        self._views = ()
        if weights.ndim == 2:
            self._views = tuple(PosteriorGrid.__new__(PosteriorGrid) for _ in weights)
            for row, w, s in zip(self._views, weights, scratch):
                row._bind(w, span, s)

    def _summarise(self):
        """Set every row's resultant and Gaussian summary from the
        weights; a zero resultant sets no summary."""
        _, phasors = _grid_arrays(self.grid_size)
        np.copyto(self._cast, self._weights)  # the cast np.matmul would allocate
        zs = np.matmul(np.atleast_2d(self._cast)[:, None, :], phasors[:, None])
        for row, z in zip(self.rows, zs.ravel().tolist()):
            r = abs(z)
            row._resultant, row._summary = z, None
            if r >= _RESULTANT_EPS:
                mu = wrap_phase(math.atan2(z.imag, z.real))
                row._summary = GaussianSummary(mu, math.sqrt(max(1.0 / (r * r) - 1.0, 0.0)))

    @classmethod
    def uniform(cls, grid_size=DEFAULT_GRID_SIZE, support=None, rows=None):
        """Flat prior over the whole circle, or over a closed interval
        [lo, hi] when support is given; with rows, a block of that many."""
        if grid_size < 2:
            raise ValueError(f"grid size must be >= 2, got {grid_size}")
        if rows is not None and rows < 1:
            raise ValueError(f"row count must be >= 1, got {rows}")
        shape = (grid_size,) if rows is None else (rows, grid_size)
        if support is None:
            # normalised in place: the bits of __init__'s weights / total
            span, weights = slice(0, grid_size), np.full(shape, 1.0 / grid_size)
            weights /= weights.sum(axis=-1, keepdims=True)
        else:
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
            # 1/count is the bits of normalising ones: their pairwise sum is exact
            weights = np.zeros(shape)
            weights[..., span] = 1.0 / (span.stop - span.start)
        grid = cls.__new__(cls)
        grid._bind(weights, span, np.empty(shape, complex))
        grid._summarise()
        return grid

    @property
    def weights(self):
        """The normalised weights, read-only as an attribute: the views
        bound at construction point into this array, so it is changed
        in place (by update) and never replaced."""
        return self._weights

    @property
    def rows(self):
        """One grid per posterior: the row views of a block, or (self,)."""
        return self._views or (self,)

    @property
    def grid_size(self):
        return self._weights.shape[-1]

    @property
    def phis(self):
        return _grid_arrays(self.grid_size)[0]

    def copy(self):
        """An independent grid with the same weights; it keeps no likelihood."""
        g = PosteriorGrid.__new__(PosteriorGrid)
        g._bind(self._weights.copy(), self._span, np.empty_like(self._cast))
        g._summarise()
        return g

    def update(self, outcome, feedback, channel=IDEAL):
        """Multiply in the outcome likelihood and renormalize, in place.

        channel is the likelihood model assumed by the updater; callers
        default it to the ideal channel even when the samples come from
        a noisy one, so the protocol stays noise-unaware unless asked.
        A lone posterior is a block of one. outcome holds one click per
        row, and feedback one phase per row or one phase shared by every
        row; only a shared feedback keeps its noiseless p(0).
        """
        inside, phis = self._inside, self._phis
        outcome = np.atleast_1d(outcome)
        if isinstance(feedback, np.ndarray):
            inside *= noisy_likelihood(
                channel, outcome, phis, feedback.reshape(-1, 1), out=self._out
            )
        else:
            if feedback != self._key:
                self._key, self._kept = feedback, noisy_likelihood(
                    IDEAL, 0, phis, feedback, out=np.empty(len(phis))
                )
            laws = {}  # outcome -> its law, in the scratch row of its first row
            for row, out, x in zip(inside, self._out, outcome):
                if x not in laws:
                    laws[x] = _click_law(channel, x, self._kept, out)
                row *= laws[x]
        total = self._weights.sum(axis=-1, keepdims=True)
        # weights are never negative, so a total is 0 or more
        if np.count_nonzero(total) < total.size:
            raise DegeneratePosteriorError(
                "posterior vanished: likelihood is zero across the support"
            )
        inside /= total
        self._summarise()
        return self

    def _one_posterior(self):
        if self._weights.ndim == 2:
            raise ValueError(
                f"this grid is a block of {len(self._weights)} posteriors: take summaries, "
                "draws and dumps from grid.rows"
            )

    def resultant(self):
        """Complex mean resultant sum(w_j e^{i phi_j}), set with the
        weights together with the Gaussian summary."""
        self._one_posterior()
        return self._resultant

    def sharpness(self):
        """|sum w_j e^{i phi_j}|, 1 for a point mass, 0 when fully spread."""
        return abs(self.resultant())

    def circular_mean(self):
        return self.gaussian_summary().mu

    def holevo_variance(self):
        s = self.sharpness()
        if s < _RESULTANT_EPS:
            raise InfiniteVarianceError("sharpness is zero")
        return 1.0 / (s * s) - 1.0

    def gaussian_summary(self):
        """(mu, sigma) with mu the circular mean and sigma^2 the Holevo
        variance; for narrow posteriors this matches a Gaussian fit.
        Set with the weights and the resultant; a zero resultant has none."""
        if self._summary is None:
            self._one_posterior()
            raise UndefinedMeanError("zero resultant vector")
        return self._summary

    def sample(self, rng):
        """Draw a grid point with probability equal to its weight: the
        index _cdf_index gives, the first entry of the full sequential
        cumulative sum S above the uniform u, clamped to the last point.

        A grid of more than one block finds that index without a
        sequential pass over every weight. The pairwise sums of blocks of
        _CDF_BLOCK weights and their cumulative sum locate the block whose
        end passes u; that block's cumulative sum plus the offset before
        it gives P, and the first P_i above u is the candidate i.

        S_j and P_j both add the non-negative w_0..w_j, in different
        orders. Any order of adding m non-negative terms has a relative
        error of at most gamma_(m-1) = (m - 1) eps/2 / (1 - (m - 1) eps/2)
        (Higham, SIAM J. Sci. Comput. 14, 783 (1993)), so with G points
        and total T, |P_j - S_j| <= 2 gamma_(G-1) T, just above
        (G - 1) eps T. The candidate is taken only when P_i - u and
        u - P_(i-1) (the offset when i starts a block, 0 for i = 0) both
        exceed margin = 4 G eps max(1, P_last): about four times that
        bound, since P_last lies within gamma_(G-1) T of T, with room for
        the rounding of the two differences. Then S_(i-1) < u < S_i, so
        i is the index S gives. When u lies within the margin of P_i or
        P_(i-1), or past the last block, _cdf_index decides.
        """
        self._one_posterior()
        u = rng.random()
        weights, cdf = self._weights, self._scratch
        n = len(weights)
        if n > _CDF_BLOCK:  # on one block the full cumulative sum costs no more
            offsets = np.add.reduceat(weights, np.arange(0, n, _CDF_BLOCK)).cumsum()
            b = int(offsets.searchsorted(u, side="right"))
            if b < len(offsets):
                margin = 4 * n * _EPS * max(1.0, offsets[-1])
                start = b * _CDF_BLOCK
                block = weights[start:start + _CDF_BLOCK].cumsum(out=cdf[start:start + _CDF_BLOCK])
                offset = offsets[b - 1] if b else 0.0
                block += offset
                k = int(block.searchsorted(u, side="right"))
                below = block[k - 1] if k else offset
                if k < len(block) and block[k] - u > margin and u - below > margin:
                    return float(self.phis[start + k])
        return float(self.phis[_cdf_index(weights, u, cdf)])

    def dump_csv(self, path):
        """Write the snapshot as CSV with columns (phi, weight).

        The bytes of the csv module's default dialect: a float's repr
        needs no quoting, and every line ends in \\r\\n. The rows are
        formatted one at a time, so no copy of the grid is built.
        """
        self._one_posterior()
        with open(path, "w", newline="") as fh:
            fh.write("phi,weight\r\n")
            rows = zip(map(float, self.phis), map(float, self._weights))
            fh.writelines(f"{phi!r},{w!r}\r\n" for phi, w in rows)
