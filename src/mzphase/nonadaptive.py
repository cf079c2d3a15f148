"""Non-adaptive baseline estimators on the half interval [0, pi].

On [0, pi] the phase-to-likelihood map is one-to-one, so estimation
without feedback is possible: a frequency-inversion estimator here, and
the fixed-feedback Bayesian estimator with the prior truncated to
[0, pi], which is the harness's bayes-fixed strategy.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CountSummary:
    """Click counts after N probes."""

    n0: int
    n1: int

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError("counts must be non-negative")
        if self.n0 + self.n1 < 1:
            raise ValueError("need at least one recorded outcome")

    @property
    def total(self):
        return self.n0 + self.n1


def inversion_estimate(counts):
    """Invert cos^2(phi/2) = N0/N; result clamped to [0, pi].

    No bias correction is applied; under depolarizing noise the raw
    inversion is biased toward pi/2.
    """
    ratio = counts.n0 / counts.total
    est = 2.0 * math.acos(math.sqrt(ratio))
    return min(max(est, 0.0), math.pi)
