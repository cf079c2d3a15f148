"""Non-adaptive baseline estimators on the half interval [0, pi].

On [0, pi] the phase-to-likelihood map is one-to-one, so estimation
without feedback is possible: a frequency-inversion estimator here, and
the fixed-feedback Bayesian estimator with the prior truncated to
[0, pi], which is the harness's bayes-fixed strategy.
"""

import math


def inversion_estimate(n0, n):
    """Invert cos^2(phi/2) = N0/N from N0 clicks of outcome 0 in N probes;
    the result lies in [0, pi], since 2 acos(sqrt(x)) does for x in
    [0, 1] and 2 acos(0.0) is math.pi.

    No bias correction is applied; under depolarizing noise the raw
    inversion is biased toward pi/2.
    """
    if not 0 <= n0 <= n or n < 1:
        raise ValueError(f"need 0 <= n0 <= n and n >= 1, got n0={n0} n={n}")
    return 2.0 * math.acos(math.sqrt(n0 / n))
