"""Online feedback rules: the Gaussian-model closed-form rule and the
particle guess heuristic.

The Gaussian rule summarizes the posterior by (mu, sigma) and offsets
the next feedback phase from mu by a closed-form function of sigma,

    Phi = mu + sign * [-pi + arccos(A(sigma))]
    A(sigma) = e^{sigma^2/2} (sigma^2 + sqrt((sigma^2-2)(sigma^2-4)) - 2)
               / (sigma^2 - 2),

which is real-valued for sigma <= 0.921. Beyond that threshold |A| > 1
(and for sigma^2 in (2, 4) A is complex); the configured fallback
applies: 'real-part' keeps the real component of the offset, which
clamps A into [-1, 1] when A is real, while 'pgh' hands the step to the
particle guess heuristic. In the sigma -> 0 limit the offset tends to
-pi/2 + arcsin(sqrt(2) - 1), a constant kick of about -1.1437 rad.

The particle guess heuristic draws the feedback phase directly from the
current posterior.
"""

import cmath
import math
from dataclasses import dataclass

from .circular import TWO_PI, wrap_phase
from .posterior import UndefinedMeanError

# largest sigma for which the arccos argument stays inside [-1, 1]
SIGMA_VALID_MAX = 0.921

# the choices of Heuristic.kind, Heuristic.go_fallback and Heuristic.sign_convention
HEURISTIC_KINDS = ("go", "pgh")
GO_FALLBACKS = ("real-part", "pgh")
SIGN_CONVENTIONS = ("alternate", "random")


def offset_coefficient(sigma):
    """A(sigma), the arccos argument of the feedback offset (complex)."""
    s2 = sigma * sigma
    den = s2 - 2.0
    if abs(den) < 1e-12:
        den = -1e-12
    root = cmath.sqrt(complex(s2 - 2.0) * (s2 - 4.0))
    return cmath.exp(s2 / 2.0) * (s2 + root - 2.0) / den


def feedback_offset(sigma):
    """Real part of -pi + arccos(A(sigma)), the signed feedback offset.

    For sigma <= SIGMA_VALID_MAX the expression is exactly real; beyond
    it this is the 'real-part' fallback. For sigma^2 >= 4 the
    coefficient is real and > 1, so the offset saturates at -pi (the
    exponential would overflow long before sigma matters there).
    """
    if sigma * sigma >= 4.0:
        return -math.pi
    return (-math.pi + cmath.acos(offset_coefficient(sigma))).real


def go_feedback(summary, sign):
    """Feedback phase mu + sign * offset(sigma), wrapped to [0, 2*pi)."""
    return wrap_phase(summary.mu + sign * feedback_offset(summary.sigma))


def pgh_feedback(grid, rng):
    """Particle guess heuristic: draw the feedback phase from the posterior."""
    return grid.sample(rng)


@dataclass(frozen=True)
class Heuristic:
    """Feedback rule selection.

    kind: 'go' (Gaussian closed-form rule) or 'pgh'.
    go_fallback: behavior when sigma > SIGMA_VALID_MAX, 'real-part' or 'pgh'.
    sign_convention: 'alternate' picks sign (-1)^k at step k, 'random'
    flips a fair coin per step.
    """

    kind: str = "go"
    go_fallback: str = "real-part"
    sign_convention: str = "alternate"

    def __post_init__(self):
        if self.kind not in HEURISTIC_KINDS:
            raise ValueError(f"unknown heuristic kind: {self.kind!r}")
        if self.go_fallback not in GO_FALLBACKS:
            raise ValueError(f"unknown go fallback: {self.go_fallback!r}")
        if self.sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(f"unknown sign convention: {self.sign_convention!r}")


def next_feedback(heuristic, grid, step, rng):
    """Choose the feedback phase for the given step (1-based).

    A flat posterior has no circular mean; any feedback phase is then
    equivalent by symmetry, so a uniform random one is returned.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if heuristic.kind == "pgh":
        return pgh_feedback(grid, rng)
    try:
        summary = grid.gaussian_summary()
    except UndefinedMeanError:
        return TWO_PI * rng.random()
    if summary.sigma > SIGMA_VALID_MAX and heuristic.go_fallback == "pgh":
        return pgh_feedback(grid, rng)
    if heuristic.sign_convention == "alternate":
        sign = 1.0 if step % 2 == 0 else -1.0
    else:
        sign = 1.0 if rng.random() < 0.5 else -1.0
    return go_feedback(summary, sign)
