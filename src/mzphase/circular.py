"""Circular statistics helpers for phases on [0, 2*pi).

All angles are radians. Sample statistics operate on 1-D arrays of
angles; the weighted counterparts used by the posterior grid live in
:mod:`mzphase.posterior`.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_phase(x):
    """Wrap an angle (scalar or array) into the canonical range [0, 2*pi)."""
    return x % TWO_PI


def wrap_signed(x):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    return math.pi - (math.pi - x) % TWO_PI


def mean_resultant_length(angles):
    """Sharpness |mean(e^{i theta})| of a sample of angles, in [0, 1]."""
    angles = np.asarray(angles, dtype=float)
    return float(abs(np.exp(1j * angles).mean()))


def holevo_sigma(angles):
    """Square root of the Holevo variance S^-2 - 1 of a sample of angles.

    Returns inf when the sample resultant vanishes.
    """
    s = mean_resultant_length(angles)
    if s < 1e-15:
        return math.inf
    return math.sqrt(max(1.0 / (s * s) - 1.0, 0.0))
