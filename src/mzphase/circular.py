"""Circular statistics helpers for phases on [0, 2*pi).

All angles are radians. Sample statistics operate on 1-D arrays of
angles; the weighted counterparts used by the posterior grid live in
:mod:`mzphase.posterior`.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_phase(x):
    """Wrap an angle (scalar or array) into the canonical range [0, 2*pi).

    x % 2pi rounds a tiny negative x up to 2pi itself, which maps to 0.
    A scalar comes back as a float, an array as an array.
    """
    y = x % TWO_PI
    if isinstance(y, np.ndarray):
        y[y == TWO_PI] = 0.0
        return y
    return 0.0 if y == TWO_PI else float(y)


def wrap_signed(x):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    return math.pi - wrap_phase(math.pi - x)


def holevo_sigma(angles):
    """Square root of the Holevo variance S^-2 - 1 of a sample of angles,
    S = |mean(e^{i theta})| its sharpness.

    Returns inf when the sample resultant vanishes; an empty sample or a
    non-finite angle raises ValueError.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0 or not np.isfinite(angles).all():
        raise ValueError("holevo_sigma needs a non-empty sample of finite angles")
    s = float(abs(np.exp(1j * angles).mean()))
    if s < 1e-15:
        return math.inf
    return math.sqrt(max(1.0 / (s * s) - 1.0, 0.0))
