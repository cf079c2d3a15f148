"""Deterministic random number streams.

The whole package draws randomness from numpy PCG64 generators built
out of SeedSequence entropy tuples, so every simulation is reproducible
from a single integer seed:

* a run addressed by (base_seed, phase_index, run_index) uses the
  generator ``make_generator([base_seed, phase_index, run_index])``;
* swarm training uses ``make_generator([seed, 0])`` as its master
  stream and per-evaluation child streams obtained via ``spawn``.

Gaussian variates are produced by an explicit Box-Muller transform on
uniform draws (not the generator's native normal method), so a trace of
uniform draws fully determines every trajectory.

An adaptive run draws its uniforms at once, as many as it can take,
and reads them one by one through Draws: a block of doubles equals as
many one-by-one doubles, so the values a run reads are those of
one-by-one draws.
"""

import math

import numpy as np

from .circular import TWO_PI


def make_generator(entropy):
    """Build a PCG64 generator from an int or a sequence of ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class Draws:
    """A generator's next count uniforms, drawn as one array and handed
    out one by one. It stands in for the generator wherever only random()
    is called, with the same values.

    The generator belongs to the Draws from then on. A random() past the
    count raises StopIteration, so count must bound what the caller
    takes; the values it leaves are dropped unread.
    """

    __slots__ = ("random",)

    def __init__(self, rng, count):
        self.random = iter(rng.random(count).tolist()).__next__


def normal(rng):
    """One standard normal draw via Box-Muller on two uniform variates.

    Uses 1 - U for the logarithm argument so a uniform draw of exactly
    0.0 cannot produce log(0). The sine partner of each pair is
    discarded; one normal costs two uniforms.
    """
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(TWO_PI * u2)


def box_muller(u1, u2):
    """Array form of normal() on uniform arrays drawn in the order u1, u2.

    Works in place: the normals overwrite u1, which is returned, and u2
    is overwritten too.
    """
    z = np.subtract(1.0, u1, out=u1)
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    u2 *= TWO_PI
    z *= np.cos(u2, out=u2)
    return z
