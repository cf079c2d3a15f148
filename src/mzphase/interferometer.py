"""Single-photon two-mode interferometer outcome model.

A probe photon interferes with phase difference (phi - Phi) between the
two arms, where phi is the unknown phase and Phi the controllable
feedback phase. Detector click probabilities in the noiseless case are

    p(0 | phi; Phi) = cos^2[(phi - Phi) / 2]
    p(1 | phi; Phi) = sin^2[(phi - Phi) / 2]

Both detection noise channels lower the fringe visibility v: the click
law becomes v p(x) + q/2, with q = 1 - v the weight of a fair coin, so
p(0) = (1 + v cos(phi - Phi)) / 2.

* depolarizing(p): with probability p the click is replaced by a fair
  coin, v = 1 - p and q = p;
* phase(kappa): a Gaussian kick of standard deviation kappa on the
  feedback phase, whose marginal has v = e^{-kappa^2/2}.

The per-probe Fisher information, maximized over the phase difference,
is v^2, and the induced Cramer-Rao bound for n probes is 1/(v sqrt n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import Draws, box_muller, normal


# kind -> (its parameter, visibility v, fair-coin weight q) of the fringe
# v p(x) + q/2, and the uniforms sample_outcomes draws per sample and probe.
# q is p itself for depolarizing noise, since 1 - (1 - p) is not always p;
# kappa ** 2 would overflow past 1e154, where v is long 0. sample_outcomes
# draws its uniforms in this order: the phase kick's u1 and u2, the click,
# the depolarizing noise and fair coins.
_KINDS = {
    "ideal": (None, lambda c: 1.0, lambda c: 0.0, 1),
    "depolarizing": ("p", lambda c: 1.0 - c.p, lambda c: c.p, 3),
    "phase": ("kappa", lambda c: math.exp(-c.kappa ** 2 / 2.0) if c.kappa < 1e150 else 0.0,
              lambda c: 1.0 - c.visibility, 3),
}


@dataclass(frozen=True)
class NoiseChannel:
    """Detection noise model: 'ideal', 'depolarizing' (p) or 'phase' (kappa)."""

    kind: str = "ideal"
    p: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise channel kind: {self.kind!r}")
        if not (math.isfinite(self.p) and math.isfinite(self.kappa)):
            raise ValueError(f"noise parameters must be finite, got p={self.p} kappa={self.kappa}")
        if self.kind == "depolarizing" and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability p={self.p} outside [0, 1]")
        if self.kind == "phase" and self.kappa < 0.0:
            raise ValueError(f"phase noise strength kappa={self.kappa} must be >= 0")

    @classmethod
    def depolarizing(cls, p):
        return cls("depolarizing", p=float(p))

    @classmethod
    def phase(cls, kappa):
        return cls("phase", kappa=float(kappa))

    @property
    def visibility(self):
        """Fringe visibility v: p_channel(0) = (1 + v cos(phi - Phi)) / 2."""
        return _KINDS[self.kind][1](self)

    @property
    def draws(self):
        """Uniforms sample_outcomes draws per sample and probe."""
        return _KINDS[self.kind][3]

    @property
    def fair_weight(self):
        """Weight q of the fair coin mixed into the fringe, 1 - v up to rounding."""
        return _KINDS[self.kind][2](self)

    def spec(self):
        """Compact string form, e.g. 'depolarizing:0.25'; inverse of parse().

        The parameter is printed with six significant digits where that
        reads back exactly, in full otherwise.
        """
        param = _KINDS[self.kind][0]
        if param is None:
            return self.kind
        value = getattr(self, param)
        text = f"{value:g}"
        return f"{self.kind}:{text if float(text) == value else repr(float(value))}"

    @classmethod
    def parse(cls, text):
        kind, sep, par = text.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise ValueError(f"unknown noise channel kind: {kind!r}")
        param = _KINDS[kind][0]
        if param is None:
            if sep:
                raise ValueError(f"{kind} channel takes no parameter")
            return cls(kind)
        return cls(kind, **{param: float(par)})

    def to_dict(self):
        param = _KINDS[self.kind][0]
        return {"kind": self.kind, param: getattr(self, param)} if param else {"kind": self.kind}

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], p=d.get("p", 0.0), kappa=d.get("kappa", 0.0))


IDEAL = NoiseChannel()


def noisy_likelihood(channel, x, phi, feedback, out=None):
    """Click probability v p(x) + q / 2 under the given channel, p(x) the
    noiseless one; phi/feedback may be scalars or arrays.

    As for a numpy ufunc, out is an array to write the result into, and
    every intermediate goes there too; without it a new one is returned.
    Without a fair coin (q == 0, so v == 1) this is p(x) itself, with no
    further pass over it.

    For a block of rows, x holds one outcome per row and feedback one
    phase per row as a column, shape (rows, 1); outcome 1 then takes
    its own pass over each of its rows.
    """
    c = np.subtract(phi, feedback, out=out)
    c = np.multiply(c, 0.5, out=out)
    c = np.cos(c, out=out)
    p0 = np.multiply(c, c, out=out)
    if isinstance(x, np.ndarray):
        for row, click in zip(p0, x):
            if click:
                np.subtract(1.0, row, out=row)
        x = 0  # p0 now holds each row's p(x)
    return _click_law(channel, x, p0, out)


def _click_law(channel, x, p0, out):
    """v p(x) + q / 2 from the noiseless p(0) in p0, with every pass
    written into out (which may be p0 itself, or None for a new array);
    p0 itself when x == 0 and there is no fair coin."""
    p = p0 if x == 0 else np.subtract(1.0, p0, out=out)
    q = channel.fair_weight
    if q == 0.0:
        return p
    return np.add(np.multiply(channel.visibility, p, out=out), q / 2.0, out=out)


def sample_outcome(channel, phi, feedback, rng):
    """Draw one click through the physical noise mechanism.

    Depolarizing noise flips a p-biased coin and then reports either the
    true click or a fair coin. Phase noise draws an explicit Gaussian
    kick on the feedback phase before the click is drawn; the marginal
    outcome law equals noisy_likelihood.
    """
    if channel.kind == "depolarizing" and rng.random() < channel.p:
        return 0 if rng.random() < 0.5 else 1
    if channel.kind == "phase":
        feedback = feedback + channel.kappa * normal(rng)
    p0 = math.cos((phi - feedback) / 2.0) ** 2
    return 0 if rng.random() < p0 else 1


def _sample_fixed_outcomes(channel, phi, n, rng):
    """The clicks of n probes at feedback phase 0, drawn from rng with the
    values and final generator state of n sample_outcome calls; an int
    array of n.

    The ideal and depolarizing clicks are compared as arrays, on uniforms
    drawn in one call in sample_outcome's order. Phase noise kicks every
    probe by its own Gaussian, which sample_outcome's scalar math
    computes, since numpy's log and cos may round otherwise.
    """
    if channel.kind == "phase":  # a kick's two uniforms, then the click
        draws = Draws(rng, 3 * n)
        clicks = [sample_outcome(channel, phi, 0.0, draws) for _ in range(n)]
        return np.array(clicks, dtype=np.int64)
    p0 = math.cos(phi / 2.0) ** 2
    if channel.kind == "depolarizing":  # a noisy probe's click is a fair coin
        u = rng.random((n, 2))  # C order: each probe's noise coin, then its click
        clicks = np.where(u[:, 0] < channel.p, u[:, 1] >= 0.5, u[:, 1] >= p0)
    else:
        clicks = rng.random(n) >= p0
    return clicks.astype(np.int64)


def sample_outcomes(channel, re, im, rngs, draws, out):
    """Clicks for rows of phasors e^{i(phi - Phi)}, given as re + i im.

    Row s draws only from rngs[s]: it fills draws[s], of shape
    (channel.draws, K), with one block of uniforms per draw kind, in the
    order _KINDS gives; the draws then serve as scratch. Writes 1.0 into out
    where outcome 1 clicks and 0.0 elsewhere, and returns out; without
    noise p(0) = (1 + re) / 2.
    """
    for row, rng in zip(draws, rngs):
        rng.random(out=row)
    if channel.kind == "phase":
        # the kick on Phi turns the phasor by e^{-i kick}
        kick = box_muller(draws[:, 0], draws[:, 1])
        kick *= channel.kappa
        sin_kick = np.sin(kick, out=draws[:, 1])
        cos_kick = np.cos(kick, out=kick)
        cos_kick *= re
        sin_kick *= im
        re = np.add(cos_kick, sin_kick, out=out)
    threshold = np.add(re, 1.0, out=out)
    threshold *= 0.5
    click = draws[:, 2 if channel.kind == "phase" else 0]
    if channel.kind != "depolarizing":
        return np.greater_equal(click, threshold, out=out)
    # a noisy probe's click is a fair coin
    noisy = draws[:, 1] < channel.p
    clicks = click >= threshold
    clicks &= ~noisy
    clicks |= noisy & (draws[:, 2] < 0.5)
    np.copyto(out, clicks)
    return out


def fisher_information(channel):
    """Per-probe Fisher information v^2, maximized over the phase difference."""
    return channel.visibility ** 2


def precision_bound(channel, n):
    """Cramer-Rao bound [n * I]^(-1/2) on the phase deviation for n probes.

    For the ideal channel this is the standard quantum limit n^(-1/2);
    it is infinite for a channel with no fringe left (v = 0).
    """
    if n < 1:
        raise ValueError(f"probe count must be >= 1, got {n}")
    info = fisher_information(channel)
    return 1.0 / math.sqrt(n * info) if info > 0.0 else math.inf
