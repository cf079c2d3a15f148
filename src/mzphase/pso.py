"""Offline policy training by particle swarm optimization.

A policy is a sequence of phase increments {d_1 .. d_n}. During an
estimation run the feedback phase evolves as

    Phi_k = Phi_{k-1} - (-1)^{x_{k-1}} d_k

with Phi_0 = 0 and x_0 = 0, and the final estimate is Phi_n. Policy
quality is the sharpness of the error phi - Phi_n over uniformly random
true phases, estimated by Monte Carlo with K samples.

The swarm update follows, per iteration and particle i,

    v_i <- beta1 xi1 (pbest_i - x_i) + alpha2 xi2 (lbest_i - x_i) + v_i
    x_i <- omega v_i + x_i

with xi1, xi2 uniform on [0, 1] per particle and dimension, velocities
clamped componentwise, and lbest_i the best personal best within a ring
neighborhood around i (including i itself). Note the inertia weight
multiplies the velocity in the position update, not in the velocity
update; the swarm therefore relies on the personal-best ratchet rather
than velocity damping for convergence, and benefits from small omega
and tight velocity clamps.
"""

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .circular import TWO_PI, wrap_phase, wrap_signed
from .interferometer import IDEAL, NoiseChannel, sample_outcomes
from .rng import make_generator

# training quality degrades for long policies; warn past this length
POLICY_LENGTH_SOFT_LIMIT = 50

# fitness samples scored at once: a block of max(1, _BLOCK_SAMPLES // K)
# swarm rows (16 at the default K = 1000) keeps its working arrays, 0.6-0.9
# MiB, inside a 2 MiB L2 cache; 20 rows already break the 1.23 MiB peak
# that the fitness memory test allows
_BLOCK_SAMPLES = 16384


@dataclass
class Policy:
    """Offline feedback policy: per-step increments wrapped to (-pi, pi]."""

    deltas: np.ndarray
    channel: NoiseChannel = IDEAL
    config: dict = field(default_factory=dict)
    sharpness: float | None = None

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=float)
        if deltas.ndim != 1 or deltas.size < 1:
            raise ValueError("policy needs a 1-D array of at least one increment")
        if not np.all(np.isfinite(deltas)):
            raise ValueError("policy increments must be finite")
        self.deltas = wrap_signed(deltas)

    @property
    def n(self):
        return self.deltas.size

    def save(self, path):
        payload = {
            "n": int(self.n),
            "deltas": [float(d) for d in self.deltas],
            "channel": self.channel.to_dict(),
            "config": self.config,
            "sharpness": self.sharpness,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("policy file must hold a JSON object")
        channel = payload.get("channel", {"kind": "ideal"})
        if not isinstance(channel, dict):
            raise ValueError("policy file: channel must be a JSON object")
        deltas = np.asarray(payload["deltas"], dtype=float)
        n = payload.get("n")
        if n is not None and (type(n) is not int or n != deltas.size):
            raise ValueError(f"policy file: n={n!r} does not match deltas length {deltas.size}")
        return cls(
            deltas,
            channel=NoiseChannel.from_dict(channel),
            config=payload.get("config", {}),
            sharpness=payload.get("sharpness"),
        )


def apply_policy_step(policy, prev_feedback, prev_outcome, k):
    """Next feedback phase Phi_k = Phi_{k-1} - (-1)^{x_{k-1}} d_k.

    For k = 1 pass the conventions Phi_0 = 0 and x_0 = 0.
    """
    if not 1 <= k <= policy.n:
        raise ValueError(f"step {k} outside policy range 1..{policy.n}")
    sign = 1.0 if prev_outcome == 0 else -1.0
    # a Python float has the bits of the numpy element and costs less to add
    return wrap_phase(prev_feedback - sign * float(policy.deltas[k - 1]))


def _sharpness(positions, channel, k_samples, rngs):
    """Monte Carlo sharpness of each row of positions read as a policy.

    Row s simulates K runs on rngs[s]: true phases first, then one block
    of outcome draws per probe. Each sample carries the phasor
    e^{i(phi - Phi_k)} as re + i im and turns it by e^{+-i d_k} per
    step, so no angle is recomputed. Rows are scored a block at a time
    in arrays reused across blocks and probes; as a row draws only from
    its own generator, the block size moves no bit.
    """
    size = len(positions)
    rows = max(1, min(size, _BLOCK_SAMPLES // k_samples))
    work = np.empty((4, rows, k_samples))
    block_draws = np.empty((rows, channel.draws, k_samples))
    result = np.empty(size)
    for start in range(0, size, rows):
        block = slice(start, start + rows)
        block_rngs = rngs[block]
        re, im, turn, sign = work[:, :len(block_rngs)]
        draws = block_draws[:len(block_rngs)]
        for phases, rng in zip(turn, block_rngs):
            rng.random(out=phases)
        turn *= TWO_PI
        np.cos(turn, out=re)
        np.sin(turn, out=im)
        cos_d = np.cos(positions[block]).T[:, :, None]
        sin_d = np.sin(positions[block]).T[:, :, None]
        # Phi_k = Phi_{k-1} - sign d_k with sign = (-1)^{x_{k-1}} and x_0 = 0
        sign.fill(1.0)
        for c, s in zip(cos_d, sin_d):
            # (re, im) <- (re c - im t, im c + re t) with t = sign s: sign
            # holds t, then t re, and turn holds im t
            sign *= s
            np.multiply(im, sign, out=turn)
            sign *= re
            re *= c
            re -= turn
            im *= c
            im += sign
            # x_k overwrites t re in sign; sign = 1 - 2 x_k, exactly +-1
            sample_outcomes(channel, re, im, block_rngs, draws, sign)
            sign *= -2.0
            sign += 1.0
        result[block] = np.hypot(re.sum(axis=1), im.sum(axis=1))
    return result / k_samples


def estimate_sharpness(policy, channel, k_samples, rng):
    """Monte Carlo sharpness |sum_k e^{i(phi_k - Phi_n,k)}| / K of a policy.

    Each of the K samples draws a true phase uniformly from [0, 2*pi),
    simulates one n-probe run under the given channel and takes Phi_n as
    the estimate.
    """
    if k_samples < 1:
        raise ValueError("k_samples must be >= 1")
    return float(_sharpness(policy.deltas[None, :], channel, k_samples, [rng])[0])


@dataclass
class PsoConfig:
    """Swarm hyperparameters.

    The defaults were tuned on policy training for n around 10..20: a
    small inertia weight and a tight velocity clamp compensate for the
    undamped velocity recursion, and initial positions span (-pi/2,
    pi/2) per dimension, which covers the useful increment range.
    """

    swarm_size: int = 40
    iterations: int = 400
    omega: float = 0.3
    beta1: float = 2.0
    alpha2: float = 2.0
    neighborhood_radius: int = 3
    fitness_samples: int = 1000
    velocity_clamp: float = 0.4
    init_range: float = math.pi / 2
    seed: int = 0

    def validate(self):
        settings = (self.omega, self.beta1, self.alpha2, self.velocity_clamp, self.init_range)
        if not all(map(math.isfinite, settings)):
            raise ValueError(
                "omega, beta1, alpha2, velocity_clamp and init_range must be finite"
            )
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.fitness_samples < 1:
            raise ValueError("fitness_samples must be >= 1")
        if min(self.omega, self.beta1, self.alpha2) <= 0.0:
            raise ValueError("omega, beta1 and alpha2 must be positive")
        if self.neighborhood_radius < 0:
            raise ValueError("neighborhood_radius must be >= 0")
        if self.velocity_clamp <= 0.0 or self.init_range <= 0.0:
            raise ValueError("velocity_clamp and init_range must be positive")
        return self


def pso_step(swarm, config, fitness, rng):
    """One swarm iteration, updating the record array swarm in place.

    swarm holds one row per particle, with fields position, velocity
    and best_position of length n and best_fitness. fitness(positions,
    rngs) scores a contiguous copy of the positions, one value per
    particle, where row i draws only from rngs[i], a child generator
    spawned from rng; rows are therefore independent jobs whose order
    cannot affect the result. Personal bests keep the fitness value
    observed at evaluation time.
    """
    size = len(swarm)
    if size == 0:
        raise ValueError("empty swarm")
    observed = fitness(swarm.position.copy(), rng.spawn(size))
    better = observed > swarm.best_fitness
    swarm.best_fitness[better] = observed[better]
    swarm.best_position[better] = swarm.position[better]

    # ring offsets with the particle's own index first: argmax keeps the
    # first of tied bests, so a tie never moves lbest off the particle
    radius = min(config.neighborhood_radius, size // 2)
    ring = (np.arange(size)[:, None] + np.r_[0, -radius:0, 1:radius + 1]) % size
    winner = np.argmax(swarm.best_fitness[ring], axis=1)
    lbest = swarm.best_position[ring[np.arange(size), winner]]

    # xi[i] holds particle i's xi1 then xi2, the stream's particle-by-particle order
    xi = rng.random((size, 2, swarm.position.shape[1]))
    velocity = (
        config.beta1 * xi[:, 0] * (swarm.best_position - swarm.position)
        + config.alpha2 * xi[:, 1] * (lbest - swarm.position)
        + swarm.velocity
    )
    swarm.velocity = np.clip(velocity, -config.velocity_clamp, config.velocity_clamp)
    swarm.position = config.omega * swarm.velocity + swarm.position


def train_policy(n, channel=IDEAL, config=None):
    """Maximize Monte Carlo sharpness over n-step policies.

    Returns the best-ever personal best as a Policy, with the fitness
    recorded for it at evaluation time. Fully deterministic given
    config.seed.
    """
    if n < 1:
        raise ValueError("policy length must be >= 1")
    config = (config or PsoConfig()).validate()
    if n > POLICY_LENGTH_SOFT_LIMIT:
        warnings.warn(
            f"policy length {n} exceeds {POLICY_LENGTH_SOFT_LIMIT}; "
            "swarm-trained policies degrade in this regime",
            stacklevel=2,
        )

    master = make_generator([config.seed, 0])
    position = master.uniform(-config.init_range, config.init_range, (config.swarm_size, n))
    swarm = np.rec.fromarrays(
        [position, np.zeros_like(position), position, np.full(config.swarm_size, -math.inf)],
        dtype=[
            ("position", float, (n,)),
            ("velocity", float, (n,)),
            ("best_position", float, (n,)),
            ("best_fitness", float),
        ],
    )
    k_samples = config.fitness_samples

    def fitness(positions, rngs):
        return _sharpness(positions, channel, k_samples, rngs)

    for _ in range(config.iterations):
        pso_step(swarm, config, fitness, master)

    best = int(np.argmax(swarm.best_fitness))
    return Policy(
        swarm.best_position[best].copy(),
        channel=channel,
        config=asdict(config),
        sharpness=float(swarm.best_fitness[best]),
    )
