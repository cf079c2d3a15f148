"""Estimation runs, batches, phase sweeps, and their statistics per phase and over phases.

Seeding contract: the run addressed by (base_seed, phase_index,
run_index) draws every random quantity from
``make_generator([base_seed, phase_index, run_index])`` (PCG64), so
batches are reproducible run by run and safe to evaluate in a worker
pool; aggregation always happens in run-index order.

One loop advances a block of runs in lockstep: at each probe step
every run draws its feedback and its outcome from its own generator,
with the same calls in the same order as a run alone; then one
posterior update advances the whole block (see posterior). A batch
advances contiguous blocks of runs, as many as fit a fixed budget of
grid points; run_estimation is a block of one.
A run's bits depend neither on the block size nor on its neighbours.
An adaptive run (go, pgh, a policy) draws at once a count of uniforms
per probe set by its strategy and channel, at least as many as it
takes, and reads them one by one (see rng.Draws): its values are those
of one-by-one draws.
A run that holds its feedback at 0 (inversion, bayes-fixed) has
outcomes that depend on its uniforms alone. It samples every outcome
before the first step, drawing its uniforms straight from its generator
(interferometer._sample_fixed_outcomes), with the values and the final
generator state of one-by-one draws. Inversion then has no step loop:
its estimates are read from a table of inversion_estimate by step and
zero count (evaluated one by one past _INVERSION_TABLE_STEPS probes),
and bayes-fixed's updates run over the known outcomes.

Strategies:

* 'go' / 'pgh' (or an explicit Heuristic): online Bayesian estimation,
  posterior updated with the model channel (ideal by default, i.e. the
  updater is not told about the noise);
* a Policy: offline feedback sequence, estimate is the final feedback
  phase, no posterior is maintained;
* 'inversion' / 'bayes-fixed': non-adaptive baselines with the feedback
  phase held at 0.
"""

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .circular import TWO_PI, holevo_sigma, wrap_phase, wrap_signed
from .heuristics import HEURISTIC_KINDS, Heuristic, next_feedback
from .interferometer import (
    IDEAL,
    NoiseChannel,
    _sample_fixed_outcomes,
    precision_bound,
    sample_outcome,
)
from .nonadaptive import inversion_estimate
from .posterior import DEFAULT_GRID_SIZE, PosteriorGrid, UndefinedMeanError
from .pso import Policy, apply_policy_step
from .rng import Draws, make_generator


# every strategy name run_estimation takes; "policy" is given as a Policy
STRATEGIES = (*HEURISTIC_KINDS, "policy", "inversion", "bayes-fixed")


@dataclass
class RunRecord:
    """One n-probe estimation trajectory.

    sigmas holds the per-step posterior deviation for Bayesian
    strategies and NaN where no single-run uncertainty exists (policy
    and inversion strategies, and a Bayesian step whose posterior has a
    zero resultant, which repeats the previous step's estimate).
    """

    phi_true: float
    strategy: str
    sample_channel: NoiseChannel
    model_channel: NoiseChannel
    seed: tuple
    feedbacks: np.ndarray
    outcomes: np.ndarray
    estimates: np.ndarray
    sigmas: np.ndarray

    @property
    def n(self):
        return self.outcomes.size

    @property
    def final_estimate(self):
        return float(self.estimates[-1])

    def to_dict(self):
        return {
            "phi_true": self.phi_true,
            "strategy": self.strategy,
            "sample_channel": self.sample_channel.to_dict(),
            "model_channel": self.model_channel.to_dict(),
            "seed": list(self.seed),
            "final_estimate": self.final_estimate,
            "steps": [
                {
                    "k": k + 1,
                    "feedback": float(self.feedbacks[k]),
                    "outcome": int(self.outcomes[k]),
                    "estimate": float(self.estimates[k]),
                    "sigma": None if math.isnan(self.sigmas[k]) else float(self.sigmas[k]),
                }
                for k in range(self.n)
            ],
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@dataclass
class BatchStats:
    """Aggregate over M independent runs at one true phase; its fields
    are the statistic columns of a benchmark CSV row.

    sigma_est is the square root of the Holevo variance of the wrapped
    final-estimate errors; the error bars follow sigma_est * M^(-1/2)
    for the mean and sigma_est * [2(M-1)]^(-1/2) for sigma_est itself.
    Quadratic loss averages the squared wrapped errors.
    """

    m: int
    circ_mean: float
    sigma_est: float
    err_mean: float
    err_sigma: float
    quad_loss: float

    @classmethod
    def from_estimates(cls, estimates, phi_true):
        estimates = np.asarray(estimates, dtype=float)
        m = estimates.size
        if m < 2:
            raise ValueError("need at least 2 runs for error bars")
        errors = wrap_signed(estimates - phi_true)
        sigma = holevo_sigma(errors)
        mean_z = np.exp(1j * estimates).mean()
        circ_mean = wrap_phase(math.atan2(mean_z.imag, mean_z.real))
        return cls(
            m=m,
            circ_mean=circ_mean,
            sigma_est=sigma,
            err_mean=sigma / math.sqrt(m),
            err_sigma=sigma / math.sqrt(2.0 * (m - 1)),
            quad_loss=float(np.mean(errors ** 2)),
        )


@dataclass
class PhaseBatch:
    phi_true: float
    stats: BatchStats
    records: list


def _resolve_strategy(strategy):
    """Map the strategy argument to (label, resolved object)."""
    if isinstance(strategy, Policy):
        return "policy", strategy
    if isinstance(strategy, Heuristic):
        return strategy.kind, strategy
    if strategy in HEURISTIC_KINDS:
        return strategy, Heuristic(kind=strategy)
    if strategy in STRATEGIES and strategy != "policy":  # a policy is an object
        return strategy, strategy
    raise ValueError(f"unknown strategy: {strategy!r}")


# the longest run whose inversion estimates come from a table of every
# (step, zero count) pair: its n (n + 3) / 2 inversion_estimate calls
# take under 1 ms, so a lone run pays little for it, and the tables of
# every length up to this one hold 0.7 MiB together
_INVERSION_TABLE_STEPS = 64


@functools.cache
def _inversion_table(n):
    """inversion_estimate(n0, k) at [k - 1, n0], for 0 <= n0 <= k <= n."""
    table = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        table[k - 1, :k + 1] = [inversion_estimate(n0, k) for n0 in range(k + 1)]
    table.setflags(write=False)
    return table


def _inversion_estimates(outcomes):
    """The inversion estimate after each probe of each row of outcomes."""
    zeros = np.cumsum(outcomes == 0, axis=1)
    n = outcomes.shape[1]
    if n <= _INVERSION_TABLE_STEPS:
        return _inversion_table(n)[np.arange(n), zeros]
    return [[inversion_estimate(n0, k) for k, n0 in enumerate(row, 1)] for row in zeros.tolist()]


# grid points a batch advances at once: blocks of max(1, _BLOCK_POINTS // G)
# runs, so a default-grid run stays alone and a block holds no more memory
# than one default-grid posterior
_BLOCK_POINTS = 2 ** 15


def run_estimation(
    phi_true,
    n,
    strategy,
    sample_channel=IDEAL,
    model_channel=None,
    grid_size=DEFAULT_GRID_SIZE,
    seed=0,
    snapshot=None,
):
    """Simulate one n-probe estimation run.

    model_channel defaults to the ideal channel regardless of
    sample_channel (noise-unaware operation). snapshot, if given, is
    called as snapshot(k, grid) after each posterior update of a
    Bayesian strategy.

    A posterior whose resultant is zero has no circular mean (at step 2
    pgh can redraw Phi_1 with the opposite outcome, or its antipode with
    the same one, leaving sin^2(phi - Phi_1)): that step records
    the previous step's estimate (the feedback at step 1) and a NaN
    sigma, and the next probe breaks the symmetry.
    """
    entropy = [seed] if np.isscalar(seed) else list(seed)
    [record] = _run_rows(
        phi_true, n, strategy, sample_channel, model_channel, grid_size, [entropy], snapshot
    )
    return record


def _run_rows(
    phi_true, n, strategy, sample_channel, model_channel, grid_size, seeds, snapshot=None
):
    """The runs seeded by the entropy lists in seeds, one per row, as
    run_estimation describes them, advanced in lockstep.

    At each step every row draws its feedback and its outcome from its
    own generator, with the calls and in the order of a lone run; then
    one update advances the posteriors of all rows and sets every row's
    summary (see posterior), and the step's estimates and sigmas are
    written as one column each. A run that holds Phi = 0 (inversion,
    bayes-fixed) samples all its outcomes from its generator before the
    first step.
    """
    if n < 1:
        raise ValueError(f"probe count must be >= 1, got {n}")
    phi_true = float(phi_true)
    if not math.isfinite(phi_true):
        raise ValueError(f"true phase must be finite, got {phi_true}")
    label, resolved = _resolve_strategy(strategy)
    if label == "policy" and resolved.n < n:
        raise ValueError(f"policy length {resolved.n} is shorter than n={n}")
    if model_channel is None:
        model_channel = IDEAL
    phi_true = wrap_phase(phi_true)
    # inversion and bayes-fixed hold Phi = 0; bayes-fixed on a [0, pi] prior
    online = label in HEURISTIC_KINDS
    fixed = label in ("inversion", "bayes-fixed")
    generators = [make_generator(entropy) for entropy in seeds]
    rows = len(generators)

    feedbacks = np.zeros((rows, n))
    outcomes = np.empty((rows, n), dtype=np.int64)
    estimates = np.empty((rows, n))
    sigmas = np.full((rows, n), math.nan)

    if fixed:  # a run's outcomes depend on its uniforms alone: draw them first
        for r, rng in enumerate(generators):
            outcomes[r] = _sample_fixed_outcomes(sample_channel, phi_true, n, rng)
    # a probe takes at most 1 uniform for its feedback (a flat posterior's
    # uniform phase, pgh's draw, or go's random sign; none for a policy)
    # and for its click at most the channel's draws (1, 3, 3), which bound
    # sample_outcome's (ideal 1, depolarizing 2, phase the kick's 2 and
    # the click)
    count = n * ((label != "policy") + sample_channel.draws)
    rngs = [] if fixed else [Draws(rng, count) for rng in generators]
    if label == "inversion":
        estimates[:] = _inversion_estimates(outcomes)

    grid = None
    if online or label == "bayes-fixed":
        support = None if online else (0.0, math.pi)
        grid = PosteriorGrid.uniform(grid_size, support=support, rows=rows)
        views = grid.rows
    # a policy starts from Phi_0 = 0 and x_0 = 0
    fb, x, est = [0.0] * rows, [0] * rows, [0.0] * rows
    for k in range(1, n + 1) if label != "inversion" else ():
        if not fixed:
            for r, rng in enumerate(rngs):
                if label == "policy":
                    fb[r] = apply_policy_step(resolved, fb[r], x[r], k)
                else:
                    fb[r] = next_feedback(resolved, views[r], k, rng)
                x[r] = sample_outcome(sample_channel, phi_true, fb[r], rng)
            feedbacks[:, k - 1] = fb
            outcomes[:, k - 1] = x
        if grid is not None:
            grid.update(outcomes[:, k - 1], feedbacks[:, k - 1] if online else 0.0, model_channel)
            sig = [math.nan] * rows
            for r, row in enumerate(views):
                if snapshot is not None:
                    snapshot(k, row)
                try:
                    est[r], sig[r] = row.gaussian_summary()
                except UndefinedMeanError:  # zero resultant: keep the last estimate
                    if k == 1:
                        est[r] = fb[r]
            estimates[:, k - 1] = est
            sigmas[:, k - 1] = sig
        else:  # a policy
            estimates[:, k - 1] = fb

    return [
        RunRecord(
            phi_true=phi_true,
            strategy=label,
            sample_channel=sample_channel,
            model_channel=model_channel,
            seed=tuple(entropy),
            feedbacks=feedbacks[r],
            outcomes=outcomes[r],
            estimates=estimates[r],
            sigmas=sigmas[r],
        )
        for r, entropy in enumerate(seeds)
    ]


def run_batch(
    phi_true,
    n,
    strategy,
    m,
    sample_channel=IDEAL,
    model_channel=None,
    grid_size=DEFAULT_GRID_SIZE,
    base_seed=0,
    phase_index=0,
    workers=1,
):
    """M independent runs at one true phase; returns (BatchStats, records).

    Run i is seeded by [base_seed, phase_index, i]. Contiguous blocks of
    runs advance in lockstep; each run draws only from its own
    generator, so the block size moves no bit. With workers > 1 the
    blocks are evaluated in a process pool of at most as many processes
    as CPUs and blocks, whose map returns them in run order, so the
    aggregate does not depend on scheduling.
    """
    if m < 2:
        raise ValueError("need m >= 2 runs")
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    size = max(1, _BLOCK_POINTS // grid_size)
    if workers > 1:  # no more workers than CPUs, and at least one block per worker
        workers = min(workers, os.cpu_count() or 1)
        size = min(size, -(-m // workers))
    seeds = [[base_seed, phase_index, i] for i in range(m)]
    blocks = [seeds[i:i + size] for i in range(0, m, size)]
    run = functools.partial(
        _run_rows, phi_true, n, strategy, sample_channel, model_channel, grid_size
    )
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing is slow to import

        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            records = [r for block in pool.map(run, blocks) for r in block]
    else:
        records = [r for block in map(run, blocks) for r in block]
    stats = BatchStats.from_estimates([r.final_estimate for r in records], phi_true)
    return stats, records


def sweep_phases(
    strategy,
    n,
    phases,
    m,
    sample_channel=IDEAL,
    model_channel=None,
    grid_size=DEFAULT_GRID_SIZE,
    base_seed=0,
    workers=1,
    keep_records=True,
):
    """run_batch per phase; an int phase argument means an even grid of
    that many phases, offset by half a cell to avoid phi = 0 exactly."""
    if np.isscalar(phases):
        if isinstance(phases, bool) or not isinstance(phases, (int, np.integer)) or phases < 1:
            raise ValueError(f"phase count must be an integer >= 1, got {phases!r}")
        count = int(phases)
        phases = [(j + 0.5) * TWO_PI / count for j in range(count)]
    else:
        phases = [float(p) for p in phases]
        if not phases:
            raise ValueError("empty phase list")
        if not all(map(math.isfinite, phases)):
            raise ValueError(f"phases must be finite, got {phases}")
    results = []
    for j, phi in enumerate(phases):
        stats, records = run_batch(
            phi,
            n,
            strategy,
            m,
            sample_channel=sample_channel,
            model_channel=model_channel,
            grid_size=grid_size,
            base_seed=base_seed,
            phase_index=j,
            workers=workers,
        )
        results.append(PhaseBatch(phi, stats, records if keep_records else []))
    return results


def batch_stats_at_step(records, k):
    """BatchStats from the per-step estimates at probe k of a batch."""
    if not records:
        raise ValueError("no records")
    if not 1 <= k <= records[0].n:
        raise ValueError(f"probe step must be in 1..{records[0].n}, got {k}")
    estimates = [float(r.estimates[k - 1]) for r in records]
    return BatchStats.from_estimates(estimates, records[0].phi_true)


def phase_average(stats):
    """The average over phases of per-phase BatchStats, as a dict.

    sigma_est and quad_loss are the means over phases; err_sigma is the
    standard error of the sigma_est mean, the per-phase error bars
    summed in quadrature over the phase count.
    """
    count = len(stats)
    if not count:
        raise ValueError("no phases to average")
    return {
        "sigma_est": sum(s.sigma_est for s in stats) / count,
        "err_sigma": math.sqrt(sum(s.err_sigma ** 2 for s in stats)) / count,
        "quad_loss": sum(s.quad_loss for s in stats) / count,
    }


def sigma_vs_probes(sweep_results, ks):
    """phase_average of the sweep at each probe count k, as one dict per
    k with "n" = k. Requires the sweep to have kept its RunRecords."""
    return [
        {"n": k, **phase_average([batch_stats_at_step(b.records, k) for b in sweep_results])}
        for k in ks
    ]


def reference_curves(channel, n_values):
    """Standard quantum limit and Cramer-Rao bound per probe count."""
    n_values = list(n_values)
    if not n_values:
        raise ValueError("empty probe-count range")
    return [
        {"n": n, "sql": precision_bound(IDEAL, n), "crb": precision_bound(channel, n)}
        for n in n_values
    ]


BATCH_CSV_COLUMNS = [
    "strategy", "channel", "phi_true", "n", *(f.name for f in fields(BatchStats)), "sql", "crb"
]


def write_batch_csv(path, rows):
    """Write benchmark rows (dicts keyed by BATCH_CSV_COLUMNS) as CSV;
    a missing or None cell is written empty and other keys are ignored."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BATCH_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
