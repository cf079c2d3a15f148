"""The three benchmark workloads: how each operation's inputs are drawn
from the workload seed, how its outputs are read back and checked, and
how the quality metric is computed from them.

Every operation is one ``mzphase`` CLI command. Operation ``i`` of a run
with workload seed ``s`` draws its inputs from
``numpy.random.default_rng([s, workload_id, i])``, so the same seed gives
the same operations, and the program only ever sees the phases, seeds and
policy file generated here. The first ``quality_ops`` operations of a run
form its quality set: they always run, so the quality metric is a fixed
function of the seed, and on the default seed their outputs are compared
against ``reference.json``.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi
DEFAULT_SEED = 1

# Floats in a reference must agree to this relative/absolute tolerance.
# A re-ordered summation or an exact Fourier posterior moves the recorded
# values by about 1e-13; a changed random stream moves them by 1e-3 or more.
FLOAT_TOL = 1e-9

# Phases for the half-circle estimators (inversion, bayes-fixed) stay this
# far inside [0, pi]: at the ends the truncated prior biases the estimate.
HALF_CIRCLE_MARGIN = 0.3

BATCH_FLOAT_COLUMNS = ("sigma_est", "err_mean", "err_sigma", "quad_loss", "sql", "crb")


def _op_rng(seed, workload_id, index):
    return np.random.default_rng([seed, workload_id, index])


def _phase(rng, strategy):
    if strategy in ("inversion", "bayes-fixed"):
        return float(rng.uniform(HALF_CIRCLE_MARGIN, math.pi - HALF_CIRCLE_MARGIN))
    return float(rng.uniform(0.0, TWO_PI))


def _cli_seed(rng):
    return int(rng.integers(0, 2 ** 31))


def wrapped_error(estimate, truth):
    """Signed difference estimate - truth wrapped to [-pi, pi)."""
    return (estimate - truth + math.pi) % TWO_PI - math.pi


def holevo_sigma(errors):
    """sqrt(S^-2 - 1) with S the sharpness |mean e^{i err}|."""
    s = abs(np.exp(1j * np.asarray(errors, dtype=float)).mean())
    return math.sqrt(max(1.0 / (s * s) - 1.0, 0.0)) if s > 0.0 else math.inf


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a, b, angle=False):
    if not _finite(a, b):
        return False
    diff = wrapped_error(a, b) if angle else a - b
    return abs(diff) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def compare_records(got, want, angles=()):
    """Problems found comparing one operation's record to its reference.

    Strings, integers and booleans must match exactly; floats (and lists
    of floats) within FLOAT_TOL; keys named in ``angles`` are compared
    modulo 2*pi.
    """
    problems = []
    if set(got) != set(want):
        return [f"record keys {sorted(got)} != reference {sorted(want)}"]
    for key, expected in want.items():
        value = got[key]
        if isinstance(expected, float):
            ok = isinstance(value, float) and _close(value, expected, key in angles)
        elif isinstance(expected, list) and expected and isinstance(expected[0], float):
            ok = isinstance(value, list) and len(value) == len(expected) and all(
                _close(v, e, key in angles) for v, e in zip(value, expected)
            )
        elif isinstance(expected, list) and expected and isinstance(expected[0], dict):
            ok = isinstance(value, list) and len(value) == len(expected)
            if ok:
                for row, ref_row in zip(value, expected):
                    problems += compare_records(row, ref_row, angles)
        else:
            ok = value == expected
        if not ok:
            problems.append(f"{key}: {value!r} != reference {expected!r}")
    return problems


@dataclass(frozen=True)
class Op:
    argv: list
    inputs: dict
    out_dir: str


# A known defect of the program, reproduced in every run and reported
# next to the result: at step 2, pgh can draw the first feedback phase again
# with the opposite outcome (or the phase opposite it with the same one);
# the posterior is then proportional to sin^2, its resultant is zero, and
# run_estimation's per-step gaussian_summary raises UndefinedMeanError.
KNOWN_DEFECT = {
    "name": "pgh_zero_resultant",
    "argv": ["estimate", "--strategy", "pgh", "--phi-true", "1.0", "--n", "2",
             "--grid-size", "1024", "--seed", "1111", "--threads", "1"],
    "message": "runtime error: zero resultant vector",
}


class Workload:
    """Base class: subclasses define the operation and its checks."""

    name = ""
    why = ""
    workload_id = 0
    quality_ops = 1
    angles = ()  # record keys compared modulo 2*pi
    calibration_ops = 1  # ops run untraced, then traced, to measure tracing

    def tiny(self):
        """A copy at the smallest size that still runs every code path."""
        raise NotImplementedError

    def setup(self, work_dir, seed):
        """Write set-up files; return the warm-up operations to run."""
        return []

    def op(self, index, seed, work_dir):
        """Operation `index` of a run with workload seed `seed`."""
        raise NotImplementedError

    def read(self, op):
        """Read the op's outputs: (record, problems, work), where work
        counts what the op completed, e.g. {"trajectories": 24}."""
        raise NotImplementedError

    def quality(self, records, ops, seed):
        """sigma_over_sql from the quality set's records and their ops;
        ValueError when they are too few to give it."""
        raise NotImplementedError


@dataclass(frozen=True)
class EstimateFidelity(Workload):
    name: str = "estimate-fidelity"
    why: str = (
        "100-probe estimate calls at the default 2^17 grid, rotating go, pgh "
        "and bayes-fixed: the posterior does nearly all the work, pso none"
    )
    workload_id: int = 1
    # 30 per strategy: the set alone takes 27-36 s, so a run stays near
    # --seconds
    quality_ops: int = 90
    calibration_ops: int = 3  # one of each strategy
    n: int = 100
    grid_size: int | None = None  # None: the CLI default (2^17)
    strategies: tuple = ("go", "pgh", "bayes-fixed")
    angles = ("final_estimate",)

    def tiny(self):
        return replace(self, quality_ops=3, n=6, grid_size=256)

    def _argv(self, strategy, phi, n, seed, out_dir):
        argv = ["estimate", "--strategy", strategy, "--phi-true", repr(phi),
                "--n", str(n), "--seed", str(seed), "--threads", "1", "--out", out_dir]
        if self.grid_size is not None:
            argv += ["--grid-size", str(self.grid_size)]
        return argv

    def setup(self, work_dir, seed):
        out_dir = os.path.join(work_dir, "warmup")
        return [Op(self._argv(s, 1.0, 1, seed, out_dir), {}, out_dir) for s in self.strategies]

    def op(self, index, seed, work_dir):
        rng = _op_rng(seed, self.workload_id, index)
        strategy = self.strategies[index % len(self.strategies)]
        phi = _phase(rng, strategy)
        cli_seed = _cli_seed(rng)
        out_dir = os.path.join(work_dir, "estimate")
        inputs = {"strategy": strategy, "phi_true": phi}
        return Op(self._argv(strategy, phi, self.n, cli_seed, out_dir), inputs, out_dir)

    def read(self, op):
        with open(os.path.join(op.out_dir, "run.json")) as fh:
            run = json.load(fh)
        steps = run["steps"]
        strategy = op.inputs["strategy"]
        problems = []
        if run["strategy"] != strategy:
            problems.append(f"strategy {run['strategy']!r} != {strategy!r}")
        if len(steps) != self.n:
            problems.append(f"{len(steps)} steps, expected {self.n}")
        if not _close(run["phi_true"], op.inputs["phi_true"], angle=True):
            problems.append(f"phi_true {run['phi_true']!r} != {op.inputs['phi_true']!r}")
        hi = math.pi if strategy == "bayes-fixed" else TWO_PI
        for s in steps:
            if s["outcome"] not in (0, 1):
                problems.append(f"step {s['k']}: outcome {s['outcome']!r}")
            if s["sigma"] is None or not _finite(s["feedback"], s["estimate"], s["sigma"]):
                problems.append(f"step {s['k']}: non-finite value {s}")
            elif not (0.0 <= s["estimate"] <= hi and 0.0 <= s["feedback"] < TWO_PI
                      and s["sigma"] >= 0.0):
                problems.append(f"step {s['k']}: value out of range {s}")
            if problems:
                break
        record = {
            "strategy": strategy,
            "outcomes": "".join(str(s["outcome"]) for s in steps),
            "final_estimate": run["final_estimate"],
            "final_sigma": steps[-1]["sigma"] if steps else None,
        }
        return record, problems, {"trajectories": 1}

    def quality(self, records, ops, seed):
        errors = {}
        for record, op in zip(records, ops):
            err = wrapped_error(record["final_estimate"], op.inputs["phi_true"])
            errors.setdefault(record["strategy"], []).append(err)
        missing = [s for s in self.strategies if s not in errors]
        if missing:
            raise ValueError(f"no successful quality-set op for {', '.join(missing)}")
        sigmas = [holevo_sigma(e) for e in errors.values()]
        return sum(sigmas) / len(sigmas) * math.sqrt(self.n)


@dataclass(frozen=True)
class SweepQuick(Workload):
    name: str = "sweep-quick"
    why: str = (
        "benchmark calls at grid 1024 over go, policy, inversion and bayes-fixed and "
        "three channels: many short runs, so per-step and per-run Python overhead dominates"
    )
    workload_id: int = 2
    quality_ops: int = 12
    calibration_ops: int = 5
    n: int = 40
    m: int = 8
    phases: int = 1
    grid_size: int = 1024
    # no pgh: at grid 1024 about 1 pgh run in 1400 hits the zero-resultant
    # defect (KNOWN_DEFECT) and aborts the whole call
    strategies: tuple = ("go", "policy", "inversion", "bayes-fixed")
    channels: tuple = ("ideal", "depolarizing:0.1", "phase:0.3")
    angles = ("circ_mean",)

    def tiny(self):
        return replace(self, quality_ops=1, n=5, m=2, grid_size=64)

    def policy_path(self, work_dir):
        return os.path.join(work_dir, "policy.json")

    def policy_deltas(self, seed):
        """d_k = 2/k with +-10% jitter drawn from the seed: within about 1.2x
        of the standard quantum limit at n = 40, so the policy rows carry a
        quality figure as steady as the adaptive ones."""
        rng = np.random.default_rng([seed, self.workload_id])
        k = np.arange(1, self.n + 1)
        return [float(d) for d in 2.0 / k * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, self.n))]

    def _argv(self, channels, phases, n, m, seed, work_dir, out_dir):
        return ["benchmark", "--strategies", ",".join(self.strategies),
                "--channels", ",".join(channels),
                "--phases", ",".join(repr(p) for p in phases), "--n", str(n),
                "--m", str(m), "--grid-size", str(self.grid_size), "--seed", str(seed),
                "--threads", "1", "--policy-file", self.policy_path(work_dir),
                "--out", out_dir]

    def setup(self, work_dir, seed):
        os.makedirs(work_dir, exist_ok=True)
        with open(self.policy_path(work_dir), "w") as fh:
            json.dump({"n": self.n, "deltas": self.policy_deltas(seed)}, fh)
        out_dir = os.path.join(work_dir, "warmup")
        return [Op(self._argv(["ideal"], [1.0], 2, 2, seed, work_dir, out_dir), {}, out_dir)]

    def op(self, index, seed, work_dir):
        rng = _op_rng(seed, self.workload_id, index)
        # one phase list serves every strategy, so it stays where the
        # half-circle estimators are valid
        phases = [_phase(rng, "inversion") for _ in range(self.phases)]
        out_dir = os.path.join(work_dir, "sweep")
        argv = self._argv(self.channels, phases, self.n, self.m, _cli_seed(rng), work_dir,
                          out_dir)
        return Op(argv, {"phases": phases}, out_dir)

    def read(self, op):
        with open(os.path.join(op.out_dir, "benchmark.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [
            (channel, strategy, phi)
            for channel in self.channels
            for strategy in self.strategies
            for phi in op.inputs["phases"]
        ]
        problems = []
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} rows, expected {len(expected)}")
        record_rows = []
        for row, (channel, strategy, phi) in zip(rows, expected):
            want = {"strategy": strategy, "channel": channel, "n": str(self.n), "m": str(self.m)}
            for key, value in want.items():
                if row.get(key) != value:
                    problems.append(f"{key} {row.get(key)!r} != {value!r}")
            values = {key: float(row[key]) for key in BATCH_FLOAT_COLUMNS}
            circ_mean = float(row["circ_mean"])
            if float(row["phi_true"]) != phi:
                problems.append(f"phi_true {row['phi_true']} != {phi!r}")
            if not _finite(circ_mean, *values.values()):
                problems.append(f"non-finite value in row {row}")
            elif not (0.0 <= circ_mean < TWO_PI and min(values.values()) >= 0.0
                      and values["sql"] > 0.0):
                problems.append(f"value out of range in row {row}")
            record_rows.append({**want, "phi_true": phi, "circ_mean": circ_mean, **values})
        return {"rows": record_rows}, problems, {"trajectories": self.m * len(rows)}

    def quality(self, records, ops, seed):
        """sigma_est/sql averaged over the benchmark.csv rows."""
        ratios = [row["sigma_est"] / row["sql"] for record in records for row in record["rows"]]
        if not ratios:
            raise ValueError("no successful quality-set op")
        return sum(ratios) / len(ratios)


@dataclass(frozen=True)
class TrainPolicy(Workload):
    name: str = "train-policy"
    why: str = (
        "train-policy --n 20 with swarm 40 and 1000 fitness samples: vectorised "
        "outcome sampling dominates, no posterior or heuristic code runs"
    )
    workload_id: int = 3
    quality_ops: int = 12
    n: int = 20
    # 30 swarm iterations instead of the default 400, which would take about
    # 23 s and leave one timing sample per run; swarm size and fitness
    # samples stay at their defaults.
    iterations: int = 30
    extra: tuple = ()
    rescore_samples: int = 20000
    angles = ()

    def tiny(self):
        return replace(self, quality_ops=1, n=4, iterations=2, rescore_samples=200,
                       extra=("--swarm-size", "4", "--fitness-samples", "50"))

    def _argv(self, n, iterations, seed, out_dir, extra):
        return ["train-policy", "--n", str(n), "--iterations", str(iterations),
                "--seed", str(seed), "--threads", "1", "--out", out_dir, *extra]

    def setup(self, work_dir, seed):
        out_dir = os.path.join(work_dir, "warmup")
        extra = ("--swarm-size", "2", "--fitness-samples", "10")
        return [Op(self._argv(2, 1, seed, out_dir, extra), {}, out_dir)]

    def op(self, index, seed, work_dir):
        rng = _op_rng(seed, self.workload_id, index)
        out_dir = os.path.join(work_dir, "train")
        return Op(self._argv(self.n, self.iterations, _cli_seed(rng), out_dir, self.extra),
                  {}, out_dir)

    def read(self, op):
        with open(os.path.join(op.out_dir, "policy.json")) as fh:
            policy = json.load(fh)
        deltas = policy["deltas"]
        config = policy["config"]
        problems = []
        if policy["n"] != self.n or len(deltas) != self.n:
            problems.append(f"policy length {policy['n']}/{len(deltas)} != {self.n}")
        if not _finite(*deltas, policy["sharpness"]):
            problems.append("non-finite delta or sharpness")
        elif not (all(-math.pi <= d <= math.pi for d in deltas)
                  and 0.0 < policy["sharpness"] <= 1.0):
            problems.append("delta or sharpness out of range")
        record = {"deltas": deltas, "sharpness": policy["sharpness"]}
        # every fitness sample simulates one n-probe policy trajectory
        evals = config["swarm_size"] * config["iterations"]
        work = {"fitness_evals": evals, "trajectories": evals * config["fitness_samples"]}
        return record, problems, work

    def quality(self, records, ops, seed):
        """Each trained policy re-scored on a held-out stream, as
        sqrt(S^-2 - 1) * sqrt(n), averaged over the quality set."""
        from mzphase.interferometer import IDEAL
        from mzphase.pso import Policy, estimate_sharpness

        if not records:
            raise ValueError("no successful quality-set op")
        total = 0.0
        for index, record in enumerate(records):
            rng = np.random.default_rng([seed, self.workload_id, index, 1])
            s = estimate_sharpness(Policy(record["deltas"]), IDEAL, self.rescore_samples, rng)
            total += math.sqrt(max(1.0 / (s * s) - 1.0, 0.0)) * math.sqrt(self.n)
        return total / len(records)


WORKLOADS = {w.name: w for w in (EstimateFidelity(), SweepQuick(), TrainPolicy())}
