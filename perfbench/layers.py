"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public attributes of the ``mzphase`` modules
(module-level names as the calling module sees them, and methods of
``PosteriorGrid``) with wrappers that time each call; ``uninstall`` puts
the originals back. The wrappers never touch a random generator or an
argument they pass on, so outputs and random draws are unchanged.

A span's self time is its duration minus the time of the traced calls it
encloses, wrappers included; the per-operation root span is ``cli.main``,
so the self times of all spans add up to the operation time less the
wrappers' own cost. Spans are aggregated in place
(calls, total, self) rather than kept one by one, which keeps memory flat
over hundreds of thousands of calls.

An attribute that does not exist is recorded in ``absent`` and skipped,
so the benchmark keeps running when a later version drops a layer.
"""

import functools
import importlib
import time

# (module, attribute, span name). Several bindings of one function share a
# span name, e.g. run_estimation as seen by the CLI and by run_batch.
HOOKS = (
    ("mzphase.cli", "run_estimation", "harness.run_estimation"),
    ("mzphase.cli", "sweep_phases", "harness.sweep_phases"),
    ("mzphase.cli", "train_policy", "pso.train_policy"),
    ("mzphase.harness", "run_estimation", "harness.run_estimation"),
    ("mzphase.harness", "run_batch", "harness.run_batch"),
    ("mzphase.harness", "next_feedback", "heuristics.next_feedback"),
    ("mzphase.harness", "sample_outcome", "interferometer.sample_outcome"),
    ("mzphase.harness", "make_generator", "rng.make_generator"),
    ("mzphase.harness", "inversion_estimate", "nonadaptive.inversion_estimate"),
    ("mzphase.harness", "apply_policy_step", "pso.apply_policy_step"),
    ("mzphase.heuristics", "go_feedback", "heuristics.go_feedback"),
    ("mzphase.heuristics", "pgh_feedback", "heuristics.pgh_feedback"),
    ("mzphase.posterior", "noisy_likelihood", "interferometer.noisy_likelihood"),
    ("mzphase.posterior", "PosteriorGrid.uniform", "posterior.uniform"),
    ("mzphase.posterior", "PosteriorGrid.copy", "posterior.copy"),
    ("mzphase.posterior", "PosteriorGrid.update", "posterior.update"),
    ("mzphase.posterior", "PosteriorGrid.resultant", "posterior.resultant"),
    ("mzphase.posterior", "PosteriorGrid.sharpness", "posterior.sharpness"),
    ("mzphase.posterior", "PosteriorGrid.circular_mean", "posterior.circular_mean"),
    ("mzphase.posterior", "PosteriorGrid.holevo_variance", "posterior.holevo_variance"),
    ("mzphase.posterior", "PosteriorGrid.gaussian_summary", "posterior.gaussian_summary"),
    ("mzphase.posterior", "PosteriorGrid.sample", "posterior.sample"),
    ("mzphase.pso", "pso_step", "pso.pso_step"),
    ("mzphase.pso", "sample_outcomes", "interferometer.sample_outcomes"),
    ("mzphase.pso", "make_generator", "rng.make_generator"),
)

# Per-layer metrics: name -> (unit, better). The benchmark prints exactly
# these with --trace 1; BENCHMARK.json lists the same names and units.
PER_LAYER = {
    "posterior.update.us_per_call": ("us", "lower"),
    "posterior.resultant.calls_per_step": ("count", "lower"),
    "posterior.gaussian_summary.us_per_call": ("us", "lower"),
    "posterior.sample.us_per_call": ("us", "lower"),
    "posterior.bytes_per_update": ("B", "lower"),
    "interferometer.noisy_likelihood.us_per_call": ("us", "lower"),
    "interferometer.sample_outcome.us_per_call": ("us", "lower"),
    "interferometer.sample_outcomes.us_per_call": ("us", "lower"),
    "harness.run_estimation.self_us_per_step": ("us", "lower"),
    "heuristics.next_feedback.self_us": ("us", "lower"),
    "heuristics.go_wide_steps_per_step": ("count", "lower"),
    "heuristics.pgh_feedback.calls_per_step": ("count", "lower"),
    "rng.make_generator.us_per_call": ("us", "lower"),
    "nonadaptive.inversion_estimate.us_per_call": ("us", "lower"),
    "harness.pool_speedup": ("ratio", "higher"),
    "harness.pool_w1_ms": ("ms", "lower"),
    "harness.pool_w2_ms": ("ms", "lower"),
    "pso.fitness.ms_per_call": ("ms", "lower"),
    "pso.update.self_ms_per_step": ("ms", "lower"),
    "pso.best_fitness": ("ratio", "higher"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.steps = 0  # probes requested through run_estimation
        self.update_bytes = 0  # posterior weight bytes over all updates
        self.go_wide_steps = 0
        self.convergence = []  # per training: best swarm fitness after each step
        self.absent = []
        self._stack = []
        self._undo = []

    def span(self, name, func, before=None, after=None):
        """Wrap func so each call is timed as a span called name.

        The enclosing span is charged the whole wrapped call, wrapper
        included, so the wrapper's own cost lands in no span's self time:
        it is the gap between the summed self times and the op time.
        before(args, kwargs) may return replacement (args, kwargs);
        after(args, kwargs) runs once the call has returned.
        """
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = clock()
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += clock() - entered
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    # argument readers for the spans that count something

    def _count_steps(self, args, kwargs):
        self.steps += int(_arg(args, kwargs, 1, "n"))
        return args, kwargs

    def _count_update_bytes(self, args, kwargs):
        self.update_bytes += args[0].weights.nbytes
        return args, kwargs

    def _count_wide(self, args, kwargs):
        summary = _arg(args, kwargs, 0, "summary")
        if summary.sigma > self._sigma_valid_max:
            self.go_wide_steps += 1
        return args, kwargs

    def _wrap_fitness(self, args, kwargs):
        fitness = self.span("pso.fitness", _arg(args, kwargs, 2, "fitness"))
        if len(args) > 2:
            args = args[:2] + (fitness,) + args[3:]
        else:
            kwargs = {**kwargs, "fitness": fitness}
        return args, kwargs

    def _begin_training(self, args, kwargs):
        self.convergence.append([])
        return args, kwargs

    def _record_best(self, args, kwargs):
        swarm = _arg(args, kwargs, 0, "swarm")
        if self.convergence:
            self.convergence[-1].append(max(p.best_fitness for p in swarm))

    def install(self):
        heuristics = importlib.import_module("mzphase.heuristics")
        self._sigma_valid_max = getattr(heuristics, "SIGMA_VALID_MAX", 0.921)
        special = {
            "harness.run_estimation": (self._count_steps, None),
            "posterior.update": (self._count_update_bytes, None),
            "heuristics.go_feedback": (self._count_wide, None),
            "pso.train_policy": (self._begin_training, None),
            "pso.pso_step": (self._wrap_fitness, self._record_best),
        }
        for module_name, path, span_name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{module_name}.{path}")
                continue
            # class attributes are read raw so classmethods stay classmethods
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            traced = self.span(span_name, func, *special.get(span_name, (None, None)))
            if isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(traced)
            setattr(owner, attr, traced)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def table(self, op_seconds):
        """Per-span rows sorted by self time, with each span's share of the
        summed operation time."""
        rows = [
            {
                "span": name,
                "calls": s.calls,
                "total_ms": s.total * 1e3,
                "self_ms": s.self_time * 1e3,
                "self_share": s.self_time / op_seconds if op_seconds > 0 else 0.0,
            }
            for name, s in self.spans.items()
            if s.calls
        ]
        return sorted(rows, key=lambda r: -r["self_ms"])

    def metrics(self, ops, extra):
        """PER_LAYER values from the spans; extra supplies the pool and
        overhead figures measured outside the spans."""

        def per_call(name, scale=1e6, self_time=False):
            s = self.spans.get(name)
            if s is None or not s.calls:
                return 0.0
            return (s.self_time if self_time else s.total) * scale / s.calls

        def per_step(name, self_time=False):
            s = self.spans.get(name)
            if s is None or not self.steps:
                return 0.0
            return (s.self_time * 1e6 if self_time else s.calls) / self.steps

        updates = self.spans.get("posterior.update")
        finals = [c[-1] for c in self.convergence if c]
        cli = self.spans.get("cli.main")
        values = {
            "posterior.update.us_per_call": per_call("posterior.update"),
            "posterior.resultant.calls_per_step": per_step("posterior.resultant"),
            "posterior.gaussian_summary.us_per_call": per_call("posterior.gaussian_summary"),
            "posterior.sample.us_per_call": per_call("posterior.sample"),
            "posterior.bytes_per_update": (
                self.update_bytes / updates.calls if updates and updates.calls else 0.0
            ),
            "interferometer.noisy_likelihood.us_per_call": per_call(
                "interferometer.noisy_likelihood"
            ),
            "interferometer.sample_outcome.us_per_call": per_call("interferometer.sample_outcome"),
            "interferometer.sample_outcomes.us_per_call": per_call(
                "interferometer.sample_outcomes"
            ),
            "harness.run_estimation.self_us_per_step": per_step(
                "harness.run_estimation", self_time=True
            ),
            "heuristics.next_feedback.self_us": per_call(
                "heuristics.next_feedback", self_time=True
            ),
            "heuristics.go_wide_steps_per_step": (
                self.go_wide_steps / self.steps if self.steps else 0.0
            ),
            "heuristics.pgh_feedback.calls_per_step": per_step("heuristics.pgh_feedback"),
            "rng.make_generator.us_per_call": per_call("rng.make_generator"),
            "nonadaptive.inversion_estimate.us_per_call": per_call(
                "nonadaptive.inversion_estimate"
            ),
            "pso.fitness.ms_per_call": per_call("pso.fitness", scale=1e3),
            "pso.update.self_ms_per_step": per_call("pso.pso_step", scale=1e3, self_time=True),
            "pso.best_fitness": sum(finals) / len(finals) if finals else 0.0,
            "cli.main.self_ms": cli.self_time * 1e3 / ops if cli and ops else 0.0,
            "harness.pool_speedup": 0.0,
            "harness.pool_w1_ms": 0.0,
            "harness.pool_w2_ms": 0.0,
            "trace.overhead_frac": 0.0,
            **extra,
        }
        return {name: values[name] for name in PER_LAYER}
