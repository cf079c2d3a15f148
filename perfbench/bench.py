"""Closed-loop benchmark of the mzphase CLI.

One process drives ``mzphase.cli.main([...])`` in process: each
operation is one CLI command, and the next starts only after the previous
one returns. See README.md in this directory for the workloads, the
metrics and what they should move.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import mzphase
from mzphase import cli, harness

from layers import PER_LAYER, Tracer
from workloads import DEFAULT_SEED, KNOWN_DEFECT, WORKLOADS, Op, compare_records

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# name -> (unit, better); printed with --trace 0, listed in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "norm_trajectories_per_s": ("1/s", "higher"),
    "sigma_over_sql": ("ratio", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Fresh-interpreter set-up times, taken at even intervals through the op
# loop: on a shared host they come in a fast and a slow mode (about 0.24
# and 0.37 s here), each lasting seconds, and a median of samples spread
# over the run sees more of both than a burst would.
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 120.0
# Share of the default seed's reference ops that may differ from
# reference.json. The go rule takes the mean direction of a nearly flat
# posterior in its first steps, which amplifies rounding about tenfold per
# step, so a re-ordered summation changes a few trajectories outright (2 of
# 105 estimate-fidelity ops when BLAS went from two threads to one). A
# changed random stream changes every op.
REFERENCE_SLACK = 0.1
# The op loop stops here whatever --seconds asks, so a run ends within 180 s.
LOOP_LIMIT_S = 140.0
# Host speed. On a shared host the same op mix runs 10-30% slower for
# stretches of seconds to minutes, so whole runs differ by that much. A
# fixed kernel timed after every untraced op, for CAL_SHARE of the op's
# time, tracks that state: over six 20-s runs per workload, op time over
# kernel time varied by 3%, op time alone by 9-15%. The gated throughput
# is scaled to a host on which the kernel takes CAL_REF_S, about what it
# took on the host this benchmark was written on.
CAL_REF_S = 0.015
CAL_SHARE = 0.05
CAL_GRID = np.linspace(0.0, 2.0 * math.pi, 1 << 17)
POOL_REPEATS = 3
POOL_BATCH = {"phi_true": 1.0, "n": 40, "strategy": "go", "m": 48, "grid_size": 1024}
TINY_POOL_BATCH = {"phi_true": 1.0, "n": 4, "strategy": "go", "m": 4, "grid_size": 64}


def run_op(op, sink, main):
    """Run one CLI command; return (exit code, wall seconds). The sink
    keeps what the command printed, standard error included."""
    sink.seek(0)
    sink.truncate()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(op.argv)
    return code, time.perf_counter() - start


def calibrate():
    """Wall seconds of a fixed kernel doing what the program's hot paths do:
    a pure-Python float loop and numpy element-wise work on a 2^17 grid.
    An untimed first pass brings the grid back into cache, so the time
    depends less on what the op before it left there."""
    np.cos(CAL_GRID + 0.1)
    start = time.perf_counter()
    total = 0.0
    for i in range(6000):
        total += i * 0.5
    for _ in range(6):
        total += float(np.cos(CAL_GRID + 0.1).sum())
    return time.perf_counter() - start


def read_outputs(out_dir):
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def measure_pool(seed, batch):
    """Wall time of one fixed run_batch with 1 and with 2 worker processes,
    median of POOL_REPEATS alternating pairs; None when run_batch is gone."""
    run_batch = getattr(harness, "run_batch", None)
    if run_batch is None:
        return None
    times = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for workers in (1, 2):
            start = time.perf_counter()
            run_batch(**batch, base_seed=seed, workers=workers)
            times[workers].append(time.perf_counter() - start)
    w1, w2 = (statistics.median(times[w]) for w in (1, 2))
    return {"harness.pool_speedup": w1 / w2, "harness.pool_w1_ms": w1 * 1e3,
            "harness.pool_w2_ms": w2 * 1e3}


def probe_known_defect(work_dir):
    """Run KNOWN_DEFECT's command once. Its status reads "reproduced" while
    the program still fails there with the known message; it never affects
    the result line."""
    out_dir = os.path.join(work_dir, "defect-probe")
    sink = io.StringIO()
    code, _ = run_op(Op(KNOWN_DEFECT["argv"] + ["--out", out_dir], {}, out_dir), sink, cli.main)
    printed = sink.getvalue().strip().splitlines()
    last = printed[-1] if printed else ""
    reproduced = code != 0 and KNOWN_DEFECT["message"] in last
    return {"name": KNOWN_DEFECT["name"], "argv": KNOWN_DEFECT["argv"],
            "status": "reproduced" if reproduced else "not reproduced",
            "exit_code": code, "last_line": last[:200]}


def setup_probe(workload, seed, work_dir):
    """Set-up as a fresh interpreter pays it: the warm-up ops after import."""
    sink = io.StringIO()
    for op in workload.setup(work_dir, seed):
        code, _ = run_op(op, sink, cli.main)
        if code != 0:
            print(f"perfbench: warm-up {op.argv} exited {code}", file=sys.stderr)
            return 1
    return 0


def time_setup(workload, seed, work_dir, tiny):
    """Wall seconds of a fresh interpreter that imports the program and
    runs the workload's set-up.

    The parent blocks in a plain wait(): Popen.wait with a timeout polls
    in steps of up to 50 ms, which would quantise each sample by that much.
    A timer kills a probe that hangs instead."""
    probe_dir = os.path.join(work_dir, "setup-probe")
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", workload.name, "--seed", str(seed), "--work-dir", probe_dir]
    if tiny:
        argv.append("--tiny")
    start = time.perf_counter()
    probe = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    killer = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
    killer.start()
    try:
        code = probe.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


class Run:
    """Operation loop state: timings, work counts, failures, quality set.

    An op fails when it exits non-zero or when its output fails a check.
    Either makes the run's outputs incorrect. Reference mismatches are
    judged over the whole run (see REFERENCE_SLACK).
    """

    def __init__(self):
        self.times = []
        self.ok_times = []  # ops that exited 0
        self.cal_times = []  # calibrate() after each untraced op
        self.setup_times = []
        self.work = {}
        self.failed = 0
        self.incorrect = 0
        self.problems = []
        self.records = []  # per quality-set op: its record, or None if it failed
        self.quality_ops = []
        self.compared = 0
        self.mismatched = []

    def fail(self, index, problems):
        self.failed += 1
        self.incorrect += 1
        if self.failed <= 5:
            self.note(f"op {index}: {'; '.join(problems[:3])}")

    def note(self, problem):
        self.problems.append(problem)


def measure(workload, seed, seconds, work_dir, reference=None, tracer=None,
            pool_batch=POOL_BATCH, setup=None, setup_repeats=0):
    """The closed loop: ops 0, 1, ... until both the quality set is done
    and `seconds` have passed. With a tracer, the first few ops first run
    untraced, then the same ops traced, to measure the overhead and
    to check that tracing leaves every output byte unchanged. setup() is
    timed setup_repeats times, at even intervals of the loop."""
    run = Run()
    sink = io.StringIO()
    main = cli.main
    extra = {}
    untraced = []
    if tracer is not None:
        for index in range(workload.calibration_ops):
            op = workload.op(index, seed, work_dir)
            _, elapsed = run_op(op, sink, main)
            untraced.append((elapsed, read_outputs(op.out_dir)))
        extra = measure_pool(seed, pool_batch) or {}
        tracer.install()
        main = tracer.span("cli.main", cli.main)
    start = time.perf_counter()
    index = 0
    try:
        while index < workload.quality_ops or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > LOOP_LIMIT_S:
                break
            due = len(run.setup_times) * seconds / max(setup_repeats, 1)
            if setup and len(run.setup_times) < setup_repeats and time.perf_counter() - start >= due:
                run.setup_times.append(setup())
            op = workload.op(index, seed, work_dir)
            code, elapsed = run_op(op, sink, main)
            run.times.append(elapsed)
            spent = 0.0
            while tracer is None and (spent == 0.0 or spent < CAL_SHARE * elapsed):
                run.cal_times.append(calibrate())
                spent += run.cal_times[-1]
            record, problems = None, []
            if code == 0:
                run.ok_times.append(elapsed)
                try:
                    record, problems, work = workload.read(op)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                else:
                    for key, value in work.items():
                        run.work[key] = run.work.get(key, 0) + value
                if index < len(untraced) and read_outputs(op.out_dir) != untraced[index][1]:
                    problems.append("traced output bytes differ from untraced")
            want = reference[index] if reference and index < len(reference) else None
            if want:
                run.compared += 1
                if code != 0 or problems or compare_records(record, want, workload.angles):
                    run.mismatched.append(index)
            if index < workload.quality_ops:
                run.records.append(None if code != 0 or problems else record)
                run.quality_ops.append(op)
            if code != 0:
                printed = sink.getvalue().strip().splitlines()
                message = printed[-1] if printed else ""
                run.fail(index, [f"exit code {code}: {message[:200]}"])
            elif problems:
                run.fail(index, problems)
            index += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    while setup and len(run.setup_times) < setup_repeats:
        run.setup_times.append(setup())
    if untraced:
        count = min(len(run.times), len(untraced))
        untraced_seconds = sum(t for t, _ in untraced[:count])
        extra["trace.overhead_frac"] = sum(run.times[:count]) / untraced_seconds - 1.0
    return run, extra


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root):
    package = os.path.join(root, "src", "mzphase")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def metadata(workload, seed, trace):
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mzphase": getattr(mzphase, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


def load_reference(workload, seed, tiny):
    if tiny or seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload.name)


def run_workload(name, seed, seconds, trace, work_dir, tiny=False, record_reference=False):
    """One benchmark run; returns (result line dict, report dict)."""
    workload = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    os.makedirs(work_dir, exist_ok=True)
    if setup_probe(workload, seed, work_dir) != 0:
        raise RuntimeError("set-up failed")
    known_defect = probe_known_defect(work_dir)
    reference = None if record_reference else load_reference(workload, seed, tiny)
    tracer = Tracer() if trace else None
    # set-up time is an end-to-end metric, measured with tracing off
    setup = None if trace else functools.partial(time_setup, workload, seed, work_dir, tiny)
    run, extra = measure(workload, seed, seconds, work_dir, reference, tracer,
                         TINY_POOL_BATCH if tiny else POOL_BATCH, setup,
                         1 if tiny else SETUP_REPEATS)
    if len(run.records) < workload.quality_ops:
        run.incorrect += 1
        run.note(f"only {len(run.records)} of {workload.quality_ops} quality-set ops ran")
    if len(run.mismatched) > REFERENCE_SLACK * run.compared:
        run.incorrect += 1
        run.note(f"{len(run.mismatched)} of {run.compared} ops differ from reference.json "
                 f"(ops {run.mismatched[:10]})")
    op_seconds = sum(run.times)
    report = {
        "meta": metadata(workload, seed, trace),
        "ops": len(run.times),
        "op_seconds": op_seconds,
        "setup_samples_s": run.setup_times,
        "op_times_s": run.times,
        "fail_frac": run.failed / len(run.times),
        "reference": {"compared": run.compared, "mismatched": run.mismatched},
        "known_defect": known_defect,
        "problems": run.problems,
    }
    if run.ok_times:
        report["op_ms_mean"] = statistics.mean(run.ok_times) * 1e3
        report["op_ms_p50"] = statistics.median(run.ok_times) * 1e3
    if len(run.ok_times) >= 100:
        report["op_ms_p90"] = statistics.quantiles(run.ok_times, n=10)[-1] * 1e3
    for key, value in run.work.items():
        report[f"{key}_per_s"] = value / op_seconds
    if record_reference:
        report["records"] = run.records
    if trace:
        report["spans"] = tracer.table(op_seconds)
        report["absent"] = tracer.absent
        report["convergence"] = [
            statistics.mean(step) for step in zip(*[c for c in tracer.convergence if c])
        ]
        values = tracer.metrics(len(run.times), extra)
        units = PER_LAYER
    else:
        try:
            sigma_over_sql = workload.quality(
                [r for r in run.records if r is not None],
                [op for r, op in zip(run.records, run.quality_ops) if r is not None],
                seed,
            )
        except ValueError as exc:
            run.incorrect += 1
            run.note(f"no quality figure: {exc}")
            sigma_over_sql = 0.0
        report["cal_ms_mean"] = statistics.mean(run.cal_times) * 1e3
        values = {
            "setup_s": statistics.median(run.setup_times),
            "norm_trajectories_per_s": (
                report.get("trajectories_per_s", 0.0) * statistics.mean(run.cal_times) / CAL_REF_S
            ),
            "sigma_over_sql": sigma_over_sql,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": run.incorrect == 0,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k][0]} for k, v in values.items()},
    }
    return result, report


def print_report(result, report):
    meta = report["meta"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}: "
          f"{report['ops']} ops in {report['op_seconds']:.2f} s of operation time")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_frac':48s} {report['fail_frac']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for key in ("op_ms_mean", "op_ms_p50", "op_ms_p90"):
        if key in report:
            print(f"  {key:48s} {report[key]:14.6g} ms    (ops that exited 0)")
        else:
            print(f"  {key:48s} {'n/a':>14s}    (too few ops that exited 0)")
    for key in sorted(report):
        if key.endswith("_per_s"):
            print(f"  {key:48s} {report[key]:14.6g} 1/s")
    if "cal_ms_mean" in report:
        print(f"  {'cal_ms_mean':48s} {report['cal_ms_mean']:14.6g} ms    "
              f"(host speed kernel; reference {CAL_REF_S * 1e3:g} ms)")
    if "spans" in report:
        print(f"  per-span self time (share of {report['op_seconds'] * 1e3:.1f} ms op time):")
        unattributed = report["op_seconds"] * 1e3 - sum(r["self_ms"] for r in report["spans"])
        for row in report["spans"]:
            print(f"    {row['span']:40s} calls={row['calls']:<9d} "
                  f"total={row['total_ms']:11.2f} ms self={row['self_ms']:11.2f} ms "
                  f"({row['self_share']:6.1%})")
        print(f"    {'(tracing wrappers)':40s} {'':25s} self={unattributed:11.2f} ms "
              f"({unattributed / (report['op_seconds'] * 1e3):6.1%})")
        if report["absent"]:
            print(f"  absent hooks: {', '.join(report['absent'])}")
    ref = report["reference"]
    if ref["compared"]:
        print(f"  reference.json: {len(ref['mismatched'])} of {ref['compared']} ops differ "
              f"(allowed {REFERENCE_SLACK:.0%})")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    defect = report["known_defect"]
    print(f"  known defect {defect['name']}: {defect['status']} "
          f"(mzphase {' '.join(defect['argv'])} -> exit {defect['exit_code']}: "
          f"{defect['last_line']})")
    print("meta: " + json.dumps(meta, sort_keys=True))


def self_check(work_dir):
    """Run every workload once at tiny size, traced and untraced, and check
    that the metric names and units printed match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's metrics")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(name, DEFAULT_SEED, 0.0, trace, work_dir, tiny=True)
            declared = spec["end_to_end" if trace == 0 else "per_layer"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{name} trace={trace}"
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"]:
                problems.append(f"{label}: outputs failed checks {report['problems']}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{label}: non-finite metric")
            print(f"self-check {label}: {len(got)} metrics, {result['attempted']} ops, "
                  f"{result['failed']} failed")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_reference(work_dir):
    """Write reference.json: the quality-set records of the default seed."""
    reference = {}
    for name in WORKLOADS:
        result, report = run_workload(name, DEFAULT_SEED, 0.0, 0, work_dir,
                                      record_reference=True)
        if not result["correct"]:
            raise RuntimeError(f"{name}: outputs failed checks {report['problems']}")
        reference[name] = report["records"]
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run each workload once at tiny size and check metric names")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from the default seed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.self_check or args.record_reference or args.workload):
        p.error("--workload is required")
    return args


def main(argv):
    package_dir = os.path.dirname(os.path.abspath(mzphase.__file__))
    if package_dir != os.path.join(ROOT, "src", "mzphase"):
        print(f"perfbench: imported mzphase from {package_dir}, not from this checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    base = os.path.join(ROOT, ".perfbench_work")
    if args.setup_probe:
        workload = WORKLOADS[args.workload]
        return setup_probe(workload.tiny() if args.tiny else workload, args.seed, args.work_dir)
    work_dir = os.path.join(base, f"run-{os.getpid()}")
    try:
        if args.self_check:
            return self_check(work_dir)
        if args.record_reference:
            return record_reference(work_dir)
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results_dir = os.path.join(base, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **report}, fh, indent=1)
    print_report(result, report)
    print(json.dumps(result))
    return 0
