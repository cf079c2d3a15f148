"""Tests of the benchmark itself: tracing must not change what the program
does, the output check must have the documented tolerance, and the
metric names printed must match BENCHMARK.json."""

import io
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from mzphase import cli, harness, pso  # noqa: E402


def _record_generators(monkeypatch):
    """Keep every generator the program makes, to compare their states."""
    made = []
    for module in (harness, pso):
        original = module.make_generator

        def make_generator(entropy, original=original):
            rng = original(entropy)
            made.append(rng)
            return rng

        monkeypatch.setattr(module, "make_generator", make_generator)
    return made


def _run_ops(workload, work_dir, main):
    """Outputs of the workload's calibration ops."""
    results = []
    sink = io.StringIO()
    for index in range(workload.calibration_ops):
        op = workload.op(index, workloads.DEFAULT_SEED, work_dir)
        code, _ = bench.run_op(op, sink, main)
        assert code == 0
        results.append(bench.read_outputs(op.out_dir))
    return results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_and_random_draws_unchanged(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name].tiny()
    workload.setup(str(tmp_path), workloads.DEFAULT_SEED)
    made = _record_generators(monkeypatch)

    plain = _run_ops(workload, str(tmp_path), cli.main)
    plain_states = [g.bit_generator.state for g in made]
    made.clear()

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = _run_ops(workload, str(tmp_path), tracer.span("cli.main", cli.main))
    finally:
        tracer.uninstall()
    traced_states = [g.bit_generator.state for g in made]

    assert traced == plain
    assert plain_states and traced_states == plain_states
    assert tracer.spans["cli.main"].calls == workload.calibration_ops
    assert not tracer.absent


def test_uninstall_restores_every_attribute():
    from mzphase.posterior import PosteriorGrid

    before = (harness.run_estimation, pso.pso_step, vars(PosteriorGrid)["uniform"])
    tracer = layers.Tracer()
    tracer.install()
    assert harness.run_estimation is not before[0]
    tracer.uninstall()
    assert (harness.run_estimation, pso.pso_step, vars(PosteriorGrid)["uniform"]) == before


def test_missing_attribute_is_reported_absent(monkeypatch):
    monkeypatch.delattr(harness, "next_feedback")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["mzphase.harness.next_feedback"]
    assert tracer.metrics(1, {})["heuristics.next_feedback.self_us"] == 0.0


def _fail_call(monkeypatch, name, exc, when):
    """Make cli's binding of harness function `name` raise exc on the
    calls for which when(call number, args) is true."""
    original = getattr(cli, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if when(len(calls), args):
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, failing)


def test_a_strategy_that_crashes_makes_the_run_incorrect(tmp_path, monkeypatch):
    # every pgh op crashes; the n=1 warm-up ops still run
    _fail_call(monkeypatch, "run_estimation", RuntimeError("boom"),
               lambda call, args: args[1] > 1 and getattr(args[2], "kind", None) == "pgh")
    result, report = bench.run_workload("estimate-fidelity", workloads.DEFAULT_SEED, 0.0, 0,
                                        str(tmp_path), tiny=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("runtime error: boom" in p for p in report["problems"])
    assert any("no successful quality-set op for pgh" in p for p in report["problems"])


def test_a_failed_sweep_op_makes_the_run_incorrect(tmp_path, monkeypatch):
    from mzphase.posterior import UndefinedMeanError

    # 4 warm-up sweeps, then 12 per op: every op past the first fails
    _fail_call(monkeypatch, "sweep_phases", UndefinedMeanError("zero resultant vector"),
               lambda call, args: call > 16)
    result, report = bench.run_workload("sweep-quick", workloads.DEFAULT_SEED, 0.5, 0,
                                        str(tmp_path), tiny=True)
    assert result["failed"] == result["attempted"] - 1 > 0
    assert not result["correct"]
    assert any("zero resultant vector" in p for p in report["problems"])


def test_known_defect_probe_reads_the_failure(tmp_path, monkeypatch):
    from mzphase.posterior import UndefinedMeanError

    _fail_call(monkeypatch, "run_estimation", UndefinedMeanError("zero resultant vector"),
               lambda call, args: True)
    assert bench.probe_known_defect(str(tmp_path))["status"] == "reproduced"
    _fail_call(monkeypatch, "run_estimation", RuntimeError("boom"), lambda call, args: True)
    defect = bench.probe_known_defect(str(tmp_path))
    assert defect["status"] == "not reproduced"
    assert defect["exit_code"] == 3


def test_reference_tolerance_admits_rounding_and_catches_a_changed_stream():
    want = {"outcomes": "0110", "final_estimate": 6.283185307179586, "deltas": [0.5, -0.25]}
    angles = ("final_estimate",)
    rounded = {"outcomes": "0110", "final_estimate": 1e-14, "deltas": [0.5 + 1e-13, -0.25]}
    assert workloads.compare_records(rounded, want, angles) == []
    for key, value in (("outcomes", "0111"), ("final_estimate", 6.2831), ("deltas", [0.5, -0.2501])):
        assert workloads.compare_records({**want, key: value}, want, angles)


def test_self_check_metric_names_match_benchmark_json(tmp_path):
    assert bench.self_check(str(tmp_path)) == 0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
