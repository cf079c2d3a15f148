import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mzphase
from mzphase import BatchStats, cli, phase_average

# The directory holding the imported mzphase package. Prepending it to the
# child's PYTHONPATH makes every CLI run use the code under test, from any
# working directory, whether or not the package is installed.
_PACKAGE_ROOT = str(Path(mzphase.__file__).resolve().parents[1])


def run_cli(*args, cwd, **kwargs):
    pythonpath = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "mzphase.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        **kwargs,
    )


def test_estimate_writes_run_and_meta(tmp_path):
    result = run_cli(
        "estimate",
        "--strategy", "go",
        "--phi-true", "2.6819",
        "--n", "15",
        "--grid-size", "512",
        "--seed", "7",
        "--out", "out",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "out" / "run.json").read_text())
    assert len(payload["steps"]) == 15
    assert payload["strategy"] == "go"
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["seed"] == 7
    # nothing outside the output directory
    created = {p.name for p in tmp_path.iterdir()}
    assert created == {"out"}


def test_estimate_final_estimate_within_own_confidence(tmp_path):
    result = run_cli(
        "estimate", "--strategy", "go", "--phi-true", "2.6819", "--n", "40",
        "--grid-size", "1024", "--seed", "7", "--out", "out", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "out" / "run.json").read_text())
    last = payload["steps"][-1]
    error = abs(math.remainder(last["estimate"] - 2.6819, 2 * math.pi))
    assert error <= 3.0 * last["sigma"]


def test_estimate_is_idempotent(tmp_path):
    args = (
        "estimate", "--strategy", "pgh", "--phi-true", "1.0", "--n", "8",
        "--grid-size", "256", "--seed", "12",
    )
    first = run_cli(*args, "--out", "a", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    second = run_cli(*args, "--out", "b", cwd=tmp_path)
    assert second.returncode == 0, second.stderr
    assert (tmp_path / "a" / "run.json").read_bytes() == (
        tmp_path / "b" / "run.json"
    ).read_bytes()


def test_pgh_zero_resultant_step_keeps_the_last_estimate(tmp_path):
    # step 2 draws the antipode of Phi_1 with the same outcome: the posterior
    # sin^2(phi - Phi_1) has a zero resultant and no mean
    result = run_cli(
        "estimate", "--strategy", "pgh", "--phi-true", "1.0", "--n", "2",
        "--grid-size", "1024", "--seed", "1111", "--out", "out",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    steps = json.loads((tmp_path / "out" / "run.json").read_text())["steps"]
    assert steps[1]["sigma"] is None
    assert steps[1]["estimate"] == steps[0]["estimate"]
    assert "sigma_est=n/a" in result.stdout


def test_estimate_snapshots(tmp_path):
    result = run_cli(
        "estimate", "--strategy", "go", "--phi-true", "0.5", "--n", "3",
        "--grid-size", "64", "--seed", "3", "--snapshots", "--out", "out",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    snaps = sorted((tmp_path / "out" / "snapshots").iterdir())
    assert [p.name for p in snaps] == ["step_0001.csv", "step_0002.csv", "step_0003.csv"]
    header = snaps[0].read_text().splitlines()[0]
    assert header == "phi,weight"


def test_estimate_missing_strategy_is_config_error(tmp_path):
    result = run_cli("estimate", "--phi-true", "1.0", "--out", "out", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "strategy" in result.stderr


def test_estimate_zero_probes_is_config_error(tmp_path):
    result = run_cli(
        "estimate", "--strategy", "go", "--phi-true", "1.0", "--n", "0",
        "--out", "out", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "n" in result.stderr


def test_unknown_config_key_rejected(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"strategy": "go", "bogus": 1}))
    result = run_cli("estimate", "--config", "config.json", "--out", "out", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "bogus" in result.stderr


def test_meta_round_trips_as_config(tmp_path):
    first = run_cli(
        "estimate", "--strategy", "go", "--phi-true", "2.0", "--n", "6",
        "--grid-size", "128", "--seed", "9", "--out", "one", cwd=tmp_path,
    )
    assert first.returncode == 0, first.stderr
    meta = tmp_path / "one" / "meta.json"
    second = run_cli(
        "estimate", "--config", str(meta), "--out", "two", cwd=tmp_path,
    )
    assert second.returncode == 0, second.stderr
    # same seed and settings reproduce the identical record
    assert (tmp_path / "one" / "run.json").read_bytes() == (
        tmp_path / "two" / "run.json"
    ).read_bytes()


def test_train_policy_deterministic_and_warns(tmp_path):
    args = (
        "train-policy", "--n", "6", "--swarm-size", "6", "--iterations", "10",
        "--fitness-samples", "60", "--seed", "4",
    )
    first = run_cli(*args, "--out", "a", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert "sharpness" in first.stdout
    second = run_cli(*args, "--out", "b", cwd=tmp_path)
    assert second.returncode == 0, second.stderr
    assert (tmp_path / "a" / "policy.json").read_bytes() == (
        tmp_path / "b" / "policy.json"
    ).read_bytes()

    long_run = run_cli(
        "train-policy", "--n", "51", "--swarm-size", "2", "--iterations", "1",
        "--fitness-samples", "5", "--seed", "1", "--out", "warn", cwd=tmp_path,
    )
    assert long_run.returncode == 0, long_run.stderr
    assert "50" in (long_run.stderr + long_run.stdout)


def test_train_policy_rejects_tiny_swarm(tmp_path):
    result = run_cli(
        "train-policy", "--n", "4", "--swarm-size", "1", "--out", "out", cwd=tmp_path
    )
    assert result.returncode == 2, result.stderr
    assert "swarm" in result.stderr


def test_benchmark_csv_shape(tmp_path):
    policy_run = run_cli(
        "train-policy", "--n", "6", "--swarm-size", "6", "--iterations", "10",
        "--fitness-samples", "60", "--seed", "4", "--out", "pol", cwd=tmp_path,
    )
    assert policy_run.returncode == 0, policy_run.stderr
    result = run_cli(
        "benchmark",
        "--strategies", "go,pgh,policy",
        "--policy-file", "pol/policy.json",
        "--n", "6",
        "--m", "4",
        "--phases", "0.7,2.1",
        "--grid-size", "256",
        "--seed", "5",
        "--out", "bench",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "bench" / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 3 strategies x 2 phases
    strategies = {row["strategy"] for row in rows}
    assert strategies == {"go", "pgh", "policy"}
    sql = 1.0 / math.sqrt(6)
    assert all(float(row["sql"]) == sql for row in rows)
    with open(tmp_path / "bench" / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 3


def test_summary_rows_are_the_phase_average_of_benchmark_rows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "benchmark", "--strategies", "go,inversion", "--n", "4", "--m", "3", "--phases", "9",
        "--channels", "ideal,depolarizing:0.1", "--grid-size", "64", "--seed", "7",
        "--out", "bench",
    ]) == 0
    with open(tmp_path / "bench" / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "bench" / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 4  # 2 strategies x 2 channels
    for line in summary:
        label = (line["strategy"], line["channel"])
        group = [
            BatchStats(**{f.name: f.type(row[f.name]) for f in fields(BatchStats)})
            for row in rows if (row["strategy"], row["channel"]) == label
        ]
        assert len(group) == 9
        average = phase_average(group)
        assert {key: float(line[key]) for key in average} == average


def test_benchmark_csv_headers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["benchmark", "--strategies", "inversion", "--n", "3", "--m", "2",
                     "--phases", "1", "--out", "bench"]) == 0
    header = ("strategy,channel,phi_true,n,m,circ_mean,sigma_est,err_mean,err_sigma,"
              "quad_loss,sql,crb")
    for name in ("benchmark.csv", "summary.csv"):
        assert (tmp_path / "bench" / name).read_text().splitlines()[0] == header


def test_benchmark_channel_groups(tmp_path):
    result = run_cli(
        "benchmark",
        "--strategies", "pgh",
        "--n", "4",
        "--m", "3",
        "--phases", "2",
        "--channels", "ideal,depolarizing:0.1,depolarizing:0.25",
        "--grid-size", "128",
        "--seed", "6",
        "--out", "bench",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "bench" / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    channels = {row["channel"] for row in rows}
    assert channels == {"ideal", "depolarizing:0.1", "depolarizing:0.25"}
    assert len(rows) == 6  # 3 channels x 2 phases
    crbs = {row["channel"]: float(row["crb"]) for row in rows}
    assert crbs["depolarizing:0.1"] == 1.0 / (0.9 * 2.0)


@pytest.mark.parametrize("key", ["strategies", "channels"])
@pytest.mark.parametrize("value", [",", " , ,", ""])
def test_benchmark_empty_comma_list_is_config_error(key, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["benchmark", "--strategies", "inversion", "--n", "3", "--m", "2", "--phases", "1",
            "--grid-size", "64", "--seed", "1", "--out", "out"]
    assert cli.main([*args, "--" + key, value]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["ideal:", "depolarizing:", "phase:"])
def test_a_channel_spec_without_its_value_is_config_error(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["benchmark", "--strategies", "inversion", "--n", "3", "--m", "2", "--phases", "1",
            "--grid-size", "64", "--seed", "1", "--out", "out"]
    assert cli.main([*args, "--channels", spec]) == 2
    assert "channels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["strategies", "channels", "inputs"])
@pytest.mark.parametrize("value", [5, {}, []])
def test_list_option_in_config_must_be_a_non_empty_list(key, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({key: value}))
    command = ["plot-data", "--figure-id", "f"] if key == "inputs" else [
        "benchmark", "--n", "3", "--m", "2", "--phases", "1", "--grid-size", "64"]
    assert cli.main([*command, "--config", "config.json", "--seed", "1", "--out", "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_comma_lists_are_stripped_and_meta_keeps_them_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "benchmark", "--strategies", " inversion, ,bayes-fixed ", "--channels", "ideal ,",
        "--n", "3", "--m", "2", "--phases", "1", "--grid-size", "64", "--seed", "1",
        "--out", "out",
    ]) == 0
    with open(tmp_path / "out" / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["strategy"], row["channel"]) for row in rows] == [
        ("inversion", "ideal"), ("bayes-fixed", "ideal")
    ]
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert (meta["strategies"], meta["channels"]) == (" inversion, ,bayes-fixed ", "ideal ,")


def test_plot_data_empty_comma_list_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"inputs": " , "}))
    assert cli.main(["plot-data", "--config", "config.json", "--figure-id", "f",
                     "--out", "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_plot_data_from_run_and_batch(tmp_path):
    estimate = run_cli(
        "estimate", "--strategy", "go", "--phi-true", "1.1", "--n", "5",
        "--grid-size", "128", "--seed", "2", "--out", "est", cwd=tmp_path,
    )
    assert estimate.returncode == 0, estimate.stderr
    batch = run_cli(
        "benchmark", "--strategies", "go", "--n", "4", "--m", "3", "--phases", "2",
        "--grid-size", "128", "--seed", "3", "--out", "bench", cwd=tmp_path,
    )
    assert batch.returncode == 0, batch.stderr
    result = run_cli(
        "plot-data",
        "--inputs", "est/run.json", "bench/benchmark.csv",
        "--figure-id", "sigma-traces",
        "--out", "plot",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "plot" / "plotdata.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["figure_id"] for row in rows} == {"sigma-traces"}
    series = {row["series"] for row in rows}
    assert "go:sigma_est" in series and "sql" in series and "go:ideal" in series
    # trajectory rows expose (k, sigma_est) points with an SQL reference
    sigma_rows = [row for row in rows if row["series"] == "go:sigma_est"]
    assert [row["x"] for row in sigma_rows] == ["1", "2", "3", "4", "5"]


def test_plot_data_from_summaries_plots_sigma_against_n(tmp_path, monkeypatch):
    # a summary.csv row averages over phases, so its point sits at x = n
    monkeypatch.chdir(tmp_path)
    ns = (4, 8, 16)
    want = []
    for n in ns:
        assert cli.main([
            "benchmark", "--strategies", "go,inversion", "--channels", "ideal,depolarizing:0.1",
            "--n", str(n), "--m", "3", "--phases", "2", "--grid-size", "128", "--seed", "3",
            "--out", f"bench{n}",
        ]) == 0
        with open(tmp_path / f"bench{n}" / "summary.csv", newline="") as fh:
            want.extend((f"{line['strategy']}:{line['channel']}", str(n),
                         line["sigma_est"], line["err_sigma"]) for line in csv.DictReader(fh))
    assert len(want) == 12  # 2 strategies x 2 channels x 3 n
    assert cli.main(["plot-data", "--inputs", *(f"bench{n}/summary.csv" for n in ns),
                     "--figure-id", "sigma-vs-n", "--out", "plot"]) == 0
    with open(tmp_path / "plot" / "plotdata.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = [(row["series"], row["x"], row["y"], row["yerr"])
              for row in rows if row["series"] not in ("sql", "crb")]
    assert points == want
    for n in ns:
        sql = {row["y"] for row in rows if row["series"] == "sql" and row["x"] == str(n)}
        assert sql == {repr(mzphase.precision_bound(mzphase.IDEAL, n))}


def test_plot_data_empty_inputs_is_config_error(tmp_path):
    result = run_cli("plot-data", "--figure-id", "f", "--out", "plot", cwd=tmp_path)
    assert result.returncode == 2, result.stderr


@pytest.mark.parametrize("name, text", [
    ("broken.json", "{not json"),
    ("broken.json", "5"),  # valid JSON that is not an object
    ("broken.json", '{"steps": [[1, 2]], "strategy": "go"}'),  # steps that are not objects
    ("absent.json", None),  # no such file
    ("broken.csv", "strategy,phi_true\ngo,1.0\n"),  # a CSV without a sigma_est column
    # a CSV without a channel column, one that benchmark always writes
    ("broken.csv", "strategy,phi_true,n,sigma_est,err_sigma,sql,crb\ngo,1.0,4,0.5,0.1,0.5,0.5\n"),
], ids=[
    "not-json", "not-an-object", "steps-not-objects", "missing-file", "csv-without-sigma-est",
    "csv-without-channel",
])
def test_plot_data_malformed_input_is_runtime_error(tmp_path, name, text):
    if text is not None:
        (tmp_path / name).write_text(text)
    result = run_cli(
        "plot-data", "--inputs", name, "--figure-id", "f",
        "--out", "plot", cwd=tmp_path,
    )
    assert result.returncode == 3, result.stderr
    # one failure path: the message carries main's exit-3 prefix
    prefix = f"runtime error: plot-data: malformed input {name}"
    assert result.stderr.startswith(prefix), result.stderr
    # a failed command leaves no plotdata.csv and no meta.json
    out = tmp_path / "plot"
    assert not (out / "plotdata.csv").exists()
    assert not (out / "meta.json").exists()


def test_console_entry_point_runs(tmp_path):
    result = subprocess.run(
        ["mzphase", "estimate", "--strategy", "go", "--phi-true", "1.0",
         "--n", "2", "--grid-size", "64", "--seed", "1", "--out", "out"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_leaves_out_hashing_and_process_pools(tmp_path):
    # both are slow to import: only a seedless run and a worker pool take
    # them, on first use
    code = ("import sys, mzphase.cli; "
            "print(sorted({'hashlib', 'concurrent.futures'} & set(sys.modules)))")
    pythonpath = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
    seedless = run_cli("estimate", "--strategy", "inversion", "--phi-true", "1.0", "--n", "2",
                       "--out", "out", cwd=tmp_path)
    assert seedless.returncode == 0, seedless.stderr
    seed = json.loads((tmp_path / "out" / "meta.json").read_text())["seed"]
    assert isinstance(seed, int) and 0 <= seed < 2 ** 63


def test_non_finite_channel_is_config_error(tmp_path):
    for spec in ("phase:nan", "phase:inf"):
        estimate = run_cli(
            "estimate", "--strategy", "go", "--phi-true", "1.0", "--n", "3",
            "--channel", spec, "--out", "est", cwd=tmp_path,
        )
        assert estimate.returncode == 2, estimate.stderr
        train = run_cli(
            "train-policy", "--n", "3", "--swarm-size", "2", "--iterations", "1",
            "--fitness-samples", "5", "--channel", spec, "--out", "train", cwd=tmp_path,
        )
        assert train.returncode == 2, train.stderr


def test_phi_true_must_be_a_finite_number(tmp_path):
    (tmp_path / "config.json").write_text(
        json.dumps({"strategy": "go", "phi_true": "x", "n": 3})
    )
    from_file = run_cli("estimate", "--config", "config.json", "--out", "a", cwd=tmp_path)
    assert from_file.returncode == 2, from_file.stderr
    assert "phi_true" in from_file.stderr
    for value in ("nan", "inf"):
        flag = run_cli(
            "estimate", "--strategy", "go", "--phi-true", value, "--n", "3",
            "--out", "b", cwd=tmp_path,
        )
        assert flag.returncode == 2, flag.stderr
    assert not (tmp_path / "b" / "run.json").exists()


def test_non_finite_policy_file_is_config_error(tmp_path):
    (tmp_path / "policy.json").write_text('{"n": 2, "deltas": [NaN, 0.1]}')
    result = run_cli(
        "estimate", "--strategy", "policy", "--policy-file", "policy.json",
        "--phi-true", "1.0", "--n", "2", "--out", "out", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr


def test_bad_phases_are_config_errors(tmp_path):
    args = ("benchmark", "--strategies", "inversion", "--n", "3", "--m", "2",
            "--grid-size", "64", "--out", "out")
    for phases in ("nan", "x", "0", "0.5,inf", "0.5,,1", ""):
        result = run_cli(*args, "--phases", phases, cwd=tmp_path)
        assert result.returncode == 2, (phases, result.stderr)
        assert "phases" in result.stderr
    for phases in (2.5, True, [], [0.5, "x"], [None]):
        (tmp_path / "config.json").write_text(json.dumps({"phases": phases}))
        result = run_cli(*args, "--config", "config.json", cwd=tmp_path)
        assert result.returncode == 2, (phases, result.stderr)
        assert "phases" in result.stderr
    assert not (tmp_path / "out").exists()


def test_integer_settings_must_be_integral(tmp_path):
    cases = [
        ("estimate", {"strategy": "inversion", "phi_true": 1.0}, "n", (2.5, True)),
        ("estimate", {"strategy": "go", "phi_true": 1.0, "n": 2}, "grid_size", (64.5, False)),
        ("estimate", {"strategy": "inversion", "phi_true": 1.0, "n": 2}, "seed", (7.5, True)),
        ("benchmark", {"strategies": "inversion", "n": 2, "phases": 1}, "m", (2.5, True)),
        ("benchmark", {"strategies": "inversion", "n": 2, "m": 2, "phases": 1}, "threads", (1.5, True)),
        ("train-policy", {"n": 2, "iterations": 1, "fitness_samples": 5}, "swarm_size", (2.5, True)),
    ]
    for command, base, key, values in cases:
        for value in values:
            (tmp_path / "config.json").write_text(json.dumps({**base, key: value}))
            result = run_cli(command, "--config", "config.json", "--out", "out", cwd=tmp_path)
            assert result.returncode == 2, (key, value, result.stderr)
            assert key in result.stderr
    assert not (tmp_path / "out").exists()


# meta.json of each subcommand as recorded before its options moved into
# one table: the resolved keys, the defaults, and the given values' types
GOLDEN_META = {
    "estimate": (
        ["--strategy", "inversion", "--phi-true", "1.0"],
        {"channel": "ideal", "go_fallback": "real-part", "grid_size": 131072,
         "model_channel": "ideal", "n": 40, "phi_true": 1.0,
         "sign_convention": "alternate", "snapshots": False, "strategy": "inversion"},
    ),
    "train-policy": (
        ["--n", "3", "--swarm-size", "2", "--iterations", "1", "--fitness-samples", "5"],
        {"channel": "ideal", "fitness_samples": 5, "iterations": 1, "n": 3, "swarm_size": 2},
    ),
    "benchmark": (
        ["--strategies", "inversion"],
        {"channels": ["ideal"], "go_fallback": "real-part", "grid_size": 131072, "m": 100,
         "model_channel": "ideal", "n": 40, "phases": 20, "sign_convention": "alternate",
         "strategies": "inversion"},
    ),
    "plot-data": (
        ["--inputs", "run.json", "--figure-id", "f"],
        {"figure_id": "f", "inputs": ["run.json"]},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_META))
def test_meta_matches_golden(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"strategy": "go", "steps": []}')
    args, resolved = GOLDEN_META[command]
    assert cli.main([command, *args, "--seed", "3", "--out", "out"]) == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta == {**resolved, "out": "out", "seed": 3, "threads": 1}


def test_config_file_overrides_defaults_and_command_line_overrides_both(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(
        {"strategy": "inversion", "phi_true": 1.0, "n": 5, "channel": "phase:0.2", "seed": 8}
    ))
    assert cli.main(["estimate", "--config", "config.json", "--n", "4", "--out", "out"]) == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["n"] == 4  # command line over config file
    assert meta["channel"] == "phase:0.2"  # config file over default
    assert meta["seed"] == 8
    assert meta["model_channel"] == "ideal"  # default
    assert len(json.loads((tmp_path / "out" / "run.json").read_text())["steps"]) == 4


@pytest.mark.parametrize(
    "payload",
    ["[1, 2]", '"deltas"', '{"deltas": [0.1, 0.2], "channel": 5}',
     '{"deltas": [0.1, 0.2], "channel": ["ideal"]}', '{"n": [2], "deltas": [0.1, 0.2]}',
     '{"n": 2.5, "deltas": [0.1, 0.2]}', '{"n": "2", "deltas": [0.1, 0.2]}'],
)
def test_malformed_policy_file_is_config_error(tmp_path, payload):
    (tmp_path / "policy.json").write_text(payload)
    for command, args in (
        ("estimate", ("--strategy", "policy", "--phi-true", "1.0")),
        ("benchmark", ("--strategies", "policy", "--m", "2", "--phases", "1.0")),
    ):
        result = run_cli(
            command, *args, "--policy-file", "policy.json", "--n", "2",
            "--grid-size", "64", "--out", "out", cwd=tmp_path,
        )
        assert result.returncode == 2, (command, result.stderr)
        assert "policy file" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "benchmark"])
def test_policy_shorter_than_n_is_config_error(tmp_path, command):
    (tmp_path / "policy.json").write_text('{"n": 2, "deltas": [0.1, 0.2]}')
    args = {
        "estimate": ("--strategy", "policy", "--phi-true", "1.0"),
        "benchmark": ("--strategies", "go,policy", "--m", "2", "--phases", "1.0"),
    }[command]
    result = run_cli(
        command, *args, "--policy-file", "policy.json", "--n", "3",
        "--grid-size", "64", "--out", "out", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "fewer than n=3" in result.stderr
    assert not (tmp_path / "out").exists()
    # a policy at least n long still runs
    result = run_cli(
        command, *args, "--policy-file", "policy.json", "--n", "2",
        "--grid-size", "64", "--out", "out", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr


# A config each subcommand runs with, so that the one bad value given on
# top of it is the only fault.
VALID_CONFIG = {
    "estimate": {"strategy": "inversion", "phi_true": 1.0, "n": 2},
    "train-policy": {"n": 2, "swarm_size": 2, "iterations": 1, "fitness_samples": 5},
    "benchmark": {"strategies": "inversion", "n": 2, "m": 2, "phases": 1, "grid_size": 64},
    "plot-data": {"inputs": ["run.json"], "figure_id": "f"},
}


def bad_values(key, kind):
    """Values the row (key, kind) must reject: of the wrong kind (a parser
    row gets an object), below an int's minimum, outside a row's choices,
    or a bool or an integer too large for a float where a float is due."""
    if key == "policy_file":
        return [0]  # open(0) would read the policy from stdin
    if kind is int:
        return ["x", cli._MINIMUM.get(key, 1) - 1]
    if isinstance(kind, tuple):
        return [5, "bogus"]
    return {float: ["x", True, 10**400], str: [5, [1, 2]], bool: ["false"],
            list: [[5]]}.get(kind, [{}])


@pytest.mark.parametrize("command", sorted(VALID_CONFIG))
def test_valid_config_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"strategy": "go", "steps": []}')
    (tmp_path / "config.json").write_text(json.dumps(VALID_CONFIG[command]))
    assert cli.main([command, "--config", "config.json", "--seed", "1", "--out", "out"]) == 0


@pytest.mark.parametrize("command,key,value", [
    pytest.param(command, key, value, id=f"{command}-{key}-{json.dumps(value)[:12]}")
    for command, options in cli._OPTIONS.items()
    for key, kind, _, _ in options
    for value in bad_values(key, kind)
])
def test_every_option_is_checked_where_it_enters(command, key, value, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"strategy": "go", "steps": []}')
    config = {"seed": 1, **VALID_CONFIG[command], key: value}
    args = [command, "--config", "config.json", *([] if key == "out" else ["--out", "out"])]
    if key == "policy_file":
        # with the policy strategy, so that the file is read; in a child
        # whose stdin is empty, so that a read of fd 0 cannot hang
        config["strategies" if command == "benchmark" else "strategy"] = "policy"
        (tmp_path / "config.json").write_text(json.dumps(config))
        result = run_cli(*args, cwd=tmp_path, stdin=subprocess.DEVNULL)
        code, err = result.returncode, result.stderr
    else:
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = cli.main(args)
        err = capsys.readouterr().err
    assert code == 2, err
    assert re.search(rf"\b{key}\b", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run.json"]


def _tree(root):
    """Every file under root as {relative path: bytes}."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_the_shared_parsers_keep_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # one process runs a sequence through cli.main; fresh child processes
    # run each command alone: codes, streams and files must agree
    benchmark = ["benchmark", "--strategies", "go,inversion", "--n", "4", "--m", "3",
                 "--phases", "2", "--grid-size", "64", "--seed", "5", "--out", "bench"]
    sequence = [
        benchmark,
        ["benchmark", "--strategies", "nope", "--out", "bad"],  # config error
        ["estimate", "--no-such-option", "1"],  # argparse error
        ["estimate", "--strategy", "go", "--phi-true", "1.0", "--n", "3",
         "--grid-size", "64", "--seed", "1", "--out", "est"],
        benchmark,
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    inproc, child = tmp_path / "inproc", tmp_path / "child"
    inproc.mkdir(), child.mkdir()
    monkeypatch.chdir(inproc)
    got = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        got.append((code, out, err))
        if len(got) == 1:
            first = _tree(inproc)
    want = [(r.returncode, r.stdout, r.stderr) for r in
            (run_cli(*argv, cwd=child) for argv in sequence)]
    assert got == want
    assert [code for code, _, _ in got] == [0, 2, 2, 0, 0]
    assert _tree(inproc) == _tree(child)
    assert {k: v for k, v in _tree(inproc).items() if k.startswith("bench")} == first
    assert cli.build_parser("benchmark") is cli.build_parser("benchmark")


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_a_command_line_without_a_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "usage: mzphase [-h] {estimate,train-policy,benchmark,plot-data} ...\n"
    )


def test_top_level_help_lists_the_four_subcommands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("positional arguments:") + 1
    assert lines[start:start + 5] == [
        "  {estimate,train-policy,benchmark,plot-data}",
        "    estimate            run one estimation trajectory",
        "    train-policy        train an offline feedback policy",
        "    benchmark           batch statistics over phases and channels",
        "    plot-data           reshape results into tidy CSV",
    ]


def test_the_parser_for_no_subcommand_builds_no_subcommand_options():
    [sub] = [a for a in cli.build_parser(None)._actions if a.dest == "command"]
    assert {name: [a.dest for a in p._actions] for name, p in sub.choices.items()} == {
        name: ["help"] for name in cli._COMMANDS
    }


def test_plot_data_sql_rows_are_the_reference_curve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n = 60
    assert cli.main(["estimate", "--strategy", "inversion", "--phi-true", "1.0", "--n", str(n),
                     "--seed", "3", "--out", "est"]) == 0
    assert cli.main(["plot-data", "--inputs", "est/run.json", "--figure-id", "f",
                     "--out", "plot"]) == 0
    with open(tmp_path / "plot" / "plotdata.csv", newline="") as fh:
        sql = [(row["x"], row["y"]) for row in csv.DictReader(fh) if row["series"] == "sql"]
    want = [(str(ref["n"]), repr(ref["sql"]))
            for ref in mzphase.reference_curves(mzphase.IDEAL, range(1, n + 1))]
    assert sql == want
