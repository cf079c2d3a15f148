"""Command-line front end.

Four workflows: ``estimate`` (one trajectory), ``train-policy`` (swarm
policy search), ``benchmark`` (batches / phase sweeps with reference
bounds), ``plot-data`` (reshape results into tidy long-format CSV).

Configuration comes from an optional JSON file (--config) merged with
command-line overrides; unknown keys are rejected. Every command writes
a ``meta.json`` with the fully resolved configuration, including the
seed (drawn and recorded when not supplied), and that file can be fed
back via --config to reproduce the outputs byte for byte. All outputs
stay inside the --out directory.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

import argparse
import csv
import json
import math
import os
import secrets
import sys

from .harness import (
    reference_curves,
    run_estimation,
    sweep_phases,
    write_batch_csv,
)
from .heuristics import Heuristic
from .interferometer import NoiseChannel
from .posterior import DEFAULT_GRID_SIZE
from .pso import Policy, PsoConfig, train_policy


class ConfigError(Exception):
    pass


# ------------------------------------------------------------------
# configuration plumbing

_COMMON_KEYS = {"seed", "out", "threads"}
_KEYS = {
    "estimate": _COMMON_KEYS
    | {
        "strategy",
        "phi_true",
        "n",
        "channel",
        "model_channel",
        "grid_size",
        "sign_convention",
        "go_fallback",
        "policy_file",
        "snapshots",
    },
    "train-policy": _COMMON_KEYS
    | {
        "n",
        "channel",
        "swarm_size",
        "iterations",
        "omega",
        "beta1",
        "alpha2",
        "neighborhood_radius",
        "fitness_samples",
        "velocity_clamp",
        "init_range",
    },
    "benchmark": _COMMON_KEYS
    | {
        "strategies",
        "n",
        "m",
        "phases",
        "channels",
        "model_channel",
        "grid_size",
        "sign_convention",
        "go_fallback",
        "policy_file",
    },
    "plot-data": _COMMON_KEYS | {"inputs", "figure_id"},
}

_DEFAULTS = {
    "estimate": {
        "n": 40,
        "channel": "ideal",
        "model_channel": "ideal",
        "grid_size": DEFAULT_GRID_SIZE,
        "sign_convention": "alternate",
        "go_fallback": "real-part",
        "snapshots": False,
    },
    "train-policy": {"channel": "ideal"},
    "benchmark": {
        "n": 40,
        "m": 100,
        "phases": 20,
        "channels": ["ideal"],
        "model_channel": "ideal",
        "grid_size": DEFAULT_GRID_SIZE,
        "sign_convention": "alternate",
        "go_fallback": "real-part",
    },
    "plot-data": {},
}


def _load_config(command, args):
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    allowed = _KEYS[command]
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        config[key] = value
    merged = dict(_DEFAULTS[command])
    merged.update(config)
    merged.setdefault("out", "mzphase-out")
    merged.setdefault("threads", 1)
    if merged.get("seed") is None:
        merged["seed"] = secrets.randbits(63)
    return merged


def _require(config, key):
    if config.get(key) is None:
        raise ConfigError(f"missing required config key: {key!r}")
    return config[key]


def _parse_channel(spec, key):
    try:
        return NoiseChannel.parse(str(spec))
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}")


def _positive_int(config, key, minimum=1):
    value = config.get(key)
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {config.get(key)!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _finite_float(config, key):
    raw = _require(config, key)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _resolve_heuristic(kind, config):
    try:
        return Heuristic(
            kind=kind,
            go_fallback=config["go_fallback"],
            sign_convention=config["sign_convention"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _resolve_strategy(name, config):
    if name in ("go", "pgh"):
        return _resolve_heuristic(name, config)
    if name == "policy":
        path = _require(config, "policy_file")
        try:
            return Policy.load(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load policy file {path!r}: {exc}")
    if name in ("inversion", "bayes-fixed"):
        return name
    raise ConfigError(f"unknown strategy: {name!r}")


def _out_path(config, *parts):
    out = config["out"]
    os.makedirs(os.path.join(out, *parts[:-1]), exist_ok=True)
    return os.path.join(out, *parts)


def _write_meta(config):
    """Echo the resolved configuration; reusable via --config."""
    with open(_out_path(config, "meta.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------
# commands

def cmd_estimate(args):
    config = _load_config("estimate", args)
    strategy_name = _require(config, "strategy")
    phi_true = _finite_float(config, "phi_true")
    n = _positive_int(config, "n")
    grid_size = _positive_int(config, "grid_size", minimum=2)
    strategy = _resolve_strategy(strategy_name, config)
    sample_channel = _parse_channel(config["channel"], "channel")
    model_channel = _parse_channel(config["model_channel"], "model_channel")

    snapshot = None
    if config["snapshots"]:

        def snapshot(k, grid):
            grid.dump_csv(_out_path(config, "snapshots", f"step_{k:04d}.csv"))

    record = run_estimation(
        phi_true,
        n,
        strategy,
        sample_channel=sample_channel,
        model_channel=model_channel,
        grid_size=grid_size,
        seed=[int(config["seed"])],
        snapshot=snapshot,
    )
    record.write_json(_out_path(config, "run.json"))
    _write_meta(config)
    final_sigma = record.sigmas[-1]
    sigma_text = "n/a" if math.isnan(final_sigma) else f"{final_sigma:.6f}"
    print(
        f"estimate: phi_est={record.final_estimate:.6f} "
        f"sigma_est={sigma_text} (n={n}, strategy={record.strategy})"
    )
    return 0


def cmd_train_policy(args):
    config = _load_config("train-policy", args)
    n = _positive_int(config, "n")
    channel = _parse_channel(config["channel"], "channel")
    pso_kwargs = {}
    for key in (
        "swarm_size",
        "iterations",
        "neighborhood_radius",
        "fitness_samples",
    ):
        if config.get(key) is not None:
            pso_kwargs[key] = _positive_int(config, key, minimum=0)
    for key in ("omega", "beta1", "alpha2", "velocity_clamp", "init_range"):
        if config.get(key) is not None:
            pso_kwargs[key] = _finite_float(config, key)
    try:
        pso_config = PsoConfig(seed=int(config["seed"]), **pso_kwargs).validate()
    except ValueError as exc:
        raise ConfigError(str(exc))

    policy = train_policy(n, channel=channel, config=pso_config)
    path = _out_path(config, "policy.json")
    policy.save(path)
    _write_meta(config)
    holevo = 1.0 / policy.sharpness ** 2 - 1.0
    print(
        f"trained policy n={n}: sharpness={policy.sharpness:.6f} "
        f"holevo_variance={holevo:.6f} -> {path}"
    )
    return 0


def cmd_benchmark(args):
    config = _load_config("benchmark", args)
    strategies = config.get("strategies") or ["go"]
    if isinstance(strategies, str):
        strategies = [s.strip() for s in strategies.split(",") if s.strip()]
    n = _positive_int(config, "n")
    m = _positive_int(config, "m", minimum=2)
    grid_size = _positive_int(config, "grid_size", minimum=2)
    phases = config["phases"]
    if isinstance(phases, str):
        if "," in phases:
            phases = [float(p) for p in phases.split(",")]
        elif phases.isdigit():
            phases = int(phases)
        else:
            phases = [float(phases)]
    channels = config["channels"]
    if isinstance(channels, str):
        channels = [c.strip() for c in channels.split(",") if c.strip()]
    model_channel = _parse_channel(config["model_channel"], "model_channel")
    resolved = [(name, _resolve_strategy(name, config)) for name in strategies]
    seed = int(config["seed"])
    threads = _positive_int(config, "threads")

    rows = []
    summary = []
    for channel_spec in channels:
        channel = _parse_channel(channel_spec, "channels")
        reference = reference_curves(channel, [n])[0]
        bound = reference["crb"]
        sql = reference["sql"]
        for name, strategy in resolved:
            results = sweep_phases(
                strategy,
                n,
                phases,
                m,
                sample_channel=channel,
                model_channel=model_channel,
                grid_size=grid_size,
                base_seed=seed,
                workers=threads,
                keep_records=False,
            )
            for batch in results:
                stats = batch.stats
                rows.append(
                    {
                        "strategy": name,
                        "channel": channel.spec(),
                        "phi_true": batch.phi_true,
                        "n": n,
                        "m": stats.m,
                        "circ_mean": stats.circular_mean,
                        "sigma_est": stats.sigma_est,
                        "err_mean": stats.err_mean,
                        "err_sigma": stats.err_sigma,
                        "quad_loss": stats.quad_loss,
                        "sql": sql,
                        "crb": bound,
                    }
                )
            sigma_avg = sum(b.stats.sigma_est for b in results) / len(results)
            loss_avg = sum(b.stats.quad_loss for b in results) / len(results)
            summary.append(
                {
                    "strategy": name,
                    "channel": channel.spec(),
                    "phi_true": None,
                    "n": n,
                    "m": m,
                    "circ_mean": None,
                    "sigma_est": sigma_avg,
                    "err_mean": None,
                    "err_sigma": None,
                    "quad_loss": loss_avg,
                    "sql": sql,
                    "crb": bound,
                }
            )

    write_batch_csv(_out_path(config, "benchmark.csv"), rows)
    write_batch_csv(_out_path(config, "summary.csv"), summary)
    _write_meta(config)
    print(f"benchmark: {len(rows)} rows -> {_out_path(config, 'benchmark.csv')}")
    return 0


def _plot_rows_from_run(payload, figure_id):
    strategy = payload["strategy"]
    rows = []
    for step in payload["steps"]:
        k = step["k"]
        rows.append((figure_id, f"{strategy}:estimate", k, step["estimate"],
                     "" if step["sigma"] is None else step["sigma"]))
        if step["sigma"] is not None:
            rows.append((figure_id, f"{strategy}:sigma_est", k, step["sigma"], ""))
        rows.append((figure_id, "sql", k, 1.0 / math.sqrt(k), ""))
    return rows


def _plot_rows_from_batch(path, figure_id):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "sigma_est" not in reader.fieldnames:
            raise ValueError(f"{path}: not a benchmark CSV")
        for line in reader:
            if not line.get("phi_true"):
                continue
            series = f"{line['strategy']}:{line.get('channel', 'ideal')}"
            x = line["phi_true"]
            rows.append((figure_id, series, x, line["sigma_est"], line["err_sigma"]))
            if line.get("sql"):
                rows.append((figure_id, "sql", x, line["sql"], ""))
            if line.get("crb"):
                rows.append((figure_id, "crb", x, line["crb"], ""))
    return rows


def cmd_plot_data(args):
    config = _load_config("plot-data", args)
    inputs = config.get("inputs") or []
    if isinstance(inputs, str):
        inputs = [p for p in inputs.split(",") if p]
    if not inputs:
        raise ConfigError("no input files given")
    figure_id = _require(config, "figure_id")

    rows = []
    for path in inputs:
        try:
            if path.endswith(".json"):
                with open(path) as fh:
                    payload = json.load(fh)
                if "steps" not in payload:
                    raise ValueError(f"{path}: not a run record")
                rows.extend(_plot_rows_from_run(payload, figure_id))
            else:
                rows.extend(_plot_rows_from_batch(path, figure_id))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"plot-data: malformed input {path}: {exc}", file=sys.stderr)
            return 3

    out_csv = _out_path(config, "plotdata.csv")
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["figure_id", "series", "x", "y", "yerr"])
        for row in rows:
            writer.writerow(row)
    _write_meta(config)
    print(f"plot-data: {len(rows)} rows -> {out_csv}")
    return 0


# ------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="base RNG seed (drawn if absent)")
    parser.add_argument("--out", help="output directory (default mzphase-out)")
    parser.add_argument("--threads", type=int, help="worker processes for batches")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mzphase",
        description="Adaptive single-photon phase estimation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="run one estimation trajectory")
    _add_common(p)
    p.add_argument("--strategy", choices=["go", "pgh", "policy", "inversion", "bayes-fixed"])
    p.add_argument("--phi-true", dest="phi_true", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--channel")
    p.add_argument("--model-channel", dest="model_channel")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--sign-convention", dest="sign_convention",
                   choices=["alternate", "random"])
    p.add_argument("--go-fallback", dest="go_fallback", choices=["real-part", "pgh"])
    p.add_argument("--policy-file", dest="policy_file")
    p.add_argument("--snapshots", action="store_const", const=True,
                   help="dump per-step posterior CSV snapshots")

    p = sub.add_parser("train-policy", help="train an offline feedback policy")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--channel")
    p.add_argument("--swarm-size", dest="swarm_size", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--neighborhood-radius", dest="neighborhood_radius", type=int)
    p.add_argument("--fitness-samples", dest="fitness_samples", type=int)
    p.add_argument("--velocity-clamp", dest="velocity_clamp", type=float)
    p.add_argument("--init-range", dest="init_range", type=float)

    p = sub.add_parser("benchmark", help="batch statistics over phases and channels")
    _add_common(p)
    p.add_argument("--strategies", help="comma list: go,pgh,policy,inversion,bayes-fixed")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--phases", help="phase count or comma list of phases")
    p.add_argument("--channels", help="comma list of channel specs")
    p.add_argument("--model-channel", dest="model_channel")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--sign-convention", dest="sign_convention",
                   choices=["alternate", "random"])
    p.add_argument("--go-fallback", dest="go_fallback", choices=["real-part", "pgh"])
    p.add_argument("--policy-file", dest="policy_file")

    p = sub.add_parser("plot-data", help="reshape results into tidy CSV")
    _add_common(p)
    p.add_argument("--inputs", nargs="+", help="run JSONs or benchmark CSVs")
    p.add_argument("--figure-id", dest="figure_id")

    return parser


_COMMANDS = {
    "estimate": cmd_estimate,
    "train-policy": cmd_train_policy,
    "benchmark": cmd_benchmark,
    "plot-data": cmd_plot_data,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
