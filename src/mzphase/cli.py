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
from dataclasses import fields

from .harness import (
    STRATEGIES,
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
# options: one table per subcommand builds its parser, its allowed config
# keys and its defaults. A row is (key, type, default, help), the type one
# of int, float, str, bool (a flag), list (one or more values) or a tuple
# of choices; a key whose default is None stays unset unless given.

_COMMON = (
    ("seed", int, None, "base RNG seed (drawn and recorded if absent)"),
    ("out", str, "mzphase-out", "output directory"),
    ("threads", int, 1, "worker processes for batches"),
)
_POSTERIOR = (
    ("model_channel", str, "ideal", "channel the posterior update assumes"),
    ("grid_size", int, DEFAULT_GRID_SIZE, "posterior grid points"),
    ("sign_convention", ("alternate", "random"), "alternate", "sign of the go offset"),
    ("go_fallback", ("real-part", "pgh"), "real-part", "go rule where sigma > 0.921"),
    ("policy_file", str, None, "policy.json for the policy strategy"),
)
_OPTIONS = {
    "estimate": _COMMON + (
        ("strategy", STRATEGIES, None, "feedback strategy"),
        ("phi_true", float, None, "true phase"),
        ("n", int, 40, "probes"),
        ("channel", str, "ideal", "sample channel: ideal, depolarizing:p or phase:kappa"),
        *_POSTERIOR,
        ("snapshots", bool, False, "dump per-step posterior CSV snapshots"),
    ),
    "train-policy": _COMMON + (
        ("n", int, None, "policy length"),
        ("channel", str, "ideal", "training channel"),
    ) + tuple(
        (f.name, f.type, None, f"swarm setting (default: {f.default:g})")
        for f in fields(PsoConfig) if f.name != "seed"
    ),
    "benchmark": _COMMON + (
        ("strategies", str, None, "comma list of " + ",".join(STRATEGIES) + " (default: go)"),
        ("n", int, 40, "probes per run"),
        ("m", int, 100, "runs per phase"),
        ("phases", str, 20, "phase count or comma list of phases"),
        ("channels", str, ["ideal"], "comma list of channel specs"),
        *_POSTERIOR,
    ),
    "plot-data": _COMMON + (
        ("inputs", list, None, "run JSONs or benchmark CSVs"),
        ("figure_id", str, None, "figure id of every output row"),
    ),
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
    options = _OPTIONS[command]
    allowed = {key for key, *_ in options}
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {key!r}")
    # precedence: command line > config file > default
    merged = {key: default for key, _, default, _ in options if default is not None}
    merged.update(config)
    for key, value in vars(args).items():
        if key not in ("config", "command") and value is not None:
            merged[key] = value
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
    raw = config.get(key)
    try:
        if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
            raise ValueError
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _finite(raw, key):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _phases(config):
    """A phase count >= 1, or a non-empty list of finite phases.

    Given as a count, a digit string, a single phase, a comma list or a
    JSON list.
    """
    raw = config["phases"]
    if isinstance(raw, str):
        raw = int(raw) if raw.isdecimal() else raw.split(",")
    if isinstance(raw, list) and raw:
        return [_finite(phase, "phases") for phase in raw]
    if type(raw) is not int or raw < 1:
        raise ConfigError(f"phases must be a count >= 1 or a list of phases, got {raw!r}")
    return raw


def _comma_list(config, key, default=None):
    """config[key] (or default when unset) as a list. A string is split on
    commas, its entries stripped and the empty ones dropped; an empty list
    or another type is a config error."""
    raw = config.get(key, default)
    if isinstance(raw, str):
        raw = [item.strip() for item in raw.split(",") if item.strip()]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key} must name at least one entry, got {raw!r}")
    return raw


def _resolve_strategy(name, config, n):
    """The strategy to run for n probes: a name, a Heuristic or a Policy."""
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy: {name!r}")
    if name == "policy":
        path = _require(config, "policy_file")
        try:
            policy = Policy.load(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load policy file {path!r}: {exc}")
        if policy.n < n:
            raise ConfigError(f"policy file {path!r} has {policy.n} increments, fewer than n={n}")
        return policy
    if name in ("go", "pgh"):
        try:
            return Heuristic(
                kind=name,
                go_fallback=config["go_fallback"],
                sign_convention=config["sign_convention"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    return name


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
    """run one estimation trajectory"""
    config = _load_config("estimate", args)
    strategy_name = _require(config, "strategy")
    phi_true = _finite(_require(config, "phi_true"), "phi_true")
    n = _positive_int(config, "n")
    grid_size = _positive_int(config, "grid_size", minimum=2)
    strategy = _resolve_strategy(strategy_name, config, n)
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
        seed=[_positive_int(config, "seed", minimum=0)],
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
    """train an offline feedback policy"""
    config = _load_config("train-policy", args)
    n = _positive_int(config, "n")
    channel = _parse_channel(config["channel"], "channel")
    pso_kwargs = {}
    for f in fields(PsoConfig):
        if f.name != "seed" and config.get(f.name) is not None:
            pso_kwargs[f.name] = (
                _positive_int(config, f.name, minimum=0)
                if f.type is int
                else _finite(config[f.name], f.name)
            )
    seed = _positive_int(config, "seed", minimum=0)
    try:
        pso_config = PsoConfig(seed=seed, **pso_kwargs).validate()
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
    """batch statistics over phases and channels"""
    config = _load_config("benchmark", args)
    strategies = _comma_list(config, "strategies", default=["go"])
    n = _positive_int(config, "n")
    m = _positive_int(config, "m", minimum=2)
    grid_size = _positive_int(config, "grid_size", minimum=2)
    phases = _phases(config)
    channels = _comma_list(config, "channels")
    model_channel = _parse_channel(config["model_channel"], "model_channel")
    resolved = [(name, _resolve_strategy(name, config, n)) for name in strategies]
    seed = _positive_int(config, "seed", minimum=0)
    threads = _positive_int(config, "threads")

    rows = []
    summary = []
    for channel_spec in channels:
        channel = _parse_channel(channel_spec, "channels")
        reference = reference_curves(channel, [n])[0]
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
            # columns left out of a row are written empty
            common = {"strategy": name, "channel": channel.spec(), "n": n,
                      "sql": reference["sql"], "crb": reference["crb"]}
            for batch in results:
                stats = batch.stats
                rows.append({
                    **common,
                    "phi_true": batch.phi_true,
                    "m": stats.m,
                    "circ_mean": stats.circular_mean,
                    "sigma_est": stats.sigma_est,
                    "err_mean": stats.err_mean,
                    "err_sigma": stats.err_sigma,
                    "quad_loss": stats.quad_loss,
                })
            summary.append({
                **common,
                "m": m,
                "sigma_est": sum(b.stats.sigma_est for b in results) / len(results),
                "quad_loss": sum(b.stats.quad_loss for b in results) / len(results),
            })

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
    """reshape results into tidy CSV"""
    config = _load_config("plot-data", args)
    inputs = _comma_list(config, "inputs")
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

def _add_options(parser, options):
    parser.add_argument("--config", help="JSON config file")
    for key, kind, default, text in options:
        kwargs = {"dest": key, "help": text}
        if default is not None:
            shown = ",".join(default) if isinstance(default, list) else default
            kwargs["help"] = f"{text} (default: {shown})"
        if kind is bool:
            kwargs.update(action="store_const", const=True)
        elif kind is list:
            kwargs["nargs"] = "+"
        elif isinstance(kind, tuple):
            kwargs["choices"] = kind
        elif kind is not str:
            kwargs["type"] = kind
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mzphase",
        description="Adaptive single-photon phase estimation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=func.__doc__), _OPTIONS[command])
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
