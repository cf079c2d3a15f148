"""Command-line front end.

Four workflows: ``estimate`` (one trajectory), ``train-policy`` (swarm
policy search), ``benchmark`` (batches / phase sweeps with reference
bounds), ``plot-data`` (reshape results into tidy long-format CSV).

Configuration comes from an optional JSON file (--config) merged with
command-line overrides; unknown keys are rejected, and every option of a
subcommand is checked once where it enters, against its table row, even
one that the subcommand or the chosen strategy does not read. Every
command that succeeds leaves a ``meta.json`` with the fully resolved
configuration, including the seed (drawn and recorded when not
supplied), and that file can be fed back via --config to reproduce the
outputs byte for byte. All outputs stay inside the --out directory.

A command returns nothing when it succeeds and raises when it fails;
only ``main`` maps the outcome to an exit code: 0 success, 2
configuration error (``ConfigError``), 3 runtime error (any other
exception, printed as one ``runtime error: `` line on stderr).
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import fields

from .harness import (
    STRATEGIES,
    phase_average,
    reference_curves,
    run_estimation,
    sweep_phases,
    write_batch_csv,
)
from .heuristics import GO_FALLBACKS, HEURISTIC_KINDS, SIGMA_VALID_MAX, SIGN_CONVENTIONS, Heuristic
from .interferometer import IDEAL, NoiseChannel, precision_bound
from .posterior import DEFAULT_GRID_SIZE
from .pso import Policy, PsoConfig, train_policy


class ConfigError(Exception):
    pass


# ------------------------------------------------------------------
# options: one table per subcommand builds its parser, its allowed config
# keys, its defaults and its input check. A row is (key, kind, default,
# help). The kind is the check that every value of the key passes, from
# the command line, the config file or the default alike: int (an integer
# >= 1, or >= _MINIMUM[key]), float (finite), str, bool (a flag), list
# (one or more strings), a tuple of choices, or a parser (raw, key) ->
# value. A key whose default is None stays unset (None) unless given.

_MINIMUM = {"seed": 0, "grid_size": 2, "m": 2, "neighborhood_radius": 0}


def _integer(raw, key):
    try:
        if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
            raise ValueError
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    minimum = _MINIMUM.get(key, 1)
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _finite(raw, key):
    try:
        if isinstance(raw, bool):
            raise ValueError
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _comma_list(raw, key):
    """raw as a non-empty list of strings. A string is split on commas,
    its entries stripped and the empty ones dropped."""
    if isinstance(raw, str):
        raw = [item.strip() for item in raw.split(",") if item.strip()]
    if not isinstance(raw, list) or not raw or not all(isinstance(s, str) for s in raw):
        raise ConfigError(f"{key} must be one or more strings, got {raw!r}")
    return raw


def _channel(raw, key):
    if not isinstance(raw, str):
        raise ConfigError(f"{key} must be a channel spec, got {raw!r}")
    try:
        return NoiseChannel.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}")


def _channels(raw, key):
    return [_channel(spec, key) for spec in _comma_list(raw, key)]


def _strategies(raw, key):
    return [_check(key, STRATEGIES, name) for name in _comma_list(raw, key)]


def _phases(raw, key):
    """A phase count >= 1, or a non-empty list of finite phases.

    Given as a count, a digit string, a single phase, a comma list or a
    JSON list.
    """
    if isinstance(raw, str):
        raw = int(raw) if raw.isdecimal() else raw.split(",")
    if isinstance(raw, list) and raw:
        return [_finite(phase, key) for phase in raw]
    if type(raw) is not int or raw < 1:
        raise ConfigError(f"{key} must be a count >= 1 or a list of phases, got {raw!r}")
    return raw


_PARSERS = {int: _integer, float: _finite, list: _comma_list}


def _check(key, kind, raw):
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {raw!r}")
        return raw
    if kind in (str, bool):
        if not isinstance(raw, kind):
            raise ConfigError(f"{key} must be a {kind.__name__}, got {raw!r}")
        return raw
    return _PARSERS.get(kind, kind)(raw, key)


_COMMON = (
    ("seed", int, None, "base RNG seed (drawn and recorded if absent)"),
    ("out", str, "mzphase-out", "output directory"),
    ("threads", int, 1, "worker processes for batches (only benchmark reads it)"),
)
_POSTERIOR = (
    ("model_channel", _channel, "ideal", "channel the posterior update assumes"),
    ("grid_size", int, DEFAULT_GRID_SIZE, "posterior grid points"),
    ("sign_convention", SIGN_CONVENTIONS, "alternate", "sign of the go offset"),
    ("go_fallback", GO_FALLBACKS, "real-part", f"go rule where sigma > {SIGMA_VALID_MAX}"),
    ("policy_file", str, None, "policy.json for the policy strategy"),
)
_OPTIONS = {
    "estimate": _COMMON + (
        ("strategy", STRATEGIES, None, "feedback strategy"),
        ("phi_true", float, None, "true phase"),
        ("n", int, 40, "probes"),
        ("channel", _channel, "ideal", "sample channel: ideal, depolarizing:p or phase:kappa"),
        *_POSTERIOR,
        ("snapshots", bool, False, "dump per-step posterior CSV snapshots"),
    ),
    "train-policy": _COMMON + (
        ("n", int, None, "policy length"),
        ("channel", _channel, "ideal", "training channel"),
    ) + tuple(
        (f.name, f.type, None, f"swarm setting (default: {f.default:g})")
        for f in fields(PsoConfig) if f.name != "seed"
    ),
    "benchmark": _COMMON + (
        ("strategies", _strategies, None,
         "comma list of " + ",".join(STRATEGIES) + " (default: go)"),
        ("n", int, 40, "probes per run"),
        ("m", int, 100, "runs per phase"),
        ("phases", _phases, 20, "phase count or comma list of phases"),
        ("channels", _channels, ["ideal"], "comma list of channel specs"),
        *_POSTERIOR,
    ),
    "plot-data": _COMMON + (
        ("inputs", list, None, "run JSONs or benchmark CSVs"),
        ("figure_id", str, None, "figure id of every output row"),
    ),
}


def _load_config(command, args):
    """(config, opts): the configuration merged as command line > config
    file > default, which meta.json echoes, and every key of the
    subcommand's table mapped to its checked value, None when unset."""
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
    merged = {key: default for key, _, default, _ in options if default is not None}
    merged.update(config)
    for key, value in vars(args).items():
        if key not in ("config", "command") and value is not None:
            merged[key] = value
    if merged.get("seed") is None:
        import secrets  # it imports hashlib, slow to import, for a seedless run only

        merged["seed"] = secrets.randbits(63)
    checked = {
        key: None if merged.get(key) is None and default is None
        else _check(key, kind, merged.get(key))
        for key, kind, default, _ in options
    }
    return merged, checked


def _require(opts, key):
    if opts[key] is None:
        raise ConfigError(f"missing required config key: {key!r}")
    return opts[key]


def _resolve_strategy(name, opts, n):
    """The strategy to run for n probes: a name, a Heuristic or a Policy."""
    if name == "policy":
        path = _require(opts, "policy_file")
        try:
            policy = Policy.load(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load policy file {path!r}: {exc}")
        if policy.n < n:
            raise ConfigError(f"policy file {path!r} has {policy.n} increments, fewer than n={n}")
        return policy
    if name in HEURISTIC_KINDS:
        return Heuristic(name, opts["go_fallback"], opts["sign_convention"])
    return name


def _out_path(opts, *parts):
    os.makedirs(os.path.join(opts["out"], *parts[:-1]), exist_ok=True)
    return os.path.join(opts["out"], *parts)


# ------------------------------------------------------------------
# commands: each takes the checked values of its options, writes its
# outputs and raises on failure; main loads the options, writes meta.json
# and maps the outcome to an exit code

def cmd_estimate(opts):
    """run one estimation trajectory"""
    n = opts["n"]
    strategy = _resolve_strategy(_require(opts, "strategy"), opts, n)
    phi_true = _require(opts, "phi_true")

    snapshot = None
    if opts["snapshots"]:

        def snapshot(k, grid):
            grid.dump_csv(_out_path(opts, "snapshots", f"step_{k:04d}.csv"))

    record = run_estimation(
        phi_true, n, strategy, sample_channel=opts["channel"],
        model_channel=opts["model_channel"], grid_size=opts["grid_size"],
        seed=[opts["seed"]], snapshot=snapshot,
    )
    record.write_json(_out_path(opts, "run.json"))
    final_sigma = record.sigmas[-1]
    sigma_text = "n/a" if math.isnan(final_sigma) else f"{final_sigma:.6f}"
    print(
        f"estimate: phi_est={record.final_estimate:.6f} "
        f"sigma_est={sigma_text} (n={n}, strategy={record.strategy})"
    )


def cmd_train_policy(opts):
    """train an offline feedback policy"""
    n = _require(opts, "n")
    swarm = {f.name: opts[f.name] for f in fields(PsoConfig)
             if f.name != "seed" and opts[f.name] is not None}
    try:
        pso_config = PsoConfig(seed=opts["seed"], **swarm).validate()
    except ValueError as exc:
        raise ConfigError(str(exc))

    policy = train_policy(n, channel=opts["channel"], config=pso_config)
    path = _out_path(opts, "policy.json")
    policy.save(path)
    holevo = 1.0 / policy.sharpness ** 2 - 1.0
    print(
        f"trained policy n={n}: sharpness={policy.sharpness:.6f} "
        f"holevo_variance={holevo:.6f} -> {path}"
    )


def cmd_benchmark(opts):
    """batch statistics over phases and channels"""
    n, m = opts["n"], opts["m"]
    resolved = [(name, _resolve_strategy(name, opts, n)) for name in opts["strategies"] or ["go"]]

    rows = []
    summary = []
    for channel in opts["channels"]:
        reference = reference_curves(channel, [n])[0]  # n, sql and crb
        for name, strategy in resolved:
            results = sweep_phases(
                strategy, n, opts["phases"], m, sample_channel=channel,
                model_channel=opts["model_channel"], grid_size=opts["grid_size"],
                base_seed=opts["seed"], workers=opts["threads"], keep_records=False,
            )
            # columns left out of a row are written empty
            common = {"strategy": name, "channel": channel.spec(), **reference}
            rows.extend({**common, "phi_true": b.phi_true, **vars(b.stats)} for b in results)
            summary.append({**common, "m": m, **phase_average([b.stats for b in results])})

    write_batch_csv(_out_path(opts, "benchmark.csv"), rows)
    write_batch_csv(_out_path(opts, "summary.csv"), summary)
    print(f"benchmark: {len(rows)} rows -> {_out_path(opts, 'benchmark.csv')}")


def _plot_rows_from_run(path, figure_id):
    with open(path) as fh:
        payload = json.load(fh)
    if "steps" not in payload:
        raise ValueError(f"{path}: not a run record")
    strategy = payload["strategy"]
    rows = []
    for step in payload["steps"]:
        k = step["k"]
        rows.append((figure_id, f"{strategy}:estimate", k, step["estimate"],
                     "" if step["sigma"] is None else step["sigma"]))
        if step["sigma"] is not None:
            rows.append((figure_id, f"{strategy}:sigma_est", k, step["sigma"], ""))
        rows.append((figure_id, "sql", k, precision_bound(IDEAL, k), ""))
    return rows


def _plot_rows_from_batch(path, figure_id):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "sigma_est" not in reader.fieldnames:
            raise ValueError(f"{path}: not a benchmark CSV")
        for line in reader:
            # x is the phase, or n for a summary.csv row (averaged over phases)
            x = line["phi_true"] or line["n"]
            series = f"{line['strategy']}:{line['channel']}"
            rows.append((figure_id, series, x, line["sigma_est"], line["err_sigma"]))
            rows.append((figure_id, "sql", x, line["sql"], ""))
            rows.append((figure_id, "crb", x, line["crb"], ""))
    return rows


def cmd_plot_data(opts):
    """reshape results into tidy CSV"""
    inputs = _require(opts, "inputs")
    figure_id = _require(opts, "figure_id")

    rows = []
    for path in inputs:
        read = _plot_rows_from_run if path.endswith(".json") else _plot_rows_from_batch
        try:
            rows.extend(read(path, figure_id))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise RuntimeError(f"plot-data: malformed input {path}: {exc}") from exc

    out_csv = _out_path(opts, "plotdata.csv")
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["figure_id", "series", "x", "y", "yerr"])
        writer.writerows(rows)
    print(f"plot-data: {len(rows)} rows -> {out_csv}")


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
        elif kind in (int, float):
            kwargs["type"] = kind
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)


@functools.lru_cache(maxsize=None)
def build_parser(command=None):
    """The CLI parser. Given a subcommand name, only that subcommand gets
    its options: a command line that starts with it reaches no other.
    Without one no subcommand gets any, since argparse rejects a command
    line that starts with no subcommand, or prints the top-level help,
    before it reads a subcommand's option.

    Built once per process and key, and shared by every later call (do
    not change it): argparse keeps no parse state on a parser, so main
    stays reentrant and an in-process caller pays for the tree once.
    """
    parser = argparse.ArgumentParser(
        prog="mzphase",
        description="Adaptive single-photon phase estimation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        subparser = sub.add_parser(name, help=func.__doc__)
        if name == command:
            _add_options(subparser, _OPTIONS[name])
    return parser


_COMMANDS = {
    "estimate": cmd_estimate,
    "train-policy": cmd_train_policy,
    "benchmark": cmd_benchmark,
    "plot-data": cmd_plot_data,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        config, opts = _load_config(args.command, args)
        _COMMANDS[args.command](opts)
        # echo the resolved configuration, reusable via --config
        with open(_out_path(opts, "meta.json"), "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
