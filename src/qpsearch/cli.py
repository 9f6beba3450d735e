"""Command-line front end: run experiments, sweep amplification, compare
backends.

Configuration comes from a JSON file of key/value pairs; any flag given on
the command line overrides the file.  Traces are line-delimited JSON, one
record per iteration plus a closing summary that embeds the fully resolved
configuration and seed, so a run is reproducible from its own output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import Callable, Optional

import numpy as np

from .amplify import (
    DomainError,
    PreparationOperator,
    QSearchParams,
    analytic_success_probability,
    apply_Q,
    is_desired,
    make_planted_problem,
)
from .fixedpoint import EncodingError, FixedPointFormat, FixedPointOverflowError
from .objectives import UnknownObjectiveError, make_objective, objective_names
from .pattern import (
    GpsConfig,
    MeshExhaustedError,
    NotPositiveSpanningError,
    PatternBasis,
    gps_run,
)
from .quantum_step import compare_backends
from .state import sample_counts


class ConfigError(Exception):
    pass


# The first build of a coordinate basis in a process checks its rank in
# O(n^3): 0.6-0.8 s at n = 1024 and 39 s at n = 4096 on 2 cores.  Later builds
# of the same basis read the pattern module's memo of that check, keyed on D
# alone (0.08-0.09 s at n = 1024, half of it the product G @ Z).
MAX_DIMENSION = 1024


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # An integer past the largest float would overflow float(...).
    return isinstance(value, float) or (
        _is_int(value) and abs(value) <= sys.float_info.max
    )


class Kind:
    """A JSON kind: what a refusal says it must be, its test, its flag's type."""

    def __init__(self, name: str, has: Callable[[object], bool], type=None):
        self.name, self.has, self.type = name, has, type


# A true/false is no number, and a number in a string is no number either.
INTEGER = Kind("an integer", _is_int, int)
NUMBER = Kind("a number", _is_number, float)
STRING = Kind("a string", lambda value: isinstance(value, str), str)
BOOLEAN = Kind("true or false", lambda value: isinstance(value, bool))


class Key:
    """A config key: its kind (None: its command checks it), its default (a
    key whose default is None may be left None), and the add_argument
    keywords of its flag ``--<key with dashes>`` (None: it has no flag)."""

    def __init__(self, kind: Optional[Kind], default, flag: Optional[dict] = None):
        self.kind, self.default, self.flag = kind, default, flag


RUN_KEYS = {
    "objective": Key(STRING, "sphere", {"help": "registry name (see list-objectives)"}),
    "dimension": Key(INTEGER, 2, {}),
    "backend": Key(STRING, "quantum", {"choices": ("classical", "quantum")}),
    "seed": Key(INTEGER, GpsConfig.rng_seed, {}),
    "trials": Key(INTEGER, 1, {}),
    "initial_mesh_size": Key(NUMBER, GpsConfig.initial_mesh_size, {}),
    "mesh_size_tolerance": Key(NUMBER, GpsConfig.mesh_size_tolerance, {}),
    "max_iterations": Key(INTEGER, GpsConfig.max_iterations, {}),
    "search_points_count": Key(INTEGER, GpsConfig.search_points_count, {}),
    "tau": Key(NUMBER, QSearchParams.tau, {}),
    "c": Key(NUMBER, QSearchParams.c, {}),
    "output": Key(STRING, None, {"help": "trace file (line-delimited JSON)"}),
    "initial_point": Key(None, None),  # (0.75, ...) unless given
    "expansion_factor": Key(NUMBER, GpsConfig.expansion_factor),
    "contraction_factor": Key(NUMBER, GpsConfig.contraction_factor),
    "search_radius": Key(INTEGER, GpsConfig.search_radius),
    "total_bits": Key(INTEGER, GpsConfig.fixed_point_format.total_bits),
    "frac_bits": Key(INTEGER, GpsConfig.fixed_point_format.frac_bits),
    "max_oracle_calls": Key(INTEGER, GpsConfig.max_oracle_calls),
    "emit_rounds": Key(BOOLEAN, False),  # its flag is --emit-rounds
}

# The comparison setting of acceptance criteria 4 and 5, at criterion 4's N.
COMPARE_KEYS = {
    "dimension": Key(INTEGER, 2, {}),
    "search_points_count": Key(INTEGER, 256, {}),
    "search_radius": Key(INTEGER, 20, {}),
    "planted_t": Key(INTEGER, None, {}),  # 1 unless an objective is given
    "objective": Key(STRING, None, {}),
    "trials": Key(INTEGER, 50, {}),
    "seed": Key(INTEGER, 0, {}),
    "tau": Key(NUMBER, 0.01, {}),
    "output": Key(STRING, None, {"help": "report file (line-delimited JSON)"}),
    "initial_mesh_size": Key(NUMBER, 1.0),
    "total_bits": Key(INTEGER, 8),
    "frac_bits": Key(INTEGER, 0),
    "c": Key(NUMBER, 1.5),
}


# Refusals of an input: one line on stderr and exit code 2, not a traceback.
LIBRARY_ERRORS = (
    ConfigError,
    DomainError,
    UnknownObjectiveError,
    FixedPointOverflowError,
    EncodingError,
    MeshExhaustedError,
    NotPositiveSpanningError,
)


@contextmanager
def _refuse_bad_values():
    """Turn a constructor's refusal of a configured value into ConfigError.

    Wraps only the building of config objects, before any output is
    written, so a ValueError raised while running stays a traceback.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _load_config(args: argparse.Namespace, keys: dict) -> dict:
    """The keys' defaults, updated by the --config file, then by every flag
    given; each value is checked against its key's kind, not converted."""
    config = {key: spec.default for key, spec in keys.items()}
    path = args.config
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config file {path} is not valid JSON "
                f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
            ) from None
        except (OSError, ValueError) as exc:
            # ValueError: not UTF-8, or an integer past int()'s digit limit.
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown config keys in {path}: {', '.join(sorted(unknown))}"
            )
        config.update(loaded)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    for key, value in config.items():
        kind, default = keys[key].kind, keys[key].default
        if kind and not (value is None and default is None) and not kind.has(value):
            raise ConfigError(f"{key} must be {kind.name}, got {value!r}")
    # Each command holds every trial's lines until it writes them all.
    if not 1 <= config["trials"] <= 1 << 20:
        raise ConfigError(f"trials must lie in [1, 2^20], got {config['trials']}")
    if not 1 <= config["dimension"] <= MAX_DIMENSION:
        raise ConfigError(
            f"dimension must lie in [1, {MAX_DIMENSION}], got {config['dimension']}"
        )
    return config


def _gps_settings(config: dict, keys: dict):
    """The coordinate basis, GpsConfig and QSearchParams of a checked config.

    A key named like a GpsConfig field sets it, as a float when its kind is
    NUMBER; seed sets rng_seed, total_bits and frac_bits the register
    format, and c and tau the loop constants.  A field the command has no key
    for keeps its default.
    """
    basis = PatternBasis.coordinate(config["dimension"])
    params = QSearchParams(c=float(config["c"]), tau=float(config["tau"]))
    fmt = FixedPointFormat(config["total_bits"], config["frac_bits"])
    settings = {"fixed_point_format": fmt, "rng_seed": config["seed"]}
    for key in (field.name for field in fields(GpsConfig)):
        if key in keys:
            value = config[key]
            settings[key] = float(value) if keys[key].kind is NUMBER else value
    return basis, GpsConfig(**settings), params


# json.dumps(..., sort_keys=True) builds a new encoder per call; one is enough.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _line(record: dict) -> str:
    return _ENCODER.encode(record) + "\n"


def _write_output(path: Optional[str], lines: list) -> None:
    """Write a command's JSON lines once it has produced all of them, so a
    run refused midway leaves no partial file behind."""
    if not path:
        sys.stdout.writelines(lines)
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from None
    with fh:
        fh.writelines(lines)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args, RUN_KEYS)
    with _refuse_bad_values():
        n = config["dimension"]
        initial_point = config["initial_point"]
        if initial_point is None:
            initial_point = [0.75] * n
        if not (
            isinstance(initial_point, list)
            and len(initial_point) == n
            and all(map(_is_number, initial_point))
        ):
            raise ConfigError(
                f"initial_point must be a list of {n} numbers, got {initial_point!r}"
            )
        if config["backend"] not in RUN_KEYS["backend"].flag["choices"]:
            raise ConfigError(f"unknown search backend {config['backend']!r}")
        if args.count_marked and config["backend"] != "quantum":
            raise ConfigError("--count-marked needs the quantum backend")
        if args.count_marked and not config["emit_rounds"]:
            raise ConfigError("--count-marked needs --emit-rounds")
        objective = make_objective(config["objective"], n)
        basis, first, params = _gps_settings(config, RUN_KEYS)

    lines = []
    for trial in range(config["trials"]):
        gps_config = replace(first, rng_seed=first.rng_seed + trial) if trial else first
        sink = None
        if config["emit_rounds"]:

            def sink(event, _trial=trial):
                if event["type"] in ("qsearch-round", "quantum-search-step"):
                    record = {"trial": _trial, **event}
                    if not args.count_marked:
                        record.pop("t", None)
                    lines.append(_line(record))
        run = gps_run(
            objective,
            basis,
            gps_config,
            config["backend"],
            initial_point,
            qsearch_params=params,
            event_sink=sink,
        )
        lines.extend(_line({**rec.as_record(), "trial": trial}) for rec in run.records)
        resolved = {
            **config,
            "seed": gps_config.rng_seed,
            "initial_point": list(initial_point),
        }
        resolved.pop("output")  # not experiment-defining; keeps traces comparable
        summary = {
            "type": "summary",
            "trial": trial,
            "final_iterate": run.final_state.iterate.tolist(),
            "final_value": run.final_state.incumbent_value,
            "final_mesh_size": run.final_state.mesh_size,
            "iterations": len(run.records),
            "stop_reason": run.stop_reason,
            **run.ledger.as_dict(),
            "config": resolved,
        }
        lines.append(_line(summary))
    _write_output(config["output"], lines)
    return 0


def cmd_demo_amplify(args: argparse.Namespace) -> int:
    n, t = args.n_points, args.n_marked
    if not 1 <= n <= 1 << 13 or n & (n - 1):  # the string-keyed simulator: ~1 s at 2^13
        raise ConfigError(f"point count must be a power of 2 in [1, 2^13], got {n}")
    if not 0 <= t <= n:
        raise ConfigError(f"marked count must lie in [0, {n}], got {t}")
    if not 1 <= args.trials < 2**63:  # numpy's multinomial takes an int64 count
        raise ConfigError(f"trials must lie in [1, 2^63 - 1], got {args.trials}")
    if args.j_max < 0:
        raise ConfigError(f"j-max must be >= 0, got {args.j_max}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    problem, _ = make_planted_problem(n, t, rng=rng)
    ops = PreparationOperator(problem)
    state = ops.prepare_from_zero()

    print(f"# N={n} t={t} trials={args.trials} seed={args.seed}")
    print(f"{'j':>4} {'analytic':>12} {'empirical':>12} {'abs_error':>12}")
    for j in range(args.j_max + 1):
        analytic = analytic_success_probability(n, t, j)
        counts = sample_counts(state, args.trials, rng)
        hits = sum(c for b, c in counts.items() if is_desired(b, problem.layout))
        empirical = hits / args.trials
        print(
            f"{j:>4} {analytic:>12.6f} {empirical:>12.6f} "
            f"{abs(empirical - analytic):>12.6f}"
        )
        state = apply_Q(state, ops)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args, COMPARE_KEYS)
    with _refuse_bad_values():
        n = config["dimension"]
        basis, gps_config, params = _gps_settings(config, COMPARE_KEYS)
        objective = None
        planted = config["planted_t"]
        if config["objective"] is not None:
            if planted is not None:
                raise ConfigError("give an objective or planted_t, not both")
            objective = make_objective(config["objective"], n)
        else:
            planted = 1 if planted is None else planted
            n_points = gps_config.search_points_count
            if not 0 <= planted <= n_points:
                raise ConfigError(f"planted_t must lie in [0, {n_points}], got {planted}")
        seeds = range(config["seed"], config["seed"] + config["trials"])
    report = compare_backends(
        objective, basis, gps_config, params, seeds, planted_t=planted
    )

    _write_output(
        config["output"],
        [_line({"type": "trial", **vars(row)}) for row in report.rows]
        + [_line({"type": "report", "tau": report.tau, **report.summary})],
    )

    s = report.summary
    print(
        f"N={config['search_points_count']} trials={s['trials']} "
        f"tau={report.tau} planted_t={planted}",
        file=sys.stderr,
    )
    print(
        f"mean oracle calls: classical {s['mean_classical_calls']:.1f} "
        f"vs quantum {s['mean_quantum_calls']:.1f} "
        f"(+{s['mean_quantum_total_calls'] - s['mean_quantum_calls']:.1f} recheck)",
        file=sys.stderr,
    )
    print(
        f"success rates: classical {s['classical_success_rate']:.3f}, "
        f"quantum {s['quantum_success_rate']:.3f}; observed miss rate "
        f"{s['miss_rate']:.4f}",
        file=sys.stderr,
    )
    return 0


def cmd_list_objectives(args: argparse.Namespace) -> int:
    for name in objective_names():
        print(name)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser, keys: dict) -> None:
    """--config, then the flag of each flagged key, typed by its kind."""
    parser.add_argument("--config", help="JSON config file")
    for key, spec in keys.items():
        if spec.flag is not None:
            flag = "--" + key.replace("_", "-")
            parser.add_argument(flag, dest=key, type=spec.kind.type, **spec.flag)


@functools.lru_cache
def _parsers() -> tuple:
    """The argument parser and its subcommands' parsers by name, built once
    per process and shared by every ``main`` call.

    Parsing does not change a parser: each call gets a fresh namespace.
    ``set_defaults(func=...)`` binds the ``cmd_*`` function objects when the
    parsers are first built, so replacing a module-level ``cmd_*`` name later
    does not reach ``main``.
    """
    # No prefix matching: the flags accepted are exactly the ones declared.
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="qpsearch",
        description="Pattern search with a classical or quantum-simulated "
        "search step.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    run = sub.add_parser("run", help="run one optimization experiment")
    _add_config_flags(run, RUN_KEYS)
    run.add_argument(
        "--emit-rounds", action="store_const", const=True,
        help="also write per-round search records into the trace",
    )
    run.add_argument(
        "--count-marked", action="store_true",
        help="with --emit-rounds, add t, the count of candidates whose "
        "comparison register reads negative, to each quantum-search-step "
        "record (quantum backend only); saturated values and wrapped "
        "differences can make t differ from the count of true improvements",
    )
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser(
        "demo-amplify",
        help="analytic vs empirical success probability after j iterates",
    )
    demo.add_argument("--n-points", type=int, default=16)
    demo.add_argument("--n-marked", type=int, default=1)
    demo.add_argument("--j-max", type=int, default=8)
    demo.add_argument("--trials", type=int, default=100_000)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo_amplify)

    comp = sub.add_parser(
        "compare", help="classical vs quantum oracle calls on identical points"
    )
    _add_config_flags(comp, COMPARE_KEYS)
    comp.set_defaults(func=cmd_compare)

    ls = sub.add_parser("list-objectives", help="print registry entries")
    ls.set_defaults(func=cmd_list_objectives)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser that ``main`` uses."""
    return _parsers()[0]


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, or the same
    output and exit.

    argparse's top-level pass hands everything after a subcommand's name to
    that subcommand's parser and refuses what it leaves over.  Doing both
    here skips the top-level pass, which costs as much as the parse itself.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # devnull so the interpreter's final flush stays quiet, and exit as
        # a process killed by SIGPIPE would (141, as `yes | head` reports).
        import signal  # only this exit needs it

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
