"""Command-line front end: run experiments, sweep amplification, compare
backends.

Configuration comes from a JSON file of key/value pairs; any flag given on
the command line overrides the file.  Traces are line-delimited JSON, one
record per iteration plus a closing summary that embeds the fully resolved
configuration and seed, so a run is reproducible from its own output.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Optional

import numpy as np

from .amplify import (
    DomainError,
    PreparationOperator,
    QSearchParams,
    analytic_success_probability,
    apply_Q,
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

RUN_DEFAULTS = {
    "objective": "sphere",
    "dimension": 2,
    "initial_point": None,  # defaults to (0.75, ...) per dimension
    "backend": "quantum",
    "initial_mesh_size": 0.5,
    "expansion_factor": 1.0,
    "contraction_factor": 0.5,
    "mesh_size_tolerance": 0.001,
    "max_iterations": 200,
    "search_points_count": 16,
    "search_radius": 8,
    "total_bits": 16,
    "frac_bits": 10,
    "c": 1.5,
    "tau": 0.01,
    "seed": 0,
    "trials": 1,
    "max_oracle_calls": None,
    "output": None,
    "emit_rounds": False,
}

COMPARE_DEFAULTS = {
    "dimension": 2,
    "initial_mesh_size": 1.0,
    "search_points_count": 256,
    "search_radius": 20,
    "total_bits": 8,
    "frac_bits": 0,
    "c": 1.5,
    "tau": 0.01,
    "seed": 0,
    "trials": 50,
    "planted_t": None,  # 1 unless an objective is given
    "objective": None,
    "output": None,
}


class ConfigError(Exception):
    pass


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


def _load_config(args: argparse.Namespace, defaults: dict) -> dict:
    """The defaults, updated by the --config file, then by every flag given."""
    config = dict(defaults)
    path = args.config
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config file {path} is not valid JSON "
                f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
            ) from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys in {path}: {', '.join(sorted(unknown))}"
            )
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    with _refuse_bad_values():
        for key in ("dimension", "trials"):
            if int(config[key]) < 1:
                raise ConfigError(f"{key} must be >= 1, got {config[key]}")
    return config


def _build_gps_config(config: dict) -> GpsConfig:
    return GpsConfig(
        initial_mesh_size=float(config["initial_mesh_size"]),
        expansion_factor=float(config["expansion_factor"]),
        contraction_factor=float(config["contraction_factor"]),
        mesh_size_tolerance=float(config["mesh_size_tolerance"]),
        max_iterations=int(config["max_iterations"]),
        search_points_count=int(config["search_points_count"]),
        search_radius=int(config["search_radius"]),
        fixed_point_format=FixedPointFormat(
            int(config["total_bits"]), int(config["frac_bits"])
        ),
        rng_seed=int(config["seed"]),
        max_oracle_calls=(
            None
            if config["max_oracle_calls"] is None
            else int(config["max_oracle_calls"])
        ),
    )


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


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
    config = _load_config(args, RUN_DEFAULTS)
    with _refuse_bad_values():
        n = int(config["dimension"])
        initial_point = config["initial_point"]
        if initial_point is None:
            initial_point = [0.75] * n
        if len(initial_point) != n:
            raise ConfigError(
                f"initial_point has {len(initial_point)} coordinates, dimension is {n}"
            )
        if config["backend"] not in ("classical", "quantum"):
            raise ConfigError(f"unknown search backend {config['backend']!r}")
        if args.count_marked and config["backend"] != "quantum":
            raise ConfigError("--count-marked needs the quantum backend")
        objective = make_objective(config["objective"], n)
        basis = PatternBasis.coordinate(n)
        params = QSearchParams(c=float(config["c"]), tau=float(config["tau"]))
        gps_configs = [
            _build_gps_config({**config, "seed": int(config["seed"]) + trial})
            for trial in range(int(config["trials"]))
        ]

    lines = []
    for trial, gps_config in enumerate(gps_configs):
        sink = None
        if config["emit_rounds"]:

            def sink(event, _trial=trial):
                if event["type"] in ("qsearch-round", "quantum-search-step"):
                    lines.append(_line({"trial": _trial, **event}))
        run = gps_run(
            objective,
            basis,
            gps_config,
            config["backend"],
            initial_point,
            qsearch_params=params,
            event_sink=sink,
            compute_t=args.count_marked,
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
    if n < 1 or n & (n - 1):
        raise ConfigError("point count must be a power of 2")
    if not 0 <= t <= n:
        raise ConfigError(f"marked count must lie in [0, {n}], got {t}")
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    problem, _ = make_planted_problem(n, t, rng=rng)
    ops = PreparationOperator(problem)
    state = ops.prepare_from_zero()
    sign_idx = problem.layout.comparison_sign_index

    print(f"# N={n} t={t} trials={args.trials} seed={args.seed}")
    print(f"{'j':>4} {'analytic':>12} {'empirical':>12} {'abs_error':>12}")
    for j in range(args.j_max + 1):
        analytic = analytic_success_probability(n, t, j)
        counts = sample_counts(state, args.trials, rng)
        hits = sum(c for b, c in counts.items() if b[sign_idx] == "1")
        empirical = hits / args.trials
        print(
            f"{j:>4} {analytic:>12.6f} {empirical:>12.6f} "
            f"{abs(empirical - analytic):>12.6f}"
        )
        state = apply_Q(state, ops)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args, COMPARE_DEFAULTS)
    with _refuse_bad_values():
        n = int(config["dimension"])
        basis = PatternBasis.coordinate(n)
        gps_config = _build_gps_config(
            {
                **config,
                "expansion_factor": 1.0,
                "contraction_factor": 0.5,
                "mesh_size_tolerance": 1e-6,
                "max_iterations": 1,
                "max_oracle_calls": None,
            }
        )
        params = QSearchParams(c=float(config["c"]), tau=float(config["tau"]))
        objective = None
        planted = config["planted_t"]
        if config["objective"] is not None:
            if planted is not None:
                raise ConfigError("give an objective or planted_t, not both")
            objective = make_objective(config["objective"], n)
        else:
            planted = 1 if planted is None else int(planted)
            n_points = gps_config.search_points_count
            if not 0 <= planted <= n_points:
                raise ConfigError(f"planted_t must lie in [0, {n_points}], got {planted}")
        seeds = [int(config["seed"]) + i for i in range(int(config["trials"]))]
    report = compare_backends(
        objective, basis, gps_config, params, seeds, planted_t=planted
    )

    _write_output(
        config["output"],
        [_line({"type": "trial", **asdict(row)}) for row in report.rows]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpsearch",
        description="Pattern search with a classical or quantum-simulated "
        "search step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one optimization experiment")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--objective", help="registry name (see list-objectives)")
    run.add_argument("--dimension", type=int)
    run.add_argument("--backend", choices=["classical", "quantum"])
    run.add_argument("--seed", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--initial-mesh-size", dest="initial_mesh_size", type=float)
    run.add_argument("--mesh-size-tolerance", dest="mesh_size_tolerance", type=float)
    run.add_argument("--max-iterations", dest="max_iterations", type=int)
    run.add_argument(
        "--search-points-count", dest="search_points_count", type=int
    )
    run.add_argument("--tau", type=float)
    run.add_argument("--c", dest="c", type=float)
    run.add_argument(
        "--emit-rounds",
        dest="emit_rounds",
        action="store_const",
        const=True,
        help="also write per-round search records into the trace",
    )
    run.add_argument(
        "--count-marked",
        dest="count_marked",
        action="store_true",
        help="with --emit-rounds, add the true marked count t to each "
        "quantum-search-step record (quantum backend only)",
    )
    run.add_argument("--output", help="trace file (line-delimited JSON)")
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
    comp.add_argument("--config", help="JSON config file")
    comp.add_argument("--dimension", type=int)
    comp.add_argument(
        "--search-points-count", dest="search_points_count", type=int
    )
    comp.add_argument("--search-radius", dest="search_radius", type=int)
    comp.add_argument("--planted-t", dest="planted_t", type=int)
    comp.add_argument("--objective")
    comp.add_argument("--trials", type=int)
    comp.add_argument("--seed", type=int)
    comp.add_argument("--tau", type=float)
    comp.add_argument("--output", help="report file (line-delimited JSON)")
    comp.set_defaults(func=cmd_compare)

    ls = sub.add_parser("list-objectives", help="print registry entries")
    ls.set_defaults(func=cmd_list_objectives)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
