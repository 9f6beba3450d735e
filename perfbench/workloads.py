"""Seeded workloads for the qpsearch benchmark, and the checks on each op.

An op is one call of the public CLI entry point, ``qpsearch.cli.main``: one
whole ``qpsearch run`` (one GPS run) or one single-trial ``qpsearch
compare``.  The generator sees only the workload seed; the program sees only
the generated argument list and, for ``run``, a generated config file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

# The objective registry as the benchmark was defined against; fixed here so
# that a registry change does not silently change the workload.
OBJECTIVES = ("quadratic100", "rosenbrock", "sphere", "step")

# The repository's GPS showcase (demo 04, acceptance criterion 6), with two
# more integer bits: format 18/8 holds values up to 511.99, above every
# objective's value on the start box (rosenbrock reaches 404 at (-1, -1)), so
# both backends finish every generated run.  Under the showcase's 16/8 the
# quantum backend raises FixedPointOverflowError on about a third of the
# rosenbrock starts (ROADMAP item 5); overflow_probe keeps that visible.
GPS_CONFIG = {
    "initial_mesh_size": 0.5,
    "search_points_count": 16,
    "search_radius": 4,
    "total_bits": 18,
    "frac_bits": 8,
    "mesh_size_tolerance": 1e-2,
    "max_iterations": 100,
    "c": 1.5,
    "tau": 0.05,
}

# Acceptance criterion 5 settings; format 8/0 and tau 0.01 are the CLI
# defaults for ``compare``.
COMPARE_ARGS = [
    "compare",
    "--search-points-count", "1024",
    "--search-radius", "40",
    "--planted-t", "1",
    "--trials", "1",
]

STOP_REASONS = {"mesh-tolerance", "iteration-cap", "budget-exhausted"}


@dataclass
class Op:
    argv: List[str]  # starts with the subcommand, "run" or "compare"
    backend: Optional[str] = None
    objective: Optional[str] = None


@dataclass
class Facts:
    """What one op's output says, once it passed its checks."""

    classical_calls: int
    quantum_calls: int
    qsearch_rounds: int
    q_applications: int
    outcomes: Dict[str, int] = field(default_factory=dict)
    missed: Optional[bool] = None  # compare only: t >= 1 and nothing found


@dataclass(frozen=True)
class Workload:
    name: str
    counted_ops: int  # length of the op list a run goes round
    make_ops: Callable[[int, Path], Iterator[Op]]
    probe: Optional[Callable[[Path], Op]] = None  # known-defect probe, reported only


def _gps_ops(backend: str) -> Callable[[int, Path], Iterator[Op]]:
    def make_ops(seed: int, workdir: Path) -> Iterator[Op]:
        rng = np.random.default_rng([seed, 0])
        i = 0
        while True:
            # Each block of eight ops gives every objective one 2-D and one
            # 3-D run, in seeded order (rosenbrock is 2-D only).
            dims = {name: list(rng.permutation([2, 3])) for name in OBJECTIVES}
            for _ in range(2):
                for name in OBJECTIVES:
                    dim = 2 if name == "rosenbrock" else int(dims[name].pop())
                    # Unfiltered draw from the 1/4-spaced grid on [-1, 1]^n.
                    start = (rng.integers(0, 9, size=dim) / 4 - 1).tolist()
                    run_seed = int(rng.integers(0, 2**31))
                    path = workdir / f"op{i:05d}.json"
                    config = {
                        "objective": name,
                        "dimension": dim,
                        "initial_point": start,
                        **GPS_CONFIG,
                    }
                    path.write_text(json.dumps(config, sort_keys=True))
                    argv = ["run", "--config", str(path), "--backend", backend,
                            "--seed", str(run_seed)]
                    yield Op(argv, backend, name)
                    i += 1

    return make_ops


def overflow_probe(workdir: Path) -> Op:
    """A rosenbrock run from (-1, -1) on the quantum backend in the showcase's
    16/8 format, whose start value 404 the register cannot hold.  It is run
    once per gps-quantum run, untimed and outside the op counts, and its
    outcome is reported: it raises FixedPointOverflowError until ROADMAP item
    5 gives such inputs a defined behaviour."""
    path = workdir / "overflow-probe.json"
    config = {**GPS_CONFIG, "total_bits": 16, "objective": "rosenbrock",
              "dimension": 2, "initial_point": [-1.0, -1.0]}
    path.write_text(json.dumps(config, sort_keys=True))
    return Op(["run", "--config", str(path), "--backend", "quantum", "--seed", "0"],
              "quantum", "rosenbrock")


def _compare_ops(seed: int, workdir: Path) -> Iterator[Op]:
    rng = np.random.default_rng([seed, 1])
    while True:
        yield Op(COMPARE_ARGS + ["--seed", str(int(rng.integers(0, 2**31)))])


# Why each workload exists is recorded in BENCHMARK.json.  counted_ops is
# sized so that one round of the op list takes 5-16 s on a 2-core machine, and
# a 25 s run goes round it twice or more (gps-quantum: once and a half).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gps-quantum", 64, _gps_ops("quantum"), overflow_probe),
        Workload("gps-classical", 160, _gps_ops("classical")),
        Workload("compare-n1024", 128, _compare_ops),
    )
}


def reference_objective(name: str, x: List[float]) -> float:
    """The registry objectives, written out independently of the program."""
    x = np.asarray(x, dtype=float)
    if name == "sphere":
        return float(np.dot(x, x))
    if name == "quadratic100":
        weights = np.geomspace(1.0, 100.0, len(x)) if len(x) > 1 else np.ones(1)
        return float(np.dot(weights, x**2))
    if name == "rosenbrock":
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    if name == "step":
        return float(np.sum(np.floor(np.abs(x))))
    raise ValueError(f"no reference for objective {name!r}")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_run(op: Op, text: str) -> Facts:
    records = [json.loads(line) for line in text.splitlines()]
    _require(bool(records) and records[-1].get("type") == "summary",
             "last record is not a summary")
    summary = records[-1]
    iters = [r for r in records[:-1] if r.get("type") == "iteration"]
    _require(len(iters) == len(records) - 1, "unexpected record types")
    _require(summary["iterations"] == len(iters), "iteration count mismatch")
    values = [r["value"] for r in iters] + [summary["final_value"]]
    _require(all(b <= a for a, b in zip(values, values[1:])),
             "incumbent values increase")
    _require(summary["stop_reason"] in STOP_REASONS,
             f"unknown stop_reason {summary['stop_reason']!r}")
    expected = reference_objective(op.objective, summary["final_iterate"])
    _require(
        math.isclose(summary["final_value"], expected, rel_tol=1e-12, abs_tol=1e-12),
        f"final_value {summary['final_value']} != f(final_iterate) {expected}",
    )
    for r in iters + [summary]:
        if op.backend == "classical":
            _require(r["quantum_calls"] == 0 and r["qsearch_rounds"] == 0
                     and r["q_applications"] == 0,
                     "classical run spent quantum calls")
        else:
            _require(r["quantum_calls"] == r["qsearch_rounds"] + 2 * r["q_applications"],
                     "quantum_calls != qsearch_rounds + 2*q_applications")
    outcomes: Dict[str, int] = {}
    for r in iters:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    return Facts(summary["classical_calls"], summary["quantum_calls"],
                 summary["qsearch_rounds"], summary["q_applications"], outcomes)


def check_compare(op: Op, text: str) -> Facts:
    records = [json.loads(line) for line in text.splitlines()]
    _require(len(records) == 2 and records[0].get("type") == "trial"
             and records[1].get("type") == "report",
             "expected one trial row and one report row")
    row, report = records
    _require(row["n_points"] == 1024, f"n_points {row['n_points']} != 1024")
    _require(row["t"] == 1, f"t {row['t']} != 1")
    _require(row["classical_success"] is True, "classical scan missed the planted point")
    # The row's qsearch_rounds is the loop counter l at exit, which leaves out
    # the initial preparation round that the ledger also counts.
    rounds = row["qsearch_rounds"] + 1
    _require(row["quantum_calls"] == rounds + 2 * row["q_applications"],
             "quantum_calls != (qsearch_rounds + 1) + 2*q_applications")
    missed = not row["quantum_success"]
    _require(report["trials"] == 1 and report["miss_rate"] == float(missed),
             "report row disagrees with the trial row")
    return Facts(row["classical_calls"] + row["quantum_recheck_calls"],
                 row["quantum_calls"], rounds, row["q_applications"],
                 missed=missed)


def check(op: Op, text: str) -> Facts:
    return (check_run if op.argv[0] == "run" else check_compare)(op, text)
