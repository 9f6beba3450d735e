"""Bind one pattern-search iteration's search step to the finite-termination
quantum loop, with classical re-verification and strict call accounting.

Only the search step ever touches the quantum counters; the poll step stays
classical so the outer algorithm keeps its convergence behavior.  Every
candidate returned by a measurement is re-evaluated classically (one call)
before being accepted, which guards against a spurious sign bit from
two's-complement overflow inside the comparison register.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .amplify import (
    QSearchParams,
    SearchProblem,
    last_failing_round,
    modified_qsearch,
)
from .fixedpoint import encode_scalar_saturating, encode_units_saturating
from .ledger import OracleLedger
from .pattern import (
    GpsConfig,
    ImprovedPoint,
    MeshState,
    PatternBasis,
    classical_search_step,
    search_candidates_record,
    select_search_points,
)
from .state import RegisterLayout

__all__ = [
    "quantum_search_step",
    "compare_backends",
    "ComparisonRow",
    "ComparisonReport",
]


_FLOAT_MAX = np.finfo(float).max


def _finite(values):
    # NaN and +inf become the largest float and -inf the smallest, which the
    # saturating encode clamps to the register's ends.
    return np.fmax(np.fmin(values, _FLOAT_MAX), -_FLOAT_MAX)


def _build_problem(
    bits_list: Sequence[str],
    points: np.ndarray,
    incumbent_value: float,
    objective: Callable[[np.ndarray], float],
    config: GpsConfig,
) -> SearchProblem:
    """The search problem over the selected candidates, in selection order:
    ``points`` row k is the point that ``bits_list[k]`` encodes.

    The objective is called once per candidate.  These evaluations simulate
    the oracle F and are not ledgered classical calls.  Values, the
    incumbent's among them, saturate at the register's ends, NaN and +inf at
    the top and -inf at the bottom: an improving candidate above the
    register maximum goes unmarked, and the classical recheck after
    measurement rejects any mark the saturation or a wrapped difference gets
    wrong.
    """
    fmt = config.fixed_point_format
    d = fmt.total_bits
    n = points.shape[1]
    layout = RegisterLayout(point_bits=n * d, value_bits=d, comparison_bits=d)
    incumbent_bits, _ = encode_scalar_saturating(float(_finite(incumbent_value)), fmt)
    values = np.fromiter((float(objective(y)) for y in points), float, len(points))
    units, _ = encode_units_saturating(_finite(values), fmt)
    return SearchProblem(bits_list, incumbent_bits, units & ((1 << d) - 1), layout)


def _marked_count(problem: SearchProblem) -> int:
    """Brute-force count of marked points (test/report mode only)."""
    d = problem.layout.value_bits
    mask = (1 << d) - 1
    neg = -int(problem.incumbent_value_bits, 2) & mask
    return int(np.count_nonzero(((problem.units + neg) & mask) >> (d - 1)))


def quantum_search_step(
    state: MeshState,
    basis: PatternBasis,
    config: GpsConfig,
    params: QSearchParams,
    objective: Callable[[np.ndarray], float],
    ledger: OracleLedger,
    event_sink: Optional[Callable[[dict], None]] = None,
    compute_t: bool = False,
    candidates: Optional[Tuple[List[str], np.ndarray]] = None,
) -> Optional[ImprovedPoint]:
    """Search N mesh points with the finite-termination quantum loop.

    The points are ``candidates`` as returned by ``select_search_points``,
    which is called here when they are not given.  The incumbent's value is
    reused from the mesh state (no oracle call); on a successful measurement
    the decoded point is re-checked classically and only a strict
    improvement is accepted.  Returns None on failure, after which the
    caller polls.
    """
    if candidates is None:
        candidates = select_search_points(state, basis, config)
    bits_list, points = candidates
    if event_sink is not None:
        event_sink(search_candidates_record(state.iteration, points))
    problem = _build_problem(
        bits_list, points, state.incumbent_value, objective, config
    )
    qsearch_rng = np.random.default_rng([config.rng_seed, state.iteration, 1])
    before = ledger.copy()
    on_round = None
    if event_sink is not None:
        iteration = state.iteration

        def on_round(rec):
            event_sink({"type": "qsearch-round", "iteration": iteration, **asdict(rec)})

    outcome = modified_qsearch(
        problem, params, rng=qsearch_rng, ledger=ledger, on_round=on_round
    )

    result = "failure"
    accepted: Optional[ImprovedPoint] = None
    if outcome.result is not None:
        point_bits = problem.layout.point_part(outcome.result)
        candidate = points[bits_list.index(point_bits)]
        ledger.classical_calls += 1
        value = float(objective(candidate))
        if value < state.incumbent_value:
            accepted = ImprovedPoint(candidate, value)
            result = "found"
        else:
            result = "rejected"  # saturation artifact: sign bit lied

    if event_sink is not None:
        event = {
            "type": "quantum-search-step",
            "iteration": state.iteration,
            "n_points": problem.n_points,
            "rounds": outcome.rounds_executed,
            "u_rounds": outcome.u_rounds,
            "q_applications": outcome.q_applications,
            "result": result,
            "ledger_delta": ledger.delta_since(before).as_dict(),
        }
        if compute_t:
            event["t"] = _marked_count(problem)
        event_sink(event)
    return accepted


@dataclass
class ComparisonRow:
    """One seed's worth of the classical-vs-quantum comparison."""

    seed: int
    n_points: int
    t: int
    classical_calls: int
    classical_success: bool
    quantum_calls: int
    quantum_recheck_calls: int
    quantum_success: bool
    qsearch_rounds: int
    q_applications: int


@dataclass
class ComparisonReport:
    rows: List[ComparisonRow]
    tau: float
    summary: dict


def compare_backends(
    objective: Optional[Callable[[np.ndarray], float]],
    basis: PatternBasis,
    config: GpsConfig,
    params: QSearchParams,
    seeds: Sequence[int],
    initial_point: Optional[Sequence[float]] = None,
    planted_t: Optional[int] = None,
) -> ComparisonReport:
    """Run both search backends on identical point sets, seed by seed.

    Point selection is seeded independently of the quantum loop's
    randomness, so both backends see the same X.  With ``planted_t`` set,
    a synthetic objective marks exactly that many of the selected points
    (one unit below the incumbent, the rest one unit above), which pins t
    for scaling studies; otherwise the real objective is used and t is
    counted by brute force.
    """
    if planted_t is None and objective is None:
        raise ValueError("need an objective unless planting marked points")
    last_failing_round(config.search_points_count, params)
    n = basis.dimension
    if initial_point is None:
        initial_point = np.zeros(n)
    x0 = np.asarray(initial_point, dtype=float)

    rows: List[ComparisonRow] = []
    for seed in seeds:
        cfg = replace(config, rng_seed=int(seed))
        if planted_t is None:
            incumbent = float(objective(x0))
            step_objective = objective
        else:
            incumbent = 0.0
        state = MeshState(x0, cfg.initial_mesh_size, incumbent, 0)
        bits_list, points = select_search_points(state, basis, cfg)

        if planted_t is not None:
            plant_rng = np.random.default_rng([cfg.rng_seed, 0, 2])
            marked = plant_rng.choice(len(bits_list), size=planted_t, replace=False)
            # Keyed by each candidate's float64 coordinate bytes: the step
            # objective is only ever called with the rows of points.
            by_key = {points[i].tobytes(): -1.0 for i in marked}

            def step_objective(x, _table=by_key):
                return _table.get(x.tobytes(), 1.0)

            t = planted_t
        else:
            t = sum(1 for y in points if float(objective(y)) < incumbent)

        classical_ledger = OracleLedger()
        c_outcome = classical_search_step(
            points, step_objective, incumbent, classical_ledger
        )

        quantum_ledger = OracleLedger()
        q_outcome = quantum_search_step(
            state,
            basis,
            cfg,
            params,
            step_objective,
            quantum_ledger,
            candidates=(bits_list, points),
        )

        rows.append(
            ComparisonRow(
                seed=int(seed),
                n_points=len(bits_list),
                t=t,
                classical_calls=classical_ledger.classical_calls,
                classical_success=c_outcome is not None,
                quantum_calls=quantum_ledger.quantum_calls,
                quantum_recheck_calls=quantum_ledger.classical_calls,
                quantum_success=q_outcome is not None,
                # The ledger also counts the first measurement; the row
                # counts while-loop rounds only.
                qsearch_rounds=quantum_ledger.qsearch_rounds - 1,
                q_applications=quantum_ledger.q_applications,
            )
        )

    n_rows = len(rows)
    misses = sum(1 for r in rows if r.t > 0 and not r.quantum_success)
    fit_samples = [
        r.quantum_calls / math.sqrt(r.n_points / r.t)
        for r in rows
        if r.t > 0 and r.quantum_success
    ]
    summary = {
        "trials": n_rows,
        "mean_classical_calls": float(np.mean([r.classical_calls for r in rows])),
        "mean_quantum_calls": float(np.mean([r.quantum_calls for r in rows])),
        "mean_quantum_total_calls": float(
            np.mean([r.quantum_calls + r.quantum_recheck_calls for r in rows])
        ),
        "classical_success_rate": float(
            np.mean([r.classical_success for r in rows])
        ),
        "quantum_success_rate": float(np.mean([r.quantum_success for r in rows])),
        "miss_rate": misses / n_rows if n_rows else 0.0,
        "mean_sqrt_ratio_fit": float(np.mean(fit_samples)) if fit_samples else None,
    }
    return ComparisonReport(rows, params.tau, summary)
