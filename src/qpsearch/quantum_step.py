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
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .amplify import (
    QSearchParams,
    SearchProblem,
    last_failing_round,
    modified_qsearch,
)
from .fixedpoint import _rounded_units, encode_scalar_saturating
from .ledger import OracleLedger
from .objectives import _from_rows
from .pattern import (
    GpsConfig,
    ImprovedPoint,
    MeshState,
    PatternBasis,
    candidates_record,
    classical_search_step,
    select_search_points,
    step_rng,
)

__all__ = [
    "quantum_search_step",
    "compare_backends",
    "ComparisonRow",
    "ComparisonReport",
]


_FLOAT_MAX = sys.float_info.max


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    # Each row as one opaque value of its bytes, equal where tobytes() is.
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _values(points: np.ndarray, objective: Callable[[np.ndarray], float]) -> np.ndarray:
    # Unledgered: one on_rows call if the objective has that form, else one per row.
    on_rows = getattr(objective, "on_rows", None)
    return on_rows(points) if on_rows else np.array([float(objective(y)) for y in points])


def _planted_objective(marked_rows: np.ndarray) -> Callable[[np.ndarray], float]:
    """compare's step objective: -1.0 at the rows ``marked_rows`` and 1.0
    everywhere else, a point matching a row by its float64 coordinate bytes
    (the objective is only ever called with rows of the selected points)."""
    keys = _row_bytes(marked_rows)
    return _from_rows(lambda rows: np.where(np.isin(_row_bytes(rows), keys), -1.0, 1.0))


def _build_problem(
    points: np.ndarray,
    incumbent_value: float,
    objective: Callable[[np.ndarray], float],
    config: GpsConfig,
) -> SearchProblem:
    """The search problem over the on-grid candidate rows ``points``, in
    their order: candidate k's point register holds the units
    ``points[k] * 2^q`` of each coordinate in two's complement.

    The objective's values (``_values``) simulate the oracle F and are not
    ledgered classical calls.  They go to the value register in one pass of
    the package's rounding rule (``fixedpoint._rounded_units``), which
    saturates every value at the register's ends, NaN and +inf at the top
    and -inf at the bottom; the incumbent's value takes the scalar form of
    the same rule.  An improving candidate above the register maximum goes
    unmarked, and the classical recheck after measurement rejects any mark
    the saturation or a wrapped difference gets wrong.  ``SearchProblem``
    then checks the rows and values once.
    """
    fmt = config.fixed_point_format
    mask = (1 << fmt.total_bits) - 1
    units = (points * (1 << fmt.frac_bits)).astype(np.int64) & mask
    # NaN and +inf to the largest float and -inf to the smallest, so the
    # scalar rule saturates them where the array pass does: min keeps its
    # first argument against NaN.
    incumbent = max(-_FLOAT_MAX, min(_FLOAT_MAX, float(incumbent_value)))
    incumbent_bits, _ = encode_scalar_saturating(incumbent, fmt)
    _, value_units = _rounded_units(_values(points, objective), fmt)
    return SearchProblem(units, incumbent_bits, value_units.astype(np.int64) & mask)


def quantum_search_step(
    state: MeshState,
    basis: PatternBasis,
    config: GpsConfig,
    params: QSearchParams,
    objective: Callable[[np.ndarray], float],
    ledger: OracleLedger,
    event_sink: Optional[Callable[[dict], None]] = None,
    candidates: Optional[np.ndarray] = None,
) -> Optional[ImprovedPoint]:
    """Search N mesh points with the finite-termination quantum loop.

    The points are ``candidates`` as returned by ``select_search_points``,
    which is called here when they are not given.  The incumbent's value is
    reused from the mesh state (no oracle call); on a successful measurement
    the candidate in the measured slot is re-checked classically and only a
    strict improvement is accepted.  Returns None on failure, after which
    the caller polls.  ``event_sink`` receives the candidates, each round and
    the step, whose ``t`` is ``SearchProblem.n_marked``, the count of
    candidates the comparison register marks.
    """
    if candidates is None:
        candidates = select_search_points(state, basis, config)
    problem = _build_problem(candidates, state.incumbent_value, objective, config)
    qsearch_rng = step_rng(config.rng_seed, state.iteration, 1)
    on_round = None
    if event_sink is not None:
        event_sink(candidates_record("search", state.iteration, candidates))
        before = ledger.copy()

        def on_round(rec):
            event_sink({"type": "qsearch-round", "iteration": state.iteration, **asdict(rec)})

    outcome = modified_qsearch(
        problem, params, rng=qsearch_rng, ledger=ledger, on_round=on_round
    )

    result = "failure"
    accepted: Optional[ImprovedPoint] = None
    k = outcome.result
    if k is not None:  # slot 0 is a result
        # The recheck rejects a saturation artifact, whose sign bit lied.
        accepted = classical_search_step(
            candidates[k : k + 1], objective, state.incumbent_value, ledger
        )
        result = "rejected" if accepted is None else "found"

    if event_sink is not None:
        delta = ledger.delta_since(before)
        event_sink({
            "type": "quantum-search-step",
            "iteration": state.iteration,
            "n_points": problem.n_points,
            "rounds": outcome.rounds_executed,
            "u_rounds": outcome.u_rounds,
            "q_applications": delta.q_applications,
            "result": result,
            "t": problem.n_marked,
            "ledger_delta": delta.as_dict(),
        })
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
        points = select_search_points(state, basis, cfg)

        if planted_t is not None:
            plant_rng = step_rng(cfg.rng_seed, 0, 2)
            marked = plant_rng.choice(len(points), size=planted_t, replace=False)
            step_objective = _planted_objective(points[marked])
            t = planted_t
        else:
            t = int(np.count_nonzero(_values(points, objective) < incumbent))

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
            candidates=points,
        )

        rows.append(
            ComparisonRow(
                seed=int(seed),
                n_points=len(points),
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

    return ComparisonReport(rows, params.tau, _summary(rows))


def _summary(rows: Sequence[ComparisonRow]) -> dict:
    """The report's means and rates over the rows; NaN means for no rows."""
    n_rows = len(rows)
    misses = sum(1 for r in rows if r.t > 0 and not r.quantum_success)
    fit_samples = [
        r.quantum_calls / math.sqrt(r.n_points / r.t)
        for r in rows
        if r.t > 0 and r.quantum_success
    ]

    def mean(counts) -> float:
        # np.mean's float exactly while the sum stays below 2^53, and NaN
        # for no rows (where np.mean also warns of an empty slice).
        return sum(counts) / n_rows if n_rows else math.nan

    return {
        "trials": n_rows,
        "mean_classical_calls": mean(r.classical_calls for r in rows),
        "mean_quantum_calls": mean(r.quantum_calls for r in rows),
        "mean_quantum_total_calls": mean(
            r.quantum_calls + r.quantum_recheck_calls for r in rows
        ),
        "classical_success_rate": mean(r.classical_success for r in rows),
        "quantum_success_rate": mean(r.quantum_success for r in rows),
        "miss_rate": misses / n_rows if n_rows else 0.0,
        "mean_sqrt_ratio_fit": float(np.mean(fit_samples)) if fit_samples else None,
    }
