"""Generalized pattern search: mesh, search step, poll step, outer loop.

The poll step is always classical; the search step is pluggable (classical
first-improvement scan or the amplitude-amplification backend).  Mesh
updates use powers-of-2 factors so every candidate stays exactly
representable in the fixed-point format when the starting point, directions
and initial mesh size are dyadic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from .amplify import QSearchParams, last_failing_round
from .fixedpoint import FixedPointFormat, encode_point_exact
from .ledger import OracleLedger

__all__ = [
    "PatternBasis",
    "MeshState",
    "GpsConfig",
    "IterationRecord",
    "ImprovedPoint",
    "GpsRun",
    "DimensionMismatchError",
    "NotPositiveSpanningError",
    "MeshExhaustedError",
    "positive_spanning_check",
    "mesh_point",
    "poll_set",
    "poll_step",
    "select_search_points",
    "search_candidates_record",
    "update_mesh",
    "classical_search_step",
    "gps_run",
]

Objective = Callable[[np.ndarray], float]


class DimensionMismatchError(ValueError):
    """Matrix or vector shapes are inconsistent."""


class NotPositiveSpanningError(ValueError):
    """The supplied directions do not positively span R^n."""


class MeshExhaustedError(RuntimeError):
    """The reachable mesh holds fewer representable points than requested."""


def positive_spanning_check(directions: np.ndarray) -> bool:
    """True iff every vector in R^n is a non-negative combination of the
    columns.

    Uses the exact characterization: the columns positively span iff they
    span R^n linearly and zero is a strictly positive combination of them
    (checked as feasibility of D@lam = 0 with lam >= 1, scale-invariant).
    """
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {d.shape}")
    n, p = d.shape
    if n < 1:
        raise DimensionMismatchError("need at least one row")
    if p < n + 1:
        return False
    if np.linalg.matrix_rank(d) < n:
        return False
    res = linprog(
        c=np.zeros(p),
        A_eq=d,
        b_eq=np.zeros(n),
        bounds=[(1.0, None)] * p,
        method="highs",
    )
    return res.status == 0


@dataclass(frozen=True)
class PatternBasis:
    """Direction set D = G @ Z: a nonsingular generating matrix times integer
    combination columns, required to positively span R^n."""

    generating: np.ndarray
    integer_combinations: np.ndarray
    directions: np.ndarray = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.generating, dtype=float)
        z = np.asarray(self.integer_combinations)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"generating matrix must be square, got {g.shape}")
        n = g.shape[0]
        if z.ndim != 2 or z.shape[0] != n:
            raise DimensionMismatchError(
                f"combination matrix must be {n} x p, got {z.shape}"
            )
        if not np.array_equal(z, np.round(z)):
            raise ValueError("combination matrix must be integer")
        if abs(np.linalg.det(g)) <= 1e-12:
            raise ValueError("generating matrix is singular")
        d = g @ z.astype(float)
        if not positive_spanning_check(d):
            raise NotPositiveSpanningError(
                "columns of G @ Z do not positively span R^n"
            )
        object.__setattr__(self, "generating", g)
        object.__setattr__(self, "integer_combinations", z.astype(int))
        object.__setattr__(self, "directions", d)

    @classmethod
    def coordinate(cls, n: int) -> "PatternBasis":
        """The minimal standard choice: G = I, directions [I, -I]."""
        eye = np.eye(n, dtype=int)
        return cls(np.eye(n), np.hstack([eye, -eye]))

    @property
    def dimension(self) -> int:
        return self.generating.shape[0]

    @property
    def num_directions(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class MeshState:
    """Current iterate, mesh size, cached incumbent value, iteration count."""

    iterate: np.ndarray
    mesh_size: float
    incumbent_value: float
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "iterate", np.asarray(self.iterate, dtype=float))
        if self.mesh_size <= 0:
            raise ValueError(f"mesh size must be positive, got {self.mesh_size}")


def _is_power_of_two(x: float) -> bool:
    if x <= 0:
        return False
    mantissa, _ = math.frexp(x)
    return mantissa == 0.5


@dataclass(frozen=True)
class GpsConfig:
    """Knobs of the outer loop and of search-point selection.

    Both mesh factors must be powers of 2 so the mesh size stays on the
    dyadic grid and candidates remain exactly encodable.
    """

    initial_mesh_size: float = 0.5
    expansion_factor: float = 1.0
    contraction_factor: float = 0.5
    mesh_size_tolerance: float = 1e-3
    max_iterations: int = 200
    search_points_count: int = 16
    search_radius: int = 8
    fixed_point_format: FixedPointFormat = FixedPointFormat(16, 10)
    rng_seed: int = 0
    max_oracle_calls: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.initial_mesh_size < math.inf:
            raise ValueError("initial mesh size must be positive and finite")
        if self.expansion_factor < 1 or not _is_power_of_two(self.expansion_factor):
            raise ValueError("expansion factor must be a power of 2 and >= 1")
        if not 0 < self.contraction_factor < 1 or not _is_power_of_two(
            self.contraction_factor
        ):
            raise ValueError("contraction factor must be a power of 2 in (0, 1)")
        n = self.search_points_count
        if n < 1 or n & (n - 1):
            raise ValueError("search_points_count must be a power of 2")
        if self.search_radius < 1:
            raise ValueError("search_radius must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.mesh_size_tolerance < math.inf:
            raise ValueError("mesh_size_tolerance must be positive and finite")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class ImprovedPoint:
    """A mesh point with a strictly lower objective value than the incumbent."""

    point: np.ndarray
    value: float


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one iteration: the pre-update state plus its outcome."""

    iteration: int
    iterate: np.ndarray
    value: float
    mesh_size: float
    outcome: str  # search-success | poll-success | mesh-local-optimizer
    ledger_snapshot: OracleLedger

    def as_record(self) -> dict:
        """The ``iteration`` trace event: the snapshot's fields plus its
        ledger counts."""
        return {
            "type": "iteration",
            "iteration": self.iteration,
            "iterate": self.iterate.tolist(),
            "value": self.value,
            "mesh_size": self.mesh_size,
            "outcome": self.outcome,
            **self.ledger_snapshot.as_dict(),
        }


@dataclass
class GpsRun:
    """Full trace of one run plus why it stopped."""

    records: List[IterationRecord]
    stop_reason: str  # mesh-tolerance | iteration-cap | budget-exhausted
    final_state: MeshState
    ledger: OracleLedger


def mesh_point(state: MeshState, basis: PatternBasis, z: Sequence[int]) -> np.ndarray:
    """The mesh point x_k + mesh_size * D @ z."""
    z = np.asarray(z)
    if z.shape != (basis.num_directions,):
        raise DimensionMismatchError(
            f"z must have length {basis.num_directions}, got shape {z.shape}"
        )
    if np.any(z < 0) or not np.array_equal(z, np.round(z)):
        raise ValueError("z must be a vector of non-negative integers")
    return state.iterate + state.mesh_size * (basis.directions @ z.astype(float))


def poll_set(state: MeshState, directions: np.ndarray) -> List[np.ndarray]:
    """Poll candidates x_k + mesh_size * d, one per direction column."""
    d = np.asarray(directions, dtype=float)
    if not positive_spanning_check(d):
        raise NotPositiveSpanningError("poll directions must positively span R^n")
    return _poll_points(state, d)


def _poll_points(state: MeshState, d: np.ndarray) -> List[np.ndarray]:
    # Unchecked: for direction sets already known to span, such as a basis's.
    return [state.iterate + state.mesh_size * d[:, i] for i in range(d.shape[1])]


def poll_step(
    state: MeshState,
    basis: PatternBasis,
    objective: Objective,
    ledger: OracleLedger,
) -> Optional[ImprovedPoint]:
    """Opportunistic poll: evaluate candidates in column order, return the
    first strict improvement; None declares the iterate a mesh local
    optimizer."""
    for y in _poll_points(state, basis.directions):  # checked by PatternBasis
        ledger.classical_calls += 1
        fy = objective(y)
        if fy < state.incumbent_value:
            return ImprovedPoint(y, fy)
    return None


def _small_z_enumeration(p: int, cap: int) -> Iterator[Tuple[int, ...]]:
    # Nonzero z in {0..cap}^p by increasing 1-norm, lexicographic within.
    for total in range(1, p * cap + 1):
        for z in _compositions(total, p, cap):
            yield z


def _compositions(total: int, parts: int, cap: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def _exhausted(found: int, wanted: int) -> MeshExhaustedError:
    return MeshExhaustedError(
        f"only {found} distinct representable mesh points exist, {wanted} requested"
    )


def _axis_mesh_count(
    state: MeshState, basis: PatternBasis, config: GpsConfig
) -> Optional[int]:
    """In-range mesh points that z in {0..search_radius}^p reaches, the
    incumbent among them, or None where they are not counted.

    They are counted when the basis is G [I, -I] with G diagonal and every
    step mesh_size * g_i is a whole number of register units: axis i then
    moves by k steps for every k in [-search_radius, search_radius], and the
    points are the product of the axes' in-range positions.
    """
    g = basis.generating
    eye = np.eye(basis.dimension, dtype=int)
    if not (
        np.array_equal(basis.integer_combinations, np.hstack([eye, -eye]))
        and np.array_equal(g, np.diag(np.diag(g)))
    ):
        return None
    fmt = config.fixed_point_format
    scale = 1 << fmt.frac_bits
    cap = config.search_radius
    count = 1
    for x, g_i in zip(state.iterate.tolist(), np.diag(g).tolist()):
        step = abs(float(state.mesh_size) * g_i) * scale
        if step < 1 or not step.is_integer():
            return None
        s, u = int(step), int(x * scale)
        above = min(cap, (fmt.max_units - u) // s)
        below = min(cap, (u - fmt.min_units) // s)
        count *= above + below + 1
    return count


def select_search_points(
    state: MeshState,
    basis: PatternBasis,
    config: GpsConfig,
) -> Tuple[List[str], np.ndarray]:
    """Pick N distinct encodable mesh points around the incumbent.

    Combination vectors z are drawn uniformly from {0..search_radius}^p
    minus zero, at most 50*N of them, from a generator seeded by
    (rng_seed, iteration, 0); if they yield fewer than N points, small z are
    enumerated systematically.  The incumbent itself is excluded.  z is
    drawn in chunks and each chunk is checked as an array, but points are
    taken in draw order up to the N-th, so the result is that of drawing
    and encoding one z at a time: the first off-grid point reached raises
    EncodingError and out-of-range points are skipped.  Returns the encoded
    point strings in selection order and the (N, n) array whose row k is the
    point that string k encodes.
    """
    rng = np.random.default_rng([config.rng_seed, state.iteration, 0])
    fmt = config.fixed_point_format
    n_wanted = config.search_points_count
    cap = config.search_radius
    p = basis.num_directions
    encode_point_exact(state.iterate, fmt)  # the incumbent's grid and range check
    scale = 1 << fmt.frac_bits
    # A point's key is the bytes of its int64 unit row, exact at any width.
    incumbent_key = (state.iterate * scale).astype(np.int64).tobytes()
    found: Dict[bytes, np.ndarray] = {}

    def take(z: np.ndarray) -> None:
        # Add the new points of the z rows in order until there are N.
        with np.errstate(over="ignore"):  # an infinite coordinate is out of range
            y = state.iterate + state.mesh_size * (z.astype(float) @ basis.directions.T)
            scaled = y * scale
        off_grid = scaled != np.floor(scaled)
        bad = off_grid | (scaled < fmt.min_units) | (scaled > fmt.max_units)
        # encode_point_exact stops at a row's first bad coordinate: off the
        # grid it raises, out of range the row is skipped.
        raises = off_grid[np.arange(len(z)), bad.argmax(axis=1)]
        end = int(raises.argmax()) if raises.any() else len(z)
        keep = ~bad[:end].any(axis=1) & z[:end].any(axis=1)
        units = np.where(bad, 0, scaled).astype(np.int64)
        for i in np.flatnonzero(keep):
            key = units[i].tobytes()
            if key != incumbent_key and key not in found:
                found[key] = y[i]
                if len(found) == n_wanted:
                    return
        if end < len(z):
            encode_point_exact(y[end], fmt)  # raises the off-grid EncodingError

    chunk = max(n_wanted, 64)
    max_draws = 50 * n_wanted
    draws = 0
    while len(found) < n_wanted and draws < max_draws:
        k = min(chunk, max_draws - draws)
        take(rng.integers(0, cap + 1, size=(k, p)))
        draws += k
    d = fmt.total_bits
    width = basis.dimension * d
    if len(found) < n_wanted:
        if n_wanted > 2**width - 1:
            raise MeshExhaustedError(
                f"{n_wanted} points requested, but a point register of {width} "
                f"bits holds only {2**width - 1} besides the incumbent"
            )
        total = _axis_mesh_count(state, basis, config)
        if total is not None and total - 1 < n_wanted:
            raise _exhausted(total - 1, n_wanted)
        small_z = _small_z_enumeration(p, cap)
        while len(found) < n_wanted and (block := list(islice(small_z, chunk))):
            take(np.array(block))
    if len(found) < n_wanted:
        raise _exhausted(len(found), n_wanted)
    points = np.array(list(found.values()))
    units = (points * scale).astype(np.int64)
    digits = (units[:, :, None] >> np.arange(d - 1, -1, -1)) & 1
    text = (digits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    bits_list = [text[k * width : (k + 1) * width] for k in range(n_wanted)]
    return bits_list, points


def search_candidates_record(iteration: int, points: np.ndarray) -> dict:
    """The ``search-candidates`` trace event of either search backend."""
    return {
        "type": "search-candidates",
        "iteration": iteration,
        "points": points.tolist(),
    }


def update_mesh(
    state: MeshState, outcome: Optional[ImprovedPoint], config: GpsConfig
) -> MeshState:
    """Advance to the next iteration: move and expand on success, stay and
    contract at a mesh local optimizer."""
    if outcome is not None:
        return MeshState(
            outcome.point,
            state.mesh_size * config.expansion_factor,
            outcome.value,
            state.iteration + 1,
        )
    return MeshState(
        state.iterate,
        state.mesh_size * config.contraction_factor,
        state.incumbent_value,
        state.iteration + 1,
    )


def classical_search_step(
    points: Sequence[np.ndarray],
    objective: Objective,
    incumbent_value: float,
    ledger: OracleLedger,
) -> Optional[ImprovedPoint]:
    """First-improvement scan over the candidate points, one classical call
    each; None after exhausting all of them."""
    for y in points:
        ledger.classical_calls += 1
        fy = objective(y)
        if fy < incumbent_value:
            return ImprovedPoint(y, fy)
    return None


def gps_run(
    objective: Objective,
    basis: PatternBasis,
    config: GpsConfig,
    search_backend: str,
    initial_point: Sequence[float],
    qsearch_params=None,
    event_sink: Optional[Callable[[dict], None]] = None,
    compute_t: bool = False,
) -> GpsRun:
    """Run the outer loop until the mesh is finer than the tolerance, the
    iteration cap is hit, or the oracle budget runs out.

    Each iteration tries the chosen search backend first and polls only on
    search failure.  The trace's incumbent values are non-increasing.  With
    ``compute_t`` each quantum search step's event reports its true marked
    count t.
    """
    if search_backend not in ("classical", "quantum"):
        raise ValueError(f"unknown search backend {search_backend!r}")
    if search_backend == "quantum":
        from .quantum_step import quantum_search_step

        if qsearch_params is None:
            qsearch_params = QSearchParams()
        last_failing_round(config.search_points_count, qsearch_params)

    x0 = np.asarray(initial_point, dtype=float)
    if x0.shape != (basis.dimension,):
        raise DimensionMismatchError(
            f"initial point has shape {x0.shape}, basis dimension is "
            f"{basis.dimension}"
        )
    encode_point_exact(x0, config.fixed_point_format)

    ledger = OracleLedger()
    ledger.classical_calls += 1
    state = MeshState(x0, config.initial_mesh_size, float(objective(x0)), 0)
    records: List[IterationRecord] = []

    while True:
        if state.mesh_size < config.mesh_size_tolerance:
            stop = "mesh-tolerance"
            break
        if state.iteration >= config.max_iterations:
            stop = "iteration-cap"
            break
        if (
            config.max_oracle_calls is not None
            and ledger.total_calls >= config.max_oracle_calls
        ):
            stop = "budget-exhausted"
            break

        if search_backend == "classical":
            _, points = select_search_points(state, basis, config)
            if event_sink is not None:
                event_sink(search_candidates_record(state.iteration, points))
            outcome = classical_search_step(
                points, objective, state.incumbent_value, ledger
            )
        else:
            outcome = quantum_search_step(
                state,
                basis,
                config,
                qsearch_params,
                objective,
                ledger,
                event_sink=event_sink,
                compute_t=compute_t,
            )

        if outcome is not None:
            label = "search-success"
        else:
            if event_sink is not None:
                event_sink(
                    {
                        "type": "poll-candidates",
                        "iteration": state.iteration,
                        "points": [
                            y.tolist() for y in _poll_points(state, basis.directions)
                        ],
                    }
                )
            outcome = poll_step(state, basis, objective, ledger)
            label = "poll-success" if outcome is not None else "mesh-local-optimizer"

        record = IterationRecord(
            state.iteration,
            state.iterate.copy(),
            state.incumbent_value,
            state.mesh_size,
            label,
            ledger.copy(),
        )
        records.append(record)
        if event_sink is not None:
            event_sink(record.as_record())
        state = update_mesh(state, outcome, config)

    return GpsRun(records, stop, state, ledger)
