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
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

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
    "poll_step",
    "select_search_points",
    "step_rng",
    "candidates_record",
    "update_mesh",
    "classical_search_step",
    "gps_run",
]

Objective = Callable[[np.ndarray], float]

# The most z values select_search_points draws at once, whatever N and p.
DRAW_CHUNK_VALUES = 1 << 20


class DimensionMismatchError(ValueError):
    """Matrix or vector shapes are inconsistent."""


class NotPositiveSpanningError(ValueError):
    """The supplied directions do not positively span R^n."""


class MeshExhaustedError(RuntimeError):
    """The reachable mesh holds fewer representable points than requested."""


def positive_spanning_check(directions: np.ndarray) -> bool:
    """True iff every vector in R^n is a non-negative combination of the
    columns.

    Uses the exact characterization (Davis 1954): the columns of D positively
    span iff rank D = n and D @ lam = 0 for some lam >= 1.  With lam = 1 + mu
    the second condition is -D @ 1 in cone(D): one non-negative least-squares
    problem, min ||D @ mu + D @ 1|| over mu >= 0, solved by the Lawson-Hanson
    active-set method.  Each row is first scaled to largest entry 1 (scaling
    a row changes neither the rank nor whether the columns span), and the
    columns span when that residual is at most 1e-9 * max|D| * p = 1e-9 * p.
    Non-finite entries are refused.
    """
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {d.shape}")
    n, p = d.shape
    if n < 1:
        raise DimensionMismatchError("need at least one row")
    if not np.isfinite(d).all():
        raise ValueError("direction matrix has a non-finite entry")
    if p < n + 1:
        return False
    key = (d.shape, d.tobytes())
    return _spans(*key) if d.size <= MEMO_MAX_ENTRIES else _spans.__wrapped__(*key)


# The check is pure in the matrix, and a process builds the same few bases
# again and again, so it keeps its last two results, keyed on the matrix's
# shape and float64 bytes; an exception is not kept.  A matrix past the
# n = 1024 coordinate D's 2^21 entries (16 MiB) is checked without the memo,
# so the memo holds at most 2 x 16 = 32 MiB.
MEMO_MAX_ENTRIES = 1 << 21


@lru_cache(maxsize=2)
def _spans(shape: Tuple[int, int], data: bytes) -> bool:
    """The rank and cone test of ``positive_spanning_check`` on the finite D
    of ``shape`` whose C-order float64 bytes are ``data``."""
    d = np.frombuffer(data).reshape(shape)
    if np.linalg.matrix_rank(d) < shape[0]:
        return False
    # Scaled per row, a row of small entries cannot hide under the rounding
    # of the others.
    d = d / np.abs(d).max(axis=1, keepdims=True)
    return _nnls_reaches(d, 1e-9 * shape[1])


def _nnls_reaches(a: np.ndarray, tol: float) -> bool:
    """Whether min ||a @ x + a @ 1|| over x >= 0 is at most ``tol``, by the
    Lawson-Hanson active-set method (Lawson and Hanson 1974, ch. 23).

    Stops at the first residual at most ``tol``, or when the Kuhn-Tucker
    conditions hold.  Raises after 3p outer steps rather than guess.
    """
    p = a.shape[1]
    b = -a.sum(axis=1)
    x = np.zeros(p)
    passive = np.zeros(p, dtype=bool)  # the set P; the rest is held at 0
    rounding = 8 * p * np.finfo(float).eps
    for _ in range(3 * p):
        r = b - a @ x
        if np.linalg.norm(r) <= tol:
            return True
        # A gradient entry within its own rounding error counts as zero, the
        # rounding of b = -a @ 1 included: a row that cancels leaves only that.
        noise = rounding * (abs(a).T @ (abs(a) @ (1 + x)))
        w = np.where(passive, -np.inf, a.T @ r - noise)
        j = int(np.argmax(w))
        if w[j] <= 0:  # x is the minimizer, and its residual exceeds tol
            return False
        passive[j] = True
        s = _passive_solution(a, b, passive)
        while (s[passive] <= 0).any():  # back off to the last feasible point
            out = passive & (s <= 0)
            ratio = x[out] / (x[out] - s[out])
            x += ratio.min() * (s - x)
            x[np.flatnonzero(out)[np.argmin(ratio)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            s = _passive_solution(a, b, passive)
        x = s
    raise RuntimeError(f"NNLS positive-spanning check did not settle in {3 * p} steps")


def _passive_solution(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares x on the passive columns, zero on the others."""
    s = np.zeros(a.shape[1])
    s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
    return s


@dataclass(frozen=True)
class PatternBasis:
    """Coordinate search's direction set D = [I, -I] in R^n, the 2n columns
    +-e_i, which positively span R^n (Davis 1954)."""

    dimension: int
    directions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eye = np.eye(self.dimension, dtype=int)  # integer, so -eye holds no -0.0
        d = np.hstack([eye, -eye]).astype(float)
        if not positive_spanning_check(d):  # which refuses n < 1
            raise NotPositiveSpanningError("columns of [I, -I] do not positively span R^n")
        object.__setattr__(self, "directions", d)

    @classmethod
    def coordinate(cls, n: int) -> "PatternBasis":
        """The basis of coordinate search in R^n."""
        return cls(n)

    @property
    def num_directions(self) -> int:
        return 2 * self.dimension


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
        if not 1 <= n <= 1 << 20 or n & (n - 1):
            raise ValueError(
                f"search_points_count must be a power of 2 in [1, 2^20], got {n}"
            )
        if not 1 <= self.search_radius < 2**63:  # radius + 1 bounds an int64 draw
            raise ValueError(
                f"search_radius must lie in [1, 2^63 - 1], got {self.search_radius}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.mesh_size_tolerance < math.inf:
            raise ValueError("mesh_size_tolerance must be positive and finite")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.max_oracle_calls is not None and self.max_oracle_calls < 0:
            raise ValueError(f"max_oracle_calls must be >= 0, got {self.max_oracle_calls}")


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
        """The ``iteration`` trace record: the snapshot's fields plus its
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
    stop_reason: str  # mesh-tolerance | iteration-cap | budget-exhausted | mesh-resolution
    final_state: MeshState
    ledger: OracleLedger


def _poll_points(state: MeshState, basis: PatternBasis) -> np.ndarray:
    return state.iterate + state.mesh_size * basis.directions.T


def poll_step(
    state: MeshState,
    basis: PatternBasis,
    objective: Objective,
    ledger: OracleLedger,
) -> Optional[ImprovedPoint]:
    """Opportunistic poll: the first-improvement scan over the poll points in
    column order; None declares the iterate a mesh local optimizer."""
    points = _poll_points(state, basis)
    return classical_search_step(points, objective, state.incumbent_value, ledger)


def _exhausted(found: int, wanted: int) -> MeshExhaustedError:
    return MeshExhaustedError(
        f"only {found} distinct representable mesh points exist, {wanted} requested"
    )


def _mesh_box(
    state: MeshState, config: GpsConfig
) -> Tuple[Optional[int], List[Tuple[int, int]]]:
    """The in-range mesh points that z in {0..search_radius}^p reaches, the
    incumbent among them, and each axis's (below, above) range of steps k.

    Where the step mesh_size is a whole number of register units, an axis
    keeps the k in [-search_radius, search_radius] that stay in range (none
    if it overflows to inf), and the points are counted.  Otherwise they are
    not (None), and every axis keeps the whole radius.
    """
    fmt = config.fixed_point_format
    scale = 1 << fmt.frac_bits
    cap = config.search_radius
    step = float(state.mesh_size) * scale
    if step == math.inf:  # every move leaves the range
        return 1, [(0, 0)] * len(state.iterate)
    if step < 1 or not step.is_integer():
        return None, [(cap, cap)] * len(state.iterate)
    s = int(step)
    box = [
        (min(cap, (u - fmt.min_units) // s), min(cap, (fmt.max_units - u) // s))
        for u in (int(x * scale) for x in state.iterate.tolist())
    ]
    return math.prod(below + above + 1 for below, above in box), box


def _k_walk(box: Sequence[Tuple[int, int]], block: int) -> Iterator[np.ndarray]:
    """Every nonzero k with -below_i <= k_i <= above_i, as int64 rows of its
    first z = (k+, k-): by increasing |k|_1, lexicographic in z within, the
    order in which a walk of every z by 1-norm first reaches each k.

    A norm's rows grow one entry at a time after their last, the last
    position first, then by value, where the later positions can hold the
    rest.  A block whose step would make over ``block`` rows is halved.
    """
    n = len(box)
    below, above = np.array(box, dtype=np.int64).reshape(n, 2).T
    q = np.arange(2 * n - 1, -1, -1)  # the positions of z, last first
    for total in range(1, sum(max(b, a) for b, a in box) + 1):
        lo, hi = np.minimum(below, total), np.minimum(above, total)  # sums fit int64
        reach = np.maximum(lo, hi)
        # What the positions after k+_i hold: each later axis on either side,
        # each earlier one on its negative side unless its k+ is placed.
        after_plus = reach[::-1].cumsum()[::-1] - reach + lo.cumsum() - lo
        stack = [np.zeros((1, 2 * n), np.int64)]
        while stack:
            z = stack.pop()
            need = total - z.sum(axis=1)
            if not need.any():
                yield z
                continue
            open_lo = np.where(z[:, :n] > 0, 0, lo)  # k-_i is closed where k+_i > 0
            cap = np.hstack([np.broadcast_to(hi, open_lo.shape), open_lo])[:, q]
            room = np.hstack([after_plus - (lo - open_lo).sum(axis=1, keepdims=True),
                              open_lo[:, ::-1].cumsum(axis=1)[:, ::-1] - open_lo])[:, q]
            first = np.maximum(need[:, None] - room, 1)
            width = np.maximum(np.minimum(need[:, None], cap) - first + 1, 0)
            width[np.logical_or.accumulate(z[:, q] > 0, axis=1)] = 0
            width = np.column_stack([need == 0, width]).ravel()  # slot 0: kept as is
            if len(z) > 1 and width.sum() > block:
                stack += [z[len(z) // 2 :], z[: len(z) // 2]]
                continue
            cell = np.repeat(np.arange(len(width)), width)
            row, slot = np.divmod(cell, 2 * n + 1)
            value = first.ravel()[cell - row - 1] + np.arange(len(cell))
            value -= np.repeat(width.cumsum() - width, width)
            z, put = z[row], slot > 0
            z[put, 2 * n - slot[put]] = value[put]
            stack.append(z)


def step_rng(seed: int, iteration: int, stream: int) -> np.random.Generator:
    """``np.random.default_rng([seed, iteration, stream])``, seeded with the
    entropy SeedSequence derives from that list: the 32-bit words of each
    number, low word first, 0 as one word.  Stream 0 selects search points,
    1 drives the quantum search loop and 2 plants compare's marked points."""
    words = []
    for n in (seed, iteration, stream):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, np.uint32))


def select_search_points(
    state: MeshState,
    basis: PatternBasis,
    config: GpsConfig,
) -> np.ndarray:
    """Pick N distinct encodable mesh points around the incumbent.

    Combination vectors z are drawn uniformly from {0..search_radius}^p
    minus zero, at most 50*N of them, from a generator seeded by
    (rng_seed, iteration, 0).  z moves axis i by k_i = z_i - z_(n+i) steps;
    if the draws yield fewer than N points, each k of the in-range box is
    then tried once (see _k_walk).  The incumbent itself is excluded.  z is
    drawn in chunks of C = max(64, min(N, DRAW_CHUNK_VALUES // p)) rows,
    except that the second tops up with max(64, min(C, 2 * M)) rows for the
    M points still missing.  numpy's draws do not depend on chunk sizes, and
    each chunk is checked as an array, but points are taken in draw order up
    to the N-th, so the result is that of drawing and encoding one z at a
    time: the first off-grid point reached raises EncodingError and
    out-of-range points are skipped.
    Returns the (N, n) float64 array of the points in selection order.
    """
    rng = step_rng(config.rng_seed, state.iteration, 0)
    fmt = config.fixed_point_format
    n_wanted = config.search_points_count
    cap = config.search_radius
    p = basis.num_directions
    encode_point_exact(state.iterate, fmt)  # the incumbent's grid and range check
    width = basis.dimension * fmt.total_bits
    if n_wanted > 2**width - 1:
        raise MeshExhaustedError(
            f"{n_wanted} points requested, but a point register of {width} "
            f"bits holds only {2**width - 1} besides the incumbent"
        )
    scale = 1 << fmt.frac_bits
    lo, hi = fmt.min_units, fmt.max_units
    # A point's key is the bytes of its int64 unit row, exact at any width.
    # The incumbent's key goes in first, so it is never taken.
    seen: Set[bytes] = {(state.iterate * scale).astype(np.int64).tobytes()}
    key_type = np.dtype((np.void, 8 * basis.dimension))  # one row's bytes
    pieces: List[np.ndarray] = []  # each chunk's taken rows, in draw order

    def take(z: np.ndarray) -> None:
        # Add the new points of the z rows in order until there are N.
        with np.errstate(over="ignore"):  # an infinite coordinate is out of range
            y = state.iterate + state.mesh_size * (z.astype(float) @ basis.directions.T)
            scaled = y * scale
        end = len(z)
        # One test for the common chunk: clamped to the range and floored,
        # no coordinate differs from itself (NaN and +-inf do).  The ufuncs and
        # count_nonzero cost less than the np.clip and .all() wrappers.
        if not np.count_nonzero(np.floor(np.minimum(np.maximum(scaled, lo), hi)) != scaled):
            rows = range(end)
        else:
            off_grid = scaled != np.floor(scaled)
            bad = off_grid | (scaled < lo) | (scaled > hi)
            if np.count_nonzero(off_grid):
                # encode_point_exact stops at a row's first bad coordinate:
                # off the grid it raises, out of range the row is skipped.
                raises = off_grid[np.arange(end), bad.argmax(axis=1)]
                if np.count_nonzero(raises):
                    end = int(raises.argmax())
            # any(axis=1) runs down the columns of a column-major copy; on the
            # rows of a C-ordered array it loops once per row.
            kept = (~np.asfortranarray(bad[:end]).any(axis=1)).nonzero()[0]
            rows, scaled = kept.tolist(), scaled[kept]
        keys = scaled.astype(np.int64).view(key_type).ravel().tolist()
        taken = []
        for i, key in zip(rows, keys):
            if key not in seen:
                seen.add(key)
                taken.append(i)
                if len(seen) > n_wanted:
                    break
        pieces.append(y.take(taken, axis=0))
        if len(seen) <= n_wanted and end < len(z):
            encode_point_exact(y[end], fmt)  # raises the off-grid EncodingError

    chunk = max(64, min(n_wanted, DRAW_CHUNK_VALUES // p))
    max_draws = 50 * n_wanted
    draws = 0
    size = chunk
    while len(seen) <= n_wanted and draws < max_draws:
        k = min(size, max_draws - draws)
        take(rng.integers(0, cap + 1, size=(k, p)))
        # The second chunk tops up, to twice the points still missing; any
        # later chunk is full size again.
        size = chunk if draws else max(64, min(chunk, 2 * (n_wanted + 1 - len(seen))))
        draws += k
    if len(seen) <= n_wanted:
        total, box = _mesh_box(state, config)
        if total is not None and total - 1 < n_wanted:
            raise _exhausted(total - 1, n_wanted)
        walk = _k_walk(box, chunk)
        while len(seen) <= n_wanted and (z := next(walk, None)) is not None:
            take(z)
    if len(seen) <= n_wanted:
        raise _exhausted(len(seen) - 1, n_wanted)
    # One chunk's y.take(taken) is already a fresh C-ordered array of its own.
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def candidates_record(kind: str, iteration: int, points: np.ndarray) -> dict:
    """The ``search-candidates`` or ``poll-candidates`` trace event, for
    ``kind`` "search" or "poll"."""
    return {
        "type": f"{kind}-candidates",
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
    each; None after exhausting all of them.  The poll and the quantum
    step's recheck scan through it too.

    An objective with an ``on_rows`` form is read in one array call, and the
    ledger counts the calls up to and including the first improvement (all
    N when there is none), as the one-at-a-time scan does; any other
    objective is called one point at a time and never past that point.
    """
    on_rows = getattr(objective, "on_rows", None)
    if on_rows is not None:
        n = len(points)
        if n == 0:
            return None
        values = np.asarray(on_rows(np.asarray(points)), dtype=float)
        if values.shape != (n,):
            raise ValueError(
                f"on_rows returned shape {values.shape} for {n} rows, "
                "not one value per row"
            )
        better = values < incumbent_value
        k = int(better.argmax())
        if not better[k]:
            ledger.classical_calls += n
            return None
        ledger.classical_calls += k + 1
        return ImprovedPoint(points[k], float(values[k]))
    for y in points:
        ledger.classical_calls += 1
        fy = float(objective(y))
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
) -> GpsRun:
    """Run the outer loop until the mesh is finer than the tolerance, the
    iteration cap is hit, the oracle budget runs out, or a contraction takes
    the mesh steps off the register grid (checked from iteration 1 on, so
    an initial mesh off the grid raises EncodingError instead).

    Each iteration tries the chosen search backend first and polls only on
    search failure.  The trace's incumbent values are non-increasing.  The
    iteration records are the returned ``GpsRun.records``; ``event_sink``
    receives each step's candidates, and with the quantum backend its round
    and step events (see ``quantum_search_step``).
    """
    if search_backend not in ("classical", "quantum"):
        raise ValueError(f"unknown search backend {search_backend!r}")
    # Both backends refuse loop constants that no failing search can run.
    if qsearch_params is None:
        qsearch_params = QSearchParams()
    last_failing_round(config.search_points_count, qsearch_params)
    if search_backend == "quantum":
        from .quantum_step import quantum_search_step

    x0 = np.asarray(initial_point, dtype=float)
    if x0.shape != (basis.dimension,):
        raise DimensionMismatchError(
            f"initial point has shape {x0.shape}, basis dimension is "
            f"{basis.dimension}"
        )
    fmt = config.fixed_point_format
    encode_point_exact(x0, fmt)

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
        # The step must be whole register units; a float product overflows
        # to inf, which is not, without a warning.
        if state.iteration > 0 and not (state.mesh_size * 2.0**fmt.frac_bits).is_integer():
            stop = "mesh-resolution"
            break

        if search_backend == "classical":
            points = select_search_points(state, basis, config)
            if event_sink is not None:
                event_sink(candidates_record("search", state.iteration, points))
            outcome = classical_search_step(
                points, objective, state.incumbent_value, ledger
            )
        else:
            outcome = quantum_search_step(
                state, basis, config, qsearch_params, objective, ledger, event_sink
            )

        if outcome is not None:
            label = "search-success"
        else:
            if event_sink is not None:
                points = _poll_points(state, basis)
                event_sink(candidates_record("poll", state.iteration, points))
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
        state = update_mesh(state, outcome, config)

    return GpsRun(records, stop, state, ledger)
