"""Amplitude amplification over the three-register search state.

Builds the preparation operator A (load -incumbent, spread over the search
points, oracle, modular add), the reflections S0 and S_chi, the iterate
Q = -A S0 A^-1 S_chi, and the two search loops: the original one, which
cannot terminate when nothing is marked, and the modified one, whose
(3/4)^u stopping rule guarantees finite termination at an arbitrarily low
miss probability.

Every operator takes either state form.  The loops run on an IndexState,
where load, oracle and add only relabel slots: A and A^-1 are both the
spreading reflection, S_chi multiplies by the problem's sign vector and S0
negates the zero point's slot.  On a SparseState, the reference simulator,
the same operators act string by string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fixedpoint import negate_bits
from .ledger import OracleLedger
from .state import (
    HouseholderPrepare,
    IndexSpace,
    IndexState,
    RegisterLayout,
    SparseState,
    apply_basis_map,
    apply_phase,
    measure,
)

State = Union[IndexState, SparseState]

__all__ = [
    "QSearchParams",
    "QSearchOutcome",
    "SearchProblem",
    "RoundRecord",
    "DomainError",
    "SafetyCapReachedError",
    "PreparationOperator",
    "apply_S0",
    "apply_Schi",
    "apply_Q",
    "qsearch",
    "modified_qsearch",
    "analytic_success_probability",
    "desired_probability",
    "is_desired",
    "make_planted_problem",
    "failure_round_bound",
    "last_failing_round",
]


class DomainError(ValueError):
    """Arguments outside the mathematical domain of the operation."""


class SafetyCapReachedError(RuntimeError):
    """The original search loop hit its round cap: the desk-scale stand-in
    for its nontermination when no marked state exists."""


@dataclass(frozen=True)
class QSearchParams:
    """Loop constants: growth rate c in (1,2), miss tolerance tau, and the
    round cap that only the original (non-terminating) loop uses."""

    c: float = 1.5
    tau: float = 0.01
    rng_seed: int = 0
    max_total_rounds: int = 10_000

    def __post_init__(self):
        if not 1.0 < self.c < 2.0:
            raise ValueError(f"c must lie in (1, 2), got {self.c}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.max_total_rounds < 1:
            raise ValueError("max_total_rounds must be positive")

    @property
    def u_limit(self) -> float:
        return math.log(self.tau) / math.log(0.75)


@dataclass
class QSearchOutcome:
    """Result of one search invocation.

    ``result`` is the measured full-width bitstring on success and None on
    failure; the counters echo the loop variables at exit.
    """

    result: Optional[str]
    rounds_executed: int
    u_rounds: int
    q_applications: int
    ledger_delta: OracleLedger

    @property
    def succeeded(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class RoundRecord:
    """Per-round debug record emitted through the optional event sink."""

    l: int
    m: int
    j: int
    u: int
    measured: str
    desired: bool


class SearchProblem:
    """One search-step instance: N candidate points, the incumbent's encoded
    value, and ``units``, the values f_j of the candidates that the quantum
    oracle lifts, as unsigned register units in problem order.
    """

    __slots__ = ("points", "incumbent_value_bits", "units", "layout", "_oracle")

    def __init__(
        self,
        points: Sequence[str],
        incumbent_value_bits: str,
        units: np.ndarray,
        layout: RegisterLayout,
    ):
        points = list(points)
        if not points:
            raise ValueError("need at least one search point")
        if len(set(points)) != len(points):
            raise ValueError("search points must be distinct")
        for p in points:
            if len(p) != layout.point_bits:
                raise ValueError(
                    f"point {p!r} has width {len(p)}, layout expects "
                    f"{layout.point_bits}"
                )
        if len(incumbent_value_bits) != layout.value_bits:
            raise ValueError(
                f"incumbent value width {len(incumbent_value_bits)} != "
                f"{layout.value_bits}"
            )
        units = np.asarray(units)
        if units.shape != (len(points),) or not (
            (units >= 0) & (units < 1 << layout.value_bits)
        ).all():
            raise ValueError(
                f"need one {layout.value_bits}-bit unsigned value per point"
            )
        self.points = points
        self.incumbent_value_bits = incumbent_value_bits
        self.units = units.astype(np.int64, copy=False)
        self.layout = layout
        self._oracle = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def oracle(self) -> Callable[[str], str]:
        """f as a map from point strings to value strings, built on first
        use; only the SparseState reference simulator reads it."""
        if self._oracle is None:
            vb = self.layout.value_bits
            table = {
                x: format(u, f"0{vb}b") for x, u in zip(self.points, self.units.tolist())
            }
            self._oracle = table.__getitem__
        return self._oracle


def is_desired(bits: str, layout: RegisterLayout) -> bool:
    """A full-width string is desired iff its comparison register decodes
    negative, i.e. the measured point strictly improves on the incumbent."""
    return bits[layout.comparison_sign_index] == "1"


def desired_probability(state: State) -> float:
    """Exact Born probability of measuring a desired string."""
    if isinstance(state, IndexState):
        amps = state.amplitudes[state.space.marks < 0]
        return float(amps @ amps)
    idx = state.layout.comparison_sign_index
    return sum(abs(a) ** 2 for b, a in state.amplitudes.items() if b[idx] == "1")


class PreparationOperator:
    """The measurement-free preparation A and its exact inverse.

    Applied to |0>|0>|0>, A yields (1/sqrt(N)) sum_j |x_j>|f_j>|f_j - f_k>
    with the subtraction in d-bit two's complement.  Every application of A
    or its inverse uses the oracle once and is counted as one quantum call.
    The problem's ``space`` is laid out from its candidates' value units.
    Only on a SparseState is f read as the problem's string oracle.
    """

    __slots__ = (
        "problem",
        "layout",
        "space",
        "_load",
        "_spread",
        "_oracle_xor",
        "_add",
        "_add_inv",
    )

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        layout = problem.layout
        self.layout = layout
        pb, vb = layout.point_bits, layout.value_bits
        mask = (1 << vb) - 1
        neg_units = int(negate_bits(problem.incumbent_value_bits), 2)
        units = problem.units
        self.space = IndexSpace(layout, problem.points, units, (units + neg_units) & mask)
        self._spread = HouseholderPrepare(problem.points)

        def load(b: str) -> str:
            # XOR the comparison register with |-f_k|'s bit pattern.
            c = int(b[pb + vb :], 2) ^ neg_units
            return b[: pb + vb] + format(c, f"0{vb}b")

        def oracle_xor(b: str) -> str:
            # |x>|v>|c> -> |x>|v XOR f(x)>|c>: self-inverse lift of f.
            v = int(b[pb : pb + vb], 2) ^ int(problem.oracle(b[:pb]), 2)
            return b[:pb] + format(v, f"0{vb}b") + b[pb + vb :]

        def add(b: str) -> str:
            # |x>|v>|c> -> |x>|v>|(c+v) mod 2^d>: the simulated signed adder.
            v = int(b[pb : pb + vb], 2)
            c = (int(b[pb + vb :], 2) + v) & mask
            return b[: pb + vb] + format(c, f"0{vb}b")

        def add_inv(b: str) -> str:
            v = int(b[pb : pb + vb], 2)
            c = (int(b[pb + vb :], 2) - v) & mask
            return b[: pb + vb] + format(c, f"0{vb}b")

        self._load = load
        self._oracle_xor = oracle_xor
        self._add = add
        self._add_inv = add_inv

    def apply(self, state: State, ledger: Optional[OracleLedger] = None) -> State:
        """Apply A."""
        if isinstance(state, IndexState):
            state = self._spread(state)
        else:
            state = apply_basis_map(state, self._load)
            state = self._spread(state)
            state = apply_basis_map(state, self._oracle_xor)
            state = apply_basis_map(state, self._add)
        if ledger is not None:
            ledger.quantum_calls += 1
        return state

    def apply_inverse(
        self, state: State, ledger: Optional[OracleLedger] = None
    ) -> State:
        """Apply A^-1: the four sub-operators inverted, in reverse order."""
        if isinstance(state, IndexState):
            state = self._spread(state)
        else:
            state = apply_basis_map(state, self._add_inv)
            state = apply_basis_map(state, self._oracle_xor)
            state = self._spread(state)
            state = apply_basis_map(state, self._load)
        if ledger is not None:
            ledger.quantum_calls += 1
        return state

    def prepare_from_zero(self, ledger: Optional[OracleLedger] = None) -> SparseState:
        """A|0>|0>|0> on the reference simulator."""
        return self.apply(SparseState.zero(self.layout), ledger)


def apply_S0(state: State) -> State:
    """Flip the sign of the all-zeros basis string, leave the rest alone.

    On an IndexState that string is the zero point's slot as read before A.
    """
    if isinstance(state, IndexState):
        amps = state.amplitudes.copy()
        amps[state.space.zero] = -amps[state.space.zero]
        return IndexState(state.space, amps)
    zero = state.layout.zero_string()
    if zero not in state.amplitudes:
        return state
    new = dict(state.amplitudes)
    new[zero] = -new[zero]
    return SparseState._raw(state.layout, new)


def apply_Schi(state: State) -> State:
    """Flip the sign of strings whose comparison register decodes negative.

    Equality with the incumbent is not an improvement, so f_j = f_k stays
    unmarked.  On an IndexState the slots are read as prepared by A.
    """
    if isinstance(state, IndexState):
        return IndexState(state.space, state.amplitudes * state.space.marks)
    idx = state.layout.comparison_sign_index
    new = {b: (-a if b[idx] == "1" else a) for b, a in state.amplitudes.items()}
    return SparseState._raw(state.layout, new)


def apply_Q(
    state: State, ops: PreparationOperator, ledger: Optional[OracleLedger] = None
) -> State:
    """One amplification iterate: S_chi, A^-1, S0, A, global phase -1.

    ``ops`` is the problem's preparation A.  Assumes the state lies in the
    subspace reachable from A|0> (not checked).  Counts two quantum calls:
    one oracle use inside A^-1 and one inside A.
    """
    state = apply_Schi(state)
    state = ops.apply_inverse(state, ledger)
    state = apply_S0(state)
    state = ops.apply(state, ledger)
    if isinstance(state, IndexState):
        state = IndexState(state.space, -state.amplitudes)
    else:
        state = apply_phase(state, lambda b: True, -1.0)
    if ledger is not None:
        ledger.q_applications += 1
    return state


# Below this length of Q A|0> - (A|0> . Q A|0>) A|0>, nothing or everything
# is marked and Q A|0> = +-A|0>.  For 0 < t < N the length is sin 2theta
# >= 2 sqrt(N - 1) / N, so the cut-off sits far from any problem with a plane.
_NO_PLANE = 1e-9


def _plane(problem: SearchProblem) -> Callable[[int], IndexState]:
    """The iterates Q^j A|0> of one problem, from A|0> and Q A|0> alone.

    Q rotates the plane of A|0>'s marked and unmarked parts by a fixed angle
    phi (Brassard, Hoyer, Mosca and Tapp 2002), so with e the unit vector of
    that plane orthogonal to A|0>, Q^j A|0> = cos(j phi) A|0> + sin(j phi) e.
    Without a plane Q A|0> is +-A|0>, and iterate j is A|0> or -A|0> by the
    parity of j (cos(j pi) drifts off +-1 at large j).  A|0> and e are
    read-only, so the j = 0 state handed out cannot be written.
    """
    ops = PreparationOperator(problem)
    start = ops.apply(IndexState.zero(ops.space))
    psi0 = start.amplitudes
    psi0.flags.writeable = False
    psi1 = apply_Q(start, ops).amplitudes
    x = float(psi0 @ psi1)
    r = psi1 - x * psi0
    s = float(np.linalg.norm(r))
    if s <= _NO_PLANE:
        flips = x < 0
        return lambda j: IndexState(ops.space, -psi0) if flips and j % 2 else start
    phi, e = math.atan2(s, x), r / s
    e.flags.writeable = False

    def iterate(j: int) -> IndexState:
        if j == 0:
            return start
        return IndexState(ops.space, math.cos(j * phi) * psi0 + math.sin(j * phi) * e)

    return iterate


def _run_search(
    problem: SearchProblem,
    params: QSearchParams,
    rng: Optional[np.random.Generator],
    ledger: Optional[OracleLedger],
    on_round: Optional[Callable[[RoundRecord], None]],
    finite: bool,
) -> QSearchOutcome:
    if rng is None:
        rng = np.random.default_rng(params.rng_seed)
    if ledger is None:
        ledger = OracleLedger()
    start = ledger.copy()
    iterate = _plane(problem)
    sign_idx = problem.layout.comparison_sign_index
    n = problem.n_points
    u_limit = params.u_limit

    # Round 0 measures A|0> itself.
    l = m = j = u = q_apps = 0
    while True:
        # The ledger counts each round as prepared afresh: A, then j iterates
        # of two oracle calls each.
        ledger.qsearch_rounds += 1
        ledger.quantum_calls += 1 + 2 * j
        ledger.q_applications += j
        q_apps += j
        measured = measure(iterate(j), rng)
        desired = measured[sign_idx] == "1"
        if on_round is not None:
            on_round(RoundRecord(l, m, j, u, measured, desired))
        if desired:
            return QSearchOutcome(measured, l, u, q_apps, ledger.delta_since(start))
        if finite:
            if u >= u_limit:
                return QSearchOutcome(None, l, u, q_apps, ledger.delta_since(start))
        elif l >= params.max_total_rounds:
            raise SafetyCapReachedError(
                f"no desired state found in {l} rounds; with zero marked "
                "states the original loop would never terminate"
            )
        l += 1
        m = math.ceil(params.c**l)
        if m * m > n:
            u += 1
        if m + 1 > 1 << 63:  # rng.integers draws int64s
            raise (DomainError if finite else SafetyCapReachedError)(
                f"no desired state found; round {l} would draw j from [1, {m}], "
                f"past numpy's int64 range (c={params.c}, tau={params.tau})"
            )
        j = int(rng.integers(1, m + 1))


def qsearch(
    problem: SearchProblem,
    params: QSearchParams,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[OracleLedger] = None,
    on_round: Optional[Callable[[RoundRecord], None]] = None,
) -> QSearchOutcome:
    """Original search loop: exponentially growing M, uniform j in [1, M].

    Terminates only by finding a desired state; raises
    SafetyCapReachedError after ``params.max_total_rounds`` rounds, which is
    this package's stand-in for the loop's nontermination when no marked
    state exists.
    """
    return _run_search(problem, params, rng, ledger, on_round, finite=False)


def modified_qsearch(
    problem: SearchProblem,
    params: QSearchParams,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[OracleLedger] = None,
    on_round: Optional[Callable[[RoundRecord], None]] = None,
) -> QSearchOutcome:
    """Finite-termination search loop.

    Identical to :func:`qsearch` except that a counter u advances on every
    round whose M exceeds sqrt(N) (compared as M^2 > N in exact integers)
    and the loop gives up once u reaches ln(tau)/ln(3/4).  Each such round
    independently misses an existing marked state with probability at most
    3/4, so the overall miss probability is below tau.
    """
    return _run_search(problem, params, rng, ledger, on_round, finite=True)


def failure_round_bound(n_points: int, params: QSearchParams) -> int:
    """Upper bound on total while-loop rounds of the finite search."""
    return (
        math.ceil(math.log(math.sqrt(n_points)) / math.log(params.c))
        + math.ceil(params.u_limit)
        + 1
    )


def last_failing_round(n_points: int, params: QSearchParams) -> int:
    """The round at which a finite search over N points that finds nothing
    gives up.

    Runs the loop's own schedule, M = ceil(c^l) with u advancing while
    M^2 > N, and raises DomainError if a round before that one would draw j
    past numpy's int64 range, so that a tau no failing search can reach is
    refused before anything is evaluated.
    """
    l = u = 0
    while u < params.u_limit:
        l += 1
        m = math.ceil(params.c**l)
        if m * m > n_points:
            u += 1
        if m + 1 > 1 << 63:  # as in _run_search
            raise DomainError(
                f"tau={params.tau} is out of reach at N={n_points}: a search "
                f"that finds nothing would reach round {l} and draw j from "
                f"[1, {m}], past numpy's int64 range (c={params.c})"
            )
    return l


def analytic_success_probability(n: int, t: int, j: int) -> float:
    """Closed-form probability of measuring a desired state after j iterates
    of Q on the freshly prepared state: sin^2((2j+1) arcsin(sqrt(t/n)))."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= t <= n:
        raise DomainError(f"t must lie in [0, {n}], got {t}")
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    if t == 0:
        return 0.0
    theta = math.asin(math.sqrt(t / n))
    return math.sin((2 * j + 1) * theta) ** 2


def make_planted_problem(
    n_points: int,
    n_marked: int,
    marked_indices: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[SearchProblem, List[int]]:
    """Synthetic search problem with an exact number of improving points.

    The point register enumerates ``n_points`` distinct strings; marked
    points score one unit below the incumbent (0), the rest one unit above.
    Returns the problem and the sorted marked indices.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not 0 <= n_marked <= n_points:
        raise ValueError(f"n_marked must lie in [0, {n_points}]")
    d = max(2, math.ceil(math.log2(n_points)))
    layout = RegisterLayout(point_bits=d, value_bits=d, comparison_bits=d)
    points = [format(i, f"0{d}b") for i in range(n_points)]
    if marked_indices is None:
        if n_marked == 0:
            marked_indices = []
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            marked_indices = rng.choice(n_points, size=n_marked, replace=False)
    marked = sorted(int(i) for i in marked_indices)
    if len(marked) != n_marked or any(not 0 <= i < n_points for i in marked):
        raise ValueError("marked_indices inconsistent with n_marked/n_points")
    units = np.ones(n_points, dtype=np.int64)  # incumbent + 1
    units[marked] = (1 << d) - 1  # incumbent - 1
    return SearchProblem(points, "0" * d, units, layout), marked
