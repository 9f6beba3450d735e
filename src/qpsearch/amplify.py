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

Both searches run one loop over one schedule, built by ``_schedule`` with
the tau stop, the round cap and the int64 guard.  That loop is the only code
that counts a search's cost: round l prepares A|0> afresh and applies Q j
times, 1 + 2j oracle calls, and the ledger takes the whole search in one
update after its last round; the operators only transform states.  A search
that marks nothing and records no rounds simulates no state: no round can
succeed or read a slot, so a round's measurement is its one rng.random().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .ledger import OracleLedger
from .state import (
    IndexState,
    RegisterLayout,
    SearchProblem,
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
    """Constants of the one search schedule: growth rate c in (1, 2), miss
    tolerance tau, and the integer round cap of the original loop alone."""

    c: float = 1.5
    tau: float = 0.01
    max_total_rounds: int = 10_000

    def __post_init__(self):
        if not 1.0 < self.c < 2.0:
            raise ValueError(f"c must lie in (1, 2), got {self.c}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        cap = self.max_total_rounds
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)):
            raise ValueError(f"max_total_rounds must be an integer, got {cap!r}")
        if cap < 1:
            raise ValueError("max_total_rounds must be positive")

    @property
    def u_limit(self) -> float:
        return math.log(self.tau) / math.log(0.75)


@dataclass
class QSearchOutcome:
    """Result of one search invocation.

    ``result`` is the measured candidate slot on success and None on
    failure; the counters echo the loop variables at exit.  The search's
    oracle calls and Q applications are in the ledger it was given.
    """

    result: Optional[int]
    rounds_executed: int
    u_rounds: int

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


def is_desired(bits: str, layout: RegisterLayout) -> bool:
    """A full-width string is desired iff its comparison register decodes
    negative, i.e. the measured point strictly improves on the incumbent."""
    return bits[layout.comparison_sign_index] == "1"


def desired_probability(state: State) -> float:
    """Exact Born probability of measuring a desired string."""
    if isinstance(state, IndexState):
        amps = state.amplitudes[state.problem.marks < 0]
        return float(amps @ amps)
    amps = state.amplitudes
    return sum(abs(a) ** 2 for b, a in amps.items() if is_desired(b, state.layout))


def _register_maps(problem: SearchProblem) -> Tuple[Callable[[str], str], ...]:
    """A's load, oracle and modular add as maps of full-width strings, and
    the add's inverse: the SparseState reference's form of the problem."""
    pb, vb = problem.layout.point_bits, problem.layout.value_bits
    mask = (1 << vb) - 1
    neg_units = -int(problem.incumbent_value_bits, 2) & mask
    # zip stops at the N candidates, before a zero point the spread appends.
    table = dict(zip(problem.spread.support_strings(), problem.units.tolist()))

    def load(b: str) -> str:
        # XOR the comparison register with |-f_k|'s bit pattern.
        c = int(b[pb + vb :], 2) ^ neg_units
        return b[: pb + vb] + format(c, f"0{vb}b")

    def oracle_xor(b: str) -> str:
        # |x>|v>|c> -> |x>|v XOR f(x)>|c>: self-inverse lift of f.
        v = int(b[pb : pb + vb], 2) ^ table[b[:pb]]
        return b[:pb] + format(v, f"0{vb}b") + b[pb + vb :]

    def adder(sign: int) -> Callable[[str], str]:
        # |x>|v>|c> -> |x>|v>|(c + sign v) mod 2^d>: the simulated signed
        # adder for sign 1, its inverse for sign -1.
        def add(b: str) -> str:
            c = (int(b[pb + vb :], 2) + sign * int(b[pb : pb + vb], 2)) & mask
            return b[: pb + vb] + format(c, f"0{vb}b")

        return add

    return load, oracle_xor, adder(1), adder(-1)


class PreparationOperator:
    """The measurement-free preparation A and its exact inverse.

    Applied to |0>|0>|0>, A yields (1/sqrt(N)) sum_j |x_j>|f_j>|f_j - f_k>
    with the subtraction in d-bit two's complement.  Every application of A
    or its inverse uses the oracle once; the search loop counts those calls.
    On an IndexState, load, oracle and add only relabel the problem's slots;
    on a SparseState they act string by string, as maps built per call from
    the problem's points and units.  The spreading step is the problem's.
    """

    __slots__ = ("problem",)

    def __init__(self, problem: SearchProblem):
        self.problem = problem

    def apply(self, state: State) -> State:
        """Apply A."""
        if isinstance(state, IndexState):
            state = self.problem.spread(state)
        else:
            load, oracle_xor, add, _ = _register_maps(self.problem)
            state = apply_basis_map(state, load)
            state = self.problem.spread(state)
            state = apply_basis_map(state, oracle_xor)
            state = apply_basis_map(state, add)
        return state

    def apply_inverse(self, state: State) -> State:
        """Apply A^-1: the four sub-operators inverted, in reverse order."""
        if isinstance(state, IndexState):
            state = self.problem.spread(state)
        else:
            load, oracle_xor, _, add_inv = _register_maps(self.problem)
            state = apply_basis_map(state, add_inv)
            state = apply_basis_map(state, oracle_xor)
            state = self.problem.spread(state)
            state = apply_basis_map(state, load)
        return state

    def prepare_from_zero(self) -> SparseState:
        """A|0>|0>|0> on the reference simulator."""
        return self.apply(SparseState.zero(self.problem.layout))


def apply_S0(state: State) -> State:
    """Flip the sign of the all-zeros basis string, leave the rest alone.

    On an IndexState that string is the zero point's slot as read before A.
    """
    if isinstance(state, IndexState):
        amps = state.amplitudes.copy()
        amps[state.problem.zero] = -amps[state.problem.zero]
        return IndexState(state.problem, amps)
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
        return IndexState(state.problem, state.amplitudes * state.problem.marks)
    amps = state.amplitudes
    new = {b: (-a if is_desired(b, state.layout) else a) for b, a in amps.items()}
    return SparseState._raw(state.layout, new)


def apply_Q(state: State, ops: PreparationOperator) -> State:
    """One amplification iterate: S_chi, A^-1, S0, A, global phase -1.

    ``ops`` is the problem's preparation A.  Assumes the state lies in the
    subspace reachable from A|0> (not checked).  Uses the oracle twice, once
    inside A^-1 and once inside A; the search loop counts both.
    """
    state = apply_Schi(state)
    state = ops.apply_inverse(state)
    state = apply_S0(state)
    state = ops.apply(state)
    if isinstance(state, IndexState):
        return IndexState(state.problem, -state.amplitudes)
    return apply_phase(state, lambda b: True, -1.0)


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
    start = ops.apply(IndexState.zero(problem))
    psi0 = start.amplitudes
    psi0.flags.writeable = False
    psi1 = apply_Q(start, ops).amplitudes
    x = float(psi0 @ psi1)
    r = psi1 - x * psi0
    s = math.sqrt(float(r @ r))
    if s <= _NO_PLANE:
        flips = x < 0
        return lambda j: IndexState(problem, -psi0) if flips and j % 2 else start
    phi, e = math.atan2(s, x), r / s
    e.flags.writeable = False

    def iterate(j: int) -> IndexState:
        if j == 0:
            return start
        return IndexState(problem, math.cos(j * phi) * psi0 + math.sin(j * phi) * e)

    return iterate


def _run_search(
    problem: SearchProblem,
    params: QSearchParams,
    rng: Optional[np.random.Generator],
    ledger: Optional[OracleLedger],
    on_round: Optional[Callable[[RoundRecord], None]],
    finite: bool,
) -> QSearchOutcome:
    rounds, stop = _schedule(problem.n_points, params, finite)
    if rng is None:
        rng = np.random.default_rng(0)
    random, integers = rng.random, rng.integers
    # Without marks or round records no round can succeed or be read, so no
    # state is simulated; see the module docstring.
    iterate = None if on_round is None and not problem.n_marked else _plane(problem)
    result, applied = None, 0
    for l, (m, u) in enumerate(rounds):
        # Round 0 measures A|0>; round l measures j iterates, j from [1, M].
        j = int(integers(1, m + 1)) if l else 0
        applied += j
        if iterate is None:
            random()
            continue
        k = measure(iterate(j), rng)
        desired = problem.marks.item(k) < 0
        if on_round is not None:
            on_round(RoundRecord(l, m, j, u, problem.basis_string(k), desired))
        if desired:
            result = k
            break
    if ledger is not None:  # 1 + 2j oracle calls a round
        ledger.qsearch_rounds += l + 1
        ledger.quantum_calls += l + 1 + 2 * applied
        ledger.q_applications += applied
    if result is None and stop is not None:
        raise stop
    return QSearchOutcome(result, l, u)


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


MAX_SCHEDULE_ROUNDS = 100_000  # the longest failing search; see the README


def _first_round_above(c: float, k: int) -> int:
    """The first round l >= 1 with ceil(c**l) > k >= 1: estimated from
    logarithms, then fixed up with the schedule's own c**l."""
    l = max(1, math.floor(math.log(k) / math.log1p(c - 1.0)))
    while l > 1 and c ** (l - 1) > k:
        l -= 1
    while not c**l > k:
        l += 1
    return l


@lru_cache(maxsize=8)
def _rounds(n_points: int, c: float, end: int) -> Tuple[Tuple[int, int], ...]:
    """Rounds 0 to ``end`` of a schedule, each as (M, u); see _schedule."""
    rounds, u = [(0, 0)], 0
    for l in range(1, end + 1):
        m = math.ceil(c**l)
        u += m * m > n_points
        rounds.append((m, u))
    return tuple(rounds)


@lru_cache(maxsize=8)
def _ends(n_points: int, params: QSearchParams, finite: bool) -> Tuple[int, int]:
    """A schedule's last round before the int64 guard, and the guard's first
    round: _schedule's closed forms, kept per (N, c, tau, round cap, finite)."""
    c, end = params.c, params.max_total_rounds
    if finite:  # u counts from the first round with M > isqrt(N)
        end = _first_round_above(c, math.isqrt(n_points)) - 1 + math.ceil(params.u_limit)
    return end, _first_round_above(c, (1 << 63) - 1)  # M + 1 > 2^63: rng.integers draws int64s


def _schedule(
    n_points: int, params: QSearchParams, finite: bool
) -> Tuple[Tuple[Tuple[int, int], ...], Optional[Exception]]:
    """A search loop's rounds over N points, and what follows the last one.

    Each round is (M, u): round 0 is (0, 0), round l has M = ceil(c^l), and u
    counts the rounds so far with M > sqrt(N) (M^2 > N exactly).  The finite
    loop ends at the first round with u >= u_limit, the original loop at its
    round cap, and both before a j draw past numpy's int64 range.  The stop
    is None where the finite loop gives up, else the error to raise, made
    afresh on each call.  Raises DomainError, before any round runs, past
    MAX_SCHEDULE_ROUNDS rounds.
    """
    c = params.c
    end, far = _ends(n_points, params, finite)
    stop = None if finite else SafetyCapReachedError(
        f"no desired state found in {end} rounds; with zero marked "
        "states the original loop would never terminate"
    )
    if far <= end:
        end, stop = far - 1, (DomainError if finite else SafetyCapReachedError)(
            f"no desired state found; round {far} would draw j from "
            f"[1, {math.ceil(c**far)}], past numpy's int64 range (c={c}, tau={params.tau})"
        )
    if end > MAX_SCHEDULE_ROUNDS:
        raise DomainError(
            f"c={c} is too close to 1 at N={n_points}: a failing search would "
            f"run {end} rounds, past {MAX_SCHEDULE_ROUNDS} (tau={params.tau})"
        )
    return _rounds(n_points, c, end), stop


def last_failing_round(n_points: int, params: QSearchParams) -> int:
    """The round L at which a finite search over N points that finds nothing
    gives up.  Raises DomainError, before anything is evaluated, where its
    schedule does: past MAX_SCHEDULE_ROUNDS, or at a j draw past numpy's
    int64 range (a tau no failing search can reach)."""
    rounds, stop = _schedule(n_points, params, True)
    if stop is not None:
        raise DomainError(f"tau={params.tau} is out of reach at N={n_points}: {stop}")
    return len(rounds) - 1


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

    The point register enumerates ``n_points`` distinct one-unit rows; marked
    points score one unit below the incumbent (0), the rest one unit above.
    Returns the problem and the sorted marked indices.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not 0 <= n_marked <= n_points:
        raise ValueError(f"n_marked must lie in [0, {n_points}]")
    d = max(2, math.ceil(math.log2(n_points)))
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
    return SearchProblem(np.arange(n_points)[:, None], "0" * d, units), marked
