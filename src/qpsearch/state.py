"""Exact simulation of the three-register search state, in two forms.

``IndexState`` is what the search loop runs on.  Every state the loop can
reach lies in the span of N + 1 fixed basis strings of one search problem:
the N candidates, each with its value and comparison registers, and the
all-zeros string.  A ``SearchProblem`` is that index space, in the slot order
of its spreading reflection: it computes the candidates' comparisons
(f_j - f_k) mod 2^d, their marks and the measurement order once.  An
``IndexState`` holds one real float64 amplitude per slot of its problem, and
measuring it returns a slot, whose full-width string is formatted on request.

``SparseState`` is the reference simulator: a finite map from full-width
basis bitstrings to complex amplitudes, on which reversible basis maps,
phases and the preparation reflection act string by string.  It accepts any
basis string, so the tests drive it to check the index-space engine
amplitude by amplitude.  Its support stays bounded by the number of searched
points plus one, so memory is O(N) instead of 2**(total qubits).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping

import numpy as np

__all__ = [
    "RegisterLayout",
    "SparseState",
    "SearchProblem",
    "IndexState",
    "CollisionError",
    "EmptyTargetsError",
    "NormalizationError",
    "HouseholderPrepare",
    "apply_basis_map",
    "apply_phase",
    "measure",
    "sample_counts",
]

PRUNE_THRESHOLD = 1e-12
NORM_TOLERANCE = 1e-9
MEASURE_NORM_TOLERANCE = 1e-6


class CollisionError(ValueError):
    """Two support strings mapped to the same image: the map is not a
    reversible classical function on this support."""


class EmptyTargetsError(ValueError):
    """State preparation requires at least one target string."""


class NormalizationError(ValueError):
    """State norm deviates from 1 beyond the accepted tolerance."""


@dataclass(frozen=True)
class RegisterLayout:
    """Bit budget of the three registers, in order point, value, comparison.

    ``point_bits`` is n*d for n coordinates of d bits each; the value and
    comparison registers each hold one d-bit scalar.
    """

    point_bits: int
    value_bits: int

    def __post_init__(self):
        if self.point_bits <= 0 or self.value_bits <= 0:
            raise ValueError("register widths must be positive")
        if self.point_bits % self.value_bits != 0:
            raise ValueError(
                f"point register width {self.point_bits} is not a multiple of "
                f"the scalar width {self.value_bits}"
            )

    @property
    def total_bits(self) -> int:
        return self.point_bits + 2 * self.value_bits

    @property
    def dimension(self) -> int:
        return self.point_bits // self.value_bits

    @property
    def comparison_sign_index(self) -> int:
        # MSB of the comparison register within the full string.
        return self.point_bits + self.value_bits

    def point_part(self, bits: str) -> str:
        return bits[: self.point_bits]

    def value_part(self, bits: str) -> str:
        return bits[self.point_bits : self.point_bits + self.value_bits]

    def comparison_part(self, bits: str) -> str:
        return bits[self.point_bits + self.value_bits :]

    def pack(self, point: str, value: str, comparison: str) -> str:
        if (
            len(point) != self.point_bits
            or len(value) != self.value_bits
            or len(comparison) != self.value_bits
        ):
            raise ValueError("register contents do not match the layout widths")
        return point + value + comparison

    def zero_string(self) -> str:
        return "0" * self.total_bits


# Layouts are immutable: the search problems of a run share one per widths.
_shared_layout = lru_cache(maxsize=8)(RegisterLayout)


class SparseState:
    """Normalized sparse amplitude map over full-width basis strings."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes: Mapping[str, complex]):
        amps = _finalize(dict(amplitudes), layout.total_bits)
        self.layout = layout
        self.amplitudes = amps

    @classmethod
    def zero(cls, layout: RegisterLayout) -> "SparseState":
        return cls(layout, {layout.zero_string(): 1.0})

    @classmethod
    def _raw(cls, layout: RegisterLayout, amplitudes: Dict[str, complex]) -> "SparseState":
        # Internal fast path: amplitudes already pruned and norm-checked.
        state = object.__new__(cls)
        state.layout = layout
        state.amplitudes = amplitudes
        return state

    def amplitude(self, bits: str) -> complex:
        return self.amplitudes.get(bits, 0j)

    def support(self) -> Iterable[str]:
        return self.amplitudes.keys()

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"|{b}>: {a:.4g}" for b, a in sorted(self.amplitudes.items())[:4]
        )
        more = "" if len(self.amplitudes) <= 4 else f", ... ({len(self.amplitudes)})"
        return f"SparseState({entries}{more})"


class SearchProblem:
    """One search-step instance and the index space its states live on.

    ``point_units`` are the N candidates as rows of unsigned d-bit coordinate
    units, ``incumbent_value_bits`` the incumbent's encoded d-bit value f_k,
    and ``units`` the values f_j of the candidates that the quantum oracle
    lifts, as unsigned register units in problem order.

    The slots are those of ``spread``, A's reflection over the points: slot
    j < N is candidate j, and ``zero`` is the all-zeros point's.  A slot
    stands for two basis strings, one on each side of A: before it the point
    alone with zero value and comparison registers, after it
    ``x_j || f_j || (f_j - f_k) mod 2^d``.  A moves no amplitude off these
    slots, so the loop's operators act on them as O(N) vector operations.
    After A the zero point's slot holds no amplitude beyond rounding and is
    never measured.  ``n_marked`` is t, the number of marked candidates;
    ``marks``, S_chi as a sign vector over the slots, is built on first read.
    """

    __slots__ = ("point_units", "incumbent_value_bits", "units", "spread", "layout",
                 "comparisons", "_marks", "n_marked", "zero", "size", "order")

    def __init__(
        self, point_units: np.ndarray, incumbent_value_bits: str, units: np.ndarray
    ):
        vb = len(incumbent_value_bits)
        self.spread = spread = HouseholderPrepare(point_units, vb)
        self.layout = _shared_layout(spread.point_width, vb)
        if incumbent_value_bits.strip("01"):
            raise ValueError(f"incumbent value {incumbent_value_bits!r} is not binary")
        n = len(spread.rows)
        units = np.asarray(units)
        # Nonzero where a unit is negative or >= 2^d, as in HouseholderPrepare.
        if (units.dtype.kind not in "iu" or units.shape != (n,)
                or np.count_nonzero(units >> min(vb, 64))):
            raise ValueError(f"need one {vb}-bit unsigned value per point")
        self.point_units = spread.rows
        self.incumbent_value_bits = incumbent_value_bits
        self.units = units.astype(np.int64, copy=False)
        # The comparison register after A: (f_j - f_k) mod 2^d.
        self.comparisons = (self.units - int(incumbent_value_bits, 2)) & ((1 << vb) - 1)
        self.zero = spread.zero_slot
        self.size = max(n, self.zero + 1)
        self.n_marked = int(np.count_nonzero(self.comparisons >= 1 << (vb - 1)))
        self._marks = None
        # Measurement visits candidates in sorted string order; point parts
        # are distinct, so this is the order of the full-width strings.
        self.order = spread.order

    @property
    def marks(self) -> np.ndarray:
        """S_chi as a sign vector: -1 where the comparison register is negative."""
        if self._marks is None:
            self._marks = marks = np.ones(self.size)
            negative = self.comparisons >= 1 << (self.layout.value_bits - 1)
            marks[: len(negative)][negative] = -1.0
        return self._marks

    @property
    def n_points(self) -> int:
        return len(self.point_units)

    def basis_string(self, slot: int) -> str:
        """Full-width string of a candidate slot after the preparation A."""
        # The registers' units packed into one integer: one format call.
        x, bits = 0, self.layout.value_bits
        for u in self.point_units[slot].tolist():
            x = (x << bits) | u
        x = (((x << bits) | self.units.item(slot)) << bits) | self.comparisons.item(slot)
        return format(x, f"0{self.layout.total_bits}b")


class IndexState:
    """Real amplitudes over the slots of a SearchProblem, one float64 per slot."""

    __slots__ = ("problem", "amplitudes")

    def __init__(self, problem: SearchProblem, amplitudes: np.ndarray):
        self.problem = problem
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, problem: SearchProblem) -> "IndexState":
        amplitudes = np.zeros(problem.size)
        amplitudes[problem.zero] = 1.0
        return cls(problem, amplitudes)

    @property
    def layout(self) -> RegisterLayout:
        return self.problem.layout


def _finalize(amps: Dict[str, complex], width: int) -> Dict[str, complex]:
    """Check the basis strings, prune tiny amplitudes, restore the pruned
    mass, check normalization."""
    for b in amps:
        if len(b) != width or any(ch not in "01" for ch in b):
            raise ValueError(f"invalid basis string {b!r} for width {width}")
    norm_sq = 0.0
    pruned: list[str] = []
    thresh_sq = PRUNE_THRESHOLD * PRUNE_THRESHOLD
    for b, a in amps.items():
        if isinstance(a, complex):
            m = a.real * a.real + a.imag * a.imag
        else:
            m = a * a
        if m < thresh_sq:
            pruned.append(b)
        else:
            norm_sq += m
    if abs(norm_sq - 1.0) > NORM_TOLERANCE:
        raise NormalizationError(f"state norm^2 = {norm_sq}, expected 1")
    for b in pruned:
        del amps[b]
    if pruned and norm_sq > 0:
        # Give the pruned mass back, so a state built by the constructor has
        # norm 1 (the operators build theirs through _raw, not here).
        scale = 1.0 / math.sqrt(norm_sq)
        if scale != 1.0:
            for b in amps:
                amps[b] *= scale
    return amps


def apply_basis_map(
    state: SparseState, mapping: Callable[[str], str]
) -> SparseState:
    """Permute basis strings by a classical reversible map.

    ``mapping`` must be injective on the support actually touched; a
    collision means the classical function is not reversible and raises
    CollisionError.
    """
    amps = state.amplitudes
    new = {mapping(b): a for b, a in amps.items()}
    if len(new) != len(amps):
        _report_collision(amps, mapping)
    return SparseState._raw(state.layout, new)


def _report_collision(amps: Dict[str, complex], mapping) -> None:
    seen: Dict[str, str] = {}
    for b in amps:
        img = mapping(b)
        if img in seen:
            raise CollisionError(
                f"basis strings {seen[img]!r} and {b!r} both map to {img!r}"
            )
        seen[img] = b
    raise CollisionError("basis map collided on the support")


def apply_phase(
    state: SparseState, marked: Callable[[str], bool], phase: complex
) -> SparseState:
    """Multiply the amplitudes of marked basis strings by a unit phase."""
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError(f"phase must have unit magnitude, got |{phase}|")
    new = {b: (a * phase if marked(b) else a) for b, a in state.amplitudes.items()}
    return SparseState._raw(state.layout, new)


def _packed(columns: np.ndarray, bits: int) -> np.ndarray:
    """The rows' ``bits``-bit uint64 units, given as ``columns``, in one
    word per row, the first column in the highest bits."""
    word = columns[0]
    for column in columns[1:]:
        word = word << bits | column
    return word


class HouseholderPrepare:
    """Self-inverse unitary sending |0...0> on the point register to the
    uniform superposition of the target points.

    The targets are ``rows`` of unsigned ``unit_bits``-bit units, whose bit
    patterns in column order are the point strings.  Realized as the
    reflection I - 2|w><w| with |w> proportional to |psi_targets> - |0...0>;
    acts as the identity on the value and comparison registers.  Its slots
    are the targets, then the all-zeros point unless it is one of them;
    ``zero_slot`` is that point's slot, and ``order`` lists the targets in
    string order.  ``vector`` holds |w>'s coefficients in slot order, so on
    an IndexState over the same slots the reflection is ``v - 2 (w . v) w``;
    it and ``is_identity`` are computed on first read.
    """

    __slots__ = ("rows", "point_width", "order", "zero_slot", "_vector", "_strings")

    def __init__(self, rows: np.ndarray, unit_bits: int):
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.dtype.kind not in "iu" or not rows.shape[1]:
            raise ValueError(f"need a 2-D array of integer units, got shape {rows.shape}")
        if not len(rows):
            raise EmptyTargetsError("need at least one target point")
        # Nonzero where a unit is negative or >= 2^b: a shift past the width
        # fills with the sign bit, and a count of 64 fits even an int8.
        if unit_bits < 1 or np.count_nonzero(rows >> min(unit_bits, 64)):
            raise ValueError(f"target units must lie in [0, 2^{unit_bits})")
        self.rows = rows = rows.astype(np.int64, copy=False)
        self.point_width = rows.shape[1] * unit_bits
        self._vector = None
        self._strings = None  # the slot strings, once a SparseState needs them
        # Whole units packed into uint64 words, column 0 in the highest bits
        # of the first word, compare as the point strings do; the order of
        # the strings is then a lexsort of the words, word 0 first.
        per = max(1, min(64 // unit_bits, rows.shape[1]))
        units = rows.view(np.uint64).T
        if per == len(units):
            # One word, as every point of up to 64 bits packs: it sorts by
            # argsort, since on distinct keys any sort gives lexsort's order
            # and equal words only raise below.
            word = _packed(units, unit_bits)
            self.order = order = word.argsort()
            ranked = word[order]
            same = ranked[1:] == ranked[:-1]
            first = ranked[0]
        else:
            words = [_packed(units[start : start + per], unit_bits)
                     for start in range(0, len(units), per)]
            self.order = order = np.lexsort(words[::-1])
            ranked = [word[order] for word in words]
            same = ranked[0][1:] == ranked[0][:-1]
            for word in ranked[1:]:
                same &= word[1:] == word[:-1]
            first = any(word[0] for word in ranked)
        if np.count_nonzero(same):
            raise ValueError(f"duplicate target point {rows[order[same.argmax()]].tolist()}")
        # The all-zeros point sorts first wherever it is a target.
        self.zero_slot = len(rows) if first else int(order[0])

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            n, k = len(self.rows), self.zero_slot
            w = np.zeros(max(n, k + 1))
            w[:n] = 1.0 / math.sqrt(n)
            w[k] -= 1.0
            # Summed in order, as adding up the coefficients one by one would.
            norm_sq = float((w * w).cumsum()[-1])
            # psi_targets == |0...0> leaves no |w>: the reflection degenerates
            # to identity.  Only the zero point's coefficient can vanish, and
            # only when it is the sole target.
            self._vector = np.array([]) if norm_sq < 1e-30 else w * (1.0 / math.sqrt(norm_sq))
        return self._vector

    @property
    def is_identity(self) -> bool:
        return not len(self.vector)

    def support_strings(self) -> List[str]:
        """The slots' point strings, in order: one shared list, built on first use."""
        if self._strings is None:
            unit, width = f"0{self.point_width // self.rows.shape[1]}b", self.point_width
            units = self.rows.view(np.uint64).tolist()  # 64-bit units wrap in int64
            points = ["".join(format(u, unit) for u in row) for row in units]
            self._strings = points + ["0" * width] * (self.zero_slot == len(points))
        return self._strings

    def __call__(self, state: SparseState | IndexState) -> SparseState | IndexState:
        if state.layout.point_bits != self.point_width:
            raise ValueError(
                f"operator built for {self.point_width}-bit point register, "
                f"state has {state.layout.point_bits}"
            )
        w = self.vector
        if not len(w):  # the identity
            return state
        if isinstance(state, IndexState):
            v = state.amplitudes
            v = v - (2.0 * v.dot(w)) * w
            norm_sq = v.dot(v)
            if abs(norm_sq - 1.0) > NORM_TOLERANCE:
                raise NormalizationError(f"state norm^2 = {norm_sq}, expected 1")
            return IndexState(state.problem, v)
        amps = state.amplitudes
        pw = self.point_width
        points = self.support_strings()
        support = set(points)
        # Entries whose point part overlaps |w>, grouped by register suffix
        # in first-seen order; the rest pass through untouched.
        suffixes: Dict[str, None] = {}
        new = {}
        for b, a in amps.items():
            if b[:pw] in support:
                suffixes[b[pw:]] = None
            else:
                new[b] = a
        norm_sq = sum(abs(a) ** 2 for a in new.values())
        thresh = PRUNE_THRESHOLD * PRUNE_THRESHOLD
        for suffix in suffixes:
            keys = [x + suffix for x in points]
            vec = np.array([amps.get(k, 0j) for k in keys])
            vec -= (2.0 * (w @ vec)) * w
            mags = vec.real**2 + vec.imag**2
            norm_sq += float(mags.sum())
            for key, a, m in zip(keys, vec.tolist(), mags.tolist()):
                if m >= thresh:
                    new[key] = a
        if abs(norm_sq - 1.0) > NORM_TOLERANCE:
            raise NormalizationError(f"state norm^2 = {norm_sq}, expected 1")
        return SparseState._raw(state.layout, new)


def _born(state: SparseState | IndexState):
    """The Born rule's outcomes in sorted string order, their probabilities
    and one running sum of those, whose last entry is the checked norm^2.

    A SparseState's outcomes are its basis strings; an IndexState's are its
    candidate slots as prepared by A, where a probability below the pruning
    threshold, which a SparseState drops, counts as 0."""
    if isinstance(state, IndexState):
        outcomes = state.problem.order
        probs = state.amplitudes[outcomes] ** 2
        probs[probs < PRUNE_THRESHOLD * PRUNE_THRESHOLD] = 0.0
    else:
        outcomes = sorted(state.amplitudes)
        probs = np.array([abs(state.amplitudes[b]) ** 2 for b in outcomes])
    cumulative = probs.cumsum()
    norm_sq = float(cumulative[-1]) if len(cumulative) else 0.0
    if abs(norm_sq - 1.0) > MEASURE_NORM_TOLERANCE:
        raise NormalizationError(f"cannot measure: norm^2 = {norm_sq}")
    return outcomes, probs, cumulative


def measure(state: SparseState | IndexState, rng: np.random.Generator) -> str | int:
    """Born-rule measurement in the computational basis: a SparseState's
    basis string, or an IndexState's candidate slot.

    The draw is fully determined by ``rng``: one ``rng.random()`` scaled by
    the norm, located among the outcomes' running sum in sorted string order,
    so results are reproducible regardless of construction history.
    """
    outcomes, _, cumulative = _born(state)
    # For r < 1 and the checked norm^2 c (about 1, so normal), fl(r * c) < c:
    # the first running sum above it is that of an outcome of positive
    # probability, the last such outcome at most.
    k = int(cumulative.searchsorted(rng.random() * cumulative[-1], side="right"))
    return outcomes[k] if isinstance(state, SparseState) else int(outcomes[k])


def sample_counts(
    state: SparseState, draws: int, rng: np.random.Generator
) -> Dict[str, int]:
    """Batched Born sampling: measurement outcome counts over ``draws``."""
    outcomes, probs, cumulative = _born(state)
    counts = rng.multinomial(draws, probs / cumulative[-1])
    return {b: int(c) for b, c in zip(outcomes, counts) if c}
