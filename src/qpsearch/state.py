"""Exact simulation of the three-register search state, in two forms.

``IndexState`` is what the search loop runs on.  Every state the loop can
reach lies in the span of N + 1 fixed basis strings of one search problem:
the N candidates, each with its value and comparison registers, and the
all-zeros string.  An ``IndexState`` holds one real float64 amplitude per
slot of that ``IndexSpace`` and names the full-width string of a slot only
when a measurement returns it.

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
from typing import Callable, Dict, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RegisterLayout",
    "SparseState",
    "IndexSpace",
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
    comparison_bits: int

    def __post_init__(self):
        if self.point_bits <= 0 or self.value_bits <= 0 or self.comparison_bits <= 0:
            raise ValueError("register widths must be positive")
        if self.comparison_bits != self.value_bits:
            raise ValueError(
                "comparison register must match the value register width "
                f"({self.comparison_bits} != {self.value_bits})"
            )
        if self.point_bits % self.value_bits != 0:
            raise ValueError(
                f"point register width {self.point_bits} is not a multiple of "
                f"the scalar width {self.value_bits}"
            )

    @property
    def total_bits(self) -> int:
        return self.point_bits + self.value_bits + self.comparison_bits

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
            or len(comparison) != self.comparison_bits
        ):
            raise ValueError("register contents do not match the layout widths")
        return point + value + comparison

    def zero_string(self) -> str:
        return "0" * self.total_bits


class SparseState:
    """Normalized sparse amplitude map over full-width basis strings."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes: Mapping[str, complex]):
        amps = _finalize(dict(amplitudes), layout.total_bits, validate_keys=True)
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


class IndexSpace:
    """The slots of one search problem's state vector.

    Slot j < N is candidate j, in problem order; one more slot follows for
    the all-zeros point string unless that string is itself a candidate.
    ``zero`` is the slot of the all-zeros point.  A slot stands for two basis
    strings, one on each side of the preparation A: before it the point alone
    with zero value and comparison registers, after it
    ``x_j || f_j || (f_j - f_k) mod 2^d``.  A moves no amplitude off these
    slots, so the loop's operators act on them as O(N) vector operations.
    After A the zero point's slot holds no amplitude beyond rounding and is
    never measured.
    """

    __slots__ = (
        "layout",
        "points",
        "values",
        "comparisons",
        "zero",
        "size",
        "order",
        "marks",
    )

    def __init__(
        self,
        layout: RegisterLayout,
        points: Sequence[str],
        values: np.ndarray,
        comparisons: np.ndarray,
    ):
        n = len(points)
        zero = "0" * layout.point_bits
        self.layout = layout
        self.points = list(points)
        self.values = np.asarray(values, dtype=np.int64)  # f_j in register units
        self.comparisons = np.asarray(comparisons, dtype=np.int64)  # (f_j - f_k) mod 2^d
        self.zero = self.points.index(zero) if zero in self.points else n
        self.size = max(n, self.zero + 1)
        # Measurement visits candidates in sorted string order; point parts
        # are distinct, so this is the order of the full-width strings.
        self.order = np.array(sorted(range(n), key=self.points.__getitem__), dtype=np.intp)
        # S_chi as a sign vector: -1 where the comparison register is negative.
        sign_bit = 1 << (layout.comparison_bits - 1)
        self.marks = np.ones(self.size)
        self.marks[:n][(self.comparisons & sign_bit) != 0] = -1.0

    def basis_string(self, slot: int) -> str:
        """Full-width string of a candidate slot after the preparation A."""
        bits = self.layout.value_bits
        return (
            self.points[slot]
            + format(int(self.values[slot]), f"0{bits}b")
            + format(int(self.comparisons[slot]), f"0{bits}b")
        )


class IndexState:
    """Real amplitudes over an IndexSpace, one float64 per slot."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: IndexSpace, amplitudes: np.ndarray):
        self.space = space
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, space: IndexSpace) -> "IndexState":
        amplitudes = np.zeros(space.size)
        amplitudes[space.zero] = 1.0
        return cls(space, amplitudes)

    @property
    def layout(self) -> RegisterLayout:
        return self.space.layout


def _finalize(
    amps: Dict[str, complex], width: int, validate_keys: bool = False
) -> Dict[str, complex]:
    """Prune tiny amplitudes, restore the pruned mass, check normalization."""
    if validate_keys:
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
        # Renormalization guard: give the pruned mass back so long chains of
        # operations do not drift.
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


class HouseholderPrepare:
    """Self-inverse unitary sending |0...0> on the point register to the
    uniform superposition of the target strings.

    Realized as the reflection I - 2|w><w| with |w> proportional to
    |psi_targets> - |0...0>; acts as the identity on the value and
    comparison registers.  ``points`` lists the support of |w> in index
    order (the targets, then the all-zeros string unless it is one of them)
    and ``vector`` holds its coefficients in that order, so on an IndexState
    built over the same targets the reflection is ``v - 2 (w . v) w``.
    """

    __slots__ = ("point_width", "points", "vector", "is_identity", "_w")

    def __init__(self, targets: Iterable[str]):
        targets = list(targets)
        if not targets:
            raise EmptyTargetsError("need at least one target string")
        width = len(targets[0])
        distinct = set(targets)
        if (
            len(distinct) != len(targets)
            or set(map(len, targets)) != {width}
            # Deleting the 0s and 1s leaves a byte iff some target has another
            # character.
            or "".join(targets).encode().translate(None, b"01")
        ):
            _reject_targets(targets, width)
        self.point_width = width
        zero = "0" * width
        coeff = 1.0 / math.sqrt(len(targets))
        if zero in distinct:
            points = targets
            w = np.full(len(points), coeff)
            w[points.index(zero)] -= 1.0
        else:
            points = targets + [zero]
            w = np.full(len(points), coeff)
            w[-1] = -1.0
        # Summed in order, as adding up the coefficients one by one would.
        norm_sq = float((w * w).cumsum()[-1])
        self._w = None
        if norm_sq < 1e-30:
            # psi_targets == |0...0>: the reflection degenerates to identity.
            self.is_identity = True
            self.points = []
            self.vector = np.array([])
        else:
            # Only the zero point's coefficient can vanish, and only when it
            # is the sole target, which is the identity case above.
            self.is_identity = False
            self.points = points
            self.vector = w * (1.0 / math.sqrt(norm_sq))

    @property
    def w(self) -> Dict[str, float]:
        """The coefficients of |w> by point string, built on first use."""
        if self._w is None:
            self._w = dict(zip(self.points, self.vector.tolist()))
        return self._w

    def __call__(self, state: SparseState | IndexState) -> SparseState | IndexState:
        if state.layout.point_bits != self.point_width:
            raise ValueError(
                f"operator built for {self.point_width}-bit point register, "
                f"state has {state.layout.point_bits}"
            )
        if self.is_identity:
            return state
        w = self.vector
        if isinstance(state, IndexState):
            v = state.amplitudes
            v = v - (2.0 * v.dot(w)) * w
            norm_sq = v.dot(v)
            if abs(norm_sq - 1.0) > NORM_TOLERANCE:
                raise NormalizationError(f"state norm^2 = {norm_sq}, expected 1")
            return IndexState(state.space, v)
        amps = state.amplitudes
        pw = self.point_width
        support = self.w
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
            keys = [x + suffix for x in self.points]
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


def _reject_targets(targets: Sequence[str], width: int) -> None:
    # Raise for the first target, in order, that is malformed or repeated.
    seen = set()
    for t in targets:
        if len(t) != width or t.strip("01"):
            raise ValueError(f"invalid target string {t!r}")
        if t in seen:
            raise ValueError(f"duplicate target string {t!r}")
        seen.add(t)


def measure(state: SparseState | IndexState, rng: np.random.Generator) -> str:
    """Born-rule measurement in the computational basis.

    The draw is fully determined by ``rng``: one ``rng.random()`` scaled by
    the norm, then support strings accumulated in sorted order, so results
    are reproducible regardless of construction history.  On an IndexState
    the candidates are read as prepared by A; amplitudes below the pruning
    threshold, which a SparseState drops, are skipped, and only the measured
    candidate's full-width string is built.
    """
    if isinstance(state, IndexState):
        space = state.space
        n = len(space.points)
        probs = state.amplitudes[:n] ** 2
        probs[probs < PRUNE_THRESHOLD * PRUNE_THRESHOLD] = 0.0
        # Sequential sums (cumsum), in slot order as the sparse map adds them.
        norm_sq = float(probs.cumsum()[-1])
        if abs(norm_sq - 1.0) > MEASURE_NORM_TOLERANCE:
            raise NormalizationError(f"cannot measure: norm^2 = {norm_sq}")
        r = rng.random() * norm_sq
        sorted_probs = probs[space.order]
        k = int(sorted_probs.cumsum().searchsorted(r, side="right"))
        if k == n:  # r landed on the floating-point boundary
            k = int(sorted_probs.nonzero()[0][-1])
        return space.basis_string(int(space.order[k]))
    norm_sq = sum(abs(a) ** 2 for a in state.amplitudes.values())
    if abs(norm_sq - 1.0) > MEASURE_NORM_TOLERANCE:
        raise NormalizationError(f"cannot measure: norm^2 = {norm_sq}")
    r = rng.random() * norm_sq
    acc = 0.0
    last = None
    for b in sorted(state.amplitudes):
        acc += abs(state.amplitudes[b]) ** 2
        last = b
        if r < acc:
            return b
    return last  # guard against r landing on the floating-point boundary


def sample_counts(
    state: SparseState, draws: int, rng: np.random.Generator
) -> Dict[str, int]:
    """Batched Born sampling: measurement outcome counts over ``draws``."""
    norm_sq = sum(abs(a) ** 2 for a in state.amplitudes.values())
    if abs(norm_sq - 1.0) > MEASURE_NORM_TOLERANCE:
        raise NormalizationError(f"cannot measure: norm^2 = {norm_sq}")
    keys = sorted(state.amplitudes)
    probs = np.array([abs(state.amplitudes[b]) ** 2 for b in keys]) / norm_sq
    counts = rng.multinomial(draws, probs)
    return {b: int(c) for b, c in zip(keys, counts) if c}
