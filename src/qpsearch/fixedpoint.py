"""Fixed-point two's-complement encoding of scalars and points.

Every quantum register in this package stores numbers as ``d``-bit
two's-complement strings with ``q`` fractional bits.  Bitstrings are plain
Python strings of ``'0'``/``'1'``, most significant bit first, which is also
how they appear in traces and test fixtures.

One rounding rule maps a real value to register units: scale by 2**q, round
to the nearest integer with ties away from zero, clamp to the range.  Points
must lie on the grid and in range (``encode_point_exact``); the saturating
encoders refuse NaN and infinities.  Only the quantum search step's value
register saturates those, NaN and +inf at the top of the range and -inf at
the bottom, by the rule's array pass on the raw objective values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "FixedPointFormat",
    "FixedPointOverflowError",
    "WidthMismatchError",
    "EncodingError",
    "encode_scalar",
    "encode_scalar_saturating",
    "encode_units_saturating",
    "decode_scalar",
    "encode_point",
    "decode_point",
    "negate_bits",
    "sign_bit",
    "is_exactly_representable",
    "encode_point_exact",
]


class FixedPointOverflowError(OverflowError):
    """Value does not fit in the format's representable range."""

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class WidthMismatchError(ValueError):
    """Bitstring width does not match the format or layout."""


class EncodingError(ValueError):
    """Value is not exactly representable on the fixed-point grid."""


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement format: ``total_bits`` per scalar, ``frac_bits`` after
    the binary point.  ``frac_bits = 0`` recovers plain signed integers."""

    total_bits: int
    frac_bits: int = 0

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in [2, 32], got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in [0, total_bits), got {self.frac_bits}"
            )
        # The range and grid, read on every encode: plain attributes set once,
        # not fields, so equality, hashing and repr see the two widths alone.
        top = 2 ** (self.total_bits - 1)
        for name, value in (
            ("resolution", math.ldexp(1.0, -self.frac_bits)),
            ("min_value", math.ldexp(-1.0, self.total_bits - 1 - self.frac_bits)),
            ("max_value", math.ldexp(top - 1, -self.frac_bits)),
            ("min_units", -top),
            ("max_units", top - 1),
        ):
            object.__setattr__(self, name, value)


def _check_bits(bits: str) -> str:
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return bits


def _units_to_bits(units: int, width: int) -> str:
    return format(units & ((1 << width) - 1), f"0{width}b")


def _rounded_units(
    values: np.ndarray, fmt: FixedPointFormat
) -> Tuple[np.ndarray, np.ndarray]:
    """The rounding rule on a float64 array: the units rounded from each
    value, then those units clamped to the format's range.

    NaN and +inf land on the top of the range and -inf on the bottom: the
    first clip is fmin/fmax, which return the bound where a value is NaN.
    """
    # Values more than one unit past the range saturate whatever their size;
    # clipping them first keeps the scaling finite.
    x = np.fmax(np.fmin(values, fmt.max_value + 1.0), fmt.min_value - 1.0)
    scaled = x * (1 << fmt.frac_bits)
    # Ties go away from zero.  For s < 0, s - 0.5 is exactly -(|s| + 0.5), so
    # this is the scalar rule's copysign(floor(|s| + 0.5), s), -0.0 included.
    rounded = np.trunc(scaled + np.copysign(0.5, scaled))
    return rounded, np.maximum(np.minimum(rounded, fmt.max_units), fmt.min_units)


def encode_units_saturating(
    values: Sequence[float], fmt: FixedPointFormat
) -> Tuple[np.ndarray, np.ndarray]:
    """Signed register units of real values, clamped to the format's range.

    This is the package's one rounding rule: scale by 2**frac_bits, round to
    the nearest integer with ties away from zero, then clamp.  Returns the
    int64 units and a mask of the values that were clamped.  Finite values
    of any magnitude saturate; an infinity raises OverflowError and NaN
    ValueError, as converting them to an integer does.  The scalar encoders
    apply the same rule to one Python float.  The quantum search step's
    value register saturates non-finite values instead: it applies the
    rule's array pass (``_rounded_units``) to the raw objective values, NaN
    and +inf at the top of the range and -inf at the bottom.
    """
    x = np.asarray(values, dtype=float)
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < finite.size:
        v = float(x[~finite][0])
        error = ValueError if math.isnan(v) else OverflowError
        raise error(f"cannot encode {v} in {fmt.total_bits}-bit format")
    rounded, clamped = _rounded_units(x, fmt)
    return clamped.astype(np.int64), clamped != rounded


def _scalar_units_saturating(value: float, fmt: FixedPointFormat) -> Tuple[int, bool]:
    """encode_units_saturating's rule for one value, on a Python float."""
    v = float(value)
    if not math.isfinite(v):
        error = ValueError if math.isnan(v) else OverflowError
        raise error(f"cannot encode {v} in {fmt.total_bits}-bit format")
    s = max(min(v, fmt.max_value + 1.0), fmt.min_value - 1.0) * (1 << fmt.frac_bits)
    rounded = math.copysign(math.floor(abs(s) + 0.5), s)
    clamped = max(min(rounded, fmt.max_units), fmt.min_units)
    return int(clamped), clamped != rounded


def encode_scalar(value: float, fmt: FixedPointFormat) -> str:
    """Encode a real scalar as a two's-complement bitstring.

    The value is scaled by 2**frac_bits and rounded to the nearest grid
    point, ties away from zero.  Raises FixedPointOverflowError when the
    rounded value is outside the representable range.
    """
    units, saturated = _scalar_units_saturating(value, fmt)
    if saturated:
        raise FixedPointOverflowError(
            f"{value} does not fit in {fmt.total_bits}-bit format "
            f"(range [{fmt.min_value}, {fmt.max_value}])"
        )
    return _units_to_bits(units, fmt.total_bits)


def encode_scalar_saturating(value: float, fmt: FixedPointFormat) -> Tuple[str, bool]:
    """Encode with clamping to the representable range.

    Returns ``(bits, saturated)`` where ``saturated`` flags that clamping
    occurred.  Intended for objective values whose range is not known up
    front; points are always encoded strictly.
    """
    units, saturated = _scalar_units_saturating(value, fmt)
    return _units_to_bits(units, fmt.total_bits), saturated


def decode_scalar(bits: str, fmt: FixedPointFormat) -> float:
    """Exact inverse of :func:`encode_scalar` on the representable grid."""
    _check_bits(bits)
    if len(bits) != fmt.total_bits:
        raise WidthMismatchError(
            f"expected {fmt.total_bits} bits, got {len(bits)} ({bits!r})"
        )
    units = int(bits, 2)
    if units >= 1 << (fmt.total_bits - 1):
        units -= 1 << fmt.total_bits
    return math.ldexp(units, -fmt.frac_bits)


def negate_bits(bits: str) -> str:
    """Two's-complement negation: flip all bits, add 1, modulo 2**width.

    The most negative value maps to itself (wraparound).
    """
    _check_bits(bits)
    width = len(bits)
    return _units_to_bits(-int(bits, 2), width)


def encode_point(x: Sequence[float], fmt: FixedPointFormat) -> str:
    """Concatenated encoding of a point, coordinate by coordinate."""
    parts = []
    for i, v in enumerate(x):
        try:
            parts.append(encode_scalar(float(v), fmt))
        except FixedPointOverflowError as exc:
            raise FixedPointOverflowError(
                f"coordinate {i} of {list(x)}: {exc}", coordinate=i
            ) from None
    return "".join(parts)


def decode_point(bits: str, fmt: FixedPointFormat) -> np.ndarray:
    """Split a concatenated point encoding back into a coordinate vector."""
    _check_bits(bits)
    d = fmt.total_bits
    if len(bits) % d != 0:
        raise WidthMismatchError(f"width {len(bits)} is not a multiple of {d}")
    return np.array(
        [decode_scalar(bits[i : i + d], fmt) for i in range(0, len(bits), d)]
    )


def sign_bit(bits: str) -> int:
    """Most significant bit; 1 iff the encoded value is negative."""
    _check_bits(bits)
    return int(bits[0])


def is_exactly_representable(value: float, fmt: FixedPointFormat) -> bool:
    """True iff ``value`` is on the grid and in range: encode_point_exact's check."""
    try:
        encode_point_exact([value], fmt)
    except (EncodingError, FixedPointOverflowError):
        return False
    return True


def encode_point_exact(x: Sequence[float], fmt: FixedPointFormat) -> str:
    """Encode a point that must already lie on the grid.

    Raises EncodingError for off-grid coordinates (a mesh/format mismatch)
    and NaN, and FixedPointOverflowError for in-grid values outside the
    range and for infinities.
    """
    scale, lo, hi = 1 << fmt.frac_bits, fmt.min_units, fmt.max_units
    d = fmt.total_bits
    mask = (1 << d) - 1
    packed = width = 0
    # An ndarray walked element by element yields numpy scalars, whose
    # arithmetic costs several times a float's.
    for i, v in enumerate(x.tolist() if isinstance(x, np.ndarray) else x):
        v = float(v)
        scaled = v * scale
        if math.isnan(scaled) or (
            not math.isinf(scaled) and scaled != math.floor(scaled)
        ):
            raise EncodingError(
                f"coordinate {i} = {v} is not on the 2^-{fmt.frac_bits} grid"
            )
        if not lo <= scaled <= hi:
            raise FixedPointOverflowError(
                f"coordinate {i} = {v} outside representable range "
                f"[{fmt.min_value}, {fmt.max_value}]",
                coordinate=i,
            )
        # The units in one integer, coordinate 0 in the highest bits, so
        # that one format call writes them all as _units_to_bits writes one.
        packed = packed << d | (int(scaled) & mask)
        width += d
    return format(packed, f"0{width}b") if width else ""
