"""Fixed-point two's-complement encoding of scalars and points.

Every quantum register in this package stores numbers as ``d``-bit
two's-complement strings with ``q`` fractional bits.  Bitstrings are plain
Python strings of ``'0'``/``'1'``, most significant bit first, which is also
how they appear in traces and test fixtures.
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

    @property
    def resolution(self) -> float:
        return math.ldexp(1.0, -self.frac_bits)

    @property
    def min_value(self) -> float:
        return math.ldexp(-1.0, self.total_bits - 1 - self.frac_bits)

    @property
    def max_value(self) -> float:
        return math.ldexp(2 ** (self.total_bits - 1) - 1, -self.frac_bits)

    @property
    def min_units(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def max_units(self) -> int:
        return 2 ** (self.total_bits - 1) - 1


def _check_bits(bits: str) -> str:
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return bits


def _units_to_bits(units: int, width: int) -> str:
    return format(units & ((1 << width) - 1), f"0{width}b")


def encode_units_saturating(
    values: Sequence[float], fmt: FixedPointFormat
) -> Tuple[np.ndarray, np.ndarray]:
    """Signed register units of real values, clamped to the format's range.

    This is the package's one rounding rule: scale by 2**frac_bits, round to
    the nearest integer with ties away from zero, then clamp.  Returns the
    int64 units and a mask of the values that were clamped.  Finite values
    of any magnitude saturate; an infinity raises OverflowError and NaN
    ValueError, as converting them to an integer does.
    """
    x = np.asarray(values, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        v = float(x[~finite][0])
        error = ValueError if math.isnan(v) else OverflowError
        raise error(f"cannot encode {v} in {fmt.total_bits}-bit format")
    # Values more than one unit past the range saturate whatever their size;
    # clipping them first keeps the scaling finite.
    x = np.clip(x, fmt.min_value - 1.0, fmt.max_value + 1.0)
    scaled = x * (1 << fmt.frac_bits)
    rounded = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    clamped = np.clip(rounded, fmt.min_units, fmt.max_units)
    return clamped.astype(np.int64), clamped != rounded


def encode_scalar(value: float, fmt: FixedPointFormat) -> str:
    """Encode a real scalar as a two's-complement bitstring.

    The value is scaled by 2**frac_bits and rounded to the nearest grid
    point, ties away from zero.  Raises FixedPointOverflowError when the
    rounded value is outside the representable range.
    """
    units, saturated = encode_units_saturating([value], fmt)
    if saturated[0]:
        raise FixedPointOverflowError(
            f"{value} does not fit in {fmt.total_bits}-bit format "
            f"(range [{fmt.min_value}, {fmt.max_value}])"
        )
    return _units_to_bits(int(units[0]), fmt.total_bits)


def encode_scalar_saturating(value: float, fmt: FixedPointFormat) -> Tuple[str, bool]:
    """Encode with clamping to the representable range.

    Returns ``(bits, saturated)`` where ``saturated`` flags that clamping
    occurred.  Intended for objective values whose range is not known up
    front; points are always encoded strictly.
    """
    units, saturated = encode_units_saturating([value], fmt)
    return _units_to_bits(int(units[0]), fmt.total_bits), bool(saturated[0])


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
    """True iff ``value`` lies exactly on the format's grid and in range."""
    scaled = value * (1 << fmt.frac_bits)
    if scaled != math.floor(scaled):
        return False
    return fmt.min_units <= int(scaled) <= fmt.max_units


def encode_point_exact(x: Sequence[float], fmt: FixedPointFormat) -> str:
    """Encode a point that must already lie on the grid.

    Raises EncodingError for off-grid coordinates (a mesh/format mismatch)
    and NaN, and FixedPointOverflowError for in-grid values outside the
    range and for infinities.
    """
    parts = []
    for i, v in enumerate(x):
        v = float(v)
        scaled = v * (1 << fmt.frac_bits)
        if math.isnan(scaled) or (
            not math.isinf(scaled) and scaled != math.floor(scaled)
        ):
            raise EncodingError(
                f"coordinate {i} = {v} is not on the 2^-{fmt.frac_bits} grid"
            )
        if not fmt.min_units <= scaled <= fmt.max_units:
            raise FixedPointOverflowError(
                f"coordinate {i} = {v} outside representable range "
                f"[{fmt.min_value}, {fmt.max_value}]",
                coordinate=i,
            )
        parts.append(_units_to_bits(int(scaled), fmt.total_bits))
    return "".join(parts)
