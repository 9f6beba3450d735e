"""Fixed-point codec: frozen examples plus exhaustive small-width sweeps."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpsearch.fixedpoint import (
    EncodingError,
    FixedPointFormat,
    FixedPointOverflowError,
    WidthMismatchError,
    decode_point,
    decode_scalar,
    encode_point,
    encode_point_exact,
    encode_scalar,
    encode_scalar_saturating,
    encode_units_saturating,
    is_exactly_representable,
    negate_bits,
    sign_bit,
)

F40 = FixedPointFormat(4, 0)
F41 = FixedPointFormat(4, 1)
F42 = FixedPointFormat(4, 2)


@pytest.mark.parametrize(
    "value,fmt,expected",
    [
        (3, F40, "0011"),
        (-3, F40, "1101"),
        (-1.5, F41, "1101"),
        (0, F40, "0000"),
        (7, F40, "0111"),
        (-8, F40, "1000"),
        (1.5, F41, "0011"),
    ],
)
def test_encode_scalar_examples(value, fmt, expected):
    assert encode_scalar(value, fmt) == expected


@pytest.mark.parametrize(
    "bits,fmt,expected",
    [
        ("1101", F40, -3),
        ("0111", F40, 7),
        ("1000", F42, -2.0),
        ("0000", F41, 0.0),
    ],
)
def test_decode_scalar_examples(bits, fmt, expected):
    assert decode_scalar(bits, fmt) == expected


def test_negate_examples():
    assert negate_bits("0011") == "1101"
    assert negate_bits("0000") == "0000"
    # Wraparound at the most negative value, checked against the manual
    # flip-then-add-one construction.
    flipped = "".join("1" if c == "0" else "0" for c in "1000")
    manual = format((int(flipped, 2) + 1) % 16, "04b")
    assert negate_bits("1000") == manual == "1000"


def test_encode_point_examples():
    assert encode_point([3, -3], F40) == "00111101"
    assert encode_point([0, 0], F40) == "00000000"
    assert encode_point([1.5], F41) == "0011"


def test_encode_point_reports_offending_coordinate():
    with pytest.raises(FixedPointOverflowError) as err:
        encode_point([1, 99, 2], F40)
    assert err.value.coordinate == 1


def test_sign_bit_examples():
    assert sign_bit("1101") == 1
    assert sign_bit("0011") == 0
    assert sign_bit("0000") == 0


@pytest.mark.parametrize("d,q", [(2, 0), (3, 1), (4, 0), (4, 2), (8, 3), (12, 5)])
def test_roundtrip_negation_sign_exhaustive(d, q):
    fmt = FixedPointFormat(d, q)
    for units in range(2**d):
        bits = format(units, f"0{d}b")
        value = decode_scalar(bits, fmt)
        assert encode_scalar(value, fmt) == bits
        assert (sign_bit(bits) == 1) == (value < 0)
        if bits != "1" + "0" * (d - 1):
            assert decode_scalar(negate_bits(bits), fmt) == -value
        else:
            assert negate_bits(bits) == bits


@pytest.mark.parametrize("d,q", [(4, 0), (6, 2), (12, 6)])
def test_encode_monotone_on_grid(d, q):
    fmt = FixedPointFormat(d, q)
    grid = [math.ldexp(u, -q) for u in range(fmt.min_units, fmt.max_units + 1)]
    signed = []
    for v in grid:
        bits = encode_scalar(v, fmt)
        units = int(bits, 2)
        if units >= 2 ** (d - 1):
            units -= 2**d
        signed.append(units)
    assert signed == sorted(signed)
    assert len(set(signed)) == len(grid)


def test_rounding_nearest_ties_away():
    assert encode_scalar(1.25, F41) == encode_scalar(1.5, F41)  # 2.5 -> 3 units
    assert encode_scalar(-1.25, F41) == encode_scalar(-1.5, F41)
    assert encode_scalar(1.2, F41) == encode_scalar(1.0, F41)  # 2.4 -> 2 units


def test_overflow_and_saturation():
    with pytest.raises(FixedPointOverflowError):
        encode_scalar(8, F40)
    with pytest.raises(FixedPointOverflowError):
        encode_scalar(-8.6, F40)
    assert encode_scalar_saturating(99, F40) == ("0111", True)
    assert encode_scalar_saturating(-99, F40) == ("1000", True)
    assert encode_scalar_saturating(3, F40) == ("0011", False)


def test_width_and_input_validation():
    with pytest.raises(WidthMismatchError):
        decode_scalar("010", F40)
    with pytest.raises(ValueError):
        decode_scalar("01x1", F40)
    with pytest.raises(ValueError):
        FixedPointFormat(1, 0)
    with pytest.raises(ValueError):
        FixedPointFormat(33, 0)
    with pytest.raises(ValueError):
        FixedPointFormat(8, 8)


def test_decode_point_roundtrip():
    fmt = FixedPointFormat(6, 2)
    x = [1.25, -3.5, 0.0]
    np.testing.assert_array_equal(decode_point(encode_point(x, fmt), fmt), x)
    with pytest.raises(WidthMismatchError):
        decode_point("00110", fmt)


def test_exact_representability():
    assert is_exactly_representable(0.25, F42)
    assert not is_exactly_representable(0.3, F42)
    assert not is_exactly_representable(100.0, F42)
    assert encode_point_exact([0.25, -1.75], F42) == "00011001"
    with pytest.raises(EncodingError):
        encode_point_exact([0.3], F42)
    with pytest.raises(FixedPointOverflowError):
        encode_point_exact([1000.0], F42)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_not_representable(value):
    # encode_point_exact's refusals: NaN is off the grid, infinities out of range.
    assert not is_exactly_representable(value, F42)


def exact_outcome(x, fmt):
    """encode_point_exact's string, or its refusal: type, message, coordinate."""
    try:
        return encode_point_exact(x, fmt)
    except (EncodingError, FixedPointOverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "coordinate", None)


@st.composite
def exact_points(draw):
    d = draw(st.integers(2, 32))
    fmt = FixedPointFormat(d, draw(st.integers(0, d - 1)))
    near = st.integers(4 * fmt.min_units, 4 * fmt.max_units)
    if draw(st.booleans()):  # integers, which an int ndarray holds as well
        coordinate = st.one_of(near, st.integers(-(2**63), 2**63 - 1))
    else:
        coordinate = st.one_of(
            near.map(lambda k: math.ldexp(k, -fmt.frac_bits)),
            near.map(lambda k: math.ldexp(k + 0.5, -fmt.frac_bits)),  # off the grid
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
            st.floats(),
        )
    return fmt, draw(st.lists(coordinate, max_size=6))


@settings(max_examples=400, deadline=None)
@given(exact_points())
@example((F42, [0.25, -1.75, -0.0]))
@example((F42, [0.25, math.nan, math.inf]))
@example((F42, [-0.0, -math.inf, 0.3]))
@example((F42, [1.0, 0.3, 100.0]))
@example((F42, [1e308, 0.3]))  # scaled past the largest float
@example((FixedPointFormat(8, 0), [127, -128, 128]))
@example((FixedPointFormat(32, 0), [2**63 - 1, -(2**63)]))
@example((F40, []))
def test_exact_encoding_is_that_of_a_list_a_float_array_and_an_int_array(case):
    """One outcome for a point as a list, a float64 ndarray and (when every
    coordinate is an int64 integer) an int ndarray, and it is the scalar
    rule's: encode_scalar's bits, or a refusal at the first coordinate that
    is NaN or off the grid (EncodingError) or out of range (overflow)."""
    fmt, values = case
    outcome = exact_outcome(values, fmt)
    assert exact_outcome(np.array(values, dtype=float), fmt) == outcome
    if all(math.isfinite(v) and v == int(v) and -(2**63) <= v < 2**63 for v in values):
        ints = np.array([int(v) for v in values], dtype=np.int64)
        assert exact_outcome(ints, fmt) == outcome
    scale = 1 << fmt.frac_bits
    for i, v in enumerate(map(float, values)):
        if math.isnan(v) or (math.isfinite(v * scale) and not (v * scale).is_integer()):
            assert outcome[0] is EncodingError and outcome[2] is None
            break
        if not fmt.min_value <= v <= fmt.max_value:
            assert outcome[0] is FixedPointOverflowError and outcome[2] == i
            break
    else:
        assert outcome == "".join(encode_scalar(v, fmt) for v in values)
        return
    assert outcome[1].startswith(f"coordinate {i} = {v} ")


def reference_units_saturating(value, fmt):
    """The scalar rule the vectorized encoder replaced: scale, round half
    away from zero, clamp.  Raises where converting to an integer does."""
    x = value * (1 << fmt.frac_bits)
    units = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    clamped = min(max(units, fmt.min_units), fmt.max_units)
    return clamped, clamped != units


@st.composite
def formats_and_values(draw):
    d = draw(st.integers(2, 32))
    fmt = FixedPointFormat(d, draw(st.integers(0, d - 1)))
    # Grid points and exact .5 ties between them, out to four times the
    # range on either side, plus arbitrary finite floats.
    near = st.integers(4 * fmt.min_units, 4 * fmt.max_units)
    on_grid = near.map(lambda k: math.ldexp(k, -fmt.frac_bits))
    ties = near.map(lambda k: math.ldexp(k + 0.5, -fmt.frac_bits))
    anything = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.one_of(on_grid, ties, anything), min_size=1, max_size=20))
    return fmt, values


@settings(max_examples=300, deadline=None)
@given(formats_and_values())
@example((FixedPointFormat(4, 1), [1.25, -1.25, 3.75, -4.25, 3.74, 0.0, -0.0]))
@example((FixedPointFormat(32, 31), [1e308, -1e308, 0.9999999997, -1.0000000001]))
def test_vectorized_encoder_matches_the_scalar_rule(case):
    fmt, values = case
    units, saturated = encode_units_saturating(values, fmt)
    assert units.dtype == np.int64 and units.shape == saturated.shape == (len(values),)
    for v, u, sat in zip(values, units.tolist(), saturated.tolist()):
        assert encode_scalar_saturating(v, fmt) == (
            format(u & ((1 << fmt.total_bits) - 1), f"0{fmt.total_bits}b"), sat
        )
        try:
            expected = reference_units_saturating(v, fmt)
        except OverflowError:
            # Finite, but its scaled value overflowed to infinity in the old
            # rule; it now saturates like every other value past the range.
            assert math.isinf(v * (1 << fmt.frac_bits))
            expected = (fmt.max_units if v > 0 else fmt.min_units), True
        assert (u, sat) == expected, v


def clip_where_units_saturating(values, fmt):
    """The array rule before it was written in plain ufuncs: np.clip and a
    np.where of floor(s + 0.5) and ceil(s - 0.5)."""
    x = np.clip(np.asarray(values, dtype=float), fmt.min_value - 1.0, fmt.max_value + 1.0)
    scaled = x * (1 << fmt.frac_bits)
    rounded = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    clamped = np.clip(rounded, fmt.min_units, fmt.max_units)
    return clamped.astype(np.int64), clamped != rounded


@st.composite
def formats_and_edge_values(draw):
    d = draw(st.integers(2, 32))
    fmt = FixedPointFormat(d, draw(st.integers(0, d - 1)))
    near = st.integers(4 * fmt.min_units, 4 * fmt.max_units)
    ties = near.map(lambda k: math.ldexp(k + 0.5, -fmt.frac_bits))
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                             1e308, -1e308, math.ldexp(0.5, -fmt.frac_bits),
                             math.ldexp(-0.5, -fmt.frac_bits)])
    subnormals = st.floats(-2.2e-308, 2.2e-308)
    anything = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.one_of(ties, edges, subnormals, anything),
                           min_size=1, max_size=20))
    return fmt, values


@settings(max_examples=300, deadline=None)
@given(formats_and_edge_values())
@example((FixedPointFormat(4, 1), [0.25, -0.25, 0.75, -0.75, -0.0, 5e-324, -5e-324]))
@example((FixedPointFormat(32, 0), [1e308, -1e308, 2147483647.5, -2147483648.5]))
def test_encoder_matches_the_clip_where_rule(case):
    fmt, values = case
    units, saturated = encode_units_saturating(values, fmt)
    expected_units, expected_saturated = clip_where_units_saturating(values, fmt)
    assert units.tolist() == expected_units.tolist()
    assert saturated.tolist() == expected_saturated.tolist()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fmt", [F40, FixedPointFormat(32, 31), FixedPointFormat(18, 8)])
def test_vectorized_encoder_refuses_non_finite_values(bad, fmt):
    with pytest.raises(Exception) as scalar_reference:
        reference_units_saturating(bad, fmt)
    error = type(scalar_reference.value)
    assert error is (ValueError if math.isnan(bad) else OverflowError)
    for values in ([bad], [1.0, bad, 2.0], [0.5] * 7 + [bad]):
        with pytest.raises(error):
            encode_units_saturating(values, fmt)
    with pytest.raises(error):
        encode_scalar_saturating(bad, fmt)
    with pytest.raises(error):
        encode_scalar(bad, fmt)
    # A batch raises for its first non-finite value.
    other = ValueError if error is OverflowError else OverflowError
    mixed = [bad, math.nan if other is ValueError else math.inf]
    with pytest.raises(error):
        encode_units_saturating(mixed, fmt)
    with pytest.raises(other):
        encode_units_saturating(mixed[::-1], fmt)


def scalar_edge_values(fmt):
    """Values the scalar and array forms of the rounding rule must agree on
    in ``fmt``: signed zeros, subnormals, ties, the range ends and one unit
    past them, and the largest floats."""
    res, ties = fmt.resolution, []
    for k in (0, 1, 2, 3, fmt.max_units - 1, fmt.max_units, fmt.max_units + 1):
        ties += [math.ldexp(k + 0.5, -fmt.frac_bits), math.ldexp(-k - 0.5, -fmt.frac_bits)]
    ends = []
    for end in (fmt.max_value, fmt.min_value):
        for v in (end, end + res, end - res, end + 1.0, end - 1.0):
            ends += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    return ties + ends + [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                          2.2250738585072014e-308, -2.2250738585072014e-308,
                          1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


def assert_scalar_forms_match_the_array_form(v, fmt):
    d = fmt.total_bits
    units, saturated = encode_units_saturating([v], fmt)
    bits, sat = format(int(units[0]) & ((1 << d) - 1), f"0{d}b"), bool(saturated[0])
    got = encode_scalar_saturating(v, fmt)
    assert got == (bits, sat) and type(got[1]) is bool, (v, fmt)
    if sat:
        with pytest.raises(FixedPointOverflowError, match=r"does not fit in"):
            encode_scalar(v, fmt)
    else:
        assert encode_scalar(v, fmt) == bits, (v, fmt)


@st.composite
def formats_and_scalar_values(draw):
    d = draw(st.integers(2, 32))
    fmt = FixedPointFormat(d, draw(st.integers(0, d - 1)))
    near = st.integers(4 * fmt.min_units, 4 * fmt.max_units)
    ties = near.map(lambda k: math.ldexp(k + 0.5, -fmt.frac_bits))
    subnormals = st.floats(-2.2e-308, 2.2e-308)
    anything = st.floats(allow_nan=False, allow_infinity=False)
    edges = st.sampled_from(scalar_edge_values(fmt))
    values = draw(st.lists(st.one_of(edges, ties, subnormals, anything),
                           min_size=1, max_size=20))
    return fmt, values


@settings(max_examples=150, deadline=None)
@given(formats_and_scalar_values())
@example((FixedPointFormat(4, 1), [0.25, -0.25, 3.75, -4.25, 4.25, -4.75, 0.0, -0.0]))
@example((FixedPointFormat(32, 31), [1e308, -1e308, 5e-324, -5e-324, 0.9999999997]))
# Where the array form's trunc(s + copysign(0.5, s)) could part from the scalar
# form's floor(|s| + 0.5) with s's sign: ties k + 0.5 on both sides of zero,
# -0.0, the largest float below 0.5 (which rounds up in both), and one unit
# past the top of the range, whose negation is the bottom end.
@example((FixedPointFormat(8, 2), [0.125, -0.125, 0.375, -0.375, 31.625, -31.625,
                                   -31.875, -32.125, -0.0]))
@example((FixedPointFormat(16, 4), [math.ldexp(0.49999999999999994, -4),
                                    math.ldexp(-0.49999999999999994, -4),
                                    0.49999999999999994, -0.49999999999999994, -0.0]))
@example((FixedPointFormat(8, 2), [32.75, -32.75]))
@example((FixedPointFormat(32, 0), [2147483646.5, -2147483647.5, 2147483648.0,
                                    -2147483648.0]))
def test_scalar_encoders_equal_the_array_rule(case):
    """encode_scalar_saturating and encode_scalar round one Python float;
    both equal encode_units_saturating on a one-element array, bit for bit."""
    fmt, values = case
    for v in values:
        assert_scalar_forms_match_the_array_form(v, fmt)


def test_scalar_encoders_equal_the_array_rule_on_every_format():
    for d in range(2, 33):
        for q in range(d):
            fmt = FixedPointFormat(d, q)
            for v in scalar_edge_values(fmt):
                assert_scalar_forms_match_the_array_form(v, fmt)
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises((ValueError, OverflowError)) as array_error:
                    encode_units_saturating([bad], fmt)
                for encode in (encode_scalar_saturating, encode_scalar):
                    with pytest.raises(type(array_error.value)) as scalar_error:
                        encode(bad, fmt)
                    assert type(scalar_error.value) is type(array_error.value)
                    assert str(scalar_error.value) == str(array_error.value)
