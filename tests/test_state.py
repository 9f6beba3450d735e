"""Sparse-state core: basis maps, phases, preparation reflection, Born rule."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpsearch.amplify import PreparationOperator, make_planted_problem
from qpsearch.state import (
    CollisionError,
    EmptyTargetsError,
    HouseholderPrepare,
    IndexState,
    NormalizationError,
    RegisterLayout,
    SearchProblem,
    SparseState,
    apply_basis_map,
    apply_phase,
    measure,
    sample_counts,
)

L1 = RegisterLayout(1, 1)  # smallest legal layout, 3 bits total
L2 = RegisterLayout(2, 1)

INV_SQRT2 = 1 / math.sqrt(2)


def state(layout, **amps):
    return SparseState(layout, {k: v for k, v in amps.items()})


def spread_over(strings):
    """The reflection over point strings, each given as one unit of its width."""
    rows = np.array([[int(s, 2)] for s in strings], dtype=np.int64).reshape(-1, 1)
    return HouseholderPrepare(rows, len(strings[0]) if strings else 1)


def test_layout_validation_and_slicing():
    lay = RegisterLayout(8, 4)
    assert lay.total_bits == 16
    assert lay.dimension == 2
    assert lay.comparison_sign_index == 12
    b = "1010" + "0110" + "1001" + "0011"
    assert lay.point_part(b) == "10100110"
    assert lay.value_part(b) == "1001"
    assert lay.comparison_part(b) == "0011"
    assert lay.pack("10100110", "1001", "0011") == b
    with pytest.raises(ValueError):
        RegisterLayout(0, 1)
    with pytest.raises(ValueError):
        RegisterLayout(5, 2)  # point register not a multiple of d


def test_state_normalization_and_pruning():
    s = state(L1, **{"000": 0.6, "111": 0.8})
    assert abs(s.norm() - 1.0) < 1e-12
    with pytest.raises(NormalizationError):
        state(L1, **{"000": 0.5, "111": 0.5})
    # Amplitudes below the pruning threshold are dropped on construction.
    s = state(L1, **{"000": 1.0, "101": 1e-13})
    assert set(s.support()) == {"000"}
    with pytest.raises(ValueError):
        state(L1, **{"00": 1.0})  # wrong width


def flip_msb(bits):
    return ("1" if bits[0] == "0" else "0") + bits[1:]


def test_apply_basis_map_examples():
    s = state(L1, **{"000": 1.0})
    out = apply_basis_map(s, flip_msb)
    assert out.amplitude("100") == 1.0

    s = state(L1, **{"000": 0.6, "110": 0.8})
    out = apply_basis_map(s, lambda b: b)
    assert out.amplitude("000") == 0.6 and out.amplitude("110") == 0.8

    # 3-bit modular increment, validated by enumerating the full bijection.
    def incr(bits):
        return format((int(bits, 2) + 1) % 8, "03b")

    images = {incr(format(i, "03b")) for i in range(8)}
    assert len(images) == 8  # enumeration: incr is a bijection
    out = apply_basis_map(state(L1, **{"001": 1.0}), incr)
    assert out.amplitude("010") == 1.0


def test_apply_basis_map_collision():
    s = state(L1, **{"000": INV_SQRT2, "111": INV_SQRT2})
    with pytest.raises(CollisionError):
        apply_basis_map(s, lambda b: "000")


def test_basis_map_then_inverse_is_identity():
    rng = np.random.default_rng(0)
    keys = ["0000", "0101", "1100", "1111"]
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    s = SparseState(RegisterLayout(2, 1), dict(zip(keys, amps)))

    def rot(bits):
        return bits[1:] + bits[0]

    def rot_inv(bits):
        return bits[-1] + bits[:-1]

    out = apply_basis_map(apply_basis_map(s, rot), rot_inv)
    for k, a in zip(keys, amps):
        assert out.amplitude(k) == pytest.approx(a, abs=1e-15)


def test_apply_phase_examples():
    s = state(L1, **{"000": 1.0})
    out = apply_phase(s, lambda b: set(b) == {"0"}, -1)
    assert out.amplitude("000") == -1.0

    s = state(L1, **{"100": 1.0})
    out = apply_phase(s, lambda b: set(b) == {"0"}, -1)
    assert out.amplitude("100") == 1.0

    s = state(L1, **{"000": INV_SQRT2, "111": INV_SQRT2})
    out = apply_phase(s, lambda b: b == "111", -1)
    assert out.amplitude("000") == pytest.approx(INV_SQRT2)
    assert out.amplitude("111") == pytest.approx(-INV_SQRT2)

    with pytest.raises(ValueError):
        apply_phase(s, lambda b: True, 2.0)


def test_householder_defining_property():
    op = spread_over(["01", "10"])
    out = op(SparseState.zero(L2))
    assert out.amplitude("0100") == pytest.approx(INV_SQRT2)
    assert out.amplitude("1000") == pytest.approx(INV_SQRT2)
    assert out.amplitude("0000") == pytest.approx(0.0, abs=1e-15)


def test_householder_degenerate_zero_target():
    op = spread_over(["00"])
    out = op(SparseState.zero(L2))
    assert out.amplitude("0000") == 1.0


def test_householder_errors():
    with pytest.raises(EmptyTargetsError):
        spread_over([])
    with pytest.raises(ValueError):
        spread_over(["01", "01"])
    # Rows of one width in units of one width: a unit past it is refused,
    # where strings of unequal widths were.
    with pytest.raises(ValueError):
        HouseholderPrepare(np.array([[1], [4]]), 2)
    with pytest.raises(ValueError):
        HouseholderPrepare(np.array([[1], [2]]), 0)
    op = spread_over(["011"])
    with pytest.raises(ValueError):
        op(SparseState.zero(L2))


@st.composite
def unit_rows_and_width(draw):
    """Integer rows around the edges of [0, 2^b): int64 and uint64 units at
    b = 1..64, and 8-bit units at widths past any shift count they hold."""
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.uint64, np.int8, np.uint8])))
    info = np.iinfo(dtype)
    b = draw(st.integers(1, 64) | st.integers(65, 300))
    edges = [v for v in (-(1 << b), -1, 0, 1, (1 << b) - 1, 1 << b, (1 << b) + 1,
                         int(info.min), int(info.max))
             if info.min <= v <= info.max]
    unit = st.sampled_from(edges) | st.integers(int(info.min), int(info.max))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[unit] * width), min_size=1, max_size=6, unique=True))
    return np.array(rows, dtype=dtype), b


@settings(max_examples=400, deadline=None)
@given(unit_rows_and_width())
def test_householder_refuses_the_units_the_comparison_formula_refuses(case):
    # The shift check stands in for this formula, kept here as the reference.
    rows, b = case
    refused = not ((rows >= 0) & (rows < 1 << b)).all()
    try:
        HouseholderPrepare(rows, b)
    except ValueError as exc:
        assert refused == str(exc).startswith("target units must lie in")
    else:
        assert not refused


def test_householder_slot_strings_split_rows_into_coordinates():
    op = HouseholderPrepare(np.array([[1, 0], [0, 3]]), 2)
    assert op.point_width == 4
    assert op.support_strings() == ["0100", "0011", "0000"]
    assert op.order.tolist() == [1, 0]
    assert op.zero_slot == 2


@st.composite
def packed_sort_cases(draw):
    """int64 rows of 1 to 5 units of b = 1..64 bits, so that a row packs into
    one, two or more words; units repeat, so rows can too, and the all-zeros
    row is among the candidates."""
    b = draw(st.integers(1, 64))
    top = (1 << min(b, 63)) - 1  # an int64 unit lies below 2^63
    unit = st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top)
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[unit] * width), min_size=1, max_size=40))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (0,) * width)
    return np.array(rows, dtype=np.int64), b


@settings(max_examples=400, deadline=None)
@given(packed_sort_cases())
def test_householder_sorts_and_refuses_as_the_unit_column_lexsort(case):
    # The sort of the unit columns that packed words replaced, kept here as
    # the reference.
    rows, b = case
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    same = (ranked[1:] == ranked[:-1]).all(axis=1)
    if same.any():
        with pytest.raises(ValueError) as exc:
            HouseholderPrepare(rows, b)
        assert str(exc.value) == f"duplicate target point {ranked[same.argmax()].tolist()}"
    else:
        op = HouseholderPrepare(rows, b)
        assert op.order.tolist() == order.tolist()
        assert op.zero_slot == (len(rows) if ranked[0].any() else order[0])


def test_householder_sorts_64_bit_units_past_the_int64_range_as_strings():
    # 2^63 as an int64 is negative, which sorted it before 1.
    op = HouseholderPrepare(np.array([[1 << 63], [1]], dtype=np.uint64), 64)
    assert op.order.tolist() == [1, 0]
    assert op.support_strings()[:2] == ["1" + "0" * 63, "0" * 63 + "1"]


def reference_householder_vector(targets):
    """|w> as the string-keyed construction built it: a dict of coefficients
    in target order, the zero string last unless it is a target, normalized
    by a sum taken one coefficient at a time."""
    zero = "0" * len(targets[0])
    coeff = 1.0 / math.sqrt(len(targets))
    w = {t: coeff for t in targets}
    w[zero] = w.get(zero, 0.0) - 1.0
    norm_sq = sum(c * c for c in w.values())
    if norm_sq < 1e-30:
        return [], np.array([])
    scale = 1.0 / math.sqrt(norm_sq)
    w = {b: c * scale for b, c in w.items() if c != 0.0}
    return list(w), np.array(list(w.values()))


@pytest.mark.parametrize(
    "width,n_targets,with_zero",
    [
        (width, n, with_zero)
        for width in (1, 4, 10, 16)
        for n in (1, 2, 3, 7, 100, 1000, 1024)
        for with_zero in (False, True)
        if n <= 2**width - (not with_zero)
    ],
)
def test_householder_vector_is_bit_identical_to_the_dict_construction(
    width, n_targets, with_zero
):
    rng = np.random.default_rng([width, n_targets, with_zero])
    pool = np.arange(0 if with_zero else 1, 2**width)
    chosen = rng.choice(pool, size=n_targets, replace=False)
    if with_zero and 0 not in chosen:
        chosen[rng.integers(n_targets)] = 0
    targets = [format(int(i), f"0{width}b") for i in chosen]
    op = spread_over(targets)
    points, vector = reference_householder_vector(targets)
    assert op.is_identity == (not points)
    if points:
        assert op.support_strings() == points
    assert np.array_equal(op.vector, vector)


def _operator_matrix(op, point_width, suffix="00"):
    """Explicit matrix of the operator on the point register basis."""
    dim = 2**point_width
    layout = RegisterLayout(point_width, 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = format(col, f"0{point_width}b") + suffix
        out = op(SparseState(layout, {bits: 1.0}))
        for b, a in out.amplitudes.items():
            mat[int(b[:point_width], 2), col] = a
    return mat


def test_householder_self_inverse_explicit_matrix():
    op = spread_over(["01", "10"])
    mat = _operator_matrix(op, 2)
    np.testing.assert_allclose(mat @ mat, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)  # unitary + Hermitian
    psi = mat @ np.eye(4)[0]
    np.testing.assert_allclose(psi, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12)


@pytest.mark.parametrize("width,n_targets,seed", [(4, 3, 0), (6, 9, 1), (8, 5, 2)])
def test_householder_self_inverse_exhaustive(width, n_targets, seed):
    rng = np.random.default_rng(seed)
    targets = [
        format(i, f"0{width}b")
        for i in rng.choice(2**width, size=n_targets, replace=False)
    ]
    op = spread_over(targets)
    layout = RegisterLayout(width, 1)
    for col in range(2**width):
        bits = format(col, f"0{width}b") + "00"
        once = op(SparseState(layout, {bits: 1.0}))
        twice = op(once)
        assert abs(twice.amplitude(bits) - 1.0) < 1e-9
        assert abs(twice.norm() - 1.0) < 1e-9


def test_operators_preserve_norm():
    rng = np.random.default_rng(3)
    layout = RegisterLayout(4, 2)
    keys = [format(i, "08b") for i in rng.choice(256, size=20, replace=False)]
    amps = rng.normal(size=20) + 1j * rng.normal(size=20)
    amps /= np.linalg.norm(amps)
    s = SparseState(layout, dict(zip(keys, amps)))
    op = spread_over([format(i, "04b") for i in (1, 5, 9, 14)])
    for transformed in (
        apply_basis_map(s, lambda b: b[::-1]),
        apply_phase(s, lambda b: b[0] == "1", -1),
        apply_phase(s, lambda b: True, 1j),
        op(s),
        op(op(s)),
    ):
        assert abs(transformed.norm() - 1.0) < 1e-9


def test_measure_deterministic_and_validation():
    s = state(RegisterLayout(2, 1), **{"0110": 1.0})
    rng = np.random.default_rng(0)
    assert measure(s, rng) == "0110"
    bad = SparseState._raw(L1, {"000": 0.7})
    with pytest.raises(NormalizationError):
        measure(bad, np.random.default_rng(0))


def test_measure_born_frequencies():
    rng = np.random.default_rng(42)
    draws = 100_000

    s = state(L1, **{"000": INV_SQRT2, "111": INV_SQRT2})
    hits = sum(measure(s, rng) == "000" for _ in range(draws))
    assert abs(hits / draws - 0.5) < 0.01

    s = state(L1, **{"000": 0.6, "111": 0.8j})
    hits = sum(measure(s, rng) == "111" for _ in range(draws))
    assert abs(hits / draws - 0.64) < 0.01


def test_measure_and_sample_counts_refuse_an_unnormalized_state_of_either_form():
    problem = SearchProblem(np.arange(4)[:, None], "000", np.ones(4, dtype=np.int64))
    for unnormalized in (
        SparseState._raw(L1, {"000": 0.7}),
        SparseState._raw(L1, {}),
        IndexState(problem, np.full(problem.size, 0.4)),  # norm^2 0.64 over 4 slots
    ):
        with pytest.raises(NormalizationError):
            measure(unnormalized, np.random.default_rng(0))
        with pytest.raises(NormalizationError):
            sample_counts(unnormalized, 10, np.random.default_rng(0))


def test_measure_returns_each_forms_own_label():
    """A SparseState's measurement is a basis string, an IndexState's a
    candidate slot as a Python int."""
    problem = SearchProblem(np.arange(4)[:, None], "000", np.ones(4, dtype=np.int64))
    amplitudes = np.zeros(problem.size)
    amplitudes[0] = 1.0
    slot = measure(IndexState(problem, amplitudes), np.random.default_rng(0))
    assert slot == 0 and type(slot) is int
    assert measure(state(L1, **{"101": 1.0}), np.random.default_rng(0)) == "101"


class TopDraw:
    """A generator stub whose every draw is the largest float below 1."""

    def random(self):
        return np.nextafter(1.0, 0.0)


def test_the_top_draw_measures_the_last_outcome_of_positive_probability():
    """r = 1 - 2^-53 scales to below the running sum's end, so the search
    lands on an outcome, the last one of positive probability, on either
    form: trailing outcomes of zero (or pruned) probability are skipped."""
    rng = np.random.default_rng(5)
    problem = SearchProblem(np.arange(8)[:, None], "0000", np.ones(8, dtype=np.int64))
    for _ in range(200):
        amplitudes = rng.standard_normal(problem.size)
        last = int(rng.integers(problem.size))
        amplitudes[last + 1 :] = 0.0
        amplitudes[last + 1 :: 2] = 1e-13  # below the pruning threshold
        amplitudes /= np.linalg.norm(amplitudes)
        assert measure(IndexState(problem, amplitudes), TopDraw()) == last
    for amps, expected in [
        ({"000": 0.6, "101": 0.8j}, "101"),
        ({"011": INV_SQRT2, "110": INV_SQRT2, "111": 0.0}, "110"),
    ]:
        assert measure(SparseState._raw(L1, amps), TopDraw()) == expected


class ZeroDraw:
    """A generator stub whose every draw is 0.0."""

    def random(self):
        return 0.0


def test_the_bottom_draw_skips_a_pruned_first_outcome():
    """An IndexState probability below the pruning threshold counts as 0, as
    a SparseState of the same amplitudes drops it: the draw r = 0 measures
    the first outcome kept on either form."""
    problem = SearchProblem(np.arange(1, 9)[:, None], "0000", np.ones(8, dtype=np.int64))
    first, kept, last = problem.order[:3].tolist()
    amplitudes = np.zeros(problem.size)
    amplitudes[[first, kept, last]] = [1e-13, 0.6, 0.8]
    sparse = SparseState(problem.layout, {
        problem.basis_string(slot): amplitudes[slot] for slot in (first, kept, last)
    })
    assert measure(IndexState(problem, amplitudes), ZeroDraw()) == kept
    assert measure(sparse, ZeroDraw()) == problem.basis_string(kept)


def test_sample_counts_matches_born_rule():
    rng = np.random.default_rng(7)
    s = state(L1, **{"000": 0.6, "111": 0.8j})
    counts = sample_counts(s, 100_000, rng)
    assert abs(counts["111"] / 100_000 - 0.64) < 0.01
    assert sum(counts.values()) == 100_000


def test_measure_reproducible_for_fixed_seed():
    s = state(L1, **{"000": 0.6, "111": 0.8})
    a = [measure(s, np.random.default_rng(123)) for _ in range(10)]
    b = [measure(s, np.random.default_rng(123)) for _ in range(10)]
    assert a == b


def test_pack_refuses_a_register_of_the_wrong_width():
    with pytest.raises(ValueError, match="do not match the layout widths"):
        RegisterLayout(4, 2).pack("0", "00", "00")


def test_sparse_state_prunes_a_tiny_amplitude_and_stays_normalized():
    s = SparseState(L1, {"000": 0.6, "001": 0.8, "010": 1e-13})
    assert set(s.amplitudes) == {"000", "001"}
    assert sum(abs(a) ** 2 for a in s.amplitudes.values()) == pytest.approx(1.0)


def test_spread_refuses_an_unnormalized_index_state():
    problem, _ = make_planted_problem(4, 1, rng=np.random.default_rng(0))
    prepared = PreparationOperator(problem).apply(IndexState.zero(problem))
    with pytest.raises(NormalizationError, match="norm"):
        problem.spread(IndexState(problem, 2 * prepared.amplitudes))
