"""The index-space engine against the string-keyed reference simulator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpsearch.amplify import (
    PreparationOperator,
    QSearchParams,
    SearchProblem,
    analytic_success_probability,
    apply_Q,
    desired_probability,
    is_desired,
    make_planted_problem,
)
from qpsearch.fixedpoint import FixedPointFormat, encode_point_exact, encode_scalar_saturating
from qpsearch.ledger import OracleLedger
from qpsearch.pattern import GpsConfig, MeshState, PatternBasis
from qpsearch.quantum_step import _build_problem, _marked_count, quantum_search_step
from qpsearch.state import IndexState, RegisterLayout, measure

TOL = 1e-12


def _planted_cases():
    for n in (1, 4, 16, 64):
        for t in sorted({0, 1, n // 4, n}):
            yield n, t


def _grid_candidates():
    """The 5x5 grid of spacing 1/4 around the origin, the all-zeros point
    among its candidates."""
    ticks = (-0.5, -0.25, 0.0, 0.25, 0.5)
    return np.array([[a, b] for a in ticks for b in ticks])


def _grid_problem(objective, incumbent_point, fmt):
    """A _build_problem instance over the grid of _grid_candidates."""
    config = GpsConfig(fixed_point_format=fmt, search_points_count=32)
    incumbent = float(objective(np.asarray(incumbent_point)))
    return _build_problem(_grid_candidates(), incumbent, objective, config)


def _sphere(x):
    return float(np.dot(x, x))


def _steep(x):
    # Overflows format 8/4 (largest value 7.9375) away from the origin.
    return 100.0 * float(np.dot(x, x))


def _build_cases():
    fmt = FixedPointFormat(8, 4)
    # Sphere from (0.25, 0.25): the origin improves, four points tie.
    yield "zero-candidate", _grid_problem(_sphere, [0.25, 0.25], fmt)
    # Most values saturate at the register's top; the origin still improves.
    yield "saturated", _grid_problem(_steep, [0.25, 0.0], fmt)


def _assert_agree(index_state, reference):
    problem = index_state.problem
    n = problem.n_points
    mapped = {problem.basis_string(i): index_state.amplitudes[i] for i in range(n)}
    assert set(reference.support()) <= set(mapped)
    for bits, amplitude in mapped.items():
        assert abs(amplitude - reference.amplitude(bits)) <= TOL, bits
    if problem.zero == n:  # the zero point's slot carries nothing after A
        assert abs(index_state.amplitudes[n]) <= TOL


def _check_engines(problem, t):
    ops = PreparationOperator(problem)
    reference = ops.prepare_from_zero()
    index_state = ops.apply(IndexState.zero(problem))
    n = problem.n_points
    for j in range(11):
        _assert_agree(index_state, reference)
        expected = analytic_success_probability(n, t, j)
        assert abs(desired_probability(index_state) - expected) <= 1e-9
        assert abs(desired_probability(reference) - expected) <= 1e-9
        for seed in range(3):
            assert measure(index_state, np.random.default_rng([seed, j])) == measure(
                reference, np.random.default_rng([seed, j])
            )
        reference = apply_Q(reference, ops)
        index_state = apply_Q(index_state, ops)


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_index_engine_matches_reference_planted(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    _check_engines(problem, t)


@pytest.mark.parametrize("name,problem", list(_build_cases()))
def test_index_engine_matches_reference_search_step(name, problem):
    assert "0" * problem.layout.point_bits in problem.points
    assert problem.size == problem.n_points  # no extra zero slot
    t = _marked_count(problem)
    assert 0 < t < problem.n_points
    if name == "saturated":
        top = (1 << (problem.layout.value_bits - 1)) - 1
        assert sum(problem.units == top) > problem.n_points // 2
    _check_engines(problem, t)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 8),
    data=st.data(),
)
def test_sign_vector_marks_exactly_the_improving_points(d, data):
    """Where f_j - f_k fits the register, S_chi is -1 exactly on f_j < f_k.

    Values of mixed sign can wrap the d-bit difference; those slots are left
    out of that check (the classical recheck after measurement rejects a
    wrapped mark).  On every slot, wrapped or not, the marks are the
    reference simulator's desired strings after A, and t counts them.
    """
    low, high = -(1 << (d - 1)), (1 << (d - 1)) - 1
    scalar = st.integers(low, high)
    values = data.draw(st.lists(scalar, min_size=1, max_size=12))
    incumbent = data.draw(scalar)
    mask = (1 << d) - 1
    layout = RegisterLayout(2 * d, d)
    points = [format(i, f"0{2 * d}b") for i in range(1, len(values) + 1)]
    units = np.array([v & mask for v in values])
    incumbent_bits = format(incumbent & mask, f"0{d}b")
    problem = SearchProblem(points, incumbent_bits, units)
    marks = problem.marks
    assert len(marks) == len(values) + 1  # the zero point is not a candidate
    assert marks[-1] == 1.0
    for j, value in enumerate(values):
        if low <= value - incumbent <= high:
            assert (marks[j] == -1.0) == (value < incumbent), (value, incumbent)
    reference = PreparationOperator(problem).prepare_from_zero()
    by_point = {layout.point_part(b): b for b in reference.support()}
    assert set(by_point) == set(points)
    for k, x in enumerate(points):
        assert (marks[k] == -1.0) == is_desired(by_point[x], layout), (values[k], incumbent)
    assert _marked_count(problem) == np.count_nonzero(marks == -1.0)


def _assert_same_layout(array_built, string_built):
    a, b = array_built, string_built
    n = array_built.n_points
    assert a.points == b.points
    for field in ("comparisons", "marks", "order"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.zero, a.size) == (b.zero, b.size)
    assert [a.basis_string(i) for i in range(n)] == [b.basis_string(i) for i in range(n)]
    assert np.array_equal(a.units, b.units)
    assert _marked_count(array_built) == _marked_count(string_built)


def _signed(x):
    # Values of both signs, from -4 to 1, inside format 8/4's range.
    return 10.0 * float(np.dot(x, x)) - 4.0


# The problems of _build_cases, plus one whose values have both signs.
AGREEMENT_CASES = [
    ("zero-candidate", _sphere, [0.25, 0.25]),
    ("saturated", _steep, [0.25, 0.0]),
    ("both-signs", _signed, [0.25, 0.0]),
]


@pytest.mark.parametrize("name,objective,incumbent_point", AGREEMENT_CASES)
def test_array_build_matches_string_oracle_build(name, objective, incumbent_point):
    fmt = FixedPointFormat(8, 4)
    problem = _grid_problem(objective, incumbent_point, fmt)
    points = _grid_candidates()
    strings = [encode_point_exact(y, fmt) for y in points]
    assert problem.points == strings
    if name == "both-signs":
        assert (problem.units >> 7).any() and not (problem.units >> 7).all()

    # The per-candidate string oracle that _build_problem used to hand over.
    def oracle(y):
        return encode_scalar_saturating(float(objective(y)), fmt)[0]

    string_built = SearchProblem(
        strings, problem.incumbent_value_bits,
        np.array([int(oracle(y), 2) for y in points]),
    )
    _assert_same_layout(problem, string_built)


@st.composite
def on_grid_points(draw):
    """A format and distinct on-grid rows, their units anywhere in the
    signed range, both ends included."""
    d = draw(st.integers(2, 32))
    q = draw(st.integers(0, d - 1))
    fmt = FixedPointFormat(d, q)
    n = draw(st.integers(1, 4))
    unit = st.sampled_from([fmt.min_units, fmt.max_units]) | st.integers(
        fmt.min_units, fmt.max_units
    )
    rows = draw(st.lists(st.tuples(*[unit] * n), min_size=1, max_size=8, unique=True))
    return fmt, np.array(rows, dtype=float) / (1 << q)


@settings(max_examples=200, deadline=None)
@given(on_grid_points())
def test_build_problem_point_strings_are_encode_point_exact(case):
    fmt, points = case
    problem = _build_problem(points, 0.0, _sphere, GpsConfig(fixed_point_format=fmt))
    assert problem.points == [encode_point_exact(y, fmt) for y in points]


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_array_build_matches_string_oracle_build_planted(n, t):
    string_built, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    units = string_built.units.tolist()
    array_built = SearchProblem(
        string_built.points, string_built.incumbent_value_bits, np.array(units)
    )
    _assert_same_layout(array_built, string_built)


def test_build_calls_the_objective_once_per_candidate():
    calls = []

    def counting(x):
        calls.append(x.tobytes())
        return _sphere(x)

    fmt = FixedPointFormat(8, 4)
    problem = _grid_problem(counting, [0.25, 0.25], fmt)
    points = _grid_candidates()
    # The incumbent's own evaluation, then each candidate in problem order.
    assert calls[1:] == [y.tobytes() for y in points]
    for _ in range(2):
        PreparationOperator(problem).prepare_from_zero()
    _marked_count(problem)
    assert len(calls) == 1 + problem.n_points

    calls.clear()
    config = GpsConfig(fixed_point_format=fmt, search_points_count=16, search_radius=2)
    ledger = OracleLedger()
    state = MeshState(np.array([0.25, 0.25]), 0.25, _sphere(np.array([0.25, 0.25])))
    quantum_search_step(state, PatternBasis.coordinate(2), config,
                        QSearchParams(tau=0.05), counting, ledger)
    # One call per candidate, plus the recheck of a measured candidate.
    assert len(calls) == 16 + ledger.classical_calls


def test_search_problem_needs_units_that_fit_the_value_register():
    points = ["0001", "0010"]
    for bad in ([1], [1, 16], [-1, 2], [[1, 2]]):
        with pytest.raises(ValueError, match="4-bit unsigned value per point"):
            SearchProblem(points, "0000", np.array(bad))
    with pytest.raises(ValueError):
        SearchProblem(points, "0000", None)
    problem = SearchProblem(points, "0000", np.array([15, 3]))
    assert problem.units.tolist() == [15, 3]
    assert _marked_count(problem) == 1


@pytest.mark.parametrize("name,problem", list(_build_cases()))
def test_build_problem_layout_is_derived_from_its_strings(name, problem):
    assert problem.layout == RegisterLayout(2 * 8, 8)  # n = 2 coordinates, format 8/4


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_planted_problem_layout_is_derived_from_its_strings(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    d = max(2, (n - 1).bit_length())
    assert problem.layout == RegisterLayout(d, d)


@pytest.mark.parametrize(
    "points,zero,spread_points",
    [
        (["01", "00", "10"], 1, ["01", "00", "10"]),  # the zero point is a candidate
        (["01", "10"], 2, ["01", "10", "00"]),  # the zero point is appended
        (["00"], 0, []),  # the sole candidate is the zero point: identity spread
    ],
)
def test_problem_slots_are_the_spreads(points, zero, spread_points):
    problem = SearchProblem(points, "01", np.zeros(len(points), dtype=int))
    spread = problem.spread
    assert problem.zero == spread.zero_slot == zero
    assert problem.size == max(len(points), zero + 1)
    assert spread.points == spread_points
    assert spread.is_identity == (not spread_points)
    if spread_points:
        assert problem.size == len(spread.points) == len(spread.vector)


@pytest.mark.parametrize(
    "points,incumbent,message",
    [
        (["0001"], "0a", "incumbent value '0a' is not binary"),
        (["0001"], "", "register widths must be positive"),
        (["000"], "00", "point register width 3 is not a multiple"),
    ],
)
def test_search_problem_refuses_an_incumbent_that_does_not_fit(points, incumbent, message):
    with pytest.raises(ValueError, match=message):
        SearchProblem(points, incumbent, np.zeros(len(points), dtype=int))


def test_search_step_checks_the_candidate_strings_once(monkeypatch):
    from qpsearch import state as state_module

    calls = []
    check = state_module._check_strings

    def counting(targets):
        calls.append(len(targets))
        return check(targets)

    monkeypatch.setattr(state_module, "_check_strings", counting)
    fmt = FixedPointFormat(8, 4)
    config = GpsConfig(fixed_point_format=fmt, search_points_count=16, search_radius=2)
    x = np.array([0.25, 0.25])
    quantum_search_step(MeshState(x, 0.25, _sphere(x)), PatternBasis.coordinate(2), config,
                        QSearchParams(tau=0.05), _sphere, OracleLedger())
    assert calls == [16]
