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


def _grid_candidates(fmt):
    """The 5x5 grid of spacing 1/4 around the origin, the all-zeros point
    string among its candidates."""
    ticks = (-0.5, -0.25, 0.0, 0.25, 0.5)
    points = np.array([[a, b] for a in ticks for b in ticks])
    return [encode_point_exact(y, fmt) for y in points], points


def _grid_problem(objective, incumbent_point, fmt):
    """A _build_problem instance over the grid of _grid_candidates."""
    bits_list, points = _grid_candidates(fmt)
    config = GpsConfig(fixed_point_format=fmt, search_points_count=32)
    incumbent = float(objective(np.asarray(incumbent_point)))
    return _build_problem(bits_list, points, incumbent, objective, config)


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
    space = index_state.space
    n = len(space.points)
    mapped = {space.basis_string(i): index_state.amplitudes[i] for i in range(n)}
    assert set(reference.support()) <= set(mapped)
    for bits, amplitude in mapped.items():
        assert abs(amplitude - reference.amplitude(bits)) <= TOL, bits
    if space.zero == n:  # the zero point's slot carries nothing after A
        assert abs(index_state.amplitudes[n]) <= TOL


def _check_engines(problem, t):
    ops = PreparationOperator(problem)
    reference = ops.prepare_from_zero()
    index_state = ops.apply(IndexState.zero(ops.space))
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
    ops = PreparationOperator(problem)
    assert "0" * problem.layout.point_bits in problem.points
    assert ops.space.size == problem.n_points  # no extra zero slot
    t = _marked_count(problem)
    assert 0 < t < problem.n_points
    if name == "saturated":
        top = "0" + "1" * (problem.layout.value_bits - 1)
        assert sum(problem.oracle(x) == top for x in problem.points) > problem.n_points // 2
    _check_engines(problem, t)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 8),
    data=st.data(),
)
def test_sign_vector_marks_exactly_the_improving_points(d, data):
    """Where f_j - f_k fits the register, S_chi is -1 exactly on f_j < f_k.

    Values of mixed sign can wrap the d-bit difference; those slots are left
    out here (the classical recheck after measurement rejects a wrapped mark).
    """
    low, high = -(1 << (d - 1)), (1 << (d - 1)) - 1
    scalar = st.integers(low, high)
    values = data.draw(st.lists(scalar, min_size=1, max_size=12))
    incumbent = data.draw(scalar)
    mask = (1 << d) - 1
    layout = RegisterLayout(2 * d, d, d)
    points = [format(i, f"0{2 * d}b") for i in range(1, len(values) + 1)]
    units = np.array([v & mask for v in values])
    incumbent_bits = format(incumbent & mask, f"0{d}b")
    problem = SearchProblem(points, incumbent_bits, units, layout)
    marks = PreparationOperator(problem).space.marks
    assert len(marks) == len(values) + 1  # the zero point is not a candidate
    assert marks[-1] == 1.0
    for j, value in enumerate(values):
        if low <= value - incumbent <= high:
            assert (marks[j] == -1.0) == (value < incumbent), (value, incumbent)


def _assert_same_layout(array_built, string_built):
    a, b = PreparationOperator(array_built).space, PreparationOperator(string_built).space
    n = array_built.n_points
    assert a.points == b.points
    for field in ("values", "comparisons", "marks", "order"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.zero, a.size) == (b.zero, b.size)
    assert [a.basis_string(i) for i in range(n)] == [b.basis_string(i) for i in range(n)]
    assert [array_built.oracle(x) for x in a.points] == [
        string_built.oracle(x) for x in b.points
    ]
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
    bits_list, points = _grid_candidates(fmt)
    assert problem.points == bits_list
    if name == "both-signs":
        assert (problem.units >> 7).any() and not (problem.units >> 7).all()

    # The per-candidate string oracle that _build_problem used to hand over.
    def oracle(y):
        return encode_scalar_saturating(float(objective(y)), fmt)[0]

    string_built = SearchProblem(
        bits_list, problem.incumbent_value_bits,
        np.array([int(oracle(y), 2) for y in points]), problem.layout,
    )
    _assert_same_layout(problem, string_built)


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_array_build_matches_string_oracle_build_planted(n, t):
    string_built, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    units = [int(string_built.oracle(x), 2) for x in string_built.points]
    array_built = SearchProblem(
        string_built.points, string_built.incumbent_value_bits, np.array(units),
        string_built.layout,
    )
    _assert_same_layout(array_built, string_built)


def test_build_calls_the_objective_once_per_candidate():
    calls = []

    def counting(x):
        calls.append(x.tobytes())
        return _sphere(x)

    fmt = FixedPointFormat(8, 4)
    problem = _grid_problem(counting, [0.25, 0.25], fmt)
    _, points = _grid_candidates(fmt)
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
    layout = RegisterLayout(4, 4, 4)
    points = ["0001", "0010"]
    for bad in ([1], [1, 16], [-1, 2], [[1, 2]]):
        with pytest.raises(ValueError, match="4-bit unsigned value per point"):
            SearchProblem(points, "0000", np.array(bad), layout)
    with pytest.raises(ValueError):
        SearchProblem(points, "0000", None, layout)
    problem = SearchProblem(points, "0000", np.array([15, 3]), layout)
    assert [problem.oracle(x) for x in points] == ["1111", "0011"]
    assert _marked_count(problem) == 1
