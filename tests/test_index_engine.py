"""The index-space engine against the string-keyed reference simulator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpsearch.amplify import (
    SearchProblem,
    analytic_success_probability,
    apply_Q,
    build_a_operator,
    desired_probability,
    make_planted_problem,
)
from qpsearch.fixedpoint import FixedPointFormat, encode_point_exact
from qpsearch.pattern import GpsConfig
from qpsearch.quantum_step import _build_problem, _marked_count
from qpsearch.state import IndexState, RegisterLayout, measure

TOL = 1e-12


def _planted_cases():
    for n in (1, 4, 16, 64):
        for t in sorted({0, 1, n // 4, n}):
            yield n, t


def _grid_problem(objective, incumbent_point, fmt):
    """A _build_problem instance over the 5x5 grid of spacing 1/4 around the
    origin, the all-zeros point string among its candidates."""
    ticks = (-0.5, -0.25, 0.0, 0.25, 0.5)
    coords = {}
    for a in ticks:
        for b in ticks:
            y = np.array([a, b])
            coords[encode_point_exact(y, fmt)] = y
    bits_list = list(coords)
    config = GpsConfig(fixed_point_format=fmt, search_points_count=32)
    incumbent = float(objective(np.asarray(incumbent_point)))
    return _build_problem(bits_list, coords, incumbent, objective, config)


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
    ops = build_a_operator(problem)
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
        reference = apply_Q(reference, problem, ops=ops)
        index_state = apply_Q(index_state, problem, ops=ops)


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_index_engine_matches_reference_planted(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    _check_engines(problem, t)


@pytest.mark.parametrize("name,problem", list(_build_cases()))
def test_index_engine_matches_reference_search_step(name, problem):
    ops = build_a_operator(problem)
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
    table = {p: format(v & mask, f"0{d}b") for p, v in zip(points, values)}
    incumbent_bits = format(incumbent & mask, f"0{d}b")
    problem = SearchProblem(points, incumbent_bits, table.__getitem__, layout)
    marks = build_a_operator(problem).space.marks
    assert len(marks) == len(values) + 1  # the zero point is not a candidate
    assert marks[-1] == 1.0
    for j, value in enumerate(values):
        if low <= value - incumbent <= high:
            assert (marks[j] == -1.0) == (value < incumbent), (value, incumbent)
