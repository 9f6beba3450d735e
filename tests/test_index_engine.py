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
from qpsearch.pattern import GpsConfig, MeshState, PatternBasis, select_search_points
from qpsearch.quantum_step import _build_problem, quantum_search_step
from qpsearch.state import EmptyTargetsError, IndexState, RegisterLayout, measure

TOL = 1e-12


def unit_rows(strings, bits):
    """Point strings as rows of ``bits``-bit units, the form a SearchProblem
    takes: the tests' string-to-row edge."""
    return np.array(
        [[int(s[i : i + bits], 2) for i in range(0, len(s), bits)] for s in strings],
        dtype=np.int64,
    )


def point_strings(problem):
    """A problem's candidate point strings, formatted from its unit rows."""
    unit = f"0{problem.layout.value_bits}b"
    return ["".join(format(u, unit) for u in row) for row in problem.point_units.tolist()]


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
            slot = measure(index_state, np.random.default_rng([seed, j]))
            assert problem.basis_string(slot) == measure(
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
    assert "0" * problem.layout.point_bits in point_strings(problem)
    assert problem.size == problem.n_points  # no extra zero slot
    t = problem.n_marked
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
    problem = SearchProblem(unit_rows(points, d), incumbent_bits, units)
    assert point_strings(problem) == points
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
    assert problem.n_marked == np.count_nonzero(marks == -1.0)


def _assert_same_layout(array_built, string_built):
    a, b = array_built, string_built
    n = array_built.n_points
    assert np.array_equal(a.point_units, b.point_units)
    for field in ("comparisons", "marks", "order"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.zero, a.size) == (b.zero, b.size)
    assert [a.basis_string(i) for i in range(n)] == [b.basis_string(i) for i in range(n)]
    assert np.array_equal(a.units, b.units)
    assert array_built.n_marked == string_built.n_marked


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
    assert point_strings(problem) == strings
    if name == "both-signs":
        assert (problem.units >> 7).any() and not (problem.units >> 7).all()

    # The per-candidate string oracle that _build_problem used to hand over.
    def oracle(y):
        return encode_scalar_saturating(float(objective(y)), fmt)[0]

    string_built = SearchProblem(
        unit_rows(strings, fmt.total_bits), problem.incumbent_value_bits,
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
    unit = st.sampled_from([fmt.min_units, 0, fmt.max_units]) | st.integers(
        fmt.min_units, fmt.max_units
    )
    rows = draw(st.lists(st.tuples(*[unit] * n), min_size=1, max_size=64, unique=True))
    return fmt, np.array(rows, dtype=float) / (1 << q)


@settings(max_examples=200, deadline=None)
@given(on_grid_points())
def test_build_problem_point_strings_are_encode_point_exact(case):
    fmt, points = case
    problem = _build_problem(points, 0.0, _sphere, GpsConfig(fixed_point_format=fmt))
    assert point_strings(problem) == [encode_point_exact(y, fmt) for y in points]


@settings(max_examples=200, deadline=None)
@given(on_grid_points())
def test_row_order_zero_slot_and_basis_strings_are_the_string_forms(case):
    """The problem's lexsort order, zero slot and basis strings, computed on
    unit rows, are those of the encode_point_exact strings."""
    fmt, points = case
    problem = _build_problem(points, 0.0, _sphere, GpsConfig(fixed_point_format=fmt))
    strings = [encode_point_exact(y, fmt) for y in points]
    n, d = len(strings), fmt.total_bits
    assert problem.order.tolist() == sorted(range(n), key=strings.__getitem__)
    zero = "0" * len(strings[0])
    assert problem.zero == (strings.index(zero) if zero in strings else n)
    for k, x in enumerate(strings):
        value = format(int(problem.units[k]), f"0{d}b")
        comparison = format(int(problem.comparisons[k]), f"0{d}b")
        assert problem.basis_string(k) == x + value + comparison


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_array_build_matches_string_oracle_build_planted(n, t):
    string_built, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    units = string_built.units.tolist()
    d = string_built.layout.value_bits
    array_built = SearchProblem(
        unit_rows(point_strings(string_built), d),
        string_built.incumbent_value_bits,
        np.array(units),
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
    assert 0 <= problem.n_marked <= problem.n_points
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
    points = unit_rows(["0001", "0010"], 4)
    # Floats and bools were truncated to units, where they must be refused.
    for bad in ([1], [1, 16], [-1, 2], [[1, 2]], [1.5, 3.9], [True, False]):
        with pytest.raises(ValueError, match="4-bit unsigned value per point"):
            SearchProblem(points, "0000", np.array(bad))
    with pytest.raises(ValueError):
        SearchProblem(points, "0000", None)
    # Every integer dtype, whether its range ends inside the register or past it.
    for dtype, bad in [(np.int8, -1), (np.int8, 16), (np.uint8, 16), (np.int64, 1 << 62),
                       (np.uint64, 1 << 63), (np.uint64, (1 << 64) - 1)]:
        with pytest.raises(ValueError, match="4-bit unsigned value per point"):
            SearchProblem(points, "0000", np.array([1, bad], dtype=dtype))
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        problem = SearchProblem(points, "0000", np.array([15, 0], dtype=dtype))
        assert problem.units.tolist() == [15, 0] and problem.n_marked == 1
    problem = SearchProblem(points, "0000", np.array([15, 3]))
    assert problem.units.tolist() == [15, 3]
    assert problem.n_marked == 1


@pytest.mark.parametrize(
    "name,problem",
    list(_build_cases()) + [(f"planted-{n}-{t}", make_planted_problem(n, t)[0])
                            for n, t in _planted_cases()]
    # Comparisons 8 and 7 sit on either side of the 4-bit sign boundary.
    + [("sign-boundary", SearchProblem(np.arange(1, 5)[:, None], "0000",
                                       np.array([8, 7, 0, 15])))],
)
def test_marks_are_the_sign_bits_of_the_comparisons(name, problem):
    """Built on first read: -1 at each candidate whose comparison register's
    top bit is set, +1 elsewhere, the zero point's slot included."""
    problem = SearchProblem(problem.point_units, problem.incumbent_value_bits, problem.units)
    assert problem._marks is None
    top = problem.layout.value_bits - 1
    expected = np.ones(problem.size)
    expected[: problem.n_points] = [-1.0 if c >> top & 1 else 1.0
                                    for c in problem.comparisons.tolist()]
    assert np.array_equal(problem.marks, expected) and problem.marks is problem.marks
    assert problem.n_marked == np.count_nonzero(expected < 0)


@pytest.mark.parametrize("name,problem", list(_build_cases()))
def test_build_problem_layout_is_derived_from_its_strings(name, problem):
    assert problem.layout == RegisterLayout(2 * 8, 8)  # n = 2 coordinates, format 8/4


@pytest.mark.parametrize("n,t", list(_planted_cases()))
def test_planted_problem_layout_is_derived_from_its_strings(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    d = max(2, (n - 1).bit_length())
    assert problem.layout == RegisterLayout(d, d)


@pytest.mark.parametrize(
    "points,zero,slot_strings",
    [
        (["01", "00", "10"], 1, ["01", "00", "10"]),  # the zero point is a candidate
        (["01", "10"], 2, ["01", "10", "00"]),  # the zero point is appended
        (["00"], 0, ["00"]),  # the sole candidate is the zero point: identity spread
    ],
)
def test_problem_slots_are_the_spreads(points, zero, slot_strings):
    problem = SearchProblem(unit_rows(points, 2), "01", np.zeros(len(points), dtype=int))
    spread = problem.spread
    assert problem.zero == spread.zero_slot == zero
    assert problem.size == max(len(points), zero + 1)
    assert spread.support_strings() == slot_strings
    assert spread.is_identity == (points == ["00"])
    if not spread.is_identity:
        assert problem.size == len(spread.vector)


@pytest.mark.parametrize(
    "rows,incumbent,message",
    [
        ([[1]], "0a", "incumbent value '0a' is not binary"),
        ([[0]], "", r"target units must lie in \[0, 2\^0\)"),
        # A unit wider than the incumbent's d bits: once a point string of
        # another width than a multiple of d.
        ([[4]], "00", r"target units must lie in \[0, 2\^2\)"),
    ],
)
def test_search_problem_refuses_an_incumbent_that_does_not_fit(rows, incumbent, message):
    with pytest.raises(ValueError, match=message):
        SearchProblem(np.array(rows), incumbent, np.zeros(len(rows), dtype=int))


def test_search_step_formats_one_point_string_per_round(monkeypatch):
    """No candidate's point string is built on the index path: the strings
    formatted are the measured one of each round and the incumbent's, and
    the problem holds no strings besides f_k's."""
    from qpsearch import amplify, fixedpoint, pattern, quantum_step
    from qpsearch import state as state_module

    made = []

    def counting_format(value, spec=""):
        made.append(format(value, spec))
        return made[-1]

    for module in (amplify, fixedpoint, pattern, quantum_step, state_module):
        monkeypatch.setattr(module, "format", counting_format, raising=False)
    problems = []
    search = quantum_step.modified_qsearch

    def capturing(problem, *args, **kwargs):
        problems.append(problem)
        return search(problem, *args, **kwargs)

    monkeypatch.setattr(quantum_step, "modified_qsearch", capturing)
    # One step over N = 1024 points in compare's format 8/0.
    config = GpsConfig(fixed_point_format=FixedPointFormat(8, 0), search_points_count=1024,
                       search_radius=40, initial_mesh_size=1.0)
    x = np.array([0.0, 0.0])
    events = []
    quantum_search_step(MeshState(x, 1.0, _sphere(x)), PatternBasis.coordinate(2), config,
                        QSearchParams(), _sphere, OracleLedger(), event_sink=events.append)
    measured = [e["measured"] for e in events if e["type"] == "qsearch-round"]
    (problem,) = problems
    assert problem.n_points == 1024 and measured
    wide = [m for m in made if len(m) >= problem.layout.point_bits]
    # Selection's grid and range check formats the incumbent's point string
    # (x = 0, two 8-bit zeros) once; each round formats the measured one.
    assert wide == ["0" * problem.layout.point_bits] + measured
    # The rest is the incumbent's encoding: a few scalars, not one per point.
    assert len(made) - len(measured) < 8
    held = [getattr(problem, name) for name in type(problem).__slots__]
    held += [getattr(problem.spread, name) for name in type(problem.spread).__slots__]
    assert [v for v in held if isinstance(v, (str, list, tuple))] == [
        problem.incumbent_value_bits
    ]


@pytest.mark.parametrize("n_points,radius", [(16, 2), (1024, 40)])
def test_row_order_is_the_string_order(n_points, radius):
    fmt = FixedPointFormat(8, 0)
    config = GpsConfig(fixed_point_format=fmt, search_points_count=n_points,
                       search_radius=radius, initial_mesh_size=1.0)
    x = np.array([0.0, 0.0])
    points = select_search_points(MeshState(x, 1.0, 0.0), PatternBasis.coordinate(2), config)
    problem = _build_problem(points, 0.0, _sphere, config)
    strings = [encode_point_exact(y, fmt) for y in points]
    assert problem.order.tolist() == sorted(range(n_points), key=strings.__getitem__)


def test_problem_refuses_rows_that_are_not_distinct_units():
    """The row forms of the string refusals: no point, a repeated point,
    and units that are not unsigned d-bit integers."""
    units = np.zeros(2, dtype=int)
    with pytest.raises(EmptyTargetsError):
        SearchProblem(np.zeros((0, 2), dtype=int), "0000", units[:0])
    with pytest.raises(ValueError, match=r"duplicate target point \[3, 1\]"):
        SearchProblem(np.array([[3, 1], [3, 1]]), "0000", units)
    for rows in ([[0, 16], [1, 1]], [[0, -1], [1, 1]]):
        with pytest.raises(ValueError, match=r"target units must lie in \[0, 2\^4\)"):
            SearchProblem(np.array(rows), "0000", units)
    for rows in (np.array([[0.5, 1.0], [1.0, 1.0]]), np.array([1, 2]), np.zeros((2, 0), int)):
        with pytest.raises(ValueError, match="need a 2-D array of integer units"):
            SearchProblem(rows, "0000", units)
