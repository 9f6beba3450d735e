"""Search-step binding: recheck gate, accounting, backend comparison."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpsearch import quantum_step
from qpsearch.amplify import DomainError, QSearchParams
from qpsearch.fixedpoint import FixedPointFormat, encode_units_saturating
from qpsearch.ledger import OracleLedger
from qpsearch.objectives import make_objective, objective_names
from qpsearch.pattern import (
    GpsConfig,
    MeshState,
    PatternBasis,
    gps_run,
    poll_step,
    select_search_points,
)
from qpsearch.quantum_step import compare_backends, quantum_search_step

PARAMS = QSearchParams(c=1.5, tau=0.01)


def step_config(**overrides):
    defaults = dict(
        initial_mesh_size=1.0,
        search_points_count=16,
        search_radius=4,
        fixed_point_format=FixedPointFormat(16, 4),
        rng_seed=0,
    )
    defaults.update(overrides)
    return GpsConfig(**defaults)


def sphere(x):
    return float(np.dot(x, x))


def test_step_finds_improvement_far_from_optimum():
    # Far from the minimum most mesh neighbours improve, so the step should
    # essentially never fail.
    basis = PatternBasis.coordinate(2)
    hits = 0
    trials = 400
    for seed in range(trials):
        config = step_config(rng_seed=seed)
        state = MeshState(np.array([3.0, 2.0]), 1.0, sphere([3.0, 2.0]))
        ledger = OracleLedger()
        out = quantum_search_step(state, basis, config, PARAMS, sphere, ledger)
        if out is not None:
            assert out.value < state.incumbent_value
            hits += 1
    assert hits / trials >= 0.99


def test_step_fails_on_constant_objective():
    basis = PatternBasis.coordinate(2)
    config = step_config()
    state = MeshState(np.zeros(2), 1.0, 7.0)
    ledger = OracleLedger()
    out = quantum_search_step(state, basis, config, PARAMS, lambda x: 7.0, ledger)
    assert out is None
    # A failed search costs quantum calls but the eventual poll is classical.
    assert ledger.quantum_calls > 0
    quantum_before = ledger.quantum_calls
    assert poll_step(state, basis, lambda x: 7.0, ledger) is None
    assert ledger.quantum_calls == quantum_before


def test_step_accepts_only_strict_improvements():
    basis = PatternBasis.coordinate(2)
    for seed in range(30):
        config = step_config(rng_seed=seed)
        x = np.array([2.0, -1.0])
        state = MeshState(x, 1.0, sphere(x))
        out = quantum_search_step(
            state, basis, config, PARAMS, sphere, OracleLedger()
        )
        if out is not None:
            assert sphere(out.point) == out.value < sphere(x)


def test_step_rejects_wrapped_comparison():
    # d=4 values: incumbent -8, candidates +7 -> true difference 15 wraps to
    # a negative comparison register, so every point looks desired.  The
    # classical recheck must reject the lie and report failure.
    basis = PatternBasis.coordinate(1)
    config = step_config(
        search_points_count=4,
        search_radius=4,
        fixed_point_format=FixedPointFormat(4, 0),
    )
    state = MeshState(np.array([0.0]), 1.0, -8.0)
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state,
        basis,
        config,
        PARAMS,
        lambda x: 7.0,
        ledger,
        event_sink=events.append,
    )
    assert out is None
    step_event = next(e for e in events if e["type"] == "quantum-search-step")
    assert step_event["result"] == "rejected"
    assert step_event["t"] == 4  # every encoded comparison wrapped negative
    assert step_event["rounds"] == 0  # first measurement already "succeeds"
    assert ledger.classical_calls == 1  # the recheck


def test_step_event_contents():
    basis = PatternBasis.coordinate(2)
    config = step_config()
    state = MeshState(np.array([3.0, 2.0]), 1.0, sphere([3.0, 2.0]))
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state, basis, config, PARAMS, sphere, ledger,
        event_sink=events.append,
    )
    kinds = [e["type"] for e in events]
    assert kinds[0] == "search-candidates"
    assert kinds[-1] == "quantum-search-step"
    assert all(k == "qsearch-round" for k in kinds[1:-1])
    assert len(events[0]["points"]) == 16
    step = events[-1]
    assert step["n_points"] == 16
    assert 0 < step["t"] <= 16
    assert step["result"] == ("found" if out is not None else "failure")
    delta = step["ledger_delta"]
    assert delta["quantum_calls"] == delta["qsearch_rounds"] + 2 * delta["q_applications"]


@pytest.mark.parametrize("incumbent", [sphere([3.0, 2.0]), 0.0])  # some marked, none
def test_step_event_reports_the_problems_marked_count(monkeypatch, incumbent):
    # No option asks for t: every step event holds its problem's n_marked.
    problems = []
    search = quantum_step.modified_qsearch

    def capturing(problem, *args, **kwargs):
        problems.append(problem)
        return search(problem, *args, **kwargs)

    monkeypatch.setattr(quantum_step, "modified_qsearch", capturing)
    state = MeshState(np.array([3.0, 2.0]), 1.0, incumbent)
    events = []
    quantum_search_step(
        state, PatternBasis.coordinate(2), step_config(), PARAMS, sphere, OracleLedger(),
        event_sink=events.append,
    )
    (problem,) = problems
    step = events[-1]
    assert step["type"] == "quantum-search-step"
    # No value saturates here, so the marks are the improving candidates.
    improving = sum(sphere(y) < incumbent for y in events[0]["points"])
    assert step["t"] == problem.n_marked == improving
    assert (improving > 0) == (incumbent > 0)


@pytest.mark.parametrize("backend", ["classical", "quantum"])
def test_gps_run_keeps_iterations_out_of_the_sink(backend):
    # Iteration records travel in GpsRun.records only; the sink gets the
    # candidates and, from the quantum backend, the round and step events.
    events = []
    run = gps_run(
        sphere, PatternBasis.coordinate(2), step_config(max_iterations=6), backend,
        [3.0, 2.0], qsearch_params=PARAMS, event_sink=events.append,
    )
    kinds = {e["type"] for e in events}
    assert "iteration" not in kinds
    assert [r.iteration for r in run.records] == list(range(6))
    step_kinds = {"qsearch-round", "quantum-search-step"} if backend == "quantum" else set()
    assert kinds <= {"search-candidates", "poll-candidates"} | step_kinds
    searches = [e["iteration"] for e in events if e["type"] == "search-candidates"]
    assert searches == list(range(6))


@st.composite
def planted_tables(draw, incumbent_above=False):
    """Value tables that reach past the register on both sides, so some
    values saturate and some differences to the incumbent wrap; halves add
    rounding ties.  The incumbent itself fits the register, or with
    ``incumbent_above`` lies above its maximum, out to twice the reach."""
    n_points = draw(st.sampled_from([4, 8, 16]))
    fmt = FixedPointFormat(draw(st.sampled_from([4, 6])), 0)
    reach = 2 * (fmt.max_units + 1)
    half_units = st.integers(-2 * reach, 2 * reach).map(lambda k: k / 2)
    values = draw(st.lists(half_units, min_size=n_points, max_size=n_points))
    if incumbent_above:
        low, high = 2 * fmt.max_units + 1, 4 * reach
    else:
        low, high = 2 * fmt.min_units + 1, 2 * fmt.max_units - 1
    incumbent = draw(st.integers(low, high).map(lambda k: k / 2))
    return n_points, fmt, values, incumbent, draw(st.integers(0, 2**16))


@settings(max_examples=50, deadline=None)
@given(planted_tables())
def test_step_never_accepts_a_non_improvement(table):
    n_points, fmt, values, incumbent, seed = table
    basis = PatternBasis.coordinate(2)
    config = step_config(
        search_points_count=n_points, search_radius=3, fixed_point_format=fmt,
        rng_seed=seed,
    )
    state = MeshState(np.zeros(2), 1.0, incumbent)
    points = select_search_points(state, basis, config)
    by_point = {tuple(y): v for y, v in zip(points, values)}
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state, basis, config, QSearchParams(c=1.5, tau=0.2),
        lambda x: by_point[tuple(x)], ledger, event_sink=events.append,
        candidates=points,
    )
    result = events[-1]["result"]
    if out is None:
        assert result in ("rejected", "failure")
    else:
        assert result == "found"
        assert out.value == by_point[tuple(out.point)] < incumbent
    assert ledger.classical_calls == (0 if result == "failure" else 1)


@settings(max_examples=50, deadline=None)
@given(planted_tables(incumbent_above=True))
def test_step_never_accepts_a_non_improvement_above_the_register(table):
    # The incumbent's value saturates at the register maximum: candidates
    # below it are marked and truly improve, unless their difference wraps,
    # and candidates between it and the incumbent go unmarked.
    n_points, fmt, values, incumbent, seed = table
    assert incumbent > fmt.max_value
    basis = PatternBasis.coordinate(2)
    config = step_config(
        search_points_count=n_points, search_radius=3, fixed_point_format=fmt,
        rng_seed=seed,
    )
    state = MeshState(np.zeros(2), 1.0, incumbent)
    points = select_search_points(state, basis, config)
    by_point = {tuple(y): v for y, v in zip(points, values)}
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state, basis, config, QSearchParams(c=1.5, tau=0.2),
        lambda x: by_point[tuple(x)], ledger, event_sink=events.append,
        candidates=points,
    )
    result = events[-1]["result"]
    if out is None:
        assert result in ("rejected", "failure")
    else:
        assert result == "found"
        assert out.value == by_point[tuple(out.point)] < incumbent
    assert ledger.classical_calls == (0 if result == "failure" else 1)


@pytest.mark.parametrize("fmt", [FixedPointFormat(4, 0), FixedPointFormat(16, 4),
                                 FixedPointFormat(32, 31)])
def test_build_problem_encodes_the_incumbent_as_the_array_rule_does(fmt):
    """The incumbent is clamped to a finite float and encoded as one scalar;
    its bits equal the candidates' array path, NaN and infinities included."""
    config = step_config(fixed_point_format=fmt)
    points = np.array([[0.0], [1.0]])
    mask = (1 << fmt.total_bits) - 1
    for incumbent in [np.nan, np.inf, -np.inf, 1e308, -1e308, 2.5, -0.0, 5e-324,
                      np.float64(-7.25), fmt.max_value + fmt.resolution / 2]:
        problem = quantum_step._build_problem(points, incumbent, lambda x: 0.0, config)
        units, _ = encode_units_saturating(quantum_step._finite(np.array([incumbent])), fmt)
        expected = format(int(units[0]) & mask, f"0{fmt.total_bits}b")
        assert problem.incumbent_value_bits == expected, incumbent


def test_step_saturates_an_incumbent_above_the_register():
    # d=4 values: an incumbent of 100 saturates to 7.  Candidates at 50 and
    # 7 improve but saturate to 7 too, so nothing is marked; the candidate at
    # 3 is the only marked one, and the step finds it.
    basis = PatternBasis.coordinate(1)
    config = step_config(
        search_points_count=4, search_radius=4, fixed_point_format=FixedPointFormat(4, 0),
    )
    state = MeshState(np.array([0.0]), 1.0, 100.0)
    points = select_search_points(state, basis, config)
    table = {y.tobytes(): v for y, v in zip(points, [50.0, 7.0, 3.0, 60.0])}
    events = []
    out = quantum_search_step(
        state, basis, config, PARAMS, lambda x: table[x.tobytes()], OracleLedger(),
        event_sink=events.append, candidates=points,
    )
    assert events[-1]["t"] == 1
    assert out is not None and out.value == 3.0


@pytest.mark.parametrize("backend", ["classical", "quantum"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_run_finishes_on_non_finite_objective_values(bad, backend):
    # +inf and NaN saturate at the value register's top and are never
    # marked; -inf saturates at its bottom.  The classical recheck gates
    # every mark either way.
    def objective(x):
        return bad if x[0] > 1.2 else sphere(x)

    config = GpsConfig(
        initial_mesh_size=0.5, search_points_count=16, search_radius=4,
        fixed_point_format=FixedPointFormat(16, 8), mesh_size_tolerance=0.01,
    )
    run = gps_run(objective, PatternBasis.coordinate(2), config, backend, [0.75, 0.75])
    assert run.stop_reason == "mesh-tolerance"
    values = [r.value for r in run.records] + [run.final_state.incumbent_value]
    for record, before, after in zip(run.records, values, values[1:]):
        if record.outcome != "mesh-local-optimizer":
            assert after < before, record


def test_step_accepts_candidate_zero():
    """Slot 0 is a result like any other: its recheck reads candidates[0:1]."""
    basis = PatternBasis.coordinate(2)
    config = step_config()
    state = MeshState(np.zeros(2), 1.0, 0.0)
    candidates = select_search_points(state, basis, config)

    def only_first(x):
        return -1.0 if np.array_equal(x, candidates[0]) else 1.0

    ledger = OracleLedger()
    out = quantum_search_step(
        state, basis, config, PARAMS, only_first, ledger, candidates=candidates
    )
    assert out is not None and out.value == -1.0
    assert np.array_equal(out.point, candidates[0])
    assert ledger.classical_calls == 1


def test_step_given_candidates_matches_own_selection():
    basis = PatternBasis.coordinate(2)
    config = step_config(rng_seed=5)
    state = MeshState(np.array([3.0, 2.0]), 1.0, sphere([3.0, 2.0]), iteration=2)
    runs = []
    for candidates in (None, select_search_points(state, basis, config)):
        ledger = OracleLedger()
        events = []
        out = quantum_search_step(
            state, basis, config, PARAMS, sphere, ledger,
            event_sink=events.append, candidates=candidates,
        )
        runs.append(((out.point.tolist(), out.value) if out else None, events, ledger))
    assert runs[0] == runs[1]


def test_compare_trial_selects_once(monkeypatch):
    calls = []
    select = quantum_step.select_search_points

    def counting_select(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    monkeypatch.setattr(quantum_step, "select_search_points", counting_select)
    config = step_config(
        search_points_count=16,
        search_radius=6,
        fixed_point_format=FixedPointFormat(8, 0),
    )
    seeds = range(6)
    compare_backends(
        None, PatternBasis.coordinate(2), config, PARAMS, seeds=seeds, planted_t=1
    )
    assert len(calls) == len(seeds)


@pytest.mark.parametrize("planted_t", [0, 5, 64])
def test_planted_on_rows_equals_the_row_form(planted_t, monkeypatch):
    scans = []
    scan = quantum_step.classical_search_step

    def capturing(points, objective, *args):
        scans.append((points, objective))
        return scan(points, objective, *args)

    monkeypatch.setattr(quantum_step, "classical_search_step", capturing)
    config = step_config(
        search_points_count=64, search_radius=10, fixed_point_format=FixedPointFormat(8, 0)
    )
    compare_backends(
        None, PatternBasis.coordinate(2), config, PARAMS, seeds=range(3),
        planted_t=planted_t,
    )
    selections = [(p, f) for p, f in scans if len(p) == 64]  # not the rechecks
    assert len(selections) == 3
    for points, objective in selections:
        row_form = np.array([objective(y) for y in points])
        assert np.count_nonzero(row_form == -1.0) == planted_t
        assert np.array_equal(objective.on_rows(points), row_form)
        assert np.array_equal(objective.on_rows(points[::-1]), row_form[::-1])
        # Rows off the selection, -0.0 and NaN among them, are unmarked in
        # both forms: rows match by their bytes.
        others = np.vstack(
            [points + 0.5, -points[:, ::-1] - 1000.0,
             [[-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0], [np.inf, -np.inf]]]
        )
        expected = np.array([objective(y) for y in others])
        assert (expected == 1.0).all()
        assert np.array_equal(objective.on_rows(others), expected)


def test_compare_refuses_an_unreachable_tau_before_evaluating():
    calls = []

    def counting(x):
        calls.append(1)
        return sphere(x)

    config = step_config(search_points_count=16, fixed_point_format=FixedPointFormat(8, 0))
    with pytest.raises(DomainError, match="tau=5e-14 is out of reach at N=16"):
        compare_backends(
            counting, PatternBasis.coordinate(2), config, QSearchParams(tau=5e-14),
            seeds=[0],
        )
    assert calls == []


def test_step_reproducible_for_fixed_seed():
    basis = PatternBasis.coordinate(2)
    outs = []
    for _ in range(2):
        config = step_config(rng_seed=11)
        state = MeshState(np.array([1.0, 1.0]), 0.5, sphere([1.0, 1.0]))
        ledger = OracleLedger()
        out = quantum_search_step(state, basis, config, PARAMS, sphere, ledger)
        outs.append((None if out is None else (tuple(out.point), out.value), ledger))
    assert outs[0] == outs[1]


def test_gps_quantum_backend_ledger_invariants():
    basis = PatternBasis.coordinate(2)
    config = step_config(
        initial_mesh_size=0.5,
        mesh_size_tolerance=1e-2,
        search_points_count=8,
        fixed_point_format=FixedPointFormat(16, 8),
        max_iterations=60,
        rng_seed=3,
    )
    run = gps_run(
        sphere, basis, config, "quantum", [0.75, -0.5],
        qsearch_params=QSearchParams(c=1.5, tau=0.05),
    )
    assert run.stop_reason == "mesh-tolerance"
    values = [r.value for r in run.records]
    assert all(b <= a for a, b in zip(values, values[1:]))
    for record in run.records:
        snap = record.ledger_snapshot
        # Every quantum call is attributable to the search loops: polls and
        # rechecks only ever touch the classical counter.
        assert snap.quantum_calls == snap.qsearch_rounds + 2 * snap.q_applications


def _shifted_objective(name, dimension, shift):
    # A registry objective less ``shift``, in both its forms.  Values below 0
    # let the comparison register wrap: an incumbent far below 0 and a
    # candidate far above it differ by more than half the register, so the
    # candidate is marked although it is worse, and only the recheck stops it.
    f = make_objective(name, dimension)
    if not shift:
        return f

    def g(x):
        return f(x) - shift

    g.on_rows = lambda rows: f.on_rows(rows) - shift
    return g


@st.composite
def undisturbed_cases(draw):
    name = draw(st.sampled_from(objective_names()))
    n = 2 if name == "rosenbrock" else draw(st.integers(1, 3))
    n_points = 2 ** draw(st.integers(0, 5))
    frac_bits = draw(st.integers(2, 8))
    fmt = FixedPointFormat(frac_bits + draw(st.integers(6, 10)), frac_bits)
    # At least N + 1 mesh points within the radius, the incumbent among them.
    fewest = next(r for r in range(1, 64) if (2 * r + 1) ** n > n_points)
    radius = draw(st.integers(fewest, max(fewest, 6)))
    start = [k / 4 for k in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))]
    shift = draw(st.sampled_from([0.0, 0.75 * fmt.max_value]))
    params = QSearchParams(c=draw(st.sampled_from([1.2, 1.5, 1.9])),
                           tau=draw(st.sampled_from([0.01, 0.05, 0.2])))
    return name, n, n_points, fmt, radius, start, shift, params, draw(st.integers(0, 2**32))


def _trajectory(run):
    return [(r.iteration, r.iterate.tolist(), r.value, r.mesh_size, r.outcome)
            for r in run.records]


@settings(max_examples=100, deadline=None)
@given(undisturbed_cases())
# 16/8 holds values below 128: rosenbrock's 404 at (-1, -1) saturates, and
# improving candidates that saturate too go unmarked.
@example(("rosenbrock", 2, 16, FixedPointFormat(16, 8), 4, [-1.0, -1.0], 0.0,
          QSearchParams(c=1.5, tau=0.05), 7))
# Less 96: the incumbent is 6.5 - 96, and a candidate 128 or more above it
# wraps to a negative comparison, a false mark that the recheck rejects.
@example(("rosenbrock", 2, 16, FixedPointFormat(16, 8), 4, [0.5, 0.5], 96.0,
          QSearchParams(c=1.5, tau=0.05), 7))
def test_quantum_search_step_leaves_gps_undisturbed(case):
    """Both backends draw the same candidates, the quantum step returns only a
    rechecked strict improvement and the poll is deterministic.  So from the
    same start and seed the two runs agree up to the first iteration whose
    classical search step improves, that iteration's inputs included, and to
    the end, stop reason included, when no classical search step improves."""
    name, n, n_points, fmt, radius, start, shift, params, seed = case
    objective = _shifted_objective(name, n, shift)
    basis = PatternBasis.coordinate(n)
    config = GpsConfig(
        initial_mesh_size=0.5, mesh_size_tolerance=2.0**-6, max_iterations=20,
        search_points_count=n_points, search_radius=radius,
        fixed_point_format=fmt, rng_seed=seed,
    )
    runs = {backend: gps_run(objective, basis, config, backend, start, params)
            for backend in ("classical", "quantum")}
    classical, quantum = (_trajectory(runs[b]) for b in ("classical", "quantum"))
    first = next((i for i, r in enumerate(classical) if r[4] == "search-success"), None)
    if first is None:
        assert quantum == classical
        assert runs["quantum"].stop_reason == runs["classical"].stop_reason
    else:
        assert quantum[:first] == classical[:first]
        assert quantum[first][:4] == classical[first][:4]
    for run in runs.values():
        values = [r.value for r in run.records] + [run.final_state.incumbent_value]
        for record, before, after in zip(run.records, values, values[1:]):
            if record.outcome == "mesh-local-optimizer":
                # Evaluated apart from the run: no poll point improves.
                for d in basis.directions.T:
                    assert objective(record.iterate + record.mesh_size * d) >= before
            else:
                assert after < before, record


def test_compare_backends_identical_points_and_planting():
    basis = PatternBasis.coordinate(2)
    config = step_config(
        search_points_count=64,
        search_radius=10,
        fixed_point_format=FixedPointFormat(8, 0),
    )
    report = compare_backends(
        None, basis, config, PARAMS, seeds=range(20), planted_t=1
    )
    assert len(report.rows) == 20
    assert report.tau == PARAMS.tau
    for row in report.rows:
        assert row.n_points == 64
        assert row.t == 1
        assert row.classical_success  # scan always finds the planted point
        assert 1 <= row.classical_calls <= 64
    assert report.summary["quantum_success_rate"] >= 0.95
    assert report.summary["miss_rate"] <= 0.05
    assert report.summary["mean_sqrt_ratio_fit"] is not None


def test_compare_backends_all_marked():
    basis = PatternBasis.coordinate(2)
    config = step_config(
        search_points_count=16,
        search_radius=6,
        fixed_point_format=FixedPointFormat(8, 0),
    )
    report = compare_backends(
        None, basis, config, PARAMS, seeds=range(10), planted_t=16
    )
    for row in report.rows:
        assert row.classical_calls == 1
        assert row.quantum_success
        assert row.qsearch_rounds == 0  # first measurement is already desired
        assert row.quantum_calls <= 2
    assert report.summary["mean_quantum_calls"] <= 2


def test_compare_backends_real_objective_counts_t():
    basis = PatternBasis.coordinate(2)
    config = step_config(
        search_points_count=16,
        search_radius=4,
        fixed_point_format=FixedPointFormat(16, 4),
    )
    report = compare_backends(
        sphere, basis, config, PARAMS, seeds=range(5),
        initial_point=[3.0, 2.0],
    )
    for row in report.rows:
        assert 0 < row.t <= 16
        assert row.classical_success and row.quantum_success
    with pytest.raises(ValueError):
        compare_backends(None, basis, config, PARAMS, seeds=[0])


def reference_summary(rows):
    """The report's summary with every mean taken by np.mean."""
    ok = [r for r in rows if r.t > 0 and r.quantum_success]
    fit = [r.quantum_calls / math.sqrt(r.n_points / r.t) for r in ok]
    return {
        "trials": len(rows),
        "mean_classical_calls": float(np.mean([r.classical_calls for r in rows])),
        "mean_quantum_calls": float(np.mean([r.quantum_calls for r in rows])),
        "mean_quantum_total_calls": float(
            np.mean([r.quantum_calls + r.quantum_recheck_calls for r in rows])
        ),
        "classical_success_rate": float(np.mean([r.classical_success for r in rows])),
        "quantum_success_rate": float(np.mean([r.quantum_success for r in rows])),
        "miss_rate": sum(r.t > 0 and not r.quantum_success for r in rows) / len(rows),
        "mean_sqrt_ratio_fit": float(np.mean(fit)) if fit else None,
    }


# Counts near 2^40 as well as small ones: a sum stays below 2^53 with up to
# 2^12 rows of them.
COUNTS = st.one_of(st.integers(0, 2**20), st.integers(2**40 - 2**20, 2**40 + 2**20))


@st.composite
def comparison_rows(draw):
    n_points = draw(st.integers(1, 2**20))
    return quantum_step.ComparisonRow(
        seed=draw(st.integers(0, 2**31)),
        n_points=n_points,
        t=draw(st.integers(0, n_points)),
        classical_calls=draw(COUNTS),
        classical_success=draw(st.booleans()),
        quantum_calls=draw(COUNTS),
        quantum_recheck_calls=draw(COUNTS),
        quantum_success=draw(st.booleans()),
        qsearch_rounds=draw(COUNTS),
        q_applications=draw(COUNTS),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(comparison_rows(), min_size=1, max_size=20))
def test_compare_summary_is_np_mean_bit_for_bit(rows):
    summary = quantum_step._summary(rows)
    expected = reference_summary(rows)
    assert summary == expected
    assert all(type(v) is type(expected[k]) for k, v in summary.items())


def test_compare_with_no_seeds_reports_nan_means_without_a_warning():
    config = step_config(fixed_point_format=FixedPointFormat(8, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare_backends(
            None, PatternBasis.coordinate(2), config, PARAMS, seeds=[], planted_t=1
        )
    assert report.rows == []
    summary = report.summary
    assert summary["trials"] == 0 and summary["miss_rate"] == 0.0
    assert summary["mean_sqrt_ratio_fit"] is None
    means = [v for k, v in summary.items() if k.startswith("mean_") and k != "mean_sqrt_ratio_fit"]
    rates = [summary["classical_success_rate"], summary["quantum_success_rate"]]
    assert len(means) == 3 and all(np.isnan(v) for v in means + rates)
