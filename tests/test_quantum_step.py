"""Search-step binding: recheck gate, accounting, backend comparison."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpsearch import quantum_step
from qpsearch.amplify import DomainError, QSearchParams
from qpsearch.fixedpoint import FixedPointFormat
from qpsearch.ledger import OracleLedger
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
        compute_t=True,
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
        event_sink=events.append, compute_t=True,
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
    bits_list, points = select_search_points(state, basis, config)
    by_point = {tuple(y): v for y, v in zip(points, values)}
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state, basis, config, QSearchParams(c=1.5, tau=0.2),
        lambda x: by_point[tuple(x)], ledger, event_sink=events.append,
        candidates=(bits_list, points),
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
    bits_list, points = select_search_points(state, basis, config)
    by_point = {tuple(y): v for y, v in zip(points, values)}
    ledger = OracleLedger()
    events = []
    out = quantum_search_step(
        state, basis, config, QSearchParams(c=1.5, tau=0.2),
        lambda x: by_point[tuple(x)], ledger, event_sink=events.append,
        candidates=(bits_list, points),
    )
    result = events[-1]["result"]
    if out is None:
        assert result in ("rejected", "failure")
    else:
        assert result == "found"
        assert out.value == by_point[tuple(out.point)] < incumbent
    assert ledger.classical_calls == (0 if result == "failure" else 1)


def test_step_saturates_an_incumbent_above_the_register():
    # d=4 values: an incumbent of 100 saturates to 7.  Candidates at 50 and
    # 7 improve but saturate to 7 too, so nothing is marked; the candidate at
    # 3 is the only marked one, and the step finds it.
    basis = PatternBasis.coordinate(1)
    config = step_config(
        search_points_count=4, search_radius=4, fixed_point_format=FixedPointFormat(4, 0),
    )
    state = MeshState(np.array([0.0]), 1.0, 100.0)
    bits_list, points = select_search_points(state, basis, config)
    table = {y.tobytes(): v for y, v in zip(points, [50.0, 7.0, 3.0, 60.0])}
    events = []
    out = quantum_search_step(
        state, basis, config, PARAMS, lambda x: table[x.tobytes()], OracleLedger(),
        event_sink=events.append, compute_t=True, candidates=(bits_list, points),
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
            event_sink=events.append, compute_t=True, candidates=candidates,
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
