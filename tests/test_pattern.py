"""Pattern-search machinery: spanning checks, mesh ops, poll, outer loop."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpsearch.fixedpoint import (
    EncodingError,
    FixedPointFormat,
    FixedPointOverflowError,
    encode_point_exact,
)
from qpsearch import pattern
from qpsearch.ledger import OracleLedger
from qpsearch.pattern import (
    DimensionMismatchError,
    GpsConfig,
    ImprovedPoint,
    MeshExhaustedError,
    MeshState,
    NotPositiveSpanningError,
    PatternBasis,
    classical_search_step,
    gps_run,
    mesh_point,
    poll_set,
    poll_step,
    positive_spanning_check,
    select_search_points,
    update_mesh,
)


def cone_covers_plane(directions: np.ndarray, grid: int = 720) -> bool:
    """Independent 2-D oracle: brute-force cone coverage over a fine angular
    grid, using the fact that any member of a planar cone is a non-negative
    combination of at most two generators."""
    cols = [directions[:, i] for i in range(directions.shape[1])]
    for k in range(grid):
        angle = 2 * math.pi * k / grid
        v = np.array([math.cos(angle), math.sin(angle)])
        ok = False
        for di, dj in itertools.product(cols, cols):
            det = di[0] * dj[1] - di[1] * dj[0]
            if abs(det) < 1e-12:
                if np.dot(di, v) > 0 and abs(di[0] * v[1] - di[1] * v[0]) < 1e-9:
                    ok = True
                    break
                continue
            a = (v[0] * dj[1] - v[1] * dj[0]) / det
            b = (di[0] * v[1] - di[1] * v[0]) / det
            if a >= -1e-12 and b >= -1e-12:
                ok = True
                break
        if not ok:
            return False
    return True


def test_positive_spanning_examples():
    eye = np.eye(2)
    assert positive_spanning_check(np.hstack([eye, -eye]))
    assert not positive_spanning_check(eye)
    tripod = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])
    assert positive_spanning_check(tripod)
    assert cone_covers_plane(tripod)


def test_positive_spanning_agrees_with_cone_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        p = rng.integers(2, 6)
        d = rng.normal(size=(2, p)).round(2)
        expected = d.shape[1] >= 3 and cone_covers_plane(d)
        assert positive_spanning_check(d) == expected


def test_positive_spanning_edge_cases():
    assert not positive_spanning_check(np.array([[1.0, -1.0], [0.0, 0.0]]))
    # Rank-deficient columns never span, whatever their count.
    assert not positive_spanning_check(
        np.array([[1.0, -1.0, 2.0, -2.0], [0.0, 0.0, 0.0, 0.0]])
    )
    with pytest.raises(DimensionMismatchError):
        positive_spanning_check(np.ones(3))
    # n = 3 coordinate basis.
    eye = np.eye(3)
    assert positive_spanning_check(np.hstack([eye, -eye]))
    assert not positive_spanning_check(np.hstack([eye, -eye[:, :2]]))


def test_pattern_basis_construction():
    basis = PatternBasis.coordinate(2)
    np.testing.assert_array_equal(
        basis.directions, np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float)
    )
    assert basis.dimension == 2 and basis.num_directions == 4
    with pytest.raises(ValueError):
        PatternBasis(np.zeros((2, 2)), np.hstack([np.eye(2, dtype=int)] * 2))
    with pytest.raises(NotPositiveSpanningError):
        PatternBasis(np.eye(2), np.eye(2, dtype=int))
    with pytest.raises(ValueError):
        PatternBasis(np.eye(2), np.array([[0.5, 1], [1, 0]]))


def test_mesh_point_examples():
    basis = PatternBasis.coordinate(1)
    state = MeshState(np.array([2.0]), 0.5, 4.0)
    np.testing.assert_array_equal(mesh_point(state, basis, [0, 0]), [2.0])
    np.testing.assert_array_equal(mesh_point(state, basis, [3, 0]), [3.5])

    basis2 = PatternBasis.coordinate(2)
    state2 = MeshState(np.zeros(2), 1.0, 0.0)
    np.testing.assert_array_equal(mesh_point(state2, basis2, [1, 0, 0, 2]), [1.0, -2.0])
    with pytest.raises(ValueError):
        mesh_point(state2, basis2, [1, 0, 0, -1])


def test_poll_set_examples():
    basis = PatternBasis.coordinate(1)
    state = MeshState(np.array([0.0]), 0.25, 0.0)
    pts = poll_set(state, basis.directions)
    assert [p[0] for p in pts] == [0.25, -0.25]

    basis2 = PatternBasis.coordinate(2)
    state2 = MeshState(np.zeros(2), 1.0, 0.0)
    pts = poll_set(state2, basis2.directions)
    assert [tuple(p) for p in pts] == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert len(pts) == basis2.num_directions

    with pytest.raises(NotPositiveSpanningError):
        poll_set(state2, np.eye(2))


def test_poll_step_first_improvement():
    basis = PatternBasis.coordinate(1)
    ledger = OracleLedger()
    state = MeshState(np.array([1.0]), 0.5, 1.0)
    result = poll_step(state, basis, lambda x: float(x[0] ** 2), ledger)
    assert result is not None
    assert result.point[0] == pytest.approx(0.5)
    assert result.value == pytest.approx(0.25)
    assert ledger.classical_calls == 2  # f(1.5) rejected, f(0.5) accepted
    assert ledger.quantum_calls == 0


def test_poll_step_mesh_local_optimizer():
    basis = PatternBasis.coordinate(1)
    ledger = OracleLedger()
    state = MeshState(np.array([0.0]), 0.5, 0.0)
    assert poll_step(state, basis, lambda x: float(x[0] ** 2), ledger) is None
    assert ledger.classical_calls == 2
    # Constant objective: strict inequality means never an improvement.
    state = MeshState(np.zeros(2), 1.0, 5.0)
    assert poll_step(state, PatternBasis.coordinate(2), lambda x: 5.0, ledger) is None


def recover_z_coordinate_basis(y, state):
    """Exact z-recovery for D = [I, -I]: split the scaled offset into its
    positive and negative parts and demand integrality."""
    offset = (np.asarray(y) - state.iterate) / state.mesh_size
    z = np.concatenate([np.maximum(offset, 0), np.maximum(-offset, 0)])
    assert np.array_equal(z, np.round(z)), f"non-integer mesh offset {offset}"
    return z.astype(int)


def test_select_search_points_contract():
    basis = PatternBasis.coordinate(2)
    config = GpsConfig(
        initial_mesh_size=0.25,
        search_points_count=16,
        search_radius=8,
        fixed_point_format=FixedPointFormat(12, 4),
    )
    state = MeshState(np.array([0.5, -0.25]), 0.25, 1.0)
    bits, points = select_search_points(state, basis, config)
    assert len(bits) == 16 and len(set(bits)) == 16
    xk_bits = "".join(
        format(int(c * 16) & 0xFFF, "012b") for c in state.iterate
    )
    assert xk_bits not in bits
    for y in points:
        z = recover_z_coordinate_basis(y, state)  # membership in the mesh
        np.testing.assert_allclose(
            state.iterate + state.mesh_size * basis.directions @ z, y, atol=0
        )
        assert z.any()


def test_select_search_points_exhaustion():
    # n=1 with radius 1: the only nonzero candidates are x +/- mesh_size
    # (z=(1,1) lands back on the excluded incumbent).
    basis = PatternBasis.coordinate(1)
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=4,
        search_radius=1,
        fixed_point_format=FixedPointFormat(8, 0),
    )
    state = MeshState(np.array([0.0]), 1.0, 0.0)
    with pytest.raises(MeshExhaustedError):
        select_search_points(state, basis, config)
    config2 = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=2,
        search_radius=1,
        fixed_point_format=FixedPointFormat(8, 0),
    )
    bits, points = select_search_points(state, basis, config2)
    assert sorted(y[0] for y in points) == [-1.0, 1.0]


def test_select_search_points_off_grid_mesh():
    basis = PatternBasis.coordinate(1)
    config = GpsConfig(
        initial_mesh_size=0.125,
        search_points_count=2,
        search_radius=2,
        fixed_point_format=FixedPointFormat(8, 2),  # resolution 0.25
    )
    state = MeshState(np.array([0.0]), 0.125, 0.0)
    with pytest.raises(EncodingError):
        select_search_points(state, basis, config)


def reference_select_search_points(state, basis, config):
    """The per-point selection loop that the array version replaced: draw one
    z at a time and encode its point with encode_point_exact."""
    rng = np.random.default_rng([config.rng_seed, state.iteration, 0])
    fmt = config.fixed_point_format
    n_wanted = config.search_points_count
    cap = config.search_radius
    p = basis.num_directions
    xk_bits = encode_point_exact(state.iterate, fmt)
    found = {}

    def consider(z):
        y = state.iterate + state.mesh_size * (
            basis.directions @ np.asarray(z, dtype=float)
        )
        try:
            bits = encode_point_exact(y, fmt)
        except FixedPointOverflowError:
            return
        if bits != xk_bits and bits not in found:
            found[bits] = y

    draws = 0
    while len(found) < n_wanted and draws < 50 * n_wanted:
        z = rng.integers(0, cap + 1, size=p)
        draws += 1
        if z.any():
            consider(z)
    if len(found) < n_wanted:
        for z in pattern._small_z_enumeration(p, cap):
            consider(z)
            if len(found) >= n_wanted:
                break
    if len(found) < n_wanted:
        raise MeshExhaustedError(
            f"only {len(found)} distinct representable mesh points exist, "
            f"{n_wanted} requested"
        )
    bits_list = list(found)[:n_wanted]
    return bits_list, np.array([found[b] for b in bits_list])


def _selection_outcome(select, state, basis, config):
    try:
        bits, points = select(state, basis, config)
    except (EncodingError, FixedPointOverflowError, MeshExhaustedError) as exc:
        return type(exc), str(exc)
    return bits, [y.tobytes() for y in points]


@st.composite
def selection_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.just(32) | st.integers(2, 32))  # n >= 2 at 32 bits: n*d > 63
    q = draw(st.integers(0, d - 1))
    fmt = FixedPointFormat(d, q)
    if draw(st.booleans()):
        basis = PatternBasis.coordinate(n)
    else:  # dyadic, not the identity: powers of 2 on and below the diagonal
        g = np.diag([2.0 ** draw(st.integers(-2, 2)) for _ in range(n)])
        for i in range(1, n):
            g[i, i - 1] = draw(st.sampled_from([-0.5, 0.25, 1.0]))
        eye = np.eye(n, dtype=int)
        basis = PatternBasis(g, np.hstack([eye, -eye]))
    p = basis.num_directions
    # (cap + 1)^p <= 2e5 keeps the reference's walk of every small z short.
    cap = draw(st.integers(1, max(c for c in range(1, 450) if (c + 1) ** p <= 2e5)))
    capacity = 2 ** (n * d) - 1
    n_points = 2 ** draw(st.integers(0, min(8, capacity.bit_length() - 1)))
    # Dyadic meshes land on the grid unless finer than 2^-q; 0.375 and 0.3
    # times a power of 2 can leave it.
    mesh = draw(st.sampled_from([1.0, 1.0, 0.375, 0.3])) * 2.0 ** draw(
        st.integers(-q - 2, 3)
    )
    # The range edges, and one past the top, where the incumbent overflows.
    edge = [fmt.min_units, fmt.min_units + 1, 0, fmt.max_units, fmt.max_units + 1]
    units = [
        draw(st.sampled_from(edge) | st.integers(fmt.min_units, fmt.max_units))
        for _ in range(n)
    ]
    state = MeshState(
        np.array([math.ldexp(u, -q) for u in units]),
        mesh,
        0.0,
        draw(st.integers(0, 10**6)),
    )
    config = GpsConfig(
        initial_mesh_size=mesh,
        search_points_count=n_points,
        search_radius=cap,
        fixed_point_format=fmt,
        rng_seed=draw(st.integers(0, 2**32)),
    )
    return state, basis, config


def _mixed_steps_case(scales, iterate, seed):
    # Steps of 0.25 leave the 0.5 grid and unit steps from 63.5 leave the
    # range, so rows can break both ways: encode_point_exact stops at a row's
    # first bad coordinate, raising off the grid and skipping out of range.
    eye = np.eye(2, dtype=int)
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_radius=8,
        fixed_point_format=FixedPointFormat(8, 1),
        rng_seed=seed,
    )
    basis = PatternBasis(np.diag(scales), np.hstack([eye, -eye]))
    return MeshState(np.array(iterate), 1.0, 0.0), basis, config


@settings(max_examples=150, deadline=None)
@given(selection_cases())
@example(_mixed_steps_case((0.25, 1.0), (0.0, 63.5), seed=3))
@example(_mixed_steps_case((1.0, 0.25), (63.5, 0.0), seed=0))
def test_select_search_points_equals_per_point_reference(case):
    state, basis, config = case
    assert _selection_outcome(
        select_search_points, state, basis, config
    ) == _selection_outcome(reference_select_search_points, state, basis, config)


def test_select_search_points_refuses_more_points_than_the_register_holds(
    monkeypatch,
):
    def no_top_up(p, cap):
        raise AssertionError("walked the small-z top-up")

    monkeypatch.setattr(pattern, "_small_z_enumeration", no_top_up)
    basis = PatternBasis.coordinate(3)
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=4096,
        search_radius=40,
        fixed_point_format=FixedPointFormat(4, 0),
    )
    state = MeshState(np.zeros(3), 1.0, 0.0)
    with pytest.raises(MeshExhaustedError, match="point register of 12 bits holds only 4095 "):
        select_search_points(state, basis, config)


@pytest.mark.parametrize("n,n_points,reachable", [(2, 128, 63), (3, 512, 511)])
def test_select_search_points_refuses_a_too_coarse_mesh_without_walking(
    monkeypatch, n, n_points, reachable
):
    def no_top_up(p, cap):
        raise AssertionError("walked the small-z top-up")

    monkeypatch.setattr(pattern, "_small_z_enumeration", no_top_up)
    # Steps of 2 from 0 reach 8 positions per axis in [-8, 7], the register
    # could hold more.
    config = GpsConfig(
        initial_mesh_size=2.0,
        search_points_count=n_points,
        search_radius=40,
        fixed_point_format=FixedPointFormat(4, 0),
    )
    state = MeshState(np.zeros(n), 2.0, 0.0)
    with pytest.raises(
        MeshExhaustedError,
        match=f"only {reachable} distinct representable mesh points exist, "
        f"{n_points} requested",
    ):
        select_search_points(state, PatternBasis.coordinate(n), config)


def test_update_mesh():
    config = GpsConfig(expansion_factor=2.0, contraction_factor=0.5)
    state = MeshState(np.array([1.0]), 1.0, 5.0, iteration=3)
    improved = update_mesh(state, ImprovedPoint(np.array([2.0]), 4.0), config)
    assert improved.mesh_size == 2.0
    assert improved.incumbent_value == 4.0
    assert improved.iteration == 4
    stalled = update_mesh(state, None, config)
    assert stalled.mesh_size == 0.5
    assert stalled.incumbent_value == 5.0
    np.testing.assert_array_equal(stalled.iterate, state.iterate)


def test_classical_search_step():
    ledger = OracleLedger()
    points = [np.array([float(i)]) for i in range(8)]
    assert classical_search_step(points, lambda x: 9.0, 5.0, ledger) is None
    assert ledger.classical_calls == 8

    ledger = OracleLedger()
    hit = classical_search_step(points, lambda x: float(x[0]), 5.0, ledger)
    assert hit.value == 0.0 and ledger.classical_calls == 1


def test_classical_search_step_mean_position():
    # One improving point planted uniformly: mean call count ~ (N+1)/2.
    n = 64
    rng = np.random.default_rng(1)
    totals = []
    for _ in range(2000):
        spot = int(rng.integers(n))
        points = [np.array([float(i)]) for i in range(n)]
        ledger = OracleLedger()
        out = classical_search_step(
            points, lambda x: -1.0 if int(x[0]) == spot else 1.0, 0.0, ledger
        )
        assert out is not None
        totals.append(ledger.classical_calls)
    assert abs(np.mean(totals) - (n + 1) / 2) < 2.0


def quadratic_config(**overrides):
    defaults = dict(
        initial_mesh_size=0.5,
        mesh_size_tolerance=1e-2,
        search_points_count=8,
        search_radius=4,
        fixed_point_format=FixedPointFormat(16, 8),
        max_iterations=100,
        rng_seed=0,
    )
    defaults.update(overrides)
    return GpsConfig(**defaults)


def test_gps_run_classical_sphere():
    basis = PatternBasis.coordinate(1)
    run = gps_run(
        lambda x: float(x[0] ** 2), basis, quadratic_config(), "classical", [1.0]
    )
    assert run.stop_reason == "mesh-tolerance"
    assert len(run.records) < 100
    assert abs(run.final_state.iterate[0]) <= 1e-2 * 4  # within a few mesh cells
    values = [r.value for r in run.records]
    assert all(b <= a for a, b in zip(values, values[1:]))
    for r in run.records:
        exponent = math.log2(r.mesh_size / 0.5)
        assert exponent == round(exponent)  # mesh sizes stay on the dyadic grid


def test_gps_run_constant_objective_contracts_every_iteration():
    basis = PatternBasis.coordinate(2)
    run = gps_run(lambda x: 1.0, basis, quadratic_config(), "classical", [0.5, 0.5])
    assert run.stop_reason == "mesh-tolerance"
    assert all(r.outcome == "mesh-local-optimizer" for r in run.records)
    sizes = [r.mesh_size for r in run.records]
    assert sizes == [0.5 * 2**-k for k in range(len(sizes))]
    assert run.final_state.mesh_size < 1e-2


def test_gps_run_polls_without_rechecking_the_basis(monkeypatch):
    # PatternBasis checked its directions once; polls and poll events trust it.
    basis = PatternBasis.coordinate(2)
    calls = []
    monkeypatch.setattr(
        pattern, "positive_spanning_check", lambda d: calls.append(d) or True
    )
    events = []
    run = gps_run(lambda x: 1.0, basis, quadratic_config(), "classical", [0.5, 0.5],
                  event_sink=events.append)
    assert any(e["type"] == "poll-candidates" for e in events)
    assert all(r.outcome == "mesh-local-optimizer" for r in run.records)
    assert calls == []


def test_gps_run_record_update_consistency():
    basis = PatternBasis.coordinate(2)
    run = gps_run(
        lambda x: float(np.dot(x, x)), basis, quadratic_config(), "classical", [0.5, 0.25]
    )
    for a, b in zip(run.records, run.records[1:]):
        if a.outcome == "mesh-local-optimizer":
            np.testing.assert_array_equal(a.iterate, b.iterate)
            assert b.mesh_size == pytest.approx(a.mesh_size * 0.5)
        else:
            assert b.value < a.value
            assert b.mesh_size == pytest.approx(a.mesh_size)  # expansion 1.0


def test_gps_run_budget_exhausted():
    basis = PatternBasis.coordinate(2)
    run = gps_run(
        lambda x: float(np.dot(x, x)),
        basis,
        quadratic_config(max_oracle_calls=10, mesh_size_tolerance=1e-9),
        "classical",
        [0.5, 0.5],
    )
    assert run.stop_reason == "budget-exhausted"


def test_gps_run_deterministic():
    basis = PatternBasis.coordinate(2)
    runs = [
        gps_run(
            lambda x: float(np.dot(x, x)), basis, quadratic_config(rng_seed=5),
            "classical", [0.75, -0.5],
        )
        for _ in range(2)
    ]
    assert len(runs[0].records) == len(runs[1].records)
    for a, b in zip(runs[0].records, runs[1].records):
        np.testing.assert_array_equal(a.iterate, b.iterate)
        assert (a.value, a.mesh_size, a.outcome) == (b.value, b.mesh_size, b.outcome)
        assert a.ledger_snapshot == b.ledger_snapshot


def test_gps_run_validation():
    basis = PatternBasis.coordinate(2)
    with pytest.raises(ValueError):
        gps_run(lambda x: 0.0, basis, quadratic_config(), "annealing", [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        gps_run(lambda x: 0.0, basis, quadratic_config(), "classical", [0.0])
    with pytest.raises(EncodingError):
        gps_run(lambda x: 0.0, basis, quadratic_config(), "classical", [0.3, 0.0])


def test_gps_run_refuses_an_unreachable_tau_before_evaluating():
    from qpsearch.amplify import DomainError, QSearchParams

    calls = []

    def counting(x):
        calls.append(1)
        return float(x @ x)

    with pytest.raises(DomainError):
        gps_run(
            counting, PatternBasis.coordinate(2),
            quadratic_config(search_points_count=16), "quantum",
            [0.5, 0.5], qsearch_params=QSearchParams(tau=5e-14),
        )
    assert calls == []


def test_gps_config_validation():
    with pytest.raises(ValueError):
        GpsConfig(expansion_factor=1.5)
    with pytest.raises(ValueError):
        GpsConfig(contraction_factor=0.3)
    with pytest.raises(ValueError):
        GpsConfig(search_points_count=12)
    with pytest.raises(ValueError):
        GpsConfig(initial_mesh_size=0.0)
    with pytest.raises(ValueError):
        GpsConfig(search_radius=0)
