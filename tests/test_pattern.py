"""Pattern-search machinery: spanning checks, mesh ops, poll, outer loop."""
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog  # test extra: the LP the NNLS check replaced

from qpsearch.fixedpoint import (
    EncodingError,
    FixedPointFormat,
    FixedPointOverflowError,
    encode_point_exact,
)
from qpsearch import pattern, quantum_step
from qpsearch.ledger import OracleLedger
from qpsearch.objectives import make_objective, objective_names
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
    step_rng,
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


def test_positive_spanning_refuses_a_matrix_with_no_rows():
    with pytest.raises(DimensionMismatchError, match="at least one row"):
        positive_spanning_check(np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_positive_spanning_refuses_non_finite_entries(bad):
    # NaN used to fail inside the SVD, and inf to read as not spanning.
    d = np.hstack([np.eye(2), -np.eye(2)])
    d[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        positive_spanning_check(d)


def test_positive_spanning_raises_when_nnls_does_not_settle(monkeypatch):
    # A column that never enters is picked again each step until the 3p bound.
    # The memo may hold the tripod's answer from an earlier test.
    pattern._spans.cache_clear()
    monkeypatch.setattr(
        pattern, "_passive_solution", lambda a, b, passive: np.where(passive, -1.0, 0.0)
    )
    tripod = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])
    with pytest.raises(RuntimeError, match="did not settle in 9 steps"):
        positive_spanning_check(tripod)


def lp_positive_spanning(d: np.ndarray) -> bool:
    """The check as a linear program: rank D = n and D @ lam = 0 is feasible
    with lam >= 1 (HiGHS)."""
    n, p = d.shape
    if p < n + 1 or np.linalg.matrix_rank(d) < n:
        return False
    res = linprog(
        c=np.zeros(p),
        A_eq=d,
        b_eq=np.zeros(n),
        bounds=[(1.0, None)] * p,
        method="highs",
    )
    return res.status == 0


@st.composite
def spanning_cases(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["integer", "dyadic", "basis"]))

    def matrix(rows, cols, entry):
        return np.array([[draw(entry) for _ in range(cols)] for _ in range(rows)], dtype=float)

    if kind == "integer":
        return matrix(n, draw(st.integers(n, 2 * n + 3)), st.integers(-2, 2))
    if kind == "dyadic":
        scale = 2.0 ** draw(st.integers(-12, 12))
        return scale * matrix(n, draw(st.integers(n, 2 * n + 3)), st.integers(-8, 8)) / 8
    # D = G @ Z: G nonsingular and dyadic, Z integer.
    g = matrix(n, n, st.integers(-8, 8)) / 4
    assume(abs(np.linalg.det(g)) > 1e-9)
    eye = np.eye(n, dtype=int)
    z = draw(st.sampled_from(["maximal", "minimal", "integer"]))
    if z == "maximal":
        z = np.hstack([eye, -eye])
    elif z == "minimal":  # I and -1: the smallest positive basis, maybe more
        extra = matrix(n, draw(st.integers(0, n + 2)), st.integers(-2, 2))
        z = np.hstack([eye, -np.ones((n, 1)), extra])
    else:
        z = matrix(n, draw(st.integers(n, 2 * n + 3)), st.integers(-2, 2))
    return g @ z


@settings(max_examples=300, deadline=None)
@given(spanning_cases())
@example(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))  # a half-plane
@example(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))  # minimal positive basis
@example(np.array([[1.0, -1.0, 2.0], [1.0, -1.0, 2.0]]))  # rank 1
# Zero columns, and a gradient that is only the rounding of -D @ 1: the
# entering column's coefficient came out 0 and the back-off divided 0 by 0.
@example(np.array([[0, 0, 0, 0.25, 0.5, 0], [0, 0, 0, 0.5, -3.5, 3]]))
def test_positive_spanning_agrees_with_the_lp(d):
    assert positive_spanning_check(d) == lp_positive_spanning(d)


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
    # Entries int64 cannot hold used to wrap in astype(int), or, as Python
    # ints past uint64, to raise TypeError; they are refused before the shapes.
    for z in (
        np.array([[2.0**63, -(2.0**63)]]),
        np.array([[2**63, 1]], dtype=np.uint64),
        [[2**64, -1]],
        [[-(2**63) - 1, 1]],
    ):
        with pytest.raises(ValueError, match="past the int64 range"):
            PatternBasis(np.eye(1), z)
        with pytest.raises(ValueError, match="past the int64 range"):
            PatternBasis(np.ones((2, 3)), z)
    basis = PatternBasis(np.eye(1), np.array([[2.0**62, -(2.0**63)]]))
    assert basis.integer_combinations.tolist() == [[2**62, -(2**63)]]


# Entries whose spans and ranks vary: signed zeros, whole numbers and
# fractions.
MEMO_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.5, -0.75])


@settings(max_examples=60, deadline=None)
@given(st.lists(MEMO_ENTRIES, min_size=12, max_size=12))
@example([1.0, 0.0, -1.0, 0.0, 0.5, -0.0, 0.0, 1.0, 0.0, -1.0, -0.75, 3.0])
@example([0.0] * 12)
def test_basis_memos_agree_with_the_uncached_checks(entries):
    data = np.array(entries)
    hits = pattern._spans.cache_info().hits
    # The same bytes under four shapes, twice round: the memo holds two
    # matrices, so each is evicted before the second round meets it again.
    for shape in [(2, 6), (3, 4), (4, 3), (6, 2)] * 2:
        d = data.reshape(shape)
        key = (shape, d.tobytes())
        expected = pattern._spans.__wrapped__(*key)
        assert pattern._spans(*key) == pattern._spans(*key) == expected
        assert positive_spanning_check(d) == (shape[1] > shape[0] and expected)
    assert pattern._spans.cache_info().hits >= hits + 8
    for n in (1, 2, 3):
        g = data[: n * n].reshape(n, n)
        # [G, -G] spans exactly when G is nonsingular.
        singular = np.linalg.matrix_rank(g) < n
        eye = np.eye(n, dtype=int)
        for _ in range(2):  # the second build reads the memo
            if singular:
                with pytest.raises(NotPositiveSpanningError):
                    PatternBasis(g, np.hstack([eye, -eye]))
            else:
                basis = PatternBasis(g, np.hstack([eye, -eye]))
                np.testing.assert_array_equal(basis.directions, np.hstack([g, -g]))


@pytest.mark.parametrize(
    "g", [2.0**-14 * np.eye(3), 0.5 * np.eye(40)], ids=["2^-14 I3", "0.5 I40"]
)
def test_pattern_basis_accepts_a_small_well_conditioned_g(g):
    # |det G| is 2^-42 and 2^-40: a determinant test of 1e-12 refused both.
    n = g.shape[0]
    eye = np.eye(n, dtype=int)
    basis = PatternBasis(g, np.hstack([eye, -eye]))
    np.testing.assert_array_equal(basis.directions, np.hstack([g, -g]))


@pytest.mark.parametrize(
    "g", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])], ids=["zeros", "rank 1"]
)
def test_pattern_basis_refuses_a_singular_g_by_its_rank(g):
    eye = np.eye(2, dtype=int)
    with pytest.raises(NotPositiveSpanningError):
        PatternBasis(g, np.hstack([eye, -eye]))


@pytest.mark.parametrize("z_dtype", [int, float])
def test_pattern_basis_keeps_no_array_of_the_caller(z_dtype):
    # Writing to the caller's G or Z after the build changes no basis array.
    g = np.eye(2)
    z = np.hstack([np.eye(2), -np.eye(2)]).astype(z_dtype)
    basis = PatternBasis(g, z)
    names = ("generating", "integer_combinations", "directions")
    built = {name: getattr(basis, name).copy() for name in names}
    g[0, 0] = 0.0
    z[0, 0] = 5
    for name in names:
        np.testing.assert_array_equal(getattr(basis, name), built[name])


def test_coordinate_bases_share_no_array():
    first, second = PatternBasis.coordinate(3), PatternBasis.coordinate(3)
    for name in ("generating", "integer_combinations", "directions"):
        a, b = getattr(first, name), getattr(second, name)
        np.testing.assert_array_equal(a, b)
        assert a.flags.writeable and b.flags.writeable
        a[0, 0] = 7
        assert b[0, 0] == 1


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_pattern_basis_refuses_non_finite_generating_entries(bad):
    # inf used to read as a singular G, and NaN to warn inside det first.
    g = np.eye(2)
    g[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PatternBasis(g, np.hstack([np.eye(2, dtype=int), -np.eye(2, dtype=int)]))


def test_pattern_basis_refuses_mismatched_shapes():
    with pytest.raises(DimensionMismatchError, match="must be square"):
        PatternBasis(np.ones((2, 3)), np.eye(2, dtype=int))
    with pytest.raises(DimensionMismatchError, match="must be 2 x p"):
        PatternBasis(np.eye(2), np.eye(3, dtype=int))


def test_mesh_state_refuses_a_mesh_size_of_zero():
    with pytest.raises(ValueError, match="mesh size must be positive"):
        MeshState(np.zeros(1), 0.0, 0.0)


def test_mesh_point_refuses_z_of_the_wrong_length():
    state = MeshState(np.zeros(2), 1.0, 0.0)
    with pytest.raises(DimensionMismatchError, match="z must have length 4"):
        mesh_point(state, PatternBasis.coordinate(2), [1, 0, 0])


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
    points = select_search_points(state, basis, config)
    assert points.shape == (16, 2) and points.dtype == np.float64
    bits = [encode_point_exact(y, config.fixed_point_format) for y in points]
    assert len(set(bits)) == 16
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
    points = select_search_points(state, basis, config2)
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
    z at a time and encode its point with encode_point_exact.

    Every basis drawn here is G [I, -I], so y depends on z only through
    k = z+ - z- (exactly, as G is dyadic), and considering a y again changes
    nothing.  So each k is considered once, and the small z walk visits only
    each k's first z, (k+, k-), by increasing 1-norm, lexicographic within.
    Once every k has been considered, no further draw can add a point.
    """
    rng = np.random.default_rng([config.rng_seed, state.iteration, 0])
    fmt = config.fixed_point_format
    n_wanted = config.search_points_count
    cap = config.search_radius
    n, p = basis.dimension, basis.num_directions
    eye = np.eye(n, dtype=int)
    assert np.array_equal(basis.integer_combinations, np.hstack([eye, -eye]))
    xk_bits = encode_point_exact(state.iterate, fmt)
    found = {}
    tried = set()

    def consider(z):
        k = tuple(a - b for a, b in zip(z[:n], z[n:]))
        if not any(k) or k in tried:  # k = 0 is the incumbent
            return
        tried.add(k)
        with np.errstate(over="ignore"):  # an infinite coordinate is out of range
            y = state.iterate + state.mesh_size * (
                basis.directions @ np.asarray(z, dtype=float)
            )
        try:
            bits = encode_point_exact(y, fmt)
        except FixedPointOverflowError:
            return
        if bits != xk_bits and bits not in found:
            found[bits] = y

    def signed(total, parts):
        # Every k in Z^parts with |k|_1 = total and each |k_i| <= cap.
        if parts == 1:
            yield from {(total,), (-total,)} if total <= cap else ()
            return
        for a in range(-min(total, cap), min(total, cap) + 1):
            yield from ((a,) + rest for rest in signed(total - abs(a), parts - 1))

    def first_z():
        for total in range(1, n * cap + 1):
            yield from sorted(
                tuple(max(v, 0) for v in k) + tuple(max(-v, 0) for v in k)
                for k in signed(total, n)
            )

    draws = 0
    nonzero_k = (2 * cap + 1) ** n - 1
    while len(found) < n_wanted and draws < 50 * n_wanted and len(tried) < nonzero_k:
        draws += 1
        consider(rng.integers(0, cap + 1, size=p).tolist())
    for z in first_z():
        if len(found) >= n_wanted:
            break
        consider(z)
    if len(found) < n_wanted:
        raise MeshExhaustedError(
            f"only {len(found)} distinct representable mesh points exist, "
            f"{n_wanted} requested"
        )
    return np.array(list(found.values())[:n_wanted])


def _selection_outcome(select, state, basis, config):
    try:
        points = select(state, basis, config)
    except (EncodingError, FixedPointOverflowError, MeshExhaustedError) as exc:
        return type(exc), str(exc)
    return points.dtype, points.shape, [y.tobytes() for y in points]


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


def _coordinate_case(mesh, n_points, radius, dimension=2):
    # The coordinate basis around the origin in format 8/0.
    config = GpsConfig(
        initial_mesh_size=mesh,
        search_points_count=n_points,
        search_radius=radius,
        fixed_point_format=FixedPointFormat(8, 0),
        rng_seed=5,
    )
    basis = PatternBasis.coordinate(dimension)
    return MeshState(np.zeros(dimension), mesh, 0.0), basis, config


@settings(max_examples=150, deadline=None)
@given(selection_cases())
@example(_mixed_steps_case((0.25, 1.0), (0.0, 63.5), seed=3))
@example(_mixed_steps_case((1.0, 0.25), (63.5, 0.0), seed=0))
# Every coordinate of every chunk on the grid and in range.
@example(_coordinate_case(1.0, 16, 4))
# Steps of 2^1023: two or more overflow to inf, one leaves the range.
@example(_coordinate_case(2.0**1023, 1, 2))
# One dimension, k in [-200, 200] against the register's [-128, 127]: about a
# third of each chunk's rows leave the range, one column each.
@example(_coordinate_case(1.0, 64, 200, dimension=1))
def test_select_search_points_equals_per_point_reference(case):
    state, basis, config = case
    assert _selection_outcome(
        select_search_points, state, basis, config
    ) == _selection_outcome(reference_select_search_points, state, basis, config)


@pytest.mark.parametrize("seed", range(10))
def test_select_search_points_equals_reference_at_the_compare_setting(seed):
    # The benchmark's compare op: N = 1024 in 2-D around the origin, 8/0.
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=1024,
        search_radius=40,
        fixed_point_format=FixedPointFormat(8, 0),
        rng_seed=seed,
    )
    state = MeshState(np.zeros(2), 1.0, 0.0)
    basis = PatternBasis.coordinate(2)
    assert _selection_outcome(
        select_search_points, state, basis, config
    ) == _selection_outcome(reference_select_search_points, state, basis, config)


class _RecordingRng:
    """A step generator that records the row count of each z chunk drawn."""

    def __init__(self, rng):
        self.rng, self.rows = rng, []

    def integers(self, low, high, size):
        self.rows.append(size[0])
        return self.rng.integers(low, high, size=size)


def _recorded_selection(monkeypatch, state, basis, config):
    made = []

    def recording(*seed):
        made.append(_RecordingRng(step_rng(*seed)))
        return made[-1]

    monkeypatch.setattr(pattern, "step_rng", recording)
    return _selection_outcome(select_search_points, state, basis, config), made[0].rows


@pytest.mark.parametrize(
    "n_points,cap",
    [(1024, 16), (1024, 17), (256, 8)],  # 1,089, 1,225 and 289 reachable points
)
@pytest.mark.parametrize("seed", range(4))
def test_select_search_points_equals_reference_when_the_top_up_falls_short(
    monkeypatch, n_points, cap, seed
):
    # The second chunk draws twice the points still missing, too few here,
    # and full chunks follow it.
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=n_points,
        search_radius=cap,
        fixed_point_format=FixedPointFormat(8, 0),
        rng_seed=seed,
    )
    state = MeshState(np.zeros(2), 1.0, 0.0, seed)
    basis = PatternBasis.coordinate(2)
    outcome, rows = _recorded_selection(monkeypatch, state, basis, config)
    assert rows[0] == n_points and 64 <= rows[1] < n_points
    assert len(rows) > 2 and rows[2] == n_points
    assert outcome == _selection_outcome(reference_select_search_points, state, basis, config)


def test_select_search_points_equals_reference_when_the_draw_budget_cuts_the_top_up(
    monkeypatch,
):
    # N = 2 draws at most 100 z: the first chunk's 64, then 36 of the top-up's
    # 64.  Steps of up to 10^6 rarely land in [-128, 127], so the small z
    # enumeration supplies the points.
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=2,
        search_radius=10**6,
        fixed_point_format=FixedPointFormat(8, 0),
        rng_seed=5,
    )
    state = MeshState(np.zeros(1), 1.0, 0.0)
    basis = PatternBasis.coordinate(1)
    outcome, rows = _recorded_selection(monkeypatch, state, basis, config)
    assert rows == [64, 36]
    assert outcome == _selection_outcome(reference_select_search_points, state, basis, config)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64 + 3, 10**30])
@pytest.mark.parametrize("iteration", [0, 2**32, 2**40])
def test_step_rng_equals_the_generator_seeded_by_the_list(seed, iteration):
    for stream in (0, 1, 2):
        rng = np.random.default_rng([seed, iteration, stream])
        assert step_rng(seed, iteration, stream).bit_generator.state == rng.bit_generator.state
    with pytest.raises(ValueError):
        step_rng(seed, -1, 0)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_select_search_points_returns_a_fresh_array_at_the_gps_setting(dimension, seed):
    # The benchmark's GPS runs: N = 16, radius 4, format 18/8, a 0.5 mesh
    # around a start on the quarter grid.  The first chunk's 64 draws hold
    # the 16 points, and the one gather of them is returned as it is.
    config = GpsConfig(
        initial_mesh_size=0.5,
        search_points_count=16,
        search_radius=4,
        fixed_point_format=FixedPointFormat(18, 8),
        rng_seed=seed,
    )
    start = np.random.default_rng(seed).integers(0, 9, size=dimension) / 4 - 1
    state = MeshState(start, 0.5, 0.0, seed)
    basis = PatternBasis.coordinate(dimension)
    points = select_search_points(state, basis, config)
    assert points.dtype == np.float64 and points.shape == (16, dimension)
    assert points.flags.c_contiguous and points.flags.owndata and points.base is None
    assert _selection_outcome(
        select_search_points, state, basis, config
    ) == _selection_outcome(reference_select_search_points, state, basis, config)


def test_select_search_points_skips_redraws_in_a_later_chunk():
    # In 1-D, z = (a, b) steps a - b from the origin. Seed 31's first chunk
    # of 64 draws reaches 6 of the 8 points; the second chunk draws the
    # incumbent and points the first chunk took before it reaches 4 and -4.
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=8,
        search_radius=4,
        fixed_point_format=FixedPointFormat(8, 0),
        rng_seed=31,
    )
    z = np.random.default_rng([31, 0, 0]).integers(0, 5, size=(128, 2))
    steps = z[:, 0] - z[:, 1]
    first = set(steps[:64][z[:64].any(axis=1)].tolist()) - {0}
    assert first == {-3, -2, -1, 1, 2, 3}
    second = list(zip(steps[64:96].tolist(), z[64:96].any(axis=1).tolist()))
    assert (0, True) in second and any(s in first for s, _ in second)
    assert not {4, -4} & {s for s, _ in second}

    state = MeshState(np.zeros(1), 1.0, 0.0)
    basis = PatternBasis.coordinate(1)
    points = select_search_points(state, basis, config)
    assert points.ravel().tolist() == [-2.0, 2.0, -1.0, 3.0, -3.0, 1.0, 4.0, -4.0]
    assert _selection_outcome(
        select_search_points, state, basis, config
    ) == _selection_outcome(reference_select_search_points, state, basis, config)


def test_select_search_points_stops_before_an_off_grid_row_it_does_not_need():
    # Seed 31 steps -2, 2, then -1: a quarter step leaves the 0.5 grid only
    # after the two points are taken, in the same chunk.
    config = GpsConfig(
        initial_mesh_size=0.25,
        search_points_count=2,
        search_radius=4,
        fixed_point_format=FixedPointFormat(8, 1),
        rng_seed=31,
    )
    state = MeshState(np.zeros(1), 0.25, 0.0)
    points = select_search_points(state, PatternBasis.coordinate(1), config)
    assert points.ravel().tolist() == [-0.5, 0.5]
    with pytest.raises(EncodingError):
        select_search_points(state, PatternBasis.coordinate(1), replace(config, search_points_count=4))


def test_select_search_points_at_the_cap_returns_one_owned_array():
    # N = 2^20, the most GpsConfig accepts, drawn in several chunks.
    fmt = FixedPointFormat(32, 0)
    config = GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=2**20,
        search_radius=10**6,
        fixed_point_format=fmt,
    )
    state = MeshState(np.zeros(2), 1.0, 0.0)
    points = select_search_points(state, PatternBasis.coordinate(2), config)
    assert points.shape == (2**20, 2) and points.dtype == np.float64
    # One C-contiguous copy that owns its data keeps no draw chunk alive.
    assert points.flags.c_contiguous and points.flags.owndata
    assert np.all(points == np.floor(points))
    assert np.all((points >= fmt.min_units) & (points <= fmt.max_units))
    units = points.astype(np.int64)
    ordered = units[np.lexsort(units.T[::-1])]
    assert np.all(np.any(ordered[1:] != ordered[:-1], axis=1))  # distinct
    assert not np.any(np.all(units == 0, axis=1))  # not the incumbent


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


@pytest.mark.parametrize(
    "n_points,mesh_size",
    [
        (2**20, 1.0),  # the most points GpsConfig accepts
        (8192, 0.3),  # the first drawn point is off the grid
    ],
)
def test_select_search_points_refuses_past_the_register_before_drawing(
    n_points, mesh_size
):
    config = GpsConfig(
        initial_mesh_size=mesh_size,
        search_points_count=n_points,
        fixed_point_format=FixedPointFormat(6, 0),
    )
    state = MeshState(np.zeros(2), mesh_size, 0.0)
    with pytest.raises(MeshExhaustedError, match="point register of 12 bits holds only 4095 "):
        select_search_points(state, PatternBasis.coordinate(2), config)


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


def test_select_search_points_refuses_an_infinite_step_without_walking(monkeypatch):
    # mesh_size * 2^q overflows: no move stays in range, so the axes count
    # one position each, where the top-up would walk 9^6 combinations in 3-D.
    def no_top_up(p, cap):
        raise AssertionError("walked the small-z top-up")

    monkeypatch.setattr(pattern, "_small_z_enumeration", no_top_up)
    config = GpsConfig(initial_mesh_size=1e308)
    state = MeshState(np.full(3, 0.75), 1e308, 0.0)
    with pytest.raises(MeshExhaustedError, match="only 0 distinct .* 16 requested"):
        select_search_points(state, PatternBasis.coordinate(3), config)


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


def _table_objective(values):
    """An objective that reads row y's value from ``values[int(y[0])]``, in
    both forms: any value, -inf and -0.0 included."""
    table = np.array(values, dtype=float)

    def f(y):
        return table[int(y[0])]

    f.on_rows = lambda rows: table[rows[:, 0].astype(int)]
    return f


def _scan_objective(kind, rows, marked):
    if kind == "planted":
        return quantum_step._planted_objective(rows[list(marked)])
    if kind == "table":
        return _table_objective(marked)
    return make_objective(kind, rows.shape[1])


SCAN_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, math.nan, math.inf, -math.inf])


@st.composite
def scan_cases(draw):
    """A scan: an objective kind, its (N, n) candidate rows, the planted rows
    or table values, and an incumbent (often one of the values, for ties)."""
    kind = draw(st.sampled_from([*objective_names(), "planted", "table"]))
    n = 2 if kind == "rosenbrock" else draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 12))
    coordinate = st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.5, -3.0, 1e3]) | st.floats(
        -1e6, 1e6, allow_nan=False
    )
    if draw(st.booleans()):  # non-finite coordinates
        coordinate |= st.sampled_from([math.nan, math.inf, -math.inf])
    rows = np.array(
        draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                      min_size=n_rows, max_size=n_rows)),
        dtype=float,
    ).reshape(n_rows, n)
    marked = ()
    if kind == "planted":
        marked = tuple(draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=n_rows)))
    elif kind == "table":
        rows[:, 0] = np.arange(n_rows)
        marked = tuple(draw(st.lists(SCAN_VALUES, min_size=n_rows, max_size=n_rows)))
    objective = _scan_objective(kind, rows, marked)
    with np.errstate(all="ignore"):
        values = [float(objective(y)) for y in rows]
    incumbent = draw(st.sampled_from(values) | SCAN_VALUES if values else SCAN_VALUES)
    return kind, rows, marked, incumbent


def _scan_outcome(rows, objective, incumbent):
    ledger = OracleLedger()
    with np.errstate(all="ignore"):
        hit = classical_search_step(rows, objective, incumbent, ledger)
    if hit is None:
        return None, ledger.classical_calls
    return (hit.point.tobytes(), np.float64(hit.value).tobytes()), ledger.classical_calls


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example(("sphere", np.zeros((0, 2)), (), 1.0))  # no candidates
@example(("planted", np.zeros((0, 3)), (), 0.0))
@example(("sphere", np.array([[1.0, 2.0], [3.0, 0.0]]), (), 0.5))  # no improvement
@example(("step", np.array([[0.5, 0.5, 0.5], [2.0, 2.0, 2.0]]), (), 1.0))  # row 0
# A tie with the incumbent is not an improvement: row 2 is.
@example(("quadratic100", np.array([[1.0], [2.0], [0.5]]), (), 1.0))
# NaN and +inf values never improve; -inf does.
@example(("table", np.arange(5.0)[:, None], (math.nan, math.inf, 1.0, -math.inf, -1.0), 0.0))
@example(("rosenbrock", np.array([[math.inf, math.inf], [math.nan, 0.0], [1.0, 1.0]]), (), 1.0))
@example(("sphere", np.array([[0.0, 0.0], [1.0, 1.0]]), (), math.nan))  # NaN incumbent
@example(("table", np.arange(2.0)[:, None], (-math.inf, 0.0), -math.inf))
@example(("planted", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), (1,), 0.0))
def test_scan_on_rows_equals_the_scan_one_row_at_a_time(case):
    # The same objective with on_rows hidden takes the row scan: the same
    # point bytes, value bits and ledger count, from one on_rows call.
    kind, rows, marked, incumbent = case
    objective = _scan_objective(kind, rows, marked)
    calls = []
    on_rows = objective.on_rows

    def counted(x):
        calls.append(len(x))
        return on_rows(x)

    objective.on_rows = counted
    by_row = _scan_outcome(rows, lambda y: objective(y), incumbent)
    assert _scan_outcome(rows, objective, incumbent) == by_row
    assert calls == ([len(rows)] if len(rows) else [])


def test_scan_refuses_an_on_rows_result_that_is_not_one_value_per_row():
    rows = np.zeros((3, 2))
    for result in (1.0, np.zeros(2), np.zeros((3, 1)), np.zeros(4)):
        f = _table_objective([0.0] * 3)
        f.on_rows = lambda x, _r=result: _r
        ledger = OracleLedger()
        with pytest.raises(ValueError, match="one value per row"):
            classical_search_step(rows, f, 1.0, ledger)
        assert ledger.classical_calls == 0


@pytest.mark.parametrize("k", [0, 1, 5, 9, None])
def test_scan_without_on_rows_calls_up_to_the_first_improvement(k):
    # A plain objective is never evaluated past the first improvement.
    points = np.arange(10.0).reshape(10, 1)
    evaluated = []

    def f(y):
        evaluated.append(float(y[0]))
        return -1.0 if y[0] == k else 1.0

    ledger = OracleLedger()
    hit = classical_search_step(points, f, 0.0, ledger)
    calls = 10 if k is None else k + 1
    assert evaluated == [float(i) for i in range(calls)]
    assert ledger.classical_calls == calls
    assert (hit is None) == (k is None)


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


def test_gps_run_records_of_a_float32_objective_serialize():
    # Every scan stores float(objective(y)), so no numpy scalar reaches a record.
    basis = PatternBasis.coordinate(2)
    run = gps_run(
        lambda x: np.float32(np.dot(x, x)), basis, quadratic_config(), "classical",
        [0.75, -0.5],
    )
    assert {"search-success", "poll-success"} <= {r.outcome for r in run.records}
    for record in run.records:
        json.dumps(record.as_record())


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


def test_gps_config_refuses_more_than_2_to_the_20_points():
    assert GpsConfig(search_points_count=2**20).search_points_count == 2**20
    for n_points in (2**21, 2**30, 2**70):
        with pytest.raises(
            ValueError, match=r"search_points_count must be a power of 2 in \[1, 2\^20\]"
        ):
            GpsConfig(search_points_count=n_points)


@pytest.mark.parametrize(
    "n,n_points,cap,mesh",
    [
        (2, 256, 8, 0.5),  # draws only
        (3, 1024, 40, 1.0),  # draws only, 1024-row chunks become 64
        (1, 128, 64, 1.0),  # every reachable point: seeds 1 and 2 enumerate small z
        (2, 256, 8, 0.3),  # the first drawn point is off the grid
    ],
)
def test_select_search_points_does_not_depend_on_the_draw_chunk(
    monkeypatch, n, n_points, cap, mesh
):
    basis = PatternBasis.coordinate(n)
    state = MeshState(np.zeros(n), mesh, 0.0, 3)
    for seed in range(3):
        config = GpsConfig(
            initial_mesh_size=mesh,
            search_points_count=n_points,
            search_radius=cap,
            fixed_point_format=FixedPointFormat(16, 8),
            rng_seed=seed,
        )
        outcomes = []
        for values in (1 << 62, 64):  # unbounded, then 64 values per chunk
            monkeypatch.setattr(pattern, "DRAW_CHUNK_VALUES", values)
            outcomes.append(_selection_outcome(select_search_points, state, basis, config))
        assert outcomes[0] == outcomes[1]


def test_gps_config_refuses_a_radius_past_the_int64_draw():
    assert GpsConfig(search_radius=2**63 - 1).search_radius == 2**63 - 1
    with pytest.raises(ValueError, match=r"search_radius must lie in \[1, 2\^63 - 1\]"):
        GpsConfig(search_radius=2**63)
