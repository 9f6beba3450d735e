"""Sparse-state core: basis maps, phases, preparation reflection, Born rule."""
import math

import numpy as np
import pytest

from qpsearch.state import (
    CollisionError,
    EmptyTargetsError,
    HouseholderPrepare,
    NormalizationError,
    RegisterLayout,
    SparseState,
    apply_basis_map,
    apply_phase,
    measure,
    sample_counts,
)

L1 = RegisterLayout(1, 1, 1)  # smallest legal layout, 3 bits total
L2 = RegisterLayout(2, 1, 1)

INV_SQRT2 = 1 / math.sqrt(2)


def state(layout, **amps):
    return SparseState(layout, {k: v for k, v in amps.items()})


def test_layout_validation_and_slicing():
    lay = RegisterLayout(8, 4, 4)
    assert lay.total_bits == 16
    assert lay.dimension == 2
    assert lay.comparison_sign_index == 12
    b = "1010" + "0110" + "1001" + "0011"
    assert lay.point_part(b) == "10100110"
    assert lay.value_part(b) == "1001"
    assert lay.comparison_part(b) == "0011"
    assert lay.pack("10100110", "1001", "0011") == b
    with pytest.raises(ValueError):
        RegisterLayout(0, 1, 1)
    with pytest.raises(ValueError):
        RegisterLayout(4, 2, 3)  # comparison width must equal value width
    with pytest.raises(ValueError):
        RegisterLayout(5, 2, 2)  # point register not a multiple of d


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
    s = SparseState(RegisterLayout(2, 1, 1), dict(zip(keys, amps)))

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
    op = HouseholderPrepare(["01", "10"])
    out = op(SparseState.zero(L2))
    assert out.amplitude("0100") == pytest.approx(INV_SQRT2)
    assert out.amplitude("1000") == pytest.approx(INV_SQRT2)
    assert out.amplitude("0000") == pytest.approx(0.0, abs=1e-15)


def test_householder_degenerate_zero_target():
    op = HouseholderPrepare(["00"])
    out = op(SparseState.zero(L2))
    assert out.amplitude("0000") == 1.0


def test_householder_errors():
    with pytest.raises(EmptyTargetsError):
        HouseholderPrepare([])
    with pytest.raises(ValueError):
        HouseholderPrepare(["01", "01"])
    with pytest.raises(ValueError):
        HouseholderPrepare(["01", "1"])
    op = HouseholderPrepare(["011"])
    with pytest.raises(ValueError):
        op(SparseState.zero(L2))


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
    op = HouseholderPrepare(targets)
    points, vector = reference_householder_vector(targets)
    assert op.points == points
    assert np.array_equal(op.vector, vector)
    assert op.is_identity == (not points)
    assert op.w == dict(zip(points, vector.tolist()))


def _operator_matrix(op, point_width, suffix="00"):
    """Explicit matrix of the operator on the point register basis."""
    dim = 2**point_width
    layout = RegisterLayout(point_width, 1, 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = format(col, f"0{point_width}b") + suffix
        out = op(SparseState(layout, {bits: 1.0}))
        for b, a in out.amplitudes.items():
            mat[int(b[:point_width], 2), col] = a
    return mat


def test_householder_self_inverse_explicit_matrix():
    op = HouseholderPrepare(["01", "10"])
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
    op = HouseholderPrepare(targets)
    layout = RegisterLayout(width, 1, 1)
    for col in range(2**width):
        bits = format(col, f"0{width}b") + "00"
        once = op(SparseState(layout, {bits: 1.0}))
        twice = op(once)
        assert abs(twice.amplitude(bits) - 1.0) < 1e-9
        assert abs(twice.norm() - 1.0) < 1e-9


def test_operators_preserve_norm():
    rng = np.random.default_rng(3)
    layout = RegisterLayout(4, 2, 2)
    keys = [format(i, "08b") for i in rng.choice(256, size=20, replace=False)]
    amps = rng.normal(size=20) + 1j * rng.normal(size=20)
    amps /= np.linalg.norm(amps)
    s = SparseState(layout, dict(zip(keys, amps)))
    op = HouseholderPrepare([format(i, "04b") for i in (1, 5, 9, 14)])
    for transformed in (
        apply_basis_map(s, lambda b: b[::-1]),
        apply_phase(s, lambda b: b[0] == "1", -1),
        apply_phase(s, lambda b: True, 1j),
        op(s),
        op(op(s)),
    ):
        assert abs(transformed.norm() - 1.0) < 1e-9


def test_measure_deterministic_and_validation():
    s = state(RegisterLayout(2, 1, 1), **{"0110": 1.0})
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
