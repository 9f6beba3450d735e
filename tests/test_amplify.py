"""Amplification: preparation operator, reflections, Q dynamics, both loops."""
import itertools
import math

import numpy as np
import pytest

from qpsearch import amplify
from qpsearch.amplify import (
    DomainError,
    PreparationOperator,
    QSearchParams,
    SafetyCapReachedError,
    SearchProblem,
    analytic_success_probability,
    apply_Q,
    apply_S0,
    apply_Schi,
    desired_probability,
    failure_round_bound,
    is_desired,
    last_failing_round,
    make_planted_problem,
    modified_qsearch,
    qsearch,
)
from qpsearch.fixedpoint import FixedPointFormat, encode_scalar
from qpsearch.ledger import OracleLedger
from qpsearch.state import IndexState, RegisterLayout, SparseState, measure
from test_index_engine import _build_cases, point_strings


def small_problem(values, incumbent, d=4):
    """Problem over len(values) enumerated one-unit points with given real
    values."""
    fmt = FixedPointFormat(d, 0)
    units = np.array([int(encode_scalar(v, fmt), 2) for v in values])
    points = np.arange(len(values))[:, None]
    return SearchProblem(points, encode_scalar(incumbent, fmt), units)


def test_build_a_single_point_equal_value():
    problem = small_problem([5], incumbent=5)
    state = PreparationOperator(problem).prepare_from_zero()
    (bits,) = state.support()
    assert problem.layout.comparison_part(bits) == "0000"
    assert not is_desired(bits, problem.layout)
    assert state.amplitude(bits) == pytest.approx(1.0)


def test_build_a_plus_minus_one():
    problem = small_problem([2, 4], incumbent=3)  # f_k -1 and f_k +1
    state = PreparationOperator(problem).prepare_from_zero()
    comps = {
        problem.layout.point_part(b): problem.layout.comparison_part(b)
        for b in state.support()
    }
    assert comps["0000"] == "1111"
    assert comps["0001"] == "0001"
    signs = {b[problem.layout.comparison_sign_index] for b in state.support()}
    assert signs == {"0", "1"}


def test_build_a_matches_direct_construction():
    # Independent reconstruction of (1/2) sum_j |x_j>|f_j>|f_j - f_k>.
    d = 6
    values = [13, -7, 0, 22]
    incumbent = 9
    problem = small_problem(values, incumbent, d=d)
    state = PreparationOperator(problem).prepare_from_zero()

    expected = {}
    for i, value in enumerate(values):
        point = format(i, f"0{d}b")
        value_units = value % (1 << d)
        diff_units = (value - incumbent) % (1 << d)
        key = point + format(value_units, f"0{d}b") + format(diff_units, f"0{d}b")
        expected[key] = 0.5
    assert set(state.support()) == set(expected)
    for key, amp in expected.items():
        assert state.amplitude(key) == pytest.approx(amp, abs=1e-12)


def test_apply_s0_examples():
    layout = RegisterLayout(1, 1)
    s = SparseState(layout, {"000": 1.0})
    assert apply_S0(s).amplitude("000") == -1.0
    s = SparseState(layout, {"100": 1.0})
    assert apply_S0(s).amplitude("100") == 1.0
    inv = 1 / math.sqrt(2)
    s = SparseState(layout, {"000": inv, "111": inv})
    out = apply_S0(s)
    assert out.amplitude("000") == pytest.approx(-inv)
    assert out.amplitude("111") == pytest.approx(inv)


def test_apply_schi_marks_negative_comparisons_only():
    problem = small_problem([2, 4, 3], incumbent=3)
    state = PreparationOperator(problem).prepare_from_zero()
    flipped = apply_Schi(state)
    layout = problem.layout
    for b in state.support():
        comp = layout.comparison_part(b)
        expected = -state.amplitude(b) if comp[0] == "1" else state.amplitude(b)
        assert flipped.amplitude(b) == pytest.approx(expected)
    # f_j = f_k produces comparison 0000: undesired, amplitude unchanged.
    same = [b for b in state.support() if layout.comparison_part(b) == "0000"]
    assert len(same) == 1
    assert flipped.amplitude(same[0]) == pytest.approx(state.amplitude(same[0]))


def test_apply_q_exact_rotation_n4():
    problem, _ = make_planted_problem(4, 1, marked_indices=[2])
    ops = PreparationOperator(problem)
    state = ops.prepare_from_zero()
    assert desired_probability(state) == pytest.approx(0.25, abs=1e-12)
    state = apply_Q(state, ops)
    assert desired_probability(state) == pytest.approx(1.0, abs=1e-9)


def test_apply_q_with_no_marked_states_is_identity():
    problem, _ = make_planted_problem(8, 0)
    ops = PreparationOperator(problem)
    prepared = ops.prepare_from_zero()
    state = apply_Q(prepared, ops)
    # Q = -A S0 A^-1 here, and the two sign flips cancel exactly.
    assert set(state.support()) == set(prepared.support())
    for b in prepared.support():
        assert state.amplitude(b) == pytest.approx(prepared.amplitude(b), abs=1e-12)
    assert desired_probability(state) == 0.0


def test_apply_q_global_phase_all_marked():
    problem, _ = make_planted_problem(4, 4)
    ops = PreparationOperator(problem)
    prepared = ops.prepare_from_zero()
    state = apply_Q(prepared, ops)
    for b in prepared.support():
        assert state.amplitude(b) == pytest.approx(-prepared.amplitude(b), abs=1e-12)


def test_apply_q_rotation_n16_t4():
    problem, _ = make_planted_problem(16, 4, rng=np.random.default_rng(0))
    ops = PreparationOperator(problem)
    state = ops.prepare_from_zero()
    theta = math.asin(0.5)
    for j in range(3):
        expected = math.sin((2 * j + 1) * theta) ** 2
        assert desired_probability(state) == pytest.approx(expected, abs=1e-9)
        state = apply_Q(state, ops)


@pytest.mark.parametrize("n,t", [(4, 1), (8, 3), (16, 16), (16, 5)])
def test_inverse_preparation_is_identity(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(1))
    ops = PreparationOperator(problem)
    prepared = ops.prepare_from_zero()
    back = ops.apply_inverse(prepared)
    assert back.amplitude(problem.layout.zero_string()) == pytest.approx(1.0, abs=1e-9)
    assert len(back) == 1
    # Unitarity: A^-1 A is the identity on every reachable basis state too.
    for bits in list(prepared.support()):
        unit = SparseState(problem.layout, {bits: 1.0})
        roundtrip = ops.apply_inverse(ops.apply(unit))
        assert roundtrip.amplitude(bits) == pytest.approx(1.0, abs=1e-9)
        assert abs(roundtrip.norm() - 1.0) < 1e-9


def test_state_stays_in_rotation_plane():
    problem, _ = make_planted_problem(16, 3, rng=np.random.default_rng(2))
    ops = PreparationOperator(problem)
    prepared = ops.prepare_from_zero()
    idx = problem.layout.comparison_sign_index
    good = {b: a for b, a in prepared.amplitudes.items() if b[idx] == "1"}
    bad = {b: a for b, a in prepared.amplitudes.items() if b[idx] == "0"}
    g_norm = math.sqrt(sum(abs(a) ** 2 for a in good.values()))
    b_norm = math.sqrt(sum(abs(a) ** 2 for a in bad.values()))
    good = {b: a / g_norm for b, a in good.items()}
    bad = {b: a / b_norm for b, a in bad.items()}

    state = prepared
    for _ in range(8):
        state = apply_Q(state, ops)
        pg = sum(good[b].conjugate() * a for b, a in state.amplitudes.items() if b in good)
        pb = sum(bad[b].conjugate() * a for b, a in state.amplitudes.items() if b in bad)
        residual_sq = sum(
            abs(a - pg * good.get(b, 0) - pb * bad.get(b, 0)) ** 2
            for b, a in state.amplitudes.items()
        )
        assert math.sqrt(residual_sq) < 1e-9


def test_analytic_success_probability():
    assert analytic_success_probability(4, 1, 0) == pytest.approx(0.25)
    assert analytic_success_probability(4, 1, 1) == pytest.approx(1.0)
    assert analytic_success_probability(64, 0, 5) == 0.0
    assert analytic_success_probability(16, 16, 0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        analytic_success_probability(4, 5, 0)
    with pytest.raises(DomainError):
        analytic_success_probability(0, 0, 0)
    with pytest.raises(DomainError):
        analytic_success_probability(4, 1, -1)


def test_qsearch_all_marked_succeeds_immediately():
    problem, _ = make_planted_problem(4, 4)
    ledger = OracleLedger()
    out = qsearch(problem, QSearchParams(), rng=np.random.default_rng(0), ledger=ledger)
    assert out.succeeded
    assert out.rounds_executed == 0
    assert ledger.q_applications == 0
    assert ledger.quantum_calls == 1


def test_qsearch_safety_cap_when_nothing_marked():
    # Small cap: the cap bounds rounds while per-round cost grows like c^l.
    problem, _ = make_planted_problem(8, 0)
    params = QSearchParams(max_total_rounds=12)
    with pytest.raises(SafetyCapReachedError):
        qsearch(problem, params, rng=np.random.default_rng(0))


def test_qsearch_scaling_monte_carlo():
    problem, _ = make_planted_problem(64, 1, rng=np.random.default_rng(9))
    params = QSearchParams(c=1.5)
    calls = []
    for seed in range(1000):
        ledger = OracleLedger()
        out = qsearch(problem, params, rng=np.random.default_rng(seed), ledger=ledger)
        assert out.succeeded
        calls.append(ledger.quantum_calls)
    mean = np.mean(calls)
    # Theta(sqrt(64)) = 8 up to a constant: accept one order of magnitude.
    assert 8 * 0.5 <= mean <= 8 * 10


def test_modified_qsearch_hand_traced_failure():
    # N=64, c=1.5, tau=0.01: u limit = ln(0.01)/ln(0.75) = 16.008; M first
    # exceeds sqrt(64) at l=6, so u hits 17 at l=22 and the loop exits.
    problem, _ = make_planted_problem(64, 0)
    params = QSearchParams(c=1.5, tau=0.01)
    assert params.u_limit == pytest.approx(16.0078, abs=1e-3)
    for seed in (0, 1, 2):
        out = modified_qsearch(problem, params, rng=np.random.default_rng(seed))
        assert out.result is None
        assert out.rounds_executed == 22
        assert out.u_rounds == 17
        assert out.u_rounds >= params.u_limit
        assert out.rounds_executed <= failure_round_bound(64, params)


def test_modified_qsearch_all_marked():
    problem, _ = make_planted_problem(16, 16)
    out = modified_qsearch(problem, QSearchParams(), rng=np.random.default_rng(1))
    assert out.succeeded
    assert out.rounds_executed == 0
    assert out.u_rounds == 0


@pytest.mark.parametrize(
    "n,c,tau,t",
    [(4, 1.1, 0.05, 0), (16, 1.9, 0.2, 0), (64, 1.5, 0.01, 1), (256, 1.3, 0.001, 0)],
)
def test_modified_qsearch_round_bound(n, c, tau, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(4))
    params = QSearchParams(c=c, tau=tau)
    bound = failure_round_bound(n, params)
    for seed in range(5):
        out = modified_qsearch(problem, params, rng=np.random.default_rng(seed))
        assert out.rounds_executed <= bound
        if out.result is None:
            assert out.u_rounds >= params.u_limit


def test_found_state_always_has_negative_comparison():
    params = QSearchParams(c=1.5, tau=0.01)
    for n, t, seed in [(16, 1, 0), (16, 5, 1), (64, 8, 2), (8, 7, 3)]:
        problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(seed))
        out = modified_qsearch(problem, params, rng=np.random.default_rng(seed))
        assert out.succeeded
        bits = problem.basis_string(out.result)
        assert is_desired(bits, problem.layout)
        assert problem.layout.point_part(bits) == point_strings(problem)[out.result]


@pytest.mark.parametrize("t", [0, 1])
def test_search_formats_strings_only_for_round_records(t, monkeypatch):
    """The loop decides by the problem's marks: with no on_round it formats
    no basis string, whether it finds or fails; with one, one per round."""
    formatted = []
    basis_string = SearchProblem.basis_string

    def counting_basis_string(self, slot):
        formatted.append(slot)
        return basis_string(self, slot)

    monkeypatch.setattr(SearchProblem, "basis_string", counting_basis_string)
    problem, _ = make_planted_problem(64, t, rng=np.random.default_rng(5))
    params = QSearchParams(c=1.5, tau=0.01)
    out = modified_qsearch(problem, params, rng=np.random.default_rng(0))
    assert out.succeeded == (t > 0) and formatted == []
    records = []
    modified_qsearch(problem, params, rng=np.random.default_rng(0), on_round=records.append)
    assert len(formatted) == len(records) == out.rounds_executed + 1


def test_slot_zero_is_a_found_result():
    problem, _ = make_planted_problem(16, 1, marked_indices=[0])
    out = modified_qsearch(problem, QSearchParams(), rng=np.random.default_rng(0))
    assert out.result == 0 and out.succeeded


def test_round_records_and_ledger_accounting():
    problem, _ = make_planted_problem(64, 1, rng=np.random.default_rng(5))
    params = QSearchParams(c=1.5, tau=0.01)
    for seed in range(8):
        records = []
        ledger = OracleLedger()
        out = modified_qsearch(
            problem,
            params,
            rng=np.random.default_rng(seed),
            ledger=ledger,
            on_round=records.append,
        )
        # Round 0 is the bare prepare-and-measure.
        assert records[0].l == 0 and records[0].j == 0 and records[0].m == 0
        js = []
        u = 0
        for l, rec in enumerate(records[1:], start=1):
            assert rec.l == l
            assert rec.m == math.ceil(params.c**l)
            assert 1 <= rec.j <= rec.m
            if rec.m * rec.m > problem.n_points:
                u += 1
            assert rec.u == u
            js.append(rec.j)
        assert ledger.q_applications == sum(js)
        assert ledger.qsearch_rounds == len(records)
        assert ledger.quantum_calls == ledger.qsearch_rounds + 2 * ledger.q_applications
        assert records[-1].desired == out.succeeded


def test_modified_qsearch_miss_rate_stays_below_tolerance():
    # Light Monte Carlo version of the stopping-rule guarantee (t/N < 3/4).
    problem, _ = make_planted_problem(16, 1, rng=np.random.default_rng(6))
    params = QSearchParams(c=1.5, tau=0.1)
    failures = sum(
        not modified_qsearch(problem, params, rng=np.random.default_rng(seed)).succeeded
        for seed in range(300)
    )
    assert failures / 300 <= 0.1


def test_planted_problem_construction():
    problem, marked = make_planted_problem(16, 4, rng=np.random.default_rng(0))
    assert problem.n_points == 16
    assert problem.point_units.tolist() == [[i] for i in range(16)]
    assert len(marked) == 4
    points = point_strings(problem)
    assert points == [format(i, "04b") for i in range(16)]
    below = {points[i] for i in marked}
    d = problem.layout.value_bits
    for p, value in zip(points, problem.units.tolist()):
        assert value >> (d - 1) == (1 if p in below else 0)
    with pytest.raises(ValueError):
        make_planted_problem(4, 5)
    with pytest.raises(ValueError):
        make_planted_problem(0, 0)


def test_planted_problem_refuses_a_marked_index_past_the_points():
    with pytest.raises(ValueError, match="marked_indices inconsistent"):
        make_planted_problem(4, 1, marked_indices=[5])


def test_search_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(np.zeros((0, 1), dtype=int), "0000", np.array([], dtype=int))
    with pytest.raises(ValueError):
        SearchProblem(np.array([[0], [0]]), "0000", np.array([0, 0]))
    # A unit past the incumbent's width, which a point string of another
    # width than a multiple of it used to stand for.
    with pytest.raises(ValueError):
        SearchProblem(np.array([[16]]), "0000", np.array([0]))
    with pytest.raises(ValueError):
        SearchProblem(np.array([[8]]), "000", np.array([0]))


def test_search_problem_refuses_rows_that_are_not_units():
    with pytest.raises(ValueError, match="need a 2-D array of integer units"):
        SearchProblem(np.array([[0.5], [2.0]]), "0000", np.array([0, 0]))


def test_qsearch_params_validation():
    with pytest.raises(ValueError):
        QSearchParams(c=2.0)
    with pytest.raises(ValueError):
        QSearchParams(c=1.0)
    with pytest.raises(ValueError):
        QSearchParams(tau=0.0)
    with pytest.raises(ValueError):
        QSearchParams(tau=1.5)


def test_qsearch_params_refuses_a_round_cap_below_one():
    with pytest.raises(ValueError, match="max_total_rounds must be positive"):
        QSearchParams(max_total_rounds=0)


def test_qsearch_params_refuses_a_round_cap_that_is_not_an_integer():
    """12.5 used to cap the original loop at 13 rounds and True at 1."""
    for cap in (12.5, 12.0, True, False, "12", None):
        with pytest.raises(ValueError, match="max_total_rounds must be an integer"):
            QSearchParams(max_total_rounds=cap)
    params = QSearchParams(max_total_rounds=np.int64(12))
    problem, _ = make_planted_problem(8, 0)
    with pytest.raises(SafetyCapReachedError, match="in 12 rounds"):
        qsearch(problem, params, rng=np.random.default_rng(0))


# The orbit Q^j A|0> of one problem, read off the plane of A|0> and Q A|0>.


def _fresh_iterate(problem, ops, j):
    state = ops.apply(IndexState.zero(problem))
    for _ in range(j):
        state = apply_Q(state, ops)
    return state


def _orbit_cases():
    yield 1, 0
    yield 1, 1
    for n in (16, 64, 1024):
        for t in sorted({0, 1, n // 4, n}):
            yield n, t


def _check_orbit(problem):
    iterate = amplify._plane(problem)
    ops = PreparationOperator(problem)
    # Up, down, repeated, and on both sides of every earlier j.
    for j in [0, 3, 9, 9, 2, 40, 40, 1, 39, 17, 64, 0, 63, 33, 5]:
        state = iterate(j)
        fresh = _fresh_iterate(problem, ops, j)
        assert np.max(np.abs(state.amplitudes - fresh.amplitudes)) <= 1e-12, j
    with pytest.raises(ValueError):
        iterate(0).amplitudes[0] = 0.0  # A|0> is handed out read-only


@pytest.mark.parametrize("n,t", list(_orbit_cases()))
def test_orbit_states_equal_fresh_iterates(n, t):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
    _check_orbit(problem)


@pytest.mark.parametrize("name,problem", list(_build_cases()))
def test_orbit_states_equal_fresh_iterates_search_step(name, problem):
    _check_orbit(problem)


def _recomputing_search(problem, params, rng, finite):
    """The search loop as the paper states it: every round prepares A|0> and
    applies Q j times to it afresh.  Each A uses the oracle once, and each Q
    twice, once inside A^-1 and once inside A."""
    ledger = OracleLedger()
    records = []
    ops = PreparationOperator(problem)
    zero = IndexState.zero(problem)
    sign_idx = problem.layout.comparison_sign_index
    l = u = q_apps = 0
    ledger.qsearch_rounds += 1
    state = ops.apply(zero)
    ledger.quantum_calls += 1
    slot = measure(state, rng)
    measured = problem.basis_string(slot)
    records.append(amplify.RoundRecord(0, 0, 0, 0, measured, measured[sign_idx] == "1"))
    while not records[-1].desired:
        if finite and u >= params.u_limit:
            return None, l, u, q_apps, ledger, records
        if not finite and l >= params.max_total_rounds:
            return "cap", l, u, q_apps, ledger, records
        l += 1
        m = math.ceil(params.c**l)
        if m * m > problem.n_points:
            u += 1
        ledger.qsearch_rounds += 1
        state = ops.apply(zero)
        ledger.quantum_calls += 1
        j = int(rng.integers(1, m + 1))
        for _ in range(j):
            state = apply_Q(state, ops)
            ledger.quantum_calls += 2
            ledger.q_applications += 1
        q_apps += j
        slot = measure(state, rng)
        measured = problem.basis_string(slot)
        records.append(amplify.RoundRecord(l, m, j, u, measured, measured[sign_idx] == "1"))
    return slot, l, u, q_apps, ledger, records


# The original loop ends only when something is marked.
LOOP_CASES = [(16, 0, True)] + [
    (n, t, finite) for n, t in [(16, 1), (64, 1), (64, 16), (256, 2)] for finite in (True, False)
]


@pytest.mark.parametrize("n,t,finite", LOOP_CASES)
def test_search_loops_equal_recomputing_reference(n, t, finite):
    problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n * t + 1))
    params = QSearchParams(c=1.5, tau=0.05)
    search = modified_qsearch if finite else qsearch
    for seed in range(6):
        records = []
        ledger = OracleLedger()
        out = search(problem, params, rng=np.random.default_rng(seed), ledger=ledger,
                     on_round=records.append)
        expected = _recomputing_search(problem, params, np.random.default_rng(seed), finite)
        assert (out.result, out.rounds_executed, out.u_rounds, ledger.q_applications) == expected[:4]
        assert ledger == expected[4]
        assert records == expected[5]


def test_qsearch_safety_cap_equals_recomputing_reference():
    problem, _ = make_planted_problem(8, 0)
    params = QSearchParams(max_total_rounds=12)
    records = []
    ledger = OracleLedger()
    with pytest.raises(SafetyCapReachedError):
        qsearch(problem, params, rng=np.random.default_rng(3), ledger=ledger,
                on_round=records.append)
    expected = _recomputing_search(problem, params, np.random.default_rng(3), False)
    assert expected[0] == "cap"
    assert ledger == expected[4] and records == expected[5]


def test_search_charges_the_ledger_once_after_its_last_round():
    """The loop charges a search in one update after its last round, so a
    search whose on_round raises leaves the ledger as it found it."""
    class Stop(Exception):
        pass

    def stop_at_round_3(record):
        if record.l == 3:
            raise Stop

    problem, _ = make_planted_problem(16, 0)
    ledger = OracleLedger(classical_calls=3)
    with pytest.raises(Stop):
        modified_qsearch(problem, QSearchParams(), rng=np.random.default_rng(0),
                         ledger=ledger, on_round=stop_at_round_3)
    assert ledger == OracleLedger(classical_calls=3)


def test_search_applies_q_once_per_problem(monkeypatch):
    """A search simulates Q once per problem, and one that marks nothing and
    records no rounds simulates no state: it leaves the same ledger."""
    calls = {}

    def count(name):
        counted = getattr(amplify, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return counted(*args, **kwargs)

        monkeypatch.setattr(amplify, name, counting)

    count("apply_Q")
    count("measure")

    def search(problem, on_round):
        calls.update(apply_Q=0, measure=0)
        ledger = OracleLedger()
        out = modified_qsearch(problem, QSearchParams(), rng=np.random.default_rng(0),
                               ledger=ledger, on_round=on_round)
        return out, ledger, dict(calls)

    problem, _ = make_planted_problem(1024, 0)
    out, ledger, counts = search(problem, [].append)
    assert out.result is None and ledger.q_applications > 1000
    assert counts["apply_Q"] == 1
    blind_out, blind_ledger, counts = search(problem, None)
    assert counts == {"apply_Q": 0, "measure": 0}
    assert blind_out == out and blind_ledger == ledger
    _, _, counts = search(make_planted_problem(1024, 1)[0], None)
    assert counts["apply_Q"] == 1


def test_quiet_search_that_marks_nothing_builds_neither_reflection_nor_marks():
    """A t = 0 search without round records reads neither the spreading
    reflection's vector nor the S_chi marks, so neither is built; reading
    them afterwards builds the same values as a problem that simulated."""
    for n in (1, 16, 1024):
        quiet, _ = make_planted_problem(n, 0)
        out = modified_qsearch(quiet, QSearchParams(), rng=np.random.default_rng(0))
        assert out.result is None
        assert quiet.spread._vector is None and quiet._marks is None
        simulated, _ = make_planted_problem(n, 0)
        modified_qsearch(simulated, QSearchParams(), rng=np.random.default_rng(0),
                         on_round=[].append)
        assert simulated.spread._vector is not None and simulated._marks is not None
        assert np.array_equal(quiet.marks, simulated.marks)
        assert np.array_equal(quiet.spread.vector, simulated.spread.vector)
        assert quiet.spread.is_identity == simulated.spread.is_identity


def _search_with_and_without_rounds(search, problem, params, seed):
    """Run one search from one seed with round records and without: per run,
    the outcome or the raised error's type and message, the ledger and the
    generator's state afterwards."""
    runs = []
    for on_round in ([].append, None):
        rng, ledger = np.random.default_rng(seed), OracleLedger()
        try:
            result = search(problem, params, rng=rng, ledger=ledger, on_round=on_round)
        except (DomainError, SafetyCapReachedError) as exc:
            result = (type(exc), str(exc))
        runs.append((result, ledger, rng.bit_generator.state))
    return runs


@pytest.mark.parametrize("n", [1, 2, 16, 64, 1024])
@pytest.mark.parametrize(
    "search,params",
    [
        (modified_qsearch, QSearchParams()),
        (modified_qsearch, QSearchParams(tau=0.05)),
        (qsearch, QSearchParams(max_total_rounds=12)),  # raises at the cap
    ],
)
def test_search_that_marks_nothing_equals_the_simulated_search(search, params, n):
    """With t = 0 and no round records the loop simulates no state; what it
    returns or raises, its ledger and its generator stream stay those of the
    simulated loop."""
    problem, _ = make_planted_problem(n, 0)
    for seed in range(5):
        simulated, blind = _search_with_and_without_rounds(search, problem, params, seed)
        assert blind == simulated
        if search is qsearch:
            assert simulated[0][0] is SafetyCapReachedError


def test_search_that_marks_nothing_is_refused_where_the_simulated_search_is():
    """tau = 1e-14 at N = 16: both forms refuse round 108's j draw with the
    same error, after the same ledger and the same draws."""
    problem, _ = make_planted_problem(16, 0)
    for seed in range(5):
        simulated, blind = _search_with_and_without_rounds(
            modified_qsearch, problem, QSearchParams(tau=1e-14), seed
        )
        assert blind == simulated
        assert simulated[0][0] is DomainError and "round 108 " in simulated[0][1]


@pytest.mark.parametrize(
    "search,tau,error",
    [(qsearch, 0.01, SafetyCapReachedError), (modified_qsearch, 1e-14, DomainError)],
)
def test_search_stops_before_j_leaves_int64(search, tau, error):
    """With nothing marked, M = ceil(1.5^l) outgrows numpy's int64 draw at
    l = 108: before the default round cap of 10,000, and before u reaches
    ln(1e-14)/ln(3/4) = 112.05 (u counts from l = 4 at N = 16)."""
    problem, _ = make_planted_problem(16, 0)
    records = []
    with pytest.raises(error, match=r"round 108 .*c=1\.5, tau="):
        search(problem, QSearchParams(tau=tau), rng=np.random.default_rng(0),
               on_round=records.append)
    assert records[-1].l == 107 and not records[-1].desired


def test_last_failing_round_refuses_an_unreachable_tau():
    """At N = 16, c = 1.5 the last round of a failing search is l = 3 + the
    rounds u needs; past l = 107 the j draw leaves int64."""
    assert last_failing_round(16, QSearchParams(tau=2e-13)) == 105
    with pytest.raises(DomainError, match=r"tau=5e-14 .* round 108 "):
        last_failing_round(16, QSearchParams(tau=5e-14))


def walked_last_failing_round(n_points, params, rounds):
    """The reference: walk the loop's schedule to the round where u reaches
    u_limit, or to the first j draw past int64 (returned as an error).  Each
    round walked is appended to ``rounds`` as its (M, u), round 0 first."""
    rounds.append((0, 0))
    u = 0
    for l in itertools.count(1):
        m = math.ceil(params.c**l)
        if m + 1 > 1 << 63:
            return ("int64", l, m)
        u += m * m > n_points
        rounds.append((m, u))
        if u >= params.u_limit:
            return l


@pytest.mark.parametrize("c", [1.001, 1.01, 1.1, 1.3, 1.5, 1.7, 1.9, 1.999])
def test_last_failing_round_equals_the_walk(c):
    for n in [1, 2, 3, 4, 15, 16, 17, 64, 255, 256, 1024, 4096, 2**20]:
        for tau in [0.9, 0.5, 0.05, 0.01, 1e-6, 5e-14, 1e-300]:
            params = QSearchParams(c=c, tau=tau)
            walked_rounds = []
            walked = walked_last_failing_round(n, params, walked_rounds)
            rounds, stop = amplify._schedule(n, params, True)
            assert list(rounds) == walked_rounds, (n, tau)
            if isinstance(walked, int):
                assert stop is None
                assert last_failing_round(n, params) == walked, (n, tau)
            else:
                _, l, m = walked
                assert isinstance(stop, DomainError)
                with pytest.raises(DomainError, match=rf"round {l} .*\[1, {m}\]"):
                    last_failing_round(n, params)
    if c == 1.5:
        # The original loop's schedule: the same rounds, up to its round cap
        # or up to round 107, the last whose j draw fits an int64.
        walked_rounds = []
        assert walked_last_failing_round(16, QSearchParams(tau=1e-300), walked_rounds) == (
            "int64", 108, math.ceil(1.5**108))
        rounds, stop = amplify._schedule(16, QSearchParams(max_total_rounds=12), False)
        assert list(rounds) == walked_rounds[:13]
        assert isinstance(stop, SafetyCapReachedError) and "found in 12 rounds" in str(stop)
        rounds, stop = amplify._schedule(16, QSearchParams(), False)
        assert list(rounds) == walked_rounds
        assert isinstance(stop, SafetyCapReachedError) and "round 108 " in str(stop)


def test_last_failing_round_refuses_a_schedule_past_the_cap(monkeypatch):
    """At N = 256 a failing search runs 27,744 rounds at c = 1.0001 and
    277,277 at c = 1.00001, found without a walk."""
    assert last_failing_round(256, QSearchParams(c=1.0001)) == 27_744
    with pytest.raises(DomainError, match=r"c=1\.00001 .* 277277 rounds, past 100000"):
        last_failing_round(256, QSearchParams(c=1.00001))
    with pytest.raises(DomainError, match=r"past 100000"):
        last_failing_round(16, QSearchParams(c=1 + 2**-52))
    monkeypatch.setattr(amplify, "MAX_SCHEDULE_ROUNDS", 27_744)
    assert last_failing_round(256, QSearchParams(c=1.0001)) == 27_744
    monkeypatch.setattr(amplify, "MAX_SCHEDULE_ROUNDS", 27_743)
    with pytest.raises(DomainError, match=r"27744 rounds, past 27743"):
        last_failing_round(256, QSearchParams(c=1.0001))


def test_last_failing_round_refuses_again_after_a_cached_success():
    """The schedule's ends are kept per (N, c, tau, round cap, finite); the
    refusals are not: a repeat call refuses what the first refused, with the
    same message, after a success at the same N and c."""
    assert last_failing_round(16, QSearchParams(tau=2e-13)) == 105
    # At N = 21993^2, c = 1.0001, u counts from round 99,990.
    n = 21993**2
    assert last_failing_round(n, QSearchParams(c=1.0001, tau=0.5)) == 99_992
    for size, params, match in [
        (16, QSearchParams(tau=5e-14), r"tau=5e-14 .* round 108 "),
        (n, QSearchParams(c=1.0001, tau=0.01), r"c=1\.0001 .* 100006 rounds, past 100000"),
    ]:
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError, match=match) as refused:
                last_failing_round(size, params)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
    # The original loop's stop is a fresh error on every call.
    params = QSearchParams(max_total_rounds=12)
    _, first = amplify._schedule(16, params, False)
    _, second = amplify._schedule(16, params, False)
    assert first is not second and str(first) == str(second)


@pytest.mark.parametrize("n,tau", [(1, 0.5), (16, 0.01), (16, 2e-13), (1024, 1e-6)])
def test_last_failing_round_is_where_a_failing_search_stops(n, tau):
    params = QSearchParams(tau=tau)
    problem, _ = make_planted_problem(n, 0)
    out = modified_qsearch(problem, params, rng=np.random.default_rng(0))
    assert out.result is None
    assert out.rounds_executed == last_failing_round(n, params)
