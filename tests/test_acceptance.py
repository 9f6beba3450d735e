"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The Monte-Carlo criteria use fixed seed ranges, so
the whole module is deterministic.
"""
import math

import numpy as np
import pytest

from qpsearch.amplify import (
    PreparationOperator,
    QSearchParams,
    analytic_success_probability,
    apply_Q,
    desired_probability,
    failure_round_bound,
    make_planted_problem,
    modified_qsearch,
)
from qpsearch.fixedpoint import FixedPointFormat, decode_scalar, encode_scalar, negate_bits, sign_bit
from qpsearch.objectives import make_objective, objective_names
from qpsearch.pattern import GpsConfig, PatternBasis, gps_run
from qpsearch.quantum_step import compare_backends
from qpsearch.state import HouseholderPrepare, RegisterLayout, SparseState, apply_basis_map, apply_phase, measure

PARAMS = QSearchParams(c=1.5, tau=0.01)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_grover_rotation_exactness():
    worst = 0.0
    checks = 0
    for n in (4, 16, 64):
        for t in sorted({0, 1, n // 4, n // 2}):
            problem, _ = make_planted_problem(n, t, rng=np.random.default_rng(n + t))
            ops = PreparationOperator(problem)
            state = ops.prepare_from_zero()
            for j in range(11):
                err = abs(
                    desired_probability(state) - analytic_success_probability(n, t, j)
                )
                worst = max(worst, err)
                checks += 1
                assert err <= 1e-9, f"N={n} t={t} j={j}: error {err}"
                state = apply_Q(state, ops)
    report(
        "criterion 1 (Grover rotation exactness)",
        f"{checks} (N,t,j) combinations, max |sim - analytic| = {worst:.2e} <= 1e-9",
    )


def test_criterion_2_stopping_rule_failure_bound():
    trials = 10_000
    tau = 0.01
    problem, _ = make_planted_problem(64, 1, rng=np.random.default_rng(12))
    params = QSearchParams(c=1.5, tau=tau)
    failures = 0
    for seed in range(trials):
        out = modified_qsearch(problem, params, rng=np.random.default_rng(seed))
        if not out.succeeded:
            failures += 1
    fraction = failures / trials
    bound = tau + 3 * math.sqrt(tau * (1 - tau) / trials)
    assert fraction <= bound
    report(
        "criterion 2 (stopping-rule failure bound)",
        f"N=64 t=1 tau={tau}: {failures}/{trials} failures "
        f"({fraction:.4f}) <= {bound:.4f}",
    )


def test_criterion_3_finite_termination_without_marked_states():
    problem, _ = make_planted_problem(64, 0)
    params = QSearchParams(c=1.5, tau=0.01)
    bound = failure_round_bound(64, params)
    rounds = set()
    for seed in range(100):
        out = modified_qsearch(problem, params, rng=np.random.default_rng(seed))
        assert out.result is None
        assert out.rounds_executed <= 22  # hand-traced exit round
        assert out.rounds_executed <= bound
        rounds.add(out.rounds_executed)
    assert rounds == {22}  # t=0 makes every loop deterministic in length
    report(
        "criterion 3 (finite termination at t=0)",
        f"100 seeds, every search returned Failure after exactly 22 rounds "
        f"(bound {bound})",
    )


def _comparison_config(n_points: int, radius: int) -> GpsConfig:
    return GpsConfig(
        initial_mesh_size=1.0,
        search_points_count=n_points,
        search_radius=radius,
        fixed_point_format=FixedPointFormat(8, 0),
        max_iterations=1,
    )


def test_criterion_4_sqrt_scaling_ratio():
    basis = PatternBasis.coordinate(2)
    config = _comparison_config(256, 20)
    trials = 1000
    # Growth constant 1.3: per-trial cost has tail exponent ln2/ln(c) > 2,
    # so the 1000-trial mean has finite variance and the ratio statistic is
    # stable across seed blocks (c = 1.5 leaves the mean tail-dominated).
    params = QSearchParams(c=1.3, tau=0.01)
    means = {}
    for t in (1, 4):
        rep = compare_backends(
            None, basis, config, params, seeds=range(trials), planted_t=t
        )
        means[t] = rep.summary["mean_quantum_calls"]
    ratio = means[1] / means[4]
    assert 1.4 <= ratio <= 2.6
    report(
        "criterion 4 (sqrt(N/t) scaling)",
        f"N=256, {trials} trials: mean quantum calls t=1 {means[1]:.1f}, "
        f"t=4 {means[4]:.1f}, ratio {ratio:.2f} in [1.4, 2.6]",
    )


def test_criterion_5_quantum_vs_classical_advantage():
    basis = PatternBasis.coordinate(2)
    config = _comparison_config(1024, 40)
    trials = 500
    rep = compare_backends(
        None, basis, config, PARAMS, seeds=range(trials), planted_t=1
    )
    below_exhaustive = np.mean([r.quantum_calls < 1024 for r in rep.rows])
    mean_quantum = rep.summary["mean_quantum_calls"]
    mean_classical = rep.summary["mean_classical_calls"]
    assert below_exhaustive >= 0.90
    assert mean_quantum < mean_classical
    assert abs(mean_classical - 512.5) < 40  # first-improvement scan ~ (N+1)/2
    report(
        "criterion 5 (quantum vs classical advantage)",
        f"N=1024 t=1, {trials} trials: quantum < 1024 calls in "
        f"{below_exhaustive:.1%}; mean quantum {mean_quantum:.1f} < "
        f"mean classical {mean_classical:.1f}",
    )


GPS_X0 = {
    "sphere": [0.75, -0.5],
    "quadratic100": [0.5, 0.5],
    "rosenbrock": [-0.5, 0.5],
    "step": [0.75, 0.5],
}


def _gps_config(seed: int) -> GpsConfig:
    return GpsConfig(
        initial_mesh_size=0.5,
        mesh_size_tolerance=1e-2,
        max_iterations=200,
        search_points_count=8,
        search_radius=4,
        fixed_point_format=FixedPointFormat(16, 8),
        rng_seed=seed,
    )


def test_criterion_6_gps_correctness_suite():
    basis = PatternBasis.coordinate(2)
    params = QSearchParams(c=1.5, tau=0.05)
    seeds = range(50)
    traces = 0
    sphere_hits = 0

    for name in objective_names():
        objective = make_objective(name, 2)
        for backend in ("classical", "quantum"):
            for seed in seeds:
                run = gps_run(
                    objective, basis, _gps_config(seed), backend, GPS_X0[name],
                    qsearch_params=params,
                )
                traces += 1
                values = [r.value for r in run.records]
                # (a) incumbent values never increase.
                assert all(b <= a for a, b in zip(values, values[1:])), (name, backend, seed)
                for record in run.records:
                    snap = record.ledger_snapshot
                    if backend == "classical":
                        # (c) no quantum calls at all outside the quantum backend.
                        assert snap.quantum_calls == 0
                    else:
                        # (c) every quantum call is accounted to the search
                        # loop; polls and rechecks never touch the counter.
                        assert (
                            snap.quantum_calls
                            == snap.qsearch_rounds + 2 * snap.q_applications
                        )
                if name == "sphere" and backend == "quantum":
                    converged = (
                        run.stop_reason == "mesh-tolerance"
                        and len(run.records) <= 200
                        and np.linalg.norm(run.final_state.iterate) <= 10 * 1e-2
                    )
                    sphere_hits += converged

    # (b) sphere with the quantum backend converges for nearly every seed.
    assert sphere_hits / 50 >= 0.95

    # (d) every evaluated candidate lies on the current mesh (z-recovery).
    recovered = 0
    for name, backend, seed in [
        ("sphere", "classical", 0),
        ("sphere", "quantum", 0),
        ("step", "quantum", 1),
        ("quadratic100", "classical", 7),
    ]:
        events = []
        run = gps_run(
            make_objective(name, 2), basis, _gps_config(seed), backend,
            GPS_X0[name], qsearch_params=params, event_sink=events.append,
        )
        by_iter = {r.iteration: r for r in run.records}
        for event in events:
            if event["type"] not in ("search-candidates", "poll-candidates"):
                continue
            record = by_iter[event["iteration"]]
            for y in event["points"]:
                offset = (np.array(y) - record.iterate) / record.mesh_size
                z = np.concatenate([np.maximum(offset, 0), np.maximum(-offset, 0)])
                assert np.array_equal(z, np.round(z)), (name, backend, y)
                assert np.all(z >= 0)
                np.testing.assert_array_equal(
                    record.iterate + record.mesh_size * basis.directions @ z, y
                )
                recovered += 1
    assert recovered > 100

    report(
        "criterion 6 (GPS correctness suite)",
        f"{traces} traces monotone with clean ledgers; sphere/quantum "
        f"converged for {sphere_hits}/50 seeds; {recovered} candidates "
        f"z-recovered onto their meshes",
    )


def test_criterion_7_unit_property_suites():
    # Fixed-point roundtrip and negation, exhaustive at the d = 12 boundary.
    for d, q in ((12, 0), (12, 5)):
        fmt = FixedPointFormat(d, q)
        for units in range(2**d):
            bits = format(units, f"0{d}b")
            value = decode_scalar(bits, fmt)
            assert encode_scalar(value, fmt) == bits
            assert (sign_bit(bits) == 1) == (value < 0)
            if bits != "1" + "0" * (d - 1):
                assert decode_scalar(negate_bits(bits), fmt) == -value

    # Operator unitarity within 1e-9 on random sparse states.
    rng = np.random.default_rng(0)
    layout = RegisterLayout(6, 3, 3)
    keys = [format(i, "012b") for i in rng.choice(4096, size=40, replace=False)]
    amps = rng.normal(size=40) + 1j * rng.normal(size=40)
    amps /= np.linalg.norm(amps)
    state = SparseState(layout, dict(zip(keys, amps)))
    spread = HouseholderPrepare([format(i, "06b") for i in (3, 17, 40, 63)])
    for out in (
        apply_basis_map(state, lambda b: b[::-1]),
        apply_phase(state, lambda b: b[0] == "1", -1j),
        spread(state),
    ):
        assert abs(out.norm() - 1.0) <= 1e-9

    # Preparation inverse: A^-1 A = identity on the reachable support
    # at the N = 16, d = 6 upper corner.
    fmt6 = FixedPointFormat(6, 0)
    layout6 = RegisterLayout(6, 6, 6)
    points = [format(i, "06b") for i in range(16)]
    values = {p: encode_scalar((7 * i) % 23 - 11, fmt6) for i, p in enumerate(points)}
    from qpsearch.amplify import SearchProblem

    units = np.array([int(values[p], 2) for p in points])
    problem = SearchProblem(points, encode_scalar(-2, fmt6), units, layout6)
    ops = PreparationOperator(problem)
    prepared = ops.prepare_from_zero()
    for bits in [layout6.zero_string(), *prepared.support()]:
        roundtrip = ops.apply_inverse(ops.apply(SparseState(layout6, {bits: 1.0})))
        assert abs(roundtrip.amplitude(bits) - 1.0) <= 1e-9

    # Born-rule frequencies at 1e5 draws, three standard errors.
    draws = 100_000
    rng = np.random.default_rng(99)
    probs = {"000000000000": 0.36, "111111111111": 0.64}
    born = SparseState(layout, {b: math.sqrt(p) for b, p in probs.items()})
    hits = sum(measure(born, rng) == "111111111111" for _ in range(draws))
    sigma = math.sqrt(0.64 * 0.36 / draws)
    assert abs(hits / draws - 0.64) <= 3 * sigma

    # Bit-reproducible traces for a fixed seed, quantum backend.
    basis = PatternBasis.coordinate(2)
    runs = [
        gps_run(
            make_objective("sphere", 2), basis, _gps_config(21), "quantum",
            GPS_X0["sphere"], qsearch_params=QSearchParams(c=1.5, tau=0.05),
        )
        for _ in range(2)
    ]
    assert len(runs[0].records) == len(runs[1].records)
    for a, b in zip(runs[0].records, runs[1].records):
        assert np.array_equal(a.iterate, b.iterate)
        assert (a.value, a.mesh_size, a.outcome) == (b.value, b.mesh_size, b.outcome)
        assert a.ledger_snapshot == b.ledger_snapshot

    report(
        "criterion 7 (unit/property suites)",
        "exhaustive d=12 codec sweep, unitarity 1e-9, inverse-preparation "
        f"identity at N=16 d=6, Born frequencies within 3 sigma at {draws} "
        "draws, bit-reproducible quantum traces",
    )
