"""Objective registry and the command-line surfaces."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpsearch
from qpsearch import amplify, fixedpoint, ledger, objectives, pattern, quantum_step, state
from qpsearch.cli import COMPARE_KEYS, RUN_KEYS, main
from qpsearch.objectives import UnknownObjectiveError, make_objective, objective_names


def test_registry_contents():
    assert objective_names() == ["quadratic100", "rosenbrock", "sphere", "step"]
    sphere = make_objective("sphere", 3)
    assert sphere(np.array([1.0, 2.0, 2.0])) == 9.0
    quad = make_objective("quadratic100", 2)
    assert quad(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert quad(np.array([0.0, 1.0])) == pytest.approx(100.0)
    rosen = make_objective("rosenbrock", 2)
    assert rosen(np.array([1.0, 1.0])) == 0.0
    assert rosen(np.array([0.0, 0.0])) == 1.0
    step = make_objective("step", 2)
    assert step(np.array([0.75, 0.5])) == 0.0
    assert step(np.array([2.5, -3.5])) == 5.0


def test_quadratic100_in_one_dimension_is_the_square():
    # geomspace(1, 100, 1) is [1.0]: one weight, no special case.
    assert make_objective("quadratic100", 1)(np.array([3.0])) == 9.0


REGISTER_MAX = 2.0**31  # the largest magnitude a 32-bit register holds


@st.composite
def objective_rows(draw):
    """A registry objective with an (N, n) array of rows for it: standard
    normals or uniform values scaled up to the register range, optionally
    rounded to a 2^-q grid, in C or Fortran order."""
    name = draw(st.sampled_from(objective_names()))
    n = 2 if name == "rosenbrock" else draw(st.sampled_from([*range(1, 9), 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 40)), n)
    scale = 2.0 ** draw(st.integers(0, 31))
    if draw(st.booleans()):
        rows = rng.standard_normal(shape) * scale
    else:
        rows = rng.uniform(-scale, scale, shape)
    rows = np.clip(rows, -REGISTER_MAX, REGISTER_MAX)
    q = draw(st.none() | st.integers(0, 31))
    if q is not None:
        rows = np.ldexp(np.round(np.ldexp(rows, q)), -q)
    return name, np.array(rows, order=draw(st.sampled_from("CF")))


@settings(max_examples=300, deadline=None)
@given(objective_rows())
# libm's pow squares the second difference one unit above x * x.
@example(("rosenbrock", np.array([[-181.328125, -88.296875], [155.171875, 73.59375]])))
def test_on_rows_equals_the_row_form_bit_for_bit(case):
    """A registry objective's value at a point is its array form on that one
    row: a batch in C or Fortran order equals its one-row calls bit for bit."""
    name, rows = case
    f = make_objective(name, rows.shape[1])
    by_row = np.array([f(x) for x in rows])
    on_rows = f.on_rows(rows)
    assert on_rows.shape == by_row.shape and on_rows.dtype == np.float64
    assert on_rows.view(np.int64).tolist() == by_row.view(np.int64).tolist()


def test_registry_errors():
    with pytest.raises(UnknownObjectiveError) as err:
        make_objective("nope", 2)
    assert "sphere" in str(err.value)
    with pytest.raises(ValueError):
        make_objective("rosenbrock", 3)


def run_cli(*argv):
    return main(list(argv))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_run_writes_trace_and_summary(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = run_cli(
        "run",
        "--objective", "sphere",
        "--dimension", "2",
        "--backend", "quantum",
        "--seed", "7",
        "--tau", "0.05",
        "--max-iterations", "80",
        "--mesh-size-tolerance", "0.01",
        "--output", str(out),
    )
    assert code == 0
    records = read_jsonl(out)
    iterations = [r for r in records if r["type"] == "iteration"]
    summaries = [r for r in records if r["type"] == "summary"]
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary["stop_reason"] == "mesh-tolerance"
    assert summary["final_mesh_size"] < 0.01
    assert summary["config"]["seed"] == 7
    assert summary["config"]["objective"] == "sphere"
    values = [r["value"] for r in iterations]
    assert all(b <= a for a, b in zip(values, values[1:]))
    for r in iterations:
        assert set(r) >= {
            "iteration", "iterate", "value", "mesh_size", "outcome",
            "classical_calls", "quantum_calls", "qsearch_rounds",
        }


def test_run_byte_identical_for_same_seed(tmp_path):
    args = [
        "run", "--objective", "sphere", "--dimension", "2", "--backend",
        "quantum", "--seed", "3", "--tau", "0.05", "--max-iterations", "40",
        "--mesh-size-tolerance", "0.01",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(*args, "--output", str(a)) == 0
    assert run_cli(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    assert run_cli(*args, "--seed", "4", "--output", str(c)) == 0  # last flag wins
    assert a.read_bytes() != c.read_bytes()


def test_run_emit_rounds(tmp_path):
    out = tmp_path / "rounds.jsonl"
    code = run_cli(
        "run", "--objective", "sphere", "--dimension", "2", "--backend",
        "quantum", "--seed", "2", "--tau", "0.05", "--max-iterations", "10",
        "--mesh-size-tolerance", "0.05", "--emit-rounds", "--output", str(out),
    )
    assert code == 0
    records = read_jsonl(out)
    rounds = [r for r in records if r["type"] == "qsearch-round"]
    steps = [r for r in records if r["type"] == "quantum-search-step"]
    assert rounds and steps
    for r in rounds:
        assert set(r) >= {"iteration", "l", "m", "j", "u", "measured", "desired"}
        assert set(r["measured"]) <= {"0", "1"}
    # Per-iteration round counts line up with the step summaries.
    for step in steps:
        n_rounds = sum(1 for r in rounds if r["iteration"] == step["iteration"])
        assert n_rounds == step["rounds"] + 1  # rounds counts l at exit


def test_run_unknown_objective(tmp_path, capsys):
    code = run_cli("run", "--objective", "warp", "--output", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    for name in objective_names():
        assert name in err


def test_run_config_file_with_flag_override(tmp_path):
    config = {
        "objective": "quadratic100",
        "dimension": 2,
        "backend": "classical",
        "seed": 1,
        "max_iterations": 30,
        "mesh_size_tolerance": 0.01,
        "initial_point": [0.5, 0.5],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "t.jsonl"
    code = run_cli("run", "--config", str(cfg_path), "--seed", "9", "--output", str(out))
    assert code == 0
    summary = [r for r in read_jsonl(out) if r["type"] == "summary"][0]
    assert summary["config"]["seed"] == 9  # flag wins over file
    assert summary["config"]["objective"] == "quadratic100"


def test_run_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--config", str(bad)) == 2
    assert "line 1" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"objektive": "sphere"}))
    assert run_cli("run", "--config", str(unknown)) == 2
    assert "objektive" in capsys.readouterr().err

    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"backend": "warp"}))
    assert run_cli("run", "--config", str(backend)) == 2
    assert capsys.readouterr().err == "error: unknown search backend 'warp'\n"


def test_run_library_error_is_one_line_exit_2(tmp_path, capsys):
    # Mesh size 0.3 puts the quantum step's candidates off the default 2^-10
    # grid, which select_search_points refuses with an EncodingError.
    out = tmp_path / "t.jsonl"
    code = run_cli("run", "--backend", "quantum", "--initial-mesh-size", "0.3",
                   "--output", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coordinate") and "is not on the 2^-10 grid" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("backend", ["classical", "quantum"])
@pytest.mark.parametrize(
    "argv,iterations,mesh_size",
    [
        # 2^-10 is the default register's grid; the contraction to 2^-11 is not.
        (["--mesh-size-tolerance", "0.0001"], 14, 2.0**-11),
        # An integer register: the first contraction below 1 leaves the grid.
        (["--config", '{"total_bits": 8, "frac_bits": 0, "initial_mesh_size": 1, '
          '"initial_point": [3, 3]}'], 5, 0.5),
    ],
    ids=["tolerance-1e-4", "integer-register"],
)
def test_run_stops_when_the_mesh_leaves_the_register_grid(
    argv, iterations, mesh_size, backend, tmp_path
):
    if argv[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(argv[1])
        argv = ["--config", str(config)]
    out = tmp_path / "t.jsonl"
    assert run_cli("run", *argv, "--backend", backend, "--output", str(out)) == 0
    records = read_jsonl(out)
    summary = records[-1]
    assert summary["stop_reason"] == "mesh-resolution"
    assert summary["iterations"] == iterations == len(records) - 1
    assert summary["final_mesh_size"] == mesh_size
    assert records[-2]["mesh_size"] == 2 * mesh_size  # the last mesh on the grid


@pytest.mark.parametrize("backend", ["classical", "quantum"])
def test_run_finishes_from_an_incumbent_the_register_cannot_hold(tmp_path, backend):
    # rosenbrock(2, 2) = 401 is far above the default 16/10 register's
    # maximum of 31.999; the quantum step saturates the incumbent's value.
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"objective": "rosenbrock", "initial_point": [2, 2]}))
    out = tmp_path / "t.jsonl"
    assert run_cli("run", "--config", str(cfg), "--backend", backend,
                   "--output", str(out)) == 0
    records = read_jsonl(out)
    summary = records[-1]
    assert summary["type"] == "summary"
    assert summary["stop_reason"] == "mesh-tolerance"
    values = [r["value"] for r in records[:-1]] + [summary["final_value"]]
    assert values[0] == 401.0
    assert all(b <= a for a, b in zip(values, values[1:]))
    rosen = make_objective("rosenbrock", 2)
    assert summary["final_value"] == rosen(np.array(summary["final_iterate"]))


def test_run_count_marked_reports_t(tmp_path, capsys):
    args = ["run", "--objective", "sphere", "--seed", "7", "--tau", "0.05",
            "--max-iterations", "6", "--emit-rounds"]
    plain, counted = tmp_path / "plain.jsonl", tmp_path / "counted.jsonl"
    assert run_cli(*args, "--output", str(plain)) == 0
    assert run_cli(*args, "--count-marked", "--output", str(counted)) == 0
    plain_records, counted_records = read_jsonl(plain), read_jsonl(counted)
    assert len(plain_records) == len(counted_records)
    steps = 0
    for a, b in zip(plain_records, counted_records):
        if b["type"] == "quantum-search-step":
            steps += 1
            t = b.pop("t")
            assert (1 if b["result"] == "found" else 0) <= t <= b["n_points"]
        assert a == b  # t is the only addition; the summary's config is unchanged
    assert steps > 0
    assert "count_marked" not in counted_records[-1]["config"]
    assert run_cli("run", "--backend", "classical", "--count-marked") == 2
    assert capsys.readouterr().err == "error: --count-marked needs the quantum backend\n"


REFUSED = [
    ["run", "--search-points-count", "3"],
    ["compare", "--search-points-count", "3"],
    ["run", "--max-iterations", "0"],
    ["run", "--tau", "2"],
    ["run", "--c", "2.5"],
    ["run", "--dimension", "0"],
    # The coordinate basis's rank check grows as n^3: 39 s at n = 4096.
    ["run", "--dimension", "1025"],
    ["compare", "--dimension", "1025"],
    ["run", "--config", '{"dimension": 1%s}' % ("0" * 30)],
    ["compare", "--config", '{"dimension": 1%s}' % ("0" * 30)],
    # Past 2^20 points; 2^30 would ask for 32 GiB of z draws.
    ["run", "--search-points-count", "2097152"],
    ["compare", "--search-points-count", "2097152"],
    # Without --emit-rounds no record carries t.
    ["run", "--count-marked", "--max-iterations", "2"],
    ["run", "--objective", "rosenbrock", "--dimension", "3"],
    ["run", "--seed", "-1"],
    # Mesh points off the register grid surface only midway through the run.
    ["run", "--initial-mesh-size", "0.3", "--backend", "classical"],
    # Every mesh point overflows to infinity, out of the register's range.
    ["run", "--initial-mesh-size", "1e308", "--backend", "classical"],
    ["run", "--output", "missing-dir/x.jsonl"],
    # Non-finite values that JSON config files can spell.
    ["run", "--config", '{"initial_point": [NaN, 0.5]}'],
    ["run", "--config", '{"initial_point": [Infinity, 0.5]}'],
    ["run", "--config", '{"initial_mesh_size": Infinity}'],
    ["run", "--config", '{"mesh_size_tolerance": NaN}'],
    # Valid JSON that is not an object of keys.
    ["run", "--config", "[1, 2]"],
    # An initial point that is not n numbers.
    ["run", "--config", '{"initial_point": [[0.5], [0.5]]}'],
    ["run", "--config", '{"initial_point": "ab"}'],
    ["run", "--config", '{"initial_point": [0.5, "x"]}'],
    ["run", "--config", '{"initial_point": [[0.5], 0.5]}'],
    ["run", "--config", '{"initial_point": {"a": 1}}'],
    ["run", "--config", '{"initial_point": [null, 0.5]}'],
    ["run", "--config", '{"initial_point": [true, 0.5]}'],
    # Values of the wrong JSON type, which int() or float() would coerce.
    ["run", "--config", '{"max_iterations": 2.7}'],
    ["run", "--config", '{"trials": 1.9}'],
    ["run", "--config", '{"seed": true}'],
    ["run", "--config", '{"search_points_count": "16"}'],
    ["run", "--config", '{"emit_rounds": "no"}'],
    ["run", "--config", '{"tau": "0.01"}'],
    ["compare", "--config", '{"planted_t": 1.5}'],
    # Integers too large for a float, which float() would overflow on.
    ["run", "--config", '{"c": 1%s}' % ("0" * 401)],
    ["run", "--config", '{"initial_mesh_size": 1%s}' % ("0" * 401)],
    ["run", "--config", '{"initial_point": [1%s, 0.5]}' % ("0" * 401)],
    # An integer literal past Python's int() digit limit: an unreadable file.
    ["run", "--config", '{"seed": 1%s}' % ("0" * 5000)],
    # Radius + 1 bounds numpy's int64 draw of z.
    ["run", "--config", '{"search_radius": 9223372036854775808}'],
    ["run", "--backend", "classical", "--config",
     '{"search_radius": 9223372036854775808}'],
    ["compare", "--search-radius", "9223372036854775808"],
    # About 1.4e7 rounds per failing search, past MAX_SCHEDULE_ROUNDS.
    ["run", "--c", "1.0000001", "--max-iterations", "1"],
    ["compare", "--config", '{"c": 1.0000001}'],
    # The classical backend refuses the loop constants the quantum one does.
    ["run", "--backend", "classical", "--c", "1.0000001", "--max-iterations", "1"],
    ["run", "--backend", "classical", "--tau", "5e-14", "--max-iterations", "1"],
    # 2^70 points: past 2^20, refused before any draw.
    ["run", "--search-points-count", "1180591620717411303424"],
    ["compare", "--search-points-count", "1180591620717411303424"],
    ["compare", "--planted-t", "300", "--search-points-count", "256"],
    ["compare", "--planted-t", "-1"],
    ["compare", "--trials", "0"],
    # compare keeps every trial's row until it writes them: at most 2^20.
    ["compare", "--trials", "1048577"],
    ["compare", "--trials", "100000000000"],
    # run holds every trial's lines too, under the same bound.
    ["run", "--trials", "100000000000"],
    # A negative budget would stop the run before its first iteration.
    ["run", "--config", '{"max_oracle_calls": -1}'],
    ["compare", "--seed", "-1"],
    ["compare", "--objective", "sphere", "--planted-t", "1"],
    # With nothing to find, M outgrows the 64-bit draw of j before u reaches
    # ln(1e-14)/ln(3/4).
    ["run", "--objective", "step", "--initial-mesh-size", "0.25", "--tau", "1e-14",
     "--max-iterations", "3"],
    # 256 points cannot fit in an 8-bit point register besides the incumbent;
    # refused before the small-z top-up walks 41^4 combinations.
    ["run", "--backend", "classical", "--config",
     '{"dimension": 2, "initial_point": [0, 0], "total_bits": 4, "frac_bits": 0, '
     '"initial_mesh_size": 1, "search_radius": 40, "search_points_count": 256}'],
    # A mesh of step 2 reaches only 8 positions per axis in [-8, 7]: refused
    # by counting them, before the top-up walks 41^4 (or 41^6) combinations.
    ["run", "--backend", "classical", "--config",
     '{"dimension": 2, "initial_point": [0, 0], "total_bits": 4, "frac_bits": 0, '
     '"initial_mesh_size": 2, "search_radius": 40, "search_points_count": 128}'],
    ["run", "--backend", "classical", "--config",
     '{"dimension": 3, "initial_point": [0, 0, 0], "total_bits": 4, "frac_bits": 0, '
     '"initial_mesh_size": 2, "search_radius": 40, "search_points_count": 512}'],
    ["demo-amplify", "--n-marked", "-1"],
    ["demo-amplify", "--n-points", "0", "--n-marked", "0"],
    ["demo-amplify", "--trials", "0"],
    ["demo-amplify", "--j-max", "-3"],
    ["demo-amplify", "--seed", "-1"],
    ["demo-amplify", "--trials", "9223372036854775808"],  # 2^63
    ["demo-amplify", "--n-points", "2097152", "--n-marked", "0"],  # 2^21
    # 2^14: past the string-keyed simulator's time bound.
    ["demo-amplify", "--n-points", "16384", "--n-marked", "0"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_cli_refuses_bad_value_with_one_line(argv, tmp_path, tmp_path_factory, capsys):
    if "--config" in argv:  # the config file lives outside the output directory
        at = argv.index("--config") + 1
        config = tmp_path_factory.mktemp("config") / "config.json"
        config.write_text(argv[at])
        argv = argv[:at] + [str(config)] + argv[at + 1 :]
    if "--output" in argv:
        argv = [str(tmp_path / a) if a.startswith("missing-dir/") else a for a in argv]
    elif argv[0] != "demo-amplify":
        argv = argv + ["--output", str(tmp_path / "out.jsonl")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # refused before any output is opened


@pytest.mark.parametrize(
    "point",
    ['[0.5, "x"]', "[[0.5], 0.5]", '{"a": 1}', '"ab"', "[null, 0.5]", "[true, 0.5]"],
    ids=str,
)
def test_run_refuses_a_malformed_initial_point_by_name(point, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"initial_point": {point}}}')
    assert run_cli("run", "--config", str(config)) == 2
    err = capsys.readouterr().err
    expected = repr(json.loads(point))
    assert err == f"error: initial_point must be a list of 2 numbers, got {expected}\n"


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("max_iterations", "2.7", "an integer"),
        ("seed", "true", "an integer"),
        ("search_points_count", '"16"', "an integer"),
        ("initial_mesh_size", "false", "a number"),
        ("emit_rounds", '"no"', "true or false"),
    ],
)
def test_run_refuses_a_mistyped_key_by_name(key, value, kind, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {value}}}')
    assert run_cli("run", "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} must be {kind}, got {json.loads(value)!r}\n"


# A list is no integer, number, string or true/false.  (Never an integer or a
# boolean for output: open() would take it as a file descriptor.)
@pytest.mark.parametrize(
    "command,key",
    [("run", key) for key in RUN_KEYS if key != "initial_point"]
    + [("compare", key) for key in COMPARE_KEYS],
)
def test_config_refuses_a_value_of_another_kind_by_name(command, key, tmp_path, capsys):
    keys = RUN_KEYS if command == "run" else COMPARE_KEYS
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: ["x"]}))
    assert run_cli(command, "--config", str(config)) == 2
    kind = keys[key].kind.name
    assert kind in ("an integer", "a number", "a string", "true or false")
    assert capsys.readouterr().err == f"error: {key} must be {kind}, got ['x']\n"


def test_config_flags_are_those_of_the_table(capsys):
    flags = {}
    for command in ("run", "compare"):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        usage = capsys.readouterr().out.split("options:")[0]
        words = usage.split()
        flags[command] = sorted(w.strip("[]") for w in words if w.startswith("[--"))
    assert flags["run"] == sorted([
        "--backend", "--c", "--config", "--count-marked", "--dimension",
        "--emit-rounds", "--initial-mesh-size", "--max-iterations",
        "--mesh-size-tolerance", "--objective", "--output",
        "--search-points-count", "--seed", "--tau", "--trials",
    ])
    assert flags["compare"] == sorted([
        "--config", "--dimension", "--objective", "--output", "--planted-t",
        "--search-points-count", "--search-radius", "--seed", "--tau", "--trials",
    ])


@pytest.mark.parametrize(
    "argv", [["compare", "--c", "1.7"], ["run", "--max", "3"]], ids=" ".join
)
def test_a_flag_prefix_is_not_a_flag(argv, capsys):
    """compare's c key has no flag, so --c begins only --config, and --max
    begins only run's --max-iterations: neither is read as that flag."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


def test_run_refused_midway_leaves_existing_output_untouched(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    out.write_text("earlier trace\n")
    argv = ["run", "--initial-mesh-size", "0.3", "--backend", "classical"]
    assert run_cli(*argv, "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: coordinate 0 = 1.65 is not on the 2^-10 grid\n"
    assert out.read_text() == "earlier trace\n"


def test_demo_amplify_exact_rotation(capsys):
    assert run_cli(
        "demo-amplify", "--n-points", "4", "--n-marked", "1",
        "--j-max", "2", "--trials", "100000", "--seed", "5",
    ) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0] != "#"]
    rows = [l.split() for l in lines[1:]]
    # (N=4, t=1, j=1) is the exact Grover case: both columns pin at 1.
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][2]) == 1.0
    for row in rows:
        analytic, err = float(row[1]), float(row[3])
        sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / 100000)
        assert err <= max(3 * sigma, 1e-9)


def test_demo_amplify_no_marked_states(capsys):
    assert run_cli(
        "demo-amplify", "--n-points", "16", "--n-marked", "0",
        "--j-max", "4", "--trials", "2000",
    ) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0] != "#"]
    for row in (l.split() for l in lines[1:]):
        assert float(row[1]) == 0.0 and float(row[2]) == 0.0


def test_compare_report(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = run_cli(
        "compare", "--search-points-count", "64", "--search-radius", "10",
        "--planted-t", "1", "--trials", "12", "--seed", "0",
        "--output", str(out),
    )
    assert code == 0
    records = read_jsonl(out)
    trials = [r for r in records if r["type"] == "trial"]
    reports = [r for r in records if r["type"] == "report"]
    assert len(trials) == 12 and len(reports) == 1
    report = reports[0]
    assert report["tau"] == 0.01
    assert "miss_rate" in report
    assert report["mean_quantum_calls"] < report["mean_classical_calls"] * 2
    err = capsys.readouterr().err
    assert "miss rate" in err


def test_compare_counts_t_from_the_objective(tmp_path):
    # From the origin, sphere's minimum, no candidate improves.
    out = tmp_path / "sphere.jsonl"
    assert run_cli("compare", "--objective", "sphere", "--trials", "3",
                   "--output", str(out)) == 0
    rows = [r for r in read_jsonl(out) if r["type"] == "trial"]
    assert [r["t"] for r in rows] == [0, 0, 0]
    assert not any(r["quantum_success"] for r in rows)
    # An objective alone runs exactly as with planted_t cleared.
    argv = ["compare", "--objective", "rosenbrock", "--search-points-count", "64",
            "--search-radius", "4", "--trials", "4"]
    config = tmp_path / "unplanted.json"
    config.write_text(json.dumps({"planted_t": None}))
    assert run_cli(*argv, "--output", str(tmp_path / "a.jsonl")) == 0
    assert run_cli(*argv, "--config", str(config), "--output", str(tmp_path / "b.jsonl")) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_list_objectives(capsys):
    assert run_cli("list-objectives") == 0
    out = capsys.readouterr().out.split()
    assert out == objective_names()


SRC = str(Path(qpsearch.__file__).resolve().parent.parent)


def fresh_python(*args):
    """Run the interpreter in a new process with this checkout's package."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def test_the_package_runs_without_scipy():
    proc = fresh_python(
        "-c",
        "import sys, qpsearch.cli\n"
        "print('scipy' in sys.modules)\n"
        "from qpsearch.pattern import PatternBasis\n"
        "PatternBasis.coordinate(3)\n"
        "print('scipy' in sys.modules)\n",
    )
    assert proc.stdout.split() == ["False", "False"]


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys):
    calls = [
        ["run", "--objective", "step", "--backend", "classical", "--seed", "3",
         "--tau", "0.05", "--max-iterations", "3", "--emit-rounds"],
        ["compare", "--search-points-count", "16", "--search-radius", "4",
         "--trials", "2", "--seed", "5"],
        ["run", "--max-iterations", "3"],
    ]
    outputs = []
    for argv in calls:
        assert run_cli(*argv) == 0
        outputs.append(capsys.readouterr().out)
    for argv, out in zip(calls, outputs):
        assert out == fresh_python("-m", "qpsearch", *argv).stdout
    # The last call gave no flag but one: nothing of the first call reached it.
    summary = json.loads(outputs[-1].splitlines()[-1])
    config = summary["config"]
    assert (config["objective"], config["backend"], config["seed"]) == ("sphere", "quantum", 0)
    assert (config["tau"], config["emit_rounds"], config["max_iterations"]) == (0.01, False, 3)


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly():
    """`qpsearch run | head -1` exits as `yes | head -1` does: status 141
    (128 + SIGPIPE), with nothing on stderr."""
    # About 1.4 MB of lines, more than a pipe holds even at the largest size
    # an unprivileged process may give it (pipe-max-size, 1 MiB by default).
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpsearch", "run", "--backend", "classical", "--trials", "400"],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["type"] == "iteration"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (stderr.decode(), proc.wait()) == ("", 141)


MODULES = (amplify, fixedpoint, ledger, objectives, pattern, quantum_step, state)


def test_the_package_exports_exactly_each_modules_all():
    exported = {
        name
        for name, value in vars(qpsearch).items()
        if not name.startswith("_") and not isinstance(value, type(qpsearch))
    }
    assert exported == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qpsearch, name) is getattr(module, name), name
