"""Objective registry and the command-line surfaces."""
import json
import math

import numpy as np
import pytest

from qpsearch.cli import main
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
    ["compare", "--planted-t", "300", "--search-points-count", "256"],
    ["compare", "--planted-t", "-1"],
    ["compare", "--trials", "0"],
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
