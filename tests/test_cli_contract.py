"""The CLI contract, drawn from the key tables: every config that `run` or
`compare` reads either runs (exit 0) or is refused with one stderr line and
exit 2, never a traceback or a warning, and `run` gives both search backends
the same answer.  `main`'s parse is that of the full argument parser."""
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qpsearch.cli import (
    BOOLEAN,
    COMPARE_KEYS,
    INTEGER,
    NUMBER,
    RUN_KEYS,
    STRING,
    build_parser,
    main,
    parse_args,
)

# Each example stays small, so that it runs in milliseconds: at most these.
CAPS = {"dimension": 3, "search_points_count": 64, "max_iterations": 5, "trials": 2}

# Edge values of each key, besides its default (capped as above).  c -> 1
# runs past MAX_SCHEDULE_ROUNDS, tau = 1e-14 is out of reach (the schedule
# would draw j past numpy's int64 range first), and the register and mesh
# values put points off the grid, out of range or beyond the register's room.
EDGES = {
    "objective": ["sphere", "rosenbrock", "step", "quadratic100", "no-such-objective"],
    "dimension": [-1, 0, 1, 2, 3],
    "seed": [-1, 1, 2**64],
    "trials": [0, 1, 2],
    "initial_mesh_size": [0, -0.5, 0.3, 0.125, 1, 2.0, 1e308, math.inf, math.nan],
    "mesh_size_tolerance": [0, 1e-300, 0.25, 10.0, math.inf],
    "max_iterations": [-1, 0, 1, 5],
    "search_points_count": [0, 1, 2, 3, 16, 64],
    "tau": [0.0, 1e-14, 1e-10, 0.5, 0.99, 1.0, math.nan],
    "c": [1.0, 1.0000001, 1.01, 1.999, 2.0],
    "expansion_factor": [1, 2.0, 3.0, 0.5],
    "contraction_factor": [0.5, 0.25, 1.0, 0.3],
    "search_radius": [0, 1, 2, 2**63 - 1, 2**63],
    "total_bits": [1, 2, 4, 8, 16, 32, 33],
    "frac_bits": [-1, 0, 1, 4, 10, 31],
    "max_oracle_calls": [-1, 0, 50],
    "emit_rounds": [False, True],
    "planted_t": [-1, 0, 1, 64, 65],
}

# A value of another JSON kind for each kind; None where the default is not.
OTHER_KIND = {
    INTEGER: [2.5, "3", True],
    NUMBER: ["0.5", False],
    STRING: [7, ["x"]],
    BOOLEAN: [1, "yes"],
}


def key_values(key, spec):
    """The key's default, capped where CAPS caps it, then its edge values."""
    default = min(spec.default, CAPS[key]) if key in CAPS else spec.default
    return [default] + EDGES.get(key, [])


@st.composite
def configs(draw, keys):
    """A config file: each key at its (capped) default, up to four keys set
    from their values, and sometimes one key set to a value of another
    kind."""
    config = {key: key_values(key, keys[key])[0] for key in CAPS if key in keys}
    edged = [k for k in keys if k in EDGES or k == "initial_point"]
    for key in draw(st.lists(st.sampled_from(edged), max_size=4, unique=True)):
        if key == "initial_point":
            length = max(config["dimension"] + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
            coordinate = st.sampled_from([0, 0.75, -1.0, 0.5, 3, 1e308, math.inf, "x", None])
            config[key] = draw(st.lists(coordinate, min_size=length, max_size=length))
        else:
            config[key] = draw(st.sampled_from(key_values(key, keys[key])))
    if draw(st.sampled_from([False, False, False, True])):
        key = draw(st.sampled_from([k for k in keys if keys[k].kind is not None]))
        wrong = OTHER_KIND[keys[key].kind] + ([] if keys[key].default is None else [None])
        config[key] = draw(st.sampled_from(wrong))
    return config


def invoke(argv):
    """main(argv)'s exit code and stderr, with every warning recorded."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2), code
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code, err.getvalue()


def with_config_file(config, run):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))  # NaN and Infinity as JSON spells them
        return run(str(path))


# Under the caps no example took 0.2 s in 12,000 drawn; the deadline, five
# times that, catches runaway work such as a walk of every small z.
@settings(max_examples=400, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(configs(RUN_KEYS))
def test_run_exits_0_or_2_alike_on_both_backends(config):
    outcomes = with_config_file(config, lambda path: [
        invoke(["run", "--config", path, "--backend", backend])
        for backend in ("classical", "quantum")
    ])
    assert outcomes[0][0] == outcomes[1][0], outcomes


@settings(max_examples=200, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(configs(COMPARE_KEYS))
def test_compare_exits_0_or_2(config):
    with_config_file(config, lambda path: invoke(["compare", "--config", path]))


# Flag values of each kind, good and bad; a flag may also come without one.
FLAG_VALUES = {
    INTEGER: ["3", "-1", "0", "2.5", "x", ""],
    NUMBER: ["0.5", "-2", "1e308", "nan", "inf", "x"],
    STRING: ["sphere", "classical", "quantum", "out.jsonl", "-", "--"],
}
# Words no command declares, prefixes of declared flags, help, and a stray --.
STRAY = ["--no-such-flag", "--c", "--max", "--conf", "-h", "--help", "--", "word",
         "--backend=classical", "--seed=", "-x", "-1"]


@st.composite
def argvs(draw):
    """A subcommand's argv from its key table's flags, with stray words mixed in."""
    command = draw(st.sampled_from(["run", "compare"]))
    keys = RUN_KEYS if command == "run" else COMPARE_KEYS
    valued = {"--config": STRING}
    valued.update(
        ("--" + key.replace("_", "-"), spec.kind) for key, spec in keys.items() if spec.flag
    )
    switches = ["--emit-rounds", "--count-marked"] if command == "run" else []
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        word = draw(st.sampled_from(sorted(valued) + switches + STRAY))
        argv.append(word)
        if word in valued and draw(st.sampled_from([True, True, True, False])):
            argv.append(draw(st.sampled_from(FLAG_VALUES[valued[word]])))
    return argv


def parse_outcome(parse, argv):
    """parse(argv)'s namespace, or what it printed and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["run", "--no-such-flag"])
@example(["compare", "--c", "1.7"])
@example(["run", "--max-iterations", "2.5"])
@example(["run", "--seed"])
@example(["run", "-h"])
@example(["compare", "--trials", "1", "--help"])
@example([])
@example(["-h"])
@example(["no-such-command", "--seed", "1"])
@example(["run", "--", "--seed", "1"])
@example(["--", "run"])
@example(["list-objectives", "extra"])
@example(["demo-amplify", "--n-points", "x"])
@example(["compare", "--trials", "3", "--seed", "4", "--planted-t", "1"])
def test_parse_args_is_the_full_parsers_parse(argv):
    """main's parse gives the namespace of build_parser().parse_args, or
    prints the same and exits with the same code."""
    outcome = parse_outcome(parse_args, argv)
    assert outcome == parse_outcome(build_parser().parse_args, argv)
