"""qpsearch benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gps-quantum --seed 1 --seconds 30 --trace 0

Ops go one at a time through ``qpsearch.cli.main``, called in-process from
this single process with no threads: a closed loop with one client.  One
untimed warm-up op runs first, then, on gps-quantum, an untimed probe that
reports whether the quantum backend still raises on an incumbent its register
cannot hold (ROADMAP item 5).  The workload's first ``counted_ops`` ops then
form the op list, which runs round and round until ``--seconds`` have passed;
its first round gives the call counts (exact for a seed), every op is timed
and every op's output is checked, and an op run again must print what it
printed the first time.

Each op runs right after a fixed reference loop that uses nothing of the
program.  On a shared host the speed can swing by up to twice within seconds;
the op and the loop run just before it swing together, so the gated op timings
(``op_norm_*``) are op time over that loop's time: they move with the
program, not with the host.  Raw wall times (``op_s_*``, ``ops_per_s``) are
reported beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the counted
ops under the wrappers in ``tracing.py`` and prints the per-layer metrics; its
first ops also run untraced, in pairs, to give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with every metric, the sample counts, versions and output hashes.
Spans and reports are written under ``.perfbench/`` in the repository root.
The exit code is 1 if any check failed and 2 if the program is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
PAIRED_OPS = 16  # traced runs: ops also run untraced, for the overhead

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qpsearch.cli\n"
    "from qpsearch.pattern import PatternBasis\n"
    "PatternBasis.coordinate(2)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


@dataclass
class Outcome:
    seconds: float
    text: str
    facts: Optional[object] = None  # workloads.Facts when the op completed
    error: Optional[str] = None  # why the op failed
    incorrect: bool = False  # wrong output or a crash, not a refused input
    ref_seconds: Optional[float] = None  # reference loop run just before the op

    @property
    def completed(self) -> bool:
        return self.error is None


def execute(cli, workloads, op) -> Outcome:
    """One op through the CLI entry point, then its checks."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # the op failed; classified below
            exc = e
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    if exc is not None:
        # Errors the library defines are refusals of an input; anything else
        # is a crash.
        refused = type(exc).__module__.startswith("qpsearch")
        return Outcome(seconds, text, error=f"{type(exc).__name__}: {exc}",
                       incorrect=not refused)
    if code not in (0, None):
        return Outcome(seconds, text, error=f"exit code {code}: {err.getvalue().strip()}")
    try:
        facts = workloads.check(op, text)
    except (workloads.CheckFailed, ValueError, KeyError, TypeError) as e:
        return Outcome(seconds, text, error=f"check failed: {e}", incorrect=True)
    return Outcome(seconds, text, facts)


def measure_setup() -> float:
    """Median time to import the CLI and build the first PatternBasis, each
    in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def call_totals(counted: List[Outcome]) -> Dict[str, int]:
    facts = [o.facts for o in counted if o.completed]
    keys = ("classical_calls", "quantum_calls", "qsearch_rounds", "q_applications")
    return {k: sum(getattr(f, k) for f in facts) for k in keys}


def e2e_metrics(outcomes: List[Outcome], counted: List[Outcome], setup_s: float) -> dict:
    times = [o.seconds for o in outcomes if o.completed]
    norm = [o.seconds / o.ref_seconds for o in outcomes if o.completed]
    done = [o.facts for o in counted if o.completed]
    compare = [f for f in done if f.missed is not None]
    return {
        "setup_s": (setup_s, "s"),
        "op_norm_p50": (statistics.median(norm), "ref"),
        "op_norm_p75": (statistics.quantiles(norm, n=4)[2], "ref"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p75": (statistics.quantiles(times, n=4)[2], "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "quantum_calls_per_op": (statistics.fmean(f.quantum_calls for f in done), "count"),
        "classical_calls_per_op": (statistics.fmean(f.classical_calls for f in done), "count"),
        "failed_frac": (sum(not o.completed for o in counted) / len(counted), "ratio"),
        "miss_frac": (
            sum(f.missed for f in compare) / len(compare) if compare else None, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def reference_loop() -> float:
    """Wall time of a fixed loop that uses nothing of the program but does its
    three kinds of work: string and dict work like the interpreter-bound
    layers, small numpy ufuncs like the array-bound ones, and one small scipy
    LP like the positive-spanning check."""
    import numpy as np
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    table: Dict[str, int] = {}
    for i in range(2000):
        key = format(i, "012b")
        table[key] = table.get(key[::-1], 0) + i
    sum(v * 0.5 for v in table.values() if v & 1)
    a = np.arange(1024.0)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    directions = np.array([[1, 0, 0, -1, 1, 0], [0, 1, 0, -1, 1, -1], [0, 0, 1, -1, 0, 1]],
                          dtype=float)
    linprog(np.ones(6), A_eq=directions, b_eq=[0.3, -0.2, 0.5], bounds=(0, None),
            method="highs")
    return time.perf_counter() - t0


def run_timed(cli, workloads, ops, seconds: float) -> List[Outcome]:
    """Run the op list round and round, through once at least and until
    ``seconds`` have passed, each op right after a reference loop.  An op run
    again must print what it printed the first time."""
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    while len(outcomes) < len(ops) or time.perf_counter() - start < seconds:
        i = len(outcomes) % len(ops)
        ref_seconds = reference_loop()
        outcome = execute(cli, workloads, ops[i])
        outcome.ref_seconds = ref_seconds
        first = outcomes[i] if len(outcomes) >= len(ops) else None
        if first is not None and outcome.completed and outcome.text != first.text:
            outcome.error, outcome.incorrect = "output differs from the first run", True
        outcomes.append(outcome)
    return outcomes


def traced_metrics(cli, workloads, tracing, ops, workload, seed: int):
    """Run the counted ops under the tracer, the first PAIRED_OPS of them also
    untraced, and derive the per-layer metrics."""
    tracer = tracing.Tracer()
    traced, untraced, evals = [], [], []
    for i, op in enumerate(ops):
        if i < PAIRED_OPS:
            untraced.append(execute(cli, workloads, op))
        first = len(tracer.code)
        tracer.install()
        try:
            outcome = execute(cli, workloads, op)
        finally:
            tracer.uninstall()
        evals.append(tracer.span_calls_since(tracing.OBJECTIVE_SPAN, first))
        if i < PAIRED_OPS and outcome.text != untraced[i].text:
            outcome.error, outcome.incorrect = "tracing changed the output", True
        traced.append(outcome)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")

    outcomes: Dict[str, int] = {}
    for o in traced:
        for label, n in (o.facts.outcomes if o.completed else {}).items():
            outcomes[label] = outcomes.get(label, 0) + n
    paired = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
              if u.completed and t.completed]
    silent = tracer.silent_bindings(workload.name)
    if not paired:
        return traced + untraced, traced, {}, silent
    overhead = (statistics.median(t for _, t in paired)
                / statistics.median(u for u, _ in paired) - 1)
    metrics = tracing.per_layer_metrics(
        tracer, call_totals(traced), outcomes,
        sum(n for n, o in zip(evals, traced) if o.completed), overhead)
    return traced + untraced, traced, metrics, silent


def output_digest(counted: List[Outcome]) -> str:
    digest = hashlib.sha256()
    for o in counted:
        digest.update((o.text if o.completed else f"FAILED {o.error}\n").encode())
    return digest.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Cap BLAS/OpenMP pools before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not (SRC / "qpsearch" / "__init__.py").is_file():
        print(f"error: no qpsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import qpsearch
    from qpsearch import cli

    import workloads
    if Path(qpsearch.__file__).resolve().parent != (SRC / "qpsearch").resolve():
        print(f"error: qpsearch imported from {qpsearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup()
    workdir = OUT / f"work-{workload.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    problems: List[str] = []
    try:
        generated = workload.make_ops(args.seed, workdir)
        warm = execute(cli, workloads, next(generated))
        if warm.incorrect:
            problems.append(f"warm-up op: {warm.error}")
        probe = None
        if workload.probe is not None:
            outcome = execute(cli, workloads, workload.probe(workdir))
            probe = outcome.error or "completed"
        ops = list(islice(generated, workload.counted_ops))
        if args.trace:
            import tracing

            outcomes, counted, metrics, silent = traced_metrics(
                cli, workloads, tracing, ops, workload, args.seed)
            if silent:
                problems.append("wrapped bindings never called: " + ", ".join(silent))
        else:
            outcomes = run_timed(cli, workloads, ops, args.seconds)
            counted = outcomes[: len(ops)]
            metrics = e2e_metrics(outcomes, counted, setup_s) if any(
                o.completed for o in outcomes) else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o.error for o in outcomes if not o.completed]
    problems += [o.error for o in outcomes if o.incorrect]
    if not metrics:
        problems.append("no op completed")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": len(outcomes),
        "completed_ops": sum(o.completed for o in outcomes),
        "counted_ops": len(counted),
        "output_sha256": output_digest(counted),
        "op_seconds": [o.seconds if o.completed else None for o in outcomes],
        "ref_seconds": [o.ref_seconds for o in outcomes],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "nproc": NPROC},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "overflow_probe": probe,
        "failures": sorted(set(failures))[:10],
        "problems": problems[:10],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>14s} {unit}")
    print(f"{len(outcomes)} timed ops, {report['completed_ops']} completed, "
          f"{len(counted)} counted; output sha256 {report['output_sha256'][:16]}")
    if probe is not None:
        print(f"overflow probe (rosenbrock from (-1, -1), format 16/8): {probe}")
    for p in problems[:10]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"report": report}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted if k in metrics},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
