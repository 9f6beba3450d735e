"""Per-layer tracing from outside the program.

Wrappers are bound where each name is looked up at call time, not only where
it is defined: modules import these names directly (``pattern`` holds its own
``encode_point_exact``, ``quantum_step`` its own ``modified_qsearch``, and so
on), and class attributes such as ``HouseholderPrepare.__call__`` are looked
up on the type.  The objective callables, whether made by the objectives
registry or planted by ``compare``, are traced by wrapping the ``objective``
argument of every wrapped function that takes one.  Each wrapped call
records a span (name, parent, start, end) in flat in-memory arrays; self time
is a span minus its child spans.
"""
from __future__ import annotations

import inspect
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from qpsearch import amplify, cli, pattern, quantum_step, state

GPS = frozenset({"gps-quantum", "gps-classical"})
QUANTUM = frozenset({"gps-quantum", "compare-n1024"})
ALL = GPS | QUANTUM

OBJECTIVE_SPAN = "objectives.eval"


@dataclass(frozen=True)
class Binding:
    owner: object  # module or class whose attribute is replaced
    attr: str
    span: str
    fires_on: FrozenSet[str]  # workloads on which it must be called
    hook: Optional[str] = None


BINDINGS = (
    Binding(cli, "main", "cli.main", ALL),
    Binding(cli, "gps_run", "pattern.gps_run", GPS),
    Binding(cli, "compare_backends", "quantum_step.compare_backends",
            frozenset({"compare-n1024"})),
    Binding(pattern, "positive_spanning_check", "pattern.positive_spanning_check", ALL),
    Binding(pattern, "poll_step", "pattern.poll_step", GPS, "poll"),
    Binding(pattern, "select_search_points", "pattern.select_search_points",
            frozenset({"gps-classical"})),
    Binding(pattern, "classical_search_step", "pattern.classical_search_step",
            frozenset({"gps-classical"})),
    Binding(pattern, "encode_point_exact", "fixedpoint.encode_point_exact", ALL),
    Binding(quantum_step, "select_search_points", "pattern.select_search_points", QUANTUM),
    Binding(quantum_step, "classical_search_step", "pattern.classical_search_step",
            frozenset({"compare-n1024"})),
    Binding(quantum_step, "quantum_search_step", "quantum_step.quantum_search_step",
            QUANTUM, "search_step"),
    Binding(quantum_step, "modified_qsearch", "amplify.modified_qsearch", QUANTUM, "qsearch"),
    Binding(quantum_step, "encode_scalar_saturating",
            "fixedpoint.encode_scalar_saturating", QUANTUM),
    Binding(amplify, "apply_Q", "amplify.apply_Q", QUANTUM),
    Binding(amplify, "apply_S0", "amplify.reflections", QUANTUM),
    Binding(amplify, "apply_Schi", "amplify.reflections", QUANTUM),
    Binding(amplify, "measure", "state.measure", QUANTUM),
    Binding(amplify.PreparationOperator, "__init__", "amplify.operator_build", QUANTUM),
    Binding(amplify.PreparationOperator, "apply", "amplify.prepare", QUANTUM),
    Binding(amplify.PreparationOperator, "apply_inverse", "amplify.prepare", QUANTUM),
    Binding(state.HouseholderPrepare, "__call__", "state.householder", QUANTUM, "support"),
)


def _key(b: Binding) -> str:
    """Span code of one binding: its layer name, then where it is bound."""
    return f"{b.span}@{b.owner.__name__}.{b.attr}"


def _param_index(fn: Callable, name: str) -> Optional[int]:
    params = list(inspect.signature(fn).parameters)
    return params.index(name) if name in params else None


def _get_arg(args: tuple, kwargs: dict, index: Optional[int], name: str):
    if index is not None and index < len(args):
        return args[index]
    return kwargs.get(name)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span_calls_since(self, name: str, first: int) -> int:
        """Spans of the given name recorded at or after index ``first``."""
        code = np.frombuffer(self.code, dtype=np.int32)[first:]
        return int(np.count_nonzero(code == self._codes.get(name, -1)))

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _wrap(self, fn: Callable, span: str, hook: Optional[str]) -> Callable:
        code = self._code_of(span)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack = self._stack
        obj_at = _param_index(fn, "objective")
        ledger_at = _param_index(fn, "ledger")
        proxy = self._objective_proxy
        count = self._count

        def wrapper(*args, **kwargs):
            if obj_at is not None:
                args, kwargs = _swap_objective(args, kwargs, obj_at, proxy)
            ledger = _get_arg(args, kwargs, ledger_at, "ledger") if hook else None
            before = _ledger_tuple(ledger) if ledger is not None else None
            if hook == "support":
                count("state.householder.support", len(args[1].amplitudes))
            i = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if hook == "qsearch" and result.result is not None:
                count("amplify.found")
            elif hook == "search_step":
                delta = _delta(ledger, before)
                # Found: an improvement came back.  Rejected: a measured
                # candidate failed its classical recheck.  Failure: nothing
                # was measured as desired.
                if result is not None:
                    label = "found"
                elif delta[0] > 0:
                    label = "rejected"
                else:
                    label = "failure"
                count(f"quantum_step.result.{label}")
                count(f"quantum_step.quantum_calls.{label}", delta[1])
            elif hook == "poll":
                count("pattern.poll_step.classical_calls", _delta(ledger, before)[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _objective_proxy(self, fn: Callable) -> Callable:
        wrapped = self._wrap(fn, OBJECTIVE_SPAN, None)
        wrapped._perfbench_objective = True
        return wrapped

    def install(self) -> None:
        """Replace every binding; raises AttributeError if a name is gone."""
        for b in BINDINGS:
            original = getattr(b.owner, b.attr)
            self._saved.append((b.owner, b.attr, original))
            setattr(b.owner, b.attr, self._wrap(original, _key(b), b.hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def silent_bindings(self, workload: str) -> List[str]:
        """Bindings that the given workload should call but never did."""
        code = np.frombuffer(self.code, dtype=np.int32)
        fired = np.bincount(code, minlength=len(self.names))
        silent = [
            _key(b)
            for b in BINDINGS
            if workload in b.fires_on and fired[self._codes[_key(b)]] == 0
        ]
        if OBJECTIVE_SPAN not in self._codes:
            silent.append(f"{OBJECTIVE_SPAN} (objective arguments)")
        return silent

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Calls, total and self seconds per span name."""
        code = np.frombuffer(self.code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        stats: Dict[str, Dict[str, float]] = {}
        for c, key in enumerate(self.names):
            mask = code == c
            layer = stats.setdefault(key.split("@")[0],
                                     {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += int(mask.sum())
            layer["total_s"] += float(dur[mask].sum())
            layer["self_s"] += float(own[mask].sum())
        return stats

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            code=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _swap_objective(args: tuple, kwargs: dict, index: int, proxy: Callable):
    fn = _get_arg(args, kwargs, index, "objective")
    if fn is None or getattr(fn, "_perfbench_objective", False):
        return args, kwargs
    if index < len(args):
        args = args[:index] + (proxy(fn),) + args[index + 1:]
    else:
        kwargs = {**kwargs, "objective": proxy(fn)}
    return args, kwargs


def _ledger_tuple(ledger) -> Tuple[int, int]:
    return ledger.classical_calls, ledger.quantum_calls


def _delta(ledger, before: Tuple[int, int]) -> Tuple[int, int]:
    after = _ledger_tuple(ledger)
    return after[0] - before[0], after[1] - before[1]


def per_layer_metrics(tracer: Tracer, ledger: Dict[str, int], outcomes: Dict[str, int],
                      completed_evals: int, overhead_frac: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric set, as name -> (value, unit)."""
    stats = tracer.layer_stats()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    counts = tracer.counts

    def s(span: str, key: str) -> float:
        return stats.get(span, empty)[key]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, Tuple[float, str]] = {}

    def calls_self(span: str, metric: Optional[str] = None, total: bool = False) -> None:
        metric = metric or span
        m[f"{metric}.calls"] = (s(span, "calls"), "count")
        m[f"{metric}.self_s"] = (s(span, "self_s"), "s")
        if total:
            m[f"{metric}.total_s"] = (s(span, "total_s"), "s")

    calls_self("state.householder")
    m["state.householder.support_mean"] = (
        ratio(counts.get("state.householder.support", 0), s("state.householder", "calls")),
        "entries")
    calls_self("state.measure")
    calls_self("amplify.apply_Q", total=True)
    calls_self("amplify.prepare")
    m["amplify.reflections.self_s"] = (s("amplify.reflections", "self_s"), "s")
    calls_self("amplify.operator_build")
    calls_self("amplify.modified_qsearch", total=True)
    m["amplify.found_frac"] = (
        ratio(counts.get("amplify.found", 0), s("amplify.modified_qsearch", "calls")), "ratio")
    calls_self("quantum_step.quantum_search_step")
    quantum_by_result = {}
    for label in ("found", "failure", "rejected"):
        m[f"quantum_step.result.{label}"] = (counts.get(f"quantum_step.result.{label}", 0), "count")
        quantum_by_result[label] = counts.get(f"quantum_step.quantum_calls.{label}", 0)
        m[f"quantum_step.quantum_calls.{label}"] = (quantum_by_result[label], "count")
    m["quantum_step.quantum_calls_failed_frac"] = (
        ratio(quantum_by_result["failure"] + quantum_by_result["rejected"],
              sum(quantum_by_result.values())), "ratio")
    m["quantum_step.compare_backends.self_s"] = (s("quantum_step.compare_backends", "self_s"), "s")
    calls_self("pattern.gps_run")
    calls_self("pattern.positive_spanning_check")
    calls_self("pattern.poll_step")
    m["pattern.poll_step.classical_calls"] = (
        counts.get("pattern.poll_step.classical_calls", 0), "count")
    calls_self("pattern.select_search_points")
    calls_self("pattern.classical_search_step")
    m["pattern.search_success_frac"] = (
        ratio(outcomes.get("search-success", 0), sum(outcomes.values())), "ratio")
    calls_self("fixedpoint.encode_point_exact")
    calls_self("fixedpoint.encode_scalar_saturating")
    m["objectives.evals"] = (s(OBJECTIVE_SPAN, "calls"), "count")
    m["objectives.self_s"] = (s(OBJECTIVE_SPAN, "self_s"), "s")
    m["objectives.unledgered_evals"] = (completed_evals - ledger["classical_calls"], "count")
    for key in ("classical_calls", "quantum_calls", "qsearch_rounds", "q_applications"):
        m[f"ledger.{key}"] = (ledger[key], "count")
    calls_self("cli.main")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
