"""Built-in objective functions, looked up by name.

The registry ships a convex bowl, an ill-conditioned quadratic, the banana
valley, and a staircase plateau whose flat regions force search steps to
come up empty.  Each is defined once, by its ``on_rows(X)`` array form; its
value at one point is that form's value on the one-row matrix of the point.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

import numpy as np

__all__ = ["UnknownObjectiveError", "make_objective", "objective_names"]

Objective = Callable[[np.ndarray], float]


class UnknownObjectiveError(KeyError):
    """Objective name not present in the registry."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return (
            f"unknown objective {self.name!r}; available: "
            f"{', '.join(objective_names())}"
        )


def _from_rows(on_rows: Callable[[np.ndarray], np.ndarray]) -> Objective:
    """The objective whose array form is ``on_rows``: its value at a point x
    is row 0 of ``on_rows`` over the one-row matrix of x."""

    def f(x: np.ndarray) -> float:
        return float(on_rows(np.asarray(x, dtype=float)[None, :])[0])

    f.on_rows = on_rows
    return f


def _sphere(n: int) -> Objective:
    # One BLAS dot per row, as the golden traces' np.dot(x, x) took.
    return _from_rows(lambda X: np.vecdot(X, X))


@lru_cache(maxsize=8)
def _weights(n: int) -> np.ndarray:
    # Shared by every quadratic100 of dimension n, so read-only.
    weights = np.geomspace(1.0, 100.0, n)
    weights.flags.writeable = False
    return weights


def _quadratic100(n: int) -> Objective:
    # Diagonal quadratic with condition number 100.
    weights = _weights(n)
    # Squared into C order, so a row reads the same alone and in a C- or
    # Fortran-order batch: a strided dot rounds apart.
    return _from_rows(lambda X: np.vecdot(weights, np.ascontiguousarray(X) ** 2))


def _rosenbrock(n: int) -> Objective:
    if n != 2:
        raise ValueError("rosenbrock is defined here for n = 2 only")
    # libm's pow per entry, as the golden traces' float64 ** 2 took; an
    # array's ** 2 is x * x, which pow rounds apart from now and then.
    pw = np.float_power
    return _from_rows(
        lambda X: 100.0 * pw(X[:, 1] - pw(X[:, 0], 2), 2) + pw(1.0 - X[:, 0], 2)
    )


def _step(n: int) -> Objective:
    # Staircase plateau: constant inside unit cells, so search steps over a
    # fine mesh find no strict improvement (t = 0).
    # Summed along C-ordered rows, so a row reads the same alone and in a C-
    # or Fortran-order batch: past 2^53 the strided sum rounds apart.
    return _from_rows(lambda X: np.floor(np.abs(np.ascontiguousarray(X))).sum(axis=1))


_REGISTRY: Dict[str, Callable[[int], Objective]] = {
    "sphere": _sphere,
    "quadratic100": _quadratic100,
    "rosenbrock": _rosenbrock,
    "step": _step,
}


def objective_names() -> List[str]:
    return sorted(_REGISTRY)


def make_objective(name: str, dimension: int) -> Objective:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownObjectiveError(name) from None
    return factory(dimension)
