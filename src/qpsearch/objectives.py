"""Built-in objective functions, looked up by name.

The registry ships a convex bowl, an ill-conditioned quadratic, the banana
valley, and a staircase plateau whose flat regions force search steps to
come up empty.  Each has an ``on_rows(X)`` array form, equal bit for bit.
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


def _sphere(n: int) -> Objective:
    def f(x: np.ndarray) -> float:
        return float(np.dot(x, x))

    f.on_rows = lambda X: np.vecdot(X, X)  # one BLAS dot per row, as np.dot
    return f


@lru_cache(maxsize=8)
def _weights(n: int) -> np.ndarray:
    # Shared by every quadratic100 of dimension n, so read-only.
    weights = np.geomspace(1.0, 100.0, n)
    weights.flags.writeable = False
    return weights


def _quadratic100(n: int) -> Objective:
    # Diagonal quadratic with condition number 100.
    weights = _weights(n)

    def f(x: np.ndarray) -> float:
        return float(np.dot(weights, np.asarray(x) ** 2))

    # Squared in C order, as each row's square is: a strided dot rounds apart.
    f.on_rows = lambda X: np.vecdot(weights, np.ascontiguousarray(X) ** 2)
    return f


def _rosenbrock(n: int) -> Objective:
    if n != 2:
        raise ValueError("rosenbrock is defined here for n = 2 only")

    def f(x: np.ndarray) -> float:
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    # A float64's ** 2 is libm's pow, as np.float_power is per entry; an
    # array's ** 2 is x * x, which pow rounds apart from now and then.
    pw = np.float_power
    f.on_rows = lambda X: 100.0 * pw(X[:, 1] - pw(X[:, 0], 2), 2) + pw(1.0 - X[:, 0], 2)
    return f


def _step(n: int) -> Objective:
    # Staircase plateau: constant inside unit cells, so search steps over a
    # fine mesh find no strict improvement (t = 0).
    def f(x: np.ndarray) -> float:
        return float(np.floor(np.abs(x)).sum())

    f.on_rows = lambda X: np.floor(np.abs(X)).sum(axis=1)  # whole terms: exact in any order
    return f


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
