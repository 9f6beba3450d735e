"""Audited separation of classical and quantum oracle call counts.

The cost convention: one quantum call per application of the oracle F
(once inside each preparation or un-preparation of the search state), one
classical call per direct objective evaluation.  Poll steps are classical
by construction and must never touch the quantum counters.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OracleLedger"]


@dataclass
class OracleLedger:
    classical_calls: int = 0
    quantum_calls: int = 0
    qsearch_rounds: int = 0
    q_applications: int = 0

    # vars(), not dataclasses' asdict, astuple or replace, which recurse.
    def copy(self) -> "OracleLedger":
        return OracleLedger(**vars(self))

    def delta_since(self, earlier: "OracleLedger") -> "OracleLedger":
        before = vars(earlier)
        return OracleLedger(**{k: v - before[k] for k, v in vars(self).items()})

    @property
    def total_calls(self) -> int:
        return self.classical_calls + self.quantum_calls

    def as_dict(self) -> dict:
        return dict(vars(self))
