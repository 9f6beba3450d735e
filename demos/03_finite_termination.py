"""Why the stopping rule matters.

When nothing improves on the incumbent (t = 0), the original search loop
would run forever; here it only stops because we cap its rounds.  The
modified loop counts the rounds whose iterate budget M exceeds sqrt(N) --
each of those independently finds an existing marked state with
probability at least 1/4 -- and gives up once (3/4)^u drops below the
tolerance.  Termination is then guaranteed, with a tunably small chance of
missing a real improvement.
"""
import math

import numpy as np

from qpsearch import (
    OracleLedger,
    QSearchParams,
    SafetyCapReachedError,
    failure_round_bound,
    make_planted_problem,
    modified_qsearch,
    qsearch,
)

N = 64
params = QSearchParams(c=1.5, tau=0.01)
problem, _ = make_planted_problem(N, 0)

print(f"N={N}, no marked states, c={params.c}, tau={params.tau}")
print(f"u must stay below ln(tau)/ln(3/4) = {params.u_limit:.3f}")
print(f"round bound: {failure_round_bound(N, params)}\n")

records = []
ledger = OracleLedger()
outcome = modified_qsearch(
    problem, params, rng=np.random.default_rng(0), ledger=ledger, on_round=records.append
)
first_counted = next(r.l for r in records if r.m**2 > N)
print("modified loop rounds (l, M, j, u):")
for r in records:
    tag = " <- M^2 > N from here on" if r.l == first_counted else ""
    print(f"  l={r.l:>2} M={r.m:>5} j={r.j:>5} u={r.u:>2}{tag}")
print(f"outcome: {'found' if outcome.succeeded else 'Failure'} after "
      f"{outcome.rounds_executed} rounds, {ledger.q_applications} iterates of Q\n")

# Note the small cap: it bounds rounds, and a round's oracle calls grow like c^l.
print("original loop on the same problem (round cap 12):")
try:
    qsearch(problem, QSearchParams(c=1.5, max_total_rounds=12), rng=np.random.default_rng(0))
except SafetyCapReachedError as exc:
    print(f"  SafetyCapReachedError: {exc}\n")

print("with one marked state the modified loop almost never gives up:")
problem, _ = make_planted_problem(N, 1, rng=np.random.default_rng(3))
failures = sum(
    not modified_qsearch(problem, params, rng=np.random.default_rng(s)).succeeded
    for s in range(2000)
)
print(f"  failures over 2000 trials: {failures} (tolerance allows {math.ceil(2000*params.tau)})")
