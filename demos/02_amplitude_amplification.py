"""Watching the amplification rotation, exactly.

The preparation operator loads |0>|0>|-f_k>, spreads the point register
over the N candidates, evaluates the oracle in superposition and adds the
value register into the comparison register.  Candidates that improve on
the incumbent carry a negative comparison register, and each iterate of Q
rotates probability toward them by exactly sin^2((2j+1) theta),
sin^2(theta) = t/N.  The simulator is sparse and exact, so the match is to
machine precision, not sampling error.
"""
import numpy as np

from qpsearch import (
    PreparationOperator,
    analytic_success_probability,
    apply_Q,
    desired_probability,
    make_planted_problem,
)

N, T = 32, 2
problem, marked = make_planted_problem(N, T, rng=np.random.default_rng(8))
print(f"N={N} candidates, t={T} improving (planted at indices {marked})\n")

ops = PreparationOperator(problem)
state = ops.prepare_from_zero()
print(f"prepared state support: {len(state)} basis strings")
print(f"one of them: |{next(iter(state.support()))}>  (point|value|comparison)\n")

print(f"{'j':>3} {'simulated':>12} {'closed form':>12} {'difference':>12}")
for j in range(9):
    simulated = desired_probability(state)
    closed = analytic_success_probability(N, T, j)
    print(f"{j:>3} {simulated:>12.9f} {closed:>12.9f} {abs(simulated-closed):>12.3e}")
    state = apply_Q(state, ops)

best_j = int(np.round((np.pi / (4 * np.arcsin(np.sqrt(T / N)))) - 0.5))
print(f"\noptimal iterate count for this (N, t): j = {best_j}")
