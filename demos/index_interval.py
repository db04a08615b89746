"""The index-one condition across ball radii, and why its fixed point is
the only one.

For the Gaussian case study the index-one condition at radius rho is
sup_{t,s,|v|<=rho} f(t, s, v*phi(t)) / phi(t) * sup_x int |G| < rho,
which reduces to (1/8 + rho^2) / rho * (sqrt(pi)/2) erf(X) < 1.

Run from the repo root:  python3 demos/index_interval.py
"""

import numpy as np

from compactfix.casestudy import load_problem
from compactfix.cones import (abs_integral_beta_factor, default_eval_grid,
                              holding_interval, index_one_check,
                              index_one_sweep)
from compactfix.greenop import GridHammersteinOperator
from compactfix.solver import SolveConfig

problem = load_problem("hyperbolic-erf")
grid = default_eval_grid(24.0)

# The kernel column integral is shared by every radius, compute it once.
beta = abs_integral_beta_factor(problem.kernel, grid)
print(f"sup_x int |G| = {beta:.6f}  (sqrt(pi)/2 = {np.sqrt(np.pi)/2:.6f})")
print()

rhos = np.round(np.arange(0.05, 1.01, 0.05), 10)
rows = index_one_sweep(problem.kernel, problem.nl, rhos, grid)
print("rho     sup f / rho * beta   index-one ball")
for row in rows:
    mark = "holds" if row["holds"] else "-"
    print(f"{row['rho']:.2f}    {row['lhs']:.4f}               {mark}")
print(f"holding interval among sampled radii: {holding_interval(rows)}")
print()

for rho in (0.01, 5.0):
    chk = index_one_check(problem.kernel, problem.nl, rho, grid, beta)
    print(f"rho = {rho}: lhs {chk['lhs']:.3f}, holds {chk['holds']}")
print("the forcing term dominates tiny balls and the quadratic term")
print("dominates large ones, so the holding window is genuine.")
print()

# Each ball of the window holds a fixed point, and it is the same one: the
# y-integral runs over [0, y], so the equation is Volterra in y and
# Gronwall in the weighted norm allows one bounded solution.  Iterating
# q = u/phi from below (q = 0) and from the supersolution q = 0.4 shows it:
# the upper iterates decrease, and the two sequences meet.
axes = SolveConfig(hx=0.05, hy=0.05, truncation=24.0).axes()
op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
lower = np.zeros(tuple(len(a) for a in axes))
upper = np.full_like(lower, 0.4)
print("two-sided iteration at grid step 0.05")
for k in range(1, 9):
    new_upper = op.apply(upper)
    decreasing = bool(np.all(new_upper <= upper))
    lower, upper = op.apply(lower), new_upper
    print(f"  step {k}: sup(upper - lower) = {np.max(upper - lower):.2e}, "
          f"upper iterate decreasing: {decreasing}")
print("both sequences reach the one solution inside every certified ball")
