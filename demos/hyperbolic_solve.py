"""End-to-end solve of the Gaussian-kernel case study.

The equation is u(x, y) = int_0^x int_0^y e^{-(x-t)^2} f(t, s, u) ds dt
with f = (1/8) e^{-(t^2+s^2)} + u^2, solved in the space weighted by
phi = exp(-x^2/2).

Run from the repo root:  python3 demos/hyperbolic_solve.py
"""

import numpy as np

from compactfix.casestudy import load_problem
from compactfix.funcspace import weighted_norm
from compactfix.greenop import apply_T, check_hypotheses
from compactfix.solver import SolveConfig, picard_solve


def main():
    problem = load_problem("hyperbolic-erf")

    print("regularity hypotheses at cone radius r = 0.5")
    report = check_hypotheses(problem.kernel, problem.nl, 0.5)
    print(f"  hypothesis report at r = {report['r']:g}")
    for key, cond in sorted(report["hypotheses"].items()):
        print(f"    {key}: {cond['status']} ({cond['detail']})")
    for key, value in sorted(report["integrals"].items()):
        print(f"    integral {key} = {value:g}")
    print("  the dominated-tail condition diverges for this kernel, so the")
    print("  operator's face behavior is certified by windowed limits on")
    print("  the output instead of the dominated-convergence shortcut.")

    print()
    print("Picard iteration from u = 0 inside the ball of radius 0.5")
    cfg = SolveConfig(hx=0.02, hy=0.02, truncation=24.0, tol=1e-8,
                      rho_ball=0.5)
    res = picard_solve(problem, cfg)
    for i, gap in enumerate(res.gap_history):
        print(f"  iteration {i + 1}: weighted gap {gap:.3e}, "
              f"beta {res.beta_history[i]:.4f}")
    print(f"  ball condition holds: {res.ball_check['holds']} "
          f"(lhs {res.ball_check['lhs']:.4f}), iterates stayed inside: "
          f"{res.in_ball}")

    print(f"  weighted norm ||u*||_phi = sup |u*/phi|: "
          f"{weighted_norm(res.solution):.4f}")

    # Post-hoc fixed point certificate: feed the solution back through T.
    # Both grid functions keep their quotients, so the weighted norm of
    # T(u*) - u* is the sup of the quotient difference; no phi is divided.
    back = apply_T(res.solution, problem.kernel, problem.nl)
    gap = np.max(np.abs(back.quotient() - res.solution.quotient()))
    print(f"  weighted norm of T(u*) - u*: {gap:.2e}")

    print()
    print("asymptotic profile u/phi at x -> infinity, against the profile")
    print("of the zero-image T(0) (the gap is the nonlinear feedback)")
    face0 = problem.closed_forms["Tu0_face"]
    for j in (10, 25, 50):
        y0, r = res.profile[j]
        print(f"  y0 = {y0:.2f}: limit {r.value:.9f} ({r.status}), "
              f"T(0) face {face0(y0):.9f}")

    print()
    print("residual of the solved equation, the q-equation for q = u/phi")
    print("  q = int_0^x int_0^y qx(x,t) g(t,s,q) ds dt with")
    print("  qx = e^{-(x-2t)^2/2} and g = (1/8) e^{-s^2} + q^2,")
    print("  differentiated once in x and once in y:")
    print("  sup |d2q/dxdy - qx(x,x) g - int_0^x dqx/dx(x,t) g dt|: "
          f"{res.residual_sup:.3e}")
    print("  the cross stencil is second order, so this falls about")
    print("  fourfold per halving of the grid step.")

if __name__ == "__main__":
    main()
