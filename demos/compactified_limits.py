"""Limits at infinity through compactified coordinates.

Run from the repo root:  python3 demos/compactified_limits.py
"""

import numpy as np

from compactfix.compactify import (ExtensionError, HalfLineOnePoint,
                                   LineOnePoint, LineTwoPoint, extend,
                                   kappa_limit)
from compactfix.funcspace import BumpChain

print("arctan on the two-point compactified line")
ext = extend(np.arctan, LineTwoPoint(), tol=1e-6)
for label, value in sorted(ext.limits.items()):
    print(f"  limit at {label}: {value:+.8f}  (pi/2 = {np.pi/2:.8f})")

print()
print("arctan on the one-point line (circle metric)")
try:
    extend(np.arctan, LineOnePoint(), tol=1e-6)
except ExtensionError as exc:
    print(f"  rejected: {exc}")
    print("  the two tails approach +pi/2 and -pi/2, so no single value")
    print("  works at the glued point")

print()
print("bump chain: unit-height bumps of width 2/k at each integer k")
chain = BumpChain()
cmap = HalfLineOnePoint()
inf_pt = cmap.infinity_points()[0]

# The function values shrink like 1/k, so the one-point limit exists.
value = kappa_limit(chain.value, inf_pt, cmap, tol=1e-3,
                    extra_samples=chain.witness_points)
print(f"  f     at infinity: {value.status}, value {value.value:.2e}, "
      f"oscillation {value.oscillation:.2e}")

# The slopes do not shrink: every bump reaches the same peak slope.
deriv = kappa_limit(chain.derivative, inf_pt, cmap, tol=1e-3,
                    extra_samples=chain.witness_points)
print(f"  f'    at infinity: {deriv.status}, oscillation "
      f"{deriv.oscillation:.4f} at every ladder level")
print(f"  peak slope 8/(3 sqrt 3) = {8/(3*np.sqrt(3)):.4f} for comparison")
print()
print("so f extends continuously to the compactified half line but f'")
print("does not, which is exactly why the weighted space tracks the")
print("function and its quotient derivatives separately.")
