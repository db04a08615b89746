"""Limits at infinity through compactified coordinates.

Run from the repo root:  python3 demos/compactified_limits.py
"""

import numpy as np

from compactfix.casestudy import DEMOS
from compactfix.funcspace import BumpChain

arctan = DEMOS["arctan-demo"]()
print("arctan on the two-point compactified line")
for label, value in sorted(arctan["two_point"].items()):
    print(f"  limit at {label}: {value:+.8f}  (pi/2 = {np.pi/2:.8f})")

print()
print("arctan on the one-point line (circle metric)")
for label, status in sorted(arctan["one_point"].items()):
    print(f"  rejected: no limit at {label} (ladder status {status})")
print("  the two tails approach +pi/2 and -pi/2, so no single value")
print("  works at the glued point")

print()
print("bump chain: unit-height bumps of width 2/k at each integer k")
chain = DEMOS["bump-chain"]()

# The function values shrink like 1/k, so the one-point limit exists.
value = chain["value"]
print(f"  f     at infinity: {value['status']}, value {value['value']:.2e}, "
      f"oscillation {value['oscillation']:.2e}")

# The slopes do not shrink: every bump reaches the same peak slope.
deriv = chain["derivative"]
print(f"  f'    at infinity: {deriv['status']}, oscillation "
      f"{deriv['oscillation']:.4f} on the smallest ball")
print(f"  peak slope 8/(3 sqrt 3) = {BumpChain.peak_slope:.4f} for comparison")
print()
print("so f extends continuously to the compactified half line but f'")
print("does not: the order-0 weighted space sees f's limit at infinity,")
print("not that of f'.")
