"""Weighted sup norms, trace maps, and a compactness counterexample.

Run from the repo root:  python3 demos/weighted_space.py
"""

import numpy as np

from compactfix.casestudy import DEMOS
from compactfix.funcspace import (WEIGHT_REGISTRY, WeightedGridFunction,
                                  gamma, weighted_norm)


def main():
    xs = np.linspace(0.0, 24.0, 481)
    phi = WEIGHT_REGISTRY["exp(-x^2/2)"]

    print("weighted norm ||u|| = sup |u| / phi with phi = exp(-x^2/2)")
    for name, samples, face in (
            ("phi itself", phi(xs), 1.0),
            ("5 tanh(x) phi", 5.0 * np.tanh(xs) * phi(xs), 5.0),
            ("exp(-x^2)", np.exp(-xs ** 2), 0.0)):
        u = WeightedGridFunction((xs,), samples, phi,
                                 infinity={"axis0:inf": {(0,): face}})
        plain = float(np.abs(samples).max())
        print(f"  ||{name}|| = {weighted_norm(u):.6f}   "
              f"(plain sup {plain:.3f})")
    print("  the middle function looks small in plain sup norm but its")
    print("  quotient against the decay profile climbs to 5 at infinity,")
    print("  and the stored face value participates in the sup.")

    print()
    print("trace map: gamma_0 u = u/phi extended to the compactified line")
    u = WeightedGridFunction((xs,), 0.5 * phi(xs) * np.tanh(xs), phi,
                             infinity={"axis0:inf": {(0,): 0.5}})
    g = gamma(u)
    print(f"  sup of the trace {g.sup():.6f} equals the weighted norm "
          f"{weighted_norm(u):.6f}")

    print()
    print("translating Gaussians u_n = exp(-(x-n)^2), flat weight")
    report = DEMOS["gaussian-family"]()
    print(f"  pairwise sup distance floor: {report['separation']:.6f} "
          f"(>= 1 - 1/e = {1 - np.e ** -1:.6f})")
    print(f"  uniformly bounded:   {report['bounded']}")
    print(f"  equicontinuous:      {report['equicontinuous']}")
    print(f"  equiconvergent:      {report['equiconvergent']} "
          f"(worst deviation {report['worst_deviation']:.3f})")
    print("  bounded + equicontinuous is not enough on an unbounded domain;")
    print("  the family escapes to infinity and no subsequence converges.")
    print("  equiconvergence at the infinity face is the missing condition.")


if __name__ == "__main__":
    main()
