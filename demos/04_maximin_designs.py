"""Maximin designs: hedging when the coefficient ratio is unknown.

The optimal design depends on b, which is exactly what an experimenter does
not know. A maximin design maximises the worst case, min over b in a set
of plausible ratios of the criterion T(xi, b) itself. Over the whole line
the answer is the extremal-point design of degree n: its worst case is
4^(1-n), at b = 0, and no design's worst case is larger. Over a ray it is
the optimal design at the ray's endpoint, whose criterion only rises
further out. R(b), the best criterion attainable at b, rises with |b|.
"""

import numpy as np

from tdiscrim import (DiscriminationProblem, RatioInterval, critical_b, maximin_design,
                      r_value, t_criterion)


def main():
    print("Whole-line maximin designs (extremal points of degree n):")
    for n in (3, 4, 5):
        d = maximin_design(n, RatioInterval.whole_line())
        pts = " ".join(f"{t:+.4f}" for t in d.points)
        wts = " ".join(f"{w:.4f}" for w in d.weights)
        print(f"  n = {n}: points {pts}")
        print(f"         weights {wts}")
        worst = t_criterion(d, DiscriminationProblem(n, b=0.0))
        print(f"         worst case T(xi, 0) = {worst:.6g} = 4^(1-n) = {0.25 ** (n - 1):.6g}")

    print("\nRays pin the worst case at their endpoint:")
    d_up = maximin_design(4, RatioInterval.ray_up(0.4))
    d_down = maximin_design(4, RatioInterval.ray_down(0.4))
    print("  b >= 0.4: ", np.round(d_up.points, 6).tolist())
    print("  b <= -0.4:", np.round(d_down.points, 6).tolist())
    print("  (the second is the first reflected through the origin)")

    n = 4
    bc = critical_b(n)
    print(f"\nR(b) for n = {n} rises through the regime change at "
          f"b* = {bc:.6f}:")
    print(f"{'b':>8} {'R(b)':>16} {'regime':>12}")
    for b in np.linspace(0.0, 2.0 * bc, 9):
        b = float(b)
        regime = "closed form" if b <= bc else "continuation"
        print(f"{b:>8.4f} {r_value(n, b):>16.10f} {regime:>12}")


if __name__ == "__main__":
    main()
