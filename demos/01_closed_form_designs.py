"""Closed-form optimal designs for separating degree n from degree n - 2.

The leading coefficient ratio b = theta_{n-1} / theta_n controls everything.
As long as |b| stays below the critical ratio n * tan(pi/2n)^2 the optimal
design is known in closed form: shifted Chebyshev extrema carrying fixed
trigonometric weights that do not depend on b at all. Past that ratio
optimal_design switches to the Remez alternance, continuously.
"""

import numpy as np

from tdiscrim import (
    DiscriminationProblem,
    critical_b,
    optimal_design,
    t_criterion,
    t_optimal_design,
    zero_b_family,
)


def main():
    print("Critical ratios b*_n = n tan^2(pi / 2n)")
    print(f"{'n':>4} {'b*_n':>18}")
    for n in range(3, 11):
        print(f"{n:>4} {critical_b(n):>18.12f}")

    print()
    print("Quintic case (n = 5): the support slides with b, the weights stay put")
    for b in (0.1, 0.3, critical_b(5)):
        d = t_optimal_design(5, b).design
        pts = " ".join(f"{t:+.4f}" for t in d.points)
        print(f"  b = {b:.4f}  support: {pts}")
    w = t_optimal_design(5, 0.1).design.weights
    print("  weights (any b):", " ".join(f"{x:.4f}" for x in w))

    print()
    print("Negative b mirrors the design through the origin")
    d_pos = t_optimal_design(4, 0.5).design
    d_neg = t_optimal_design(4, -0.5).design
    print("  b = +0.5:", " ".join(f"{t:+.4f}" for t in d_pos.points))
    print("  b = -0.5:", " ".join(f"{t:+.4f}" for t in d_neg.points))

    print()
    print("At b = 0 the optimum is a whole family: mixtures of a design")
    print("omitting -1 with its mirror image, all with the same criterion")
    prob = DiscriminationProblem(4, b=0.0)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        d = zero_b_family(4, alpha).design
        val = t_criterion(d, prob)
        print(f"  alpha = {alpha:.2f}: {d.support_size} support points, "
              f"criterion = {val:.12f}")
    print(f"  reference value 1/2^6 = {1 / 64:.12f}")

    print()
    print("Across the critical ratio optimal_design changes construction,")
    print("not design: at b*_5 and just past it the support nearly agrees")
    bc = critical_b(5)
    for b in (bc, bc * (1 + 1e-6), 2.0):
        res = optimal_design(5, b)
        pts = " ".join(f"{t:+.4f}" for t in res.design.points)
        print(f"  b = {b:.6f} ({res.regime:>10}): support {pts}")


if __name__ == "__main__":
    main()
