"""The path of designs beyond the closed-form regime.

For |b| above the critical ratio the design is no longer explicit, but it
moves smoothly with the inverse ratio bbar = 1/b. At bbar = 0
(b = infinity) the design is known, built on the Chebyshev extrema of
degree n - 1. Elsewhere it sits on the alternance of the minimax error of
x^(n-1) + bbar x^n: a Remez exchange, started from a fixed interpolant of
the support in bbar that each degree builds once, finds the points, and
one linear solve the weights. Every design is returned only if no point
of [-1, 1] beats its support, by a margin taken relative to the criterion
value. The path meets the closed-form designs exactly at the two regime
boundaries.
"""

import numpy as np

from tdiscrim import (
    bbar_limit,
    critical_b,
    solve_at,
    t_optimal_design,
    taylor_coefficients,
    trajectory,
)
from tdiscrim.continuation import d1_optimal_start, h_form, inequality_margin


def main():
    n = 5
    anchor = d1_optimal_start(n)
    print(f"Anchor at bbar = 0 for n = {n}:")
    print("  points: ", np.round(anchor.design().points, 10).tolist())
    print("  weights:", np.round(anchor.design().weights, 10).tolist())
    print(f"  relative margin: {inequality_margin(anchor) / h_form(anchor):.2e}")

    lim = bbar_limit(n)
    print(f"\nAt the boundary bbar = 1/b* = {lim:.6f}")
    state = solve_at(n, lim)
    closed = t_optimal_design(n, critical_b(n)).design
    gap_p = np.max(np.abs(state.design().points - closed.points))
    gap_w = np.max(np.abs(state.design().weights - closed.weights))
    print(f"  max point gap to the closed form:  {gap_p:.2e}")
    print(f"  max weight gap to the closed form: {gap_w:.2e}")
    print(f"  criterion along the path: {h_form(state):.12f}")

    print("\nA short trajectory (bbar from -0.8 to 0.8):")
    grid = np.linspace(-0.8, 0.8, 9)
    print(f"{'bbar':>8} {'t_2':>10} {'t_3':>10} {'t_4':>10} {'w_1':>9} {'w_5':>9}")
    for bbar, d in trajectory(n, grid):
        print(f"{bbar:>8.3f} {d.points[1]:>10.5f} {d.points[2]:>10.5f} "
              f"{d.points[3]:>10.5f} {d.weights[0]:>9.5f} {d.weights[4]:>9.5f}")
    print("endpoints -1 and 1 stay in the support the whole way")

    print("\nLocal Taylor model of the path at bbar = 0.4, order 3:")
    coeffs = taylor_coefficients(n, 0.4, order=3)
    state0 = solve_at(n, 0.4)
    h = 0.05
    pred1 = state0.theta + h * coeffs[0]
    pred3 = state0.theta + h * coeffs[0] + h**2 * coeffs[1] + h**3 * coeffs[2]
    actual = solve_at(n, 0.4 + h).theta
    print(f"  step {h}: first-order error {np.max(np.abs(pred1 - actual)):.2e}, "
          f"third-order error {np.max(np.abs(pred3 - actual)):.2e}")


if __name__ == "__main__":
    main()
