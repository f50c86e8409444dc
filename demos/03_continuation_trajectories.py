"""The path of designs beyond the closed-form regime.

For |b| above the critical ratio the design is no longer explicit, but it
moves smoothly with the inverse ratio bbar = 1/b. At bbar = 0
(b = infinity) the design is known, built on the Chebyshev extrema of
degree n - 1. Elsewhere it sits on the alternance of the minimax error of
x^(n-1) + bbar x^n: a Remez exchange, started from a fixed interpolant of
the support in bbar that each degree builds once, finds the points, and
the weights are their normalised barycentric weights. Every design is returned only if no point
of [-1, 1] beats its support, by a margin taken relative to the criterion
value. The path meets the closed-form designs exactly at the two regime
boundaries, and its Taylor series in bbar, read off a Chebyshev
interpolant of nearby states, predicts the designs around a point.
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

    bbar0 = 0.4
    print(f"\nTaylor series of the support at bbar = {bbar0}, orders 1 and 3:")
    # columns past psi's n + 1 Chebyshev coefficients: interior points, then weights
    coeffs = taylor_coefficients(n, bbar0, order=3)[:, n + 1 :]
    state0 = solve_at(n, bbar0)
    base = np.concatenate([state0.interior_points, state0.weights])
    print(f"{'h':>8} {'order-1 error':>14} {'order-3 error':>14}")
    for h in (0.1, 0.05, 0.025):
        state = solve_at(n, bbar0 + h)
        actual = np.concatenate([state.interior_points, state.weights])
        pred1 = base + h * coeffs[0]
        pred3 = pred1 + h**2 * coeffs[1] + h**3 * coeffs[2]
        print(f"{h:>8} {np.abs(pred1 - actual).max():>14.2e} "
              f"{np.abs(pred3 - actual).max():>14.2e}")
    print("halving h cuts the order-1 error about 4-fold and the order-3 error about 16-fold")

if __name__ == "__main__":
    main()
