"""The minimax view: optimal designs live on extremal sets of error polynomials.

The design problem is dual to a uniform approximation problem: approximate
x^n + b x^(n-1) by a polynomial of degree n - 2 on [-1, 1]. The optimal
design sits exactly on the points where the best approximation error peaks,
alternating in sign. Inside the closed-form regime the error polynomial is
a rescaled Chebyshev polynomial; outside it, the exchange algorithm still
finds the best approximation numerically, and the two routes agree wherever
both apply.
"""

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly

from tdiscrim import (
    closed_form_psi,
    critical_b,
    extremal_set,
    remez,
    t_optimal_design,
)


def main():
    n, b = 3, 1.0
    psi = closed_form_psi(n, b)
    print(f"n = {n}, b = {b}: error polynomial coefficients (low to high)")
    print("  Chebyshev T_k:", np.round(psi.coeffs, 10).tolist())
    print("  monomial x^k: ", np.round(cheb2poly(psi.coeffs), 10).tolist())
    ext = extremal_set(psi)
    print("  extremal points:", np.round(ext, 10).tolist())
    print("  values there:   ", np.round(psi(ext), 10).tolist())
    d = t_optimal_design(n, b).design
    print("  design support: ", np.round(d.points, 10).tolist())

    print()
    n, b = 6, 0.2
    res = remez(n, b)
    dev_formula = (1 + abs(b) / n) ** n / 2 ** (n - 1)
    print(f"Exchange algorithm, n = {n}, b = {b}:")
    print(f"  converged in {res.iterations} iterations")
    print(f"  deviation  {res.deviation:.15f}")
    print(f"  formula    {dev_formula:.15f}")
    psi_gap = np.max(np.abs((res.psi - closed_form_psi(n, b)).coeffs))
    print(f"  max Chebyshev coefficient gap to the closed form: {psi_gap:.2e}")

    print()
    n = 4
    b = 3.0 * critical_b(n)
    res = remez(n, b)
    print(f"Outside the closed-form regime (n = {n}, b = {b:.4f} > "
          f"b* = {critical_b(n):.4f}) the exchange still works:")
    print(f"  deviation {res.deviation:.12f} in {res.iterations} iterations")
    print("  extremal points:", np.round(res.extremal_points, 8).tolist())
    print("  sign pattern:   ", res.signs.tolist())
    print("  inside the regime only +1 is an endpoint of the extremal set;")
    print("  past b* the left end locks onto -1 as well, and the formula")
    print("  would have pushed it below -1, which is why it stops applying")


if __name__ == "__main__":
    main()
