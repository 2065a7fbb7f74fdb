"""A tour of the extremal catalog.

Each entry is a concrete normalized function attaining (or approaching) one
of the sharp bounds.  The quadratic-rational entries carry closed-form
evaluators.  The integral-defined extremals (k_theta_alpha, m_alpha_upper,
g_alpha_upper) are one builder over a table of power factors,
f = z (integral_0^1 h(z t^alpha) dt)^alpha with h = prod P^e: their
coefficients come from series recurrences on h, and their values from
f' = u^(alpha - 1) h(z) with u, and u'/u, by graded Gauss-Legendre quadrature.
"""

import numpy as np

from logcoef import (
    delta,
    f1,
    f2,
    f3,
    f4,
    f5,
    g_alpha_upper,
    g_quadratic,
    k_theta_alpha,
    koebe,
    m_alpha_upper,
    poles_outside_disk,
)

print("== the golden delta table ==")
rows = [
    ("koebe", koebe(), -0.5),
    ("f1", f1(), -np.sqrt(2) / 2),
    ("f2", f2(), 0.5),
    ("f3(0.5)", f3(0.5), 0.25),
    ("f4(0.75)", f4(0.75), -np.sqrt(1.5) / 2),
    ("f5(0.25)", f5(0.25), -0.375),
    ("g_quadratic", g_quadratic(), -3 / 16),
]
for name, f, want in rows:
    got = delta(f)
    print(f"{name:12s} delta = {got:+.12f}   closed form {want:+.12f}   |err| = {abs(got - want):.2e}")
print()

print("== pole locations guard univalence of the rational entries ==")
# denominator coefficients (c0, c1, c2) of z / q(z)
for name, q in [
    ("f4(0.5)", [1.0, -1.0, 0.5]),
    ("f5(0.5)", [1.0, -1.0, 0.5]),
    ("f3(1.0)", [1.0, 0.0, -1.0]),
    ("koebe", [1.0, -2.0, 1.0]),
]:
    outside, modulus = poles_outside_disk(q)
    where = "outside" if outside else "on/inside the boundary"
    print(f"{name:10s} nearest pole modulus {modulus:.6f}  ({where})")
print("(the koebe pole sits exactly on |z| = 1, as it must for a full mapping)")
print()

print("== the alpha-convex extremals: series coefficients ==")
for alpha in (0.5, 1.0, 2.0):
    f = k_theta_alpha(0.0, alpha, order=64)
    print(
        f"k_theta_alpha(0, {alpha:3.1f}): a2 = {f.a(2).real:.10f}"
        f"   law 2/(1+alpha) = {2 / (1 + alpha):.10f}"
    )
print()
for alpha in (0.0, 0.5, 2.0):
    f = m_alpha_upper(alpha, order=64)
    print(
        f"m_alpha_upper({alpha:3.1f}):    delta = {delta(f):+.10f}"
        f"   target 1/(2(1+2a)) = {0.5 / (1 + 2 * alpha):+.10f}"
    )
print()

print("== a coefficient coincidence ==")
gap = np.abs(f4(1.0).series.coeffs - f1(0.0).series.coeffs).max()
print(f"f4 at lambda = 1 and f1 at theta = 0 are the same function; max gap {gap:.2e}")
print()

print("== g_alpha_upper has closed derivatives; its primitive comes by quadrature ==")
f = g_alpha_upper(1.0)
fv, fpv, fppv = f.evaluator(0.3 + 0.2j)
print(f"value      f (0.3+0.2i) = {fv:.12f}")
print(f"derivative f'(0.3+0.2i) = {fpv:.12f}")
print(f"curvature  f''(0.3+0.2i) = {fppv:.12f}")
print(f"a3 = {f.a(3).real:+.12f} (equals -alpha/6), delta = {delta(f):+.12f} (equals alpha/12)")
