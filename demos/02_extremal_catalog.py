"""A tour of the extremal catalog.

Each entry is a concrete normalized function attaining (or approaching) one
of the sharp bounds, and each is one factor row: f = z u^beta with
u = integral_0^1 h(z t^a) dt and h = prod P^e.  Each entry's evaluator comes
from its row and returns the three ratios (f/z, z f'/f, z f''/f') that the
class inequalities read.  At a = 0, f = z P^e, and the ratios are closed
forms over the reciprocal roots of P and of P + e z P'.  The
integral-defined extremals (k_theta_alpha, m_alpha_upper, g_alpha_upper)
take their ratios from f/z = u^alpha, z f'/f = h(z)/u and
z f''/f' = z ((alpha - 1) u'/u + h'/h), with u and u'/u by graded
Gauss-Legendre quadrature.  The log coefficients come straight from the row,
and the Taylor coefficients from a series built to the order asked.
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
    f = k_theta_alpha(0.0, alpha)
    print(
        f"k_theta_alpha(0, {alpha:3.1f}): a2 = {f.a(2).real:.10f}"
        f"   law 2/(1+alpha) = {2 / (1 + alpha):.10f}"
    )
print()
for alpha in (0.0, 0.5, 2.0):
    f = m_alpha_upper(alpha)
    print(
        f"m_alpha_upper({alpha:3.1f}):    delta = {delta(f):+.10f}"
        f"   target 1/(2(1+2a)) = {0.5 / (1 + 2 * alpha):+.10f}"
    )
print()

print("== a coefficient coincidence ==")
gap = np.abs(f4(1.0).series(32).coeffs - f1(0.0).series(32).coeffs).max()
print(f"f4 at lambda = 1 and f1 at theta = 0 are the same function; max gap {gap:.2e}")
print()

print("== g_alpha_upper has a closed z f''/f'; its primitive comes by quadrature ==")
f = g_alpha_upper(1.0)
q, p, r = f.evaluator(0.3 + 0.2j)
print(f"f/z      at 0.3+0.2i = {q:.12f}")
print(f"z f'/f   at 0.3+0.2i = {p:.12f}")
print(f"z f''/f' at 0.3+0.2i = {r:.12f}")
print(f"a3 = {f.a(3).real:+.12f} (equals -alpha/6), delta = {delta(f):+.12f} (equals alpha/12)")
