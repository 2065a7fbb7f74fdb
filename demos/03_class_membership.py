"""Checking that catalog entries really live in their classes.

membership_test samples the defining inequality of a class on polar grids
and reports the worst margin.  A positive worst margin certifies nothing by
itself, but a negative one is a hard disproof, and the margins here match the
closed-form profiles exactly where those are known.
"""

from logcoef import (
    ClassSpec,
    asserted_memberships,
    f3,
    g_alpha_upper,
    k_theta_alpha,
    koebe,
    membership_margin,
    membership_test,
)

print("== one entry in detail: f3(0.8) against U(0.8) ==")
f = f3(0.8)
spec = ClassSpec("U", lam=0.8)
rep = membership_test(f, spec)
for r, m in zip(rep.radii, rep.margin_by_radius):
    # For this entry the margin has the closed form lam (1 - r^2).
    print(f"radius {r:4.2f}: worst margin {m:.9f}   closed form {0.8 * (1 - r * r):.9f}")
print(f"overall: worst {rep.worst_margin:.9f} at z = {rep.witness:.4f}  -> {'PASS' if rep.passed else 'FAIL'}")
print()

print("== the same entry at lambda = 1e-15: a margin far below one ulp of 1 ==")
# For z/P the U expression is -c z^2 exactly, so the margin lam - |c| |z|^2 is
# read from the row with no cancellation: about 2e-17 at r = 0.99.
rep = membership_test(f3(1e-15), ClassSpec("U", lam=1e-15))
for r, m in zip(rep.radii, rep.margin_by_radius):
    print(f"radius {r:4.2f}: worst margin {m:.6e}   closed form {1e-15 * (1 - r * r):.6e}")
print(f"-> {'PASS' if rep.passed else 'FAIL'}")
print()

print("== margins at single points ==")
print(f"koebe in M(0) at z = 0.5:      {membership_margin(koebe(), ClassSpec('M', alpha=0.0), 0.5):.6f}")
print(f"koebe in M(0) at z = -0.99:    {membership_margin(koebe(), ClassSpec('M', alpha=0.0), -0.99):.6f}")
g = g_alpha_upper(1.0)
print(f"g_alpha_upper(1) in G(1) at 0.7i: {membership_margin(g, ClassSpec('G', alpha=1.0), 0.7j):.6f}")
print()

print("== a disproof: the koebe function is not in G(1) ==")
rep = membership_test(koebe(), ClassSpec("G", alpha=1.0))
print(f"worst margin {rep.worst_margin:.3f} at z = {rep.witness:.4f}  -> {'PASS' if rep.passed else 'FAIL'}")
print("(the convexity quotient of the koebe function blows up near the boundary)")
print()

print("== the alpha-convex extremal k_theta_alpha(0, 0.5), evaluated by quadrature ==")
k = k_theta_alpha(0.0, 0.5)
spec = ClassSpec("M", alpha=0.5)
# At z = -r the exact margin is (1 - r)/(1 + r); the entry's evaluator holds
# it all the way out to the circle.
for z in (-0.3, -0.99):
    r = abs(z)
    print(f"margin at z = {z:5.2f}: {membership_margin(k, spec, z):.12f}"
          f"   exact {(1 - r) / (1 + r):.12f}")
# The series is where the Taylor coefficients come from; well inside the disk
# the Horner value of an order-64 build agrees with z (f/z) from the evaluator.
print(f"f(-0.3): series (order 64) {k.series(64)(-0.3).real:.12f}"
      f"   evaluator {(-0.3 * k.evaluator(-0.3)[0]).real:.12f}")
print()

print("== the full asserted-membership suite ==")
for f, spec in asserted_memberships():
    rep = membership_test(f, spec)
    tag = "ok " if rep.passed else "BAD"
    print(f"{tag} {f.label:14s} {str(f.params):42s} in {spec.label():7s} margin {rep.worst_margin:.6f}")
