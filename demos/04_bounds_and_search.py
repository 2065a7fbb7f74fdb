"""Closed-form bounds, and the numerical searches that corroborate them.

Every bound is an explicit formula; body_search finds the exact extremes of
delta over a coefficient body that contains the class's (a2, a3) region, and
so brackets the true extremes from outside.  It solves the modulus and phase
of the free coefficient in closed form and searches what is left in |a2|
alone.  When the two agree to rounding, the formula, the body geometry, and
the search all confirm one another.
"""

from logcoef import (
    ClassSpec,
    M_BRANCH_ALPHA,
    body_search,
    bound_delta,
    bound_violation_scan,
    delta,
    g_quadratic,
    m_lower_minimizer,
)

print("== bounds across the classes ==")
for spec in [
    ClassSpec("S"),
    ClassSpec("U", lam=0.25),
    ClassSpec("U", lam=1.0),
    ClassSpec("M", alpha=0.0),
    ClassSpec("M", alpha=1.0),
    ClassSpec("G", alpha=1.0),
]:
    b = bound_delta(spec)
    sharp = ("sharp" if b.lower_sharp else "outer") + "/" + ("sharp" if b.upper_sharp else "outer")
    wit = f"witnesses {b.lower_witness or '-'} / {b.upper_witness or '-'}"
    print(f"{spec.label():8s} [{b.lower:+.9f}, {b.upper:+.9f}]  {sharp:12s} {wit}")
print()

print("== the lower bound for the alpha-convex family switches branch ==")
print(f"breakpoint alpha = (1 + sqrt 3)/2 = {M_BRANCH_ALPHA:.10f}")
for alpha in (1.0, M_BRANCH_ALPHA, 2.0, 10.0):
    b = bound_delta(ClassSpec("M", alpha=alpha))
    extra = ""
    if alpha >= M_BRANCH_ALPHA:
        extra = f"   interior minimizer |a2| = {m_lower_minimizer(alpha):.6f}"
    print(f"alpha = {alpha:7.4f}: lower = {b.lower:+.10f}{extra}")
print()

print("== exact body search against the formulas ==")
for spec in [ClassSpec("U", lam=0.5), ClassSpec("M", alpha=1.0), ClassSpec("G", alpha=1.0)]:
    res = body_search(spec)
    b = bound_delta(spec)
    print(
        f"{spec.label():8s} search [{res.min_delta:+.6f}, {res.max_delta:+.6f}]"
        f"  formula [{b.lower:+.6f}, {b.upper:+.6f}]"
        f"  gaps {abs(res.min_delta - b.lower):.1e} / {abs(res.max_delta - b.upper):.1e}"
    )
print("(the search runs over a relaxation body, so it can only close the gap from outside)")
print()

print("== randomized scans find no violations ==")
for spec in [ClassSpec("S"), ClassSpec("U", lam=0.8), ClassSpec("M", alpha=2.0)]:
    res = bound_violation_scan(spec, samples=100_000, seed=0)
    print(
        f"{spec.label():8s} {res.samples} samples: {res.violations} violations,"
        f" observed range [{res.min_delta:+.6f}, {res.max_delta:+.6f}]"
    )
print()

print("== the G(1) lower bound is reached on the body's edge ==")
b = bound_delta(ClassSpec("G", alpha=1.0))
res = body_search(ClassSpec("G", alpha=1.0))
m1, m2 = res.argmin["m1"], res.argmin["m2"]
print(f"G(1) lower bound -4/21:  {b.lower:+.10f}")
print(f"body search minimum:     {res.min_delta:+.10f}  at (m1, m2) = ({m1:.10f}, {m2:.10f})")
print(f"                         (6/7, 13/49) = ({6 / 7:.10f}, {13 / 49:.10f})")
d = delta(g_quadratic())
tag = "ok " if b.lower < d < b.upper else "BAD"
print(f"{tag} the member z - z^2/2 lies strictly inside [{b.lower:+.6f}, {b.upper:+.6f}]: {d:+.10f} = -3/16")
