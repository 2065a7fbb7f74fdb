"""Proof that the body search's five m1 candidates contain its extremes.

`search.body_search` takes the extremes of 2 delta = |a_3 - mu a_2^2| - |a_2|
over a class's body (`classes._Body`): a_2 = s m and a_3 - mu a_2^2 =
P + t w, with P = (q - mu) a_2^2, 0 <= m <= reach and |w| = m2 <= cap(m) =
c0 + c2 m^2.  The tests below derive in sympy that for fixed m the extremes
over (m2, phase) are

    2 delta_max(m) = p m^2 + |t| (c0 + c2 m^2) - |s| m,
    2 delta_min(m) = max(p m^2 - |t| (c0 + c2 m^2), 0) - |s| m,

with p = |q - mu| s^2.  Each is continuous in m and made of polynomial
pieces.  On [0, reach] it therefore takes its extremes at an endpoint, at a
stationary point of a piece, or where two pieces meet.  The tests prove
that each piece has at most one stationary point, the vertex that
`search._critical_m1` uses, and that the pieces of delta_min meet only at
its kink.  They prove that the kink exists on every body that
`classes._body_row` gives, and they check that `_critical_m1` returns the
derived points.  A vertex or kink outside [0, reach] is clipped to the
nearer endpoint, since the piece is monotone on the interval then, and a
vertex of a piece with no m^2 term does not exist.  With the endpoints 0 and
reach these are the search's five candidates.  The bounds of `bounds` are
not proven here.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from logcoef import functional, search
from logcoef.bounds import M_BRANCH_ALPHA
from logcoef.classes import _Body, _body_row

MU = sp.Rational(functional.MU)

# m1, and the row fields as they enter the reduced problem: S = |s|, T = |t|
# and p = |q - mu| s^2.  S, T and c0 are positive on every body
# (test_every_body_has_its_kink).
m = sp.Symbol("m", real=True)
S, T, c0 = sp.symbols("S T c0", positive=True)
p = sp.Symbol("p", nonnegative=True)
c2 = sp.Symbol("c2", real=True)
CAP = c0 + c2 * m**2

# 2 delta_max is HI, and 2 delta_min = max(QUAD, FLAT): FLAT where |P| <= |t| cap
# and QUAD where |P| >= |t| cap.
HI = p * m**2 + T * CAP - S * m
FLAT = -S * m
QUAD = p * m**2 - T * CAP - S * m

# The points of _critical_m1, in its column order.
VERTEX_MAX = S / (2 * (p + T * c2))
VERTEX_MIN = S / (2 * (p - T * c2))
KINK = sp.sqrt(T * c0 / (p - T * c2))


def test_phase_extremes_are_aligned_and_against():
    # |P + T e^{i phase}|^2 = P^2 + T^2 + 2 P T cos(phase), linear in cos(phase)
    # on [-1, 1]: its extremes are at cos(phase) = +-1.  The larger is (|P| +
    # |T|)^2, at cos(phase) = sign(P T) (T along P: the search's k^2 = 1), and
    # the smaller (|P| - |T|)^2, at -sign(P T) (against it: k^2 = 0).
    P, T_, phase, c = sp.symbols("P T phase c", real=True)
    line = P**2 + T_**2 + 2 * P * T_ * c
    modulus2 = sp.expand((P + T_ * sp.exp(sp.I * phase)) * (P + T_ * sp.exp(-sp.I * phase)))
    assert sp.simplify(modulus2.rewrite(sp.cos) - line.subs(c, sp.cos(phase))) == 0
    x, y = sp.symbols("x y", nonnegative=True)  # |P| and |T|
    for sign_p, sign_t in itertools.product((1, -1), repeat=2):
        signed = line.subs({P: sign_p * x, T_: sign_t * y})
        aligned = signed.subs(c, sign_p * sign_t)
        against = signed.subs(c, -sign_p * sign_t)
        assert sp.expand(aligned - (x + y) ** 2) == 0
        assert sp.expand(against - (x - y) ** 2) == 0


def test_m2_extremes_are_the_cap_and_the_cancelling_point():
    # With |P| = x fixed, |P| + |t| m2 grows with m2, so its maximum on
    # [0, cap] is at the cap.  (x - |t| m2)^2 is convex with its one
    # stationary point at x / |t| >= 0, so its minimum on [0, cap] is at
    # min(cap, x / |t|), where ||P| - |T|| = max(x - |t| cap, 0).
    x, m2, cap, e = sp.symbols("x m2 cap e", nonnegative=True)
    assert sp.diff(x + T * m2, m2).is_positive
    square = (x - T * m2) ** 2
    assert sp.diff(square, m2, 2).is_positive
    assert sp.solve(sp.diff(square, m2), m2) == [x / T]
    # x / |t| = cap + e past the cap: the minimum is |x - |t| cap|, at the cap.
    beyond = {x: T * (cap + e)}
    assert sp.expand(sp.Abs(x - T * cap).subs(beyond)) == T * e
    assert sp.expand(sp.Max(x - T * cap, 0).subs(beyond)) == T * e
    # x / |t| = cap - e within it: the minimum is 0, where |t| m2 cancels x.
    assert sp.Max(x - T * cap, 0).subs(x, T * (cap - e)) == 0


def test_reduced_problem_is_its_pieces():
    # The two steps above give 2 delta_max = |P| + |t| cap - |a_2| and
    # 2 delta_min = max(|P| - |t| cap, 0) - |a_2| = max(|P| - |t| cap - |a_2|,
    # -|a_2|), at a_2 = s m with m >= 0.
    s, q, t = sp.symbols("s q t", real=True, nonzero=True)
    m_ = sp.Symbol("m", nonnegative=True)
    a2 = s * m_
    big_p = sp.Abs((q - MU) * a2**2)
    cap = c0 + c2 * m_**2
    fields = {p: sp.Abs(q - MU) * s**2, S: sp.Abs(s), T: sp.Abs(t), m: m_}
    assert sp.simplify(big_p + sp.Abs(t) * cap - sp.Abs(a2) - HI.subs(fields)) == 0
    assert sp.simplify(big_p - sp.Abs(t) * cap - sp.Abs(a2) - QUAD.subs(fields)) == 0
    assert sp.simplify(-sp.Abs(a2) - FLAT.subs(fields)) == 0


@pytest.mark.parametrize("piece, vertex", [(HI, VERTEX_MAX), (FLAT, None), (QUAD, VERTEX_MIN)],
                         ids=["max", "min_flat", "min_quadratic"])
def test_each_piece_has_only_its_vertex(piece, vertex):
    # FLAT has slope -|s| < 0 and no stationary point.
    roots = sp.solve(sp.diff(piece, m), m)
    assert len(roots) == (vertex is not None)
    assert all(sp.simplify(root - vertex) == 0 for root in roots)


def test_pieces_meet_only_at_the_kink():
    # With D = p - |t| c2 > 0, QUAD - FLAT = D (m - kink)(m + kink): below
    # the kink 2 delta_min is FLAT, above it QUAD, and they meet nowhere else
    # on m >= 0.
    D = sp.Symbol("D", positive=True)
    kink = KINK.subs(p, D + T * c2)
    gap = sp.expand((QUAD - FLAT).subs(p, D + T * c2))
    assert sp.expand(D * (m - kink) * (m + kink) - gap) == 0
    roots = sp.solve(gap, m)
    assert [r for r in roots if not r.is_negative] == [kink]
    assert kink.is_positive


def _exact(expr):
    """`expr` with each float constant replaced by the rational it is exactly."""
    expr = sp.sympify(expr)
    return expr.xreplace({f: sp.Rational(float(f)) for f in expr.atoms(sp.Float)})


# Each kind's parameter range as the image of y >= 0; S reads none.
_Y = sp.Symbol("y", nonnegative=True)
RANGES = {"S": None, "U": 1 / (1 + _Y), "M": _Y, "G": 1 / (1 + _Y)}


@pytest.mark.parametrize("kind", list(RANGES))
def test_every_body_has_its_kink(kind):
    # _body_row's own arithmetic on the symbolic parameter: lam in (0, 1] for
    # U, alpha in [0, oo) for M and in (0, 1] for G.  Unevaluated, sympy folds
    # no two constants into a rounded one, and each is read as its exact value.
    with sp.evaluate(False):
        row = _body_row(kind, RANGES[kind])
    row = _Body(*(sp.factor(sp.together(_exact(v))) for v in row))
    assert sp.Abs(row.s).is_positive and sp.Abs(row.t).is_positive and row.c0.is_positive
    curvature = sp.factor(sp.together(sp.Abs(row.q - MU) * row.s**2 - sp.Abs(row.t) * row.c2))
    assert curvature.is_positive, curvature


GRIDS = {
    "S": [math.nan],
    "U": np.logspace(-4.0, 0.0, 1001),
    "M": [0.0, *np.logspace(-6.0, math.log10(3.0), 1001), M_BRANCH_ALPHA, 1e3, 1e6, 1e100],
    "G": np.logspace(-300.0, 0.0, 1001),
}


@pytest.mark.parametrize("kind", list(GRIDS))
def test_critical_m1_is_the_derived_points(kind):
    params = np.array(GRIDS[kind], dtype=float)
    body = _Body(*(np.broadcast_to(v, params.shape)[:, None] for v in _body_row(kind, params)))
    s, t = np.abs(body.s), np.abs(body.t)
    # p in the order _critical_m1 forms it: |q - mu| s before the second s,
    # so that s^2 does not underflow at G(1e-300).
    fields = (s, t, np.abs(body.q - functional.MU) * s * s, body.c0, body.c2)
    points = sp.lambdify((S, T, p, c0, c2), [VERTEX_MAX, VERTEX_MIN, KINK], "numpy")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = np.concatenate(np.broadcast_arrays(*points(*fields)), axis=1)
    # A point that is not finite does not exist and becomes m1 = 0.
    want = np.clip(np.where(np.isfinite(want), want, 0.0), 0.0, body.reach)
    # Within 4 ulps: sympy prints each point in its own order of operations.
    eps = np.finfo(float).eps
    np.testing.assert_allclose(search._critical_m1(body), want, rtol=4 * eps, atol=0)
