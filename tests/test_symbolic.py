"""Proof that the body search's three m1 points hold its extremes.

`search.body_search` takes the extremes of 2 delta = |a_3 - mu a_2^2| - |a_2|
over a class's body (`classes._Body`): a_2 = s m and a_3 - mu a_2^2 =
P + t w, with P = (q - mu) a_2^2, 0 <= m <= reach and |w| = m2 <= cap(m) =
c0 + c2 m^2.  The tests below derive in sympy that for fixed m the extremes
over (m2, phase) are

    2 delta_max(m) = p m^2 + |t| (c0 + c2 m^2) - |s| m,
    2 delta_min(m) = max(p m^2 - |t| (c0 + c2 m^2), 0) - |s| m,

with p = |q - mu| s^2.  2 delta_max is one quadratic with slope -|s| < 0 at
m = 0: concave, it decreases on [0, reach], and convex, it lies below its
chord, so its maximum is at m = 0 or reach.  2 delta_min is -|s| m, which
decreases, up to its kink, and a convex quadratic beyond it, whose m^2 term
D = p - |t| c2 is positive on every body that `classes._body_row` gives.
So its minimum is at the quadratic's vertex clipped to
[min(kink, reach), reach].  The tests prove these facts, and check that
the search reads its maximum at the endpoints and its minimum at that
point (`search._min_m1`).  The bounds of `bounds` are not proven here.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from logcoef import functional, search
from logcoef.bounds import M_BRANCH_ALPHA
from logcoef.classes import ClassSpec, _Body, _body_row

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

# The vertex of QUAD, the kink, where FLAT and QUAD meet, and the point of
# search._min_m1: the vertex clipped to [min(kink, reach), reach].
VERTEX_MIN = S / (2 * (p - T * c2))
KINK = sp.sqrt(T * c0 / (p - T * c2))
REACH = sp.Symbol("reach", positive=True)
LOWEST = sp.Min(sp.Max(VERTEX_MIN, sp.Min(KINK, REACH)), REACH)


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


def test_max_is_at_an_endpoint():
    # HI = a m^2 - |s| m + |t| c0, a = p + |t| c2 of either sign, slope -|s| at 0.
    a = sp.Symbol("a", real=True)
    hi = HI.subs(p, a - T * c2)
    assert sp.expand(hi - (a * m**2 - S * m + T * c0)) == 0
    assert sp.diff(hi, m).subs(m, 0) == -S
    # a = -n <= 0 (concave or linear): HI(m) - HI(0) = -m (n m + |s|) < 0 at m > 0.
    n, m_pos = sp.Symbol("n", nonnegative=True), sp.Symbol("m_pos", positive=True)
    assert (hi - hi.subs(m, 0)).subs({a: -n, m: m_pos}).expand().is_negative
    # a > 0 (convex): at m = x in [0, r], r = x + e, the chord from (0, HI(0)) to
    # (r, HI(r)) lies a x e >= 0 above HI, and the chord is at most
    # max(HI(0), HI(r)).
    x, e = sp.symbols("x e", nonnegative=True)
    r = x + e
    chord = hi.subs(m, 0) + (hi.subs(m, r) - hi.subs(m, 0)) * x / r
    gap = sp.factor(sp.together(chord - hi.subs(m, x)))
    assert sp.simplify(gap - a * x * e) == 0
    assert gap.subs(a, sp.Symbol("a_pos", positive=True)).is_nonnegative


@pytest.mark.parametrize("piece, vertex", [(FLAT, None), (QUAD, VERTEX_MIN)],
                         ids=["min_flat", "min_quadratic"])
def test_each_piece_has_only_its_vertex(piece, vertex):
    # FLAT has slope -|s| < 0 and no stationary point.
    roots = sp.solve(sp.diff(piece, m), m)
    assert len(roots) == (vertex is not None)
    assert all(sp.simplify(root - vertex) == 0 for root in roots)


def test_min_is_at_the_clipped_vertex():
    # With D = p - |t| c2 > 0 (test_every_body_has_its_kink), QUAD is convex:
    # on [kink, reach] its minimum is its vertex clipped to that interval.
    # FLAT decreases, so on [0, min(kink, reach)] its minimum is at the right
    # end, where it meets QUAD if kink < reach (test_pieces_meet_only_at_the_kink).
    D = sp.Symbol("D", positive=True)
    assert sp.diff(QUAD.subs(p, D + T * c2), m, 2) == 2 * D
    assert sp.diff(FLAT, m).is_negative


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
def test_search_reads_the_derived_points(kind):
    params = np.array(GRIDS[kind], dtype=float)
    body = _Body(*(np.broadcast_to(v, params.shape)[:, None] for v in _body_row(kind, params)))
    s, t = np.abs(body.s), np.abs(body.t)
    # p in the order _min_m1 forms it: |q - mu| s before the second s, so
    # that s^2 does not underflow at G(1e-300).
    fields = (s, t, np.abs(body.q - functional.MU) * s * s, body.c0, body.c2)
    point = sp.lambdify((S, T, p, c0, c2, REACH), LOWEST, "numpy")
    with np.errstate(divide="ignore", over="ignore"):
        want = np.broadcast_to(point(*fields, body.reach), body.reach.shape)
    # Within 4 ulps: sympy prints the point in its own order of operations.
    eps = np.finfo(float).eps
    np.testing.assert_allclose(search._min_m1(body), want, rtol=4 * eps, atol=0)
    # The maximum is at an endpoint, and at the larger one where HI tells them
    # apart by more than roundoff.
    hi = sp.lambdify((S, T, p, c0, c2, m), HI, "numpy")
    at_0, at_reach = (np.broadcast_to(hi(*fields, x), params.shape + (1,))[:, 0]
                      for x in (0.0, body.reach))
    specs = [ClassSpec.of(kind, None if kind == "S" else a) for a in params.tolist()]
    m1 = np.array([res.argmax["m1"] for res in search.body_searches(specs)])
    reach = body.reach[:, 0]
    assert ((m1 == 0.0) | (m1 == reach)).all()
    apart = np.abs(at_reach - at_0) > 1e-12 * np.maximum(np.abs(at_0), np.abs(at_reach))
    assert (m1 == np.where(at_reach > at_0, reach, 0.0))[apart].all()
