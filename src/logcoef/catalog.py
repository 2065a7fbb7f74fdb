"""Catalog of normalized analytic functions used as extremal witnesses.

Every entry is an :class:`AnalyticFunction`, one factor row.  The row
(factors, a, beta, theta) is f = z u^beta with u = integral_0^1 h(z t^a) dt,
h = prod P^e, each P real of degree <= 2 with P(0) = 1, so f(0) = 0 and
f'(0) = 1 by construction, rotated to e^{-i theta} f(e^{i theta} z); koebe,
f1 and k_theta_alpha put their theta there, f2 and f3 theta/2, and `rotate`
adds to it:

    koebe, f1..f5   ((1, b, c), -1)         a = 0, beta = 1: f = z / P
    g_quadratic     ((1, -1/2), 1)          a = 0, beta = 1: f = z P
    k_theta_alpha   ((1, -1), -2/alpha)     a = beta = alpha
    m_alpha_upper   ((1, 0, -1), -1/alpha)  a = beta = alpha
    g_alpha_upper   ((1, 0, -1), alpha/2)   a = beta = 1, so f' = h

with k_theta_alpha and m_alpha_upper at alpha = 0 the a = 0 rows of koebe
and z / (1 - z^2).  The rows of the families with a class parameter (f3,
f4, f5 and the last three) are written once each, as plain arithmetic in
the parameter (`Family.row`): a constructor calls the row on its float, and
a family sweep calls it on the whole grid as an array, a stack of rows that
`functional` reads without an entry built per parameter.  `_stack_rows`
stacks the rows of any entries with equally many factors the same way.

Coefficients come from the row by one route, `_stacked_dlog_u`: y_u =
z u'/u of a stack of rows, from y = z h'/h = sum e z P'/P and, for
0 < a < 1, v = u/h, so that the large y of small a never passes through
h's coefficients.  `functional` reads gamma_n = beta y_n / (2n) from it,
and `AnalyticFunction.series` the Taylor coefficients z exp(beta y_u) of
every row, only when asked for, to the order asked.  The evaluator comes
from the row too and returns the three ratios every class inequality reads:
in closed form at a = 0 (`_closed_evaluator`), and otherwise by
Gauss-Legendre quadrature of u alone, with z u'/u from an exact identity in
u (`_quadrature_evaluator`).  The quadrature is run once per
orbit of the row's symmetry: a row with real coefficients gives conjugate
values at z and conj z, and a row with no odd coefficient gives equal values
at z and -z, so k_theta_alpha(0, alpha) is integrated at half the points of
a symmetric grid, and m_alpha_upper and g_alpha_upper at a quarter.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .classes import ClassSpec, admits
from .series import MIN_ORDER, TruncatedSeries, _dlog, _exp, _expi, _is_integer, _solve
from .series import exp_unit, log_unit, pow_real  # noqa: F401  bench/tracer.py wraps them here too


class Row(NamedTuple):
    """f = z u^beta, u = integral_0^1 h(z t^a) dt, h = prod P^e over factors ((P, e), ...),
    rotated by theta: the entry is e^{-i theta} f(e^{i theta} z).

    A value may also be an array, one entry per row of a stack of rows with
    the same number of factors (see `Family.row`); `finite` is then an array
    too, elementwise.
    """

    factors: tuple
    a: float
    beta: float
    theta: float = 0.0

    @property
    def finite(self):
        """Whether every value but theta is finite, and a >= 0."""
        values = [*(c for P, _ in self.factors for c in P), *(e for _, e in self.factors)]
        return functools.reduce(operator.and_, map(np.isfinite, [*values, self.a, self.beta]),
                                self.a >= 0)


def _stacked_dlog_u(row, order: int):
    """y_1 .. y_order of y_u = z u'/u for each row of a stack of rows, a (K, order) array,
    and refusals.

    `row` is a `Row` whose values are floats or (K,) arrays, the floats
    shared by every row of the stack.  y = z h'/h = sum e z P'/P, and at a = 0
    y_u = y.  For 0 < a < 1, v = u/h solves (1 + a m) v_m = [m = 0] -
    sum_{j>=1} a y_j v_{m-j}, and y_u = y + z v'/v keeps the large y of small
    a exact; for a >= 1, u_m = h_m/(1 + a m), each part divided on its own,
    where y and z v'/v would cancel.  Every step acts on each row alone (see
    `series`), so a row has the bits it has alone, and y_u,m does not depend
    on order.  The refusals map each row whose terms underflow (a u_m below
    the smallest normal double, or a power that underflowed to 0) to its
    words, {} for its name.
    """
    k = np.arange(order + 1)
    values = [row.a, row.beta, row.theta, *(x for P, e in row.factors for x in (*P, e))]
    size = np.broadcast(*values).size
    a = np.full(size, row.a, dtype=float)
    slots = len(row.factors)
    # Factor s of row j: P[s, j] and its power e[s, j].
    P = np.zeros((slots, size, order + 1), dtype=complex)
    e = np.zeros((slots, size, 1))
    for s, (poly, power) in enumerate(row.factors):
        for j, c in enumerate(poly[: order + 1]):
            P[s, :, j] = c
        e[s, :, 0] = power
    small, large = ((0.0 < a) & (a < 1.0)).nonzero()[0], (~(a < 1.0)).nonzero()[0]
    why = {}
    with np.errstate(over="ignore", invalid="ignore"):
        # Slot by slot, in a sum that starts from 0: an exact zero part comes out +0.
        yu = sum(e * _dlog(P.reshape(-1, order + 1)).reshape(slots, size, order), 0)
        if small.size:
            v = _solve(k == 0, a[small, None] * yu[small], 1.0 + a[small, None] * k)
            yu[small] += _dlog(v)
        if large.size:
            h, d = _exp(yu[large]), 1.0 + a[large, None] * k
            # Part by part: numpy's complex / real is not correctly rounded.
            u = np.empty_like(h)
            u.real, u.imag = h.real / d, h.imag / d
            lost = ((np.abs(u) < np.finfo(float).tiny) & (h != 0)).any(axis=1)
            lost |= (e[:, large, 0] == 0).any(axis=0)
            why = dict.fromkeys(large[lost], "{}: the row's terms underflow")
            yu[large] = _dlog(u)
    return yu, why


def _stack_rows(rows) -> Row:
    """One row or more as one stack of rows, row k at index k of every value, a (K,) array.

    Each P is padded with zero coefficients to degree 2.  Rows whose factor
    counts differ are refused with ValueError: `_stacked_dlog_u` reads an
    e = 0 factor, which would pad them, as underflow.
    """
    if len({len(row.factors) for row in rows}) > 1:
        raise ValueError("rows with different numbers of factors do not stack")
    factors = tuple(
        (tuple(map(np.array, zip(*(P + (0.0,) * (3 - len(P)) for P, _ in slot)))),
         np.array([e for _, e in slot], dtype=float))
        for slot in zip(*(row.factors for row in rows))
    )
    a, beta, theta = (np.array(x, dtype=float) for x in zip(*(row[1:] for row in rows)))
    return Row(factors, a, beta, theta)


# The factor row of each family with a class parameter, as plain arithmetic in
# it: a float gives the row of one entry, and an array of parameters a stack
# of rows, a value that varies with the parameter an array like it.  Nothing
# is checked here; the constructors check.


def _f3_row(lam):
    return Row((((1.0, 0.0, -lam), -1.0),), 0.0, 1.0)


def _f4_row(lam):
    return Row((((1.0, -np.sqrt(2.0 * lam), lam), -1.0),), 0.0, 1.0)


def _f5_row(lam):
    return Row((((1.0, -1.0, lam), -1.0),), 0.0, 1.0)


def _k_row(alpha):
    # At alpha = 0, where at0 = 1 and a = 0, beta = 1, it is koebe's row (1 - z)^2 to the -1.
    at0 = 1.0 * (alpha == 0)
    beta = alpha + at0
    return Row((((1.0, -1.0 - at0, at0), (at0 - 2.0) / beta),), alpha, beta)


def _m_row(alpha):
    # At alpha = 0, where a = 0 and beta = 1, it is z / (1 - z^2).
    beta = alpha + 1.0 * (alpha == 0)
    return Row((((1.0, 0.0, -1.0), -1.0 / beta),), alpha, beta)


def _g_row(alpha):
    return Row((((1.0, 0.0, -1.0), 0.5 * alpha),), 1.0, 1.0)


class Family(NamedTuple):
    """What a catalog entry's constructor takes, and the range a sweep walks.

    kind: the class (U, M or G) whose parameter the entry takes, or None.
    rotated: whether the entry takes a rotation angle theta.
    sweep: (lo, hi, ends) over the class parameter, or over theta when kind
    is None, with ends in interval notation such as "(]"; None if not swept.
    row: the entry's factor row at theta = 0 as a function of the class
    parameter, a float or an array (see `Row`); None when kind is None.
    inside: whether the constructor takes a class parameter, elementwise:
    finite and in the range it checks.  The row there is then checked only
    for finiteness (`Row.finite`).
    """

    kind: Optional[str]
    rotated: bool
    sweep: Optional[tuple]
    row: Optional[Callable] = None
    inside: Optional[Callable] = None


# Keyed by the constructor's name in this module.  `make` looks the
# constructor up when it is called, so a wrapper installed on the module
# attribute sees the call.
FAMILIES = {
    "koebe": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f1": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f2": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f3": Family("U", True, (0.0, 1.0, "(]"), _f3_row, lambda lam: admits("U", lam)),
    "f4": Family("U", False, (0.5, 1.0, "[]"), _f4_row,
                 lambda lam: np.isfinite(lam) & (0.5 <= lam) & (lam <= 1.0)),
    "f5": Family("U", False, (0.0, 0.5, "(]"), _f5_row,
                 lambda lam: np.isfinite(lam) & (0.0 < lam) & (lam <= 0.5)),
    "k_theta_alpha": Family("M", True, (0.0, 3.0, "[]"), _k_row, lambda a: admits("M", a)),
    "m_alpha_upper": Family("M", False, (0.0, 3.0, "[]"), _m_row, lambda a: admits("M", a)),
    "g_alpha_upper": Family("G", False, (0.0, 1.0, "(]"), _g_row, lambda a: admits("G", a)),
    "g_quadratic": Family(None, False, None),
}

LABELS = tuple(FAMILIES)

# Most steps a sweep grid may take across its range.
MAX_SWEEP_STEPS = 10**4


# How far inside the circle a zero of a factor may be found and still be
# read as on it, by `AnalyticFunction.check_analytic`.
_ZERO_TOL = 1e-12


def sweep_grid(lo: float, hi: float, ends: str, step: float) -> list:
    """lo + k step for k = 0, 1, ... across the interval.

    `ends` is in interval notation: "(" drops lo, ")" stops short of hi.  A
    value past hi, or short of it by at most 1e-9 step, is hi itself.
    """
    if not (0.0 < step < math.inf and (hi - lo) / step <= MAX_SWEEP_STEPS):
        raise ValueError(
            f"step must be finite and at least 1/{MAX_SWEEP_STEPS} of the range, got {step!r}"
        )
    if ends[1] == ")":
        n = math.ceil((hi - lo) / step - 1e-9)
    else:
        n = math.floor((hi - lo) / step + 1e-9) + 1
    ks = range(1 if ends[0] == "(" else 0, n)
    return [hi if hi - (lo + k * step) <= 1e-9 * step else lo + k * step for k in ks]


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """A catalog entry: its row, its parameters and the evaluator the row gives.

    Refuses, with ValueError, a row unless theta and then every other value
    is finite, every P has degree <= 2 and P(0) = 1 exactly, and beta = a > 0
    with a factor or a = 0, beta = 1 with one factor.  evaluator(z) returns
    (f/z, z f'/f, z f''/f') at z, a point or an ndarray of points of the
    open disk, (1, 1, 0) at z = 0; for a rotated row, the unrotated row's at
    e^{i theta} z.  A row with a > 0 also gives dlog_h(z), z h'/h there with
    no quadrature (`_quadrature_evaluator`); it is None at a = 0.  A 2-D z
    is a stack of rings, one per row, each under its own quadrature rule.
    """

    label: str
    row: Row
    params: dict
    evaluator: Callable = field(init=False, repr=False)
    dlog_h: Optional[Callable] = field(init=False, repr=False)

    def __post_init__(self):
        factors, a, beta, theta = self.row
        _check_finite(("theta", theta))
        if not self.row.finite:
            raise ValueError(f"{self.label} {self.params}: row values must be finite and a >= 0")
        if not all(1 <= len(P) <= 3 and P[0] == 1 for P, _ in factors):
            raise ValueError(f"{self.label} row needs P(0) = 1 and degree <= 2, got {factors}")
        if a > 0 and beta == a and factors:
            ev, dlog_h = _quadrature_evaluator(self.label, factors, a)
        elif a == 0 and beta == 1 and len(factors) == 1:
            ev, dlog_h = _closed_evaluator(*factors[0]), None
        else:
            raise ValueError(f"{self.label} row has no evaluator: it needs factors and "
                             f"beta = a > 0, or a = 0, beta = 1 and one factor, got {self.row}")
        if theta:
            w = cmath.exp(1j * theta)
            rotated = lambda g: g and (lambda z: g(w * np.asarray(z)))
            ev, dlog_h = rotated(ev), rotated(dlog_h)
        object.__setattr__(self, "evaluator", ev)
        object.__setattr__(self, "dlog_h", dlog_h)

    def series(self, n: int) -> TruncatedSeries:
        """Taylor coefficients a_0..a_n, built from the row to order n.

        z exp(beta y_u) (`_stacked_dlog_u`) for every row, exact for koebe,
        z / (1 - z^2) and z - z^2/2; a_n is the unrotated row's times
        e^{i(n-1) theta} (`series._expi`).  Refuses, with ValueError and no
        numpy warning, an n that is not an integer of at least MIN_ORDER, a
        row whose terms underflow, as gamma does, and a coefficient that is
        not finite, as where u^beta overflows at large n and large powers.
        """
        if not (_is_integer(n) and n >= MIN_ORDER):
            raise ValueError(f"order must be an integer of at least {MIN_ORDER}, got {n!r}")
        yu, why = _stacked_dlog_u(self.row, n - 1)
        if why:
            raise ValueError(why[0].format(f"{self.label} {self.params}"))
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.concatenate(([0.0], _exp(self.row.beta * yu)[0]))
            if self.row.theta:
                c = c * _expi(self.row.theta, np.arange(-1.0, n))
        s = TruncatedSeries(c, order=n)
        bad = np.flatnonzero(~np.isfinite(s.coeffs))
        if bad.size:
            raise ValueError(f"series coefficient a_{bad[0]} = {s.coeffs[bad[0]]} is not finite")
        return s

    def a(self, n: int) -> complex:
        """Taylor coefficient a_n, from a build to order n."""
        return self.series(max(n, MIN_ORDER)).coefficient(n)

    def check_analytic(self) -> None:
        """Refuses, with ValueError naming the zero, an entry not analytic in the open disk.

        A factor P^e whose power e is not a nonnegative integer has a pole or
        a branch point at each zero of P, and so has u, as z t^a sweeps the
        segment from 0 to z.  Such a zero strictly inside the disk is refused;
        the zeros come from `_poly_roots`, with no numpy call.  A zero with
        |zeta| >= 1 - _ZERO_TOL (1e-12) is read as on the circle, where the
        extremals put theirs: `_roots` gives a simple zero on the circle
        within a few ulps of it (every catalog row's reads exactly 1), and the
        tolerance leaves room for coefficients that were rounded themselves.
        The zeros of a polynomial factor leave f analytic; the margins read
        them as singular samples where f or f' vanishes.
        """
        for P, e in self.row.factors:
            if e >= 0 and float(e).is_integer():
                continue
            for zeta in _poly_roots([complex(c) for c in P]):
                # A root's parts can be finite and its modulus not: hypot gives
                # inf there, where abs raises OverflowError.
                if math.hypot(zeta.real, zeta.imag) < 1.0 - _ZERO_TOL:
                    zeta *= cmath.exp(-1j * self.row.theta)
                    raise ValueError(
                        f"{self.label} {self.params} is not analytic in the unit disk: its "
                        f"factor {P}^{e} has a zero at z = {zeta}, |z| = {abs(zeta)!r}")


def _check_finite(*named):
    """Raise ValueError unless every (name, value) pair has a finite value."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _roots(c):
    """Roots of c_0 + c_1 z + c_2 z^2 of degree len(c) - 1 <= 2: (q / c_2, c_0 / q),
    q = -(c_1 + s)/2 with s the discriminant's square root aligned with c_1, so that
    neither comes from a cancelling difference; +-sqrt(-c_0/c_2) if c_1 = 0, or if q
    underflows to 0, which leaves c_1 and s subnormal and c_1 negligible."""
    if len(c) < 3:
        return (-c[0] / c[1],) if len(c) == 2 else ()
    c0, c1, c2 = c
    if c1 != 0:
        s = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
        if (c1.conjugate() * s).real < 0.0:
            s = -s
        q = -0.5 * (c1 + s)
        if q != 0:
            return q / c2, c0 / q
    s = cmath.sqrt(-c0 / c2)
    return s, -s


def _poly_roots(c):
    """The roots of c_0 + c_1 z + c_2 z^2 by `_roots`, none for a constant, in Python
    complex arithmetic: no numpy call.

    `c` holds at most three finite complex numbers, not all 0, up to trailing
    zeros, which are dropped; more refuses with ValueError.  Scaling by a
    power of two is exact and moves no root; with every real and imaginary
    part below 1, no product in `_roots` overflows.  Python complex
    arithmetic, unlike numpy's, gives inf without a warning when a root lies
    beyond the float range (a subnormal leading coefficient).
    """
    e = math.frexp(max(abs(x) for v in c for x in (v.real, v.imag)))[1]
    c = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) > 3:
        raise ValueError("only polynomial degree <= 2 is supported")
    return _roots(c)


def _shaped(z, values):
    """Values at the flattened points of z, in z's shape; complex numbers for a point z."""
    if np.ndim(z) == 0:
        return tuple(complex(x[0]) for x in values)
    return tuple(np.reshape(x, np.shape(z)) for x in values)


def _closed_evaluator(P, e):
    """(f/z, z f'/f, z f''/f') of f = z P^e, in factored form.

    With N = P + e z P', z f'/f = N/P.  Over the reciprocal roots p of P and
    n of N (the roots of the reversed polynomials), u = 1 - p z and v = 1 - n z:
    f/z = (prod u)^e, z f'/f = prod v / prod u and z f''/f' = z ((1 - e) sum p/u
    - sum n/v), which keep their relative precision next to a root on the
    circle.  Where f or f' vanishes the ratios are inf or nan, without a warning.
    """
    ps = _roots(P[::-1])
    ns = _roots(tuple((1.0 + e * k) * c for k, c in enumerate(P))[::-1])

    def ev(z):
        flat = np.ravel(np.asarray(z, dtype=complex))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            us = [1.0 - p * flat for p in ps]
            vs = [1.0 - n * flat for n in ns]
            q = functools.reduce(operator.mul, us, np.ones_like(flat))
            # The p terms first and one at a time, which keeps the quadratics' bits.
            pu = [p / u for p, u in zip(ps, us)]
            d = (1.0 - e) * functools.reduce(operator.add, pu) if pu else np.zeros_like(flat)
            for n, v in zip(ns, vs):
                d = d - n / v
            values = (q**e, functools.reduce(operator.mul, vs, np.ones_like(flat)) / q, flat * d)
        return _shaped(z, values)

    return ev


def _rational(label, b, c, params, theta=0.0):
    """z / (1 + b z + c z^2), the row ((1, b, c), -1) at a = 0, rotated by theta."""
    return AnalyticFunction(label, Row((((1.0, b, c), -1.0),), 0.0, 1.0, float(theta)), params)


def _member(label, param, params, theta=0.0):
    """The entry of family `label` at the class parameter `param`, which its
    constructor has checked: the family's row, in floats, rotated by theta."""
    factors, a, beta, _ = FAMILIES[label].row(param)
    factors = tuple((tuple(map(float, P)), float(e)) for P, e in factors)
    return AnalyticFunction(label, Row(factors, float(a), float(beta), float(theta)), params)


def koebe(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - e^{i theta} z)^2, a_n = n e^{i(n-1) theta}: z / (1 - z)^2 rotated by theta."""
    return _rational("koebe", -2.0, 1.0, {"theta": float(theta)}, theta)


def f1(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - sqrt(2) e^{i theta} z + e^{2 i theta} z^2).

    Starts z + sqrt(2) e^{i theta} z^2 + e^{2 i theta} z^3; gamma_2 vanishes,
    so it attains the most negative value of |gamma_2| - |gamma_1| possible
    for a univalent function.  It is f1(0) rotated by theta.
    """
    # Held as a complex: the sign of its zero imaginary part fixes the order in
    # which `_roots` gives the conjugate roots, and so the evaluator's last bits.
    return _rational("f1", complex(-math.sqrt(2.0)), 1.0, {"theta": float(theta)}, theta)


def f2(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 + e^{i theta} z^2): odd, a_2 = 0, a_3 = -e^{i theta}; f2(0) rotated by theta/2."""
    return _rational("f2", 0.0, 1.0, {"theta": float(theta)}, 0.5 * theta)


def f3(lam: float, theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - lam e^{i theta} z^2) = z + lam e^{i theta} z^3 + lam^2 e^{2 i theta} z^5 + ...

    Requires 0 < lam <= 1.  It is f3(lam, 0) rotated by theta/2.
    """
    ClassSpec.of("U", lam)  # refuses lam outside U's range
    return _member("f3", lam, {"lam": float(lam), "theta": float(theta)}, 0.5 * theta)


def f4(lam: float) -> AnalyticFunction:
    """z / (1 - sqrt(2 lam) z + lam z^2) = z + sqrt(2 lam) z^2 + lam z^3 + ...

    Requires 1/2 <= lam <= 1; below 1/2 a pole enters the disk.
    """
    _check_finite(("lambda", lam))
    if not FAMILIES["f4"].inside(lam):
        raise ValueError(f"f4 requires 1/2 <= lambda <= 1, got {lam}")
    return _member("f4", lam, {"lam": float(lam)})


def f5(lam: float) -> AnalyticFunction:
    """z / (1 - z + lam z^2) = z + z^2 + (1 - lam) z^3 + ...

    Requires 0 < lam <= 1/2 so that both poles stay outside the open disk.
    """
    _check_finite(("lambda", lam))
    if not FAMILIES["f5"].inside(lam):
        raise ValueError(f"f5 requires 0 < lambda <= 1/2, got {lam}")
    return _member("f5", lam, {"lam": float(lam)})


# -- quadrature for the integral-defined entries -------------------------------


# 16-point Gauss-Legendre nodes and weights on [-1, 1], read-only.  The table
# holds the doubles of a Golub-Welsch build, the eigenvalues x of the Jacobi
# matrix with off-diagonal k / sqrt(4 k^2 - 1), k = 1..15, and w = 2 v_0^2 from
# its eigenvectors v, as numpy 2.4.6's LAPACK (`eigh`) gave them, printed with
# repr.  They are kept bit for bit, so that no quadrature output moves, and are
# not mirror-symmetric to the last bit: x[7] = -0.0950125098376372 but
# x[8] = 0.09501250983763725.  Kept as literals, the rule costs no eigensolve
# in any process.
_GL_NODES = np.array([
    -0.9894009349916495, -0.9445750230732327, -0.8656312023878319, -0.7554044083550033,
    -0.6178762444026443, -0.4580167776572275, -0.2816035507792588, -0.0950125098376372,
    0.09501250983763725, 0.28160355077925897, 0.4580167776572271, 0.617876244402644,
    0.7554044083550031, 0.8656312023878318, 0.9445750230732326, 0.9894009349916498,
])
_GL_WEIGHTS = np.array([
    0.027152459411754565, 0.06225352393864702, 0.09515851168249262, 0.12462897125553422,
    0.14959598881657638, 0.16915651939500279, 0.1826034150449246, 0.18945061045506828,
    0.1894506104550689, 0.18260341504492386, 0.16915651939500284, 0.1495959888165774,
    0.12462897125553483, 0.09515851168249245, 0.06225352393864806, 0.02715245941175439,
])
_GL_NODES.setflags(write=False)  # shared by every caller
_GL_WEIGHTS.setflags(write=False)


# Error allowed on the innermost panel at t = 0, relative to the integral.
_ENDPOINT_TOL = 1e-14

# Most nodes a rule may have; only a very sharp integrand (alpha near 0) needs more.
_MAX_NODES = 10**5

# Most node-point pairs evaluated at once; bounds the memory of a quadrature sum.
_BLOCK = 64 * 256


def _panel_counts(gap: float, power: float, gamma: float):
    """(ratio, n_left, n_right, n_last): the panels of `_graded_rule`'s rule, counted.

    Refuses, with ValueError, a gap or power past which the counts divide by
    zero or overflow, and a rule of more than _MAX_NODES nodes, before any
    node is built.
    """
    x, w = _GL_NODES, _GL_WEIGHTS
    if not (0.0 < power <= 64.0 * _MAX_NODES and 0.0 < gap and 2.0 / gap < math.inf):
        raise ValueError(f"quadrature rule out of range: gap {gap:g}, power {power:g}")
    ratio = 1.0 + min(3.0, 8.0 / power)
    n_right = math.ceil(math.log(2.0 / gap, ratio))
    err = abs(0.5 * (w * (0.5 * (x + 1.0)) ** gamma).sum() * (gamma + 1.0) - 1.0)
    n_left = 0
    if err > _ENDPOINT_TOL:
        inner = (_ENDPOINT_TOL / err) ** (1.0 / (gamma + 1.0))
        n_left = math.ceil(math.log(0.5 / inner, 4.0))
    n_last = math.ceil(power / 64.0)
    nodes = len(x) * (n_left + n_right + n_last + 1)
    if nodes > _MAX_NODES:
        raise ValueError(
            f"quadrature would need {nodes} nodes, more than {_MAX_NODES}; "
            f"the integrand (power {power:g}) is too sharp"
        )
    return ratio, n_left, n_right, n_last


def _graded_rule(gap: float, power: float, gamma: float):
    """Composite 16-point Gauss-Legendre nodes, their distances to 1 and log weights on [0, 1].

    For integrands with a singularity of order `power` about `gap` beyond
    t = 1 that behave like t**gamma at t = 0.  Toward t = 1 the panels shrink
    geometrically down to gap/4, by a ratio that tightens as power grows, and
    the last one is cut into ceil(power/64) equal panels; toward t = 0 they
    shrink by 4 until the rule's error on t**gamma over the innermost panel
    is below _ENDPOINT_TOL, which needs no panel at all for integer gamma
    (`_panel_counts`).  The distances to 1 and the panel widths near t = 1
    come from the panel ends' own distances to 1, so that they keep their
    relative precision where the integrand is sharpest.
    """
    ratio, n_left, n_right, n_last = _panel_counts(gap, power, gamma)
    x, w = _GL_NODES, _GL_WEIGHTS
    left = 0.5 * 4.0 ** -np.arange(float(n_left), 0.0, -1.0)
    right = 0.5 * ratio ** -np.arange(1.0, n_right + 1)
    right = np.concatenate((right, right[-1] * np.arange(n_last - 1.0, 0.0, -1.0) / n_last))
    b = np.concatenate(([0.0], left, [0.5], 1.0 - right, [1.0]))
    c = np.concatenate(([1.0], 1.0 - left, [0.5], right, [0.0]))  # 1 - b
    half = 0.5 * np.where(b[1:] <= 0.5, np.diff(b), -np.diff(c))[:, None]
    t = (b[:-1, None] + half * (1.0 + x)).ravel()
    return t, (c[1:, None] + half * (1.0 - x)).ravel(), np.log(half * w).ravel()


def _rule_shape(factors, alpha: float, z: np.ndarray):
    """(gap, power, gamma) of the rule that integrates u = integral_0^1 h(z t^alpha) dt
    at the flat points z; refuses, with ValueError, a point with |z| >= 1.

    For alpha <= 1 the integral runs over s = t^alpha, where the weight
    s^(1/alpha - 1)/alpha is bounded, and for alpha > 1 over t.
    """
    r = float(np.abs(z).max(initial=0.0))
    if not r < 1.0:
        raise ValueError(f"quadrature evaluation needs |z| < 1, got max |z| = {r}")
    gap, power = 1.0 - r, max(abs(e) for _, e in factors)
    if alpha <= 1.0:
        # The weight s^gamma falls off within about alpha of s = 1.
        return min(gap, alpha), power, 1.0 / alpha - 1.0
    # In t the singularity sits about gap/alpha beyond t = 1.  At t = 0 the
    # integrand goes like t^(alpha lead), lead the index of h's first
    # non-constant term.
    lead = 1 if sum(e * P[1] for P, e in factors) != 0 else 2
    return gap / alpha, power, alpha * lead


def _factor_terms(factors, z: np.ndarray):
    """h = prod P^e at the flat points z, term by term, and h'/h.

    Returns ([(e, P(z), ks), ...], h'/h) with ks the (k, c_k z^k,
    e k c_k z^(k-1)) of each coefficient c_k != 0 of P, k >= 1, and
    h'/h = sum e P'/P; where some P(z) = 0 it is not finite.
    """
    rows = []
    for P, e in factors:
        ks = [(k, c * z**k, e * k * c * z ** (k - 1)) for k, c in enumerate(P) if k and c]
        rows.append((e, 1.0 + sum(a for _, a, _ in ks), ks))
    return rows, sum(b / pz for _, pz, ks in rows for _, _, b in ks)


def _integral_logs(factors, alpha: float, z: np.ndarray):
    """(log h, h'/h, log v) at the flat points z, for u = integral_0^1 h(z t^alpha) dt.

    v = u/h(z) is what is left once the singular factor comes out; its terms
    h(z sigma)/h(z), sigma = t^alpha, are summed in logs, so v cannot
    overflow.  v stays off the negative real axis (|Arg v| < 0.5 pi for the
    k_theta_alpha and m_alpha_upper rows and < 0.25 pi for g_alpha_upper's,
    measured over alpha from 0.01 to 30 and |z| up to 0.9999), so its
    principal log is the continued branch.  The rule is `_rule_shape`'s, in
    s = sigma for alpha <= 1 and in t for alpha > 1; h'/h is `_factor_terms`'.

    The sum is taken in real arithmetic, from the real and imaginary parts
    x, y of each P(z sigma).  A term's log has the real part
    log w + sum (e/2) log(x^2 + y^2), w its weight, and half its phase is
    phi/2 = sum (e/2) arctan2(y, x); with t = tan(phi/2), e^{i phi} =
    (1 - t^2 + 2 i t)/(1 + t^2), so the real and imaginary sums take one
    tan per term and no complex exp.  x^2 + y^2 costs less than the modulus
    of a complex P; it stays in range while 1e-154 < |P| < 1e154, which holds
    for the catalog's rows at every |z| < 1, and one that overflows gives a
    value that is not finite, which the evaluator refuses.
    """
    gap, power, gamma = _rule_shape(factors, alpha, z)
    sigma, rest, lw = _graded_rule(gap, power, gamma)
    if alpha <= 1.0:
        lw = lw + gamma * np.log(sigma) - math.log(alpha)
    else:
        sigma, rest = sigma**alpha, -np.expm1(alpha * np.log1p(-rest))
    # P(z sigma) = P(z) + sum_k c_k z^k (sigma^k - 1), with sigma^k - 1 taken
    # from rest = 1 - sigma so that it keeps its precision near sigma = 1.
    drops = (None, -rest, -rest * (1.0 + sigma))
    rows, dh = _factor_terms(factors, z)
    # The terms are scaled by exp(-top), top the largest Re of their logs so
    # far at each point, so that none overflows; the sums are rescaled as top
    # grows.  _BLOCK node-point pairs go at a time.
    step = max(1, _BLOCK // max(z.size, 1))
    top, re, im = np.full(z.size, -np.inf), 0.0, 0.0
    for j in range(0, len(lw), step):
        i = slice(j, j + step)
        mag, half = lw[i], 0.0
        for e, pz, ks in rows:
            x = sum((a.real[:, None] * drops[k][i] for k, a, _ in ks), pz.real[:, None])
            y = sum((a.imag[:, None] * drops[k][i] for k, a, _ in ks), pz.imag[:, None])
            mag = mag + 0.5 * e * np.log(x * x + y * y)
            half = half + 0.5 * e * np.arctan2(y, x)
        new = np.maximum(top, mag.max(1))
        t, scale = np.tan(half), np.exp(top - new)
        tt = t * t
        w = np.exp(mag - new[:, None]) / (1.0 + tt)
        re = re * scale + ((1.0 - tt) * w).sum(1)
        im = im * scale + (2.0 * t * w).sum(1)
        top = new
    lh = sum(e * np.log(pz) for e, pz, _ in rows)
    # h(z)'s modulus comes off top, and its phase off the sum.
    logv = top - lh.real + np.log((re + 1j * im) * np.exp(-1j * lh.imag))
    return lh, dh, logv


# Largest alpha the integral entries are evaluated at.  u^alpha scales u's
# roundoff by alpha, which f/z, p and so every margin that reads them sees:
# the U margins and M(alpha') with alpha' != alpha.  The margins at the
# entry's own class read z h'/h alone, but are capped too, so that whether an
# entry is evaluated does not depend on the class it is tested in.
_MAX_ALPHA = 1e6


def _quadrature_evaluator(label, factors, alpha):
    """The evaluator and z h'/h of the row (factors, alpha, alpha).

    The evaluator gives (f/z, z f'/f, z f''/f'): f/z = u^alpha,
    p = z f'/f = 1/v with v = u/h(z), and z f''/f' = (alpha - 1) z u'/u + z h'/h.
    z u'/u needs no second quadrature.  With s = z t^alpha,
    z^(1/alpha) u = (1/alpha) integral_0^z s^(1/alpha - 1) h(s) ds, whose
    derivative gives z u' = (h - u)/alpha, so z u'/u = (p - 1)/alpha and
    z f''/f' = (alpha - 1)/alpha (p - 1) + z h'/h.

    z h'/h = sum e z P'/P is a closed form in the row, from which
    `classes._margins` forms a margin whose p - 1 term has the coefficient 0:
    it runs no quadrature, and gives NaN where h = 0.  It refuses what the
    evaluator refuses at the same points, alpha above _MAX_ALPHA, |z| >= 1
    and a rule out of range or of too many nodes (`_panel_counts`), so that
    whether a point is evaluated does not depend on which of the two reads it.
    Every value that is not finite, but z h'/h where h = 0, is refused.

    Only the ratios are folded by the row's symmetry, each orbit integrated
    once.  If every coefficient and power is real, the values at conj z are
    the conjugates of those at z, so z goes to the upper half plane; if every
    P has no z term, the values are even, so z goes to the right half plane
    first.  The distinct folded points (`np.unique`) are evaluated and the
    values unfolded.  Folding keeps every |z|, and so the quadrature rule.
    z h'/h is evaluated at the points it is given: a few products and
    quotients per point cost less than the fold's sort, and the arithmetic
    keeps the symmetry by itself, as conj and z -> -z commute exactly with
    each product and quotient of a real, or even, row's terms (up to the
    sign of an exact zero, which no margin reads).
    The rule comes from a call's largest |z|, so the evaluator takes a 2-D z
    as a stack of rings, one per row, each folded and integrated under its
    own rule, with the bits it has alone; z h'/h takes the stack at once.
    """
    real = all(complex(c).imag == 0 for P, e in factors for c in (*P, e))
    even = all(len(P) < 2 or P[1] == 0 for P, _ in factors)

    def refused_alpha():
        if alpha > _MAX_ALPHA:
            raise ValueError(f"{label} is evaluated only at alpha <= {_MAX_ALPHA:g}, got {alpha!r}")

    def flat(z):
        refused_alpha()
        w = np.ravel(np.asarray(z, dtype=complex))
        if even:
            w = np.where((w.real < 0) | ((w.real == 0) & (w.imag < 0)), -w, w)
        flip = real & (w.imag < 0)
        reps, back = np.unique(np.where(flip, w.conj(), w), return_inverse=True)
        with np.errstate(all="ignore"):
            lh, dh, logv = _integral_logs(factors, alpha, reps)
            p = np.exp(-logv)
            out = (np.exp(alpha * (lh + logv)), p, (alpha - 1.0) / alpha * (p - 1.0) + reps * dh)
        if not all(np.isfinite(x).all() for x in out):
            raise ValueError(f"{label} values overflow at alpha = {alpha!r}")
        return _shaped(z, [np.where(flip, x[back].conj(), x[back]) for x in out])

    def ev(z):
        if np.ndim(z) < 2:
            return flat(z)
        rings = [flat(ring) for ring in np.reshape(z, (-1, np.shape(z)[-1]))]
        return tuple(np.reshape(x, np.shape(z)) for x in zip(*rings))

    def dlog_h(z):
        refused_alpha()
        w = np.ravel(np.asarray(z, dtype=complex))
        with np.errstate(all="ignore"):
            _panel_counts(*_rule_shape(factors, alpha, w))
            rows, dh = _factor_terms(factors, w)
            zero = functools.reduce(operator.or_, [pz == 0 for e, pz, _ in rows if e > 0], False)
            d = np.where(zero, np.nan, w * dh)
        if not (np.isfinite(d) | zero).all():
            raise ValueError(f"{label} values overflow at alpha = {alpha!r}")
        return _shaped(z, (d,))[0]

    return ev, dlog_h


def k_theta_alpha(theta: float, alpha: float) -> AnalyticFunction:
    """Generalized koebe function, the extremal of the alpha-convex class M(alpha).

    f = ((1/alpha) integral_0^z t^{1/alpha - 1} (1 - e^{i theta} t)^{-2/alpha} dt)^alpha,
    the row with the one factor (1 - z)^{-2/alpha}, a = beta = alpha,
    rotated by theta.  At alpha = 0 it is koebe's row; a_2 = 2 e^{i theta} / (1 + alpha).

    gamma and the power series, both read from the row's y_u, are accurate
    at every alpha up to about 4.7e153, where the row's terms underflow and
    both refuse.  The evaluator has its own floor: below alpha ~ 3.51e-4 its
    quadrature rule would need more than _MAX_NODES nodes, and it refuses
    with ValueError at every |z| up to 0.999.
    """
    alpha = ClassSpec.of("M", alpha).alpha  # refuses alpha outside M's range
    return _member("k_theta_alpha", alpha, {"theta": float(theta), "alpha": float(alpha)}, theta)


def m_alpha_upper(alpha: float) -> AnalyticFunction:
    """Odd extremal z + z^3/(1+2 alpha) + ... for the alpha-convex family.

    The row with the one factor (1 - z^2)^{-1/alpha} and a = beta = alpha.
    At alpha = 0 it is z / (1 - z^2) in closed form.  As for k_theta_alpha,
    gamma is accurate at every alpha up to about 4.7e153, where it is refused.
    Below alpha ~ 1.88e-4 the evaluator refuses with ValueError, as its
    quadrature rule would need more than _MAX_NODES nodes, at every |z| up to
    0.999.
    """
    alpha = ClassSpec.of("M", alpha).alpha  # refuses alpha outside M's range
    return _member("m_alpha_upper", alpha, {"alpha": float(alpha)})


def g_alpha_upper(alpha: float) -> AnalyticFunction:
    """Primitive of (1 - z^2)^(alpha/2): starts z - (alpha/6) z^3.

    Requires 0 < alpha <= 1.  The row with the one factor
    (1 - z^2)^(alpha/2) and a = beta = 1, so f' = h and f''/f' = h'/h are
    closed forms and only f comes by quadrature.  Below alpha = 1e-323 the
    factor's power alpha/2 is 0, and `functional.log_coefficients` refuses.
    """
    ClassSpec.of("G", alpha)  # refuses alpha outside G's range
    return _member("g_alpha_upper", alpha, {"alpha": float(alpha)})


def g_quadratic() -> AnalyticFunction:
    """z - z^2/2, the polynomial member with delta = -3/16: the row ((1, -1/2), 1) at a = 0."""
    return AnalyticFunction("g_quadratic", Row((((1.0, -0.5), 1.0),), 0.0, 1.0), {})


def rotate(f: AnalyticFunction, theta: float) -> AnalyticFunction:
    """Disk rotation e^{-i theta} f(e^{i theta} z): a_n -> e^{i(n-1) theta} a_n.

    Preserves membership in every rotation-invariant class and each |gamma_n|.
    Adds theta to the row's angle and leaves its coefficients and params as
    they are, so rotate(rotate(f, s), t) has the row of rotate(f, s + t) for
    an unrotated f.
    """
    row = f.row._replace(theta=f.row.theta + float(theta))
    return AnalyticFunction(f.label, row, dict(f.params))


def make(
    label: str, theta: float = 0.0, lam: float | None = None, alpha: float | None = None
) -> AnalyticFunction:
    """Build a catalog entry by label string; used by the command line.

    Only the parameters the entry takes are read; the others are ignored.
    """
    family = FAMILIES.get(label)
    if family is None:
        raise ValueError(f"unknown function label {label!r}; known labels: {', '.join(LABELS)}")
    kwargs = {}
    if family.rotated:
        kwargs["theta"] = theta
    if family.kind == "U":
        kwargs["lam"] = lam
    elif family.kind is not None:
        kwargs["alpha"] = alpha
    for name, value in kwargs.items():
        if value is None:
            raise ValueError(f"{label} requires {'lambda' if name == 'lam' else name}")
    return globals()[label](**kwargs)
