"""Catalog of normalized analytic functions used as extremal witnesses.

Every entry is an :class:`AnalyticFunction`, one factor row.  The row
(factors, a, beta) is f = z u^beta with u = integral_0^1 h(z t^a) dt and
h = prod P^e, each P of degree <= 2 with P(0) = 1, so f(0) = 0 and
f'(0) = 1 by construction:

    koebe, f1..f5   ((1, b, c), -1)                 a = 0, beta = 1: f = z / P
    g_quadratic     ((1, -1/2), 1)                  a = 0, beta = 1: f = z P
    k_theta_alpha   ((1, -e^{i theta}), -2/alpha)   a = beta = alpha
    m_alpha_upper   ((1, 0, -1), -1/alpha)          a = beta = alpha
    g_alpha_upper   ((1, 0, -1), alpha/2)           a = beta = 1, so f' = h

`functional` reads the log coefficients from the row; Taylor coefficients
are built from it only when asked for, to the order asked.  The evaluator
comes from the row too and returns the three ratios every class inequality
reads: in closed form at a = 0 (`_closed_evaluator`), and otherwise by
Gauss-Legendre quadrature of u and u'/u (`_quadrature_evaluator`).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .classes import ClassSpec
from .series import MIN_ORDER, TruncatedSeries, _div_coeffs, exp_unit, log_unit, pow_real


@dataclass(frozen=True)
class Family:
    """What a catalog entry's constructor takes, and the range a sweep walks.

    kind: the class (U, M or G) whose parameter the entry takes, or None.
    rotated: whether the entry takes a rotation angle theta.
    sweep: (lo, hi, ends) over the class parameter, or over theta when kind
    is None, with ends in interval notation such as "(]"; None if not swept.
    """

    kind: Optional[str]
    rotated: bool
    sweep: Optional[tuple]


# Keyed by the constructor's name in this module.  `make` looks the
# constructor up when it is called, so a wrapper installed on the module
# attribute sees the call.
FAMILIES = {
    "koebe": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f1": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f2": Family(None, True, (0.0, 2.0 * math.pi, "[)")),
    "f3": Family("U", True, (0.0, 1.0, "(]")),
    "f4": Family("U", False, (0.5, 1.0, "[]")),
    "f5": Family("U", False, (0.0, 0.5, "(]")),
    "k_theta_alpha": Family("M", True, (0.0, 3.0, "[]")),
    "m_alpha_upper": Family("M", False, (0.0, 3.0, "[]")),
    "g_alpha_upper": Family("G", False, (0.0, 1.0, "(]")),
    "g_quadratic": Family(None, False, None),
}

LABELS = tuple(FAMILIES)

# Most steps a sweep grid may take across its range.
MAX_SWEEP_STEPS = 10**4


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


class Row(NamedTuple):
    """f = z u^beta, u = integral_0^1 h(z t^a) dt, h = prod P^e over factors ((P, e), ...)."""

    factors: tuple
    a: float
    beta: float

    @property
    def closed(self) -> bool:
        """Whether f = z prod P^e with every e = +-1, exact by products and quotients."""
        return self.a == 0 and self.beta == 1 and all(abs(e) == 1 for _, e in self.factors)


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """A catalog entry: its row, its parameters and the evaluator the row gives.

    Refuses, with ValueError, a row unless every P has degree <= 2 and
    P(0) = 1 exactly, every value is finite, and beta = a > 0 with a factor
    or a = 0, beta = 1 with one factor.  evaluator(z) returns (f/z, z f'/f,
    z f''/f') at z, a point or an ndarray of points of the open disk; at
    z = 0 these are (1, 1, 0).
    """

    label: str
    row: Row
    params: dict
    evaluator: Callable = field(init=False, repr=False)

    def __post_init__(self):
        factors, a, beta = self.row
        values = [*(c for P, _ in factors for c in P), *(e for _, e in factors), a, beta]
        if not all(map(cmath.isfinite, values)) or not a >= 0:
            raise ValueError(f"{self.label} {self.params}: row values must be finite and a >= 0")
        if not all(1 <= len(P) <= 3 and P[0] == 1 for P, _ in factors):
            raise ValueError(f"{self.label} row needs P(0) = 1 and degree <= 2, got {factors}")
        if a > 0 and beta == a and factors:
            ev = _quadrature_evaluator(self.label, factors, a)
        elif a == 0 and beta == 1 and len(factors) == 1:
            ev = _closed_evaluator(*factors[0])
        else:
            raise ValueError(f"{self.label} row has no evaluator: it needs factors and "
                             f"beta = a > 0, or a = 0, beta = 1 and one factor, got {self.row}")
        object.__setattr__(self, "evaluator", ev)

    def series(self, n: int) -> TruncatedSeries:
        """Taylor coefficients a_0..a_n, built from the row to order n.

        Refuses, with ValueError and no numpy warning, a coefficient that is
        not finite: at small a and large n the coefficients of h overflow.
        """
        factors, a, beta = self.row
        with np.errstate(over="ignore", invalid="ignore"):
            if self.row.closed:
                c = TruncatedSeries([0.0, 1.0], order=n).coeffs
                for P, e in factors:
                    p = TruncatedSeries(P, order=n).coeffs
                    c = np.convolve(c, p)[: n + 1] if e > 0 else _div_coeffs(c, p)
            else:
                hs = [pow_real(TruncatedSeries(P, order=n), e).coeffs for P, e in factors]
                h = functools.reduce(lambda x, y: np.convolve(x, y)[: n + 1], hs)
                u = log_unit(TruncatedSeries(h / (1.0 + a * np.arange(n + 1)), order=n))
                # u^beta as exp(beta log u), which does not cancel as u's coefficients grow.
                u = exp_unit(TruncatedSeries(beta * u.coeffs, order=n))
                c = np.concatenate(([0.0], u.coeffs[:-1]))
        s = TruncatedSeries(c, order=n)
        bad = np.flatnonzero(~np.isfinite(s.coeffs))
        if bad.size:
            raise ValueError(f"series coefficient a_{bad[0]} = {s.coeffs[bad[0]]} is not finite")
        return s

    def a(self, n: int) -> complex:
        """Taylor coefficient a_n, from a build to order n."""
        return self.series(max(n, MIN_ORDER)).coefficient(n)


def _check_finite(*named):
    """Raise ValueError unless every (name, value) pair has a finite value."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _roots(c):
    """Roots of c_0 + c_1 z + c_2 z^2 of degree len(c) - 1 <= 2: +-sqrt(-c_0/c_2) if
    c_1 = 0, else (q / c_2, c_0 / q), q = -(c_1 + s)/2 with s the discriminant's square
    root aligned with c_1, so that neither comes from a cancelling difference."""
    if len(c) < 3:
        return (-c[0] / c[1],) if len(c) == 2 else ()
    c0, c1, c2 = c
    if c1 == 0:
        s = cmath.sqrt(-c0 / c2)
        return s, -s
    s = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    if (c1.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (c1 + s)
    return q / c2, c0 / q


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


def _rational(label, b, c, params):
    """z / (1 + b z + c z^2), the row ((1, b, c), -1) at a = 0."""
    return AnalyticFunction(label, Row((((1.0, b, c), -1.0),), 0.0, 1.0), params)


def koebe(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - e^{i theta} z)^2, coefficients a_n = n e^{i(n-1) theta}."""
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _rational("koebe", -2.0 * w, w * w, {"theta": float(theta)})


def f1(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - sqrt(2) e^{i theta} z + e^{2 i theta} z^2).

    Starts z + sqrt(2) e^{i theta} z^2 + e^{2 i theta} z^3; gamma_2 vanishes,
    so it attains the most negative value of |gamma_2| - |gamma_1| possible
    for a univalent function.
    """
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _rational("f1", -math.sqrt(2.0) * w, w * w, {"theta": float(theta)})


def f2(theta: float = 0.0) -> AnalyticFunction:
    """z / (1 + e^{i theta} z^2): odd, a_2 = 0, a_3 = -e^{i theta}."""
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _rational("f2", 0.0, w, {"theta": float(theta)})


def f3(lam: float, theta: float = 0.0) -> AnalyticFunction:
    """z / (1 - lam e^{i theta} z^2) = z + lam e^{i theta} z^3 + lam^2 e^{2 i theta} z^5 + ...

    Requires 0 < lam <= 1.
    """
    _check_finite(("theta", theta))
    ClassSpec.of("U", lam)  # refuses lam outside U's range
    w = np.exp(1j * theta)
    return _rational("f3", 0.0, -lam * w, {"lam": float(lam), "theta": float(theta)})


def f4(lam: float) -> AnalyticFunction:
    """z / (1 - sqrt(2 lam) z + lam z^2) = z + sqrt(2 lam) z^2 + lam z^3 + ...

    Requires 1/2 <= lam <= 1; below 1/2 a pole enters the disk.
    """
    _check_finite(("lambda", lam))
    if not 0.5 <= lam <= 1.0:
        raise ValueError(f"f4 requires 1/2 <= lambda <= 1, got {lam}")
    return _rational("f4", -math.sqrt(2.0 * lam), lam, {"lam": float(lam)})


def f5(lam: float) -> AnalyticFunction:
    """z / (1 - z + lam z^2) = z + z^2 + (1 - lam) z^3 + ...

    Requires 0 < lam <= 1/2 so that both poles stay outside the open disk.
    """
    _check_finite(("lambda", lam))
    if not 0.0 < lam <= 0.5:
        raise ValueError(f"f5 requires 0 < lambda <= 1/2, got {lam}")
    return _rational("f5", -1.0, lam, {"lam": float(lam)})


# -- quadrature for the integral-defined entries -------------------------------


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], by Golub-Welsch."""
    k = np.arange(1.0, 16.0)
    b = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    w = 2.0 * v[0] ** 2
    x.setflags(write=False)  # cached and shared by every caller
    w.setflags(write=False)
    return x, w


# Error allowed on the innermost panel at t = 0, relative to the integral.
_ENDPOINT_TOL = 1e-14

# Most nodes a rule may have; only a very sharp integrand (alpha near 0) needs more.
_MAX_NODES = 10**5

# Most node-point pairs evaluated at once; bounds the memory of a quadrature sum.
_BLOCK = 64 * 256


def _graded_rule(gap: float, power: float, gamma: float):
    """Composite 16-point Gauss-Legendre nodes, their distances to 1 and log weights on [0, 1].

    For integrands with a singularity of order `power` about `gap` beyond
    t = 1 that behave like t**gamma at t = 0.  Toward t = 1 the panels shrink
    geometrically down to gap/4, by a ratio that tightens as power grows, and
    the last one is cut into ceil(power/64) equal panels; toward t = 0 they
    shrink by 4 until the rule's error on t**gamma over the innermost panel
    is below _ENDPOINT_TOL, which needs no panel at all for integer gamma.
    The distances to 1 and the panel widths near t = 1 come from the panel
    ends' own distances to 1, so that they keep their relative precision
    where the integrand is sharpest.
    """
    x, w = _gauss_legendre()
    # Past these the panel counts divide by zero or overflow.
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
    left = 0.5 * 4.0 ** -np.arange(float(n_left), 0.0, -1.0)
    right = 0.5 * ratio ** -np.arange(1.0, n_right + 1)
    right = np.concatenate((right, right[-1] * np.arange(n_last - 1.0, 0.0, -1.0) / n_last))
    b = np.concatenate(([0.0], left, [0.5], 1.0 - right, [1.0]))
    c = np.concatenate(([1.0], 1.0 - left, [0.5], right, [0.0]))  # 1 - b
    half = 0.5 * np.where(b[1:] <= 0.5, np.diff(b), -np.diff(c))[:, None]
    t = (b[:-1, None] + half * (1.0 + x)).ravel()
    return t, (c[1:, None] + half * (1.0 - x)).ravel(), np.log(half * w).ravel()


def _integral_logs(factors, alpha: float, z: np.ndarray):
    """(log h, h'/h, log v, u'/u) at the flat points z, for u = integral_0^1 h(z t^alpha) dt.

    v = u/h(z) is what is left once the singular factor comes out; its terms
    h(z sigma)/h(z), sigma = t^alpha, are summed in logs, so v cannot
    overflow.  v stays off the negative real axis (|Arg v| < 0.5 pi for the
    k_theta_alpha and m_alpha_upper rows and < 0.25 pi for g_alpha_upper's,
    measured over alpha from 0.01 to 30 and |z| up to 0.9999), so its
    principal log is the continued branch.  u'/u, the average of
    sigma h'/h(z sigma) under the integrand, is summed only for alpha != 1
    (else 0).  For alpha <= 1 the integral runs over s = sigma, where the
    weight s^(1/alpha - 1)/alpha is bounded; for alpha > 1 over t.
    """
    r = float(np.abs(z).max(initial=0.0))
    if not r < 1.0:
        raise ValueError(f"quadrature evaluation needs |z| < 1, got max |z| = {r}")
    gap, power = 1.0 - r, max(abs(e) for _, e in factors)
    if alpha <= 1.0:
        # The weight s^gamma falls off within about alpha of s = 1.
        gamma = 1.0 / alpha - 1.0
        sigma, rest, lw = _graded_rule(min(gap, alpha), power, gamma)
        lw = lw + gamma * np.log(sigma) - math.log(alpha)
    else:
        # In t the singularity sits about gap/alpha beyond t = 1.  At t = 0 the
        # integrand goes like t^(alpha lead), lead the index of h's first
        # non-constant term.
        lead = 1 if sum(e * P[1] for P, e in factors) != 0 else 2
        t, rest, lw = _graded_rule(gap / alpha, power, alpha * lead)
        sigma, rest = t**alpha, -np.expm1(alpha * np.log1p(-rest))
    # P(z sigma) = P(z) + sum_k c_k z^k (sigma^k - 1), with sigma^k - 1 taken
    # from rest = 1 - sigma so that it keeps its precision near sigma = 1, and
    # sigma P'(z sigma) = sum_k k c_k z^(k-1) sigma^k.
    powers = (None, sigma, sigma * sigma)
    drops = (None, -rest, -rest * (1.0 + sigma))
    rows = []  # e, P(z) and (k, c_k z^k, e k c_k z^(k-1)) for each c_k != 0
    for P, e in factors:
        ks = [(k, c * z**k, e * k * c * z ** (k - 1)) for k, c in enumerate(P) if k and c]
        rows.append((e, 1.0 + sum(a for _, a, _ in ks), ks))
    moment = alpha != 1.0
    # The terms are scaled by exp(-top), top the largest Re of their logs so
    # far at each point, so that none overflows; the sums are rescaled as top
    # grows.  _BLOCK node-point pairs go at a time.
    step = max(1, _BLOCK // max(z.size, 1))
    top, v, mv = np.full(z.size, -np.inf), 0.0, 0.0
    for j in range(0, len(lw), step):
        i = slice(j, j + step)
        e, m = lw[i], 0.0
        for ex, pz, ks in rows:
            P = sum((a[:, None] * drops[k][i] for k, a, _ in ks), pz[:, None])
            # The principal log by parts: numpy's complex log is several times slower.
            e = e + ex * (np.log(np.abs(P)) + 1j * np.angle(P))
            if moment:
                m = m + sum(b[:, None] * powers[k][i] for k, _, b in ks) / P
        new = np.maximum(top, e.real.max(1))
        h, scale = np.exp(e - new[:, None]), np.exp(top - new)
        v, top = v * scale + h.sum(1), new
        if moment:
            mv = mv * scale + (h * m).sum(1)
    lh = sum(e * np.log(pz) for e, pz, _ in rows)
    # h(z)'s modulus comes off top, and its phase off the sum.
    logv = top - lh.real + np.log(v * np.exp(-1j * lh.imag))
    dh = sum(b / pz for _, pz, ks in rows for _, _, b in ks)
    return lh, dh, logv, mv / v


# Largest alpha the integral entries are evaluated at: u^alpha and u^(alpha - 1)
# scale u's roundoff by alpha, and the M margin's relative error is about 4e-13 alpha.
_MAX_ALPHA = 1e6


def _quadrature_evaluator(label, factors, alpha):
    """(f/z, z f'/f, z f''/f') of the row (factors, alpha, alpha): f/z = u^alpha,
    z f'/f = 1/v with v = u/h(z), and z f''/f' = z ((alpha - 1) u'/u + h'/h).
    """

    def ev(z):
        if alpha > _MAX_ALPHA:
            raise ValueError(f"{label} is evaluated only at alpha <= {_MAX_ALPHA:g}, got {alpha!r}")
        flat = np.ravel(np.asarray(z, dtype=complex))
        # A value that is not finite is refused rather than returned.
        with np.errstate(all="ignore"):
            lh, dh, logv, du = _integral_logs(factors, alpha, flat)
            values = (np.exp(alpha * (lh + logv)), np.exp(-logv), flat * ((alpha - 1.0) * du + dh))
        if not all(np.isfinite(x).all() for x in values):
            raise ValueError(f"{label} values overflow at alpha = {alpha!r}")
        return _shaped(z, values)

    return ev


def k_theta_alpha(theta: float, alpha: float) -> AnalyticFunction:
    """Generalized koebe function, the extremal of the alpha-convex class M(alpha).

    f = ((1/alpha) integral_0^z t^{1/alpha - 1} (1 - e^{i theta} t)^{-2/alpha} dt)^alpha,
    the row with the one factor (1 - e^{i theta} z)^{-2/alpha} and
    a = beta = alpha.  At alpha = 0 it is koebe's row; a_2 = 2 e^{i theta} / (1 + alpha).

    gamma, read from the row, is accurate at every alpha up to about 4.7e153,
    where the row's terms underflow and `functional.log_coefficients`
    refuses.  a_3 from the power series is not: |a_3 - exact| of
    k_theta_alpha(0, alpha) is 4.0e-8 at alpha = 1e-8, 2.0e-11 at 1e-5 and
    9.5e-13 at 1e-3, and no command reads it.  The evaluator has its own
    floor: below alpha ~ 3.51e-4 its quadrature rule would need more than
    _MAX_NODES nodes, and it refuses with ValueError at every |z| up to 0.999.
    """
    _check_finite(("theta", theta))
    ClassSpec.of("M", alpha)  # refuses alpha outside M's range
    params = {"theta": float(theta), "alpha": float(alpha)}
    if alpha == 0:
        return AnalyticFunction("k_theta_alpha", koebe(theta).row, params)
    row = Row((((1.0, -np.exp(1j * theta)), -2.0 / alpha),), alpha, alpha)
    return AnalyticFunction("k_theta_alpha", row, params)


def m_alpha_upper(alpha: float) -> AnalyticFunction:
    """Odd extremal z + z^3/(1+2 alpha) + ... for the alpha-convex family.

    The row with the one factor (1 - z^2)^{-1/alpha} and a = beta = alpha.
    At alpha = 0 it is z / (1 - z^2) in closed form.  As for k_theta_alpha,
    gamma is accurate at every alpha up to about 4.7e153, where it is refused.
    Below alpha ~ 1.88e-4 the evaluator refuses with ValueError, as its
    quadrature rule would need more than _MAX_NODES nodes, at every |z| up to
    0.999.
    """
    ClassSpec.of("M", alpha)  # refuses alpha outside M's range
    if alpha == 0:
        return _rational("m_alpha_upper", 0.0, -1.0, {"alpha": 0.0})
    row = Row((((1.0, 0.0, -1.0), -1.0 / alpha),), alpha, alpha)
    return AnalyticFunction("m_alpha_upper", row, {"alpha": float(alpha)})


def g_alpha_upper(alpha: float) -> AnalyticFunction:
    """Primitive of (1 - z^2)^(alpha/2): starts z - (alpha/6) z^3.

    Requires 0 < alpha <= 1.  The row with the one factor
    (1 - z^2)^(alpha/2) and a = beta = 1, so f' = h and f''/f' = h'/h are
    closed forms and only f comes by quadrature.  Below alpha = 1e-323 the
    factor's power alpha/2 is 0, and `functional.log_coefficients` refuses.
    """
    ClassSpec.of("G", alpha)  # refuses alpha outside G's range
    row = Row((((1.0, 0.0, -1.0), 0.5 * alpha),), 1.0, 1.0)
    return AnalyticFunction("g_alpha_upper", row, {"alpha": float(alpha)})


def g_quadratic() -> AnalyticFunction:
    """z - z^2/2, the polynomial member with delta = -3/16: the row ((1, -1/2), 1) at a = 0."""
    return AnalyticFunction("g_quadratic", Row((((1.0, -0.5), 1.0),), 0.0, 1.0), {})


def rotate(f: AnalyticFunction, theta: float) -> AnalyticFunction:
    """Disk rotation e^{-i theta} f(e^{i theta} z): a_n -> e^{i(n-1) theta} a_n.

    Preserves membership in every rotation-invariant class and each |gamma_n|.
    The row's polynomials become P(e^{i theta} z), and so does the evaluator.
    params["rotated_by"] adds up the angles of repeated rotations.
    """
    _check_finite(("theta", theta))
    w = complex(np.exp(1j * theta))
    factors = tuple((tuple(c * w**k for k, c in enumerate(P)), e) for P, e in f.row.factors)
    params = dict(f.params)
    params["rotated_by"] = params.get("rotated_by", 0.0) + float(theta)
    return AnalyticFunction(f.label, f.row._replace(factors=factors), params)


def poles_outside_disk(coeffs) -> tuple[bool, float]:
    """Whether every root of a degree <= 2 polynomial lies strictly outside |z| = 1.

    Returns (all_outside, smallest_root_modulus), the roots from `_roots`.
    Non-finite coefficients are refused with ValueError.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if not np.isfinite(c).all():
        raise ValueError(f"polynomial coefficients must be finite, got {coeffs!r}")
    if c.size == 0 or not c.any():
        raise ValueError("zero polynomial has no pole locations")
    # Scaling by a power of two is exact and moves no root; with every real
    # and imaginary part below 1, no product in _roots overflows.
    e = math.frexp(max(np.abs(c.real).max(), np.abs(c.imag).max()))[1]
    c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) > 3:
        raise ValueError("only polynomial degree <= 2 is supported")
    # Python complex arithmetic, unlike numpy's, gives inf without a warning
    # when a root lies beyond the float range (a subnormal leading coefficient).
    m = min(map(abs, _roots([complex(v) for v in c])), default=math.inf)
    return bool(m > 1.0), float(m)


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
