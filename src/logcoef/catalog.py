"""Catalog of normalized analytic functions used as extremal witnesses.

Every entry is an :class:`AnalyticFunction`: a Taylor series, which the
entry refuses unless it is normalized (f(0) = 0, f'(0) = 1) and finite, plus
an evaluator, which every entry must have, that returns the three ratios
every class inequality reads, (f/z, z f'/f, z f''/f'), at a point or at an
ndarray of points of the open unit disk; they are (1, 1, 0) at z = 0.  The
series is the source of the coefficient functionals; the evaluator is the
one path from points to values.  Rational entries evaluate in closed form.
The entries defined by integrals are f = z u^alpha with u = integral_0^1 h(z t^alpha) dt
and h = prod P^e over a table of power factors, each P of degree <= 2 with
P(0) = 1 and its roots on |z| = 1:

    k_theta_alpha   ((1, -e^{i theta}), -2/alpha)   outer power alpha
    m_alpha_upper   ((1, 0, -1), -1/alpha)          outer power alpha
    g_alpha_upper   ((1, 0, -1), alpha/2)           outer power 1, so f' = h

Their series expands h and integrates it termwise.  Their evaluator uses
f/z = u^alpha, z f'/f = h(z)/u and z f''/f' = z ((alpha - 1) u'/u + h'/h(z)),
so only u and, for alpha != 1, u'/u come by composite Gauss-Legendre
quadrature, on panels graded toward both ends from alpha and the largest |z|
asked for.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .classes import ClassSpec
from .series import DEFAULT_ORDER, TruncatedSeries, exp_unit, log_unit, pow_real


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


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """A catalog entry: a normalized series, parameters and an evaluator.

    Refuses, with ValueError, a series unless a_0 = 0, a_1 = 1 and every
    coefficient is finite, so a build that overflowed is refused here, and
    an evaluator that is not callable.  evaluator(z) returns
    (f/z, z f'/f, z f''/f') at z, a point or an ndarray of points of the
    open disk; at z = 0 these are (1, 1, 0).
    """

    label: str
    series: TruncatedSeries
    params: dict
    evaluator: Callable = field(repr=False)

    def __post_init__(self):
        c = self.series.coeffs
        if c[0] != 0 or c[1] != 1:
            raise ValueError("series is not normalized: need a_0 = 0 and a_1 = 1 exactly")
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            n = int(bad[0])
            raise ValueError(f"series coefficient a_{n} = {c[n]} is not finite")
        if not callable(self.evaluator):
            raise ValueError(f"evaluator must be callable, got {self.evaluator!r}")

    def a(self, n: int) -> complex:
        """Taylor coefficient a_n."""
        return self.series.coefficient(n)


def _check_finite(*named):
    """Raise ValueError unless every (name, value) pair has a finite value."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _stable_roots(c0, c1, c2):
    """Both roots of c0 + c1 z + c2 z^2 (c2 != 0) as (q / c2, c0 / q), q = -(c1 + s)/2
    with s the discriminant's square root aligned with c1, so that neither comes
    from a cancelling difference; q = 0 only for the double root 0."""
    s = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    if (c1.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (c1 + s)
    return (q / c2, c0 / q) if q else (0j, 0j)


def _quadratic_rational(label, b, c, params, order):
    """z / (1 + b z + c z^2) with its ratios in closed form.

    The evaluator works in factored form, 1 + b z + c z^2 = u_1 u_2 with
    u_j = 1 - p_j z over the reciprocal roots p_j, and 1 - c z^2 =
    (1 - s z)(1 + s z), s^2 = c: f/z = 1/(u_1 u_2), z f'/f = (1 - s z)
    (1 + s z)/(u_1 u_2) and z f''/f' = z (2 (p_1/u_1 + p_2/u_2) - s/(1 - s z)
    + s/(1 + s z)) keep their relative precision next to a root on the
    circle.  The series is built from (b, c) directly.
    """
    den = TruncatedSeries([1.0, b, c], order=order)
    num = TruncatedSeries([0.0, 1.0], order=order)
    series = num / den
    p1, p2 = _stable_roots(c, b, 1.0)
    s = cmath.sqrt(c)

    def ev(z):
        u1, u2 = 1.0 - p1 * z, 1.0 - p2 * z
        v1, v2 = 1.0 - s * z, 1.0 + s * z
        q = u1 * u2
        return 1.0 / q, v1 * v2 / q, z * (2.0 * (p1 / u1 + p2 / u2) - s / v1 + s / v2)

    return AnalyticFunction(label, series, params, ev)


def koebe(theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - e^{i theta} z)^2, coefficients a_n = n e^{i(n-1) theta}."""
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _quadratic_rational("koebe", -2.0 * w, w * w, {"theta": float(theta)}, order)


def f1(theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - sqrt(2) e^{i theta} z + e^{2 i theta} z^2).

    Starts z + sqrt(2) e^{i theta} z^2 + e^{2 i theta} z^3; gamma_2 vanishes,
    so it attains the most negative value of |gamma_2| - |gamma_1| possible
    for a univalent function.
    """
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _quadratic_rational("f1", -math.sqrt(2.0) * w, w * w, {"theta": float(theta)}, order)


def f2(theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 + e^{i theta} z^2): odd, a_2 = 0, a_3 = -e^{i theta}."""
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    return _quadratic_rational("f2", 0.0, w, {"theta": float(theta)}, order)


def f3(lam: float, theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - lam e^{i theta} z^2) = z + lam e^{i theta} z^3 + lam^2 e^{2 i theta} z^5 + ...

    Requires 0 < lam <= 1.
    """
    _check_finite(("theta", theta))
    ClassSpec.of("U", lam)  # refuses lam outside U's range
    w = np.exp(1j * theta)
    return _quadratic_rational(
        "f3", 0.0, -lam * w, {"lam": float(lam), "theta": float(theta)}, order
    )


def f4(lam: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - sqrt(2 lam) z + lam z^2) = z + sqrt(2 lam) z^2 + lam z^3 + ...

    Requires 1/2 <= lam <= 1; below 1/2 a pole enters the disk.
    """
    _check_finite(("lambda", lam))
    if not 0.5 <= lam <= 1.0:
        raise ValueError(f"f4 requires 1/2 <= lambda <= 1, got {lam}")
    return _quadratic_rational(
        "f4", -math.sqrt(2.0 * lam), lam, {"lam": float(lam)}, order
    )


def f5(lam: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - z + lam z^2) = z + z^2 + (1 - lam) z^3 + ...

    Requires 0 < lam <= 1/2 so that both poles stay outside the open disk.
    """
    _check_finite(("lambda", lam))
    if not 0.0 < lam <= 0.5:
        raise ValueError(f"f5 requires 0 < lambda <= 1/2, got {lam}")
    return _quadratic_rational("f5", -1.0, lam, {"lam": float(lam)}, order)


def _stable_pow(a: TruncatedSeries, beta: float) -> TruncatedSeries:
    """a^beta computed as exp(beta log a).

    The direct power recurrence cancels badly when a's coefficients grow
    (relative error ~ n^3.5 at coefficient n); the log coefficients are
    O(1/n) and the exp recurrence is cancellation-free, so this route keeps
    high-order coefficients usable.
    """
    logs = log_unit(a)
    return exp_unit(TruncatedSeries(beta * logs.coeffs, order=a.order))


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


def _integral_entry(label, factors, alpha, params, order):
    """The entry f = z u^alpha, u = integral_0^1 h(z t^alpha) dt, h = prod P^e over `factors`.

    The series divides h's coefficient b_k by 1 + alpha k and raises the
    result to the alpha power.  Numpy overflow is silenced during the build:
    at small alpha and high order the coefficients overflow, and
    AnalyticFunction refuses the result, naming the first bad coefficient.
    The evaluator returns f/z = u^alpha, z f'/f = 1/v with v = u/h(z), and
    z f''/f' = z ((alpha - 1) u'/u + h'/h).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = functools.reduce(
            operator.mul, [pow_real(TruncatedSeries(P, order=order), e) for P, e in factors]
        )
        k = np.arange(order + 1)
        u = _stable_pow(TruncatedSeries(h.coeffs / (1.0 + alpha * k), order=order), alpha)
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = u.coeffs[:-1]
    series = TruncatedSeries(c, order=order)

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
        if np.ndim(z) == 0:
            return tuple(complex(x[0]) for x in values)
        return tuple(np.reshape(x, np.shape(z)) for x in values)

    return AnalyticFunction(label, series, params, ev)


def k_theta_alpha(theta: float, alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Generalized koebe function, the extremal of the alpha-convex class M(alpha).

    f = ((1/alpha) integral_0^z t^{1/alpha - 1} (1 - e^{i theta} t)^{-2/alpha} dt)^alpha,
    the integral entry with the one factor (1 - e^{i theta} z)^{-2/alpha} and
    outer power alpha.  Reduces to the koebe function at alpha = 0;
    a_2 = 2 e^{i theta} / (1 + alpha).

    The coefficients of h grow like n^(2/alpha - 1), so at very small
    positive alpha a high-order series leaves double-precision range and the
    build is refused with ValueError.  The refusal depends on the order
    built: a low-order build is not refused, and its a_2 and a_3 lose digits
    at such alpha instead.  The evaluator has its own floor: below
    alpha ~ 3.51e-4 its quadrature rule would need more than _MAX_NODES
    nodes, and it refuses with ValueError at every |z| up to 0.999.
    """
    _check_finite(("theta", theta))
    ClassSpec.of("M", alpha)  # refuses alpha outside M's range
    if alpha == 0:
        return koebe(theta, order=order)
    params = {"theta": float(theta), "alpha": float(alpha)}
    factors = [((1.0, -np.exp(1j * theta)), -2.0 / alpha)]
    return _integral_entry("k_theta_alpha", factors, alpha, params, order)


def m_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Odd extremal z + z^3/(1+2 alpha) + ... for the alpha-convex family.

    The integral entry with the one factor (1 - z^2)^{-1/alpha} and outer
    power alpha.  At alpha = 0 it is z / (1 - z^2) in closed form.  Below
    alpha ~ 1.88e-4 the evaluator refuses with ValueError, as its quadrature
    rule would need more than _MAX_NODES nodes, at every |z| up to 0.999.
    """
    ClassSpec.of("M", alpha)  # refuses alpha outside M's range
    if alpha == 0:
        return _quadratic_rational("m_alpha_upper", 0.0, -1.0, {"alpha": 0.0}, order)
    factors = [((1.0, 0.0, -1.0), -1.0 / alpha)]
    return _integral_entry("m_alpha_upper", factors, alpha, {"alpha": float(alpha)}, order)


def g_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Primitive of (1 - z^2)^(alpha/2): starts z - (alpha/6) z^3.

    Requires 0 < alpha <= 1.  The integral entry with the one factor
    (1 - z^2)^(alpha/2) and outer power 1, so f' = h and f''/f' = h'/h are
    closed forms and only f comes by quadrature.
    """
    ClassSpec.of("G", alpha)  # refuses alpha outside G's range
    factors = [((1.0, 0.0, -1.0), 0.5 * alpha)]
    return _integral_entry("g_alpha_upper", factors, 1.0, {"alpha": float(alpha)}, order)


def g_quadratic(order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z - z^2/2, the polynomial member with delta = -3/16."""

    def ev(z):
        return 1.0 - 0.5 * z, (1.0 - z) / (1.0 - 0.5 * z), -z / (1.0 - z)

    return AnalyticFunction("g_quadratic", TruncatedSeries([0.0, 1.0, -0.5], order=order), {}, ev)


def rotate(f: AnalyticFunction, theta: float) -> AnalyticFunction:
    """Disk rotation e^{-i theta} f(e^{i theta} z): a_n -> e^{i(n-1) theta} a_n.

    Preserves membership in every rotation-invariant class and each |gamma_n|:
    f/z, z f'/f and z f''/f' at z are those of f at e^{i theta} z.
    params["rotated_by"] adds up the angles of repeated rotations.
    """
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    c = f.series.coeffs.copy()
    n = np.arange(len(c))
    c[1:] = c[1:] * w ** (n[1:] - 1)
    base, wc = f.evaluator, complex(w)

    def ev(z):
        return base(wc * z)

    params = dict(f.params)
    params["rotated_by"] = params.get("rotated_by", 0.0) + float(theta)
    return AnalyticFunction(f.label, TruncatedSeries(c, order=f.series.order), params, ev)


def poles_outside_disk(coeffs) -> tuple[bool, float]:
    """Whether every root of a degree <= 2 polynomial lies strictly outside |z| = 1.

    Returns (all_outside, smallest_root_modulus).  Quadratic roots come from
    `_stable_roots`.  Non-finite coefficients are refused with ValueError.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if not np.isfinite(c).all():
        raise ValueError(f"polynomial coefficients must be finite, got {coeffs!r}")
    if c.size == 0 or not c.any():
        raise ValueError("zero polynomial has no pole locations")
    # Scaling by a power of two is exact and moves no root; with every real
    # and imaginary part below 1, no product in _stable_roots overflows.
    e = math.frexp(max(np.abs(c.real).max(), np.abs(c.imag).max()))[1]
    c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) > 3:
        raise ValueError("only polynomial degree <= 2 is supported")
    if len(c) == 1:
        return True, math.inf
    # Python complex arithmetic, unlike numpy's, gives inf without a warning
    # when a root lies beyond the float range (a subnormal leading coefficient).
    c = [complex(v) for v in c]
    if len(c) == 2:
        m = abs(c[0] / c[1])
    else:
        m = min(map(abs, _stable_roots(*c)))
    return bool(m > 1.0), float(m)


def make(
    label: str,
    theta: float = 0.0,
    lam: float | None = None,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
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
    return globals()[label](order=order, **kwargs)
