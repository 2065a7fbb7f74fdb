"""Catalog of normalized analytic functions used as extremal witnesses.

Every entry is an :class:`AnalyticFunction`: a normalized Taylor series
(f(0) = 0, f'(0) = 1) plus an evaluator that returns (f, f', f'') at a point
or at an ndarray of points of the open unit disk.  Rational entries evaluate
in closed form.  The entries defined by integrals (the alpha-convex
extremals k_theta_alpha and m_alpha_upper, and Ozaki's g_alpha_upper)
evaluate those integrals by composite Gauss-Legendre quadrature on panels
graded toward both ends, with the grading derived from alpha and the largest
|z| asked for.  The series serves the coefficient functionals; membership
runs never go through it for a catalog entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .series import DEFAULT_ORDER, NormalizedSeries, TruncatedSeries, exp_unit, log_unit, pow_real


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
    """lo + k step for k = 0, 1, ... across the interval, the last value clipped to hi.

    `ends` is in interval notation: "(" drops lo, ")" stops short of hi.
    """
    if not (0.0 < step < math.inf and (hi - lo) / step <= MAX_SWEEP_STEPS):
        raise ValueError(
            f"step must be finite and at least 1/{MAX_SWEEP_STEPS} of the range, got {step!r}"
        )
    if ends[1] == ")":
        n = math.ceil((hi - lo) / step - 1e-9)
    else:
        n = math.floor((hi - lo) / step + 1e-9) + 1
    return [min(lo + k * step, hi) for k in range(1 if ends[0] == "(" else 0, n)]


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """A catalog entry: normalized series, parameters, optional evaluator."""

    label: str
    series: NormalizedSeries
    params: dict = field(default_factory=dict)
    evaluator: Optional[Callable] = field(default=None, repr=False)

    def a(self, n: int) -> complex:
        """Taylor coefficient a_n."""
        return self.series.coefficient(n)

    def eval(self, z):
        """(f, f', f'') at z, by the evaluator when there is one, else by series."""
        if self.evaluator is not None:
            return self.evaluator(z)
        s = self.series.series
        d1 = s.deriv()
        return s(z), d1(z), d1.deriv()(z)


def _check_finite(*named):
    """Raise ValueError unless every (name, value) pair has a finite value."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _quadratic_rational(label, b, c, params, order):
    """z / (1 + b z + c z^2) with its closed-form derivatives."""
    den = TruncatedSeries([1.0, b, c], order=order)
    num = TruncatedSeries([0.0, 1.0], order=order)
    series = NormalizedSeries(num / den)

    def ev(z):
        q = 1.0 + b * z + c * z * z
        qp = b + 2.0 * c * z
        f = z / q
        fp = (q - z * qp) / (q * q)
        fpp = (-2.0 * c * z * q - 2.0 * qp * (q - z * qp)) / (q * q * q)
        return f, fp, fpp

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
    _check_finite(("theta", theta), ("lambda", lam))
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"f3 requires 0 < lambda <= 1, got {lam}")
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
    """Composite 16-point Gauss-Legendre nodes and log weights on [0, 1].

    For integrands with a singularity of order `power` about `gap` beyond
    t = 1 that behave like t**gamma at t = 0.  Toward t = 1 the panels shrink
    geometrically down to gap/4, by a ratio that tightens as power grows;
    toward t = 0 they shrink by 4 until the rule's error on t**gamma over the
    innermost panel is below _ENDPOINT_TOL, which needs no panel at all for
    integer gamma.
    """
    x, w = _gauss_legendre()
    ratio = 1.0 + min(3.0, 8.0 / power)
    n_right = math.ceil(math.log(2.0 / gap, ratio))
    err = abs(0.5 * (w * (0.5 * (x + 1.0)) ** gamma).sum() * (gamma + 1.0) - 1.0)
    n_left = 0
    if err > _ENDPOINT_TOL:
        inner = (_ENDPOINT_TOL / err) ** (1.0 / (gamma + 1.0))
        n_left = math.ceil(math.log(0.5 / inner, 4.0))
    nodes = len(x) * (n_left + n_right + 2)
    if nodes > _MAX_NODES:
        raise ValueError(
            f"quadrature would need {nodes} nodes, more than {_MAX_NODES}; "
            f"the integrand (power {power:g}) is too sharp"
        )
    left = 0.5 * 4.0 ** -np.arange(float(n_left), 0.0, -1.0)
    right = 1.0 - 0.5 * ratio ** -np.arange(1.0, n_right + 1)
    b = np.concatenate(([0.0], left, [0.5], right, [1.0]))
    half = 0.5 * np.diff(b)[:, None]
    return (b[:-1, None] + half * (1.0 + x)).ravel(), np.log(half * w).ravel()


def _disk_gap(z: np.ndarray) -> float:
    """1 - max |z|; raises unless every point lies in the open unit disk."""
    r = float(np.abs(z).max(initial=0.0))
    if not r < 1.0:
        raise ValueError(f"quadrature evaluation needs |z| < 1, got max |z| = {r}")
    return 1.0 - r


def _log_sums(log_terms, x, lw, points: int):
    """Sums over the nodes of exp(e) m for each m in ms, (e, ms) = log_terms(x, lw).

    Returns (top, sums): top holds the largest Re e at each point, and the
    sums are scaled by exp(-top), so no term overflows and the largest is 1.
    The nodes go _BLOCK node-point pairs at a time; the running sums are
    rescaled whenever top grows.
    """
    step = max(1, _BLOCK // max(points, 1))
    top, sums = np.full(points, -np.inf), 0.0
    for i in range(0, len(x), step):
        e, ms = log_terms(x[i : i + step], lw[i : i + step])
        new = np.maximum(top, e.real.max(1))
        h = np.exp(e - new[:, None])
        sums = sums * np.exp(top - new) + np.array([(h * m).sum(1) for m in ms])
        top = new
    return top, sums


def _as_points(z, *values):
    """Flat value arrays in the shape of z; complex scalars for a scalar z."""
    if np.ndim(z) == 0:
        return tuple(complex(v[0]) for v in values)
    return tuple(np.reshape(v, np.shape(z)) for v in values)


def _alpha_convex_evaluator(w: complex, q: int, alpha: float):
    """(f, f', f'') of f = z u^alpha, u = integral_0^1 (1 - w z^q t^(q alpha))^(-p) dt.

    Here p = 2/(q alpha).  The singular factor comes out first: with
    omega = w z^q and sigma = t^(q alpha), u = (1 - omega)^(-p) v and
    f = z (1 - omega)^(-2/q) v^alpha, where v integrates
    ((1 - omega)/(1 - omega sigma))^p, summed in logs so that it cannot
    overflow.  v stays in the right half-plane (|Arg v| < pi/2 for alpha from
    0.01 to 30 and |z| up to 0.9999), so the principal log is the continued
    branch.  With <.> the average under the integrand and
    B = sigma/(1 - omega sigma), d log u/d omega = p <B> and
    d^2 log u/d omega^2 = p (p+1) <B^2> - p^2 <B>^2, which give z f'/f and
    f''.  For alpha <= 1 the integral runs over s = t^alpha, where the weight
    s^(1/alpha - 1)/alpha is bounded; for alpha > 1 over t.
    """
    p = 2.0 / (q * alpha)

    def ev(z):
        flat = np.ravel(np.asarray(z, dtype=complex))
        gap = _disk_gap(flat)
        if alpha <= 1.0:
            # The weight s^gamma falls off within about alpha of s = 1.
            gamma = 1.0 / alpha - 1.0
            s, lw = _graded_rule(min(gap, alpha), p, gamma)
            lw = lw + gamma * np.log(s) - math.log(alpha)
        else:
            # In t the singularity sits about gap/alpha beyond t = 1.
            t, lw = _graded_rule(gap / alpha, p, q * alpha)
            s = t**alpha
        om = w * flat**q
        lg = np.log1p(-om)

        def log_terms(x, lwx):
            d = 1.0 - om[:, None] * x
            b = x / d
            return lwx + p * (lg[:, None] - np.log(d)), (1.0, b, b * b)

        top, (v0, v1, v2) = _log_sums(log_terms, s**q, lw, flat.size)
        m1 = p * v1 / v0
        m2 = p * (p + 1.0) * v2 / v0 - m1 * m1
        j = 1.0 + alpha * q * om * m1  # z f'/f
        fz = np.exp(alpha * (top + np.log(v0)) - (2.0 / q) * lg)  # f/z
        fp = fz * j
        fpp = fp * alpha * q * w * flat ** (q - 1) * (m1 + q * (m1 + om * m2) / j)
        return _as_points(z, flat * fz, fp, fpp)

    return ev


def _alpha_convex(label, w, q, alpha, params, order):
    """z * (sum b_k z^k / (1 + alpha k))^alpha, sum b_k z^k = (1 - w z^q)^(-2/(q alpha)).

    The series and the quadrature evaluator shared by the alpha-convex
    extremals, alpha > 0.
    """
    base = np.zeros(q + 1, dtype=complex)
    base[0], base[q] = 1.0, -w
    expanded = pow_real(TruncatedSeries(base, order=order), -2.0 / (q * alpha))
    k = np.arange(order + 1)
    inner = TruncatedSeries(expanded.coeffs / (1.0 + alpha * k), order=order)
    u = _stable_pow(inner, alpha)
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = u.coeffs[:-1]
    series = NormalizedSeries(TruncatedSeries(c, order=order))
    return AnalyticFunction(label, series, params, _alpha_convex_evaluator(w, q, alpha))


def k_theta_alpha(theta: float, alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Generalized koebe function, the extremal of the alpha-convex class M(alpha).

    f = ((1/alpha) integral_0^z t^{1/alpha - 1} (1 - e^{i theta} t)^{-2/alpha} dt)^alpha,
    which is z (integral_0^1 (1 - e^{i theta} z t^alpha)^{-2/alpha} dt)^alpha.
    The series expands (1 - e^{i theta} t)^{-2/alpha} = sum b_k t^k, divides
    b_k by (1 + alpha k) and raises the result to the alpha power; the
    evaluator computes the integral by graded Gauss-Legendre quadrature.
    Reduces to the koebe function at alpha = 0; a_2 = 2 e^{i theta} / (1 + alpha).

    The inner expansion coefficients grow like n^(2/alpha - 1), so at very
    small positive alpha the series needs moderate orders to stay inside
    double-precision range; the evaluator does not.
    """
    _check_finite(("theta", theta), ("alpha", alpha))
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return koebe(theta, order=order)
    params = {"theta": float(theta), "alpha": float(alpha)}
    return _alpha_convex("k_theta_alpha", np.exp(1j * theta), 1, alpha, params, order)


def m_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Odd extremal z + z^3/(1+2 alpha) + ... for the alpha-convex family.

    f = z (integral_0^1 (1 - z^2 t^{2 alpha})^{-1/alpha} dt)^alpha, built by
    the same series and quadrature as k_theta_alpha with inner factor
    (1 - t^2)^{-1/alpha}.  At alpha = 0 it is z / (1 - z^2) in closed form.
    """
    _check_finite(("alpha", alpha))
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return _quadratic_rational("m_alpha_upper", 0.0, -1.0, {"alpha": 0.0}, order)
    return _alpha_convex("m_alpha_upper", 1.0, 2, alpha, {"alpha": float(alpha)}, order)


def g_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Primitive of (1 - z^2)^(alpha/2): starts z - (alpha/6) z^3.

    Requires 0 < alpha <= 1.  f' and f'' have closed forms; the evaluator
    takes f = z integral_0^1 (1 - z^2 t^2)^(alpha/2) dt by the same graded
    quadrature as the alpha-convex entries.  1 - z^2 t^2 has positive real
    part on the disk, so the principal powers agree with the series branch.
    """
    _check_finite(("alpha", alpha))
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"g_alpha_upper requires 0 < alpha <= 1, got {alpha}")
    half = 0.5 * alpha
    fp = pow_real(TruncatedSeries([1.0, 0.0, -1.0], order=order), half)

    def ev(z):
        flat = np.ravel(np.asarray(z, dtype=complex))
        t, lw = _graded_rule(_disk_gap(flat), half, 2.0)
        z2 = flat[:, None] ** 2
        top, (v,) = _log_sums(
            lambda x, lwx: (lwx + half * np.log1p(-z2 * x * x), (1.0,)), t, lw, flat.size
        )
        w = 1.0 - flat * flat
        return _as_points(z, flat * np.exp(top) * v, w**half, -alpha * flat * w ** (half - 1.0))

    return AnalyticFunction(
        "g_alpha_upper", NormalizedSeries(fp.integ()), {"alpha": float(alpha)}, ev
    )


def g_quadratic(order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z - z^2/2, the polynomial member with delta = -3/16."""

    def ev(z):
        return z - 0.5 * z * z, 1.0 - z, z * 0.0 - 1.0

    return AnalyticFunction(
        "g_quadratic",
        NormalizedSeries(TruncatedSeries([0.0, 1.0, -0.5], order=order)),
        {},
        ev,
    )


def rotate(f: AnalyticFunction, theta: float) -> AnalyticFunction:
    """Disk rotation e^{-i theta} f(e^{i theta} z): a_n -> e^{i(n-1) theta} a_n.

    Preserves membership in every rotation-invariant class and each |gamma_n|.
    """
    _check_finite(("theta", theta))
    w = np.exp(1j * theta)
    c = f.series.coeffs.copy()
    n = np.arange(len(c))
    c[1:] = c[1:] * w ** (n[1:] - 1)
    base_ev = f.evaluator
    ev = None
    if base_ev is not None:
        wc = complex(w)

        def ev(z, _ev=base_ev, _w=wc):
            fv, fpv, fppv = _ev(_w * z)
            return fv / _w, fpv, _w * fppv

    params = dict(f.params)
    params["rotated_by"] = float(theta)
    return AnalyticFunction(
        f.label, NormalizedSeries(TruncatedSeries(c, order=f.series.order)), params, ev
    )


def poles_outside_disk(coeffs) -> tuple[bool, float]:
    """Whether every root of a degree <= 2 polynomial lies strictly outside |z| = 1.

    Returns (all_outside, smallest_root_modulus).  Roots are taken with the
    closed quadratic formula, using the numerically stable pairing
    (q / c2, c0 / q) with q = -(c1 + s)/2 and s the square root aligned
    with c1.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size == 0 or not c.any():
        raise ValueError("zero polynomial has no pole locations")
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) > 3:
        raise ValueError("only polynomial degree <= 2 is supported")
    if len(c) == 1:
        return True, math.inf
    if len(c) == 2:
        m = abs(c[0] / c[1])
        return m > 1.0, float(m)
    c0, c1, c2 = (complex(v) for v in c)
    disc = c1 * c1 - 4.0 * c0 * c2
    s = complex(np.sqrt(np.complex128(disc)))
    if (np.conj(c1) * s).real < 0.0:
        s = -s
    q = -0.5 * (c1 + s)
    if q == 0:
        roots = ((-c1 + s) / (2.0 * c2), (-c1 - s) / (2.0 * c2))
    else:
        roots = (q / c2, c0 / q)
    m = min(abs(roots[0]), abs(roots[1]))
    return m > 1.0, float(m)


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
