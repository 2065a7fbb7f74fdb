"""Catalog of normalized analytic functions used as extremal witnesses.

Every entry is an :class:`AnalyticFunction`: a normalized Taylor series
(f(0) = 0, f'(0) = 1) plus, where a closed form exists, an evaluator that
returns (f, f', f'') at a point or at an ndarray of points.  Entries whose
only definition is an integral representation carry series only; evaluating
those at a radius the truncation cannot support is the membership module's
problem to refuse, not this module's to paper over.
"""

from __future__ import annotations

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


def sweep_grid(lo: float, hi: float, ends: str, step: float) -> list:
    """lo + k step for k = 0, 1, ... across the interval, the last value clipped to hi.

    `ends` is in interval notation: "(" drops lo, ")" stops short of hi.
    """
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
        """(f, f', f'') at z, by closed form when available, else by series."""
        if self.evaluator is not None:
            return self.evaluator(z)
        s = self.series.series
        d1 = s.deriv()
        return s(z), d1(z), d1.deriv()(z)


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
    w = np.exp(1j * theta)
    return _quadratic_rational("koebe", -2.0 * w, w * w, {"theta": float(theta)}, order)


def f1(theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - sqrt(2) e^{i theta} z + e^{2 i theta} z^2).

    Starts z + sqrt(2) e^{i theta} z^2 + e^{2 i theta} z^3; gamma_2 vanishes,
    so it attains the most negative value of |gamma_2| - |gamma_1| possible
    for a univalent function.
    """
    w = np.exp(1j * theta)
    return _quadratic_rational("f1", -math.sqrt(2.0) * w, w * w, {"theta": float(theta)}, order)


def f2(theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 + e^{i theta} z^2): odd, a_2 = 0, a_3 = -e^{i theta}."""
    w = np.exp(1j * theta)
    return _quadratic_rational("f2", 0.0, w, {"theta": float(theta)}, order)


def f3(lam: float, theta: float = 0.0, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - lam e^{i theta} z^2) = z + lam e^{i theta} z^3 + lam^2 e^{2 i theta} z^5 + ...

    Requires 0 < lam <= 1.
    """
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
    if not 0.5 <= lam <= 1.0:
        raise ValueError(f"f4 requires 1/2 <= lambda <= 1, got {lam}")
    return _quadratic_rational(
        "f4", -math.sqrt(2.0 * lam), lam, {"lam": float(lam)}, order
    )


def f5(lam: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """z / (1 - z + lam z^2) = z + z^2 + (1 - lam) z^3 + ...

    Requires 0 < lam <= 1/2 so that both poles stay outside the open disk.
    """
    if not 0.0 < lam <= 0.5:
        raise ValueError(f"f5 requires 0 < lambda <= 1/2, got {lam}")
    return _quadratic_rational("f5", -1.0, lam, {"lam": float(lam)}, order)


def _stable_pow(a: TruncatedSeries, beta: float) -> TruncatedSeries:
    """a^beta computed as exp(beta log a).

    The direct power recurrence cancels badly when a's coefficients grow
    (relative error ~ n^3.5 at coefficient n), which matters at the orders
    the membership tests use; the log coefficients are O(1/n) and the exp
    recurrence is cancellation-free, so this route keeps high-order
    coefficients usable.
    """
    logs = log_unit(a)
    return exp_unit(TruncatedSeries(beta * logs.coeffs, order=a.order))


def _alpha_convex(label, base, power, alpha, params, order):
    """z * (sum b_k z^k / (1 + alpha k))^alpha, where sum b_k z^k = base^power.

    The series pipeline shared by the alpha-convex extremals, alpha > 0.
    """
    expanded = pow_real(TruncatedSeries(base, order=order), power)
    k = np.arange(order + 1)
    inner = TruncatedSeries(expanded.coeffs / (1.0 + alpha * k), order=order)
    u = _stable_pow(inner, alpha)
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = u.coeffs[:-1]
    return AnalyticFunction(label, NormalizedSeries(TruncatedSeries(c, order=order)), params)


def k_theta_alpha(theta: float, alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Generalized koebe function for the alpha-convex family.

    Defined through ((1/alpha) * integral_0^z t^{1/alpha - 1}
    (1 - e^{i theta} t)^{-2/alpha} dt)^alpha, computed entirely in series:
    expand (1 - e^{i theta} t)^{-2/alpha} = sum b_k t^k, divide b_k by
    (1 + alpha k), and raise the result to the alpha power, so the outcome is
    z * (sum b_k z^k / (1 + alpha k))^alpha.  No quadrature is involved.
    Reduces to the koebe function at alpha = 0; a_2 = 2 e^{i theta} / (1 + alpha).

    Series only for alpha > 0.  Note the inner expansion coefficients grow
    like n^(2/alpha - 1), so very small positive alpha needs moderate orders
    to stay inside double-precision range.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return koebe(theta, order=order)
    params = {"theta": float(theta), "alpha": float(alpha)}
    base = [1.0, -np.exp(1j * theta)]
    return _alpha_convex("k_theta_alpha", base, -2.0 / alpha, alpha, params, order)


def m_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Odd extremal z + z^3/(1+2 alpha) + ... for the alpha-convex family.

    Built from the same series pipeline as k_theta_alpha but with inner
    factor (1 - t^2)^{-1/alpha}.  At alpha = 0 it is z / (1 - z^2) in closed
    form; for alpha > 0 it is series only.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return _quadratic_rational("m_alpha_upper", 0.0, -1.0, {"alpha": 0.0}, order)
    return _alpha_convex(
        "m_alpha_upper", [1.0, 0.0, -1.0], -1.0 / alpha, alpha, {"alpha": float(alpha)}, order
    )


def g_alpha_upper(alpha: float, order: int = DEFAULT_ORDER) -> AnalyticFunction:
    """Primitive of (1 - z^2)^(alpha/2): starts z - (alpha/6) z^3.

    Requires 0 < alpha <= 1.  f' and f'' have closed forms; f itself is
    evaluated from the series (its coefficients decay absolutely, so that is
    harmless on the closed disk).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"g_alpha_upper requires 0 < alpha <= 1, got {alpha}")
    fp = pow_real(TruncatedSeries([1.0, 0.0, -1.0], order=order), 0.5 * alpha)
    f = fp.integ()
    fc = f.coeffs

    def ev(z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in fc[::-1]:
            acc = acc * z + c
        # 1 - z^2 has positive real part on the disk, so the principal
        # power agrees with the series branch.
        w = 1.0 - z * z
        fpv = np.power(w, 0.5 * alpha)
        fppv = -alpha * z * np.power(w, 0.5 * alpha - 1.0)
        if np.ndim(z) == 0:
            return complex(acc), complex(fpv), complex(fppv)
        return acc, fpv, fppv

    return AnalyticFunction(
        "g_alpha_upper", NormalizedSeries(f), {"alpha": float(alpha)}, ev
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
        flag = "lambda" if name == "lam" else name
        if value is None:
            raise ValueError(f"{label} requires {flag}")
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    return globals()[label](order=order, **kwargs)
