"""Logarithmic coefficients and the functional |gamma_2| - |gamma_1|.

For a normalized analytic f the logarithmic coefficients gamma_n are defined
by log(f(z)/z) = 2 * sum_{n>=1} gamma_n z^n; `log_coefficients` reads them
from a catalog entry's factor row.  `gamma_from_a` keeps the formulas
gamma_1 = a_2 / 2 and gamma_2 = (a_3 - mu a_2^2) / 2, mu = `MU` = 1/2, fed by
the entry's power series, as a separate route to cross-check it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .series import MIN_ORDER, TruncatedSeries, exp_unit, log_unit

# The one mu of gamma_2 = (a_3 - mu a_2^2) / 2.
MU = 0.5


@dataclass(frozen=True)
class LogPair:
    """gamma_1, gamma_2 and the induced difference of moduli."""

    gamma1: complex
    gamma2: complex

    @property
    def delta(self) -> float:
        return abs(self.gamma2) - abs(self.gamma1)


def log_coefficients(f, n: int) -> np.ndarray:
    """gamma_1..gamma_n of a catalog entry, read from its row for any n >= 1.

    A closed row (`catalog.Row.closed`) gives f/z exactly, and gamma is half
    its series log.  Otherwise L = log h = sum e log P, and gamma = beta
    (log u)/2 with u + a z u' = h.  For a < 1, v = u/h solves
    (1 + a k) v_k = [k = 0] - sum_{j>=1} a j L_j v_{k-j} and log u = L + log v
    keeps the large L of small a exact; for a >= 1, u_k = exp(L)_k/(1 + a k),
    where L and log v would cancel.  The recurrences are triangular, so gamma_k
    does not depend on n.  Refuses, with ValueError, a row whose terms
    underflow (alpha past ~ 4.7e153, or a power that underflowed to 0) and
    gammas that are not finite.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    factors, a, beta = f.row
    order = max(n, MIN_ORDER)
    k = np.arange(order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if f.row.closed:
            logu = log_unit(TruncatedSeries(f.series(n + 1).coeffs[1:], order=order)).coeffs
        else:
            ell = sum(e * log_unit(TruncatedSeries(P, order=order)).coeffs for P, e in factors)
            if a < 1.0:
                crev = np.ascontiguousarray((a * k * ell)[::-1])
                v = np.zeros(order + 1, dtype=complex)
                for m in range(order + 1):
                    v[m] = ((m == 0) - np.dot(v[:m], crev[order - m : order])) / (1.0 + a * m)
                logu = ell + log_unit(TruncatedSeries(v, order=order)).coeffs
            else:
                h = exp_unit(TruncatedSeries(ell, order=order)).coeffs
                u = h / (1.0 + a * k)
                # A power of 0 is one that underflowed: g_alpha_upper's alpha/2 below 1e-323.
                lost = any(e == 0 for _, e in factors)
                if lost or np.any((np.abs(u) < np.finfo(float).tiny) & (h != 0)):
                    raise ValueError(f"{f.label} {f.params}: the row's terms underflow")
                logu = log_unit(TruncatedSeries(u, order=order)).coeffs
        gammas = 0.5 * beta * logu[1 : n + 1]
    if not np.isfinite(gammas).all():
        raise ValueError(f"log coefficients of {f.label} {f.params} are not finite")
    return gammas


def gamma_from_a(a2: complex, a3: complex) -> LogPair:
    """LogPair straight from the coefficient formulas, no series involved.

    Raises ValueError unless a2, a3, gamma_1, gamma_2 and delta are finite.
    """
    a2, a3 = complex(a2), complex(a3)
    pair = LogPair(0.5 * a2, 0.5 * (a3 - MU * a2 * a2))
    if not all(map(cmath.isfinite, (a2, a3, pair.gamma1, pair.gamma2, pair.delta))):
        raise ValueError(f"a2 = {a2} and a3 = {a3} must be finite and give a finite delta")
    return pair


def log_pair(f) -> LogPair:
    """gamma_1 and gamma_2 of a catalog entry, from its row."""
    g = log_coefficients(f, 2)
    return LogPair(complex(g[0]), complex(g[1]))


def delta(f) -> float:
    """|gamma_2| - |gamma_1| for a catalog entry."""
    return log_pair(f).delta
