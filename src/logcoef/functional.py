"""Logarithmic coefficients and the functional |gamma_2| - |gamma_1|.

For a normalized analytic f the logarithmic coefficients gamma_n are defined
by log(f(z)/z) = 2 * sum_{n>=1} gamma_n z^n.  The first two reduce to
gamma_1 = a_2 / 2 and gamma_2 = (a_3 - mu a_2^2) / 2 with mu = `MU` = 1/2;
this module computes them from the series logarithm and keeps the closed
coefficient formulas as a separate route so each can cross-check the other.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .series import MIN_ORDER, TruncatedSeries, log_unit

# The one mu of gamma_2 = (a_3 - mu a_2^2) / 2.
MU = 0.5

# The series order delta needs: `log_pair` reads gamma_1 and gamma_2, which
# `log_coefficients(f, 2)` takes from a_1..a_3.  Every recurrence that builds a
# series is triangular, so a_2 and a_3 of a series cut here are those of any
# longer build, bit for bit.
PAIR_ORDER = 3


@dataclass(frozen=True)
class LogPair:
    """gamma_1, gamma_2 and the induced difference of moduli."""

    gamma1: complex
    gamma2: complex

    @property
    def delta(self) -> float:
        return abs(self.gamma2) - abs(self.gamma1)


def log_coefficients(f, n: int) -> np.ndarray:
    """First n logarithmic coefficients gamma_1..gamma_n of a catalog entry.

    Computed from the series logarithm of f(z)/z, cut after a_{n+1}: the
    recurrence is triangular, so gamma_1..gamma_n do not depend on the cut.
    Requires n <= series order - 1 because dividing by z drops one order.
    """
    s = f.series
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > s.order - 1:
        raise ValueError(
            f"cannot produce gamma_{n} from a series of order {s.order}; "
            f"need order >= {n + 1}"
        )
    unit = TruncatedSeries(s.coeffs[1 : n + 2], order=max(n, MIN_ORDER))
    return 0.5 * log_unit(unit).coeffs[1 : n + 1]


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
    """gamma_1 and gamma_2 of a catalog entry via the series logarithm."""
    g = log_coefficients(f, 2)
    return LogPair(complex(g[0]), complex(g[1]))


def delta(f) -> float:
    """|gamma_2| - |gamma_1| for a catalog entry."""
    return log_pair(f).delta
