"""Logarithmic coefficients and the functional |gamma_2| - |gamma_1|.

For a normalized analytic f the logarithmic coefficients gamma_n are defined
by log(f(z)/z) = 2 * sum_{n>=1} gamma_n z^n; `log_coefficients` reads them
from a catalog entry's factor row.  `_stacked_log_coefficients` reads them
for a whole stack of rows at once, a row whose values are arrays: a
family's row on a sweep's grid, with no entry built per parameter.
`log_coefficients` is that on the entry's one row, so a family sweep and a
single entry run the same code: z (log(f/z))' = sum 2 n gamma_n z^n is
beta y_u, y_u = z u'/u from `catalog._stacked_dlog_u`, which the Taylor
series reads too, so gamma_n = beta y_n / (2n).  Each row gets the bits it
gets alone, and a refusal names the first row of the stack that a call on
it alone would refuse.  `gamma_from_a` keeps the formulas gamma_1
= a_2 / 2 and gamma_2 = (a_3 - mu a_2^2) / 2, mu = `MU` = 1/2, fed by the
entry's power series, to cross-check gamma through exp and back.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .catalog import _stacked_dlog_u
from .series import MIN_ORDER, _expi, _is_integer
from .series import log_unit  # noqa: F401  bench/tracer.py wraps the name here too

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


def _stacked_log_coefficients(row, n: int, name) -> np.ndarray:
    """gamma_1..gamma_n of each row of a stack of catalog rows, as a (K, n) array.

    `row` is a `catalog.Row` whose values are floats or (K,) arrays, the
    floats shared by every row of the stack, such as a family's row on a
    grid of parameters (`catalog.Family.row`).  gamma_n = beta y_n / (2n),
    y_u from `catalog._stacked_dlog_u`, which runs rows with 0 < a < 1 and
    rows with a >= 1 as two groups; row k is what a call on that row alone
    gives, bit for bit.  A stack of no rows gives a (0, n) array.  A refusal
    names the first row that a call on it alone would refuse, in that call's
    words, with name(k), the label and parameters of row k.
    """
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"need an integer n >= 1, got {n!r}")
    yu, why = _stacked_dlog_u(row, max(n, MIN_ORDER))
    beta, theta = (np.full(len(yu), x, dtype=float) for x in (row.beta, row.theta))
    with np.errstate(over="ignore", invalid="ignore"):
        gammas = (beta[:, None] / np.arange(2.0, 2 * n + 1, 2)) * yu[:, :n]
        (turned,) = theta.nonzero()
        if turned.size:
            gammas[turned] *= _expi(theta[turned, None], np.arange(1, n + 1))
    for i in (~np.isfinite(gammas).all(axis=1)).nonzero()[0]:
        why.setdefault(i, "log coefficients of {} are not finite")
    if why:
        first = min(why)
        raise ValueError(why[first].format(name(first)))
    return gammas


def _named(f) -> str:
    """An entry as a refusal names it: its label and parameters."""
    return f"{f.label} {f.params}"


def log_coefficients(f, n: int) -> np.ndarray:
    """gamma_1..gamma_n of a catalog entry, read from its row for any integer n >= 1.

    gamma_n = beta y_n / (2n), y_u from `catalog._stacked_dlog_u`; at a = 0
    it is y = sum e z P'/P itself, so koebe's gamma_n is 1/n to the last bit.
    gamma_k does not depend on n, and a row rotated by theta multiplies it by
    e^{i k theta} (`series._expi`).  Refuses, with ValueError, an n that is
    not an integer of at least 1, a row whose terms underflow (alpha past
    ~ 4.7e153, or a power that underflowed to 0) and gammas that are not
    finite.  This is `_stacked_log_coefficients` on the entry's row alone.
    """
    return _stacked_log_coefficients(f.row, n, lambda i: _named(f))[0]


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
