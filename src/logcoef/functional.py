"""Logarithmic coefficients and the functional |gamma_2| - |gamma_1|.

For a normalized analytic f the logarithmic coefficients gamma_n are defined
by log(f(z)/z) = 2 * sum_{n>=1} gamma_n z^n; `log_coefficients` reads them
from a catalog entry's factor row.  `_stacked_log_coefficients` reads them
for a whole stack of rows at once, a row whose values are arrays: a
family's row on a sweep's grid, with no entry built per parameter.
`log_coefficients` is that on the entry's one row, so a family sweep and a
single entry run the same code: the stacked series recurrences, on three
groups of the stack's rows (closed rows, rows with a < 1 and rows with
a >= 1).  Each row gets the
bits it gets alone, and a refusal names the first row of the stack that a
call on it alone would refuse.  `gamma_from_a` keeps the formulas gamma_1 =
a_2 / 2 and gamma_2 = (a_3 - mu a_2^2) / 2, mu = `MU` = 1/2, fed by the
entry's power series, as a separate route to cross-check it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .catalog import Row
from .series import MIN_ORDER, _div_coeffs, _exp_stack, _expi, _log_stack
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
    grid of parameters (`catalog.Family.row`).  Row k is what a call on that
    row alone gives, bit for bit, since every step acts on each row of the
    stack alone (see `series`).  The rows fall into three groups, each run
    on its own rows: closed rows, rows with a < 1 and rows with a >= 1 (see
    `log_coefficients`).  A stack of no rows gives a (0, n) array.  A
    refusal names the first row that a call on it alone would refuse, in
    that call's words, with name(k), the label and parameters of row k.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    order = max(n, MIN_ORDER)
    k = np.arange(order + 1)
    values = [row.a, row.beta, row.theta, *(x for P, e in row.factors for x in (*P, e))]
    size = np.broadcast(*values).size
    a, beta, theta = (np.full(size, x, dtype=float) for x in row[1:])
    closed = np.full(size, row.closed)
    slots = len(row.factors)
    # Factor s of row j: P[s, j], to a_{order+1} for the closed rows, and its power e[s, j].
    P = np.zeros((slots, size, order + 2), dtype=complex)
    e = np.zeros((slots, size, 1))
    for s, (poly, power) in enumerate(row.factors):
        for j, c in enumerate(poly):
            P[s, :, j] = c
        e[s, :, 0] = power
    (closed,), (rest,) = closed.nonzero(), (~closed).nonzero()
    small, large = rest[a[rest] < 1.0], rest[~(a[rest] < 1.0)]
    logu = np.empty((size, order + 1), dtype=complex)  # each group fills its rows
    why = {}  # row -> its first refusal in a call on it alone, {} its name
    with np.errstate(over="ignore", invalid="ignore"):
        if closed.size:
            # f = z P^e with one factor, e = +-1: z P, or z/P as a series, to a_{order+1}.
            taylor = np.zeros((closed.size, order + 2), dtype=complex)
            taylor[:, 1:] = P[0, closed, :-1]
            (quotients,) = (e[0, closed, 0] < 0).nonzero()
            if quotients.size:
                z = np.zeros((quotients.size, order + 2), dtype=complex)
                z[:, 1] = 1.0
                taylor[quotients] = _div_coeffs(z, P[0, closed[quotients]])
            # A single call builds and checks a_0..a_{n+1}.
            bad = ~np.isfinite(taylor[:, : n + 2])
            for j in np.flatnonzero(bad.any(axis=1)):
                m = bad[j].argmax()
                why[closed[j]] = f"series coefficient a_{m} = {taylor[j, m]} is not finite"
            logu[closed] = _log_stack(taylor[:, 1:])
        if rest.size:
            # L = log h = sum e log P, all factors in one stack, slot by slot,
            # in a sum that starts from 0, as a single call's does.
            logs = _log_stack(P[:, rest, :-1].reshape(-1, order + 1))
            L = np.empty((size, order + 1), dtype=complex)
            L[rest] = sum(e[:, rest] * logs.reshape(slots, rest.size, order + 1), 0)
        if small.size:
            # v = u/h: (1 + a m) v_m = [m = 0] - sum_{j>=1} a j L_j v_{m-j}, so v_0 = 1.
            ak = a[small, None] * k
            crev = np.ascontiguousarray((ak * L[small])[:, ::-1])[:, :, None]
            v = np.zeros((small.size, 1, order + 1), dtype=complex)
            v[:, 0, 0] = 1.0
            for m in range(1, order + 1):
                acc = np.matmul(v[:, :, :m], crev[:, order - m : order])[:, 0, 0]
                v[:, 0, m] = (0 - acc) / (1.0 + ak[:, m])
            logu[small] = L[small] + _log_stack(v[:, 0])
        if large.size:
            h = _exp_stack(L[large])
            u = h / (1.0 + a[large, None] * k)
            lost = ((np.abs(u) < np.finfo(float).tiny) & (h != 0)).any(axis=1)
            # A power of 0 is one that underflowed: g_alpha_upper's alpha/2 below 1e-323.
            lost |= (e[:, large, 0] == 0).any(axis=0)
            for i in large[lost]:
                why[i] = "{}: the row's terms underflow"
            logu[large] = _log_stack(u)
        gammas = (0.5 * beta)[:, None] * logu[:, 1 : n + 1]
        (turned,) = theta.nonzero()
        if turned.size:
            gammas[turned] *= _expi(theta[turned, None], k[1 : n + 1])
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
    """gamma_1..gamma_n of a catalog entry, read from its row for any n >= 1.

    A closed row (`catalog.Row.closed`) gives f/z exactly, and gamma is half
    its series log.  Otherwise L = log h = sum e log P, and gamma = beta
    (log u)/2 with u + a z u' = h.  For a < 1, v = u/h solves
    (1 + a k) v_k = [k = 0] - sum_{j>=1} a j L_j v_{k-j} and log u = L + log v
    keeps the large L of small a exact; for a >= 1, u_k = exp(L)_k/(1 + a k),
    where L and log v would cancel.  The recurrences are triangular, so gamma_k
    does not depend on n.  A row rotated by theta multiplies gamma_k by
    e^{i k theta} (`series._expi`).  Refuses, with ValueError, a row whose
    terms underflow (alpha past ~ 4.7e153, or a power that underflowed to 0)
    and gammas that are not finite.  This is `_stacked_log_coefficients` on the
    entry's row alone: the three cases are that function's three groups, and
    a stack is refused for the first of its rows that this call refuses.
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
