"""Logarithmic coefficients and the functional |gamma_2| - |gamma_1|.

For a normalized analytic f the logarithmic coefficients gamma_n are defined
by log(f(z)/z) = 2 * sum_{n>=1} gamma_n z^n; `log_coefficients` reads them
from a catalog entry's factor row.  `_stacked_log_coefficients` reads them
for a whole stack of entries at once, and `log_coefficients` is that on a
stack of one, so a family sweep and a single entry run the same code: the
stacked series recurrences, on three groups of the stack's rows (closed
rows, rows with a < 1 and rows with a >= 1).  Each row gets the bits it gets
alone, and a refusal names the first entry of the stack that a call on it
alone would refuse.  `gamma_from_a` keeps the formulas gamma_1 = a_2 / 2 and
gamma_2 = (a_3 - mu a_2^2) / 2, mu = `MU` = 1/2, fed by the entry's power
series, as a separate route to cross-check it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .series import MIN_ORDER, _div_coeffs, _exp_stack, _log_stack
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


def _stacked_log_coefficients(fs, n: int) -> np.ndarray:
    """gamma_1..gamma_n of each catalog entry in the sequence `fs`, as a (K, n) array.

    Row k is what a call on fs[k] alone gives, bit for bit, since every step
    acts on each entry's row of the stack alone (see `series`).  The entries
    fall into three groups, each run on its own rows: closed rows, rows with
    a < 1 and rows with a >= 1 (see `log_coefficients`).  An empty `fs`
    gives a (0, n) array.  A refusal names the first entry, in the order of
    `fs`, that a call on it alone would refuse, in that call's words.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    fs = list(fs)
    order = max(n, MIN_ORDER)
    k = np.arange(order + 1)
    closed, small, large = [], [], []  # closed rows, and the others with a < 1 and a >= 1
    a, beta, slots = np.zeros(len(fs)), np.zeros(len(fs)), 0
    for i, f in enumerate(fs):
        (closed if f.row.closed else small if f.row.a < 1.0 else large).append(i)
        a[i], beta[i], slots = f.row.a, f.row.beta, max(slots, len(f.row.factors))
    logu = np.empty((len(fs), order + 1), dtype=complex)  # each group fills its rows
    why = {}  # entry -> the first refusal a call on it alone meets
    with np.errstate(over="ignore", invalid="ignore"):
        if closed:
            # f = z P^e with one factor, e = +-1: z P, or z/P as a series, to a_{order+1}.
            P = np.zeros((len(closed), order + 2), dtype=complex)
            quotients = []
            for j, i in enumerate(closed):
                ((poly, power),) = fs[i].row.factors
                P[j, : len(poly)] = poly
                if power < 0:
                    quotients.append(j)
            taylor = np.zeros_like(P)
            taylor[:, 1:] = P[:, :-1]
            if quotients:
                z = np.zeros((len(quotients), order + 2), dtype=complex)
                z[:, 1] = 1.0
                taylor[quotients] = _div_coeffs(z, P[quotients])
            # A single call builds and checks a_0..a_{n+1}.
            bad = ~np.isfinite(taylor[:, : n + 2])
            for j in np.flatnonzero(bad.any(axis=1)):
                m = bad[j].argmax()
                why[closed[j]] = f"series coefficient a_{m} = {taylor[j, m]} is not finite"
            logu[closed] = _log_stack(taylor[:, 1:])
        if small or large:
            # L = log h = sum e log P, all factors in one stack, slot by slot.  A
            # spare slot has P = 1 and e = 0: it adds an exact 0 to a sum that
            # starts from 0, as a single call's does, and changes no bit.
            P = np.zeros((slots, len(fs), order + 1), dtype=complex)
            P[:, :, 0] = 1.0
            e = np.zeros((slots, len(fs), 1))
            for j in small + large:
                for s, (poly, power) in enumerate(fs[j].row.factors):
                    P[s, j, : len(poly)], e[s, j] = poly, power
            L = 0
            for term in e * _log_stack(P.reshape(-1, order + 1)).reshape(P.shape):
                L = L + term
        if small:
            # v = u/h: (1 + a m) v_m = [m = 0] - sum_{j>=1} a j L_j v_{m-j}, so v_0 = 1.
            ak = a[small, None] * k
            crev = np.ascontiguousarray((ak * L[small])[:, ::-1])[:, :, None]
            v = np.zeros((len(small), 1, order + 1), dtype=complex)
            v[:, 0, 0] = 1.0
            for m in range(1, order + 1):
                acc = np.matmul(v[:, :, :m], crev[:, order - m : order])[:, 0, 0]
                v[:, 0, m] = (0 - acc) / (1.0 + ak[:, m])
            logu[small] = L[small] + _log_stack(v[:, 0])
        if large:
            h = _exp_stack(L[large])
            u = h / (1.0 + a[large, None] * k)
            lost = ((np.abs(u) < np.finfo(float).tiny) & (h != 0)).any(axis=1)
            for j, i in enumerate(large):
                # A power of 0 is one that underflowed: g_alpha_upper's alpha/2 below 1e-323.
                if lost[j] or 0 in e[: len(fs[i].row.factors), i]:
                    why[i] = f"{fs[i].label} {fs[i].params}: the row's terms underflow"
            logu[large] = _log_stack(u)
        gammas = (0.5 * beta)[:, None] * logu[:, 1 : n + 1]
        for i in np.flatnonzero([f.row.theta for f in fs]):
            gammas[i] *= np.exp(1j * fs[i].row.theta * k[1 : n + 1])  # k theta exact at k <= 2
    for i in np.flatnonzero(~np.isfinite(gammas).all(axis=1)):
        why.setdefault(i, f"log coefficients of {fs[i].label} {fs[i].params} are not finite")
    if why:
        raise ValueError(why[min(why)])
    return gammas


def log_coefficients(f, n: int) -> np.ndarray:
    """gamma_1..gamma_n of a catalog entry, read from its row for any n >= 1.

    A closed row (`catalog.Row.closed`) gives f/z exactly, and gamma is half
    its series log.  Otherwise L = log h = sum e log P, and gamma = beta
    (log u)/2 with u + a z u' = h.  For a < 1, v = u/h solves
    (1 + a k) v_k = [k = 0] - sum_{j>=1} a j L_j v_{k-j} and log u = L + log v
    keeps the large L of small a exact; for a >= 1, u_k = exp(L)_k/(1 + a k),
    where L and log v would cancel.  The recurrences are triangular, so gamma_k
    does not depend on n.  A row rotated by theta multiplies gamma_k by
    e^{i k theta}.  Refuses, with ValueError, a row whose terms underflow
    (alpha past ~ 4.7e153, or a power that underflowed to 0) and gammas
    that are not finite.  This is row 0 of `_stacked_log_coefficients` on
    [f]: the three cases are that function's three groups, and a stack is
    refused for the first of its entries that this call refuses.
    """
    return _stacked_log_coefficients([f], n)[0]


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
