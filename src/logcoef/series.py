"""Truncated complex power series and the coefficient recurrences built on them.

A series gives each catalog entry its coefficients a_2, a_3, ... on demand,
and is the tests' Horner oracle; entries are evaluated by the evaluators
their rows give, never by a series.  A :class:`TruncatedSeries` holds
``a_0 .. a_N`` cut off at a fixed order ``N`` and keeps only what the
recurrences and the tests use: its coefficients and Horner evaluation
``s(z)``.  `_div_coeffs` solves ``q * b = a`` by back-substitution, exact
through order ``N``.  `log_unit`, `exp_unit` and `pow_real` act on series
with unit constant term by the classical differentiate-and-solve recurrences
(for ``L = log a``, ``L' a = a'`` is solved term by term); no composition is
involved, and the principal branch is pinned by ``log(1) = 0``.

Coefficients are double precision complex numbers.  Instances are immutable.
A series here carries no normalization: a catalog entry's row fixes a_0 = 0, a_1 = 1.
"""

from __future__ import annotations

import numpy as np

MIN_ORDER = 2


class TruncatedSeries:
    """Polynomial view a_0 + a_1 z + ... + a_N z^N of a power series.

    Holds an entry's coefficients and serves as the tests' Horner oracle.  Its
    operations are ``coeffs``, ``order``, ``coefficient`` and evaluation
    ``s(z)``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=(), order: int | None = None):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        if order is None:
            order = max(len(c) - 1, MIN_ORDER)
        order = int(order)
        if order < MIN_ORDER:
            raise ValueError(f"order must be at least {MIN_ORDER}, got {order}")
        out = np.zeros(order + 1, dtype=complex)
        n = min(len(c), order + 1)
        out[:n] = c[:n]
        out.setflags(write=False)
        self._c = out

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array of length ``order + 1``."""
        return self._c

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coefficient(self, n: int) -> complex:
        """Coefficient of z^n, 0 <= n <= order."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside 0..{self.order}")
        return complex(self._c[n])

    def __call__(self, z):
        """Horner evaluation at z (scalar or ndarray).

        The value is that of the stored polynomial: the dropped tail is not
        estimated, so it approximates the full series only where the caller
        knows the tail to be negligible.  Catalog entries are evaluated by
        their evaluators, never by this.
        """
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self._c[::-1]:
            acc = acc * z + c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc


def _div_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the series a / b, to the length of a; b_0 must not be 0."""
    if b[0] == 0:
        raise ValueError("division by a series with zero constant term")
    n1 = len(a)
    brev = np.ascontiguousarray(b[::-1])
    q = np.zeros(n1, dtype=complex)
    q[0] = a[0] / b[0]
    for n in range(1, n1):
        # q_n = (a_n - sum_{i<n} q_i b_{n-i}) / b_0
        acc = np.dot(q[:n], brev[n1 - 1 - n : n1 - 1])
        q[n] = (a[n] - acc) / b[0]
    return q


def log_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Series logarithm of a series with constant term exactly 1.

    Solves L' a = a' triangularly:
    n L_n = n a_n - sum_{i=1}^{n-1} i L_i a_{n-i}.
    """
    c = a.coeffs
    if c[0] != 1:
        raise ValueError("log_unit requires constant term exactly 1")
    n1 = len(c)
    crev = np.ascontiguousarray(c[::-1])
    L = np.zeros(n1, dtype=complex)
    w = np.zeros(n1, dtype=complex)  # w[k] = k * L[k]
    for n in range(1, n1):
        acc = np.dot(w[1:n], crev[n1 - n : n1 - 1])
        L[n] = c[n] - acc / n
        w[n] = n * L[n]
    return TruncatedSeries(L, order=a.order)


def exp_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Series exponential of a series with constant term exactly 0.

    Solves E' = a' E triangularly: n E_n = sum_{i=1}^{n} i a_i E_{n-i}.
    """
    c = a.coeffs
    if c[0] != 0:
        raise ValueError("exp_unit requires constant term exactly 0")
    n1 = len(c)
    wrev = np.ascontiguousarray((c * np.arange(n1))[::-1])
    E = np.zeros(n1, dtype=complex)
    E[0] = 1.0
    for n in range(1, n1):
        E[n] = np.dot(E[:n], wrev[n1 - 1 - n : n1 - 1]) / n
    return TruncatedSeries(E, order=a.order)


def pow_real(a: TruncatedSeries, beta: float) -> TruncatedSeries:
    """Principal power a**beta for real beta, constant term of a exactly 1.

    Solves a p' = beta a' p triangularly:
    n p_n = beta sum_{j=1}^{n} j a_j p_{n-j} - sum_{i=1}^{n-1} i p_i a_{n-i}.
    Both terms are O(beta) when beta is small, since p_i is for i >= 1, so
    no two O(1) terms cancel and p keeps its relative precision.  Equivalent
    to exp_unit(beta * log_unit(a)) but in a single pass.
    """
    c = a.coeffs
    if c[0] != 1:
        raise ValueError("pow_real requires constant term exactly 1")
    beta = float(beta)
    n1 = len(c)
    crev = np.ascontiguousarray(c[::-1])
    jrev = np.ascontiguousarray((c * np.arange(n1))[::-1])
    p = np.zeros(n1, dtype=complex)
    w = np.zeros(n1, dtype=complex)  # w[i] = i * p[i]
    p[0] = 1.0
    for n in range(1, n1):
        t1 = np.dot(p[:n], jrev[n1 - 1 - n : n1 - 1])
        t2 = np.dot(w[1:n], crev[n1 - n : n1 - 1])
        p[n] = (beta * t1 - t2) / n
        w[n] = n * p[n]
    return TruncatedSeries(p, order=a.order)
