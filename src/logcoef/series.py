"""Truncated complex power series and the coefficient recurrences built on them.

A :class:`TruncatedSeries` holds the coefficients ``a_0 .. a_N`` of a power
series cut off at a fixed order ``N``.  Every operation is exact through order
``N``: products are Cauchy products with the tail discarded, quotients come
from the triangular back-substitution for ``q * b = a``, and logarithms,
exponentials and real powers of series with unit constant term use the
classical differentiate-and-solve recurrences (for ``L = log a``, the relation
``L' a = a'`` is solved term by term).  No series composition is involved
anywhere, and the principal branch is pinned by ``log(1) = 0``.

Coefficients are double precision complex numbers.  Instances are immutable,
so they can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

DEFAULT_ORDER = 32
MIN_ORDER = 2


class TruncatedSeries:
    """Polynomial view a_0 + a_1 z + ... + a_N z^N of a power series."""

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

    def __repr__(self):
        head = np.array2string(self._c[: min(5, len(self._c))], precision=6)
        tail = ", ..." if len(self._c) > 5 else ""
        return f"TruncatedSeries({head}{tail}, order={self.order})"

    # -- ring operations ----------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(self._c + other._c, order=self.order)
        try:
            s = complex(other)
        except TypeError:
            return NotImplemented
        c = self._c.copy()
        c[0] += s
        return TruncatedSeries(c, order=self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self._c, order=self.order)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(self._c - other._c, order=self.order)
        try:
            s = complex(other)
        except TypeError:
            return NotImplemented
        c = self._c.copy()
        c[0] -= s
        return TruncatedSeries(c, order=self.order)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            full = np.convolve(self._c, other._c)
            return TruncatedSeries(full[: self.order + 1], order=self.order)
        try:
            s = complex(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries(self._c * s, order=self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(_div_coeffs(self._c, other._c), order=self.order)
        try:
            s = complex(other)
        except TypeError:
            return NotImplemented
        if s == 0:
            raise ZeroDivisionError("division of a series by zero")
        return TruncatedSeries(self._c / s, order=self.order)

    def __rtruediv__(self, other):
        try:
            s = complex(other)
        except TypeError:
            return NotImplemented
        num = np.zeros(self.order + 1, dtype=complex)
        num[0] = s
        return TruncatedSeries(_div_coeffs(num, self._c), order=self.order)

    # -- calculus -----------------------------------------------------------

    def deriv(self) -> "TruncatedSeries":
        """Termwise derivative; the lost top order is padded with zero."""
        c = self._c
        out = np.zeros_like(c)
        out[:-1] = c[1:] * np.arange(1, len(c))
        return TruncatedSeries(out, order=self.order)

    def integ(self) -> "TruncatedSeries":
        """Termwise antiderivative with zero constant, truncated at the order."""
        c = self._c
        out = np.zeros_like(c)
        out[1:] = c[:-1] / np.arange(1, len(c))
        return TruncatedSeries(out, order=self.order)

    def __call__(self, z):
        """Horner evaluation at z (scalar or ndarray).

        No tail-bound estimation happens here; the caller owns the
        truncation-error budget for the radius it evaluates at.
        """
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self._c[::-1]:
            acc = acc * z + c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc


class NormalizedSeries:
    """Series with a_0 = 0 and a_1 = 1, i.e. the normalization f(0) = 0, f'(0) = 1.

    Every coefficient must be finite, so a build that overflowed is refused here.
    """

    __slots__ = ("_s",)

    def __init__(self, series: TruncatedSeries):
        c = series.coeffs
        if c[0] != 0 or c[1] != 1:
            raise ValueError("series is not normalized: need a_0 = 0 and a_1 = 1 exactly")
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            n = int(bad[0])
            raise ValueError(f"series coefficient a_{n} = {c[n]} is not finite")
        self._s = series

    @property
    def series(self) -> TruncatedSeries:
        return self._s

    @property
    def coeffs(self) -> np.ndarray:
        return self._s.coeffs

    @property
    def order(self) -> int:
        return self._s.order

    def coefficient(self, n: int) -> complex:
        return self._s.coefficient(n)

    def __call__(self, z):
        return self._s(z)

    def __repr__(self):
        return f"NormalizedSeries({self._s!r})"


def _div_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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

    Uses the classical recurrence obtained from a p' = beta a' p:
    p_n = (1/n) sum_{j=1}^{n} ((beta+1) j - n) a_j p_{n-j}.
    Equivalent to exp_unit(beta * log_unit(a)) but in a single pass.
    """
    c = a.coeffs
    if c[0] != 1:
        raise ValueError("pow_real requires constant term exactly 1")
    beta = float(beta)
    n1 = len(c)
    crev = np.ascontiguousarray(c[::-1])
    wrev = np.ascontiguousarray((c * np.arange(n1) * (beta + 1.0))[::-1])
    p = np.zeros(n1, dtype=complex)
    p[0] = 1.0
    for n in range(1, n1):
        t1 = np.dot(p[:n], wrev[n1 - 1 - n : n1 - 1])
        t2 = np.dot(p[:n], crev[n1 - 1 - n : n1 - 1])
        p[n] = t1 / n - t2
    return TruncatedSeries(p, order=a.order)
