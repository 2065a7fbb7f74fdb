"""Truncated complex power series and the coefficient recurrences built on them.

A :class:`TruncatedSeries` holds ``a_0 .. a_N`` of a catalog entry, cut off
at a fixed order ``N`` and built on demand, and is the tests' Horner oracle;
entries are evaluated by their rows' evaluators, never by a series.  Every
coefficient is read through one triangular solve, `_solve`: x_0 = r_0 and
d_n x_n = r_n - sum_{j=1}^{n} g_j x_{n-j}.  A series c with c_0 = 1 is
carried as its log-derivative y = z c'/c = z (log c)', which `_dlog`
solves from c y = z c' with no division, and `_exp` turns back into
exp(log c) from z E' = y E, n E_n = sum y_j E_{n-j}; the principal branch
is pinned by log(1) = 0.  `catalog._stacked_dlog_u` gives y_u = z u'/u,
gamma_n is beta y_n / (2n), and a series is z `_exp`(beta y_u).

The solve runs on stacks: g is a complex (K, N) array, and every row is
solved at once, one coefficient per step, so that K series cost about what
one does.  `log_unit`, `exp_unit`, `pow_real` and `_div_coeffs` are a few
lines each on it, for a stack of one.  A step's inner products are one
matmul of a (K, 1, m) stack of rows by a (K, m, 1) stack of columns, which
reaches np.dot's kernel for every length m, strided slices included: each
row gets the value np.dot gives it, and the same bits in a stack of any
size.  At m = 1 matmul adds the one product to +0, so an exact zero part
comes out +0 where np.dot gives -0.

`_expi` is the rotation factor e^{i k theta} that a row rotated by theta
puts on its coefficients, from k theta split exactly in two doubles.

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
        """Coefficient of z^n, n an integer in 0..order."""
        if not (_is_integer(n) and 0 <= n <= self.order):
            raise ValueError(f"coefficient index {n!r} outside 0..{self.order}")
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


def _solve(r, g, d=None) -> np.ndarray:
    """x_0 .. x_N of x_0 = r_0 and d_n x_n = r_n - sum_{j=1}^{n} g_j x_{n-j}, each row of a stack.

    g = (g_1 .. g_N) is a complex (K, N) array, and r broadcasts to (K, N+1),
    as does d, real, or 1 if None, whose d_0 is not read.  Each part of x_n
    is divided by d_n on its own, so that the quotient is correctly rounded,
    which numpy's complex / real is not: its 2450 / 49 is 50 - 7.1e-15.
    """
    K, N = g.shape
    grev = np.ascontiguousarray(g[:, ::-1])[:, :, None]  # g_N .. g_1
    x = np.zeros((K, 1, N + 1), dtype=complex)
    x[:, 0] = r  # x_n holds r_n until step n
    if d is not None:
        parts = x.view(float).reshape(K, N + 1, 2)  # x_n's real and imaginary parts
        d = (np.zeros((K, N + 1)) + d)[:, :, None]
    for n in range(1, N + 1):
        x[:, 0, n] -= np.matmul(x[:, :, :n], grev[:, N - n :])[:, 0, 0]
        if d is not None:
            np.divide(parts[:, n], d[:, n], out=parts[:, n])
    return x[:, 0]


def _dlog(c: np.ndarray) -> np.ndarray:
    """y_1 .. y_N of y = z c'/c = z (log c)' for each row of a complex (K, N+1) array
    whose column 0 is exactly 1: y_n = n c_n - sum_{j=1}^{n-1} c_j y_{n-j}."""
    return _solve(np.arange(1, c.shape[1]) * c[:, 1:], c[:, 1:-1])


def _exp(y: np.ndarray) -> np.ndarray:
    """E_0 .. E_N of E = exp(L), L(0) = 0, from y_1 .. y_N of y = z L', a complex (K, N)
    array: E_0 = 1 and n E_n = sum_{j=1}^{n} y_j E_{n-j}."""
    k = np.arange(y.shape[1] + 1.0)
    return _solve(k == 0, -y, k)


def _div_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the series a / b, (N+1,) arrays, to the length of a; b_0 may not be 0.

    `_solve`(a / b_0, b / b_0), for every b_0, complex too.  No code in `src` calls it.
    """
    if b[0] == 0:
        raise ValueError("division by a series with zero constant term")
    return _solve(a[None] / b[0], b[None, 1 : len(a)] / b[0])[0]


def _expi(theta, k):
    """e^{i k theta} for integer k with |k| < 2^26; theta and k broadcast.

    k theta is split exactly as hi + lo, hi its nearest double, by Dekker's
    product on the top 26 bits of theta, so the factor is e^{i hi} e^{i lo}
    and not e^{i fl(k theta)}, which is off by up to |lo|.  At k = 1 and 2
    lo = 0, and the factor is the bits of e^{i k theta}.
    """
    m, e = np.frexp(theta)
    top = np.ldexp(np.round(np.ldexp(m, 26)), e - 26)
    hi = k * theta
    lo = (k * top - hi) + k * (theta - top)
    return np.exp(1j * hi) * np.exp(1j * lo)


def _is_integer(x) -> bool:
    """Whether x is an integer, Python's or numpy's, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def log_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Series logarithm of a series with constant term exactly 1.

    L_n = y_n / n, y = z a'/a from `_dlog`, each part divided on its own.
    """
    if a.coeffs[0] != 1:
        raise ValueError("log_unit requires constant term exactly 1")
    y = _dlog(a.coeffs[None])[0]
    L = (y.view(float).reshape(-1, 2) / np.arange(1.0, a.order + 1)[:, None]).view(complex)
    return TruncatedSeries(np.append(0.0, L), order=a.order)


def exp_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Series exponential of a series with constant term exactly 0.

    `_exp` of y = z a', y_n = n a_n.
    """
    if a.coeffs[0] != 0:
        raise ValueError("exp_unit requires constant term exactly 0")
    return TruncatedSeries(_exp(np.arange(1, a.order + 1) * a.coeffs[None, 1:])[0], order=a.order)


def pow_real(a: TruncatedSeries, beta: float) -> TruncatedSeries:
    """Principal power a**beta for real beta, constant term of a exactly 1.

    exp(beta log a), by the cores every coefficient is read through: `_exp`
    of beta times `_dlog`.  Every term of the exponential's recurrence
    carries a factor beta y_j, so no two O(1) terms cancel when beta is
    small and the power keeps its relative precision.
    """
    if a.coeffs[0] != 1:
        raise ValueError("pow_real requires constant term exactly 1")
    return TruncatedSeries(_exp(float(beta) * _dlog(a.coeffs[None]))[0], order=a.order)
