"""Truncated complex power series and the coefficient recurrences built on them.

A :class:`TruncatedSeries` holds ``a_0 .. a_N`` of a catalog entry, cut off
at a fixed order ``N`` and built on demand, and is the tests' Horner oracle;
entries are evaluated by their rows' evaluators, never by a series.  Every
coefficient is read through the stacked recurrences here: `_log_stack` gives
`catalog._stacked_log_u` the log u that gamma is read from, a series is
z `_exp_stack`(beta log u), and `_div_coeffs` gives a closed row's series
its exact quotients by back-substitution.  The log and exp are the
classical differentiate-and-solve recurrences (for ``L = log a``,
``L' a = a'`` is solved term by term), and the principal branch is pinned by
``log(1) = 0``.

The log and exp recurrences run on stacks: `_log_stack` and `_exp_stack`
take a complex (K, N+1) array, and each solves every row at once,
one coefficient per step, so that K series cost about what one does.
`log_unit` and `exp_unit` are these cores on a stack of one, and
`pow_real` is exp(beta log a) by the two of them.  A step's inner
products are one matmul of a (K, 1, m) stack of rows by a (K, m, 1) stack
of columns, which reaches np.dot's kernel for every length m, strided slices
included: each row gets the value np.dot gives it, and the same bits in a
stack of any size.  At m = 1 matmul adds the one product to +0, so an exact
zero part comes out +0 where np.dot gives -0.

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


def _div_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the series a / b, (N+1,) arrays, to the length of a; b_0 may not be 0.

    q_n = (a_n - sum_{i<n} q_i b_{n-i}) / b_0.
    """
    if b[0] == 0:
        raise ValueError("division by a series with zero constant term")
    n1 = len(a)
    brev = np.ascontiguousarray(b[::-1])
    q = np.zeros(n1, dtype=complex)
    q[0] = a[0] / b[0]
    for n in range(1, n1):
        q[n] = (a[n] - np.dot(q[:n], brev[n1 - 1 - n : n1 - 1])) / b[0]
    return q


def _log_stack(c: np.ndarray) -> np.ndarray:
    """Series log of each row of a complex (K, N+1) array whose column 0 is exactly 1.

    n L_n = n c_n - sum_{i=1}^{n-1} i L_i c_{n-i}, so L_1 = c_1.
    """
    n1 = c.shape[1]
    k = np.arange(n1, dtype=complex)
    crev = np.ascontiguousarray(c[:, ::-1])[:, :, None]
    L = np.zeros(c.shape, dtype=complex)
    w = np.zeros((len(c), 1, n1), dtype=complex)  # w[:, 0, j] = j L[:, j]
    L[:, 1:2] = c[:, 1:2]
    w[:, 0, 1:2] = k[1] * L[:, 1:2]
    for n in range(2, n1):
        L[:, n] = c[:, n] - np.matmul(w[:, :, 1:n], crev[:, n1 - n : n1 - 1])[:, 0, 0] / k[n]
        w[:, 0, n] = k[n] * L[:, n]
    return L


def _exp_stack(c: np.ndarray) -> np.ndarray:
    """Series exponential of each row of a complex (K, N+1) array whose column 0 is exactly 0.

    n E_n = sum_{i=1}^{n} i c_i E_{n-i}.
    """
    n1 = c.shape[1]
    k = np.arange(n1, dtype=complex)
    wrev = np.ascontiguousarray((c * k)[:, ::-1])[:, :, None]
    E = np.zeros(c.shape, dtype=complex)
    E3 = E[:, None, :]
    E[:, 0] = 1.0
    for n in range(1, n1):
        E[:, n] = np.matmul(E3[:, :, :n], wrev[:, n1 - 1 - n : n1 - 1])[:, 0, 0] / k[n]
    return E


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

    Solves L' a = a' triangularly:
    n L_n = n a_n - sum_{i=1}^{n-1} i L_i a_{n-i}.
    """
    if a.coeffs[0] != 1:
        raise ValueError("log_unit requires constant term exactly 1")
    return TruncatedSeries(_log_stack(a.coeffs[None])[0], order=a.order)


def exp_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Series exponential of a series with constant term exactly 0.

    Solves E' = a' E triangularly: n E_n = sum_{i=1}^{n} i a_i E_{n-i}.
    """
    if a.coeffs[0] != 0:
        raise ValueError("exp_unit requires constant term exactly 0")
    return TruncatedSeries(_exp_stack(a.coeffs[None])[0], order=a.order)


def pow_real(a: TruncatedSeries, beta: float) -> TruncatedSeries:
    """Principal power a**beta for real beta, constant term of a exactly 1.

    exp(beta log a), by the cores every coefficient is read through:
    `_exp_stack` of beta times `_log_stack`.  Every term of the exponential's
    recurrence carries a factor beta L_i, so no two O(1) terms cancel when
    beta is small and the power keeps its relative precision.
    """
    if a.coeffs[0] != 1:
        raise ValueError("pow_real requires constant term exactly 1")
    return TruncatedSeries(_exp_stack(float(beta) * _log_stack(a.coeffs[None]))[0], order=a.order)
