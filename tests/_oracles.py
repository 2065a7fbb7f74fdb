"""Independent recomputation routes used to cross-check library output.

Nothing here shares code with the series recurrences under test: Taylor
coefficients come from the Cauchy integral evaluated by the trapezoid rule
(which the FFT performs exactly for periodic integrands), derivatives from
central finite differences, e^{i n theta} from n theta split exactly in two
doubles, a row's u^beta from mpmath at 40 digits, its log h from the
roots of each factor, and a closed row's f from those roots at 50 digits.
"""

import cmath
from fractions import Fraction

import mpmath
import numpy as np


def contour_coefficients(fz, count, radius=0.4, samples=512):
    """Taylor coefficients a_0 .. a_count of a callable analytic near 0.

    fz must accept a complex ndarray.  The trapezoid rule on |z| = radius is
    spectrally accurate; aliasing folds in coefficients from index `samples`
    up, weighted by radius**samples, which is ~1e-200 here and ignorable.
    """
    m = np.arange(samples)
    z = radius * np.exp(2j * np.pi * m / samples)
    hat = np.fft.fft(np.asarray(fz(z), dtype=complex)) / samples
    return hat[: count + 1] / radius ** np.arange(count + 1)


def fd_derivatives(fz, z, h=1e-4):
    """(f, f', f'') at one point by five-point central differences."""
    v = np.asarray([fz(z + k * h) for k in (-2, -1, 0, 1, 2)], dtype=complex)
    fp = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
    fpp = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
    return v[2], fp, fpp


def expi(theta, n):
    """e^{i n theta} at the double theta, to about an ulp.

    n theta is split exactly as hi + lo, hi its nearest double, and
    e^{i lo} = 1 + i lo to within lo^2 / 2, far below an ulp for any
    |n theta| up to 1e7.
    """
    x = Fraction(theta) * n
    hi = float(x)
    return cmath.exp(1j * hi) * complex(1.0, float(x - Fraction(hi)))


def power_coefficients(row, order, dps=40):
    """a_0 .. a_order of an unrotated catalog row's f = z u^beta, by mpmath at dps digits.

    u = integral_0^1 h(z t^a) dt with h = prod P^e, so u_m = h_m / (1 + a m).
    log u is taken as L + log v, L = log h from the reciprocal roots r of
    each P, L_m = -sum e r^m / m, and v = u/h from u + a z u' = h:
    (1 + a m) v_m = [m = 0] - sum_{j>=1} a j L_j v_{m-j}.  The plain log of
    u's own coefficients, which grow like m^(-e), would cancel about
    |e| log10(order) digits, 2/alpha of them for k_theta_alpha's row; v's
    recurrence keeps L out of that log.  At 40 and 80 digits the doubles
    agree on every case the tests read.
    """
    factors, a, beta = row[:3]
    n1 = order  # u^beta to z^(order - 1)
    with mpmath.workdps(dps):
        a, beta = mpmath.mpf(a), mpmath.mpf(beta)
        L = [mpmath.mpc(0)] * n1
        for P, e in factors:
            p1, p2 = (mpmath.mpc(complex(c)) for c in (*P[1:], 0, 0)[:2])
            d = mpmath.sqrt(p1 * p1 - 4 * p2)
            for r in ((d - p1) / 2, (-d - p1) / 2):
                for m in range(1, n1):
                    L[m] -= mpmath.mpf(e) * r**m / m
        v = [mpmath.mpc(1)]
        for m in range(1, n1):
            v.append(-a * mpmath.fsum(j * L[j] * v[m - j] for j in range(1, m + 1)) / (1 + a * m))
        # log v by m w_m = m v_m - sum_{i<m} i w_i v_{m-i}, then exp by m E_m = sum i c_i E_{m-i}.
        w = [mpmath.mpc(0)] * n1
        for m in range(1, n1):
            w[m] = v[m] - mpmath.fsum(i * w[i] * v[m - i] for i in range(1, m)) / m
        c = [beta * (L[m] + w[m]) for m in range(n1)]
        E = [mpmath.mpc(1)]
        for m in range(1, n1):
            E.append(mpmath.fsum(i * c[i] * E[m - i] for i in range(1, m + 1)) / m)
        return np.array([0j, *map(complex, E)])


def closed_coefficients(row, order, dps=50):
    """a_0 .. a_order of a closed, unrotated catalog row's f = z prod P^e,
    every e = +-1, by mpmath at dps digits.

    Each P is 1 + p1 z + p2 z^2 = (1 - r z)(1 - r' z) over its reciprocal
    roots, and the z^m coefficient of 1/P is h_m = sum_{j=0}^{m} r^j r'^(m-j)
    = r' h_{m-1} + r^m, which needs no r - r' and so holds at a double root;
    a factor with e = 1 is P itself.  The factors' series are multiplied out
    as sums.
    """
    with mpmath.workdps(dps):
        c = [mpmath.mpc(0), mpmath.mpc(1)] + [mpmath.mpc(0)] * (order - 1)
        for P, e in row.factors:
            p1, p2 = (mpmath.mpc(complex(x)) for x in (*P[1:], 0, 0)[:2])
            if e == 1:
                series = [mpmath.mpc(1), p1, p2] + [mpmath.mpc(0)] * (order - 2)
            else:
                d = mpmath.sqrt(p1 * p1 - 4 * p2)
                r, s = (d - p1) / 2, (-d - p1) / 2
                series, rm = [mpmath.mpc(1)], mpmath.mpc(1)
                for _ in range(order):
                    rm *= r
                    series.append(s * series[-1] + rm)
            c = [mpmath.fsum(c[i] * series[m - i] for i in range(m + 1)) for m in range(order + 1)]
        return np.array(list(map(complex, c)))
