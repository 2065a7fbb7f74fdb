"""Independent recomputation routes used to cross-check library output.

Nothing here shares code with the series recurrences under test: Taylor
coefficients come from the Cauchy integral evaluated by the trapezoid rule
(which the FFT performs exactly for periodic integrands), derivatives from
central finite differences, and e^{i n theta} from n theta split exactly
in two doubles.
"""

import cmath
from fractions import Fraction

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
