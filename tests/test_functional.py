"""Tests for the logarithmic-coefficient functional."""

import math
from fractions import Fraction

import numpy as np
import pytest

from logcoef.catalog import (
    FAMILIES,
    LABELS,
    f1,
    f2,
    f3,
    f4,
    f5,
    g_alpha_upper,
    g_quadratic,
    k_theta_alpha,
    koebe,
    m_alpha_upper,
    make,
    rotate,
)
from logcoef.functional import LogPair, delta, gamma_from_a, log_coefficients, log_pair

from _rows import entry_from_coeffs


class TestLogCoefficients:
    def test_koebe_harmonic_sequence(self):
        # log(koebe/z) = -2 log(1-z), so gamma_n = 1/n
        g = log_coefficients(koebe(), 6)
        np.testing.assert_allclose(g, 1.0 / np.arange(1, 7), atol=1e-14)

    def test_identity_function_all_zero(self):
        g = log_coefficients(entry_from_coeffs([0, 1]), 8)
        np.testing.assert_array_equal(g, np.zeros(8))

    def test_n_below_one_refused(self):
        with pytest.raises(ValueError, match="n >= 1"):
            log_coefficients(entry_from_coeffs([0, 1]), 0)

    @pytest.mark.parametrize("label", LABELS)
    def test_cut_series_is_bit_identical(self, label):
        # Every recurrence behind gamma is triangular, so the gammas of n
        # terms are the first n of those of n + k terms, bit for bit; the M
        # entries are checked on both sides of the a = 1 split.
        for alpha in (0.6, 2.5) if FAMILIES[label].kind == "M" else (0.6,):
            f = make(label, theta=0.7, lam=0.5, alpha=alpha)
            full = log_coefficients(f, 40)
            for n in (1, 2, 3, 7, 16, 39):
                got = log_coefficients(f, n)
                np.testing.assert_array_equal(got.view(np.uint64), full[:n].view(np.uint64))


def k_gammas_exact(alpha):
    """|gamma_1|, |gamma_2| and delta of k_theta_alpha, exact at the float alpha."""
    a = Fraction(alpha)
    g1 = 1 / (1 + a)
    g2 = (a * a + 4 * a + 1) / (2 * (1 + 2 * a) * (1 + a) ** 2)
    return float(g1), float(g2), float(g2 - g1)


class TestRowAccuracy:
    """gamma from the row against exact values, across the whole alpha range."""

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1e-12, 1e-8, 1e-5, 0.01, 0.3, 1.0, 1.5, 10.0, 1e3, 1e6])
    def test_k_gammas_to_4e16(self, theta, alpha):
        g1, g2, _ = k_gammas_exact(alpha)
        got = log_coefficients(k_theta_alpha(theta, alpha), 2)
        assert abs(abs(got[0]) - g1) <= 4e-16
        assert abs(abs(got[1]) - g2) <= 4e-16

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_k_delta_relative_at_large_alpha(self, theta):
        for alpha in np.geomspace(1e6, 1e150, 73):
            want = k_gammas_exact(float(alpha))[2]
            assert abs(delta(k_theta_alpha(theta, float(alpha))) - want) <= 1e-15 * abs(want)

    def test_m_delta_relative(self):
        for alpha in np.geomspace(1e-12, 1e150, 82):
            want = float(Fraction(1, 2) / (1 + 2 * Fraction(float(alpha))))
            assert abs(delta(m_alpha_upper(float(alpha))) - want) <= 1e-15 * want

    def test_g_delta_relative(self):
        for alpha in np.geomspace(1e-300, 1.0, 61):
            want = float(Fraction(float(alpha)) / 12)
            assert abs(delta(g_alpha_upper(float(alpha))) - want) <= 1e-15 * want

    @pytest.mark.parametrize("label", ["k_theta_alpha", "m_alpha_upper"])
    @pytest.mark.parametrize("alpha", [1e160, 1e200, 1e300])
    def test_underflowing_row_refused(self, label, alpha):
        # Past alpha ~ 4.7e153 the terms u_k fall below the normal range: at
        # 1e200 they are 0 and delta would read 0.0 against an exact -7.5e-201.
        f = make(label, alpha=alpha)
        with pytest.raises(ValueError, match="underflow"):
            log_pair(f)

    @pytest.mark.parametrize("alpha", [5e-324, 7e-324])
    def test_vanished_g_power_refused(self, alpha):
        # alpha/2 underflows to 0, and the row would give gamma = 0; from
        # 1e-323 up the terms u_k are refused as below the normal range.
        with pytest.raises(ValueError, match="the row's terms underflow"):
            log_pair(g_alpha_upper(alpha))


class TestGammaFromA:
    def test_koebe_head(self):
        p = gamma_from_a(2.0, 3.0)
        assert p.gamma1 == 1.0
        assert p.gamma2 == 0.5
        assert p.delta == -0.5

    def test_odd_function(self):
        p = gamma_from_a(0.0, -1.0)
        assert p.gamma1 == 0.0
        assert p.gamma2 == -0.5
        assert p.delta == 0.5

    def test_quadratic_polynomial(self):
        p = gamma_from_a(-0.5, 0.0)
        assert p.gamma1 == -0.25
        assert p.gamma2 == pytest.approx(-1 / 16, abs=1e-17)
        assert p.delta == pytest.approx(-3 / 16, abs=1e-16)

    def test_accepts_complex(self):
        p = gamma_from_a(2j, -4.0)
        assert p.gamma1 == 1j
        # a3 - a2^2/2 = -4 + 2 = -2
        assert p.gamma2 == -1.0


TWO_ROUTE_CASES = [
    koebe(0.0),
    koebe(2.1),
    f1(0.6),
    f2(1.9),
    f3(0.35, 0.8),
    f4(0.75),
    f5(0.5),
    k_theta_alpha(0.4, 1.5),
    m_alpha_upper(2.0),
    g_alpha_upper(0.6),
    g_quadratic(),
]


@pytest.mark.parametrize("f", TWO_ROUTE_CASES, ids=lambda f: f.label)
def test_series_log_route_matches_coefficient_formulas(f):
    via_log = log_pair(f)
    via_a = gamma_from_a(f.a(2), f.a(3))
    assert abs(via_log.gamma1 - via_a.gamma1) < 1e-12
    assert abs(via_log.gamma2 - via_a.gamma2) < 1e-12


class TestDelta:
    def test_koebe(self):
        assert delta(koebe()) == pytest.approx(-0.5, abs=1e-14)

    def test_f1_most_negative_univalent_value(self):
        assert delta(f1()) == pytest.approx(-math.sqrt(2) / 2, abs=1e-14)

    def test_f2_most_positive_univalent_value(self):
        assert delta(f2()) == pytest.approx(0.5, abs=1e-14)

    def test_identity_is_zero(self):
        assert delta(entry_from_coeffs([0, 1])) == 0.0

    @pytest.mark.parametrize("f", TWO_ROUTE_CASES, ids=lambda f: f.label)
    def test_rotation_invariance(self, f):
        base = delta(f)
        for th in (0.3, 1.0, 2.5, -0.7):
            assert abs(delta(rotate(f, th)) - base) < 1e-12

    def test_matches_logpair_property(self):
        f = f5(0.25)
        p = log_pair(f)
        assert delta(f) == p.delta
        assert isinstance(p, LogPair)
