"""Tests for the logarithmic-coefficient functional."""

import math

import numpy as np
import pytest

from logcoef.catalog import (
    LABELS,
    AnalyticFunction,
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
from logcoef.series import TruncatedSeries, log_unit


def entry_from_coeffs(coeffs, order=16):
    """The polynomial with these coefficients, evaluated exactly by Horner."""
    s = TruncatedSeries(coeffs, order=order)
    d1 = TruncatedSeries(s.coeffs[1:] * np.arange(1, order + 1), order=order)
    d2 = TruncatedSeries(d1.coeffs[1:] * np.arange(1, order + 1), order=order)
    return AnalyticFunction("adhoc", s, {}, lambda z: (s(z), d1(z), d2(z)))


class TestLogCoefficients:
    def test_koebe_harmonic_sequence(self):
        # log(koebe/z) = -2 log(1-z), so gamma_n = 1/n
        g = log_coefficients(koebe(), 6)
        np.testing.assert_allclose(g, 1.0 / np.arange(1, 7), atol=1e-14)

    def test_identity_function_all_zero(self):
        g = log_coefficients(entry_from_coeffs([0, 1]), 8)
        np.testing.assert_array_equal(g, np.zeros(8))

    def test_order_bookkeeping(self):
        f = entry_from_coeffs([0, 1], order=8)
        assert len(log_coefficients(f, 7)) == 7
        with pytest.raises(ValueError, match="order"):
            log_coefficients(f, 8)
        with pytest.raises(ValueError, match="n >= 1"):
            log_coefficients(f, 0)

    @pytest.mark.parametrize("label", LABELS)
    def test_cut_series_is_bit_identical(self, label):
        # gamma_1..gamma_n read only a_1..a_{n+1}, so the full-order log must
        # give the same bits.
        f = make(label, theta=0.7, lam=0.5, alpha=0.6)
        s = f.series
        full = 0.5 * log_unit(TruncatedSeries(s.coeffs[1:], order=s.order - 1)).coeffs
        for n in range(1, s.order):
            got = log_coefficients(f, n)
            np.testing.assert_array_equal(got.view(np.uint64), full[1 : n + 1].view(np.uint64))


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
    k_theta_alpha(0.4, 1.5, order=64),
    m_alpha_upper(2.0, order=64),
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
