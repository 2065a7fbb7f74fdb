"""Tests for the logarithmic-coefficient functional."""

import math
from fractions import Fraction

import numpy as np
import pytest

from logcoef.catalog import (
    FAMILIES,
    LABELS,
    AnalyticFunction,
    Row,
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
    _stack_rows,
    make,
    rotate,
)
from logcoef.functional import (
    LogPair,
    _named,
    _stacked_log_coefficients,
    delta,
    gamma_from_a,
    log_coefficients,
    log_pair,
)
from logcoef.series import _expi

from _oracles import expi
from _rows import entry_from_coeffs


class TestLogCoefficients:
    def test_koebe_harmonic_sequence(self):
        # log(koebe/z) = -2 log(1-z), so gamma_n = 1/n
        g = log_coefficients(koebe(), 6)
        np.testing.assert_allclose(g, 1.0 / np.arange(1, 7), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.7, 3.2, -1.0, 100.0])
    def test_rotated_koebe_is_e_in_theta_over_n(self, theta):
        # gamma_n = e^{i n theta}/n.  At n = 1, 2, 4, 8 the unrotated row's
        # gamma_n is 1/n exactly and n theta is exact too.
        got = log_coefficients(koebe(theta), 8)
        for n in (1, 2, 4, 8):
            assert abs(got[n - 1] - expi(theta, n) / n) <= 3e-16

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 2.5])
    @pytest.mark.parametrize("theta", [0.7, 3.2, -1.0, 100.0])
    def test_rotated_k_is_the_unrotated_times_e_in_theta(self, theta, alpha):
        # e^{i n theta} is taken at the rounded n theta, half an ulp of it off,
        # plus two roundings: of the exponential and of the product.
        base = log_coefficients(k_theta_alpha(0.0, alpha), 8)
        got = log_coefficients(k_theta_alpha(theta, alpha), 8)
        for n, (g, b) in enumerate(zip(got, base), 1):
            tol = abs(b) * (0.5 * math.ulp(n * theta) + 2.0 * np.finfo(float).eps)
            assert abs(g - expi(theta, n) * b) <= tol

    def test_identity_function_all_zero(self):
        g = log_coefficients(entry_from_coeffs([0, 1]), 8)
        np.testing.assert_array_equal(g, np.zeros(8))

    def test_n_below_one_refused(self):
        with pytest.raises(ValueError, match="n >= 1"):
            log_coefficients(entry_from_coeffs([0, 1]), 0)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2"])
    def test_n_that_is_not_an_integer_refused(self, n):
        with pytest.raises(ValueError, match="need an integer n >= 1"):
            log_coefficients(koebe(), n)

    def test_koebe_is_one_over_n_to_the_last_bit(self):
        # log(f/z) = -2 log(1 - z) from the row's factor alone, with no
        # quotient f/z in between: y_u = 2 in every term, and gamma_n =
        # 2 / (2n) is the one rounding.
        assert log_coefficients(koebe(), 256).tolist() == [1.0 / n for n in range(1, 257)]

    def test_m_alpha_zero_is_exact(self):
        # z / (1 - z^2): y_u is 2 at even n and 0 at odd n, so gamma_n is 1/n
        # at even n and 0 at odd n, to the last bit.
        want = [1.0 / n if n % 2 == 0 else 0.0 for n in range(1, 257)]
        assert log_coefficients(m_alpha_upper(0.0), 256).tolist() == want

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

    def test_large_a_quotient_is_correctly_rounded(self):
        # For a >= 1, u_m = h_m / (1 + a m): here u = 1 + (2450/49) z = 1 + 50 z,
        # so gamma_1 = beta u_1 / 2 = 1200 exactly, where numpy's complex / real
        # gives 2450/49 = 50 - 7.1e-15.
        f = AnalyticFunction("adhoc", Row((((1.0, 2450.0), 1.0),), 48.0, 48.0), {})
        assert log_coefficients(f, 1)[0] == 1200.0

    def test_g_delta_correctly_rounded_on_the_sweep_grid(self):
        # g_alpha_upper's delta is alpha/12; the quotient u_m = h_m/(1 + m),
        # divided part by part, gives it correctly rounded at every grid point.
        for alpha in np.arange(1, 101) / 100:
            assert delta(g_alpha_upper(float(alpha))) == float(Fraction(float(alpha)) / 12)

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


class TestRotationFactor:
    """e^{i k theta} from k theta split exactly, as the oracle takes it."""

    THETAS = [0.7, 3.2, -1.0, 100.3, 1000.1]

    @pytest.mark.parametrize("theta", THETAS)
    def test_is_the_oracle_to_the_bit(self, theta):
        k = np.arange(-1.0, 9.0)
        assert _expi(theta, k).tolist() == [expi(theta, int(n)) for n in k]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("label", ["koebe", "f1", "f3", "k_theta_alpha", "m_alpha_upper"])
    def test_gammas_and_series_take_it(self, label, theta):
        # gamma_k of the rotated row is the unrotated row's times expi(theta, k),
        # and a_m of its series the unrotated a_m times expi(theta, m - 1), bit
        # for bit.  At k = 1 and 2, k theta is exact and the factor is the bits
        # of np.exp(1j k theta), so gamma_1, gamma_2 and delta keep theirs.
        f = make(label, 0.0, lam=0.6, alpha=0.6)
        g = rotate(f, theta)
        base, got = log_coefficients(f, 8), log_coefficients(g, 8)
        assert got.tolist() == [b * expi(theta, k) for k, b in enumerate(base.tolist(), 1)]
        assert got[:2].tolist() == (base[:2] * np.exp(1j * theta * np.arange(1.0, 3.0))).tolist()
        a, rotated = f.series(8).coeffs, g.series(8).coeffs
        assert rotated.tolist() == [c * expi(theta, m - 1) for m, c in enumerate(a.tolist())]


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


class TestStackedRows:
    """Entries of every label stacked into one row give each entry's own gammas."""

    # a = 0, 0 < a < 1 and a >= 1; linear P (k_theta_alpha, g_quadratic) and
    # quadratic P; theta != 0, from a constructor and from `rotate`.
    ENTRIES = [
        koebe(0.4), f1(1.0), f2(2.0), f3(0.6, 2.0), f4(0.7), f5(0.3),
        k_theta_alpha(0.0, 0.0), k_theta_alpha(0.7, 0.5), k_theta_alpha(1.3, 2.0),
        m_alpha_upper(0.0), m_alpha_upper(0.3), m_alpha_upper(2.0),
        g_alpha_upper(0.5), g_alpha_upper(1.0), g_quadratic(), rotate(g_quadratic(), -0.9),
    ]

    def test_covers_every_label_and_kind_of_row(self):
        rows = [f.row for f in self.ENTRIES]
        assert {f.label for f in self.ENTRIES} == set(LABELS)
        assert {r.a == 0 for r in rows} == {True, False}
        assert any(0 < r.a < 1 for r in rows) and any(r.a >= 1 for r in rows)
        assert {len(r.factors[0][0]) for r in rows} == {2, 3}
        assert any(r.theta for r in rows)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_each_row_has_its_own_bits(self, n):
        fs = self.ENTRIES
        g = _stacked_log_coefficients(_stack_rows([f.row for f in fs]), n, None)
        for k, f in enumerate(fs):
            assert g[k].tobytes() == log_coefficients(f, n).tobytes()
        if n == 2:
            assert [LogPair(*pair).delta for pair in g.tolist()] == [delta(f) for f in fs]

    def test_rows_of_two_factors_stack(self):
        rows = [Row((((1.0, -x), -1.0), ((1.0, x, 0.5), -0.5)), a, a)
                for x, a in ((0.3, 0.5), (-0.8, 2.0))]
        g = _stacked_log_coefficients(_stack_rows(rows), 4, None)
        for k, row in enumerate(rows):
            assert g[k].tobytes() == _stacked_log_coefficients(row, 4, None)[0].tobytes()

    def test_different_factor_counts_refused(self):
        two = Row((((1.0, -1.0), -1.0), ((1.0, 1.0), -1.0)), 0.5, 0.5)
        with pytest.raises(ValueError, match="^rows with different numbers of factors"):
            _stack_rows([koebe().row, two])

    def test_refusal_names_the_entry_as_its_own_delta_would(self):
        # g_alpha_upper(5e-324)'s power alpha/2 is 0, and k_theta_alpha(0, 1e160)'s
        # terms underflow: the first of them in the stack is named.
        fs = [koebe(), g_alpha_upper(5e-324), k_theta_alpha(0.0, 1e160), f5(0.3)]
        for bad in (1, 2):
            with pytest.raises(ValueError) as alone:
                delta(fs[bad])
            stack = fs[:1] + fs[bad:]
            with pytest.raises(ValueError) as stacked:
                _stacked_log_coefficients(_stack_rows([f.row for f in stack]), 2,
                                          lambda k: _named(stack[k]))
            assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == ("k_theta_alpha {'theta': 0.0, 'alpha': 1e+160}: "
                                    "the row's terms underflow")
