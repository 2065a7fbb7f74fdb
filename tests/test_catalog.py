"""Tests for the extremal-function catalog.

Coefficients are checked two independent ways: against hand-derived closed
forms, and against the contour-integral oracle applied to each entry's
evaluator (closed form or quadrature).  Derivatives are checked by finite
differences.
"""

import dataclasses
import math
import warnings

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
    poles_outside_disk,
    rotate,
)

from _oracles import contour_coefficients, fd_derivatives


class TestClosedFormCoefficients:
    def test_koebe(self):
        np.testing.assert_allclose(koebe().series.coeffs[:9], np.arange(9), atol=1e-13)

    def test_koebe_rotated(self):
        th = 0.77
        f = koebe(th)
        n = np.arange(9)
        want = n * np.exp(1j * (n - 1) * th)
        want[0] = 0
        np.testing.assert_allclose(f.series.coeffs[:9], want, atol=1e-12)

    def test_f1_head(self):
        f = f1()
        assert f.a(2) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert f.a(3) == pytest.approx(1.0, abs=1e-15)

    def test_f2_is_odd_alternating(self):
        f = f2()
        np.testing.assert_allclose(
            f.series.coeffs[:8], [0, 1, 0, -1, 0, 1, 0, -1], atol=1e-14
        )

    def test_f3_lacunary(self):
        f = f3(0.5)
        np.testing.assert_allclose(
            f.series.coeffs[:6], [0, 1, 0, 0.5, 0, 0.25], atol=1e-15
        )

    def test_f4_head(self):
        f = f4(0.5)
        np.testing.assert_allclose(f.series.coeffs[:4], [0, 1, 1, 0.5], atol=1e-15)

    def test_f4_at_one_equals_f1_at_zero(self):
        np.testing.assert_allclose(
            f4(1.0).series.coeffs, f1(0.0).series.coeffs, atol=1e-12
        )

    def test_f5_head(self):
        f = f5(0.3)
        assert f.a(2) == pytest.approx(1.0, abs=1e-15)
        assert f.a(3) == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_k_second_coefficient_law(self, alpha):
        f = k_theta_alpha(0.0, alpha, order=64)
        assert f.a(2) == pytest.approx(2.0 / (1.0 + alpha), abs=1e-12)

    def test_k_at_alpha_zero_is_koebe(self):
        f = k_theta_alpha(0.3, 0.0)
        assert f.label == "koebe"
        np.testing.assert_allclose(f.series.coeffs, koebe(0.3).series.coeffs, atol=0)

    def test_k_at_alpha_one_is_half_plane_map(self):
        # alpha = 1 gives z/(1-z); every coefficient is 1.
        f = k_theta_alpha(0.0, 1.0, order=32)
        np.testing.assert_allclose(f.series.coeffs[1:], np.ones(32), atol=1e-12)

    def test_m_alpha_zero_closed_form(self):
        f = m_alpha_upper(0.0)
        np.testing.assert_allclose(f.series.coeffs[:6], [0, 1, 0, 1, 0, 1], atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_m_third_coefficient(self, alpha):
        f = m_alpha_upper(alpha, order=64)
        assert f.a(2) == pytest.approx(0.0, abs=1e-13)
        assert f.a(3) == pytest.approx(1.0 / (1.0 + 2.0 * alpha), abs=1e-12)

    def test_m_alpha_one_is_arctanh_like(self):
        # inner factor collapses, leaving z + z^3/3 + z^5/5 + ...
        f = m_alpha_upper(1.0, order=16)
        assert f.a(5) == pytest.approx(0.2, abs=1e-13)
        assert f.a(4) == pytest.approx(0.0, abs=1e-14)

    def test_g_upper_head(self):
        f = g_alpha_upper(1.0)
        assert f.a(2) == pytest.approx(0.0, abs=1e-15)
        assert f.a(3) == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert f.a(5) == pytest.approx(-1.0 / 40.0, abs=1e-15)

    def test_g_quadratic_is_polynomial(self):
        f = g_quadratic()
        c = f.series.coeffs
        np.testing.assert_array_equal(c[:3], [0, 1, -0.5])
        assert not c[3:].any()


class TestEvaluators:
    CASES = [
        koebe(0.9),
        f1(0.4),
        f2(1.2),
        f3(0.8, 0.3),
        f4(0.6),
        f5(0.4),
        pytest.param(k_theta_alpha(0.2, 0.8), id="k_theta_alpha(0.8)"),
        m_alpha_upper(0.0),
        pytest.param(m_alpha_upper(1.5), id="m_alpha_upper(1.5)"),
        g_alpha_upper(0.7),
        g_quadratic(),
    ]

    # Entries evaluated by quadrature.
    INTEGRAL_CASES = [k_theta_alpha(0.2, 0.8), m_alpha_upper(1.5), g_alpha_upper(0.7)]

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.label)
    def test_contour_oracle_agrees_with_series(self, f):
        got = contour_coefficients(lambda z: f.eval(z)[0], 8, radius=0.5)
        np.testing.assert_allclose(got, f.series.coeffs[:9], atol=1e-9)

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.label)
    def test_fd_oracle_agrees_with_derivatives(self, f):
        z = 0.1 + 0.1j
        fv, fpv, fppv = f.eval(z)
        of, ofp, ofpp = fd_derivatives(lambda t: f.eval(t)[0], z)
        assert fv == of
        assert abs(fpv - ofp) < 1e-9
        assert abs(fppv - ofpp) < 1e-6

    @pytest.mark.parametrize("f", INTEGRAL_CASES, ids=lambda f: f.label)
    def test_contour_oracle_near_boundary(self, f):
        got = contour_coefficients(lambda z: f.eval(z)[0], 10, radius=0.95)
        np.testing.assert_allclose(got, f.series.coeffs[:11], rtol=0, atol=1e-8)

    def test_quadrature_node_cap(self):
        # Refused before any node is built.
        with pytest.raises(ValueError, match="more than 100000; the integrand"):
            k_theta_alpha(0.0, 1e-5).eval(0.5)

    def test_quadrature_evaluator_needs_open_disk(self):
        f = k_theta_alpha(0.0, 0.5)
        for z in (1.0, np.array([0.5, 1.5j]), complex(math.nan, 0.0)):
            with pytest.raises(ValueError, match=r"needs \|z\| < 1"):
                f.eval(z)

    def test_series_only_entry_derivatives(self):
        # The series path of eval, for an entry without an evaluator.
        f = dataclasses.replace(k_theta_alpha(0.2, 0.8, order=64), evaluator=None)
        z = 0.15 - 0.1j
        fv, fpv, fppv = f.eval(z)
        of, ofp, ofpp = fd_derivatives(lambda t: f.eval(t)[0], z)
        assert abs(fv - of) < 1e-14
        assert abs(fpv - ofp) < 1e-9
        assert abs(fppv - ofpp) < 1e-6

    def test_evaluator_vectorized(self):
        f = f3(0.5, 0.2)
        z = np.array([0.1, 0.2j, -0.3 + 0.1j])
        fv, fpv, fppv = f.eval(z)
        for i, p in enumerate(z):
            s = f.eval(complex(p))
            assert s[0] == pytest.approx(fv[i], abs=1e-15)
            assert s[1] == pytest.approx(fpv[i], abs=1e-15)
            assert s[2] == pytest.approx(fppv[i], abs=1e-15)


class TestRotation:
    def test_rotate_matches_rotated_constructor(self):
        th = 1.3
        np.testing.assert_allclose(
            rotate(koebe(0.0), th).series.coeffs, koebe(th).series.coeffs, atol=1e-12
        )

    def test_f1_family_closure(self):
        np.testing.assert_allclose(
            rotate(f1(0.5), 0.7).series.coeffs, f1(1.2).series.coeffs, atol=1e-12
        )

    def test_f2_family_closure(self):
        # rotating by phi shifts theta by 2 phi for the odd families
        np.testing.assert_allclose(
            rotate(f2(0.4), 0.6).series.coeffs, f2(1.6).series.coeffs, atol=1e-12
        )

    def test_f3_family_closure(self):
        np.testing.assert_allclose(
            rotate(f3(0.7, 0.4), 0.6).series.coeffs,
            f3(0.7, 1.6).series.coeffs,
            atol=1e-12,
        )

    def test_k_family_closure(self):
        np.testing.assert_allclose(
            rotate(k_theta_alpha(0.0, 0.7), 1.1).series.coeffs,
            k_theta_alpha(1.1, 0.7).series.coeffs,
            atol=1e-12,
        )

    def test_rotation_composes(self):
        f = f4(0.8)
        ab = rotate(rotate(f, 0.3), 0.9)
        np.testing.assert_allclose(
            ab.series.coeffs, rotate(f, 1.2).series.coeffs, atol=1e-12
        )

    def test_rotated_evaluator_consistent(self):
        g = rotate(f3(0.5, 0.0), 0.9)
        h = f3(0.5, 1.8)
        for z in (0.3, 0.2 - 0.4j):
            gv = g.eval(z)
            hv = h.eval(z)
            for a, b in zip(gv, hv):
                assert abs(a - b) < 1e-12

    def test_rotation_records_angle(self):
        assert rotate(f2(0.0), 0.25).params["rotated_by"] == 0.25


class TestPoleLocation:
    def test_double_root_outside(self):
        ok, m = poles_outside_disk([1, -1, 0.25])
        assert ok and m == pytest.approx(2.0, abs=1e-12)

    def test_conjugate_pair(self):
        ok, m = poles_outside_disk([1, -1, 0.4])
        assert ok and m == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_boundary_root_not_outside(self):
        ok, m = poles_outside_disk([1, -2, 1])
        assert not ok and m == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        ok, m = poles_outside_disk([1, -0.5])
        assert ok and m == pytest.approx(2.0)

    def test_trailing_zero_reduces_degree(self):
        ok, m = poles_outside_disk([1, -0.5, 0])
        assert ok and m == pytest.approx(2.0)

    def test_constant_has_no_roots(self):
        ok, m = poles_outside_disk([3])
        assert ok and m == math.inf

    def test_root_at_origin(self):
        ok, m = poles_outside_disk([0, 0, 0.5])
        assert not ok and m == 0.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            poles_outside_disk([0, 0])

    def test_cubic_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            poles_outside_disk([1, 1, 1, 1])

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            _, m = poles_outside_disk(c)
            want = np.abs(np.roots(c[::-1])).min()
            assert m == pytest.approx(want, rel=1e-9)


class TestValidation:
    def test_f3_range(self):
        with pytest.raises(ValueError):
            f3(0.0)
        with pytest.raises(ValueError):
            f3(1.5)

    def test_f4_range(self):
        with pytest.raises(ValueError):
            f4(0.49)
        with pytest.raises(ValueError):
            f4(1.01)

    def test_f5_range(self):
        with pytest.raises(ValueError):
            f5(0.0)
        with pytest.raises(ValueError):
            f5(0.7)

    def test_g_upper_range(self):
        with pytest.raises(ValueError):
            g_alpha_upper(0.0)
        with pytest.raises(ValueError):
            g_alpha_upper(1.5)

    def test_alpha_families_reject_negative(self):
        with pytest.raises(ValueError):
            k_theta_alpha(0.0, -0.1)
        with pytest.raises(ValueError):
            m_alpha_upper(-1.0)

    @pytest.mark.parametrize("build", [
        lambda: k_theta_alpha(0.0, 0.05, order=2048),
        lambda: k_theta_alpha(0.0, 0.01, order=512),
        lambda: m_alpha_upper(0.01, order=1024),
    ], ids=["k_0.05_2048", "k_0.01_512", "m_0.01_1024"])
    def test_overflowing_series_build_refused(self, build):
        # Refused by name of the first bad coefficient, and silently: no
        # numpy RuntimeWarning reaches the caller.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"series coefficient a_\d+ = .* is not finite"):
                build()

    def test_default_order_builds_stay_finite_at_small_alpha(self):
        # The coefficients grow faster as alpha falls; 1e-4 lies below every
        # alpha whose quadrature rule fits under the node cap (about 4e-4).
        for f in (k_theta_alpha(0.7, 1e-4), m_alpha_upper(1e-4)):
            assert np.isfinite(f.series.coeffs).all()


class TestMake:
    def test_dispatch(self):
        assert make("f4", lam=0.5).a(2) == pytest.approx(1.0, abs=1e-15)
        assert make("koebe", theta=0.5).label == "koebe"
        assert make("g_quadratic").a(2) == -0.5

    def test_extraneous_parameters_ignored(self):
        f = make("f2", theta=0.1, lam=0.9, alpha=2.0)
        assert f.params == {"theta": 0.1}

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="lambda"):
            make("f3")
        with pytest.raises(ValueError, match="alpha"):
            make("m_alpha_upper")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown function"):
            make("zeta")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, value):
        with pytest.raises(ValueError, match="theta must be finite"):
            make("f3", theta=value, lam=0.5)
        with pytest.raises(ValueError, match="theta must be finite"):
            make("k_theta_alpha", theta=value, alpha=1.0)
        with pytest.raises(ValueError, match="lambda must be finite"):
            make("f4", lam=value)
        with pytest.raises(ValueError, match="alpha must be finite"):
            make("m_alpha_upper", alpha=value)
        # The constructors check on their own, not only through make.
        for build, flag in [
            (lambda: koebe(value), "theta"),
            (lambda: f1(value), "theta"),
            (lambda: f2(value), "theta"),
            (lambda: f3(0.5, theta=value), "theta"),
            (lambda: f3(value), "lambda"),
            (lambda: f4(value), "lambda"),
            (lambda: f5(value), "lambda"),
            (lambda: k_theta_alpha(value, 1.0), "theta"),
            (lambda: k_theta_alpha(0.0, value), "alpha"),
            (lambda: m_alpha_upper(value), "alpha"),
            (lambda: g_alpha_upper(value), "alpha"),
            (lambda: rotate(f1(), value), "theta"),
        ]:
            with pytest.raises(ValueError, match=f"{flag} must be finite, got {value}"):
                build()

    @pytest.mark.parametrize("label", LABELS)
    def test_every_entry_has_an_evaluator(self, label):
        f = make(label, theta=0.3, lam=0.5, alpha=0.5)
        assert f.evaluator is not None
        if FAMILIES[label].kind == "M":
            assert make(label, theta=0.3, alpha=2.0).evaluator is not None

    def test_unread_parameter_not_checked(self):
        assert make("f4", theta=math.nan, lam=0.5, alpha=math.inf).params == {"lam": 0.5}

    def test_labels_cover_catalog(self):
        assert set(LABELS) == {
            "koebe",
            "f1",
            "f2",
            "f3",
            "f4",
            "f5",
            "k_theta_alpha",
            "m_alpha_upper",
            "g_alpha_upper",
            "g_quadratic",
        }
