"""Tests for the extremal-function catalog.

Coefficients are checked two independent ways: against hand-derived closed
forms, and against the contour-integral oracle applied to f = z (f/z) from
the evaluator each entry's row gives (closed form or quadrature).  The
ratios z f'/f and z f''/f' are checked by finite differences of that same f.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import catalog, functional
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
    make,
    poles_outside_disk,
    rotate,
)

from _oracles import contour_coefficients, fd_derivatives


class TestClosedFormCoefficients:
    def test_koebe(self):
        np.testing.assert_allclose(koebe().series(32).coeffs[:9], np.arange(9), atol=1e-13)

    def test_koebe_rotated(self):
        th = 0.77
        f = koebe(th)
        n = np.arange(9)
        want = n * np.exp(1j * (n - 1) * th)
        want[0] = 0
        np.testing.assert_allclose(f.series(32).coeffs[:9], want, atol=1e-12)

    def test_f1_head(self):
        f = f1()
        assert f.a(2) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert f.a(3) == pytest.approx(1.0, abs=1e-15)

    def test_f2_is_odd_alternating(self):
        f = f2()
        np.testing.assert_allclose(
            f.series(32).coeffs[:8], [0, 1, 0, -1, 0, 1, 0, -1], atol=1e-14
        )

    def test_f3_lacunary(self):
        f = f3(0.5)
        np.testing.assert_allclose(
            f.series(32).coeffs[:6], [0, 1, 0, 0.5, 0, 0.25], atol=1e-15
        )

    def test_f4_head(self):
        f = f4(0.5)
        np.testing.assert_allclose(f.series(32).coeffs[:4], [0, 1, 1, 0.5], atol=1e-15)

    def test_f4_at_one_equals_f1_at_zero(self):
        np.testing.assert_allclose(
            f4(1.0).series(32).coeffs, f1(0.0).series(32).coeffs, atol=1e-12
        )

    def test_f5_head(self):
        f = f5(0.3)
        assert f.a(2) == pytest.approx(1.0, abs=1e-15)
        assert f.a(3) == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    def test_k_second_coefficient_law(self, alpha):
        f = k_theta_alpha(0.0, alpha)
        assert f.a(2) == pytest.approx(2.0 / (1.0 + alpha), abs=1e-12)

    def test_k_at_alpha_zero_is_koebe(self):
        # koebe's row under its own label: the series and the ratios bit for bit.
        f, k = k_theta_alpha(0.3, 0.0), koebe(0.3)
        assert (f.label, f.params) == ("k_theta_alpha", {"theta": 0.3, "alpha": 0.0})
        assert f.series(32).coeffs.tobytes() == k.series(32).coeffs.tobytes()
        z = 0.99 * np.exp(2j * np.pi * np.arange(64) / 64)
        for x, y in zip(f.evaluator(z), k.evaluator(z)):
            assert x.tobytes() == y.tobytes()

    def test_k_at_alpha_one_is_half_plane_map(self):
        # alpha = 1 gives z/(1-z); every coefficient is 1.
        f = k_theta_alpha(0.0, 1.0)
        np.testing.assert_allclose(f.series(32).coeffs[1:], np.ones(32), atol=1e-12)

    def test_m_alpha_zero_closed_form(self):
        f = m_alpha_upper(0.0)
        np.testing.assert_allclose(f.series(32).coeffs[:6], [0, 1, 0, 1, 0, 1], atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_m_third_coefficient(self, alpha):
        f = m_alpha_upper(alpha)
        assert f.a(2) == pytest.approx(0.0, abs=1e-13)
        assert f.a(3) == pytest.approx(1.0 / (1.0 + 2.0 * alpha), abs=1e-12)

    def test_m_alpha_one_is_arctanh_like(self):
        # inner factor collapses, leaving z + z^3/3 + z^5/5 + ...
        f = m_alpha_upper(1.0)
        assert f.a(5) == pytest.approx(0.2, abs=1e-13)
        assert f.a(4) == pytest.approx(0.0, abs=1e-14)

    def test_g_upper_head(self):
        f = g_alpha_upper(1.0)
        assert f.a(2) == pytest.approx(0.0, abs=1e-15)
        assert f.a(3) == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert f.a(5) == pytest.approx(-1.0 / 40.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-12, 1e-16])
    def test_g_upper_delta_keeps_relative_precision(self, alpha):
        # delta = alpha/12 comes from the row's log L = (alpha/2) log(1 - z^2)
        # and v = u/h, whose every coefficient past the first is O(alpha).
        d = functional.delta(g_alpha_upper(alpha))
        assert d == pytest.approx(alpha / 12.0, rel=1e-15, abs=0.0)

    def test_g_quadratic_is_polynomial(self):
        f = g_quadratic()
        c = f.series(32).coeffs
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
        got = contour_coefficients(lambda z: z * f.evaluator(z)[0], 8, radius=0.5)
        np.testing.assert_allclose(got, f.series(32).coeffs[:9], atol=1e-9)

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.label)
    def test_fd_oracle_agrees_with_derivatives(self, f):
        z = 0.1 + 0.1j
        q, p, r = f.evaluator(z)
        of, ofp, ofpp = fd_derivatives(lambda t: t * f.evaluator(t)[0], z)
        assert z * q == of
        assert abs(p - z * ofp / of) < 1e-9
        assert abs(r - z * ofpp / ofp) < 1e-6

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.label)
    def test_ratios_at_origin(self, f):
        np.testing.assert_allclose(f.evaluator(0.0), (1.0, 1.0, 0.0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("f", INTEGRAL_CASES, ids=lambda f: f.label)
    def test_contour_oracle_near_boundary(self, f):
        got = contour_coefficients(lambda z: z * f.evaluator(z)[0], 10, radius=0.95)
        np.testing.assert_allclose(got, f.series(32).coeffs[:11], rtol=0, atol=1e-8)

    def test_quadrature_node_cap(self):
        # Refused before any node is built, below alpha ~ 3.51e-4 for
        # k_theta_alpha and ~ 1.88e-4 for m_alpha_upper, as their docstrings state.
        for f in (k_theta_alpha(0.0, 1e-5), k_theta_alpha(0.0, 3.4e-4), m_alpha_upper(1.8e-4)):
            with pytest.raises(ValueError, match="more than 100000; the integrand"):
                f.evaluator(0.5)
        for f in (k_theta_alpha(0.0, 3.6e-4), m_alpha_upper(2.0e-4)):
            assert np.isfinite(f.evaluator(0.5)).all()

    def test_quadrature_evaluator_needs_open_disk(self):
        f = k_theta_alpha(0.0, 0.5)
        for z in (1.0, np.array([0.5, 1.5j]), complex(math.nan, 0.0)):
            with pytest.raises(ValueError, match=r"needs \|z\| < 1"):
                f.evaluator(z)

    # The factor table of each integral entry, and the outer power, from the entry's alpha.
    FACTORS = {
        "k_theta_alpha": lambda a: ([((1.0, -1.0), -2.0 / a)], a),
        "m_alpha_upper": lambda a: ([((1.0, 0.0, -1.0), -1.0 / a)], a),
        "g_alpha_upper": lambda a: ([((1.0, 0.0, -1.0), 0.5 * a)], 1.0),
    }
    # The bound on |Arg v| / pi that _integral_logs states for each row.
    ARG_BOUND = {"k_theta_alpha": 0.5, "m_alpha_upper": 0.5, "g_alpha_upper": 0.25}

    @pytest.mark.parametrize("label, alpha", [
        (label, alpha)
        for label in ("k_theta_alpha", "m_alpha_upper", "g_alpha_upper")
        for alpha in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
        if label != "g_alpha_upper" or alpha <= 1.0
    ])
    def test_remainder_stays_off_negative_axis(self, label, alpha):
        # The principal log of v is the continued branch only if v never
        # crosses the negative real axis.
        factors, outer = self.FACTORS[label](alpha)
        ring = np.exp(2j * np.pi * (np.arange(128) + 0.5) / 128)
        z = np.concatenate([r * ring for r in (0.5, 0.9, 0.99, 0.999, 0.9999)])
        logv = catalog._integral_logs(factors, outer, z)[2]
        assert np.isfinite(logv).all()
        assert np.abs(logv.imag).max() < self.ARG_BOUND[label] * np.pi

    @pytest.mark.parametrize("f, most", [
        pytest.param(k_theta_alpha(0.0, 0.3), 192, id="k(0,0.3)"),
        pytest.param(k_theta_alpha(0.0, 1.0), 96, id="k(0,1)"),
        pytest.param(k_theta_alpha(0.0, 2.5), 144, id="k(0,2.5)"),
        pytest.param(m_alpha_upper(0.5), 96, id="m(0.5)"),
        pytest.param(m_alpha_upper(2.5), 112, id="m(2.5)"),
        pytest.param(g_alpha_upper(0.3), 96, id="g(0.3)"),
        pytest.param(g_alpha_upper(1.0), 96, id="g(1)"),
    ])
    def test_ring_node_count(self, monkeypatch, f, most):
        # Nodes of the rule for a 256-point ring at r = 0.99; `most` is what
        # the rule took before the entries shared one builder.
        counts = []
        rule = catalog._graded_rule

        def counted(*args):
            nodes = rule(*args)
            counts.append(len(nodes[0]))
            return nodes

        monkeypatch.setattr(catalog, "_graded_rule", counted)
        f.evaluator(0.99 * np.exp(2j * np.pi * np.arange(256) / 256))
        assert counts and max(counts) <= most

    @pytest.mark.parametrize("z", [1.0 - 1e-6, -(1.0 - 1e-6), 1.0 - 1e-9])
    def test_rational_keeps_precision_next_to_pole(self, z):
        # koebe's pole at 1 and the zero of f' at -1, against f/z = 1/(1 - z)^2,
        # z f'/f = (1 + z)/(1 - z) and z f''/f' = z (4 + 2z)/((1 - z)(1 + z)).
        q, p, r = koebe(0.0).evaluator(z)
        assert q == pytest.approx(1.0 / (1.0 - z) ** 2, rel=1e-12)
        assert p == pytest.approx((1.0 + z) / (1.0 - z), rel=1e-12)
        assert r == pytest.approx(z * (4.0 + 2.0 * z) / ((1.0 - z) * (1.0 + z)), rel=1e-12)

    @pytest.mark.parametrize("build, match", [
        (lambda: m_alpha_upper(1e-20), "rule out of range"),
        (lambda: g_alpha_upper(5e-324), "rule out of range"),
        (lambda: k_theta_alpha(0.0, 9e307), r"evaluated only at alpha <= 1e\+06"),
        (lambda: k_theta_alpha(0.0, 4e17), r"evaluated only at alpha <= 1e\+06"),
        (lambda: k_theta_alpha(0.0, 1e7), r"k_theta_alpha is evaluated only at alpha <= 1e\+06"),
        (lambda: m_alpha_upper(1e7), r"m_alpha_upper is evaluated only at alpha <= 1e\+06"),
    ], ids=["m_1e-20", "g_5e-324", "k_9e307", "k_4e17", "k_1e7", "m_1e7"])
    def test_extreme_alpha_evaluation_refused(self, build, match):
        # The rule's panel counts divide by zero or overflow; past alpha = 1e6
        # the powers of u scale its roundoff beyond 1e-6.
        f = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                f.evaluator(0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        roots=st.lists(
            st.builds(cmath.rect, st.floats(0.0, 0.9), st.floats(-math.pi, math.pi)),
            min_size=1,
            max_size=2,
        ),
        e=st.sampled_from([-1.0, 1.0, -2.0, 0.5, -1.0 / 3.0]),
    )
    def test_closed_row_agrees_with_oracles(self, roots, e):
        # f = z P^e with P = prod (1 - p z) over the reciprocal roots p: the
        # evaluator the row gives, against the oracles at this class's tolerances.
        P = (1.0, -sum(roots)) + ((roots[0] * roots[1],) if len(roots) == 2 else ())
        f = AnalyticFunction("adhoc", Row(((P, e),), 0.0, 1.0), {})
        got = contour_coefficients(lambda z: z * f.evaluator(z)[0], 8, radius=0.5)
        np.testing.assert_allclose(got, f.series(32).coeffs[:9], atol=1e-9)
        z = 0.1 + 0.1j
        q, p, r = f.evaluator(z)
        of, ofp, ofpp = fd_derivatives(lambda t: t * f.evaluator(t)[0], z)
        assert abs(p - z * ofp / of) < 1e-9
        assert abs(r - z * ofpp / ofp) < 1e-6
        np.testing.assert_allclose(f.evaluator(0.0), (1.0, 1.0, 0.0), rtol=0, atol=1e-14)

    def test_evaluator_vectorized(self):
        f = f3(0.5, 0.2)
        z = np.array([0.1, 0.2j, -0.3 + 0.1j])
        values = f.evaluator(z)
        for i, p in enumerate(z):
            for one, many in zip(f.evaluator(complex(p)), values):
                assert one == pytest.approx(many[i], abs=1e-15)


class TestRotation:
    def test_rotate_matches_rotated_constructor(self):
        th = 1.3
        np.testing.assert_allclose(
            rotate(koebe(0.0), th).series(32).coeffs, koebe(th).series(32).coeffs, atol=1e-12
        )

    def test_f1_family_closure(self):
        np.testing.assert_allclose(
            rotate(f1(0.5), 0.7).series(32).coeffs, f1(1.2).series(32).coeffs, atol=1e-12
        )

    def test_f2_family_closure(self):
        # rotating by phi shifts theta by 2 phi for the odd families
        np.testing.assert_allclose(
            rotate(f2(0.4), 0.6).series(32).coeffs, f2(1.6).series(32).coeffs, atol=1e-12
        )

    def test_f3_family_closure(self):
        np.testing.assert_allclose(
            rotate(f3(0.7, 0.4), 0.6).series(32).coeffs,
            f3(0.7, 1.6).series(32).coeffs,
            atol=1e-12,
        )

    def test_k_family_closure(self):
        np.testing.assert_allclose(
            rotate(k_theta_alpha(0.0, 0.7), 1.1).series(32).coeffs,
            k_theta_alpha(1.1, 0.7).series(32).coeffs,
            atol=1e-12,
        )

    def test_rotation_composes(self):
        f = f4(0.8)
        ab = rotate(rotate(f, 0.3), 0.9)
        np.testing.assert_allclose(
            ab.series(32).coeffs, rotate(f, 1.2).series(32).coeffs, atol=1e-12
        )

    def test_rotated_evaluator_consistent(self):
        g = rotate(f3(0.5, 0.0), 0.9)
        h = f3(0.5, 1.8)
        for z in (0.3, 0.2 - 0.4j):
            gv = g.evaluator(z)
            hv = h.evaluator(z)
            for a, b in zip(gv, hv):
                assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("build", [koebe, f1])
    @pytest.mark.parametrize("theta", [0.7, 1.3, 2.5, -1.0])
    def test_single_rotation_is_the_constructor(self, build, theta):
        # Bit for bit: the rotated row is the constructor's row.
        f, g = rotate(build(0.0), theta), build(theta)
        assert f.series(32).coeffs.tobytes() == g.series(32).coeffs.tobytes()
        z = 0.999 * np.exp(2j * np.pi * np.arange(64) / 64)
        for x, y in zip(f.evaluator(z), g.evaluator(z)):
            assert x.tobytes() == y.tobytes()

    def test_twice_rotated_koebe_keeps_its_precision(self):
        # The row of rotate(koebe(2.5), 0.7) splits the double root of
        # (1 - w z)^2, w = e^{3.2 i}.  On membership_test's rings its ratios
        # stay within 1e-11 of the exact ones (4.6e-12 at r = 0.999).
        f = rotate(koebe(2.5), 0.7)
        for r in (0.5, 0.9, 0.99, 0.999):
            z = r * np.exp(2j * np.pi * np.arange(256) / 256)
            w = np.exp(3.2j) * z
            exact = (
                1.0 / (1.0 - w) ** 2,
                (1.0 + w) / (1.0 - w),
                w * (4.0 + 2.0 * w) / ((1.0 - w) * (1.0 + w)),
            )
            for got, want in zip(f.evaluator(z), exact):
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_rotation_records_angle(self):
        assert rotate(f2(0.0), 0.25).params["rotated_by"] == 0.25

    def test_repeated_rotation_records_total_angle(self):
        f = rotate(rotate(koebe(), 0.3), 0.4)
        assert f.params["rotated_by"] == pytest.approx(0.7, abs=1e-15)
        assert f.a(2) == pytest.approx(koebe(0.7).a(2), abs=1e-15)


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

    @pytest.mark.parametrize("coeffs", [[math.nan], [1, math.nan], [1, -1, math.inf]])
    def test_non_finite_coefficient_refused(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients must be finite"):
                poles_outside_disk(coeffs)

    def test_huge_coefficients(self):
        # (1 - z/2)^2 scaled by 1e300: the discriminant's terms would overflow.
        ok, m = poles_outside_disk([1e300, -1e300, 0.25e300])
        assert ok and m == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=3))
    def test_finite_or_refused(self, coeffs):
        # The modulus is inf only for a root beyond the float range, or for a
        # constant, which has no root.
        try:
            ok, m = poles_outside_disk(coeffs)
        except ValueError:
            return
        assert m >= 0.0 and ok == (m > 1.0)

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            _, m = poles_outside_disk(c)
            want = np.abs(np.roots(c[::-1])).min()
            assert m == pytest.approx(want, rel=1e-9)


class TestNormalization:
    """An entry refuses a row unless every factor has degree <= 2 and P(0) = 1
    exactly, every value is finite and a >= 0, and an evaluator implements
    the row."""

    def test_accepts_normalized(self):
        f = AnalyticFunction("adhoc", Row((((1, 5), 1),), 0.0, 1.0), {})
        assert f.series(4).order == 4
        assert f.a(2) == 5
        assert f.series(4)(0.5) == pytest.approx(0.5 + 5 * 0.25)
        assert f.evaluator(0.5)[0] == pytest.approx(1 + 5 * 0.5)

    def test_rejects_wrong_constant(self):
        # z / z = 1 has a_0 = 1.
        with pytest.raises(ValueError, match=r"row needs P\(0\) = 1 and degree <= 2"):
            AnalyticFunction("adhoc", Row((((0, 1), -1),), 0.0, 1.0), {})

    def test_rejects_wrong_linear_term(self):
        # z / (0.999 + z) has a_1 = 1/0.999.
        with pytest.raises(ValueError, match=r"row needs P\(0\) = 1 and degree <= 2"):
            AnalyticFunction("adhoc", Row((((0.999, 1), -1),), 0.0, 1.0), {})

    @pytest.mark.parametrize("row, match", [
        (Row((((1, 0, 0, 1), -1),), 0.0, 1.0), "degree <= 2"),
        (Row((((1, -1), -1),), -0.5, 1.0), "a >= 0"),
    ], ids=["cubic", "negative_a"])
    def test_rejects_row_outside_the_form(self, row, match):
        with pytest.raises(ValueError, match=match):
            AnalyticFunction("adhoc", row, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_coefficient(self, bad):
        for row in [
            Row((((1, 2, bad), -1),), 0.0, 1.0),
            Row((((1, 2), bad),), 0.5, 0.5),
            Row((((1, 2), -1),), 0.5, bad),
        ]:
            with pytest.raises(ValueError, match="row values must be finite and a >= 0"):
                AnalyticFunction("adhoc", row, {})

    @pytest.mark.parametrize("evaluator", [None, 1.0])
    def test_rejects_evaluator_argument(self, evaluator):
        # The evaluator comes from the row; it is not an argument.
        with pytest.raises(TypeError):
            AnalyticFunction("adhoc", Row((), 0.0, 1.0), {}, evaluator)

    @pytest.mark.parametrize("row", [
        Row((((1, -1), -2.0),), 0.5, 1.0),
        Row((((1, -1), -1.0),), 0.0, 2.0),
        Row((((1, -1), -1.0), ((1, 0.5), 1.0)), 0.0, 1.0),
        Row((), 0.0, 1.0),
        Row((), 0.5, 0.5),
    ], ids=["beta_not_a", "beta_not_one", "two_factors_at_a_0", "no_factor_at_a_0", "no_factor"])
    def test_rejects_row_without_an_evaluator(self, row):
        with pytest.raises(ValueError, match="row has no evaluator"):
            AnalyticFunction("adhoc", row, {})


def assert_reads_finite_or_refused(f):
    """The order-32 series and gamma_1, gamma_2 of f are finite, or refused with ValueError."""
    for read in (lambda: f.series(32).coeffs, lambda: functional.log_coefficients(f, 2)):
        try:
            values = read()
        except ValueError:
            continue
        assert np.isfinite(values).all()


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
        lambda: k_theta_alpha(0.0, 0.05).series(2048),
        lambda: k_theta_alpha(0.0, 0.01).series(512),
        lambda: m_alpha_upper(0.01).series(1024),
    ], ids=["k_0.05_2048", "k_0.01_512", "m_0.01_1024"])
    def test_overflowing_series_build_refused(self, build):
        # Refused by name of the first bad coefficient, and silently: no
        # numpy RuntimeWarning reaches the caller.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"series coefficient a_\d+ = .* is not finite"):
                build()

    def test_default_order_builds_stay_finite_at_small_alpha(self):
        # Order-32 builds: the coefficients grow faster as alpha falls; 1e-4
        # lies below every alpha whose quadrature rule fits under the node cap
        # (about 3.5e-4 for k_theta_alpha and 1.9e-4 for m_alpha_upper).
        for f in (k_theta_alpha(0.7, 1e-4), m_alpha_upper(1e-4)):
            assert np.isfinite(f.series(32).coeffs).all()

    CONSTRUCTORS = {
        "koebe": lambda x, y: koebe(x),
        "f1": lambda x, y: f1(x),
        "f2": lambda x, y: f2(x),
        "f3": lambda x, y: f3(x, y),
        "f4": lambda x, y: f4(x),
        "f5": lambda x, y: f5(x),
        "k_theta_alpha": lambda x, y: k_theta_alpha(y, x),
        "m_alpha_upper": lambda x, y: m_alpha_upper(x),
        "g_alpha_upper": lambda x, y: g_alpha_upper(x),
    }

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(CONSTRUCTORS)), x=st.floats(), y=st.floats())
    def test_constructor_finite_or_refused(self, name, x, y):
        try:
            f = self.CONSTRUCTORS[name](x, y)
        except ValueError:
            return
        assert_reads_finite_or_refused(f)

    @settings(max_examples=300, deadline=None)
    @given(label=st.sampled_from(LABELS), theta=st.floats(), lam=st.floats(), alpha=st.floats())
    def test_make_finite_or_refused(self, label, theta, lam, alpha):
        try:
            f = make(label, theta=theta, lam=lam, alpha=alpha)
        except ValueError:
            return
        assert_reads_finite_or_refused(f)


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
