"""Tests for the extremal-function catalog.

Coefficients are checked two independent ways: against hand-derived closed
forms, and against the contour-integral oracle applied to f = z (f/z) from
the evaluator each entry's row gives (closed form or quadrature).  The
ratios z f'/f and z f''/f' are checked by finite differences of that same f.
"""

import cmath
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logcoef import catalog, classes, cli, functional
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
    rotate,
)
from logcoef.classes import ClassSpec, _ring, membership_margin, membership_test

from _oracles import (
    closed_coefficients,
    contour_coefficients,
    expi,
    fd_derivatives,
    power_coefficients,
)


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

    @pytest.mark.parametrize("f, want", [
        (koebe(), range(257)),
        (m_alpha_upper(0.0), [0] + [n % 2 for n in range(1, 257)]),
        (g_quadratic(), [0, 1, -0.5] + [0] * 254),
    ], ids=["koebe", "m_alpha_upper_0", "g_quadratic"])
    def test_closed_series_is_exact(self, f, want):
        # The one route z exp(beta y_u) gives these exactly: y_u and the
        # exponential's recurrence stay in integers and powers of 2, and each
        # division by n, part by part, is exact.
        assert f.series(256).coeffs.tolist() == list(want)

    @pytest.mark.parametrize("f", [m_alpha_upper(0.0), g_quadratic(), f3(0.8), f5(0.3)],
                             ids=["m_alpha_upper_0", "g_quadratic", "f3_0.8", "f5_0.3"])
    def test_closed_series_matches_the_oracle(self, f):
        want = closed_coefficients(f.row, 256)
        assert (np.abs(f.series(256).coeffs - want) <= 1e-15).all()

    @pytest.mark.parametrize("label", LABELS)
    def test_one_route_and_no_quotient(self, label, monkeypatch):
        # Every row's series and gammas come from z exp(beta y_u); no module
        # reaches the series quotient.
        def refuse(*args):
            raise AssertionError("series._div_coeffs called")

        for name, module in list(sys.modules.items()):
            if name.startswith("logcoef") and hasattr(module, "_div_coeffs"):
                monkeypatch.setattr(module, "_div_coeffs", refuse)
        for alpha in (0.0, 0.6, 2.5) if FAMILIES[label].kind == "M" else (0.6,):
            f = make(label, theta=0.7, lam=0.5, alpha=alpha)
            assert np.isfinite(f.series(64).coeffs).all()
            assert np.isfinite(functional.log_coefficients(f, 8)).all()


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
    # q underflows to 0 in catalog._roots: c_1 = -5e-324 and s = 0.
    @example(roots=[0j, 5e-324 + 0j], e=-1.0)
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


def _entry_id(f):
    """An entry's label and params, and its row's angle where it is rotated."""
    return f"{f.label}{dict(f.params, theta=f.row.theta) if f.row.theta else f.params}"


class TestSymmetryFold:
    """The quadrature evaluator evaluates each orbit of the row's symmetry once."""

    N = 256
    RING = 0.99 * _ring(N)
    # Points off the ring, no two of them mirror images.
    POINTS = np.array([0.3 + 0.4j, -0.7 + 0.1j, -0.2 - 0.9j, 0.5 - 0.5j, 0.6, -0.45j])

    REAL = [k_theta_alpha(0.0, 0.3), m_alpha_upper(1.0), g_alpha_upper(0.5)]
    EVEN = [m_alpha_upper(1.0), g_alpha_upper(0.5), rotate(m_alpha_upper(1.0), 0.4)]

    @pytest.mark.parametrize("f", REAL, ids=lambda f: f.label)
    def test_real_row_conjugates_bit_for_bit(self, f):
        n = self.N
        values = np.array(f.evaluator(self.RING))
        j = np.arange(1, n)
        assert np.array_equal(values[:, n - j], values[:, j].conj())
        for z in (self.RING, self.POINTS):
            assert np.array_equal(np.array(f.evaluator(z.conj())), np.conj(f.evaluator(z)))

    @pytest.mark.parametrize("f", EVEN, ids=_entry_id)
    def test_even_row_is_even_bit_for_bit(self, f):
        n = self.N
        values = np.array(f.evaluator(self.RING))
        # The ring's one pair that is not opposite: ring[3n/4] = conj(ring[n/4]).
        j = np.delete(np.arange(n // 2), n // 4)
        assert np.array_equal(values[:, j + n // 2], values[:, j])
        for z in (self.RING, self.POINTS):
            assert np.array_equal(np.array(f.evaluator(-z)), np.array(f.evaluator(z)))

    @staticmethod
    def spy_sizes(monkeypatch):
        """The number of points of each call of `catalog._integral_logs`, as it is called."""
        sizes = []
        logs = catalog._integral_logs

        def spy(factors, alpha, z):
            sizes.append(z.size)
            return logs(factors, alpha, z)

        monkeypatch.setattr(catalog, "_integral_logs", spy)
        return sizes

    # The U margin reads f/z and p, so it runs the quadrature at every radius.
    @pytest.mark.parametrize("f, points", [
        pytest.param(k_theta_alpha(0.0, 0.3), 129, id="k(0,0.3)"),
        pytest.param(m_alpha_upper(1.0), 65, id="m(1)"),
        pytest.param(k_theta_alpha(1.0, 0.3), 256, id="k(1,0.3)"),
    ])
    def test_points_evaluated_per_radius(self, monkeypatch, f, points):
        sizes = self.spy_sizes(monkeypatch)
        membership_test(f, ClassSpec("U", lam=1.0))
        assert sizes == [points] * 3

    @pytest.mark.parametrize("f, spec", [
        pytest.param(k_theta_alpha(0.0, 0.3), ClassSpec("M", alpha=0.3), id="k(0,0.3)"),
        pytest.param(k_theta_alpha(1.0, 0.3), ClassSpec("M", alpha=0.3), id="k(1,0.3)"),
        pytest.param(k_theta_alpha(0.0, 2.5), ClassSpec("M", alpha=2.5), id="k(0,2.5)"),
        pytest.param(m_alpha_upper(1.0), ClassSpec("M", alpha=1.0), id="m(1)"),
        pytest.param(m_alpha_upper(0.5), ClassSpec("M", alpha=0.5), id="m(0.5)"),
        pytest.param(g_alpha_upper(0.5), ClassSpec("G", alpha=0.5), id="g(0.5)"),
        pytest.param(g_alpha_upper(1.0), ClassSpec("G", alpha=1.0), id="g(1)"),
        # G reads z h'/h alone wherever a = 1, whichever entry the row is.
        pytest.param(k_theta_alpha(0.4, 1.0), ClassSpec("G", alpha=0.5), id="k(0.4,1)-G"),
    ])
    def test_own_class_runs_no_quadrature(self, monkeypatch, f, spec):
        # The coefficient of p - 1 in the margin is 0: M at the row's own
        # alpha and G at a = 1 read z h'/h, a closed form in the row.
        sizes = self.spy_sizes(monkeypatch)
        membership_test(f, spec)
        membership_margin(f, spec, 0.3 - 0.6j)
        assert sizes == []

    @pytest.mark.parametrize("f, spec, points", [
        pytest.param(k_theta_alpha(0.0, 0.3), ClassSpec("M", alpha=0.5), 129, id="k(0,0.3)-M(0.5)"),
        pytest.param(m_alpha_upper(1.0), ClassSpec("M", alpha=2.0), 65, id="m(1)-M(2)"),
        pytest.param(m_alpha_upper(2.0), ClassSpec("M", alpha=0.0), 65, id="m(2)-M(0)"),
        pytest.param(g_alpha_upper(0.5), ClassSpec("M", alpha=0.5), 65, id="g(0.5)-M(0.5)"),
        pytest.param(k_theta_alpha(0.4, 0.5), ClassSpec("G", alpha=0.5), 256, id="k(0.4,0.5)-G"),
    ])
    def test_other_classes_run_the_quadrature_per_radius(self, monkeypatch, f, spec, points):
        sizes = self.spy_sizes(monkeypatch)
        membership_test(f, spec)
        assert sizes == [points] * 3

    @pytest.mark.parametrize("f, kept", [
        pytest.param(k_theta_alpha(0.0, 0.3), 129, id="k(0,0.3)"),
        pytest.param(m_alpha_upper(1.0), 65, id="m(1)"),
        pytest.param(g_alpha_upper(0.5), 65, id="g(0.5)"),
    ])
    def test_unfolded_points_keep_the_formula(self, f, kept):
        # The ring points that are their own representatives, the upper half
        # or the first quadrant, read the ratios straight from _integral_logs.
        alpha = f.row.a
        z = self.RING[:kept]
        lh, dh, logv = catalog._integral_logs(f.row.factors, alpha, z)
        p = np.exp(-logv)
        want = (np.exp(alpha * (lh + logv)), p, (alpha - 1.0) / alpha * (p - 1.0) + z * dh)
        got = f.evaluator(self.RING)
        for g, w in zip(got, want):
            assert np.array_equal(g[:kept], w)

    DISK = "quadrature evaluation needs |z| < 1, got max |z| = "

    @pytest.mark.parametrize("f, z, message", [
        (m_alpha_upper(1.0), np.array([0.3, -1.5j, 0.2]), DISK + "1.5"),
        (m_alpha_upper(1.0), -1.0, DISK + "1.0"),
        (k_theta_alpha(0.0, 0.3), np.array([0.5, complex(math.nan, -0.1)]), DISK + "nan"),
        (g_alpha_upper(0.5), np.array([0.1, -0.1 - 1j]), DISK + str(abs(-0.1 - 1j))),
        (m_alpha_upper(1e7), np.array([0.5, -0.5]),
         "m_alpha_upper is evaluated only at alpha <= 1e+06, got 10000000.0"),
    ], ids=["pole", "minus_one", "nan", "outside", "alpha"])
    def test_refusals_unchanged(self, f, z, message):
        # Folding keeps every |z|, so a refusal names the same point as unfolded.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            f.evaluator(z)


class TestGeneratorLogDerivative:
    """dlog_h, z h'/h of a row with a > 0: a closed form in the row that refuses
    what the evaluator refuses."""

    RING = 0.99 * _ring(64)

    @pytest.mark.parametrize("f, exact", [
        pytest.param(k_theta_alpha(0.0, 0.3), lambda z: (2.0 / 0.3) * z / (1.0 - z), id="k(0,0.3)"),
        pytest.param(k_theta_alpha(1.0, 2.0),
                     lambda z: cmath.exp(1j) * z / (1.0 - cmath.exp(1j) * z), id="k(1,2)"),
        pytest.param(m_alpha_upper(0.5), lambda z: 4.0 * z * z / (1.0 - z * z), id="m(0.5)"),
        pytest.param(g_alpha_upper(0.5), lambda z: -0.5 * z * z / (1.0 - z * z), id="g(0.5)"),
    ])
    def test_matches_exact(self, f, exact):
        want = exact(self.RING)
        np.testing.assert_allclose(f.dlog_h(self.RING), want, rtol=4e-15, atol=0)
        assert f.dlog_h(0.0) == 0.0

    @pytest.mark.parametrize("f", [g_alpha_upper(0.3), m_alpha_upper(1.0), k_theta_alpha(0.7, 1.0)],
                             ids=_entry_id)
    def test_is_the_evaluators_term_at_a_one(self, f):
        # At a = 1, z f''/f' = 0 (p - 1) + z h'/h: the same bits.
        assert np.array_equal(f.dlog_h(self.RING), f.evaluator(self.RING)[2])

    def test_none_at_a_zero(self):
        for f in (koebe(0.3), f3(0.5), m_alpha_upper(0.0), g_quadratic()):
            assert f.dlog_h is None

    @pytest.mark.parametrize("f, z", [
        (m_alpha_upper(1.0), np.array([0.3, -1.5j, 0.2])),
        (k_theta_alpha(0.0, 0.3), np.array([0.5, complex(math.nan, -0.1)])),
        (g_alpha_upper(0.5), np.array([0.1, -0.1 - 1j])),
        (k_theta_alpha(0.0, 1e7), 0.5),
        (m_alpha_upper(1e7), np.array([0.5, -0.5])),
        (k_theta_alpha(0.0, 1e-4), 0.5),
        (m_alpha_upper(1.8e-4), 0.5),
        (m_alpha_upper(1e-20), 0.5),
        (g_alpha_upper(5e-324), 0.5),
    ], ids=["pole", "nan", "outside", "k_1e7", "m_1e7", "k_nodes", "m_nodes", "m_range", "g_range"])
    def test_refuses_what_the_evaluator_refuses(self, f, z):
        with pytest.raises(ValueError) as refused:
            f.evaluator(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
                f.dlog_h(z)

    def test_nan_where_h_vanishes(self):
        # h = 1 - 2z vanishes at 1/2; a pole of h, e < 0, is refused.
        f = AnalyticFunction("adhoc", Row((((1.0, -2.0), 1.0),), 1.0, 1.0), {})
        got = f.dlog_h(np.array([0.5, 0.25]))
        assert math.isnan(got[0].real) and got[1] == pytest.approx(-1.0, rel=1e-15)
        g = AnalyticFunction("adhoc", Row((((1.0, -2.0), -1.0),), 1.0, 1.0), {})
        with pytest.raises(ValueError, match="^adhoc values overflow at alpha = 1.0$"):
            g.dlog_h(0.5)

    # z h'/h is evaluated at the points it is given, with no fold, so its
    # arithmetic must keep the row's symmetry by itself.  "Bit for bit" is
    # np.array_equal, as for the evaluator's fold: an exact zero's sign may
    # differ on the real axis, and no margin reads the imaginary part there.
    @settings(max_examples=350, deadline=None)
    @given(b=st.floats(-1.0, 1.0), c=st.floats(-1.0, 1.0), e=st.floats(-6.0, 6.0),
           a=st.floats(0.05, 20.0), theta=st.floats(-7.0, 7.0), r=st.floats(0.01, 0.999),
           n=st.integers(1, 300))
    def test_keeps_the_rows_symmetry_bit_for_bit(self, b, c, e, a, theta, r, n):
        # |b| + |c| <= 1 keeps every zero of P off the open disk; e = 0 has no rule.
        assume(abs(b) + abs(c) <= 1.0 and e != 0.0)
        z = np.array([[0.5 * r], [r]]) * _ring(n)  # a stack of two rings
        real = AnalyticFunction("adhoc", Row((((1.0, b, c), e),), a, a), {})
        d = real.dlog_h(z)
        assert np.array_equal(real.dlog_h(z.conj()), d.conj())
        for theta in (0.0, theta):
            even = AnalyticFunction("adhoc", Row((((1.0, 0.0, c), e),), a, a, theta), {})
            assert np.array_equal(even.dlog_h(-z), even.dlog_h(z))

    # The own-class margins run no quadrature, so neither the rule's
    # eigensolve nor the fold's deduplication may be reached from them.
    @pytest.mark.parametrize("f, spec", [
        pytest.param(k_theta_alpha(0.0, 0.5), ClassSpec("M", alpha=0.5), id="k-M"),
        pytest.param(k_theta_alpha(1.0, 2.0), ClassSpec("M", alpha=2.0), id="k-rotated-M"),
        pytest.param(m_alpha_upper(2.0), ClassSpec("M", alpha=2.0), id="m-M"),
        pytest.param(g_alpha_upper(0.5), ClassSpec("G", alpha=0.5), id="g-G"),
        pytest.param(None, None, id="verify"),
    ])
    def test_own_class_needs_no_eigensolve_and_no_fold(self, monkeypatch, capsys, f, spec):
        def refused(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np, "unique", refused)
        if f is None:
            assert cli.main(["verify"]) == 0, capsys.readouterr().out
        else:
            assert membership_test(f, spec).passed
            assert membership_margin(f, spec, 0.3 - 0.6j) > 0.0


class TestGaussLegendreTable:
    """The 16-point rule is a constant table, read where the rule is needed."""

    def test_integrates_every_degree_up_to_31(self):
        # The kept weights sum to 2 + 3.1e-15, the eigensolve's roundoff, so
        # the bound is 4e-15; x^32, past the rule's degree, misses by 7.2e-10.
        x, w = catalog._GL_NODES, catalog._GL_WEIGHTS
        for k in range(33):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert (abs(np.sum(w * x**k) - want) <= 4e-15) == (k < 32), k

    def test_matches_golub_welsch(self):
        # The eigenvalues of the Jacobi matrix and 2 v_0^2 of its eigenvectors.
        # Another LAPACK may round differently, so within 2 ulps, not bitwise.
        k = np.arange(1.0, 16.0)
        b = k / np.sqrt(4.0 * k * k - 1.0)
        nodes, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
        x, w = catalog._GL_NODES, catalog._GL_WEIGHTS
        np.testing.assert_array_max_ulp(x, nodes, maxulp=2)
        np.testing.assert_array_max_ulp(w, 2.0 * v[0] ** 2, maxulp=2)

    def test_read_only(self):
        for table in (catalog._GL_NODES, catalog._GL_WEIGHTS):
            assert table.shape == (16,) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestQuadratureAccuracy:
    """The quadrature entries against exact values: their M and G margins,
    which have closed forms, and f/z and z f'/f against mpmath's 2F1."""

    RADII = (0.5, 0.9, 0.99, 0.999)
    MARGIN_ALPHAS = (0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 2.0, 5.0, 30.0)

    # Relative error allowed in the margin of each entry at its own class, on
    # 256-point rings at RADII, at every alpha: about twice the worst measured.
    MARGIN_TOL = {"k_theta_alpha": 1.2e-12, "m_alpha_upper": 6e-13, "g_alpha_upper": 8e-13}

    def worst_margin_error(self, f, spec, exact):
        worst = 0.0
        for r in self.RADII:
            z = r * _ring(256)
            want = exact(z)
            worst = max(worst, np.max(np.abs(classes._margins(f, spec, z) - want) / np.abs(want)))
        return worst

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", MARGIN_ALPHAS)
    def test_k_margin_is_exact(self, theta, alpha):
        # The M(alpha) margin of k_theta_alpha is Re((1 + w)/(1 - w)), w = e^{i theta} z.
        rot = cmath.exp(1j * theta)
        err = self.worst_margin_error(k_theta_alpha(theta, alpha), ClassSpec("M", alpha=alpha),
                                      lambda z: ((1.0 + rot * z) / (1.0 - rot * z)).real)
        assert err <= self.MARGIN_TOL["k_theta_alpha"]

    @pytest.mark.parametrize("alpha", MARGIN_ALPHAS)
    def test_m_margin_is_exact(self, alpha):
        err = self.worst_margin_error(m_alpha_upper(alpha), ClassSpec("M", alpha=alpha),
                                      lambda z: ((1.0 + z * z) / (1.0 - z * z)).real)
        assert err <= self.MARGIN_TOL["m_alpha_upper"]

    @pytest.mark.parametrize("alpha", [a for a in MARGIN_ALPHAS if a <= 1.0] + [1.0])
    def test_g_margin_is_exact(self, alpha):
        # z f''/f' = z h'/h = -alpha z^2/(1 - z^2), so the margin is
        # alpha/2 + alpha Re(z^2/(1 - z^2)).
        err = self.worst_margin_error(g_alpha_upper(alpha), ClassSpec("G", alpha=alpha),
                                      lambda z: 0.5 * alpha + alpha * (z * z / (1.0 - z * z)).real)
        assert err <= self.MARGIN_TOL["g_alpha_upper"]

    # u = integral_0^1 h(z t^a) dt in closed form, as (2F1 parameters, its
    # argument, P, e, beta), h = P^e and f/z = u^beta.
    @staticmethod
    def hyp(label, alpha, z):
        a, one = mpmath.mpf(alpha), mpmath.mpf(1)
        if label == "k_theta_alpha":
            return (2 / a, 1 / a, 1 + 1 / a), z, 1 - z, -2 / a, a
        if label == "m_alpha_upper":
            return (1 / a, 1 / (2 * a), 1 + 1 / (2 * a)), z * z, 1 - z * z, -1 / a, a
        return (-a / 2, one / 2, 3 * one / 2), z * z, 1 - z * z, a / 2, one

    @pytest.mark.parametrize("f, tol", [
        pytest.param(k_theta_alpha(0.0, 0.3), 3e-14, id="k(0.3)"),
        pytest.param(k_theta_alpha(0.0, 30.0), 1.5e-13, id="k(30)"),
        pytest.param(m_alpha_upper(30.0), 1.5e-13, id="m(30)"),
        pytest.param(g_alpha_upper(1.0), 6e-15, id="g(1)"),
    ])
    def test_q_and_p_against_hypergeometric_oracle(self, f, tol):
        # The M margin at the entry's own alpha no longer reads p = z f'/f,
        # so p and q = f/z are checked against 2F1 at 40 digits, on the
        # evaluator's branch: log u = log h + log v, v = u/h off the negative axis.
        alpha = f.params["alpha"]
        ring = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        for r in self.RADII:
            z = r * ring
            q, p, _ = f.evaluator(z)
            want_q, want_p = [], []
            with mpmath.workdps(40):
                for x in z:
                    abc, arg, P, e, beta = self.hyp(f.label, alpha, mpmath.mpc(x))
                    u = mpmath.hyp2f1(*abc, arg)
                    lh = e * mpmath.log(P)
                    h = mpmath.exp(lh)
                    want_q.append(complex(mpmath.exp(beta * (lh + mpmath.log(u / h)))))
                    want_p.append(complex(h / u))
            for got, want in ((q, np.array(want_q)), (p, np.array(want_p))):
                assert np.max(np.abs(got - want) / np.abs(want)) <= tol


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
        # rotate(koebe(2.5), 0.7) is the real row of (1 - z)^2 read at
        # e^{3.2 i} z, whose double root `_roots` finds exactly.  On
        # membership_test's rings its ratios stay within 1e-14 of the exact
        # ones at the same rounded points (4.7e-16 at r = 0.999).
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
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_rotation_records_angle(self):
        f = f2(0.0)
        g = rotate(f, 0.25)
        assert g.row == f.row._replace(theta=0.25)
        assert g.params == f.params

    def test_repeated_rotation_records_total_angle(self):
        f = rotate(rotate(koebe(), 0.3), 0.4)
        assert f.row.theta == 0.3 + 0.4
        assert f.a(2) == pytest.approx(koebe(0.7).a(2), abs=1e-15)
        for g in (koebe(), f3(0.5), f4(0.8), k_theta_alpha(0.0, 0.7), m_alpha_upper(1.0)):
            for s, t in ((0.3, 0.4), (2.5, 0.7), (-1.0, 100.0)):
                assert rotate(rotate(g, s), t).row == rotate(g, s + t).row

    @pytest.mark.parametrize("label", [k for k, fam in FAMILIES.items() if fam.rotated])
    def test_rotated_rows_keep_real_coefficients(self, label):
        # The angle sits on the row; the coefficients are the unrotated ones.
        # f2 and f3 put half of theta there: f2(theta) is f2(0) rotated by theta/2.
        base = make(label, 0.0, lam=0.5, alpha=0.7).row
        half = 0.5 if label in ("f2", "f3") else 1.0
        for theta in (0.7, -2.0, 100.0):
            f = make(label, theta, lam=0.5, alpha=0.7)
            assert f.row == base._replace(theta=half * theta)
            assert rotate(f, 0.4).row.factors == base.factors
            assert all(complex(c).imag == 0 for P, e in f.row.factors for c in (*P, e))


def nearest_zero(c):
    """The least modulus of a root of c_0 + c_1 z + c_2 z^2 from `catalog._poly_roots`,
    taken by math.hypot as `check_analytic` takes it; inf for a constant."""
    roots = catalog._poly_roots([complex(x) for x in c])
    return min((math.hypot(r.real, r.imag) for r in roots), default=math.inf)


class TestPoleLocation:
    """The zeros that `check_analytic` reads, from `_poly_roots`."""

    def test_double_root_outside(self):
        assert nearest_zero([1, -1, 0.25]) == pytest.approx(2.0, abs=1e-12)

    def test_conjugate_pair(self):
        assert nearest_zero([1, -1, 0.4]) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_boundary_root_not_outside(self):
        assert nearest_zero([1, -2, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert nearest_zero([1, -0.5]) == pytest.approx(2.0)

    def test_trailing_zero_reduces_degree(self):
        assert nearest_zero([1, -0.5, 0]) == pytest.approx(2.0)

    def test_constant_has_no_roots(self):
        assert nearest_zero([3]) == math.inf

    def test_root_at_origin(self):
        assert nearest_zero([0, 0, 0.5]) == 0.0

    def test_zero_polynomial_rejected(self):
        # A zero factor never reaches `check_analytic`: the row needs P(0) = 1.
        with pytest.raises(ValueError, match=r"row needs P\(0\) = 1"):
            AnalyticFunction("adhoc", Row((((0.0, 0.0), -1.0),), 0.0, 1.0), {})

    def test_cubic_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            catalog._poly_roots([1, 1, 1, 1])

    @pytest.mark.parametrize("coeffs", [[math.nan], [1, math.nan], [1, -1, math.inf]])
    def test_non_finite_coefficient_refused(self, coeffs):
        # A factor with a non-finite coefficient is refused by the row's own
        # check, before `check_analytic` reads its zeros.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row values must be finite"):
                AnalyticFunction("adhoc", Row(((tuple(coeffs), -1.0),), 0.0, 1.0), {})

    def test_huge_coefficients(self):
        # (1 - z/2)^2 scaled by 1e300: the discriminant's terms would overflow.
        assert nearest_zero([1e300, -1e300, 0.25e300]) == pytest.approx(2.0, abs=1e-12)

    def test_root_beyond_the_float_range(self):
        # The root's parts are finite and its modulus is not: hypot gives inf,
        # where abs raises OverflowError.
        assert nearest_zero([1.7e308 + 1.7e308j, 1]) == math.inf
        row = Row((((1.0, 3e-309 + 3e-309j), -1.0),), 0.0, 1.0)
        AnalyticFunction("adhoc", row, {}).check_analytic()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
    def test_finite_or_inf(self, coeffs):
        # The modulus is inf only for a root beyond the float range, or for a
        # constant, which has no root; it is never NaN.
        assume(any(coeffs))
        assert nearest_zero(coeffs) >= 0.0

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            want = np.abs(np.roots(c[::-1])).min()
            assert nearest_zero(c) == pytest.approx(want, rel=1e-9)


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

    @pytest.mark.parametrize("f, n", [
        (k_theta_alpha(0.0, 0.05), 200),
        (k_theta_alpha(0.0, 0.01), 256),
        (m_alpha_upper(0.01), 256),
    ], ids=["k_0.05_200", "k_0.01_256", "m_0.01_256"])
    def test_series_matches_the_oracle_at_small_alpha(self, f, n):
        # At small alpha the coefficients of h grow like n^(2/alpha) and
        # cancel in u^beta, so only a route that keeps L = log h out of
        # h's coefficients holds every a_n to a few ulps.
        want = power_coefficients(f.row, n)
        assert (np.abs(f.series(n).coeffs - want) <= 1e-14 * np.abs(want)).all()

    def test_overflowing_series_build_refused(self):
        # u^200 with u ~ (1 - z)^-400 overflows from a_155: refused by name
        # of the first bad coefficient, and silently, with no numpy
        # RuntimeWarning reaching the caller.
        f = AnalyticFunction("adhoc", Row((((1.0, -1.0), -400.0),), 200.0, 200.0), {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"series coefficient a_155 = .* is not finite"):
                f.series(2048)

    def test_default_order_builds_stay_finite_at_small_alpha(self):
        # Order-32 builds: the coefficients grow faster as alpha falls; 1e-4
        # lies below every alpha whose quadrature rule fits under the node cap
        # (about 3.5e-4 for k_theta_alpha and 1.9e-4 for m_alpha_upper).  They
        # are finite and, a rotation aside, the oracle's to 1e-14 relative.
        for f in (k_theta_alpha(0.7, 1e-4), m_alpha_upper(1e-4)):
            turn = np.array([expi(f.row.theta, n - 1) for n in range(33)])
            want = power_coefficients(f.row, 32) * turn
            assert (np.abs(f.series(32).coeffs - want) <= 1e-14 * np.abs(want)).all()

    @pytest.mark.parametrize("alpha", [1e-8, 1e-5, 1e-3])
    def test_small_alpha_head_coefficients(self, alpha):
        f = k_theta_alpha(0.0, alpha)
        want = power_coefficients(f.row, 4)
        for n in (2, 3, 4):
            assert abs(f.a(n) - want[n]) <= 1e-15

    def test_underflowing_row_refused_as_gamma_refuses_it(self):
        f = k_theta_alpha(0.0, 1e200)
        words = "k_theta_alpha {'theta': 0.0, 'alpha': 1e+200}: the row's terms underflow"
        for read in (lambda: f.a(2), lambda: functional.log_coefficients(f, 2)):
            with pytest.raises(ValueError, match=re.escape(words)):
                read()

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
    def test_order_that_is_not_an_integer_refused(self, n):
        with pytest.raises(ValueError, match="order must be an integer of at least 2"):
            koebe().series(n)

    def test_numpy_integer_order_accepted(self):
        assert koebe().series(np.int64(8)).coeffs.tobytes() == koebe().series(8).coeffs.tobytes()

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
