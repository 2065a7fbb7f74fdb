"""Tests for class specifications, membership margins, and coefficient checks."""

import cmath
import dataclasses
import functools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import catalog, cli
from logcoef.bounds import M_BRANCH_ALPHA
from logcoef.catalog import (
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
)
from logcoef.classes import (
    KINDS,
    MAX_ANGULAR,
    ClassSpec,
    MembershipReport,
    SingularSampleError,
    _body,
    _margins,
    _ring,
    asserted_memberships,
    coeff_bound_A_check,
    e11_slack,
    eq10_slack,
    membership_margin,
    membership_test,
    membership_tests,
    u_aux_check,
)
from logcoef.series import TruncatedSeries

from _rows import entry_from_coeffs


class TestClassSpec:
    def test_labels(self):
        assert ClassSpec("S").label() == "S"
        assert ClassSpec("U", lam=0.8).label() == "U(0.8)"
        assert ClassSpec("M", alpha=1.5).label() == "M(1.5)"
        assert ClassSpec("G", alpha=1.0).label() == "G(1)"

    def test_label_prints_parameter_in_full(self):
        assert ClassSpec("G", alpha=0.123456789).label() == "G(0.123456789)"
        assert ClassSpec("M", alpha=1e-7).label() == "M(1e-07)"
        assert ClassSpec("M", alpha=100.0).label() == "M(100)"

    def test_negative_zero_is_zero(self):
        spec = ClassSpec.of("M", -0.0)
        assert math.copysign(1.0, spec.alpha) == 1.0
        assert spec.label() == "M(0)"

    def test_param_accessor(self):
        assert ClassSpec("U", lam=0.3).param == 0.3
        assert ClassSpec("M", alpha=2.0).param == 2.0
        assert ClassSpec("S").param is None

    def test_u_range(self):
        with pytest.raises(ValueError):
            ClassSpec("U", lam=0.0)
        with pytest.raises(ValueError):
            ClassSpec("U", lam=1.2)
        with pytest.raises(ValueError):
            ClassSpec("U")

    def test_m_range(self):
        with pytest.raises(ValueError):
            ClassSpec("M", alpha=-0.1)
        with pytest.raises(ValueError):
            ClassSpec("M")

    def test_g_range(self):
        with pytest.raises(ValueError):
            ClassSpec("G", alpha=0.0)
        with pytest.raises(ValueError):
            ClassSpec("G", alpha=1.1)

    def test_cross_parameter_rejected(self):
        with pytest.raises(ValueError, match="not lambda"):
            ClassSpec("M", alpha=1.0, lam=0.5)
        with pytest.raises(ValueError, match="not alpha"):
            ClassSpec("U", lam=0.5, alpha=1.0)
        with pytest.raises(ValueError, match="no parameter"):
            ClassSpec("S", lam=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown class"):
            ClassSpec("X")

    @pytest.mark.parametrize("kind", ["U", "M", "G"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, kind, value):
        with pytest.raises(ValueError, match="must be finite"):
            ClassSpec.of(kind, value)

    def test_of_picks_the_keyword(self):
        assert ClassSpec.of("U", 0.3) == ClassSpec("U", lam=0.3)
        assert ClassSpec.of("M", 2.0) == ClassSpec("M", alpha=2.0)
        assert ClassSpec.of("G", 0.5) == ClassSpec("G", alpha=0.5)
        assert ClassSpec.of("S") == ClassSpec("S")


class TestMargins:
    def test_u_margin_of_quadratic_rational(self):
        # For z/q with quadratic q the U expression is 1 - (z/f)^2 f' = c z^2,
        # so the margin is lam - |c| r^2 at every angle.
        for f, lam, mag in [
            (f3(0.6, 0.0), 0.6, 0.6),
            (f1(0.0), 1.0, 1.0),
            (f4(0.5), 0.5, 0.5),
            (f5(0.25), 0.25, 0.25),
        ]:
            spec = ClassSpec("U", lam=lam)
            for z in (0.5j, -0.3 + 0.2j):
                want = lam - mag * abs(z) ** 2
                assert membership_margin(f, spec, z) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("f, lam, c", [
        pytest.param(f1(0.0), 1.0, 1.0, id="f1"),
        pytest.param(f1(1.1), 1.0, 1.0, id="f1-rotated"),
        pytest.param(f2(0.3), 1.0, 1.0, id="f2"),
        pytest.param(f3(0.8, 0.0), 0.8, 0.8, id="f3"),
        pytest.param(f3(0.6, 2.0), 0.6, 0.6, id="f3-rotated"),
        pytest.param(f3(1e-15, 0.0), 1e-15, 1e-15, id="f3-tiny"),
        pytest.param(f4(0.5), 0.5, 0.5, id="f4(0.5)"),
        pytest.param(f4(0.77), 0.77, 0.77, id="f4(0.77)"),
        pytest.param(f5(0.25), 0.25, 0.25, id="f5(0.25)"),
        pytest.param(f5(0.01), 0.01, 0.01, id="f5(0.01)"),
    ])
    def test_u_margin_of_z_over_p_is_exact(self, f, lam, c):
        # For f = z/P, (z/f)^2 f' - 1 = P - z P' - 1 = -c z^2: the margin is
        # lam - |c| |z|^2 at every sample, to 2 ulps of lam (1.3 measured).
        spec = ClassSpec("U", lam=lam)
        radii = (0.5, 0.9, 0.99, 0.999)
        grid = np.asarray(radii)[:, None] * _ring(256)
        got = _margins(f, spec, grid)
        exact = [[float(Fraction(lam) - Fraction(c) * (Fraction(z.real) ** 2 + Fraction(z.imag) ** 2))
                  for z in ring] for ring in grid]
        assert np.abs(got - exact).max() <= 2.0 * np.spacing(lam)
        rep = membership_test(f, spec, radii=radii)
        assert rep.passed and rep.skipped == 0
        assert rep.margin_by_radius == tuple(got.min(axis=1))

    def test_u_margin_of_z_over_p_keeps_a_tiny_lambda(self):
        # lam (1 - r^2) = 1.99e-17 at r = 0.99: once lost to cancellation in
        # |(z/f)^2 f' - 1|, which read -1.35e-16 and failed.
        rep = membership_test(f3(1e-15, 0.0), ClassSpec("U", lam=1e-15))
        assert rep.passed
        assert rep.margin_by_radius[-1] == pytest.approx(1e-15 * (1.0 - 0.99**2), rel=1e-14)

    def test_koebe_starlike_margin(self):
        # z k'/k = (1+z)/(1-z), margin at z=1/2 is 3
        spec = ClassSpec("M", alpha=0.0)
        assert membership_margin(koebe(), spec, 0.5) == pytest.approx(3.0, abs=1e-12)
        assert membership_margin(koebe(), spec, -0.99) == pytest.approx(
            0.01 / 1.99, abs=1e-12
        )

    def test_g_upper_margin(self):
        # 1 + z f''/f' = 1 - alpha z^2/(1-z^2); at z = i r the margin is
        # alpha/2 - alpha r^2/(1+r^2)
        f = g_alpha_upper(0.8)
        spec = ClassSpec("G", alpha=0.8)
        r = 0.7
        want = 0.4 - 0.8 * r * r / (1 + r * r)
        assert membership_margin(f, spec, 1j * r) == pytest.approx(want, abs=1e-12)

    def test_m_upper_margin_at_alpha_zero(self):
        # z f'/f = (1+z^2)/(1-z^2) for z/(1-z^2); at z = 0.99i the real part
        # is (1-r^2)/(1+r^2)
        f = m_alpha_upper(0.0)
        spec = ClassSpec("M", alpha=0.0)
        want = (1 - 0.9801) / (1 + 0.9801)
        assert membership_margin(f, spec, 0.99j) == pytest.approx(want, abs=1e-12)

    def test_removable_limit_at_origin(self):
        assert membership_margin(f3(0.7, 0.0), ClassSpec("U", lam=0.7), 0.0) == 0.7
        assert membership_margin(koebe(), ClassSpec("M", alpha=2.0), 0.0) == 1.0
        assert membership_margin(g_quadratic(), ClassSpec("G", alpha=1.0), 0.0) == 0.5

    @pytest.mark.parametrize("z", [5e-324, 1e-310, 1e-310j, 2.2e-308])
    def test_subnormal_point_gives_origin_limit(self, z):
        # The ratios f/z, z f'/f and z f''/f' stay finite down to the
        # smallest subnormal, so the margins there are their z -> 0 limits.
        for f, spec, limit in [
            (koebe(), ClassSpec("M", alpha=0.0), 1.0),
            (f3(0.7, 0.0), ClassSpec("U", lam=0.7), 0.7),
            (g_alpha_upper(0.5), ClassSpec("G", alpha=0.5), 0.25),
            (k_theta_alpha(0.0, 0.5), ClassSpec("M", alpha=0.5), 1.0),
        ]:
            assert abs(membership_margin(f, spec, z) - limit) <= 1e-14

    def test_subnormal_radius_accepted(self):
        spec = ClassSpec("U", lam=1.0)
        for r in (5e-324, 0.5 * sys.float_info.min):
            rep = membership_test(koebe(), spec, radii=(r,), angular=8)
            assert rep.passed and abs(rep.worst_margin - 1.0) <= 1e-14
        with pytest.raises(ValueError, match="radii"):
            membership_test(koebe(), spec, radii=(0.0,))

    def test_class_s_has_no_pointwise_test(self):
        with pytest.raises(ValueError, match="class S"):
            membership_margin(f1(), ClassSpec("S"), 0.5)

    @pytest.mark.parametrize("z", [1.0, 1.5, 1j, complex(math.nan, 0.0)])
    def test_point_outside_open_disk_rejected(self, z):
        # The integral behind this entry's evaluator diverges at |z| >= 1.
        f = k_theta_alpha(0.0, 1.0)
        with pytest.raises(ValueError, match="inside the unit disk"):
            membership_margin(f, ClassSpec("M", alpha=1.0), z)

    def test_singular_sample_raises(self):
        # f = z - z^2 has f'(1/2) = 0, so the convexity quotient blows up
        f = entry_from_coeffs([0, 1, -1])
        with pytest.raises(SingularSampleError):
            membership_margin(f, ClassSpec("M", alpha=1.0), 0.5)

    def test_vanishing_f_raises_for_u(self):
        # f = z - 2 z^2 vanishes at 1/2
        f = entry_from_coeffs([0, 1, -2])
        with pytest.raises(SingularSampleError):
            membership_margin(f, ClassSpec("U", lam=1.0), 0.5)


class TestClosedFormNearPoles:
    """The rational entries keep their margins next to a pole on the circle."""

    def test_koebe_starlike_next_to_its_pole(self):
        rep = membership_test(koebe(0.0), ClassSpec("M", alpha=0.0), radii=(0.999999999,))
        assert rep.skipped == 0
        assert rep.passed

    def test_koebe_g_margin_next_to_its_pole(self):
        # koebe has 1 + z f''/f' = (1 + 4z + z^2) / ((1 - z)(1 + z)).
        z = 0.999999 * np.exp(2j * np.pi * np.arange(256) / 256)
        got = np.array([membership_margin(koebe(0.0), ClassSpec("G", alpha=1.0), w) for w in z])
        exact = 1.5 - ((1.0 + 4.0 * z + z * z) / ((1.0 - z) * (1.0 + z))).real
        assert np.max(np.abs(got - exact)) <= 1e-9 * np.max(np.abs(exact))


class TestFailClosed:
    def test_overflowing_margin_refused(self):
        # f and f' are finite and nonzero; the M(1e308) margin's terms overflow.
        with pytest.raises(ValueError, match=r"M\(1e\+308\) margin overflows"):
            membership_margin(koebe(), ClassSpec("M", alpha=1e308), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        label=st.sampled_from(LABELS),
        theta=st.floats(),
        param=st.floats(),
        kind=st.sampled_from(KINDS),
        class_param=st.floats(),
        x=st.floats(),
        y=st.floats(),
    )
    def test_margin_finite_or_refused(self, label, theta, param, kind, class_param, x, y):
        try:
            f = make(label, theta=theta, lam=param, alpha=param)
            spec = ClassSpec("S") if kind == "S" else ClassSpec.of(kind, class_param)
            v = membership_margin(f, spec, complex(x, y))
        except ValueError:
            return
        assert math.isfinite(v)


class TestQuadratureMargins:
    """The integral-defined extremals against their exact margins.

    k_theta_alpha and m_alpha_upper solve (1 - alpha) z f'/f + alpha (1 + z f''/f')
    = (1 + w)/(1 - w), with w = e^{i theta} z and w = z^2 respectively.
    """

    RING = np.exp(2j * np.pi * np.arange(64) / 64)

    @pytest.mark.parametrize(
        "alpha", [0.1, 0.25, 0.3, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 3.0, 5.0]
    )
    @pytest.mark.parametrize("label, theta", [
        ("k_theta_alpha", 0.0), ("k_theta_alpha", 2.5), ("m_alpha_upper", 0.0),
    ])
    def test_m_margin_matches_exact(self, label, theta, alpha):
        if label == "k_theta_alpha":
            f = k_theta_alpha(theta, alpha)
        else:
            f = m_alpha_upper(alpha)
        spec = ClassSpec("M", alpha=alpha)
        for r in (0.5, 0.9, 0.99) + ((0.995,) if alpha <= 3.0 else ()):
            z = r * self.RING
            w = np.exp(1j * theta) * z if label == "k_theta_alpha" else z * z
            exact = ((1.0 + w) / (1.0 - w)).real
            got = [membership_margin(f, spec, p) for p in z[::8]]
            # The margin is 1 + alpha Re(z h'/h), read without the quadrature:
            # a few ulps of its largest term.
            np.testing.assert_allclose(got, exact[::8], rtol=2e-15, atol=1e-15)
            rep = membership_test(f, spec, radii=(r,), angular=64)
            assert abs(rep.worst_margin - exact.min()) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_g_margin_matches_exact(self, alpha):
        # g_alpha_upper has f''/f' = -alpha z/(1 - z^2), so its G margin
        # 1 + alpha/2 - Re(1 + z f''/f') is alpha/2 + alpha Re(z^2/(1 - z^2)).
        f = g_alpha_upper(alpha)
        spec = ClassSpec("G", alpha=alpha)
        for r in (0.5, 0.9, 0.99, 0.999):
            z = r * self.RING
            exact = alpha / 2.0 + alpha * (z * z / (1.0 - z * z)).real
            got = [membership_margin(f, spec, p) for p in z[::8]]
            np.testing.assert_allclose(got, exact[::8], rtol=0, atol=1e-9)
            rep = membership_test(f, spec, radii=(r,), angular=64)
            assert abs(rep.worst_margin - exact.min()) <= 1e-9

    @pytest.mark.parametrize("alpha", [1e-15, 1e-300])
    def test_g_margin_keeps_tiny_alpha(self, alpha):
        # The margin is alpha/2 - Re(z f''/f'), with no 1s for alpha to be
        # lost against: g_alpha_upper passes however small alpha is.
        f = g_alpha_upper(alpha)
        spec = ClassSpec("G", alpha=alpha)
        assert membership_test(f, spec).passed
        for r in (0.5, 0.9, 0.99):
            z = r * self.RING
            exact = alpha * (0.5 + (z * z / (1.0 - z * z)).real)
            got = [membership_margin(f, spec, p) for p in z]
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_m_margin_small_alpha(self, alpha):
        # The integrand's peak over sigma lies far from the bulk of its weight
        # here; the sums must stay finite all the same.
        f = k_theta_alpha(0.0, alpha)
        for z in (-0.99, 0.99j, 0.9 * np.exp(1j)):
            want = ((1.0 + z) / (1.0 - z)).real
            assert abs(membership_margin(f, ClassSpec("M", alpha=alpha), z) - want) <= 1e-9

    @pytest.mark.parametrize("r", [0.25, 0.5])
    def test_u_margin_agrees_with_series(self, r):
        # The U margin reads f itself, so it checks the branch of v^alpha.
        # At r <= 0.5 the order-64 series' dropped tail is negligible.
        f = k_theta_alpha(0.7, 0.5)
        s = f.series(64)
        d1 = TruncatedSeries(s.coeffs[1:] * np.arange(1, s.order + 1), order=s.order)
        spec = ClassSpec("U", lam=1.0)
        for z in r * self.RING[::4]:
            want = 1.0 - abs((z / s(z)) ** 2 * d1(z) - 1.0)
            assert abs(membership_margin(f, spec, z) - want) <= 1e-10

    @pytest.mark.parametrize("label", ["k_theta_alpha", "m_alpha_upper"])
    def test_m_margin_at_largest_alpha(self, label):
        # At the evaluation cap, alpha = 1e6, the margin 1 + alpha Re(z h'/h)
        # keeps the relative error it has at alpha = 1 (5.4e-14 measured).
        alpha = 1e6
        f = make(label, alpha=alpha)
        z = 0.99 * self.RING
        w = z if label == "k_theta_alpha" else z * z
        exact = ((1.0 + w) / (1.0 - w)).real
        got = [membership_margin(f, ClassSpec("M", alpha=alpha), p) for p in z]
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 2e-13

    # The refusals of the quadrature stay on the closed-form margins, with the
    # same words as the evaluator's.
    @pytest.mark.parametrize("f, alpha, message", [
        (k_theta_alpha(0.0, 1e-4), 1e-4, "quadrature would need 401248 nodes, more than 100000; "
                                         "the integrand (power 20000) is too sharp"),
        (k_theta_alpha(0.0, 1e7), 1e7, "k_theta_alpha is evaluated only at alpha <= 1e+06, "
                                       "got 10000000.0"),
        (m_alpha_upper(1e7), 1e7, "m_alpha_upper is evaluated only at alpha <= 1e+06, "
                                  "got 10000000.0"),
    ], ids=["k_nodes", "k_alpha", "m_alpha"])
    def test_own_class_refusals_kept(self, f, alpha, message):
        spec = ClassSpec("M", alpha=alpha)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            membership_test(f, spec)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            membership_margin(f, spec, 0.5)

    @pytest.mark.parametrize("f, spec", [
        (k_theta_alpha(0.0, 0.5), ClassSpec("M", alpha=0.5)),
        (g_alpha_upper(0.5), ClassSpec("G", alpha=0.5)),
    ], ids=["k-M", "g-G"])
    @pytest.mark.parametrize("z", [1.0, -1j, 0.6 + 0.8j])
    def test_own_class_margin_needs_the_open_disk(self, f, spec, z):
        message = f"z must lie inside the unit disk, got {complex(z)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            membership_margin(f, spec, z)

    def test_vanishing_h_is_a_singular_sample(self):
        # f' = h = 1 - 2z vanishes at 1/2 (a = 1), where the G margin reads z h'/h.
        f = AnalyticFunction("adhoc", Row((((1.0, -2.0), 1.0),), 1.0, 1.0), {})
        spec = ClassSpec("G", alpha=1.0)
        with pytest.raises(SingularSampleError):
            membership_margin(f, spec, 0.5)
        rep = membership_test(f, spec, radii=(0.5,), angular=4)
        assert rep.skipped == 1 and not rep.passed


class TestMembershipTest:
    def test_report_shape_and_pass(self):
        rep = membership_test(f3(0.8, 0.0), ClassSpec("U", lam=0.8), angular=64)
        assert isinstance(rep, MembershipReport)
        assert rep.passed
        assert rep.skipped == 0
        assert rep.label == "f3"
        assert len(rep.margin_by_radius) == 3
        # worst ring is the outermost one; margin there is lam (1 - r^2)
        assert rep.worst_margin == pytest.approx(0.8 * (1 - 0.99**2), abs=1e-12)
        assert abs(abs(rep.witness) - 0.99) < 1e-12

    def test_margin_by_radius_ordering(self):
        rep = membership_test(f3(0.8, 0.0), ClassSpec("U", lam=0.8), angular=32)
        want = [0.8 * (1 - r * r) for r in (0.5, 0.9, 0.99)]
        np.testing.assert_allclose(rep.margin_by_radius, want, atol=1e-12)

    @pytest.mark.parametrize("f, spec", [
        (koebe(), ClassSpec("M", alpha=0.0)),
        (g_quadratic(), ClassSpec("G", alpha=1.0)),
        # f = z has the margin lam at every point: all samples tie.
        (entry_from_coeffs([0, 1]), ClassSpec("U", lam=0.5)),
    ], ids=["koebe", "g_quadratic", "tie"])
    def test_reduction_matches_a_loop_over_points(self, f, spec):
        # The reference reduction: one point at a time, in (radius, angle)
        # order, keeping the first of equal margins.
        radii = (0.5, 0.9, 0.99)
        ring = _ring(16)
        worst, witness, per_radius = math.inf, None, []
        for r in radii:
            row = [(membership_margin(f, spec, z), complex(z)) for z in r * ring]
            per_radius.append(min(m for m, _ in row))
            for m, z in row:
                if m < worst:
                    worst, witness = m, z
        rep = membership_test(f, spec, radii=radii, angular=16)
        assert (rep.worst_margin, rep.witness) == (worst, witness)
        assert rep.margin_by_radius == tuple(per_radius)

    @pytest.mark.parametrize("angular", [1, 2, 3, 4, 6, 7, 16, 128, 255, 256, MAX_ANGULAR])
    def test_ring_is_exactly_symmetric(self, angular):
        n = angular
        ring = _ring(n)
        j = np.arange(1, n)
        assert np.array_equal(ring[n - j], ring[j].conj())
        if n % 2 == 0:
            # cos(pi/2) is not 0, so only conj ties ring[n/4] to ring[3n/4].
            j = np.array([k for k in range(n // 2) if 4 * k != n])
            assert np.array_equal(ring[j + n // 2], -ring[j])
        exact = np.exp(2j * np.pi * np.arange(n) / n)
        assert np.abs(ring - exact).max() <= 2e-15

    def test_ring_is_built_once_and_read_only(self):
        assert _ring(64) is _ring(64)
        assert not _ring(64).flags.writeable

    @pytest.mark.parametrize("f, spec", [
        pytest.param(k_theta_alpha(0.0, 0.3), ClassSpec("M", alpha=0.3), id="k(0,0.3)"),
        pytest.param(m_alpha_upper(1.0), ClassSpec("M", alpha=1.0), id="m(1)"),
        pytest.param(g_alpha_upper(0.5), ClassSpec("G", alpha=0.5), id="g(0.5)"),
    ])
    def test_mirror_margins_tie_to_the_first_point(self, f, spec):
        # A real row's margins are equal at conjugate points, an even row's
        # at opposite points; the witness is the first of them in angle order.
        n = 64
        ring = _ring(n)
        margins = np.array([membership_margin(f, spec, z) for z in 0.9 * ring])
        j = np.arange(1, n)
        assert np.array_equal(margins[n - j], margins[j])
        if f.label != "k_theta_alpha":
            j = np.arange(n // 2)
            assert np.array_equal(margins[j + n // 2], margins[j])
        rep = membership_test(f, spec, radii=(0.9,), angular=n)
        first = int(np.argmin(margins))
        assert (rep.worst_margin, rep.witness) == (margins[first], 0.9 * ring[first])

    @staticmethod
    def per_radius(f, spec, radii, angular):
        """(worst, witness, margin_by_radius, skipped) from one `_margins` call per
        radius, reduced as membership_test reduces its grid."""
        grid = np.asarray(radii)[:, None] * _ring(angular)
        margins = np.stack([_margins(f, spec, zs) for zs in grid])
        finite = np.isfinite(margins)
        worst = np.unravel_index(np.argmin(np.where(finite, margins, np.inf)), margins.shape)
        by_radius = tuple(float(np.nanmin(m)) if ok.any() else math.nan
                          for m, ok in zip(margins, finite))
        worst_margin = float(margins[worst]) if finite.any() else math.nan
        return worst_margin, complex(grid[worst]), by_radius, int(np.count_nonzero(~finite))

    # The five quadrature memberships that read the ratios, and a grid whose
    # first ring is all singular.
    RATIO_PATH = [
        (k_theta_alpha(0.0, 0.3), ClassSpec("M", alpha=0.5)),
        (m_alpha_upper(1.0), ClassSpec("M", alpha=2.0)),
        (m_alpha_upper(2.0), ClassSpec("M", alpha=0.0)),
        (g_alpha_upper(0.5), ClassSpec("M", alpha=0.5)),
        (k_theta_alpha(0.4, 0.5), ClassSpec("G", alpha=0.5)),
    ]
    SINGULAR = (AnalyticFunction("adhoc", Row((((1.0, -2.0), 1.0),), 1.0, 1.0), {}),
                ClassSpec("G", alpha=1.0))

    @pytest.mark.parametrize("radii, angular", [((0.5, 0.9, 0.99), 256), ((0.99, 0.5), 7)],
                             ids=["default", "reversed-7"])
    @pytest.mark.parametrize("f, spec", [
        pytest.param(f, spec, id=f"{f.label}{tuple(f.params.values())}-{spec.label()}")
        for f, spec in [*asserted_memberships(), *RATIO_PATH, SINGULAR]
    ])
    def test_one_call_per_grid_matches_one_call_per_radius(self, f, spec, radii, angular):
        rep = membership_test(f, spec, radii=radii, angular=angular)
        got = (rep.worst_margin, rep.witness, rep.margin_by_radius, rep.skipped)
        assert repr(got) == repr(self.per_radius(f, spec, radii, angular))

    # Both verify grids, and the pairs verify tests on them.
    VERIFY_GRIDS = [((0.5, 0.9), 128), ((0.5, 0.9, 0.99), 256)]
    VERIFY_PAIRS = [*asserted_memberships(), (koebe(0.0), ClassSpec("G", alpha=1.0))]

    @pytest.mark.parametrize("radii, angular", VERIFY_GRIDS, ids=["quick", "all"])
    def test_stacked_reports_are_each_pairs_own(self, radii, angular):
        # One stacked reduction gives every pair the report of its own
        # membership_test, field for field; NaN reads as NaN in a repr.  The
        # singular pair has skipped samples and a NaN ring.
        pairs = [*self.VERIFY_PAIRS, *self.RATIO_PATH, self.SINGULAR]
        reports = membership_tests(pairs, radii, angular)
        assert len(reports) == len(pairs)
        assert reports[-1].skipped > 0
        for (f, spec), rep in zip(pairs, reports):
            alone = membership_test(f, spec, radii=radii, angular=angular)
            assert repr(dataclasses.astuple(rep)) == repr(dataclasses.astuple(alone))
            got = (rep.worst_margin, rep.witness, rep.margin_by_radius, rep.skipped)
            assert repr(got) == repr(self.per_radius(f, spec, radii, angular))
        assert membership_tests([], radii, angular) == []

    def test_all_singular_ring_in_a_stack(self):
        f, spec = self.SINGULAR
        rep = membership_tests([(koebe(0.0), ClassSpec("M", alpha=0.0)), self.SINGULAR],
                               (0.5, 0.9), 1)[1]
        assert repr(dataclasses.astuple(rep)) == repr(
            dataclasses.astuple(membership_test(f, spec, radii=(0.5, 0.9), angular=1)))
        assert math.isnan(rep.margin_by_radius[0]) and rep.skipped == 1

    def test_stack_refuses_as_the_first_single_call_would(self):
        # k_theta_alpha at alpha = 1e7 is past the evaluator's cap; the pole
        # after it, and the radius check before any pair, refuse in their own words.
        refused = (k_theta_alpha(0.0, 1e7), ClassSpec("M", alpha=1e7))
        with pytest.raises(ValueError) as alone:
            membership_test(*refused, radii=(0.5, 0.9), angular=128)
        message = "k_theta_alpha is evaluated only at alpha <= 1e+06, got 10000000.0"
        assert str(alone.value) == message
        pairs = [*asserted_memberships()[:3], refused,
                 (TestAnalyticity.POLE, ClassSpec("U", lam=1.0))]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            membership_tests(pairs, (0.5, 0.9), 128)
        with pytest.raises(ValueError, match=f"^{re.escape(TestAnalyticity.MESSAGE)}$"):
            membership_tests(pairs[:3] + pairs[4:], (0.5, 0.9), 128)
        with pytest.raises(ValueError, match="radii"):
            membership_tests(pairs, (0.5, 1.0), 128)

    def test_all_singular_ring_reads_nan(self):
        f, spec = self.SINGULAR
        rep = membership_test(f, spec, radii=(0.5, 0.9), angular=1)
        assert math.isnan(rep.margin_by_radius[0]) and math.isfinite(rep.margin_by_radius[1])
        assert rep.skipped == 1 and not rep.passed
        got = (rep.worst_margin, rep.witness, rep.margin_by_radius, rep.skipped)
        assert repr(got) == repr(self.per_radius(f, spec, (0.5, 0.9), 1))

    @staticmethod
    def spied(f):
        """A copy of entry f whose evaluator and dlog_h record which was called, on what shape."""
        g = AnalyticFunction(f.label, f.row, f.params)
        calls = []
        for name in ("evaluator", "dlog_h"):
            inner = getattr(g, name)
            if inner is not None:
                def spy(z, inner=inner, name=name):
                    calls.append((name, np.shape(z)))
                    return inner(z)

                object.__setattr__(g, name, spy)
        return g, calls

    @pytest.mark.parametrize("f, spec, called", [
        pytest.param(koebe(0.0), ClassSpec("M", alpha=0.0), "evaluator", id="koebe-M"),
        pytest.param(koebe(2.5), ClassSpec("G", alpha=1.0), "evaluator", id="koebe-G"),
        pytest.param(g_quadratic(), ClassSpec("G", alpha=1.0), "evaluator", id="g_quadratic-G"),
        pytest.param(g_quadratic(), ClassSpec("U", lam=1.0), "evaluator", id="g_quadratic-U"),
        pytest.param(m_alpha_upper(0.0), ClassSpec("M", alpha=0.0), "evaluator", id="m(0)-M"),
        pytest.param(k_theta_alpha(0.0, 0.5), ClassSpec("M", alpha=0.5), "dlog_h", id="k-M"),
        pytest.param(k_theta_alpha(1.0, 2.0), ClassSpec("M", alpha=2.0), "dlog_h", id="k-rotated-M"),
        pytest.param(m_alpha_upper(2.0), ClassSpec("M", alpha=2.0), "dlog_h", id="m-M"),
        pytest.param(g_alpha_upper(0.5), ClassSpec("G", alpha=0.5), "dlog_h", id="g-G"),
        pytest.param(k_theta_alpha(0.4, 1.0), ClassSpec("G", alpha=0.5), "dlog_h", id="k(1)-G"),
        pytest.param(f3(0.6, 2.0), ClassSpec("U", lam=0.6), None, id="f3-U"),
        pytest.param(koebe(0.0), ClassSpec("U", lam=1.0), None, id="koebe-U"),
    ])
    def test_one_evaluation_per_test(self, f, spec, called):
        # Closed and own-class margins depend on their own point alone, so the
        # grid goes to the evaluator, or to z h'/h, in one call; the U margin
        # of z/P calls neither.
        g, calls = self.spied(f)
        membership_test(g, spec)
        assert calls == ([(called, (3, 256))] if called else [])

    # k_theta_alpha(0, 3.6e-4) refuses from r = 0.9999 on, with a node count
    # that grows with r; M(1e308)'s margin overflows on every ring.
    @pytest.mark.parametrize("spec", [ClassSpec("M", alpha=3.6e-4), ClassSpec("U", lam=1.0),
                                      ClassSpec("M", alpha=1e308)], ids=lambda s: s.label())
    @pytest.mark.parametrize("radii, nodes", [((0.5, 0.99999, 0.9999), 137136),
                                              ((0.5, 0.9999, 0.99999), 111536)])
    def test_refusal_names_the_first_refusing_ring(self, spec, radii, nodes):
        f = k_theta_alpha(0.0, 3.6e-4)
        with pytest.raises(ValueError) as first:
            for r in radii:
                _margins(f, spec, r * _ring(64))
        message = (f"quadrature would need {nodes} nodes, more than 100000; the integrand "
                   f"(power 5555.56) is too sharp")
        if spec.alpha == 1e308:
            message = "the M(1e+308) margin overflows at z = (0.5+0j)"
        assert str(first.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            membership_test(f, spec, radii=radii, angular=64)

    def test_failing_membership(self):
        rep = membership_test(koebe(), ClassSpec("G", alpha=1.0), radii=(0.5,), angular=64)
        assert not rep.passed
        assert rep.worst_margin < 0

    def test_singular_samples_force_failure(self):
        f = entry_from_coeffs([0, 1, -1])
        rep = membership_test(f, ClassSpec("M", alpha=1.0), radii=(0.5,), angular=4)
        assert rep.skipped >= 1
        assert not rep.passed

    def test_overflowing_margin_refused(self):
        # Only a margin that divides by zero is a skipped sample.
        with pytest.raises(ValueError, match=r"M\(1e\+308\) margin overflows at z = \(0.5\+0j\)"):
            membership_test(koebe(), ClassSpec("M", alpha=1e308), radii=(0.5,))

    def test_radii_validated(self):
        with pytest.raises(ValueError, match="radii"):
            membership_test(f1(), ClassSpec("U", lam=1.0), radii=(0.5, 1.0))
        with pytest.raises(ValueError, match="radii"):
            membership_test(f1(), ClassSpec("U", lam=1.0), radii=())

    def test_angular_validated(self):
        with pytest.raises(ValueError, match="angular"):
            membership_test(f1(), ClassSpec("U", lam=1.0), angular=0)

    @pytest.mark.parametrize("angular", [2.9, True, 4.0], ids=["float", "bool", "whole_float"])
    def test_angular_must_be_an_integer(self, angular):
        # int() would truncate 2.9 to 2 and read True as 1.
        with pytest.raises(ValueError, match=r"^angular must be an integer, got "):
            membership_test(koebe(), ClassSpec("M", alpha=0.0), radii=(0.5,), angular=angular)

    def test_numpy_integer_angular_accepted(self):
        rep = membership_test(koebe(), ClassSpec("M", alpha=0.0), radii=(0.5,), angular=np.int64(4))
        assert rep.angular == 4 and type(rep.angular) is int
        assert repr(rep) == repr(membership_test(koebe(), ClassSpec("M", alpha=0.0),
                                                 radii=(0.5,), angular=4))

    def test_angular_cap(self):
        # Refused before any sample is taken.
        with pytest.raises(ValueError, match=r"angular must lie in \[1, 10000\]"):
            membership_test(f1(), ClassSpec("U", lam=1.0), angular=MAX_ANGULAR + 1)

    def test_as_dict_keys(self):
        rep = membership_test(f5(0.5), ClassSpec("U", lam=0.5), angular=16)
        d = rep.as_dict()
        assert d["class"] == "U(0.5)"
        assert d["lambda"] == 0.5
        assert d["passed"] is True
        assert {"radius", "margin"} == set(d["margin_by_radius"][0])
        rep2 = membership_test(koebe(), ClassSpec("M", alpha=0.0), angular=16)
        assert rep2.as_dict()["alpha"] == 0.0


class TestAnalyticity:
    """membership refuses a row with a pole or a branch point inside the disk,
    naming the zero, and passes the zeros on the circle."""

    # z / (1 - 2z), with a pole at 1/2: its U margin reads only |z|^2.
    POLE = AnalyticFunction("adhoc", Row((((1.0, -2.0), -1.0),), 0.0, 1.0), {})
    MESSAGE = ("adhoc {} is not analytic in the unit disk: its factor (1.0, -2.0)^-1.0 "
               "has a zero at z = (0.5+0j), |z| = 0.5")

    def test_pole_inside_refused(self):
        spec = ClassSpec("U", lam=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            membership_test(self.POLE, spec, radii=(0.5, 0.9))
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            membership_margin(self.POLE, spec, 0.1)

    def test_cli_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(catalog, "make", lambda *args, **kwargs: self.POLE)
        argv = ["membership", "--function", "koebe", "--class", "U", "--lambda", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    @pytest.mark.parametrize("P, e, a, theta, spec", [
        pytest.param((1.0, 0.0, 4.0), 0.5, 1.0, 0.0, ClassSpec("G", alpha=1.0), id="branch-G"),
        pytest.param((1.0, 0.0, 4.0), 0.5, 1.0, 0.7, ClassSpec("G", alpha=1.0), id="rotated-G"),
        pytest.param((1.0, -1.25), -2.0, 0.5, 0.0, ClassSpec("M", alpha=0.5), id="pole-M"),
        pytest.param((1.0, -1.25), -2.0, 0.5, 2.0, ClassSpec("U", lam=1.0), id="rotated-U"),
    ])
    def test_names_the_zero_in_the_entrys_own_variable(self, P, e, a, theta, spec):
        f = AnalyticFunction("adhoc", Row(((P, e),), a, a, theta), {})
        with pytest.raises(ValueError, match="^adhoc {} is not analytic in the unit disk") as no:
            membership_test(f, spec)
        zeta = complex(re.search(r"at z = (\S+),", str(no.value)).group(1))
        # The entry is e^{-i theta} f(e^{i theta} z): P vanishes at e^{i theta} zeta.
        w = cmath.exp(1j * theta) * zeta
        assert abs(sum(c * w**k for k, c in enumerate(P))) < 1e-15
        assert abs(zeta) < 1.0

    @pytest.mark.parametrize("f", [
        koebe(0.0), koebe(2.5), f1(0.0), f1(4.0), f2(1.0), f3(1.0, 0.3), f4(0.5), f4(1.0),
        f5(0.5), k_theta_alpha(0.9, 0.5), k_theta_alpha(0.0, 3.0), m_alpha_upper(0.0),
        m_alpha_upper(2.0), g_alpha_upper(1.0), g_alpha_upper(1e-3),
    ], ids=lambda f: f"{f.label}{tuple(f.params.values())}")
    def test_zeros_on_the_circle_pass(self, f):
        f.check_analytic()
        (P, _), = f.row.factors
        assert min(abs(z) for z in catalog._poly_roots(P)) >= 1.0

    def test_f4_at_one_reads_one(self):
        # f4(1) = z / (1 - sqrt(2) z + z^2): its zeros come out exactly on the circle.
        assert [abs(z) for z in catalog._poly_roots(f4(1.0).row.factors[0][0])] == [1.0, 1.0]
        assert membership_test(f4(1.0), ClassSpec("U", lam=1.0)).passed

    @pytest.mark.parametrize("depth, inside", [(1e-13, False), (1e-11, True)])
    def test_roundoff_tolerance(self, depth, inside):
        # A zero within 1e-12 of the circle is read as on it.
        f = AnalyticFunction("adhoc", Row((((1.0, -1.0 / (1.0 - depth)), -1.0),), 0.0, 1.0), {})
        if inside:
            with pytest.raises(ValueError, match="not analytic"):
                f.check_analytic()
        else:
            f.check_analytic()

    def test_polynomial_factor_stays_a_singular_sample(self):
        # z (1 - 2z) and the a = 1 row with f' = (1 - 2z)^2 are analytic: their
        # zero inside is where f or f' vanishes, a skipped sample, not a refusal.
        for f in (entry_from_coeffs([0, 1, -2]),
                  AnalyticFunction("adhoc", Row((((1.0, -2.0), 2.0),), 1.0, 1.0), {})):
            f.check_analytic()
            rep = membership_test(f, ClassSpec("M", alpha=1.0), radii=(0.5,), angular=4)
            assert rep.skipped == 1 and not rep.passed


def body_map(kind, c1, c2, alpha):
    """(a_2, a_3) = (s c_1, q a_2^2 + t c_2) at Schwarz coefficients (c_1, c_2), with
    (s, q, t) the body row of M(alpha) or G(alpha), the map `search` reads."""
    body = _body(ClassSpec.of(kind, alpha))
    a2 = body.s * np.asarray(c1)
    return a2, body.q * a2 * a2 + body.t * np.asarray(c2)


class TestSchwarzMaps:
    def test_m_map_recovers_koebe(self):
        assert body_map("M", -1.0, 0.0, 0.0) == (2.0, 3.0)

    def test_m_map_odd_direction(self):
        a2, a3 = body_map("M", 0.0, -1.0, 0.7)
        assert a2 == 0.0
        assert a3 == pytest.approx(1.0 / 2.4, abs=1e-15)

    def test_m_map_head_matches_series_extremal(self):
        f = m_alpha_upper(1.5)
        a2, a3 = body_map("M", 0.0, -1.0, 1.5)
        assert abs(f.a(2) - a2) < 1e-12
        assert abs(f.a(3) - a3) < 1e-12

    def test_m_map_head_matches_k_family(self):
        f = k_theta_alpha(0.0, 0.8)
        a2, _ = body_map("M", -1.0, 0.0, 0.8)
        assert abs(f.a(2) - a2) < 1e-12

    def test_g_map_example(self):
        a2, a3 = body_map("G", 1.0, 0.0, 0.5)
        assert a2 == 0.25
        assert a3 == pytest.approx(-1.0 / 24.0, abs=1e-16)

    def test_g_map_head_matches_series_extremal(self):
        f = g_alpha_upper(0.6)
        a2, a3 = body_map("G", 0.0, -1.0, 0.6)
        assert abs(f.a(2) - a2) < 1e-15
        assert abs(f.a(3) - a3) < 1e-15

    def test_maps_rotate_equivariantly(self):
        # c1 -> w c1, c2 -> w^2 c2 must give a2 -> w a2, a3 -> w^2 a3, pointwise
        # over an array of body points.
        w = np.exp(0.9j)
        c1 = np.array([0.4 + 0.1j, -0.2j, 0.9])
        c2 = np.array([0.3 - 0.2j, 0.5, 0.1j])
        for kind, alpha in [("M", 1.3), ("G", 0.7)]:
            a2, a3 = body_map(kind, c1, c2, alpha)
            b2, b3 = body_map(kind, w * c1, w * w * c2, alpha)
            assert np.all(np.abs(b2 - w * a2) < 1e-14)
            assert np.all(np.abs(b3 - w * w * a3) < 1e-14)

    def test_alpha_validation(self):
        # The body row reads alpha through ClassSpec, which refuses it out of range.
        with pytest.raises(ValueError):
            body_map("M", 0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            body_map("G", 0.0, 0.0, 1.5)


def schwarz_samples(count, seed):
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(rng.uniform(size=count))
    ph1 = rng.uniform(0, 2 * np.pi, size=count)
    c1 = r1 * np.exp(1j * ph1)
    r2 = rng.uniform(size=count) * (1 - r1 * r1)
    ph2 = rng.uniform(0, 2 * np.pi, size=count)
    c2 = r2 * np.exp(1j * ph2)
    return c1, c2


class TestSlackIdentities:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_eq10_slack_formula_on_body(self, alpha):
        c1, c2 = schwarz_samples(500, seed=11)
        a2, a3 = body_map("M", c1, c2, alpha)
        slack = eq10_slack(a2, a3, alpha)
        want = (1 - np.abs(c1) ** 2 - np.abs(c2)) / (1 + 2 * alpha)
        np.testing.assert_allclose(slack, want, atol=1e-13)
        assert slack.min() > -1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_e11_slack_formula_on_body(self, alpha):
        c1, c2 = schwarz_samples(500, seed=12)
        a2, a3 = body_map("G", c1, c2, alpha)
        slack = e11_slack(a2, a3, alpha)
        want = alpha / 6.0 * (1 - np.abs(c1) ** 2 - np.abs(c2))
        np.testing.assert_allclose(slack, want, atol=1e-13)
        assert slack.min() > -1e-12

    def test_boundary_cases_hit_zero(self):
        th = np.linspace(0, 2 * np.pi, 40)
        c1 = 0.6 * np.exp(1j * th)
        c2 = (1 - 0.36) * np.exp(2j * th)  # |c2| = 1 - |c1|^2
        a2, a3 = body_map("M", c1, c2, 1.0)
        assert np.abs(eq10_slack(a2, a3, 1.0)).max() < 1e-12
        b2, b3 = body_map("G", c1, c2, 0.5)
        assert np.abs(e11_slack(b2, b3, 0.5)).max() < 1e-12

    def test_slack_validation(self):
        with pytest.raises(ValueError):
            eq10_slack(0.0, 0.0, -0.5)
        with pytest.raises(ValueError):
            e11_slack(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "check",
        [functools.partial(body_map, "M"), eq10_slack, functools.partial(body_map, "G"),
         e11_slack],
        ids=["m_map", "eq10", "g_map", "e11"],
    )
    def test_non_finite_alpha_refused(self, check, alpha):
        # Each check reads its parameter through ClassSpec, with no NaN result.
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            check(0.1, 0.1, alpha)


class TestCoefficientChecks:
    def test_u_aux_slack_exactly_zero_for_f3(self):
        s1, s2 = u_aux_check(f3(0.8, 0.0), 0.8)
        assert s1 == 0.0
        assert s2 == pytest.approx(1.8, abs=1e-15)

    def test_u_aux_slack_exactly_zero_for_f4(self):
        s1, s2 = u_aux_check(f4(0.75), 0.75)
        assert s1 == 0.0
        assert s2 == pytest.approx(1.75 - math.sqrt(1.5), abs=1e-15)

    def test_u_aux_positive_inside(self):
        s1, s2 = u_aux_check(f3(0.5, 0.0), 0.8)
        assert s1 == pytest.approx(0.3, abs=1e-15)
        assert s2 > 0

    @pytest.mark.parametrize("lam", [5.0, 0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_u_aux_refuses_lambda_outside_the_class(self, lam):
        message = "U requires 0 < lambda <= 1" if math.isfinite(lam) else "lambda must be finite"
        with pytest.raises(ValueError, match=message):
            u_aux_check(f3(0.5, 0.0), lam)

    def test_coeff_bound_sharp_for_g_extremals(self):
        assert coeff_bound_A_check(g_alpha_upper(1.0), 1.0, 3) == pytest.approx(
            0.0, abs=1e-16
        )
        assert coeff_bound_A_check(g_quadratic(), 1.0, 2) == 0.0

    def test_coeff_bound_strict_inside(self):
        assert coeff_bound_A_check(g_alpha_upper(1.0), 1.0, 5) == pytest.approx(
            1.0 / 40.0, abs=1e-15
        )
        assert coeff_bound_A_check(g_quadratic(), 1.0, 3) == pytest.approx(
            1.0 / 6.0, abs=1e-15
        )

    def test_coeff_bound_validation(self):
        with pytest.raises(ValueError):
            coeff_bound_A_check(g_quadratic(), 1.0, 1)
        with pytest.raises(ValueError):
            coeff_bound_A_check(g_quadratic(), 1.2, 3)


class TestAssertedMemberships:
    def test_inventory(self):
        pairs = asserted_memberships()
        assert len(pairs) == 20
        kinds = {spec.kind for _, spec in pairs}
        assert kinds == {"U", "M", "G"}

    def test_quick_pass_at_moderate_radii(self):
        # The full-depth run belongs to the acceptance suite; this one stays
        # off the outermost ring.
        for f, spec in asserted_memberships():
            rep = membership_test(f, spec, radii=(0.5, 0.9), angular=64)
            assert rep.passed, f"{f.label} vs {spec.label()}: {rep.worst_margin}"
