"""Tests for class specifications, membership margins, and coefficient checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef.bounds import M_BRANCH_ALPHA
from logcoef.catalog import (
    LABELS,
    f1,
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
    asserted_memberships,
    coeff_bound_A_check,
    e11_slack,
    eq10_slack,
    g_coefficients_from_schwarz,
    m_coefficients_from_schwarz,
    membership_margin,
    membership_test,
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
            np.testing.assert_allclose(got, exact[::8], rtol=0, atol=1e-9)
            rep = membership_test(f, spec, radii=(r,), angular=64)
            assert abs(rep.worst_margin - exact.min()) <= 1e-9

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
        # At the evaluation cap, alpha = 1e6, the margin's relative error
        # (about 4e-13 alpha) is still below 1e-6.
        alpha = 1e6
        f = make(label, alpha=alpha)
        z = 0.99 * self.RING
        w = z if label == "k_theta_alpha" else z * z
        exact = ((1.0 + w) / (1.0 - w)).real
        got = [membership_margin(f, ClassSpec("M", alpha=alpha), p) for p in z]
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-6


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
        ring = np.exp(1j * (2.0 * np.pi * np.arange(16) / 16))
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


class TestSchwarzMaps:
    def test_m_map_recovers_koebe(self):
        assert m_coefficients_from_schwarz(-1.0, 0.0, 0.0) == (2.0, 3.0)

    def test_m_map_odd_direction(self):
        a2, a3 = m_coefficients_from_schwarz(0.0, -1.0, 0.7)
        assert a2 == 0.0
        assert a3 == pytest.approx(1.0 / 2.4, abs=1e-15)

    def test_m_map_head_matches_series_extremal(self):
        f = m_alpha_upper(1.5)
        a2, a3 = m_coefficients_from_schwarz(0.0, -1.0, 1.5)
        assert abs(f.a(2) - a2) < 1e-12
        assert abs(f.a(3) - a3) < 1e-12

    def test_m_map_head_matches_k_family(self):
        f = k_theta_alpha(0.0, 0.8)
        a2, _ = m_coefficients_from_schwarz(-1.0, 0.0, 0.8)
        assert abs(f.a(2) - a2) < 1e-12

    def test_g_map_example(self):
        a2, a3 = g_coefficients_from_schwarz(1.0, 0.0, 0.5)
        assert a2 == 0.25
        assert a3 == pytest.approx(-1.0 / 24.0, abs=1e-16)

    def test_g_map_head_matches_series_extremal(self):
        f = g_alpha_upper(0.6)
        a2, a3 = g_coefficients_from_schwarz(0.0, -1.0, 0.6)
        assert abs(f.a(2) - a2) < 1e-15
        assert abs(f.a(3) - a3) < 1e-15

    def test_maps_rotate_equivariantly(self):
        # c1 -> w c1, c2 -> w^2 c2 must give a2 -> w a2, a3 -> w^2 a3, pointwise
        # over an array of body points.
        w = np.exp(0.9j)
        c1 = np.array([0.4 + 0.1j, -0.2j, 0.9])
        c2 = np.array([0.3 - 0.2j, 0.5, 0.1j])
        maps = [(m_coefficients_from_schwarz, 1.3), (g_coefficients_from_schwarz, 0.7)]
        for mapper, alpha in maps:
            a2, a3 = mapper(c1, c2, alpha)
            b2, b3 = mapper(w * c1, w * w * c2, alpha)
            assert np.all(np.abs(b2 - w * a2) < 1e-14)
            assert np.all(np.abs(b3 - w * w * a3) < 1e-14)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            m_coefficients_from_schwarz(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            g_coefficients_from_schwarz(0.0, 0.0, 1.5)


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
        a2, a3 = m_coefficients_from_schwarz(c1, c2, alpha)
        slack = eq10_slack(a2, a3, alpha)
        want = (1 - np.abs(c1) ** 2 - np.abs(c2)) / (1 + 2 * alpha)
        np.testing.assert_allclose(slack, want, atol=1e-13)
        assert slack.min() > -1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_e11_slack_formula_on_body(self, alpha):
        c1, c2 = schwarz_samples(500, seed=12)
        a2, a3 = g_coefficients_from_schwarz(c1, c2, alpha)
        slack = e11_slack(a2, a3, alpha)
        want = alpha / 6.0 * (1 - np.abs(c1) ** 2 - np.abs(c2))
        np.testing.assert_allclose(slack, want, atol=1e-13)
        assert slack.min() > -1e-12

    def test_boundary_cases_hit_zero(self):
        th = np.linspace(0, 2 * np.pi, 40)
        c1 = 0.6 * np.exp(1j * th)
        c2 = (1 - 0.36) * np.exp(2j * th)  # |c2| = 1 - |c1|^2
        a2, a3 = m_coefficients_from_schwarz(c1, c2, 1.0)
        assert np.abs(eq10_slack(a2, a3, 1.0)).max() < 1e-12
        b2, b3 = g_coefficients_from_schwarz(c1, c2, 0.5)
        assert np.abs(e11_slack(b2, b3, 0.5)).max() < 1e-12

    def test_slack_validation(self):
        with pytest.raises(ValueError):
            eq10_slack(0.0, 0.0, -0.5)
        with pytest.raises(ValueError):
            e11_slack(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "check",
        [m_coefficients_from_schwarz, eq10_slack, g_coefficients_from_schwarz, e11_slack],
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
