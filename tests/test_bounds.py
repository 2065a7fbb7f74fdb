"""Tests for the closed-form delta bounds."""

import math

import numpy as np
import pytest

from logcoef.bounds import (
    M_BRANCH_ALPHA,
    BoundPair,
    bound_delta,
    g_lower_bound,
    g_lower_minimizer,
    g_upper_bound,
    m_lower_large_alpha,
    m_lower_minimizer,
    m_lower_small_alpha,
    m_upper_bound,
    u_lower_large_lambda,
    u_lower_small_lambda,
    u_upper_bound,
)
from logcoef.catalog import LABELS, f3, f4, f5, g_alpha_upper, m_alpha_upper, make
from logcoef.classes import ClassSpec
from logcoef.functional import delta


class TestGoldenValues:
    def test_u_half(self):
        b = bound_delta(ClassSpec("U", lam=0.5))
        assert b.lower == pytest.approx(-0.5, abs=1e-15)
        assert b.upper == pytest.approx(0.25, abs=1e-15)

    def test_s(self):
        b = bound_delta(ClassSpec("S"))
        assert b.lower == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
        assert b.upper == 0.5

    def test_m_zero_equals_s(self):
        s = bound_delta(ClassSpec("S"))
        m0 = bound_delta(ClassSpec("M", alpha=0.0))
        assert m0.lower == pytest.approx(s.lower, abs=1e-15)
        assert m0.upper == s.upper
        assert m0.lower == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)

    def test_m_one(self):
        b = bound_delta(ClassSpec("M", alpha=1.0))
        assert b.lower == pytest.approx(-1.0 / math.sqrt(10.0), abs=1e-15)
        assert b.upper == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_g_one(self):
        b = bound_delta(ClassSpec("G", alpha=1.0))
        assert b.lower == pytest.approx(-4.0 / 21.0, abs=1e-15)
        assert b.upper == pytest.approx(1.0 / 12.0, abs=1e-15)


class TestBranches:
    def test_u_branches_agree_at_half(self):
        assert abs(u_lower_small_lambda(0.5) - u_lower_large_lambda(0.5)) <= 1e-15
        assert u_lower_small_lambda(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_m_branches_agree_at_breakpoint(self):
        a = M_BRANCH_ALPHA
        small = m_lower_small_alpha(a)
        large = m_lower_large_alpha(a)
        assert abs(small - large) <= 1e-12
        assert small == pytest.approx(math.sqrt(3.0) - 2.0, abs=1e-12)

    def test_breakpoint_value(self):
        assert M_BRANCH_ALPHA == 0.5 * (1.0 + math.sqrt(3.0))

    def test_bound_delta_switches_branch(self):
        below = bound_delta(ClassSpec("U", lam=0.4))
        above = bound_delta(ClassSpec("U", lam=0.6))
        assert below.lower == pytest.approx(u_lower_small_lambda(0.4), abs=0)
        assert above.lower == pytest.approx(u_lower_large_lambda(0.6), abs=0)
        assert below.lower_witness == "f5"
        assert above.lower_witness == "f4"
        m_below = bound_delta(ClassSpec("M", alpha=1.0))
        m_above = bound_delta(ClassSpec("M", alpha=2.0))
        assert m_below.lower == m_lower_small_alpha(1.0)
        assert m_above.lower == m_lower_large_alpha(2.0)


class TestMinimizers:
    def test_m_minimizer_values(self):
        assert m_lower_minimizer(2.0) == pytest.approx(5.0 / 11.0, abs=1e-15)
        assert m_lower_minimizer(10.0) == pytest.approx(21.0 / 131.0, abs=1e-15)

    def test_m_minimizer_guard(self):
        with pytest.raises(ValueError, match="minimizer"):
            m_lower_minimizer(1.0)
        m_lower_minimizer(M_BRANCH_ALPHA)  # boundary allowed

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_m_minimizer_refuses_non_finite(self, alpha):
        with pytest.raises(ValueError, match="minimizer"):
            m_lower_minimizer(alpha)

    def test_g_minimizer_value(self):
        assert g_lower_minimizer(0.5) == pytest.approx(0.2, abs=1e-15)

    def test_g_minimizer_interior(self):
        for a in np.linspace(0.01, 1.0, 100):
            assert 0 < g_lower_minimizer(a) < 0.5 * a

    def test_g_minimizer_guard(self):
        with pytest.raises(ValueError):
            g_lower_minimizer(0.0)
        with pytest.raises(ValueError):
            g_lower_minimizer(1.2)


class TestMonotonicity:
    def test_u_bounds_widen_with_lambda(self):
        lams = np.linspace(0.05, 1.0, 40)
        uppers = [u_upper_bound(l) for l in lams]
        lowers = [bound_delta(ClassSpec("U", lam=l)).lower for l in lams]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))
        assert all(b < a for a, b in zip(lowers, lowers[1:]))

    def test_m_bounds_narrow_with_alpha(self):
        alphas = np.linspace(0.0, 6.0, 50)
        uppers = [m_upper_bound(a) for a in alphas]
        lowers = [bound_delta(ClassSpec("M", alpha=a)).lower for a in alphas]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        assert all(b > a for a, b in zip(lowers, lowers[1:]))

    def test_g_bounds_widen_with_alpha(self):
        alphas = np.linspace(0.05, 1.0, 40)
        uppers = [g_upper_bound(a) for a in alphas]
        lowers = [g_lower_bound(a) for a in alphas]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))
        assert all(b < a for a, b in zip(lowers, lowers[1:]))


class TestWitnesses:
    def test_sharpness_flags(self):
        assert bound_delta(ClassSpec("S")).lower_sharp
        assert bound_delta(ClassSpec("S")).upper_sharp
        u = bound_delta(ClassSpec("U", lam=0.7))
        assert u.lower_sharp and u.upper_sharp
        m = bound_delta(ClassSpec("M", alpha=2.0))
        assert m.upper_sharp and not m.lower_sharp
        g = bound_delta(ClassSpec("G", alpha=0.5))
        assert g.upper_sharp and not g.lower_sharp

    def test_witness_labels_exist(self):
        for spec in [
            ClassSpec("S"),
            ClassSpec("U", lam=0.3),
            ClassSpec("U", lam=0.9),
            ClassSpec("M", alpha=1.0),
            ClassSpec("G", alpha=0.8),
        ]:
            b = bound_delta(spec)
            for w in (b.lower_witness, b.upper_witness):
                assert w is None or w in LABELS

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5])
    def test_u_small_lambda_witnesses_attain(self, lam):
        b = bound_delta(ClassSpec("U", lam=lam))
        assert delta(f5(lam)) == pytest.approx(b.lower, abs=1e-12)
        assert delta(f3(lam)) == pytest.approx(b.upper, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 0.75, 1.0])
    def test_u_large_lambda_witnesses_attain(self, lam):
        b = bound_delta(ClassSpec("U", lam=lam))
        assert delta(f4(lam)) == pytest.approx(
            u_lower_large_lambda(lam), abs=1e-12
        )
        assert delta(f3(lam)) == pytest.approx(b.upper, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_m_upper_witness_attains(self, alpha):
        b = bound_delta(ClassSpec("M", alpha=alpha))
        assert delta(m_alpha_upper(alpha, order=64)) == pytest.approx(b.upper, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_g_upper_witness_attains(self, alpha):
        b = bound_delta(ClassSpec("G", alpha=alpha))
        assert delta(g_alpha_upper(alpha, order=64)) == pytest.approx(b.upper, abs=1e-9)

    def test_witness_label_buildable(self):
        b = bound_delta(ClassSpec("U", lam=0.8))
        f = make(b.lower_witness, lam=0.8)
        assert delta(f) == pytest.approx(b.lower, abs=1e-12)


class TestNotes:
    def test_g_one_carries_gap_note(self):
        b = bound_delta(ClassSpec("G", alpha=1.0))
        assert b.note is not None
        assert "0.1875" in b.note
        assert "note" in b.as_dict()

    def test_other_instances_have_no_note(self):
        assert bound_delta(ClassSpec("G", alpha=0.5)).note is None
        assert bound_delta(ClassSpec("M", alpha=1.0)).note is None
        assert "note" not in bound_delta(ClassSpec("S")).as_dict()

    def test_as_dict_round_trip(self):
        d = bound_delta(ClassSpec("U", lam=0.5)).as_dict()
        assert d["lower"] == -0.5
        assert d["upper"] == 0.25
        assert d["lower_sharp"] is True
        assert d["lower_witness"] == "f5"

    def test_boundpair_is_frozen(self):
        b = BoundPair(0.0, 1.0, False, False)
        with pytest.raises(AttributeError):
            b.lower = 5.0
