"""Tests for the closed-form delta bounds."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef.bounds import (
    M_BRANCH_ALPHA,
    BoundPair,
    bound_delta,
    bound_table,
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
from logcoef.functional import delta, gamma_from_a


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

    def test_m_large_branch_matches_exact_rational(self):
        # Computed with numerator and denominator divided by alpha^2; against
        # the formula in exact arithmetic at each float alpha.
        for a in np.geomspace(M_BRANCH_ALPHA, 1e300, 301):
            x = Fraction(float(a))
            exact = -(6 * x * x + 10 * x + 3) / (4 * (2 * x + 1) * (x * x + 3 * x + 1))
            assert abs(m_lower_large_alpha(float(a)) - float(exact)) <= 1e-15 * abs(float(exact))

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
        assert delta(m_alpha_upper(alpha)) == pytest.approx(b.upper, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_g_upper_witness_attains(self, alpha):
        b = bound_delta(ClassSpec("G", alpha=alpha))
        assert delta(g_alpha_upper(alpha)) == pytest.approx(b.upper, abs=1e-9)

    def test_witness_label_buildable(self):
        b = bound_delta(ClassSpec("U", lam=0.8))
        f = make(b.lower_witness, lam=0.8)
        assert delta(f) == pytest.approx(b.lower, abs=1e-12)


class TestNotes:
    def test_other_instances_have_no_note(self):
        # G(1) included: its lower bound -4/21 is attained by the member with
        # f' = (1 + 12z/7 + z^2)^(1/2), so it carries no caveat either.
        mesh = (
            [ClassSpec("S")]
            + [ClassSpec("U", lam=x) for x in (0.1, 0.25, 0.5, 0.75, 1.0)]
            + [ClassSpec("M", alpha=x) for x in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)]
            + [ClassSpec("G", alpha=x) for x in (0.25, 0.5, 0.75, 1.0)]
        )
        for spec in mesh:
            assert "note" not in bound_delta(spec).as_dict(), spec.label()

    def test_as_dict_round_trip(self):
        d = bound_delta(ClassSpec("U", lam=0.5)).as_dict()
        assert d["lower"] == -0.5
        assert d["upper"] == 0.25
        assert d["lower_sharp"] is True
        assert d["lower_witness"] == "f5"

    def test_sharp_exactly_where_a_witness_is_named(self):
        b = BoundPair(0.0, 1.0, upper_witness="f2")
        assert (b.lower_sharp, b.upper_sharp) == (False, True)
        with pytest.raises(AttributeError):
            b.lower_sharp = True

    def test_boundpair_is_frozen(self):
        b = BoundPair(0.0, 1.0)
        with pytest.raises(AttributeError):
            b.lower = 5.0


BOUND_FUNCTIONS = [
    u_upper_bound, u_lower_small_lambda, u_lower_large_lambda,
    m_upper_bound, m_lower_small_alpha, m_lower_large_alpha, m_lower_minimizer,
    g_upper_bound, g_lower_bound, g_lower_minimizer,
]


class TestFailClosed:
    """A parameter outside the class, or one the formula cannot take, is refused."""

    @pytest.mark.parametrize("call, match", [
        (lambda: m_lower_small_alpha(math.nan), "alpha must be finite, got nan"),
        (lambda: u_upper_bound(5.0), r"U requires 0 < lambda <= 1, got 5.0"),
        (lambda: g_upper_bound(math.inf), "alpha must be finite, got inf"),
        (lambda: m_upper_bound(-0.5), r"M requires alpha >= 0, got -0.5"),
        (lambda: g_lower_bound(8.0), r"G requires 0 < alpha <= 1, got 8.0"),
        (lambda: u_lower_large_lambda(-1.0), r"U requires 0 < lambda <= 1, got -1.0"),
        (lambda: gamma_from_a(math.nan, 0), "must be finite"),
        (lambda: m_lower_large_alpha(1e308), "overflows"),
        (lambda: m_lower_large_alpha(1.0), r"holds only for alpha >= 1.366025, got 1.0"),
        (lambda: m_lower_minimizer(1e308), "overflows"),
    ], ids=[
        "m_lower_small_nan", "u_upper_5", "g_upper_inf", "m_upper_neg", "g_lower_8",
        "u_lower_large_neg", "gamma_from_a_nan", "m_lower_large_huge", "m_lower_large_below",
        "m_minimizer_huge",
    ])
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("fn", BOUND_FUNCTIONS, ids=lambda fn: fn.__name__)
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats())
    def test_finite_or_refused(self, fn, x):
        try:
            value = fn(x)
        except ValueError:
            return
        assert math.isfinite(value)
        if fn.__name__.startswith("m_"):
            # Every M value is nonzero and representable, so a zero is an
            # overflow.  U's and G's zeros at subnormal parameters are exact
            # values below the smallest float.
            assert value != 0.0

    # The last alpha each M function accepts and the first it refuses, where a
    # term of its formula overflows, with the formula's leading term there.
    @pytest.mark.parametrize("fn, last, first, leading", [
        (m_lower_large_alpha, 2.2471164185778946e307, 2.247116418577895e307, -0.75),
        (m_lower_small_alpha, 9.480751908109176e153, 9.480751908109177e153, -math.sqrt(0.5)),
        (m_lower_minimizer, 1.3407807929942596e154, 1.3407807929942597e154, 2.0),
        (m_upper_bound, 8.988465674311579e307, 8.98846567431158e307, 0.25),
    ], ids=["m_lower_large_alpha", "m_lower_small_alpha", "m_lower_minimizer", "m_upper_bound"])
    def test_m_overflow_threshold(self, fn, last, first, leading):
        assert fn(last) == pytest.approx(leading / last, rel=1e-9)
        with pytest.raises(ValueError, match=f"{fn.__name__} overflows"):
            fn(first)

    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(), st.complex_numbers())
    def test_gamma_from_a_finite_or_refused(self, a2, a3):
        try:
            pair = gamma_from_a(a2, a3)
        except ValueError:
            return
        assert all(map(cmath.isfinite, (pair.gamma1, pair.gamma2, pair.delta)))


def _around(x):
    """x and its two neighbouring doubles."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Grids of each class through its branch point, one ulp either side, and its ends.
GRIDS = {
    "U": [5e-324, 1e-300, 0.1, *_around(0.5), 0.75, 1.0],
    "M": [0.0, 5e-324, 1e-300, 0.5, 1.0, *_around(M_BRANCH_ALPHA),
          *_around(M_BRANCH_ALPHA - 1e-12), 2.0, 1e10, 1e150, 1e154, 1e300],
    "G": [5e-324, 1e-300, 0.25, 0.5, 1.0],
}
CLASS_OF = {fn: fn.__name__[0].upper() for fn in BOUND_FUNCTIONS}


def _hex(values):
    return [float(x).hex() for x in values]


class TestArrayBounds:
    """Each bound formula on an array is the scalar function on each element, bit for bit."""

    @pytest.mark.parametrize("fn", BOUND_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_elementwise_equals_the_scalar_calls(self, fn):
        grid = []
        for x in GRIDS[CLASS_OF[fn]]:
            try:
                fn(x)
            except ValueError:
                continue
            grid.append(x)
        got = fn(np.array(grid))
        assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
        assert _hex(got) == _hex(fn(x) for x in grid)
        assert all(type(fn(x)) is float for x in grid)

    @pytest.mark.parametrize("kind", ["U", "M", "G"])
    def test_table_is_bound_delta_on_each_class(self, kind):
        grid = [x for x in GRIDS[kind] if kind != "M" or x < 1e300]
        lower, upper = bound_table(kind, np.array(grid))
        pairs = [bound_delta(ClassSpec.of(kind, x)) for x in grid]
        assert _hex(lower) == _hex(p.lower for p in pairs)
        assert _hex(upper) == _hex(p.upper for p in pairs)
        for x, pair in zip(grid, pairs):
            assert bound_table(kind, x) == (pair.lower, pair.upper)

    @pytest.mark.parametrize("fn, grid", [
        *((fn, [1.0, 1e154, 1e308]) for fn in BOUND_FUNCTIONS if CLASS_OF[fn] == "M"),
        (m_upper_bound, [2.0, 1e308, -1.0, math.nan]),
        (m_upper_bound, [2.0, -1.0, 1e308]),
        (m_lower_large_alpha, [2.0, 1e308, 1.0]),
        (u_lower_large_lambda, [0.5, 2.0, math.nan, -1.0]),
        (g_lower_bound, [0.5, math.inf, 8.0]),
        (g_lower_minimizer, [0.5, 0.0]),
    ], ids=lambda x: getattr(x, "__name__", None) or str(x))
    def test_refusal_is_the_first_a_loop_meets(self, fn, grid):
        with pytest.raises(ValueError) as looped:
            for x in grid:
                fn(x)
        with pytest.raises(ValueError) as stacked:
            fn(np.array(grid))
        assert str(stacked.value) == str(looped.value)

    @pytest.mark.parametrize("kind, grid", [
        ("M", [1.0, 1e154, 1e308]),
        ("M", [1.0, 1e308, -1.0]),
        ("M", [1.0, math.nan, 1e308]),
        ("U", [0.5, 0.0, 2.0]),
        ("G", [0.5, 1.5]),
    ])
    def test_table_refusal_is_the_first_a_loop_of_bound_delta_meets(self, kind, grid):
        with pytest.raises(ValueError) as looped:
            for x in grid:
                bound_delta(ClassSpec.of(kind, x))
        with pytest.raises(ValueError) as stacked:
            bound_table(kind, np.array(grid))
        assert str(stacked.value) == str(looped.value)


def _outcome(call):
    """The reprs of what `call()` returns, or the message of its refusal."""
    try:
        return [repr(v) for v in call()]
    except ValueError as e:
        return str(e)


def _pair(kind, x):
    pair = bound_delta(ClassSpec.of(kind, x))
    assert type(pair.lower) is float and type(pair.upper) is float
    return pair.lower, pair.upper


# Edges of the float path: M's breakpoint and U's, one ulp either side, and
# the last and first alpha of M's overflow thresholds (small branch, large
# branch, upper side).
FLOAT_EDGES = [
    *(("M", x) for x in (*_around(M_BRANCH_ALPHA), *_around(M_BRANCH_ALPHA - 1e-12),
                         *_around(9.480751908109176e153), *_around(2.2471164185778946e307),
                         *_around(8.988465674311579e307))),
    *(("U", x) for x in _around(0.5)),
]


BELOW = "only for alpha >= 1.366025, got"


class TestFloatPath:
    """One class is bounded in Python floats: the table's values and refusals, bit for bit."""

    @pytest.mark.parametrize("kind", ["U", "M", "G"])
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats())
    def test_bound_delta_is_the_table(self, kind, x):
        assert _outcome(lambda: _pair(kind, x)) == _outcome(lambda: bound_table(kind, x))

    @pytest.mark.parametrize("kind, x", FLOAT_EDGES, ids=lambda v: repr(v))
    def test_bound_delta_is_the_table_at_the_edges(self, kind, x):
        assert _outcome(lambda: _pair(kind, x)) == _outcome(lambda: bound_table(kind, x))

    @pytest.mark.parametrize("fn", BOUND_FUNCTIONS, ids=lambda fn: fn.__name__)
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats())
    def test_a_float_is_a_one_element_array(self, fn, x):
        def scalar():
            value = fn(x)
            assert type(value) is float
            return [value]

        assert _outcome(scalar) == _outcome(lambda: fn(np.array([x])).tolist())

    @pytest.mark.parametrize("call, message", [
        (lambda: m_lower_large_alpha(0.0), f"m_lower_large_alpha holds {BELOW} 0.0"),
        (lambda: m_lower_large_alpha(-0.0), f"m_lower_large_alpha holds {BELOW} -0.0"),
        (lambda: m_lower_minimizer(0.0), f"interior minimizer exists {BELOW} 0.0"),
        # alpha^2 + 3 alpha + 1 rounds to 0 here.
        (lambda: m_lower_minimizer(-0.38196601125010515), f"interior minimizer exists {BELOW}"),
        (lambda: u_lower_large_lambda(-1.0), "U requires 0 < lambda <= 1, got -1.0"),
    ])
    def test_a_refusal_comes_before_the_formula(self, call, message):
        # Each formula divides or takes a square root, which a Python float
        # refuses with its own error; the checks come first.
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
