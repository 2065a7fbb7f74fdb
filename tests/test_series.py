"""Unit tests for the truncated-series arithmetic layer."""

import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef.series import (
    MIN_ORDER,
    TruncatedSeries,
    _div_coeffs,
    _solve,
    exp_unit,
    log_unit,
    pow_real,
)

from _oracles import contour_coefficients


def geometric(order=8):
    """1/(1 - z) to the given order: every coefficient is 1."""
    return TruncatedSeries(np.ones(order + 1), order=order)


def divide(a, b, order):
    """Coefficients of a / b to the given order, by `_div_coeffs`."""
    return _div_coeffs(TruncatedSeries(a, order).coeffs, TruncatedSeries(b, order).coeffs)


class TestConstruction:
    def test_padding_to_order(self):
        s = TruncatedSeries([1, 2], order=4)
        assert s.order == 4
        np.testing.assert_array_equal(s.coeffs, [1, 2, 0, 0, 0])

    def test_order_inferred_from_length(self):
        assert TruncatedSeries([1, 2, 3, 4]).order == 3

    def test_short_input_floors_at_min_order(self):
        s = TruncatedSeries([5])
        assert s.order == MIN_ORDER
        np.testing.assert_array_equal(s.coeffs, [5, 0, 0])

    def test_excess_input_is_truncated(self):
        s = TruncatedSeries([1, 2, 3, 4, 5], order=2)
        np.testing.assert_array_equal(s.coeffs, [1, 2, 3])

    def test_order_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="order"):
            TruncatedSeries([1], order=1)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([[1, 2], [3, 4]])

    def test_coefficient_range_checked(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.coefficient(2) == 3
        with pytest.raises(ValueError):
            s.coefficient(3)
        with pytest.raises(ValueError):
            s.coefficient(-1)
        # Only an integer indexes: a bool or a float is refused, not cast.
        for n in (True, 1.0):
            with pytest.raises(ValueError, match="coefficient index"):
                s.coefficient(n)
        assert s.coefficient(np.int64(2)) == 3

    def test_coefficients_immutable(self):
        s = TruncatedSeries([1, 2, 3])
        with pytest.raises(ValueError):
            s.coeffs[0] = 9


class TestRingOperations:
    def test_geometric_series_by_division(self):
        np.testing.assert_allclose(divide([1], [1, -1], 8), np.ones(9), atol=1e-15)

    def test_koebe_coefficients_by_division(self):
        np.testing.assert_allclose(divide([0, 1], [1, -2, 1], 8), np.arange(9), atol=1e-14)

    def test_quadratic_denominator_prefix(self):
        # z / (1 - z + 0.5 z^2) starts 0, 1, 1, 0.5, 0, -0.25
        np.testing.assert_allclose(
            divide([0, 1], [1, -1, 0.5], 5), [0, 1, 1, 0.5, 0, -0.25], atol=1e-15
        )

    def test_division_by_complex_constant_term(self):
        # 1 / (2i - z) = sum z^n / (2i)^(n+1)
        want = 1.0 / (2j) ** np.arange(1, 10)
        np.testing.assert_allclose(divide([1], [2j, -1], 8), want, rtol=1e-15, atol=0)

    def test_division_by_zero_constant_term(self):
        with pytest.raises(ValueError, match="zero constant term"):
            divide([1], [0, 1], 4)

    def test_unsupported_operand(self):
        # A series has no arithmetic: products are np.convolve, quotients _div_coeffs.
        s = TruncatedSeries([1], order=4)
        for op in (operator.mul, operator.truediv):
            for a, b in ((s, s), (s, object()), (object(), s), (s, 2.0), (2.0, s)):
                with pytest.raises(TypeError):
                    op(a, b)


class TestCalculus:
    def test_evaluation_scalar(self):
        assert geometric(8)(0.5) == pytest.approx(2 - 1 / 256, abs=1e-15)
        assert isinstance(geometric(8)(0.5), complex)

    def test_evaluation_array(self):
        s = TruncatedSeries([1, 2, 3])
        z = np.array([0.0, 1.0, 1j])
        np.testing.assert_allclose(s(z), [1, 6, 1 + 2j + 3 * 1j**2], atol=1e-15)

    def test_evaluation_matches_contour_oracle(self):
        s = geometric(12)
        got = contour_coefficients(s, 12, radius=0.7)
        np.testing.assert_allclose(got, s.coeffs, atol=1e-12)


class TestTranscendental:
    def test_mercator(self):
        # log 1/(1-z) = sum z^n / n
        L = log_unit(geometric(8))
        want = np.zeros(9)
        want[1:] = 1.0 / np.arange(1, 9)
        np.testing.assert_allclose(L.coeffs, want, atol=1e-15)

    def test_log_of_even_polynomial(self):
        L = log_unit(TruncatedSeries([1, 0, -1], order=8))
        want = [0, 0, -1, 0, -1 / 2, 0, -1 / 3, 0, -1 / 4]
        np.testing.assert_allclose(L.coeffs, want, atol=1e-15)

    def test_exp_of_z(self):
        E = exp_unit(TruncatedSeries([0, 1], order=10))
        want = 1.0 / np.array([math.factorial(n) for n in range(11)], dtype=float)
        np.testing.assert_allclose(E.coeffs, want, rtol=1e-14)

    def test_binomial_square_root(self):
        p = pow_real(TruncatedSeries([1, 0, -1], order=6), 0.5)
        want = [1, 0, -1 / 2, 0, -1 / 8, 0, -1 / 16]
        np.testing.assert_allclose(p.coeffs, want, atol=1e-15)

    @pytest.mark.parametrize("beta", [1e-8, 1e-12, 1e-16])
    def test_small_power_keeps_relative_precision(self, beta):
        # (1 - z^2)^beta = 1 - beta z^2 + beta (beta - 1)/2 z^4 - ...
        p = pow_real(TruncatedSeries([1, 0, -1], order=6), beta)
        want = [1, 0, -beta, 0, beta * (beta - 1) / 2, 0, -beta * (beta - 1) * (beta - 2) / 6]
        np.testing.assert_allclose(p.coeffs, want, rtol=1e-15, atol=0)

    def test_negative_power_gives_derivative_of_geometric(self):
        p = pow_real(TruncatedSeries([1, -1], order=7), -2.0)
        np.testing.assert_allclose(p.coeffs, np.arange(1, 9), atol=1e-13)

    def test_negative_power_is_exact(self):
        # y = z (log(1 - z))' is -1 in every term, and exp's n E_n = 2 sum
        # E_{n-j} = n (n + 1) is an integer divided exactly by n.
        p = pow_real(TruncatedSeries([1, -1], order=256), -2)
        assert p.coeffs.tolist() == list(range(1, 258))

    def test_integer_power_matches_product(self):
        a = TruncatedSeries([1, 0.3, -0.2, 0.1], order=8)
        np.testing.assert_allclose(
            pow_real(a, 2).coeffs, np.convolve(a.coeffs, a.coeffs)[:9], atol=1e-14
        )

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            log_unit(TruncatedSeries([2, 1], order=4))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            exp_unit(TruncatedSeries([1, 1], order=4))

    def test_pow_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            pow_real(TruncatedSeries([0, 1], order=4), 2.0)


# -- property-based round trips ---------------------------------------------

small = st.floats(min_value=-0.35, max_value=0.35, allow_nan=False)
tail16 = st.lists(st.builds(complex, small, small), min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(tail16)
def test_exp_log_round_trip(tail):
    a = TruncatedSeries([1.0] + tail)
    back = exp_unit(log_unit(a))
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(tail16, st.floats(min_value=0.2, max_value=5.0))
def test_pow_round_trip(tail, beta):
    a = TruncatedSeries([1.0] + tail)
    back = pow_real(pow_real(a, beta), 1.0 / beta)
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(tail16, st.floats(min_value=-2.0, max_value=2.0))
def test_pow_agrees_with_exp_log_route(tail, beta):
    a = TruncatedSeries([1.0] + tail)
    via_pow = pow_real(a, beta)
    via_log = exp_unit(TruncatedSeries(beta * log_unit(a).coeffs, order=a.order))
    np.testing.assert_allclose(via_pow.coeffs, via_log.coeffs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.builds(complex, small, small), min_size=17, max_size=17),
    st.floats(min_value=0.5, max_value=2.0),
    st.lists(st.builds(complex, small, small), min_size=16, max_size=16),
)
def test_mul_div_round_trip(acoeffs, b0, btail):
    # Keep b away from small constant terms so the triangular solve stays
    # well conditioned; the contraction regime |b_k| <= 0.7 |b_0| is enough.
    a = np.asarray(acoeffs, dtype=complex)
    b = np.asarray([b0] + [b0 * 0.3 * t for t in btail], dtype=complex)
    back = _div_coeffs(np.convolve(a, b)[:17], b)
    np.testing.assert_allclose(back, a, atol=1e-12)


def exact_solve(r, g, d):
    """x of x_0 = r_0 and d_n x_n + sum_{j=1}^{n} g_j x_{n-j} = r_n for one row, by forward
    substitution in 200-bit mpmath arithmetic, and the size of each step's terms,
    (|r_n| + sum_{j=1}^{n} |g_j| |x_{n-j}|) / d_n, 0 at n = 0."""
    with mpmath.workprec(200):
        x, terms = [mpmath.mpc(complex(r[0]))], [mpmath.mpf(0)]
        for n in range(1, len(r)):
            products = [mpmath.mpc(complex(g[j - 1])) * x[n - j] for j in range(1, n + 1)]
            x.append((mpmath.mpc(complex(r[n])) - mpmath.fsum(products)) / float(d[n]))
            terms.append((abs(complex(r[n])) + mpmath.fsum(map(abs, products))) / float(d[n]))
        return x, terms


# `_solve`'s error on a step is at most SOLVE_ERROR eps times the size of its
# terms, with eps = 2^-52, plus the smallest normal double for products that
# round to subnormals.  Against 40 000 uniform draws of the test's ranges,
# checked in 200-bit arithmetic, the largest ratio was 1.8; the aligned draw
# r_n = 0.35 (1 + i), g_j = -r_n, d = 0.5, N = 16, whose solution grows to
# |x| ~ 1.3e4, read 1.6.  No absolute tolerance fits every draw: at that
# draw `_solve` is 4.1e-12 from the exact solution, and numpy's dense LU
# (np.linalg.solve) was off by up to 6.2e-12 on the uniform draws.
SOLVE_ERROR = 8.0


entry = st.builds(complex, small, small)
divisor = st.floats(min_value=0.5, max_value=2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 16), st.data())
def test_solve_matches_dense_triangular_solve(K, N, data):
    r = np.array(data.draw(st.lists(entry, min_size=K * (N + 1), max_size=K * (N + 1))))
    g = np.array(data.draw(st.lists(entry, min_size=K * N, max_size=K * N)))
    r, g = r.reshape(K, N + 1), g.reshape(K, N)
    scalar = data.draw(divisor)
    array = np.array(data.draw(st.lists(divisor, min_size=K * (N + 1), max_size=K * (N + 1))))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for d in (scalar, array.reshape(K, N + 1)):
        x = _solve(r, g, d)
        dk = np.broadcast_to(d, (K, N + 1))
        for k in range(K):
            exact, terms = exact_solve(r[k], g[k], dk[k])
            with mpmath.workprec(200):
                for n in range(N + 1):
                    error = abs(mpmath.mpc(complex(x[k, n])) - exact[n])
                    assert error <= SOLVE_ERROR * eps * terms[n] + tiny, (k, n)
            # Row k of the stack has the bits it has alone.
            alone = _solve(r[k : k + 1], g[k : k + 1], dk[k : k + 1])[0]
            assert alone.tobytes() == x[k].tobytes()


def test_solve_divides_each_part_correctly_rounded():
    # numpy's complex / real gives 50 - 7.1e-15 for 2450 / 49; x_1 = 2450 / 49
    # here, and its imaginary part -2450 / 49, are 50 and -50 exactly.
    x = _solve([[0.0, 2450 - 2450j]], np.zeros((1, 1), dtype=complex), [1.0, 49.0])
    assert x.tolist() == [[0j, 50 - 50j]]


@settings(max_examples=40, deadline=None)
@given(tail16)
def test_contour_oracle_recovers_coefficients(tail):
    # The oracle noise floor is roughly eps / radius**k, so recovering
    # order-16 coefficients needs a circle that is not too small.
    a = TruncatedSeries([1.0] + tail)
    got = contour_coefficients(a, a.order, radius=0.8)
    np.testing.assert_allclose(got, a.coeffs, atol=1e-12)
