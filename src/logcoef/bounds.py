"""Closed-form bounds for delta = |gamma_2| - |gamma_1| on each class.

gamma_1 and gamma_2 are the first two coefficients of (1/2) log(f(z)/z).
Every bound here is an explicit algebraic expression in the class parameter;
piecewise bounds switch branch at a breakpoint where the two expressions
agree.  Each function refuses, with ClassSpec's ValueError, a parameter that
is not finite or lies outside its class; an M function also refuses an alpha
at which a term of its formula overflows, rather than return a false zero.
`bound_delta` packages the pair for a class instance with, for each side, the
catalog label of a member attaining it.  It is the one place that names
these witnesses: a side is sharp exactly when it names one, and `verify`
checks each named witness against its side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classes import ClassSpec

# Breakpoint between the two branches of the lower bound for the
# alpha-convex family.
M_BRANCH_ALPHA = 0.5 * (1.0 + math.sqrt(3.0))


def u_upper_bound(lam: float) -> float:
    """max delta over U(lam) = lam / 2, attained by z / (1 - lam e^{i t} z^2)."""
    ClassSpec.of("U", lam)
    return 0.5 * lam


def u_lower_small_lambda(lam: float) -> float:
    """min delta over U(lam) for lam <= 1/2: -(2 lam + 1) / 4."""
    ClassSpec.of("U", lam)
    return -(2.0 * lam + 1.0) / 4.0


def u_lower_large_lambda(lam: float) -> float:
    """min delta over U(lam) for lam >= 1/2: -sqrt(2 lam) / 2."""
    ClassSpec.of("U", lam)
    return -0.5 * math.sqrt(2.0 * lam)


def m_upper_bound(alpha: float) -> float:
    """max delta over M(alpha) = 1 / (2 (1 + 2 alpha)).

    Refused with ValueError for alpha above about 9e307, where 1 + 2 alpha
    overflows.
    """
    ClassSpec.of("M", alpha)
    den = 1.0 + 2.0 * alpha
    if math.isinf(den):
        raise ValueError(f"m_upper_bound overflows at alpha = {alpha}")
    return 0.5 / den


def m_lower_small_alpha(alpha: float) -> float:
    """Lower bound for M(alpha) on 0 <= alpha <= (1 + sqrt 3)/2.

    Refused with ValueError for alpha above about 9.5e153, where
    2 (alpha^2 + 3 alpha + 1) overflows.
    """
    ClassSpec.of("M", alpha)
    den = 2.0 * (alpha * alpha + 3.0 * alpha + 1.0)
    if math.isinf(den):
        raise ValueError(f"m_lower_small_alpha overflows at alpha = {alpha}")
    return -1.0 / math.sqrt(den)


def m_lower_large_alpha(alpha: float) -> float:
    """Lower bound for M(alpha) on alpha >= (1 + sqrt 3)/2:
    -(6 alpha^2 + 10 alpha + 3) / (4 (2 alpha + 1)(alpha^2 + 3 alpha + 1)).

    Computed with numerator and denominator divided by alpha^2, so it is
    refused with ValueError, as overflowing, only for alpha above about
    2.2e307, where the denominator's 8 alpha overflows.  Refused below the
    breakpoint, where the formula is not the bound.
    """
    ClassSpec.of("M", alpha)
    if alpha < M_BRANCH_ALPHA - 1e-12:
        raise ValueError(
            f"m_lower_large_alpha holds only for alpha >= {M_BRANCH_ALPHA:.6f}, got {alpha}"
        )
    den = 4.0 * (2.0 + 1.0 / alpha) * (alpha + 3.0 + 1.0 / alpha)
    if math.isinf(den):
        raise ValueError(f"m_lower_large_alpha overflows at alpha = {alpha}")
    return -(6.0 + (10.0 + 3.0 / alpha) / alpha) / den


def m_lower_minimizer(alpha: float) -> float:
    """|a_2| at which the large-alpha lower branch is extremized.

    Only meaningful on the branch alpha >= (1 + sqrt 3)/2; below the
    breakpoint the minimum sits at the edge of the admissible |a_2| range
    rather than at this interior point.  Refused with ValueError for alpha
    above about 1.3e154, where alpha^2 + 3 alpha + 1 overflows.
    """
    if not M_BRANCH_ALPHA - 1e-12 <= alpha < math.inf:
        raise ValueError(
            f"interior minimizer exists only for alpha >= {M_BRANCH_ALPHA:.6f}, got {alpha}"
        )
    den = alpha * alpha + 3.0 * alpha + 1.0
    if math.isinf(den):
        raise ValueError(f"m_lower_minimizer overflows at alpha = {alpha}")
    return (1.0 + 2.0 * alpha) / den


def g_upper_bound(alpha: float) -> float:
    """max delta over G(alpha) = alpha / 12, attained by the odd member."""
    ClassSpec.of("G", alpha)
    return alpha / 12.0


def g_lower_bound(alpha: float) -> float:
    """Lower bound for G(alpha): -alpha (17 - alpha) / (12 (8 - alpha))."""
    ClassSpec.of("G", alpha)
    return -alpha * (17.0 - alpha) / (12.0 * (8.0 - alpha))


def g_lower_minimizer(alpha: float) -> float:
    """|a_2| at which the G(alpha) lower envelope is extremized: 3 alpha / (8 - alpha).

    Always an interior point of the admissible range [0, alpha/2].
    """
    ClassSpec.of("G", alpha)
    # Interior: 3 alpha / (8 - alpha) < alpha / 2 iff 6 < 8 - alpha iff alpha < 2.
    return 3.0 * alpha / (8.0 - alpha)


@dataclass(frozen=True)
class BoundPair:
    """Two-sided bound on delta with its witnesses.

    A side is sharp exactly when it names a witness, the catalog label of a
    member attaining it (built with the class's own parameter).
    """

    lower: float
    upper: float
    lower_witness: str | None = None
    upper_witness: str | None = None

    @property
    def lower_sharp(self) -> bool:
        return self.lower_witness is not None

    @property
    def upper_sharp(self) -> bool:
        return self.upper_witness is not None

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_sharp": self.lower_sharp,
            "upper_sharp": self.upper_sharp,
            "lower_witness": self.lower_witness,
            "upper_witness": self.upper_witness,
        }


def bound_delta(spec: ClassSpec) -> BoundPair:
    """Best known two-sided bound on delta for the given class instance."""
    if spec.kind == "S":
        return BoundPair(-0.5 * math.sqrt(2.0), 0.5, lower_witness="f1", upper_witness="f2")
    if spec.kind == "U":
        lam = spec.lam
        if lam <= 0.5:
            lower = u_lower_small_lambda(lam)
            lower_witness = "f5"
        else:
            lower = u_lower_large_lambda(lam)
            lower_witness = "f4"
        return BoundPair(lower, u_upper_bound(lam), lower_witness=lower_witness, upper_witness="f3")
    if spec.kind == "M":
        alpha = spec.alpha
        if alpha <= M_BRANCH_ALPHA:
            lower = m_lower_small_alpha(alpha)
        else:
            lower = m_lower_large_alpha(alpha)
        return BoundPair(lower, m_upper_bound(alpha), upper_witness="m_alpha_upper")
    if spec.kind == "G":
        alpha = spec.alpha
        return BoundPair(g_lower_bound(alpha), g_upper_bound(alpha), upper_witness="g_alpha_upper")
    raise ValueError(f"unknown class kind {spec.kind!r}")
