"""Closed-form bounds for delta = |gamma_2| - |gamma_1| on each class.

gamma_1 and gamma_2 are the first two coefficients of (1/2) log(f(z)/z).
Every bound here is an explicit algebraic expression in the class parameter;
piecewise bounds switch branch at a breakpoint where the two expressions
agree.  `bound_delta` packages the pair for a class instance together with
sharpness flags and, where sharpness holds, the catalog label of a member
attaining the bound.
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
    return 0.5 * lam


def u_lower_small_lambda(lam: float) -> float:
    """min delta over U(lam) for lam <= 1/2: -(2 lam + 1) / 4."""
    return -(2.0 * lam + 1.0) / 4.0


def u_lower_large_lambda(lam: float) -> float:
    """min delta over U(lam) for lam >= 1/2: -sqrt(2 lam) / 2."""
    return -0.5 * math.sqrt(2.0 * lam)


def m_upper_bound(alpha: float) -> float:
    """max delta over M(alpha) = 1 / (2 (1 + 2 alpha))."""
    return 0.5 / (1.0 + 2.0 * alpha)


def m_lower_small_alpha(alpha: float) -> float:
    """Lower bound for M(alpha) on 0 <= alpha <= (1 + sqrt 3)/2."""
    return -1.0 / math.sqrt(2.0 * (alpha * alpha + 3.0 * alpha + 1.0))


def m_lower_large_alpha(alpha: float) -> float:
    """Lower bound for M(alpha) on alpha >= (1 + sqrt 3)/2."""
    num = 6.0 * alpha * alpha + 10.0 * alpha + 3.0
    den = 4.0 * (2.0 * alpha + 1.0) * (alpha * alpha + 3.0 * alpha + 1.0)
    return -num / den


def m_lower_minimizer(alpha: float) -> float:
    """|a_2| at which the large-alpha lower branch is extremized.

    Only meaningful on the branch alpha >= (1 + sqrt 3)/2; below the
    breakpoint the minimum sits at the edge of the admissible |a_2| range
    rather than at this interior point.
    """
    if not M_BRANCH_ALPHA - 1e-12 <= alpha < math.inf:
        raise ValueError(
            f"interior minimizer exists only for alpha >= {M_BRANCH_ALPHA:.6f}, got {alpha}"
        )
    return (1.0 + 2.0 * alpha) / (alpha * alpha + 3.0 * alpha + 1.0)


def g_upper_bound(alpha: float) -> float:
    """max delta over G(alpha) = alpha / 12, attained by the odd member."""
    return alpha / 12.0


def g_lower_bound(alpha: float) -> float:
    """Lower bound for G(alpha): -alpha (17 - alpha) / (12 (8 - alpha))."""
    return -alpha * (17.0 - alpha) / (12.0 * (8.0 - alpha))


def g_lower_minimizer(alpha: float) -> float:
    """|a_2| at which the G(alpha) lower envelope is extremized: 3 alpha / (8 - alpha).

    Always an interior point of the admissible range [0, alpha/2].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"G requires 0 < alpha <= 1, got {alpha}")
    # Interior: 3 alpha / (8 - alpha) < alpha / 2 iff 6 < 8 - alpha iff alpha < 2.
    return 3.0 * alpha / (8.0 - alpha)


@dataclass(frozen=True)
class BoundPair:
    """Two-sided bound on delta with sharpness data.

    A sharp side carries the catalog label of a member attaining it; the
    optional note records caveats about a side that is not claimed sharp.
    """

    lower: float
    upper: float
    lower_sharp: bool
    upper_sharp: bool
    lower_witness: str | None = None
    upper_witness: str | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        d = {
            "lower": self.lower,
            "upper": self.upper,
            "lower_sharp": self.lower_sharp,
            "upper_sharp": self.upper_sharp,
            "lower_witness": self.lower_witness,
            "upper_witness": self.upper_witness,
        }
        if self.note is not None:
            d["note"] = self.note
        return d


def bound_delta(spec: ClassSpec) -> BoundPair:
    """Best known two-sided bound on delta for the given class instance."""
    if spec.kind == "S":
        return BoundPair(
            lower=-0.5 * math.sqrt(2.0),
            upper=0.5,
            lower_sharp=True,
            upper_sharp=True,
            lower_witness="f1",
            upper_witness="f2",
        )
    if spec.kind == "U":
        lam = spec.lam
        if lam <= 0.5:
            lower = u_lower_small_lambda(lam)
            lower_witness = "f5"
        else:
            lower = u_lower_large_lambda(lam)
            lower_witness = "f4"
        return BoundPair(
            lower=lower,
            upper=u_upper_bound(lam),
            lower_sharp=True,
            upper_sharp=True,
            lower_witness=lower_witness,
            upper_witness="f3",
        )
    if spec.kind == "M":
        alpha = spec.alpha
        if alpha <= M_BRANCH_ALPHA:
            lower = m_lower_small_alpha(alpha)
        else:
            lower = m_lower_large_alpha(alpha)
        return BoundPair(
            lower=lower,
            upper=m_upper_bound(alpha),
            lower_sharp=False,
            upper_sharp=True,
            upper_witness="m_alpha_upper",
        )
    if spec.kind == "G":
        alpha = spec.alpha
        note = None
        if alpha == 1.0:
            note = (
                "lower bound not known to be attained: the member z - z^2/2 "
                "reaches -3/16 = -0.1875, above the bound -4/21"
            )
        return BoundPair(
            lower=g_lower_bound(alpha),
            upper=g_upper_bound(alpha),
            lower_sharp=False,
            upper_sharp=True,
            upper_witness="g_alpha_upper",
            note=note,
        )
    raise ValueError(f"unknown class kind {spec.kind!r}")
