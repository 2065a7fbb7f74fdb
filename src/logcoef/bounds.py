"""Closed-form bounds for delta = |gamma_2| - |gamma_1| on each class.

gamma_1 and gamma_2 are the first two coefficients of (1/2) log(f(z)/z).
Every bound here is an explicit algebraic expression in the class parameter,
written once as plain arithmetic that takes a float or an array of
parameters; piecewise bounds switch branch at a breakpoint where the two
expressions agree.  Each function refuses, with ClassSpec's ValueError, a
parameter that is not finite or lies outside its class; an M function also
refuses an alpha at which a term of its formula overflows, rather than
return a false zero.  On an array the refusal names the first parameter
that a loop of single calls would refuse, in that call's words.  A Python
float is evaluated in Python floats, anything else through numpy, whose first
use of each operation in a process costs more than one parameter's few flops;
both paths run the same formulas.  `bound_table` is the two sides over a
whole grid of one class in one evaluation, for sweeps and `verify`, and
`bound_delta` is its one class evaluated in floats, packaged with, for
each side, the catalog label of a member attaining it.  The table is the one
place that names these witnesses: a side is sharp exactly when it names
one, and `verify` checks each named witness against its side.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .classes import ClassSpec, admits

# Breakpoint between the two branches of the lower bound for the
# alpha-convex family.
M_BRANCH_ALPHA = 0.5 * (1.0 + math.sqrt(3.0))


def _refuse_first(kind, param, x, checks) -> None:
    """Refuses, with ValueError, the first parameter a loop of single calls would refuse.

    `param` is a float or an array of parameters, and `x` is it in floats.
    A single call checks that the parameter lies in class `kind` (unless
    kind is None), refusing it as ClassSpec.of does, and then makes
    `checks`, (bad, message) pairs in order: `bad` holds, elementwise, where
    the check fails, and message.format(p) is that call's refusal at p.  The
    first parameter where some check fails is refused by the first check
    that fails there.
    """
    outside = np.False_ if kind is None else ~admits(kind, x)
    hit = functools.reduce(operator.or_, (bad for bad, _ in checks), outside)
    if not hit.any():
        return
    i = int(np.argmax(np.ravel(hit)))
    p = param if np.ndim(param) == 0 else float(np.ravel(x)[i])
    if np.ravel(np.broadcast_to(outside, np.shape(x)))[i]:
        ClassSpec.of(kind, p)
    for bad, message in checks:
        if np.ravel(np.broadcast_to(bad, np.shape(x)))[i]:
            raise ValueError(message.format(p))


# A Python float by math, anything else (an array, a numpy scalar) by numpy.
def _sqrt(x):
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _isinf(x):
    return math.isinf(x) if type(x) is float else np.isinf(x)


def _overflow(name, den):
    """The check that `den`, a term of `name`'s formula, does not overflow."""
    return _isinf(den), f"{name} overflows at alpha = {{}}"


# The text of a refused alpha below M's lower-bound breakpoint.
_BELOW_BRANCH = f"only for alpha >= {M_BRANCH_ALPHA:.6f}, got {{}}"


def _plain(value):
    """A bound as a float for a float parameter, as an array for an array."""
    return float(value) if np.ndim(value) == 0 else value


def _u_upper(lam):
    return 0.5 * lam, ()


def _u_lower_small(lam):
    return -(2.0 * lam + 1.0) / 4.0, ()


def _u_lower_large(lam):
    return -0.5 * _sqrt(2.0 * lam), ()


def _m_upper(alpha):
    den = 1.0 + 2.0 * alpha
    return 0.5 / den, (_overflow("m_upper_bound", den),)


def _m_lower_small(alpha):
    den = 2.0 * (alpha * alpha + 3.0 * alpha + 1.0)
    return -1.0 / _sqrt(den), (_overflow("m_lower_small_alpha", den),)


def _m_lower_large(alpha):
    # Numerator and denominator divided by alpha^2.
    den = 4.0 * (2.0 + 1.0 / alpha) * (alpha + 3.0 + 1.0 / alpha)
    value = -(6.0 + (10.0 + 3.0 / alpha) / alpha) / den
    return value, (_overflow("m_lower_large_alpha", den),)


def _g_upper(alpha):
    return alpha / 12.0, ()


def _g_lower(alpha):
    return -alpha * (17.0 - alpha) / (12.0 * (8.0 - alpha)), ()


def _on_branch(alpha):
    """Whether alpha is finite and on M's large-alpha branch, elementwise."""
    return (M_BRANCH_ALPHA - 1e-12 <= alpha) & (alpha < math.inf)


def _side(kind, param, formula, branch=None):
    """`formula` at `param`, a float or an array, after the checks a single call makes:
    the class's range (none if kind is None), that it is on M's large-alpha
    branch if `branch` is the refusal's text, then the formula's own.  A Python
    float meets the formula only once the first two checks have passed."""
    if type(param) is float:
        if kind is not None:
            ClassSpec.of(kind, param)
        if branch is not None and not _on_branch(param):
            raise ValueError(branch.format(param))
        value, checks = formula(param)
        for bad, message in checks:
            if bad:
                raise ValueError(message.format(param))
        return value
    x = np.asarray(param, dtype=float)[()]
    with np.errstate(all="ignore"):
        value, checks = formula(x)
        if branch is not None:
            checks = ((~_on_branch(x), branch), *checks)
    _refuse_first(kind, param, x, checks)
    return _plain(value)


def u_upper_bound(lam):
    """max delta over U(lam) = lam / 2, attained by z / (1 - lam e^{i t} z^2)."""
    return _side("U", lam, _u_upper)


def u_lower_small_lambda(lam):
    """min delta over U(lam) for lam <= 1/2: -(2 lam + 1) / 4."""
    return _side("U", lam, _u_lower_small)


def u_lower_large_lambda(lam):
    """min delta over U(lam) for lam >= 1/2: -sqrt(2 lam) / 2."""
    return _side("U", lam, _u_lower_large)


def m_upper_bound(alpha):
    """max delta over M(alpha) = 1 / (2 (1 + 2 alpha)).

    Refused with ValueError for alpha above about 9e307, where 1 + 2 alpha
    overflows.
    """
    return _side("M", alpha, _m_upper)


def m_lower_small_alpha(alpha):
    """Lower bound for M(alpha) on 0 <= alpha <= (1 + sqrt 3)/2.

    Refused with ValueError for alpha above about 9.5e153, where
    2 (alpha^2 + 3 alpha + 1) overflows.
    """
    return _side("M", alpha, _m_lower_small)


def m_lower_large_alpha(alpha):
    """Lower bound for M(alpha) on alpha >= (1 + sqrt 3)/2:
    -(6 alpha^2 + 10 alpha + 3) / (4 (2 alpha + 1)(alpha^2 + 3 alpha + 1)).

    Computed with numerator and denominator divided by alpha^2, so it is
    refused with ValueError, as overflowing, only for alpha above about
    2.2e307, where the denominator's 8 alpha overflows.  Refused below the
    breakpoint, where the formula is not the bound.
    """
    return _side("M", alpha, _m_lower_large, "m_lower_large_alpha holds " + _BELOW_BRANCH)


def _m_minimizer(alpha):
    den = alpha * alpha + 3.0 * alpha + 1.0
    return (1.0 + 2.0 * alpha) / den, (_overflow("m_lower_minimizer", den),)


def m_lower_minimizer(alpha):
    """|a_2| at which the large-alpha lower branch is extremized.

    Only meaningful on the branch alpha >= (1 + sqrt 3)/2; below the
    breakpoint the minimum sits at the edge of the admissible |a_2| range
    rather than at this interior point.  Refused with ValueError for alpha
    above about 1.3e154, where alpha^2 + 3 alpha + 1 overflows.
    """
    return _side(None, alpha, _m_minimizer, "interior minimizer exists " + _BELOW_BRANCH)


def g_upper_bound(alpha):
    """max delta over G(alpha) = alpha / 12, attained by the odd member."""
    return _side("G", alpha, _g_upper)


def g_lower_bound(alpha):
    """Lower bound for G(alpha): -alpha (17 - alpha) / (12 (8 - alpha))."""
    return _side("G", alpha, _g_lower)


def _g_minimizer(alpha):
    # Interior: 3 alpha / (8 - alpha) < alpha / 2 iff 6 < 8 - alpha iff alpha < 2.
    return 3.0 * alpha / (8.0 - alpha), ()


def g_lower_minimizer(alpha):
    """|a_2| at which the G(alpha) lower envelope is extremized: 3 alpha / (8 - alpha).

    Always an interior point of the admissible range [0, alpha/2].
    """
    return _side("G", alpha, _g_minimizer)


# The bound on delta over each class with a parameter: the breakpoint of the
# lower side, its formula at and below the breakpoint and above it, and the
# upper side's, each with the catalog label of a member attaining it, None
# where no witness is known.
_TABLE = {
    "U": (0.5, (_u_lower_small, "f5"), (_u_lower_large, "f4"), (_u_upper, "f3")),
    "M": (M_BRANCH_ALPHA, (_m_lower_small, None), (_m_lower_large, None),
          (_m_upper, "m_alpha_upper")),
    "G": (math.inf, (_g_lower, None), (_g_lower, None), (_g_upper, "g_alpha_upper")),
}


def bound_table(kind: str, param):
    """(lower, upper) bound on delta over class `kind` (U, M or G) at `param`.

    `param` is a float, which gives floats, or an array of parameters, which
    gives arrays: each side is its formula, on the lower side the formula of
    the branch the parameter is on, in one evaluation over the whole array.
    The refusal is the one a loop of `bound_delta` calls meets first: the
    first parameter outside the class, or at which a formula overflows.
    """
    brk, (low_small, _), (low_large, _), (up, _) = _TABLE[kind]
    x = np.asarray(param, dtype=float)[()]
    with np.errstate(all="ignore"):
        small = x <= brk
        lower_small, small_checks = low_small(x)
        lower_large, large_checks = low_large(x)
        upper, upper_checks = up(x)
    _refuse_first(kind, param, x, [
        *((bad & small, message) for bad, message in small_checks),
        *((bad & ~small, message) for bad, message in large_checks),
        *upper_checks,
    ])
    return _plain(np.where(small, lower_small, lower_large)), _plain(upper)


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
    """Best known two-sided bound on delta for the given class instance.

    `bound_table` on the one class, which the spec has already checked, in
    Python floats: the lower formula of the parameter's branch, then the
    upper one, refused in the table's order.  Each side carries its witness:
    on U's lower side the one of its branch.
    """
    if spec.kind == "S":
        return BoundPair(-0.5 * math.sqrt(2.0), 0.5, lower_witness="f1", upper_witness="f2")
    brk, small, large, (upper, upper_witness) = _TABLE[spec.kind]
    x = float(spec.param)
    lower, lower_witness = small if x <= brk else large
    return BoundPair(
        _side(None, x, lower), _side(None, x, upper),
        lower_witness=lower_witness, upper_witness=upper_witness,
    )
