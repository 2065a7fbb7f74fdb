"""Geometric function classes and pointwise membership testing.

Supported classes, each described by the defining inequality its margin
function measures:

* ``U(lam)``:   |(z/f(z))^2 f'(z) - 1| < lam on the disk, 0 < lam <= 1,
  where (z/f)^2 f' = (z f'/f) / (f/z);
* ``M(alpha)``: Re[(1 - alpha) z f'/f + alpha (1 + z f''/f')] > 0, alpha >= 0
  (alpha = 0 is the starlike case, alpha = 1 the convex case);
* ``G(alpha)``: Re[1 + z f''/f'] < 1 + alpha/2, 0 < alpha <= 1.

The margin is positive where the inequality holds with room to spare and
negative where it fails; a membership test reports the worst margin seen on a
polar grid together with the witness point, from one margin call over the
whole grid.  `membership_tests` tests a list of (f, spec) pairs on one grid,
their margins stacked and reduced at once; `membership_test` is its one-pair
case.  The margins read the ratios (f/z, z f'/f, z f''/f') from
`f.evaluator`, the entry's one evaluation path, closed form or quadrature,
and pass on its refusals.  The M margin at a quadrature row's own alpha and
the G margin of a row with a = 1 do not depend on z f'/f; they read z h'/h,
a closed form in the row, from `f.dlog_h`, which runs no quadrature but
refuses what the evaluator refuses.  The U margin of z/P reads neither.
A membership test first refuses an f with a pole or a branch point inside
the disk (`AnalyticFunction.check_analytic`), which no grid could see.
Full-disk membership (class S) has no pointwise criterion of this kind and
is rejected explicitly.

Each class also has a coefficient body, one row (s, q, t, reach, c0, c2) of
`_body_row`: a body point (m, w) with 0 <= |m| <= reach and
|w| <= cap(|m|) = c0 + c2 |m|^2 maps to a_2 = s m and a_3 = q a_2^2 + t w.
For U(lam) (and S, read as U(1)) the point is (|a_2|, a_3 - a_2^2) with the
constant cap lam, (c0, c2) = (lam, 0); for M and G it is the Schwarz
coefficients (c_1, c_2) with cap 1 - |c_1|^2, (c0, c2) = (1, -1).  The
coefficient slacks |t| cap(|a_2/s|) - |a_3 - q a_2^2| and the search
module's body both read that row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .series import _is_integer

KINDS = ("S", "U", "M", "G")

# Most angular samples per radius accepted by membership_test.
MAX_ANGULAR = 10**4


def format_number(x: float) -> str:
    """x in its shortest round-trip form, with a trailing ".0" dropped: 1.0 -> "1"."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class SingularSampleError(ArithmeticError):
    """f or f' vanished at a sample point, so the margin is undefined there."""


def _in_range(kind: str, param):
    """Whether `param`, a float or an array, lies in the range of class `kind`,
    elementwise: 0 < lam <= 1 for U, alpha >= 0 for M and 0 < alpha <= 1 for G."""
    if kind == "M":
        return param >= 0.0
    return (0.0 < param) & (param <= 1.0)


def admits(kind: str, param):
    """Whether ClassSpec.of(kind, param) accepts `param`, a float or an array of
    parameters, elementwise: a finite parameter in the class's range."""
    return np.isfinite(param) & _in_range(kind, param)


@dataclass(frozen=True)
class ClassSpec:
    """Which class, with its parameter: U carries lam, M and G carry alpha."""

    kind: str
    lam: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}; expected one of {KINDS}")
        for name, value in (("lambda", self.lam), ("alpha", self.alpha)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("lam", "alpha"):
            if getattr(self, name) == 0:  # -0.0 reads, and prints, as 0.0
                object.__setattr__(self, name, 0.0)
        if self.kind == "U":
            if self.lam is None or not _in_range("U", self.lam):
                raise ValueError(f"U requires 0 < lambda <= 1, got {self.lam}")
            if self.alpha is not None:
                raise ValueError("U takes lambda, not alpha")
        elif self.kind == "M":
            if self.alpha is None or not _in_range("M", self.alpha):
                raise ValueError(f"M requires alpha >= 0, got {self.alpha}")
            if self.lam is not None:
                raise ValueError("M takes alpha, not lambda")
        elif self.kind == "G":
            if self.alpha is None or not _in_range("G", self.alpha):
                raise ValueError(f"G requires 0 < alpha <= 1, got {self.alpha}")
            if self.lam is not None:
                raise ValueError("G takes alpha, not lambda")
        else:  # S
            if self.lam is not None or self.alpha is not None:
                raise ValueError("S takes no parameter")

    @classmethod
    def of(cls, kind: str, param: float | None = None) -> "ClassSpec":
        """The class `kind` with its parameter: lam for U, alpha for M and G."""
        return cls(kind, lam=param) if kind == "U" else cls(kind, alpha=param)

    @property
    def param(self) -> float | None:
        return self.lam if self.kind == "U" else self.alpha

    def label(self) -> str:
        if self.kind == "S":
            return "S"
        return f"{self.kind}({format_number(self.param)})"


@dataclass(frozen=True)
class MembershipReport:
    """Result of a polar-grid membership test."""

    spec: ClassSpec
    label: str
    radii: tuple
    angular: int
    worst_margin: float
    witness: complex
    margin_by_radius: tuple
    skipped: int

    @property
    def passed(self) -> bool:
        # A singular sample means the defining inequality could not be
        # checked there, so a skip can never count as a pass.
        return self.skipped == 0 and np.isfinite(self.worst_margin) and self.worst_margin > 0.0

    def as_dict(self) -> dict:
        d = {
            "class": self.spec.label(),
            "label": self.label,
            "radii": list(self.radii),
            "angular": self.angular,
            "worst_margin": self.worst_margin,
            "witness": {"re": self.witness.real, "im": self.witness.imag},
            "margin_by_radius": [
                {"radius": r, "margin": m} for r, m in zip(self.radii, self.margin_by_radius)
            ],
            "skipped": self.skipped,
            "passed": self.passed,
        }
        if self.spec.kind == "U":
            d["lambda"] = self.spec.lam
        elif self.spec.kind in ("M", "G"):
            d["alpha"] = self.spec.alpha
        return d


def _margins(f, spec: ClassSpec, zs: np.ndarray) -> np.ndarray:
    """Margins at an array of sample points, from (f/z, z f'/f, z f''/f') by `f.evaluator`.

    For a row with a > 0, z f''/f' = (a - 1)/a (p - 1) + z h'/h with
    p = z f'/f, so the M(alpha) margin is Re[(1 - alpha/a)(p - 1) + 1 +
    alpha z h'/h] and the G(alpha) margin alpha/2 - Re[(a - 1)/a (p - 1) +
    z h'/h].  Where the coefficient of p - 1 is 0, M at alpha = a and G at
    a = 1, the margin is read from z h'/h alone (`f.dlog_h`), which needs no
    quadrature and does not cancel.  For f = z/P (a = 0, power -1),
    (z/f)^2 f' - 1 = P - z P' - 1 = -c z^2, c the z^2 coefficient of P, so
    the U margin is lam - |c| |z|^2 at any theta, with no evaluator call.

    A sample where the margin divides by zero, at f = 0 (f/z = 0) for U and M
    or at f' = 0 (z f'/f = 0, or h = 0) for M and G, is singular and becomes
    NaN.  Any other margin that is not finite is refused with ValueError,
    naming the first such point of `zs` in flat order.  The margins have the
    shape of `zs`; a 2-D `zs` is a stack of rings (see `AnalyticFunction`).
    """
    (P, e), a = f.row.factors[0], f.row.a
    if spec.kind == "U" and a == 0 and e == -1.0:
        c = abs(P[2]) if len(P) > 2 else 0.0
        v, singular = spec.lam - c * (zs.real**2 + zs.imag**2), False
    elif a > 0 and (spec.kind == "M" and spec.alpha == a or spec.kind == "G" and a == 1.0):
        d = np.asarray(f.dlog_h(zs), dtype=complex)  # NaN only where h = 0
        with np.errstate(over="ignore", invalid="ignore"):
            v = 1.0 + a * d.real if spec.kind == "M" else 0.5 * spec.alpha - d.real
        singular = np.isnan(d)
    else:
        v, singular = _ratio_margins(spec, *(np.asarray(x, dtype=complex) for x in f.evaluator(zs)))
    v = np.where(singular, np.nan, v)
    over = np.flatnonzero(~np.isfinite(v) & ~singular)
    if over.size:
        z = complex(np.ravel(zs)[over[0]])
        raise ValueError(f"the {spec.label()} margin overflows at z = {z}")
    return v


def _ratio_margins(spec: ClassSpec, q, p, r):
    """(margins, singular) of `spec` from the ratios q = f/z, p = z f'/f, r = z f''/f'."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind == "U":
            return spec.lam - np.abs(p / q - 1.0), q == 0
        if spec.kind == "M":
            a = spec.alpha
            return ((1.0 - a) * p + a * (1.0 + r)).real, (q == 0) | (p == 0)
        if spec.kind == "G":
            # The 1s of 1 + alpha/2 and 1 + z f''/f' cancel; kept, they would swallow a tiny alpha.
            return 0.5 * spec.alpha - r.real, p == 0
    raise ValueError("class S has no pointwise membership criterion")


def membership_margin(f, spec: ClassSpec, z: complex) -> float:
    """Margin of the defining inequality at one point.

    Raises SingularSampleError where the margin divides by zero (see
    `_margins`), and ValueError where it overflows, or for an f that is not
    analytic in the disk (`f.check_analytic`, as in `membership_test`).  z
    must lie in the open unit disk; at z = 0 the margin is its limit, lam
    for U, 1 for M and alpha/2 for G.
    """
    z = complex(z)
    # The parts first: abs overflows on parts near the float maximum.
    if not (abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0):
        raise ValueError(f"z must lie inside the unit disk, got {z}")
    f.check_analytic()
    v = float(_margins(f, spec, np.asarray([z]))[0])
    if math.isnan(v):
        raise SingularSampleError(f"f or f' vanished at z = {z}")
    return v


@functools.lru_cache(maxsize=16)  # bounded: a ring of MAX_ANGULAR points takes 160 kB
def _ring(angular: int) -> np.ndarray:
    """The points e^{2 pi i j / n}, j = 0..n-1 with n = angular, as exact mirror images;
    cached for the last 16 n, and read-only.

    ring[n - j] == conj(ring[j]) for every j, and for even n ring[j + n/2] ==
    -ring[j], except that ring[3n/4] is conj(ring[n/4]), which is not
    -ring[n/4] because cos(pi/2) = 6.1e-17.  The upper half's second quarter
    is the first reflected, ring[n/2 - j] = -conj(ring[j]), ring[n/2] is
    -ring[0], and the lower half is the upper half conjugated, last.  Each
    point stays within 2e-15 of its exact value.
    """
    n = angular
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    if n % 2 == 0:
        j = np.arange(1, (n // 2 + 1) // 2)
        ring[n // 2 - j] = -ring[j].conj()
        ring[n // 2] = -ring[0]
    j = np.arange(1, (n + 1) // 2)
    ring[n - j] = ring[j].conj()
    ring.setflags(write=False)  # cached and shared by every caller
    return ring


def membership_test(
    f,
    spec: ClassSpec,
    radii=(0.5, 0.9, 0.99),
    angular: int = 256,
) -> MembershipReport:
    """Worst margin of the class inequality over a polar grid.

    Samples `angular` equispaced angles on each radius, from `_ring`, so the
    grid is exactly symmetric under z -> conj z and, for even `angular`,
    z -> -z: an evaluator that folds by its row's symmetry evaluates each
    orbit once, and the margins of a symmetric row are equal at mirror
    points.  The test is one `_margins` call over the whole grid, with the
    bits of one call per radius.  Singular samples are skipped, counted, and
    force a failed report; a margin that overflows is refused with
    ValueError (see `_margins`), and a refusal has the words of the first
    radius that refuses alone.  The reduction is deterministic: ties on the
    worst margin, such as those mirror points, resolve to the first point in
    (radius, angle) order.

    An f that is not analytic in the open disk, with a pole or a branch
    point strictly inside it, is refused with ValueError naming that zero
    (`f.check_analytic`), before any sample: the margins on the grid could
    pass it, as they never see what lies between the rings.  A zero on the
    circle, within the roundoff tolerance stated there, passes.  `angular`
    must be an integer in [1, MAX_ANGULAR], not a bool or a float.

    This is `membership_tests` on the one pair (f, spec).
    """
    return membership_tests([(f, spec)], radii, angular)[0]


def membership_tests(pairs, radii=(0.5, 0.9, 0.99), angular: int = 256) -> list:
    """The `membership_test` report of each (f, spec) pair in a list, on one grid.

    Each pair's margins are one `_margins` call over the grid; they are stacked
    and reduced at once.  A refusal is the first that a loop of
    `membership_test` calls over the pairs would meet, in its words.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError(f"radii must lie in (0, 1), got {radii}")
    if not _is_integer(angular):
        raise ValueError(f"angular must be an integer, got {angular!r}")
    angular = int(angular)  # the report's value is then JSON's
    if not 1 <= angular <= MAX_ANGULAR:
        raise ValueError(f"angular must lie in [1, {MAX_ANGULAR}], got {angular}")

    grid = np.asarray(radii)[:, None] * _ring(angular)
    margins = np.empty((len(pairs), *grid.shape))
    for k, (f, spec) in enumerate(pairs):
        f.check_analytic()
        try:
            margins[k] = _margins(f, spec, grid)
        except ValueError:
            for zs in grid:  # the first radius that refuses alone names the refusal
                _margins(f, spec, zs)
            raise
    flat = margins.reshape(len(pairs), grid.size)
    finite = np.isfinite(flat)
    worst = np.argmin(np.where(finite, flat, np.inf), axis=1)
    return [
        MembershipReport(spec, f.label, radii, angular, m if skipped < grid.size else math.nan,
                         z, tuple(by_radius), skipped)
        for (f, spec), m, z, by_radius, skipped in zip(
            pairs,
            flat[np.arange(len(pairs)), worst].tolist(),
            grid.ravel()[worst].tolist(),
            np.fmin.reduce(margins, axis=2).tolist(),
            (grid.size - finite.sum(axis=1)).tolist(),
        )
    ]


# -- coefficient bodies ------------------------------------------------------


class _Body(NamedTuple):
    """A class's coefficient body: the body point (m, w), 0 <= |m| <= reach and
    |w| <= cap(|m|) = c0 + c2 |m|^2, maps to a_2 = s m and a_3 = q a_2^2 + t w.
    (c0, c2) is (lam, 0) for U(lam) and (1, -1), the Schwarz cap 1 - |m|^2, for M and G."""

    s: float
    q: float
    t: float
    reach: float
    c0: float
    c2: float

    def cap(self, m):
        m = np.asarray(m, dtype=float)
        return self.c0 + self.c2 * m * m

    def slack(self, a2, a3):
        """|t| cap(|a_2/s|) - |a_3 - q a_2^2|, nonnegative on the body's image."""
        a2 = np.asarray(a2)
        free = np.abs(np.asarray(a3) - self.q * a2 * a2)
        return abs(self.t) * self.cap(np.abs(a2 / self.s)) - free


def _body_row(kind: str, param) -> _Body:
    """The body row of class `kind` at `param`, as plain arithmetic in the parameter.

    `param` is lam for U and alpha for M and G, and S, read as U(1), does not
    read it.  For U(lam) the body point is (|a_2|, a_3 - a_2^2); for M and G
    it is the Schwarz coefficients (c_1, c_2), with |c_2| <= 1 - |c_1|^2.
    `param` is a float or a 1-D array of parameters; a field that varies
    with the parameter is then an array like it, and a constant stays a
    float.  Nothing is checked here: see `_body`.
    """
    a = param
    if kind == "M":
        q = (a * a + 8.0 * a + 3.0) / (4.0 * (1.0 + 2.0 * a))
        return _Body(-2.0 / (1.0 + a), q, -1.0 / (1.0 + 2.0 * a), 1.0, 1.0, -1.0)
    if kind == "G":
        return _Body(0.5 * a, -2.0 * (1.0 - a) / (3.0 * a), a / 6.0, 1.0, 1.0, -1.0)
    lam = 1.0 if kind == "S" else param
    return _Body(1.0, 1.0, 1.0, 1.0 + lam, lam, 0.0)


def _body(spec: ClassSpec) -> _Body:
    """The coefficient body of `spec`: its `_body_row`, refused with ValueError
    where its map (s, q, t) overflows: M above alpha ~ 1.3e154, G below alpha
    ~ 3.7e-309."""
    body = _body_row(spec.kind, spec.param)
    if not all(map(math.isfinite, body[:3])):
        raise ValueError(f"the coefficient map of {spec.label()} overflows")
    return body


def u_aux_check(f, lam: float) -> tuple[float, float]:
    """Slacks of the two necessary coefficient bounds for U(lam):

    |a_3 - a_2^2| <= lam  and  |a_2| <= 1 + lam.
    Returns (lam - |a_3 - a_2^2|, 1 + lam - |a_2|), nonnegative for members.
    """
    body = _body(ClassSpec.of("U", lam))
    a2 = f.a(2)
    return float(body.slack(a2, f.a(3))), body.reach - abs(a2 / body.s)


def eq10_slack(a2, a3, alpha: float):
    """Slack of the alpha-convex coefficient inequality

    |a_3 - (alpha^2 + 8 alpha + 3)/(4 (1 + 2 alpha)) a_2^2|
        <= 1/(1 + 2 alpha) - (1 + alpha)^2 / (4 (1 + 2 alpha)) |a_2|^2.

    Nonnegative for every member of M(alpha).  Accepts ndarrays.
    """
    return _body(ClassSpec.of("M", alpha)).slack(a2, a3)


def e11_slack(a2, a3, alpha: float):
    """Slack of the G(alpha) coefficient inequality

    |a_3 + 2 (1 - alpha) / (3 alpha) a_2^2| <= (alpha^2 - 4 |a_2|^2) / (6 alpha).

    Nonnegative for every member of G(alpha).  Accepts ndarrays.
    """
    return _body(ClassSpec.of("G", alpha)).slack(a2, a3)


def coeff_bound_A_check(f, alpha: float, n: int) -> float:
    """Slack of |a_n| <= alpha / (n (n - 1)), valid throughout G(alpha)."""
    ClassSpec.of("G", alpha)  # refuses alpha outside G's range
    if n < 2:
        raise ValueError(f"bound starts at n = 2, got {n}")
    return alpha / (n * (n - 1.0)) - abs(f.a(n))


def asserted_memberships():
    """Catalog entries paired with the class each is known to belong to."""
    from . import catalog  # catalog checks its class parameters with ClassSpec

    return [
        (catalog.koebe(0.0), ClassSpec("M", alpha=0.0)),
        (catalog.koebe(2.5), ClassSpec("M", alpha=0.0)),
        (catalog.f1(0.0), ClassSpec("U", lam=1.0)),
        (catalog.f2(0.0), ClassSpec("U", lam=1.0)),
        (catalog.f3(0.8, 0.0), ClassSpec("U", lam=0.8)),
        (catalog.f3(0.6, 2.0), ClassSpec("U", lam=0.6)),
        (catalog.f3(1.0, 0.0), ClassSpec("U", lam=1.0)),
        (catalog.f4(0.5), ClassSpec("U", lam=0.5)),
        (catalog.f4(1.0), ClassSpec("U", lam=1.0)),
        (catalog.f5(0.25), ClassSpec("U", lam=0.25)),
        (catalog.f5(0.5), ClassSpec("U", lam=0.5)),
        (catalog.k_theta_alpha(0.0, 0.5), ClassSpec("M", alpha=0.5)),
        (catalog.k_theta_alpha(0.0, 1.0), ClassSpec("M", alpha=1.0)),
        (catalog.m_alpha_upper(0.0), ClassSpec("M", alpha=0.0)),
        (catalog.m_alpha_upper(1.0), ClassSpec("M", alpha=1.0)),
        (catalog.m_alpha_upper(2.0), ClassSpec("M", alpha=2.0)),
        (catalog.g_alpha_upper(0.25), ClassSpec("G", alpha=0.25)),
        (catalog.g_alpha_upper(0.5), ClassSpec("G", alpha=0.5)),
        (catalog.g_alpha_upper(1.0), ClassSpec("G", alpha=1.0)),
        (catalog.g_quadratic(), ClassSpec("G", alpha=1.0)),
    ]
