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
polar grid together with the witness point.  The margins read the ratios
(f/z, z f'/f, z f''/f') from `f.evaluator`, the entry's one evaluation path,
closed form or quadrature, and pass on its refusals.  Full-disk membership
(class S) has no pointwise criterion of this kind and is rejected explicitly.

Each class also has a coefficient body, one row (s, q, t, reach, c0, c2) of
`_body`: a body point (m, w) with 0 <= |m| <= reach and
|w| <= cap(|m|) = c0 + c2 |m|^2 maps to a_2 = s m and a_3 = q a_2^2 + t w.
For U(lam) (and S, read as U(1)) the point is (|a_2|, a_3 - a_2^2) with the
constant cap lam, (c0, c2) = (lam, 0); for M and G it is the Schwarz
coefficients (c_1, c_2) with cap 1 - |c_1|^2, (c0, c2) = (1, -1).  The
Schwarz maps, the coefficient slacks |t| cap(|a_2/s|) - |a_3 - q a_2^2| and
the search module's body all read that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("S", "U", "M", "G")

# Most angular samples per radius accepted by membership_test.
MAX_ANGULAR = 10**4


def format_number(x: float) -> str:
    """x in its shortest round-trip form, with a trailing ".0" dropped: 1.0 -> "1"."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class SingularSampleError(ArithmeticError):
    """f or f' vanished at a sample point, so the margin is undefined there."""


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
        if self.kind == "U":
            if self.lam is None or not 0.0 < self.lam <= 1.0:
                raise ValueError(f"U requires 0 < lambda <= 1, got {self.lam}")
            if self.alpha is not None:
                raise ValueError("U takes lambda, not alpha")
        elif self.kind == "M":
            if self.alpha is None or self.alpha < 0.0:
                raise ValueError(f"M requires alpha >= 0, got {self.alpha}")
            if self.lam is not None:
                raise ValueError("M takes alpha, not lambda")
        elif self.kind == "G":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
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

    A sample where the margin divides by zero, at f = 0 (f/z = 0) for U and M
    or at f' = 0 (z f'/f = 0) for M and G, is singular and becomes NaN.  Any
    other margin that is not finite is refused with ValueError, naming the
    first such point.
    """
    q, p, r = (np.asarray(x, dtype=complex) for x in f.evaluator(zs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind == "U":
            v = spec.lam - np.abs(p / q - 1.0)
            singular = q == 0
        elif spec.kind == "M":
            a = spec.alpha
            v = ((1.0 - a) * p + a * (1.0 + r)).real
            singular = (q == 0) | (p == 0)
        elif spec.kind == "G":
            # The 1s of 1 + alpha/2 and 1 + z f''/f' cancel; kept, they would swallow a tiny alpha.
            v = 0.5 * spec.alpha - r.real
            singular = p == 0
        else:
            raise ValueError("class S has no pointwise membership criterion")
    v = np.where(singular, np.nan, v)
    over = np.flatnonzero(~np.isfinite(v) & ~singular)
    if over.size:
        raise ValueError(f"the {spec.label()} margin overflows at z = {complex(zs[over[0]])}")
    return v


def membership_margin(f, spec: ClassSpec, z: complex) -> float:
    """Margin of the defining inequality at one point.

    Raises SingularSampleError where the margin divides by zero (see
    `_margins`), and ValueError where it overflows.  z must lie in the open
    unit disk; at z = 0 the margin is its limit, lam for U, 1 for M and
    alpha/2 for G.
    """
    z = complex(z)
    # The parts first: abs overflows on parts near the float maximum.
    if not (abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0):
        raise ValueError(f"z must lie inside the unit disk, got {z}")
    v = float(_margins(f, spec, np.asarray([z]))[0])
    if math.isnan(v):
        raise SingularSampleError(f"f or f' vanished at z = {z}")
    return v


def membership_test(
    f,
    spec: ClassSpec,
    radii=(0.5, 0.9, 0.99),
    angular: int = 256,
) -> MembershipReport:
    """Worst margin of the class inequality over a polar grid.

    Samples `angular` equispaced angles on each radius.  Singular samples are
    skipped, counted, and force a failed report; a margin that overflows is
    refused with ValueError (see `_margins`).  The reduction is
    deterministic: ties on the worst margin resolve to the first point in
    (radius, angle) order.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError(f"radii must lie in (0, 1), got {radii}")
    angular = int(angular)
    if not 1 <= angular <= MAX_ANGULAR:
        raise ValueError(f"angular must lie in [1, {MAX_ANGULAR}], got {angular}")

    angles = 2.0 * np.pi * np.arange(angular) / angular
    grid = np.asarray(radii)[:, None] * np.exp(1j * angles)
    margins = np.stack([_margins(f, spec, zs) for zs in grid])
    finite = np.isfinite(margins)
    worst = np.unravel_index(np.argmin(np.where(finite, margins, np.inf)), margins.shape)
    return MembershipReport(
        spec=spec,
        label=f.label,
        radii=radii,
        angular=angular,
        worst_margin=float(margins[worst]) if finite.any() else math.nan,
        witness=complex(grid[worst]),
        margin_by_radius=tuple(
            float(np.nanmin(row)) if ok.any() else math.nan for row, ok in zip(margins, finite)
        ),
        skipped=int(np.count_nonzero(~finite)),
    )


# -- coefficient bodies ------------------------------------------------------


@dataclass(frozen=True)
class _Body:
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

    def coefficients(self, m, w):
        """(a_2, a_3) at body points; broadcasts over ndarrays."""
        a2 = self.s * np.asarray(m)
        return a2, self.q * a2 * a2 + self.t * np.asarray(w)

    def slack(self, a2, a3):
        """|t| cap(|a_2/s|) - |a_3 - q a_2^2|, nonnegative on the body's image."""
        a2 = np.asarray(a2)
        free = np.abs(np.asarray(a3) - self.q * a2 * a2)
        return abs(self.t) * self.cap(np.abs(a2 / self.s)) - free


def _body(spec: ClassSpec) -> _Body:
    """The coefficient body of `spec`, one row per class, S read as U(1).

    For U(lam) the body point is (|a_2|, a_3 - a_2^2); for M and G it is the
    Schwarz coefficients (c_1, c_2), with |c_2| <= 1 - |c_1|^2.  Refuses,
    with ValueError, a class whose map overflows: M above alpha ~ 1.3e154,
    G below alpha ~ 3.7e-309.
    """
    a = spec.alpha
    if spec.kind == "M":
        q = (a * a + 8.0 * a + 3.0) / (4.0 * (1.0 + 2.0 * a))
        body = _Body(-2.0 / (1.0 + a), q, -1.0 / (1.0 + 2.0 * a), 1.0, 1.0, -1.0)
    elif spec.kind == "G":
        body = _Body(0.5 * a, -2.0 * (1.0 - a) / (3.0 * a), a / 6.0, 1.0, 1.0, -1.0)
    else:
        lam = 1.0 if spec.kind == "S" else spec.lam
        body = _Body(1.0, 1.0, 1.0, 1.0 + lam, lam, 0.0)
    if not all(map(math.isfinite, (body.s, body.q, body.t))):
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


def m_coefficients_from_schwarz(c1, c2, alpha: float):
    """(a_2, a_3) of the alpha-convex candidate driven by Schwarz data.

    Inverts the coefficient relations of the defining functional:
    c_1 = -(1 + alpha) a_2 / 2 and
    c_2 = -[(1 + 2 alpha) a_3 - (alpha^2 + 8 alpha + 3)/4 * a_2^2].
    Accepts scalars or ndarrays.
    """
    return _body(ClassSpec.of("M", alpha)).coefficients(c1, c2)


def g_coefficients_from_schwarz(c1, c2, alpha: float):
    """(a_2, a_3) of the G(alpha) candidate driven by Schwarz data.

    Inverts c_1 = (2/alpha) a_2 and
    c_2 = (6/alpha) (a_3 + (2/3) ((1 - alpha)/alpha) a_2^2).
    Accepts scalars or ndarrays.
    """
    return _body(ClassSpec.of("G", alpha)).coefficients(c1, c2)


def eq10_slack(a2, a3, alpha: float):
    """Slack of the alpha-convex coefficient inequality

    |a_3 - (alpha^2 + 8 alpha + 3)/(4 (1 + 2 alpha)) a_2^2|
        <= 1/(1 + 2 alpha) - (1 + alpha)^2 / (4 (1 + 2 alpha)) |a_2|^2.

    Nonnegative on the image of the Schwarz body.  Accepts ndarrays.
    """
    return _body(ClassSpec.of("M", alpha)).slack(a2, a3)


def e11_slack(a2, a3, alpha: float):
    """Slack of the G(alpha) coefficient inequality

    |a_3 + 2 (1 - alpha) / (3 alpha) a_2^2| <= (alpha^2 - 4 |a_2|^2) / (6 alpha).

    Nonnegative on the image of the Schwarz body.  Accepts ndarrays.
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
