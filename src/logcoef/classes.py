"""Geometric function classes and pointwise membership testing.

Supported classes, each described by the defining inequality its margin
function measures:

* ``U(lam)``:   |(z/f(z))^2 f'(z) - 1| < lam on the disk, 0 < lam <= 1;
* ``M(alpha)``: Re[(1 - alpha) z f'/f + alpha (1 + z f''/f')] > 0, alpha >= 0
  (alpha = 0 is the starlike case, alpha = 1 the convex case);
* ``G(alpha)``: Re[1 + z f''/f'] < 1 + alpha/2, 0 < alpha <= 1.

The margin is positive where the inequality holds with room to spare and
negative where it fails; a membership test reports the worst margin seen on a
polar grid together with the witness point.  Full-disk membership (class S)
has no pointwise criterion of this kind and is rejected explicitly.

The Schwarz-coefficient maps in this module translate a point of the body
{|c_1| <= 1, |c_2| <= 1 - |c_1|^2} into the (a_2, a_3) pair of a hypothetical
member, which is what the search module sweeps over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog

KINDS = ("S", "U", "M", "G")

# Most angular samples per radius accepted by membership_test.
MAX_ANGULAR = 10**4

# An entry without an evaluator is evaluated from its series, which is
# refused when the geometric tail estimate of the second-derivative series
# exceeds this bound.  Every catalog entry has an evaluator; the gate guards
# series a user builds.
SERIES_TAIL_BUDGET = 1e-6
_TAIL_SAFETY = 8.0
_TAIL_WINDOW = 16


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
class SchwarzPoint:
    """Coefficient pair (c_1, c_2) of a Schwarz function: |c_2| <= 1 - |c_1|^2."""

    c1: complex
    c2: complex

    def __post_init__(self):
        r = abs(self.c1)
        if not r <= 1.0 + 1e-12:
            raise ValueError(f"|c1| = {r} exceeds 1")
        if not abs(self.c2) <= 1.0 - r * r + 1e-12:
            raise ValueError(f"|c2| = {abs(self.c2)} exceeds 1 - |c1|^2 = {1 - r * r}")


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
            "class": self.spec.kind,
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


def _tail_estimate(coeffs: np.ndarray, r: float) -> float:
    """Geometric estimate of the dropped tail of sum |a_n| r^n.

    Takes the largest |a_n| r^n over the last few stored coefficients and
    extends it as a geometric series with ratio r, times a safety factor for
    polynomially growing coefficients.  Heuristic, but for coefficients that
    grow at most like a small power of n it overestimates the true tail
    whenever the window terms are already decaying.
    """
    w = min(_TAIL_WINDOW, len(coeffs))
    k = np.arange(len(coeffs) - w, len(coeffs), dtype=float)
    window = np.abs(coeffs[-w:]) * r**k
    return float(window.max() * (r / (1.0 - r)) * _TAIL_SAFETY)


def _series_values(f, zs: np.ndarray, r: float):
    s = f.series.series
    d1 = s.deriv()
    d2 = d1.deriv()
    # Gate on the second-derivative series, the worst-conditioned of the three.
    est = _tail_estimate(d2.coeffs, r)
    if est > SERIES_TAIL_BUDGET:
        raise ValueError(
            f"series of order {s.order} cannot be trusted at radius {format_number(r)} "
            f"(tail estimate {est:.2e} > {SERIES_TAIL_BUDGET:.0e}); rebuild the "
            "entry with a higher order"
        )
    return s(zs), d1(zs), d2(zs)


def _values(f, zs: np.ndarray, r: float):
    if f.evaluator is not None:
        return f.evaluator(zs)
    return _series_values(f, zs, r)


def _margins(f, spec: ClassSpec, zs: np.ndarray, r: float) -> np.ndarray:
    """Margins at an array of sample points; singular samples become NaN."""
    F, F1, F2 = _values(f, zs, r)
    F = np.asarray(F, dtype=complex)
    F1 = np.asarray(F1, dtype=complex)
    F2 = np.asarray(F2, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.kind == "U":
            v = spec.lam - np.abs((zs / F) ** 2 * F1 - 1.0)
            bad = (F == 0) | ~np.isfinite(v)
        elif spec.kind == "M":
            a = spec.alpha
            j = (1.0 - a) * zs * F1 / F + a * (1.0 + zs * F2 / F1)
            v = j.real
            bad = (F == 0) | (F1 == 0) | ~np.isfinite(v)
        elif spec.kind == "G":
            a = spec.alpha
            v = 1.0 + 0.5 * a - (1.0 + zs * F2 / F1).real
            bad = (F1 == 0) | ~np.isfinite(v)
        else:
            raise ValueError("class S has no pointwise membership criterion")
    v = np.where(bad, np.nan, v)
    # At z = 0 every margin has a removable limit: lam for U, 1 for M, alpha/2 for G.
    at0 = zs == 0
    if np.any(at0):
        limit = {"U": spec.lam, "M": 1.0, "G": 0.5 * (spec.alpha or 0.0)}[spec.kind]
        v = np.where(at0, limit, v)
    return v


def membership_margin(f, spec: ClassSpec, z: complex) -> float:
    """Margin of the defining inequality at one point; raises on singular z.

    z must lie in the open unit disk, as membership_test's radii do.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"z must lie inside the unit disk, got {z}")
    v = _margins(f, spec, np.asarray([z]), abs(z))
    if not np.isfinite(v[0]):
        raise SingularSampleError(f"f or f' vanished at z = {z}")
    return float(v[0])


def membership_test(
    f,
    spec: ClassSpec,
    radii=(0.5, 0.9, 0.99),
    angular: int = 256,
) -> MembershipReport:
    """Worst margin of the class inequality over a polar grid.

    Samples `angular` equispaced angles on each radius.  Singular samples are
    skipped, counted, and force a failed report.  The reduction is
    deterministic: ties on the worst margin resolve to the first point in
    (radius, angle) order.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError(f"radii must lie strictly inside (0, 1), got {radii}")
    angular = int(angular)
    if not 1 <= angular <= MAX_ANGULAR:
        raise ValueError(f"angular must lie in [1, {MAX_ANGULAR}], got {angular}")

    angles = 2.0 * np.pi * np.arange(angular) / angular
    ring = np.exp(1j * angles)

    rows = [_margins(f, spec, r * ring, r) for r in radii]

    worst = np.inf
    witness = complex(radii[0] * ring[0])
    skipped = 0
    per_radius = []
    for r, margins in zip(radii, rows):
        finite = np.isfinite(margins)
        skipped += int(np.count_nonzero(~finite))
        if not finite.any():
            per_radius.append(float("nan"))
            continue
        j = int(np.nanargmin(margins))
        m = float(margins[j])
        per_radius.append(m)
        if m < worst:
            worst = m
            witness = complex(r * ring[j])
    if not per_radius or not np.isfinite(worst):
        worst = float("nan")
    return MembershipReport(
        spec=spec,
        label=f.label,
        radii=radii,
        angular=angular,
        worst_margin=float(worst),
        witness=witness,
        margin_by_radius=tuple(per_radius),
        skipped=skipped,
    )


# -- coefficient-level checks ------------------------------------------------


def u_aux_check(f, lam: float) -> tuple[float, float]:
    """Slacks of the two necessary coefficient bounds for U(lam):

    |a_3 - a_2^2| <= lam  and  |a_2| <= 1 + lam.
    Returns (lam - |a_3 - a_2^2|, 1 + lam - |a_2|), nonnegative for members.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"U requires 0 < lambda <= 1, got {lam}")
    a2, a3 = f.a(2), f.a(3)
    return lam - abs(a3 - a2 * a2), (1.0 + lam) - abs(a2)


def m_coefficients_from_schwarz(c1, c2, alpha: float):
    """(a_2, a_3) of the alpha-convex candidate driven by Schwarz data.

    Inverts the coefficient relations of the defining functional:
    c_1 = -(1 + alpha) a_2 / 2 and
    c_2 = -[(1 + 2 alpha) a_3 - (alpha^2 + 8 alpha + 3)/4 * a_2^2].
    Accepts scalars or ndarrays.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    a2 = -2.0 * np.asarray(c1) / (1.0 + alpha)
    a3 = ((alpha * alpha + 8.0 * alpha + 3.0) / 4.0 * a2 * a2 - np.asarray(c2)) / (
        1.0 + 2.0 * alpha
    )
    return a2, a3


def g_coefficients_from_schwarz(c1, c2, alpha: float):
    """(a_2, a_3) of the G(alpha) candidate driven by Schwarz data.

    Inverts c_1 = (2/alpha) a_2 and
    c_2 = (6/alpha) (a_3 + (2/3) ((1 - alpha)/alpha) a_2^2).
    Accepts scalars or ndarrays.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"G requires 0 < alpha <= 1, got {alpha}")
    a2 = 0.5 * alpha * np.asarray(c1)
    a3 = alpha / 6.0 * np.asarray(c2) - (2.0 * (1.0 - alpha) / (3.0 * alpha)) * a2 * a2
    return a2, a3


def m_schwarz_map(p: SchwarzPoint, alpha: float) -> tuple[complex, complex]:
    a2, a3 = m_coefficients_from_schwarz(p.c1, p.c2, alpha)
    return complex(a2), complex(a3)


def g_schwarz_map(p: SchwarzPoint, alpha: float) -> tuple[complex, complex]:
    a2, a3 = g_coefficients_from_schwarz(p.c1, p.c2, alpha)
    return complex(a2), complex(a3)


def eq10_slack(a2, a3, alpha: float):
    """Slack of the alpha-convex coefficient inequality

    |a_3 - (alpha^2 + 8 alpha + 3)/(4 (1 + 2 alpha)) a_2^2|
        <= 1/(1 + 2 alpha) - (1 + alpha)^2 / (4 (1 + 2 alpha)) |a_2|^2.

    Nonnegative on the image of the Schwarz body.  Accepts ndarrays.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    a2 = np.asarray(a2)
    q = 1.0 + 2.0 * alpha
    lhs = np.abs(np.asarray(a3) - (alpha * alpha + 8.0 * alpha + 3.0) / (4.0 * q) * a2 * a2)
    rhs = 1.0 / q - (1.0 + alpha) ** 2 / (4.0 * q) * np.abs(a2) ** 2
    return rhs - lhs


def e11_slack(a2, a3, alpha: float):
    """Slack of the G(alpha) coefficient inequality

    |a_3 + 2 (1 - alpha) / (3 alpha) a_2^2| <= (alpha^2 - 4 |a_2|^2) / (6 alpha).

    Nonnegative on the image of the Schwarz body.  Accepts ndarrays.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"G requires 0 < alpha <= 1, got {alpha}")
    a2 = np.asarray(a2)
    lhs = np.abs(np.asarray(a3) + (2.0 * (1.0 - alpha) / (3.0 * alpha)) * a2 * a2)
    rhs = (alpha * alpha - 4.0 * np.abs(a2) ** 2) / (6.0 * alpha)
    return rhs - lhs


def coeff_bound_A_check(f, alpha: float, n: int) -> float:
    """Slack of |a_n| <= alpha / (n (n - 1)), valid throughout G(alpha)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"G requires 0 < alpha <= 1, got {alpha}")
    if n < 2:
        raise ValueError(f"bound starts at n = 2, got {n}")
    return alpha / (n * (n - 1.0)) - abs(f.a(n))


def asserted_memberships():
    """Catalog entries paired with the class each is known to belong to."""
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
