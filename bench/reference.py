"""Exact references that the benchmark checks every job's output against.

Nothing here imports `logcoef`: the bound formulas are copied from the paper
(arXiv 2404.01303), and the margins and log coefficients of the extremal
functions are worked out in closed form.  A check returns
``(ok, err, why)``: whether the job's output is right, the worst absolute
error against the reference, and a reason when it is not right.

Tolerances are the ones the repository already states:

* 2e-3 for a body search against its bound (acceptance criterion 5);
* 1e-10 for golden deltas of closed-form entries (criterion 1);
* 1e-6 for series-built extremals (criterion 2);
* 1e-12 for bound values (criterion 3);
* zero violations, with slack 1e-9, for random scans (criterion 6).

Membership margins have no stated tolerance.  Their verdict must match the
exact one, and their error goes into ``max_err``.
"""

from __future__ import annotations

import json
import math

import numpy as np

SEARCH_TOL = 2e-3
GOLDEN_TOL = 1e-10
SERIES_TOL = 1e-6
BOUND_TOL = 1e-12
SCAN_SLACK = 1e-9

M_BRANCH_ALPHA = 0.5 * (1.0 + math.sqrt(3.0))

# Labels whose entries are built from an integral representation in series;
# the others are rational (or polynomial) in closed form.
SERIES_BUILT = ("k_theta_alpha", "m_alpha_upper", "g_alpha_upper")


# -- sharp bounds on delta = |gamma_2| - |gamma_1| ----------------------------


def bound_pair(kind: str, param: float | None) -> tuple[float, float]:
    """(lower, upper) bound on delta for S, U(lam), M(alpha) or G(alpha)."""
    if kind == "S":
        return -0.5 * math.sqrt(2.0), 0.5
    if kind == "U":
        lam = param
        lower = -(2.0 * lam + 1.0) / 4.0 if lam <= 0.5 else -0.5 * math.sqrt(2.0 * lam)
        return lower, 0.5 * lam
    if kind == "M":
        a = param
        q = a * a + 3.0 * a + 1.0
        if a <= M_BRANCH_ALPHA:
            lower = -1.0 / math.sqrt(2.0 * q)
        else:
            lower = -(6.0 * a * a + 10.0 * a + 3.0) / (4.0 * (2.0 * a + 1.0) * q)
        return lower, 0.5 / (1.0 + 2.0 * a)
    if kind == "G":
        a = param
        return -a * (17.0 - a) / (12.0 * (8.0 - a)), a / 12.0
    raise ValueError(f"unknown class kind {kind!r}")


# Class whose parameter a family's swept parameter is (see `sweep --function`).
FAMILY_CLASS = {
    "f3": "U",
    "f4": "U",
    "f5": "U",
    "k_theta_alpha": "M",
    "m_alpha_upper": "M",
    "g_alpha_upper": "G",
}


# -- log coefficients of the catalog entries -----------------------------------


def gammas(label: str, theta: float = 0.0, lam=None, alpha=None) -> tuple[complex, complex]:
    """Exact (gamma_1, gamma_2) of a catalog entry.

    gamma_1 = a_2 / 2 and gamma_2 = (a_3 - a_2^2 / 2) / 2.  For the
    alpha-convex koebe function f = z u^alpha with
    u = sum b_k z^k / (1 + alpha k) and sum b_k t^k = (1 - w t)^(-2/alpha),
    expanding alpha log u to second order gives gamma_1 = w / (1 + alpha) and
    gamma_2 = w^2 (1 + 4 alpha + alpha^2) / (2 (1 + 2 alpha) (1 + alpha)^2).
    """
    w = complex(math.cos(theta), math.sin(theta))
    if label == "koebe":
        return w, 0.5 * w * w
    if label == "f1":
        return w / math.sqrt(2.0), 0j
    if label == "f2":
        return 0j, -0.5 * w
    if label == "f3":
        return 0j, 0.5 * lam * w
    if label == "f4":
        return complex(0.5 * math.sqrt(2.0 * lam)), 0j
    if label == "f5":
        return 0.5 + 0j, complex(0.5 * (0.5 - lam))
    if label == "g_quadratic":
        return -0.25 + 0j, -1.0 / 16.0 + 0j
    if label == "k_theta_alpha":
        a = alpha
        g2 = (1.0 + 4.0 * a + a * a) / (2.0 * (1.0 + 2.0 * a) * (1.0 + a) ** 2)
        return w / (1.0 + a), g2 * w * w
    if label == "m_alpha_upper":
        return 0j, complex(0.5 / (1.0 + 2.0 * alpha))
    if label == "g_alpha_upper":
        return 0j, complex(-alpha / 12.0)
    raise ValueError(f"unknown label {label!r}")


def family_delta(label: str, param: float) -> float:
    """Golden delta of a family member at its swept parameter (theta = 0)."""
    if label in ("koebe", "f1", "f2"):
        g1, g2 = gammas(label, theta=param)
    elif label in ("f3", "f4", "f5"):
        g1, g2 = gammas(label, lam=param)
    else:
        g1, g2 = gammas(label, alpha=param)
    return abs(g2) - abs(g1)


def delta_tolerance(label: str) -> float:
    return SERIES_TOL if label in SERIES_BUILT else GOLDEN_TOL


# -- membership margins on the CLI's polar grid --------------------------------


def _ring(angular: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(angular) / angular)


def membership_margins(label, kind, radii, angular, theta=0.0, lam=None, alpha=None):
    """Exact worst margin on each radius of the polar grid.

    * M(alpha) extremals: Re((1 + w)/(1 - w)) = (1 - |w|^2) / |1 - w|^2,
      with w = e^{i theta} z for k_theta_alpha and w = z^2 for m_alpha_upper.
    * g_alpha_upper in G(alpha): alpha/2 + alpha Re(z^2 / (1 - z^2)).
    * f3, f4 and f5 in U(lambda): lambda (1 - r^2) at every angle.
    * koebe in G(alpha): 1 + alpha/2 - Re((1 + 4z + z^2) / (1 - z^2)), which
      is negative near z = -1 for alpha <= 1, so the right verdict is FAIL.
    """
    ring = _ring(angular)
    out = []
    for r in radii:
        z = r * ring
        if label == "k_theta_alpha" and kind == "M":
            w = complex(math.cos(theta), math.sin(theta)) * z
            m = ((1.0 + w) / (1.0 - w)).real
        elif label == "m_alpha_upper" and kind == "M":
            w = z * z
            m = ((1.0 + w) / (1.0 - w)).real
        elif label == "g_alpha_upper" and kind == "G":
            m = 0.5 * alpha + alpha * (z * z / (1.0 - z * z)).real
        elif label in ("f3", "f4", "f5") and kind == "U":
            m = np.full(angular, lam * (1.0 - r * r))
        elif label == "koebe" and kind == "G" and theta == 0.0:
            m = 1.0 + 0.5 * alpha - ((1.0 + 4.0 * z + z * z) / (1.0 - z * z)).real
        else:
            raise ValueError(f"no reference margin for {label} in {kind}")
        out.append(float(m.min()))
    return out


# -- checks, one per job kind ---------------------------------------------------


def _fail(err: float, why: str):
    return False, err, why


def _expect_rc(rc: int, want: int):
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_membership(job, rc, doc):
    p = job["ref"]
    ref = membership_margins(
        p["label"], p["kind"], p["radii"], p["angular"],
        theta=p.get("theta", 0.0), lam=p.get("lam"), alpha=p.get("alpha"),
    )
    want_pass = min(ref) > 0.0
    got = [row["margin"] for row in doc["margin_by_radius"]]
    err = max(abs(g - e) for g, e in zip(got, ref))
    if doc["passed"] != want_pass:
        return _fail(err, f"verdict {'PASS' if doc['passed'] else 'FAIL'}, exact worst "
                          f"margin {min(ref)!r}, reported {doc['worst_margin']!r}")
    why = _expect_rc(rc, 0 if want_pass else 1)
    if why:
        return _fail(err, why)
    return True, err, ""


def check_verify(job, rc, doc):
    why = _expect_rc(rc, 0)
    if why or not doc["ok"] or doc["failed"] != 0:
        bad = [c["name"] for c in doc["checks"] if not c["passed"]]
        return _fail(0.0, why or f"verify reported failures: {bad}")
    return True, 0.0, ""


def _bound_err(kind, param, lo, hi):
    ref_lo, ref_hi = bound_pair(kind, param)
    return max(abs(lo - ref_lo), abs(hi - ref_hi)), ref_lo, ref_hi


def check_search(job, rc, doc):
    kind, param = job["ref"]["kind"], job["ref"]["param"]
    berr, lo, hi = _bound_err(kind, param, doc["bound_lower"], doc["bound_upper"])
    err = max(abs(doc["min_delta"] - lo), abs(doc["max_delta"] - hi))
    why = _expect_rc(rc, 0)
    if why:
        return _fail(err, why)
    if berr > BOUND_TOL:
        return _fail(berr, f"bound values off by {berr:.3g}")
    if err > SEARCH_TOL:
        return _fail(err, f"search off its bound by {err:.3g}")
    return True, max(err, berr), ""


def check_class_sweep(job, rc, doc):
    kind = job["ref"]["kind"]
    why = _expect_rc(rc, 0)
    err = berr = 0.0
    for row in doc["rows"]:
        b, lo, hi = _bound_err(kind, row["param"], row["bound_lower"], row["bound_upper"])
        berr = max(berr, b)
        err = max(err, abs(row["search_min"] - lo), abs(row["search_max"] - hi))
    if why:
        return _fail(err, why)
    if berr > BOUND_TOL:
        return _fail(berr, f"bound values off by {berr:.3g}")
    if err > SEARCH_TOL:
        return _fail(err, f"sweep search off its bound by {err:.3g}")
    return True, max(err, berr), ""


def check_family_sweep(job, rc, doc):
    label = job["ref"]["label"]
    tol = delta_tolerance(label)
    kind = FAMILY_CLASS.get(label)
    why = _expect_rc(rc, 0)
    err = berr = 0.0
    for row in doc["rows"]:
        want = family_delta(label, row["param"])
        err = max(err, abs(row["delta_min"] - want), abs(row["delta_max"] - want))
        if kind is not None:
            b, _, _ = _bound_err(kind, row["param"], row["bound_lower"], row["bound_upper"])
            berr = max(berr, b)
    if why:
        return _fail(err, why)
    if not math.isfinite(err) or err > tol:
        return _fail(err, f"family delta off by {err:.3g} (tolerance {tol:g})")
    if berr > BOUND_TOL:
        return _fail(berr, f"bound values off by {berr:.3g}")
    return True, max(err, berr), ""


def check_gamma(job, rc, doc):
    p = job["ref"]
    g1, g2 = gammas(p["label"], theta=p.get("theta", 0.0), lam=p.get("lam"), alpha=p.get("alpha"))
    got1 = complex(doc["gamma1"]["re"], doc["gamma1"]["im"])
    got2 = complex(doc["gamma2"]["re"], doc["gamma2"]["im"])
    err = max(abs(got1 - g1), abs(got2 - g2), abs(doc["delta"] - (abs(g2) - abs(g1))))
    tol = delta_tolerance(p["label"])
    why = _expect_rc(rc, 0)
    if why:
        return _fail(err, why)
    if not math.isfinite(err) or err > tol:
        return _fail(err, f"log coefficients off by {err:.3g} (tolerance {tol:g})")
    return True, err, ""


def check_scan(job, rc, doc):
    kind, param = job["ref"]["kind"], job["ref"]["param"]
    lo, hi = bound_pair(kind, param)
    err = max(0.0, lo - doc["min_delta"], doc["max_delta"] - hi)
    why = _expect_rc(rc, 0)
    if why:
        return _fail(err, why)
    if doc["violations"] != 0 or err > SCAN_SLACK:
        return _fail(err, f"{doc['violations']} violations, escape {err:.3g}")
    return True, err, ""


CHECKS = {
    "membership": check_membership,
    "verify": check_verify,
    "search": check_search,
    "class_sweep": check_class_sweep,
    "family_sweep": check_family_sweep,
    "gamma": check_gamma,
    "scan": check_scan,
}


def check(job, rc, stdout: str):
    """Judge one job from its exit code and the JSON its CLI run printed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return _fail(math.inf, f"exit code {rc}, output is not JSON")
    try:
        return CHECKS[job["check"]](job, rc, doc)
    except (KeyError, TypeError) as e:
        return _fail(math.inf, f"output lacks a field the check needs: {e!r}")
