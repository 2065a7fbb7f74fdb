"""Acceptance suite: the eight headline checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout (so the line is
visible even while pytest captures output) and then asserts that no
sub-check failed.  Tolerances are the contract tolerances, not looser ones.
One more test shows that criterion 7's member check fails on a wrong body map.
"""

import math
import sys
import time

import numpy as np

from logcoef import bounds, catalog, classes, functional, search
from logcoef.bounds import M_BRANCH_ALPHA, bound_delta
from logcoef.classes import ClassSpec
from logcoef.series import TruncatedSeries, exp_unit, log_unit, pow_real

from _rows import herglotz_rows


def _finish(num, title, failures):
    line = f"{'FAIL' if failures else 'PASS'} criterion {num}: {title}"
    if failures:
        line += f" ({len(failures)} failing sub-check(s))"
    out = sys.__stdout__ or sys.stdout
    out.write(line + "\n")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_golden_delta_table():
    cases = [
        (catalog.koebe(0.0), -0.5),
        (catalog.f1(0.0), -0.5 * math.sqrt(2.0)),
        (catalog.f2(0.0), 0.5),
    ]
    cases += [(catalog.f3(lam), 0.5 * lam) for lam in (0.1, 0.5, 1.0)]
    cases += [(catalog.f4(lam), -0.5 * math.sqrt(2.0 * lam)) for lam in (0.5, 0.75, 1.0)]
    cases += [(catalog.f5(lam), -0.25 * (2.0 * lam + 1.0)) for lam in (0.1, 0.25, 0.5)]
    cases.append((catalog.g_quadratic(), -3.0 / 16.0))

    failures = []
    for f, want in cases:
        got = functional.delta(f)
        if abs(got - want) > 1e-10:
            failures.append(f"{f.label}{f.params}: delta={got!r} want={want!r}")
    _finish(1, "golden delta table at 1e-10", failures)


def test_criterion_2_series_built_extremals():
    failures = []
    for alpha in (0.0, 0.5, 1.0, 2.0):
        got = functional.delta(catalog.m_alpha_upper(alpha))
        want = 0.5 / (1.0 + 2.0 * alpha)
        if abs(got - want) > 1e-12:
            failures.append(f"m_alpha_upper({alpha}): delta={got!r} want={want!r}")
    for alpha in (0.25, 0.5, 1.0):
        got = functional.delta(catalog.g_alpha_upper(alpha))
        want = alpha / 12.0
        if abs(got - want) > 1e-12:
            failures.append(f"g_alpha_upper({alpha}): delta={got!r} want={want!r}")
    for alpha in (0.5, 1.0, 2.0, 5.0):
        got = catalog.k_theta_alpha(0.0, alpha).a(2)
        want = 2.0 / (1.0 + alpha)
        if abs(got - want) > 1e-12:
            failures.append(f"k_theta_alpha(0,{alpha}): a2={got!r} want={want!r}")
    _finish(2, "series-built extremals at 1e-12", failures)


def test_criterion_3_bound_formula_identities():
    failures = []

    def check(name, got, want):
        if abs(got - want) > 1e-12:
            failures.append(f"{name}: {got!r} vs {want!r}")

    check("U branch small at 1/2", bounds.u_lower_small_lambda(0.5), -0.5)
    check("U branch large at 1/2", bounds.u_lower_large_lambda(0.5), -0.5)
    check(
        "M branch small at breakpoint",
        bounds.m_lower_small_alpha(M_BRANCH_ALPHA),
        math.sqrt(3.0) - 2.0,
    )
    check(
        "M branch large at breakpoint",
        bounds.m_lower_large_alpha(M_BRANCH_ALPHA),
        math.sqrt(3.0) - 2.0,
    )
    s = bound_delta(ClassSpec("S"))
    m0 = bound_delta(ClassSpec("M", alpha=0.0))
    check("M(0) lower = S lower", m0.lower, s.lower)
    check("M(0) upper = S upper", m0.upper, s.upper)
    check("M(0) lower value", m0.lower, -1.0 / math.sqrt(2.0))
    check("S upper value", s.upper, 0.5)
    m1 = bound_delta(ClassSpec("M", alpha=1.0))
    check("M(1) lower", m1.lower, -1.0 / math.sqrt(10.0))
    check("M(1) upper", m1.upper, 1.0 / 6.0)
    g1 = bound_delta(ClassSpec("G", alpha=1.0))
    check("G(1) lower", g1.lower, -4.0 / 21.0)
    check("G(1) upper", g1.upper, 1.0 / 12.0)
    _finish(3, "bound-formula identities at 1e-12", failures)


def test_criterion_4_membership_suite():
    failures = []
    start = time.perf_counter()
    for f, spec in classes.asserted_memberships():
        rep = classes.membership_test(f, spec, radii=(0.5, 0.9, 0.99), angular=256)
        if not rep.passed or not rep.worst_margin > 0.0:
            failures.append(
                f"{f.label}{f.params} vs {spec.label()}: margin={rep.worst_margin!r}"
            )
    probe = classes.membership_test(
        catalog.koebe(0.0), ClassSpec("G", alpha=1.0), radii=(0.5, 0.9, 0.99), angular=256
    )
    if probe.passed or not probe.worst_margin < 0.0:
        failures.append(f"koebe(0) should fail G(1): margin={probe.worst_margin!r}")
    if abs(abs(probe.witness) - 0.99) > 1e-9:
        failures.append(f"koebe(0) vs G(1) witness not on radius 0.99: {probe.witness}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _finish(4, f"membership suite ({elapsed:.2f} s)", failures)


MESH = (
    [ClassSpec("U", lam=l) for l in (0.1, 0.25, 0.5, 0.75, 1.0)]
    + [ClassSpec("M", alpha=a) for a in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)]
    + [ClassSpec("G", alpha=a) for a in (0.25, 0.5, 0.75, 1.0)]
)


def test_criterion_5_relaxation_oracle_agreement():
    failures = []
    start = time.perf_counter()
    for spec in MESH:
        res = search.body_search(spec)
        pair = bound_delta(spec)
        if abs(res.min_delta - pair.lower) > 1e-12:
            failures.append(
                f"{spec.label()} lower: search={res.min_delta!r} bound={pair.lower!r}"
            )
        if abs(res.max_delta - pair.upper) > 1e-12:
            failures.append(
                f"{spec.label()} upper: search={res.max_delta!r} bound={pair.upper!r}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 30 s")
    _finish(5, f"relaxation-oracle agreement at 1e-12 ({elapsed:.2f} s)", failures)


def test_criterion_6_zero_violation_scans():
    failures = []
    for spec in MESH:
        res = search.bound_violation_scan(spec, samples=100_000, seed=0)
        if res.violations != 0:
            failures.append(f"{spec.label()}: {res.violations} violations")
    _finish(6, "zero-violation scans, 1e5 samples per instance", failures)


# The classes of criterion 7's member check, each with its inequality: (10) for M, (11) for G.
MEMBER_CLASSES = [ClassSpec("M", alpha=a) for a in (0.0, 1.0, 3.0)] + [
    ClassSpec("G", alpha=a) for a in (0.5, 1.0)
]


def _measures(rng, count, k):
    """`count` Herglotz measures of k points: x_k uniform on the circle, t ~ Dirichlet(1..1)."""
    x = np.exp(2j * np.pi * rng.uniform(size=(count, k)))
    return x, rng.dirichlet(np.ones(k), size=count)


def _member_failures():
    """The failures of inequalities (10) and (11) on members of M(alpha) and G(alpha).

    Each member is a Herglotz row (`herglotz_rows`), and its a_2 = 2 gamma_1
    and a_3 = 2 gamma_2 + 2 gamma_1^2 come from the row's own log
    coefficients, one stacked call per class and measure size, not from the
    body map `_body_row` that the slacks read.  Members of three points lie
    inside the Schwarz body, with slack >= -1e-12; those of one and two
    points lie on its cap |c_2| = 1 - |c_1|^2, with |slack| <= 1e-12.  Each
    failure starts with its class's label.
    """
    rng = np.random.Generator(np.random.PCG64(2))
    inside = _measures(rng, 10_000, 3)
    caps = [_measures(rng, 2_000, k) for k in (1, 2)]
    failures = []
    for spec in MEMBER_CLASSES:
        if spec.kind == "M":
            name, slack_of = "eq10", classes.eq10_slack
        else:
            name, slack_of = "e11", classes.e11_slack

        def slack(x, t):
            row = herglotz_rows(spec.kind, spec.alpha, x, t)
            g1, g2 = functional._stacked_log_coefficients(row, 2, "member {}".format).T
            return slack_of(2.0 * g1, 2.0 * g2 + 2.0 * g1 * g1, spec.alpha)

        low = slack(*inside).min()
        if low < -1e-12:
            failures.append(f"{spec.label()} {name}: min slack {low!r}")
        edge = max(np.abs(slack(*measure)).max() for measure in caps)
        if edge > 1e-12:
            failures.append(f"{spec.label()} {name}: cap slack {edge!r}")
    return failures


def test_criterion_7_intermediate_inequalities():
    failures = _member_failures()
    for f, lam in [
        (catalog.f3(0.8, 0.0), 0.8),
        (catalog.f3(0.25, 0.0), 0.25),
        (catalog.f4(0.5), 0.5),
        (catalog.f4(0.75), 0.75),
    ]:
        s1, s2 = classes.u_aux_check(f, lam)
        if s1 != 0.0:
            failures.append(f"u_aux {f.label}({lam}): first slack {s1!r} != 0")
        if not s2 > 0.0:
            failures.append(f"u_aux {f.label}({lam}): second slack {s2!r}")
    _finish(7, "intermediate-inequality suite", failures)


def test_criterion_7_member_check_catches_a_wrong_body_map(monkeypatch):
    # The members' coefficients do not come from _body_row, so a q that is off
    # by 1e-6 in M's and G's body map fails the member check in every class.
    assert _member_failures() == []
    body_row = classes._body_row

    def moved(kind, param):
        body = body_row(kind, param)
        return body._replace(q=body.q + 1e-6) if kind in ("M", "G") else body

    monkeypatch.setattr(classes, "_body_row", moved)
    failed = {failure.split()[0] for failure in _member_failures()}
    assert failed == {spec.label() for spec in MEMBER_CLASSES}


def test_criterion_8_module_invariants():
    failures = []
    rng = np.random.Generator(np.random.PCG64(8))

    for trial in range(20):
        tail = 0.35 * (rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16))
        a = TruncatedSeries(np.concatenate(([1.0 + 0j], tail)))
        back = exp_unit(log_unit(a))
        err = np.abs(back.coeffs - a.coeffs).max()
        if err > 1e-12:
            failures.append(f"exp(log) trial {trial}: error {err!r}")
        beta = float(rng.uniform(0.2, 5.0))
        powback = pow_real(pow_real(a, beta), 1.0 / beta)
        err = np.abs(powback.coeffs - a.coeffs).max()
        if err > 1e-10:
            failures.append(f"pow round trip trial {trial} (beta={beta}): error {err!r}")

    family = [
        catalog.koebe(0.3),
        catalog.f1(0.9),
        catalog.f2(0.5),
        catalog.f3(0.35, 0.8),
        catalog.f4(0.75),
        catalog.f5(0.3),
        catalog.k_theta_alpha(0.4, 1.5),
        catalog.m_alpha_upper(1.0),
        catalog.g_alpha_upper(0.6),
        catalog.g_quadratic(),
    ]
    for f in family:
        base = functional.delta(f)
        for th in rng.uniform(0.0, 2.0 * np.pi, 16):
            rotated = functional.delta(catalog.rotate(f, float(th)))
            if abs(rotated - base) > 1e-12:
                failures.append(f"rotation invariance {f.label}: drift {rotated - base!r}")
                break
        pair_log = functional.log_pair(f)
        pair_a = functional.gamma_from_a(f.a(2), f.a(3))
        if (
            abs(pair_log.gamma1 - pair_a.gamma1) > 1e-12
            or abs(pair_log.gamma2 - pair_a.gamma2) > 1e-12
        ):
            failures.append(f"two-route gamma disagreement for {f.label}")

    coincide = np.abs(catalog.f4(1.0).series(32).coeffs - catalog.f1(0.0).series(32).coeffs).max()
    if coincide > 1e-12:
        failures.append(f"f4(1) vs f1(0): coefficient gap {coincide!r}")

    for alpha in np.linspace(0.01, 1.0, 100):
        if not bounds.g_lower_minimizer(float(alpha)) < 0.5 * alpha:
            failures.append(f"g_lower_minimizer({alpha}) not below alpha/2")
    _finish(8, "module invariant property suite", failures)
