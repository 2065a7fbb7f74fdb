"""Tests for body searches, family sweeps, and randomized scans."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import catalog, search
from logcoef.bounds import (
    M_BRANCH_ALPHA,
    bound_delta,
    g_lower_minimizer,
    m_lower_minimizer,
    m_upper_bound,
)
from logcoef.catalog import g_quadratic
from logcoef.classes import (
    KINDS,
    ClassSpec,
    g_coefficients_from_schwarz,
    m_coefficients_from_schwarz,
)
from logcoef.functional import delta
from logcoef.series import DEFAULT_ORDER
from logcoef.search import (
    BODY_NOTE,
    MAX_RESOLUTION,
    MAX_SAMPLES,
    SCAN_TOLERANCE,
    ScanResult,
    SearchResult,
    SweepRow,
    body_delta,
    body_search,
    bound_violation_scan,
    family_sweep,
)


class TestBodyDelta:
    def test_u_lower_extreme_point(self):
        # |a_2| = sqrt 2 with the free part of a_3 cancelling gamma_2
        got = body_delta(ClassSpec("S"), math.sqrt(2.0), 1.0, math.pi)
        assert got == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_u_upper_extreme_point(self):
        got = body_delta(ClassSpec("U", lam=0.5), 0.0, 0.5, 0.0)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_m_upper_extreme_point(self):
        got = body_delta(ClassSpec("M", alpha=1.0), 0.0, 1.0, math.pi)
        assert got == pytest.approx(m_upper_bound(1.0), abs=1e-15)

    def test_g_upper_extreme_point(self):
        got = body_delta(ClassSpec("G", alpha=1.0), 0.0, 1.0, math.pi)
        assert got == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_broadcasts(self):
        m1 = np.array([0.0, 0.5, 1.0])
        out = body_delta(ClassSpec("U", lam=1.0), m1, 0.5, 0.0)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("spec, m1, m2, phase", [
        (ClassSpec("M", alpha=1.0), math.nan, 0.5, 0.0),
        (ClassSpec("M", alpha=1.0), math.inf, 0.0, 0.0),
        (ClassSpec("M", alpha=1.0), 1e308, 0.0, 0.0),
        (ClassSpec("M", alpha=1.0), 0.5, 0.76, 0.0),
        (ClassSpec("G", alpha=0.5), 0.5, -0.1, 0.0),
        (ClassSpec("U", lam=0.5), 1.6, 0.1, 0.0),
        (ClassSpec("U", lam=0.5), -0.1, 0.1, 0.0),
        (ClassSpec("U", lam=0.5), 0.5, 0.6, 0.0),
        (ClassSpec("S"), 0.5, 0.5, math.inf),
        (ClassSpec("S"), np.array([0.5, math.nan]), 0.5, 0.0),
    ], ids=[
        "m1_nan", "m1_inf", "m1_huge", "m2_over_cap", "m2_negative", "m1_over_range",
        "m1_negative", "m2_over_lam", "phase_inf", "one_bad_in_array",
    ])
    def test_refuses_points_off_the_body(self, spec, m1, m2, phase):
        with pytest.raises(ValueError, match="body points must be finite"):
            body_delta(spec, m1, m2, phase)

    def test_refuses_an_overflowing_map(self):
        with pytest.raises(ValueError, match="coefficient map of M.* overflows"):
            body_delta(ClassSpec("M", alpha=1e200), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind, inside, outside", [
        ("M", 1.3e154, 1.4e154),
        ("G", 3.8e-309, 3.6e-309),
    ])
    def test_overflow_thresholds(self, kind, inside, outside):
        assert np.isfinite(body_delta(ClassSpec(kind, alpha=inside), 1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=f"coefficient map of {kind}.* overflows"):
            body_delta(ClassSpec(kind, alpha=outside), 1.0, 0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        param=st.floats(),
        m1=st.floats(),
        m2=st.floats(),
        phase=st.floats(),
    )
    def test_finite_or_refused(self, kind, param, m1, m2, phase):
        try:
            spec = ClassSpec("S") if kind == "S" else ClassSpec.of(kind, param)
            d = body_delta(spec, m1, m2, phase)
        except ValueError:
            return
        assert np.isfinite(d)


class TestBodySearch:
    def test_reaches_bounds_at_modest_resolution(self):
        for spec in [
            ClassSpec("U", lam=0.5),
            ClassSpec("M", alpha=1.0),
            ClassSpec("G", alpha=1.0),
        ]:
            res = body_search(spec, resolution=60)
            pair = bound_delta(spec)
            assert res.min_delta == pytest.approx(pair.lower, abs=1e-12)
            assert res.max_delta == pytest.approx(pair.upper, abs=1e-12)

    def test_extremes_reproducible_from_reported_args(self):
        res = body_search(ClassSpec("M", alpha=2.0), resolution=50)
        for value, arg in [(res.min_delta, res.argmin), (res.max_delta, res.argmax)]:
            again = body_delta(
                res.spec, arg["m1"], arg["m2"], arg["phase"]
            )
            assert float(again) == pytest.approx(value, abs=1e-12)

    def test_args_stay_inside_body(self):
        spec = ClassSpec("U", lam=0.8)
        res = body_search(spec, resolution=40)
        for arg in (res.argmin, res.argmax):
            assert 0.0 <= arg["m1"] <= 1.8 + 1e-12
            assert 0.0 <= arg["m2"] <= 0.8 + 1e-9
            assert 0.0 <= arg["phase"] < 2.0 * math.pi

    def test_deterministic(self):
        spec = ClassSpec("G", alpha=0.5)
        a = body_search(spec, resolution=40)
        b = body_search(spec, resolution=40)
        assert a.min_delta == b.min_delta
        assert a.max_delta == b.max_delta
        assert a.argmin == b.argmin
        assert a.argmax == b.argmax

    def test_result_metadata(self):
        res = body_search(ClassSpec("U", lam=1.0), resolution=30)
        assert isinstance(res, SearchResult)
        assert res.refined
        assert res.resolution == 30
        assert res.note == BODY_NOTE
        assert res.as_dict()["note"] == BODY_NOTE
        assert res.as_dict()["class"] == "U(1)"

    def test_resolution_validated(self):
        with pytest.raises(ValueError, match="resolution"):
            body_search(ClassSpec("S"), resolution=1)
        # The cap is rejected before any grid is built.
        with pytest.raises(ValueError, match=r"resolution must lie in \[2, 1000000\]"):
            body_search(ClassSpec("S"), resolution=MAX_RESOLUTION + 1)

    def test_guard_grid_catches_a_missed_extreme(self, monkeypatch):
        # Without the vertices and kinks only the endpoints are closed-form
        # candidates; the interior minimum of M(2) must then come from the grid.
        monkeypatch.setattr(search, "_critical_m1", lambda body: np.empty(0))
        spec = ClassSpec("M", alpha=2.0)
        res = body_search(spec, resolution=400)
        assert not res.refined
        assert res.min_delta == pytest.approx(bound_delta(spec).lower, abs=1e-5)
        assert res.min_delta >= bound_delta(spec).lower

    def test_phase_grid_doubling_barely_moves_extremes(self):
        # Only the relative phase enters delta, so refining the phase grid
        # past the default density changes the extremes at second order.
        spec = ClassSpec("M", alpha=1.0)
        m1 = np.linspace(0.0, 1.0, 21)[:, None, None]
        m2 = (np.linspace(0.0, 1.0, 21)[None, :, None]) * (1.0 - m1 * m1)
        coarse = body_delta(spec, m1, m2, np.linspace(0, 2 * math.pi, 200, endpoint=False))
        fine = body_delta(spec, m1, m2, np.linspace(0, 2 * math.pi, 400, endpoint=False))
        assert abs(coarse.min() - fine.min()) < 1e-4
        assert abs(coarse.max() - fine.max()) < 1e-4


# S plus the class instances of acceptance criterion 5.
ORACLE_MESH = (
    [ClassSpec("S")]
    + [ClassSpec("U", lam=l) for l in (0.1, 0.25, 0.5, 0.75, 1.0)]
    + [ClassSpec("M", alpha=a) for a in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)]
    + [ClassSpec("G", alpha=a) for a in (0.25, 0.5, 0.75, 1.0)]
)


def mesh_id(spec):
    """Test id of a mesh instance: the parameter to six significant digits,
    which keeps the ids short where labels print M_BRANCH_ALPHA in full."""
    return spec.kind if spec.param is None else f"{spec.kind}({spec.param:g})"


def _body(spec):
    """(m1 range, m2 cap at m1) of the searched body, written out per kind."""
    if spec.kind in ("U", "S"):
        lam = 1.0 if spec.kind == "S" else spec.lam
        return 1.0 + lam, lambda m1: lam
    return 1.0, lambda m1: 1.0 - m1 * m1


@pytest.mark.parametrize("spec", ORACLE_MESH, ids=mesh_id)
class TestBodySearchOracle:
    """The exact search against brute-force evaluation of the whole body."""

    def test_random_scan_stays_inside(self, spec):
        res = body_search(spec)
        scan = bound_violation_scan(spec, samples=200_000, seed=3)
        assert scan.min_delta >= res.min_delta - 1e-12
        assert scan.max_delta <= res.max_delta + 1e-12

    def test_dense_grid_stays_inside(self, spec):
        res = body_search(spec)
        xmax, cap = _body(spec)
        m1 = np.linspace(0.0, xmax, 101)[:, None, None]
        m2 = np.linspace(0.0, 1.0, 41)[None, :, None] * cap(m1)
        phase = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[None, None, :]
        d = body_delta(spec, m1, m2, phase)
        assert d.min() >= res.min_delta - 1e-12
        assert d.max() <= res.max_delta + 1e-12

    def test_args_reproduce_extremes_inside_body(self, spec):
        res = body_search(spec)
        assert res.refined
        xmax, cap = _body(spec)
        for value, arg in [(res.min_delta, res.argmin), (res.max_delta, res.argmax)]:
            again = float(body_delta(spec, arg["m1"], arg["m2"], arg["phase"]))
            assert again == pytest.approx(value, abs=1e-15)
            assert 0.0 <= arg["m1"] <= xmax
            assert 0.0 <= arg["m2"] <= cap(arg["m1"])
            assert 0.0 <= arg["phase"] < 2.0 * math.pi

    def test_result_independent_of_resolution(self, spec):
        a = body_search(spec, resolution=2)
        b = body_search(spec, resolution=200)
        assert (a.min_delta, a.max_delta) == (b.min_delta, b.max_delta)
        assert (a.argmin, a.argmax) == (b.argmin, b.argmax)


def log_uniform(low, high):
    """Floats 10^e with the exponent e drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(spec=st.one_of(
    log_uniform(-300.0, 0.0).map(lambda lam: ClassSpec("U", lam=lam)),
    st.one_of(st.just(0.0), log_uniform(-300.0, 150.0)).map(lambda a: ClassSpec("M", alpha=a)),
    log_uniform(-300.0, 0.0).map(lambda a: ClassSpec("G", alpha=a)),
))
def test_body_search_attains_bounds_across_parameters(spec):
    res = body_search(spec, resolution=2)
    pair = bound_delta(spec)
    tol = 1e-12 * max(abs(pair.lower), abs(pair.upper))
    assert res.refined
    assert abs(res.min_delta - pair.lower) <= tol
    assert abs(res.max_delta - pair.upper) <= tol


@pytest.mark.parametrize(
    "spec",
    [s for s in ORACLE_MESH if s.kind == "G" or (s.kind == "M" and s.alpha >= M_BRANCH_ALPHA)],
    ids=mesh_id,
)
def test_argmin_at_known_minimizer(spec):
    m1 = body_search(spec).argmin["m1"]
    if spec.kind == "M":
        a2, want = m_coefficients_from_schwarz(m1, 0.0, spec.alpha)[0], m_lower_minimizer
    else:
        a2, want = g_coefficients_from_schwarz(m1, 0.0, spec.alpha)[0], g_lower_minimizer
    assert abs(a2) == pytest.approx(want(spec.alpha), abs=1e-15)


class TestFamilySweep:
    def test_f3_attains_upper_bound_curve(self):
        rows = family_sweep("f3", [0.2, 0.5, 1.0])
        for row in rows:
            assert isinstance(row, SweepRow)
            assert row.delta_min == pytest.approx(row.param / 2.0, abs=1e-15)
            assert row.delta_max == pytest.approx(row.param / 2.0, abs=1e-15)

    def test_f3_rotation_spread_is_zero(self):
        rows = family_sweep("f3", [0.7], theta_grid=(0.0, 1.0, 2.5))
        assert rows[0].delta_max - rows[0].delta_min < 1e-12

    def test_f4_attains_lower_bound_curve(self):
        for row in family_sweep("f4", [0.5, 0.75, 1.0]):
            assert row.delta_min == pytest.approx(
                -math.sqrt(2.0 * row.param) / 2.0, abs=1e-12
            )

    def test_f5_attains_lower_bound_curve(self):
        for row in family_sweep("f5", [0.1, 0.3, 0.5]):
            assert row.delta_min == pytest.approx(
                -(2.0 * row.param + 1.0) / 4.0, abs=1e-12
            )

    def test_koebe_sweep_is_constant(self):
        for row in family_sweep("koebe", [0.0, 1.0, 2.5]):
            assert row.delta_min == pytest.approx(-0.5, abs=1e-12)
            assert row.delta_max == pytest.approx(-0.5, abs=1e-12)

    def test_k_family_theta_invariant(self):
        rows = family_sweep("k_theta_alpha", [0.0, 1.0], theta_grid=(0.0, 1.3))
        for row in rows:
            assert row.delta_max - row.delta_min < 1e-12
        assert rows[0].delta_min == pytest.approx(-0.5, abs=1e-12)
        assert rows[1].delta_min == pytest.approx(-0.25, abs=1e-12)

    def test_m_upper_family_attains_bound(self):
        for row in family_sweep("m_alpha_upper", [0.0, 0.5, 2.0]):
            assert row.delta_max == pytest.approx(
                0.5 / (1.0 + 2.0 * row.param), abs=1e-9
            )

    def test_g_upper_family_attains_bound(self):
        for row in family_sweep("g_alpha_upper", [0.25, 1.0]):
            assert row.delta_max == pytest.approx(row.param / 12.0, abs=1e-9)

    def test_not_sweepable(self):
        with pytest.raises(ValueError, match="not sweepable"):
            family_sweep("g_quadratic", [0.0])
        with pytest.raises(ValueError, match="not sweepable"):
            family_sweep("nope", [0.0])

    # (label, step, grid length, first value, last value) of the grids that
    # `sweep --function` walks, pinned so that an edit to the table shows.
    GRIDS = [
        ("koebe", 0.05, 126, 0.0, 6.25),
        ("koebe", 0.3, 21, 0.0, 6.0),
        ("f1", 0.05, 126, 0.0, 6.25),
        ("f1", 0.3, 21, 0.0, 6.0),
        ("f2", 0.05, 126, 0.0, 6.25),
        ("f2", 0.3, 21, 0.0, 6.0),
        ("f3", 0.05, 20, 0.05, 1.0),
        ("f3", 0.3, 3, 0.3, 0.8999999999999999),
        ("f4", 0.05, 11, 0.5, 1.0),
        ("f4", 0.3, 2, 0.5, 0.8),
        ("f5", 0.05, 10, 0.05, 0.5),
        ("f5", 0.3, 1, 0.3, 0.3),
        ("k_theta_alpha", 0.05, 61, 0.0, 3.0),
        ("k_theta_alpha", 0.3, 11, 0.0, 3.0),
        ("k_theta_alpha", 0.0003, 10001, 0.0, 3.0),
        ("m_alpha_upper", 0.05, 61, 0.0, 3.0),
        ("m_alpha_upper", 0.3, 11, 0.0, 3.0),
        ("g_alpha_upper", 0.05, 20, 0.05, 1.0),
        ("g_alpha_upper", 0.3, 3, 0.3, 0.8999999999999999),
    ]

    def test_grids_cover_every_sweepable_family(self):
        sweepable = {label for label, fam in catalog.FAMILIES.items() if fam.sweep}
        assert sweepable == {row[0] for row in self.GRIDS}
        assert {fam.kind for fam in catalog.FAMILIES.values()} == {None, "U", "M", "G"}

    @pytest.mark.parametrize("label,step,length,first,last", GRIDS)
    def test_family_grid_pinned(self, label, step, length, first, last):
        grid = catalog.sweep_grid(*catalog.FAMILIES[label].sweep, step)
        assert (len(grid), grid[0], grid[-1]) == (length, first, last)

    def test_grid_step_cap(self):
        assert len(catalog.sweep_grid(0.0, 1.0, "(]", 1e-4)) == catalog.MAX_SWEEP_STEPS
        for step in (0.999e-4, 0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="at least 1/10000 of the range"):
                catalog.sweep_grid(0.0, 1.0, "(]", step)

    @pytest.mark.parametrize("label,step,length,first,last", GRIDS)
    def test_family_grid_endpoints_build(self, label, step, length, first, last):
        for row in family_sweep(label, [first, last]):
            assert math.isfinite(row.delta_min) and math.isfinite(row.delta_max)

    @pytest.mark.parametrize("label", sorted(k for k, fam in catalog.FAMILIES.items() if fam.sweep))
    def test_sweep_equals_a_full_order_build(self, label):
        # The sweep builds each member through a_3 only; its rows must be those
        # of a DEFAULT_ORDER build exactly, down to the finest grid's first
        # value (alpha = 3e-4 for the M families) and at several rotations.
        family = catalog.FAMILIES[label]
        lo, hi, ends = family.sweep
        grid = catalog.sweep_grid(lo, hi, ends, (hi - lo) / 18)
        grid.append(lo + (hi - lo) / catalog.MAX_SWEEP_STEPS)
        thetas = (0.0, 1.3, 4.0) if family.rotated and family.kind else (0.0,)
        rows = family_sweep(label, grid, theta_grid=thetas)
        for p, row in zip(grid, rows):
            if family.kind is None:
                values = [delta(catalog.make(label, theta=p, order=DEFAULT_ORDER))]
            else:
                values = [
                    delta(catalog.make(label, th, lam=p, alpha=p, order=DEFAULT_ORDER))
                    for th in thetas
                ]
            assert (row.delta_min, row.delta_max) == (min(values), max(values))


class TestViolationScan:
    def test_u_scan_clean_and_frozen(self):
        res = bound_violation_scan(ClassSpec("U", lam=1.0), samples=100_000, seed=0)
        assert isinstance(res, ScanResult)
        assert res.violations == 0
        assert res.passed
        # Frozen values for the fixed generator stream.
        assert res.min_delta == pytest.approx(-0.6907675765, abs=1e-6)
        assert res.max_delta == pytest.approx(0.4983413813, abs=1e-6)

    def test_scan_respects_bounds_with_tolerance(self):
        for spec in [
            ClassSpec("U", lam=0.3),
            ClassSpec("M", alpha=1.5),
            ClassSpec("G", alpha=0.6),
            ClassSpec("S"),
        ]:
            res = bound_violation_scan(spec, samples=20_000, seed=5)
            pair = bound_delta(spec)
            assert res.violations == 0
            assert res.min_delta >= pair.lower - SCAN_TOLERANCE
            assert res.max_delta <= pair.upper + SCAN_TOLERANCE

    @pytest.mark.parametrize("spec", [
        ClassSpec("G", alpha=0.5),
        ClassSpec("G", alpha=1e-12),
        ClassSpec("G", alpha=1e-300),
        ClassSpec("U", lam=1e-300),
        ClassSpec("M", alpha=1e-300),
        ClassSpec("M", alpha=1e150),
    ], ids=mesh_id)
    def test_halved_bounds_are_caught(self, monkeypatch, spec):
        # The tolerance scales with the bounds: the true bounds read clean and
        # halved ones do not, also where the bounds are as small as 1e-150.
        def halved(spec):
            pair = bound_delta(spec)
            return dataclasses.replace(pair, lower=pair.lower / 2.0, upper=pair.upper / 2.0)

        assert bound_violation_scan(spec, samples=20_000).violations == 0
        monkeypatch.setattr(search, "bound_delta", halved)
        assert bound_violation_scan(spec, samples=20_000).violations > 0

    def test_same_seed_reproduces(self):
        a = bound_violation_scan(ClassSpec("M", alpha=1.0), samples=5_000, seed=42)
        b = bound_violation_scan(ClassSpec("M", alpha=1.0), samples=5_000, seed=42)
        assert a.min_delta == b.min_delta
        assert a.max_delta == b.max_delta

    def test_different_seed_differs(self):
        a = bound_violation_scan(ClassSpec("M", alpha=1.0), samples=5_000, seed=0)
        b = bound_violation_scan(ClassSpec("M", alpha=1.0), samples=5_000, seed=1)
        assert a.min_delta != b.min_delta

    def test_as_dict(self):
        d = bound_violation_scan(ClassSpec("G", alpha=1.0), samples=1_000, seed=0).as_dict()
        assert d["class"] == "G(1)"
        assert d["samples"] == 1000
        assert d["passed"] is True

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="samples"):
            bound_violation_scan(ClassSpec("S"), samples=0)

    def test_sample_count_capped(self):
        # Refused before any sample is drawn.
        with pytest.raises(ValueError, match=r"samples must lie in \[1, 1000000\]"):
            bound_violation_scan(ClassSpec("S"), samples=MAX_SAMPLES + 1)


def test_g_quadratic_sits_strictly_inside_interval():
    # The quadratic member does not attain the G(1) lower bound; the gap
    # 4/21 - 3/16 = 1/336 is genuine.
    d = delta(g_quadratic())
    pair = bound_delta(ClassSpec("G", alpha=1.0))
    assert d == pytest.approx(-3.0 / 16.0, abs=1e-14)
    assert pair.lower < d < pair.upper
    assert d - pair.lower == pytest.approx(1.0 / 336.0, abs=1e-12)
