"""Tests for body searches, family sweeps, and randomized scans."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import catalog, cli, functional, search
from logcoef.bounds import (
    M_BRANCH_ALPHA,
    bound_delta,
    g_lower_minimizer,
    m_lower_minimizer,
    m_upper_bound,
)
from logcoef.catalog import g_quadratic
from logcoef.classes import KINDS, ClassSpec, _Body, _body_row
from logcoef.functional import delta, log_coefficients
from logcoef.search import (
    BODY_NOTE,
    MAX_SAMPLES,
    SCAN_TOLERANCE,
    ScanResult,
    SearchResult,
    SweepRow,
    body_delta,
    body_search,
    body_searches,
    bound_violation_scan,
    family_sweep,
)


def assert_extremes_reproduced(res):
    """The reported extremes of `res` are the kernel at their args, bit for
    bit, with k^2 = 1 at the max and 0 at the min; body_delta, which reads
    phase pi as fl(pi), is within one ulp of |a_2| + |P| + |T| of them."""
    body = search._body(res.spec)
    for value, arg, k2 in [(res.min_delta, res.argmin, 0.0), (res.max_delta, res.argmax, 1.0)]:
        m1, m2 = arg["m1"], arg["m2"]
        assert search._delta(body, np.array([m1]), np.array([m2]), k2)[0] == value
        a2 = abs(body.s) * m1
        scale = a2 + abs(body.q - functional.MU) * a2 * a2 + abs(body.t) * m2
        again = body_delta(res.spec, m1, m2, arg["phase"])
        assert abs(again - value) <= np.spacing(scale)


def _search_outcome(search_one, spec):
    """The repr of `search_one(spec)`, which prints every float in round-trip
    form, or the message of the ValueError it refuses `spec` with."""
    try:
        return repr(search_one(spec))
    except ValueError as e:
        return f"refused: {e}"


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
    def test_reaches_bounds(self):
        for spec in [
            ClassSpec("U", lam=0.5),
            ClassSpec("M", alpha=1.0),
            ClassSpec("G", alpha=1.0),
        ]:
            res = body_search(spec)
            pair = bound_delta(spec)
            assert res.min_delta == pytest.approx(pair.lower, abs=1e-12)
            assert res.max_delta == pytest.approx(pair.upper, abs=1e-12)

    def test_phase_pi_is_minus_one_exactly(self):
        # The search evaluates e^{i pi} as -1; np.exp(1j * pi), with its
        # imaginary part of 1.2e-16, left these minima 1 ulp above the bounds.
        for lam in (0.5, 0.9500000000000001):
            spec = ClassSpec("U", lam=lam)
            assert body_search(spec).min_delta == bound_delta(spec).lower

    def test_extremes_reproducible_from_reported_args(self):
        assert_extremes_reproduced(body_search(ClassSpec("M", alpha=2.0)))

    def test_args_stay_inside_body(self):
        spec = ClassSpec("U", lam=0.8)
        res = body_search(spec)
        for arg in (res.argmin, res.argmax):
            assert 0.0 <= arg["m1"] <= 1.8 + 1e-12
            assert 0.0 <= arg["m2"] <= 0.8 + 1e-9
            assert 0.0 <= arg["phase"] < 2.0 * math.pi

    def test_deterministic(self):
        spec = ClassSpec("G", alpha=0.5)
        a = body_search(spec)
        b = body_search(spec)
        assert a.min_delta == b.min_delta
        assert a.max_delta == b.max_delta
        assert a.argmin == b.argmin
        assert a.argmax == b.argmax

    def test_result_metadata(self):
        res = body_search(ClassSpec("U", lam=1.0))
        assert isinstance(res, SearchResult)
        assert res.note == BODY_NOTE
        fields = ["class", "min_delta", "max_delta", "argmin", "argmax", "note"]
        assert list(res.as_dict()) == fields
        assert res.as_dict()["note"] == BODY_NOTE
        assert res.as_dict()["class"] == "U(1)"

    def test_evaluates_only_the_candidates(self, monkeypatch):
        # One class's maximum is the float kernel at its two endpoints, with
        # k^2 = 1, and its minimum the kernel at one point, with k^2 = 0.  A
        # stack evaluates the same points, one row per class, and nothing else.
        calls, shapes = [], []
        float_delta, delta = search._float_delta, search._delta

        def float_spy(body, m1, m2, k2):
            calls.append((m1, k2))
            return float_delta(body, m1, m2, k2)

        def spy(body, m1, *rest):
            shapes.append(m1.shape)
            return delta(body, m1, *rest)

        monkeypatch.setattr(search, "_float_delta", float_spy)
        monkeypatch.setattr(search, "_delta", spy)
        res = body_search(ClassSpec("M", alpha=2.0))
        assert calls == [(0.0, 1.0), (1.0, 1.0), (res.argmin["m1"], 0.0)]
        assert shapes == []
        body_searches([ClassSpec("G", alpha=a) for a in (0.25, 0.5, 1.0)])
        assert shapes == [(3, 2), (3, 1)]
        assert len(calls) == 3

    @pytest.mark.parametrize("kind, param", [
        ("M", 1e155),
        ("M", 1.3407807929942597e154),  # the smallest alpha whose map overflows
        ("M", 1.7976931348623157e308),
        ("G", 3.70845643084533e-309),  # the largest alpha whose map overflows
        ("G", 5e-324),
    ])
    def test_an_overflowing_map_is_refused(self, kind, param):
        # Division by zero and math's functions raise in Python floats where
        # numpy returns inf or nan; no such error escapes, and the refusal is
        # the stack's (test_first_overflow_named).
        spec = ClassSpec.of(kind, param)
        label = re.escape(spec.label())
        with pytest.raises(ValueError, match=rf"^the coefficient map of {label} overflows$"):
            body_search(spec)

    def test_a_point_off_the_body_is_refused(self, monkeypatch):
        # Every searched point goes through body_delta's checks, in its words.
        monkeypatch.setattr(search, "_float_min_m1", lambda body: math.nan)
        with pytest.raises(ValueError, match=r"^body points must be finite .* for G\(0\.5\)$"):
            body_search(ClassSpec.of("G", 0.5))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), param=st.floats(min_value=0.0, allow_infinity=False))
    def test_floats_search_as_the_stack(self, kind, param):
        # Every class ClassSpec admits is searched, or refused, as the stack does.
        try:
            spec = ClassSpec("S") if kind == "S" else ClassSpec.of(kind, param)
        except ValueError:
            return
        assert _search_outcome(body_search, spec) == _search_outcome(
            lambda spec: body_searches([spec])[0], spec)

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


def _chunk_edge_grid(kind):
    """2 chunks and 1 class of `kind`, across its parameter range; on M the grid
    includes the branch point."""
    n = 2 * (search._SCAN_BLOCK // search._POINTS_PER_CLASS) + 1
    if kind == "M":
        return sorted(np.linspace(0.0, 3.0, n - 1).tolist() + [M_BRANCH_ALPHA])
    return np.linspace(0.0, 1.0, n + 1)[1:].tolist()  # U and G exclude 0


# Each kind's range edges, where Python floats and numpy arrays could part:
# subnormal parameters, and maps near their overflow: the last M and the first
# G whose maps are finite.
_RANGE_EDGES = {
    "S": [None],
    "U": [5e-324, 1.0],
    "M": [0.0, 5e-324, M_BRANCH_ALPHA, 1e154, 1.2e154, 1.3407807929942596e154],
    "G": [3.708456430845337e-309, 3.8e-309, 1e-300, 1.0],
}


class TestBodySearches:
    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_equals_a_loop_across_chunk_edges(self, kind):
        # body_search of one class runs in Python floats and body_searches in
        # numpy arrays.  repr prints every field, floats in round-trip form, so
        # this compares min_delta, max_delta, argmin and argmax bit for bit.
        grid = [] if kind == "S" else _chunk_edge_grid(kind)
        specs = [ClassSpec.of(kind, p) for p in grid + _RANGE_EDGES[kind]]
        loop = [repr(body_search(spec)) for spec in specs]
        assert list(map(repr, body_searches(specs))) == loop

    def test_empty(self):
        assert body_searches([]) == []

    def test_mixed_kinds_refused(self):
        with pytest.raises(ValueError, match=r"one kind, got \['G', 'M'\]"):
            body_searches([ClassSpec.of("M", 1.0), ClassSpec.of("G", 1.0)])

    def test_first_overflow_named(self):
        specs = [ClassSpec.of("M", a) for a in (1.0, 1e155, 1e200)]
        with pytest.raises(ValueError, match=r"^the coefficient map of M\(1e\+155\) overflows$"):
            body_searches(specs)

    def test_a_point_off_the_body_is_refused(self, monkeypatch):
        # Every searched point goes through body_delta's checks, which name
        # the first class with a point that is not finite.
        min_m1 = search._min_m1

        def spoiled(body):
            m1 = min_m1(body)
            m1[1:] = math.nan
            return m1

        monkeypatch.setattr(search, "_min_m1", spoiled)
        specs = [ClassSpec.of("G", a) for a in (0.25, 0.5, 1.0)]
        with pytest.raises(ValueError, match=r"^body points must be finite .* for G\(0\.5\)$"):
            body_searches(specs)

    def test_memory_stays_chunked(self):
        # The finest M sweep: 10002 classes, whose stack peaks 1.3 MiB above
        # the results it holds, and 3.4 MiB unchunked (numpy 2.4.6).  A loop
        # of body_search peaks at least at the results it holds at its end,
        # so peaking at most 2 MiB above the same results bounds the stack by
        # the loop's peak plus 2 MiB, without running the loop, which takes
        # 13 s traced.
        specs = [ClassSpec.of("M", a) for a in cli._class_param_grid("M", 0.0003)]
        tracemalloc.start()
        try:
            results = body_searches(specs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(specs) == 10002
        assert peak <= held + 2 * 2**20


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
        xmax, cap = _body(spec)
        assert_extremes_reproduced(res)
        for arg in (res.argmin, res.argmax):
            assert 0.0 <= arg["m1"] <= xmax
            assert 0.0 <= arg["m2"] <= cap(arg["m1"])
            assert 0.0 <= arg["phase"] < 2.0 * math.pi


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
    res = body_search(spec)
    pair = bound_delta(spec)
    tol = 1e-12 * max(abs(pair.lower), abs(pair.upper))
    assert abs(res.min_delta - pair.lower) <= tol
    assert abs(res.max_delta - pair.upper) <= tol


# Class grids that reach each kind's range ends: U and G down to lam, alpha
# = 1e-4 and 1e-300, M from 0 to 1e100.
GUARD_GRIDS = {
    "S": [None],
    "U": np.logspace(-4.0, 0.0, 10**4).tolist(),
    "M": [0.0, *np.logspace(-6.0, math.log10(3.0), 10**4).tolist(), 1e3, 1e6, 1e100],
    "G": np.logspace(-300.0, 0.0, 10**4).tolist(),
}


@pytest.mark.parametrize("kind", KINDS)
def test_no_grid_node_beats_the_candidates(kind):
    # The search evaluates only three closed-form m1: both endpoints for its
    # maximum and one clipped vertex for its minimum.  At every node of a
    # uniform 201-node m1 grid on [0, reach], the extremes over (m2, phase),
    # in closed form as the search takes them, stay within 1e-12 of the
    # search's: no extreme lies off those points.
    specs = [ClassSpec.of(kind, p) for p in GUARD_GRIDS[kind]]
    results = body_searches(specs)
    lo = np.array([res.min_delta for res in results])[:, None]
    hi = np.array([res.max_delta for res in results])[:, None]
    params = np.array([spec.param for spec in specs], dtype=float)
    for start in range(0, len(specs), 1000):
        rows = slice(start, start + 1000)
        row = _body_row(kind, params[rows])
        body = _Body(*(np.broadcast_to(field, len(params[rows]))[:, None] for field in row))
        m1 = np.arange(201) * (body.reach / 200)
        m1[:, -1:] = body.reach
        a2 = body.s * m1
        cap = body.cap(m1)
        m2_min = np.minimum(cap, np.abs((body.q - functional.MU) * a2 * a2 / body.t))
        assert (search._delta(body, m1, cap, 1.0) <= hi[rows] + 1e-12).all()
        assert (search._delta(body, m1, m2_min, 0.0) >= lo[rows] - 1e-12).all()


@pytest.mark.parametrize("kind, grid", [
    ("U", catalog.sweep_grid(0.0, 1.0, "(]", 0.01)),
    ("M", catalog.sweep_grid(0.0, 3.0, "[]", 0.03)),
    ("G", catalog.sweep_grid(0.0, 1.0, "(]", 0.01)),
])
def test_search_extremes_against_exact_delta(kind, grid):
    # Each extreme within 3e-16 relative of delta at its (m1, m2) and exact
    # phase, e^{i pi} = -1, in 50-digit arithmetic.
    specs = [ClassSpec.of(kind, p) for p in grid]
    with mpmath.workdps(50):
        mu = mpmath.mpf(functional.MU)
        for res in body_searches(specs):
            body = search._body(res.spec)
            s, q, t = (mpmath.mpf(float(v)) for v in (body.s, body.q, body.t))
            for value, arg in [(res.min_delta, res.argmin), (res.max_delta, res.argmax)]:
                unit = {0.0: 1, math.pi: -1}[arg["phase"]]
                a2 = s * arg["m1"]
                exact = abs((q - mu) * a2 * a2 + t * arg["m2"] * unit) / 2 - abs(a2) / 2
                assert abs(value - exact) <= 3e-16 * abs(exact), res.spec.label()


@pytest.mark.parametrize(
    "spec",
    [s for s in ORACLE_MESH if s.kind == "G" or (s.kind == "M" and s.alpha >= M_BRANCH_ALPHA)],
    ids=mesh_id,
)
def test_argmin_at_known_minimizer(spec):
    # |a_2| = |s| m1 on the body row that the search reads.
    m1 = body_search(spec).argmin["m1"]
    want = m_lower_minimizer if spec.kind == "M" else g_lower_minimizer
    assert abs(search._body(spec).s * m1) == pytest.approx(want(spec.alpha), abs=1e-15)


class TestFamilySweep:
    def test_f3_attains_upper_bound_curve(self):
        rows = family_sweep("f3", [0.2, 0.5, 1.0])
        for row in rows:
            assert isinstance(row, SweepRow)
            assert row.delta == pytest.approx(row.param / 2.0, abs=1e-15)

    def test_f3_rotation_spread_is_zero(self):
        # The sweep builds at theta = 0 only; a rotated member gives its delta.
        (row,) = family_sweep("f3", [0.7])
        for th in (1.0, 2.5):
            assert abs(delta(catalog.make("f3", th, lam=0.7)) - row.delta) < 1e-12

    def test_f4_attains_lower_bound_curve(self):
        for row in family_sweep("f4", [0.5, 0.75, 1.0]):
            assert row.delta == pytest.approx(
                -math.sqrt(2.0 * row.param) / 2.0, abs=1e-12
            )

    def test_f5_attains_lower_bound_curve(self):
        for row in family_sweep("f5", [0.1, 0.3, 0.5]):
            assert row.delta == pytest.approx(
                -(2.0 * row.param + 1.0) / 4.0, abs=1e-12
            )

    def test_koebe_sweep_is_constant(self):
        for row in family_sweep("koebe", [0.0, 1.0, 2.5]):
            assert row.delta == pytest.approx(-0.5, abs=1e-12)

    def test_k_family_theta_invariant(self):
        rows = family_sweep("k_theta_alpha", [0.0, 1.0])
        for row in rows:
            rotated = delta(catalog.make("k_theta_alpha", 1.3, alpha=row.param))
            assert abs(rotated - row.delta) < 1e-12
        assert rows[0].delta == pytest.approx(-0.5, abs=1e-12)
        assert rows[1].delta == pytest.approx(-0.25, abs=1e-12)

    def test_m_upper_family_attains_bound(self):
        for row in family_sweep("m_alpha_upper", [0.0, 0.5, 2.0]):
            assert row.delta == pytest.approx(
                0.5 / (1.0 + 2.0 * row.param), abs=1e-9
            )

    def test_g_upper_family_attains_bound(self):
        for row in family_sweep("g_alpha_upper", [0.25, 1.0]):
            assert row.delta == pytest.approx(row.param / 12.0, abs=1e-9)

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
            assert math.isfinite(row.delta)

    SWEEPABLE = sorted(k for k, fam in catalog.FAMILIES.items() if fam.sweep)

    # One stack of every kind of row: closed (z/P and z P), a < 1, a >= 1 and rotated.
    MIXED = (
        catalog.koebe(),
        g_quadratic(),
        catalog.k_theta_alpha(0.0, 0.4),
        catalog.k_theta_alpha(0.0, 1.7),
        catalog.rotate(catalog.k_theta_alpha(0.0, 0.9), 2.3),
        catalog.m_alpha_upper(2.0),
        catalog.g_alpha_upper(0.5),
    )

    @staticmethod
    def _grid(label, grid):
        """The parameters of one of a family's grids: its range in 18 steps
        with the finest grid's first value added, step 0.01, or the finest."""
        lo, hi, ends = catalog.FAMILIES[label].sweep
        if grid == "eighteenths":
            return catalog.sweep_grid(lo, hi, ends, (hi - lo) / 18) + [
                lo + (hi - lo) / catalog.MAX_SWEEP_STEPS
            ]
        step = 0.01 if grid == "hundredths" else (hi - lo) / catalog.MAX_SWEEP_STEPS
        return catalog.sweep_grid(lo, hi, ends, step)

    @pytest.mark.parametrize("label,grid", [
        *(pytest.param(label, grid, id=label if grid == "eighteenths" else f"{label}-{grid}")
          for label in SWEEPABLE for grid in ("eighteenths", "hundredths", "finest")),
        pytest.param("mixed", None, id="mixed"),
    ])
    def test_sweep_equals_a_full_order_build(self, label, grid):
        # The sweep reads gamma_1 and gamma_2 of its whole grid at theta = 0 in
        # one stacked call; its rows must be those of the first two of 32 log
        # coefficients of each member built alone, exactly, down to the finest
        # grid's first value (alpha = 3e-4 for the M families).  Every row of a
        # stack at n = 1, 2, 6 and 32 is the call on its entry alone, bit for
        # bit; on the finest grids every 97th row and the last are called alone.
        if label == "mixed":
            members, rows = list(self.MIXED), None
            stacked = catalog._stack_rows([f.row for f in members])
        else:
            params = self._grid(label, grid)
            rows = family_sweep(label, params)
            assert [row.param for row in rows] == params
            family = catalog.FAMILIES[label]
            if family.kind is None:
                params = params[:1]  # theta is the only parameter: one member serves every row
            members = [catalog.make(label, 0.0, lam=p, alpha=p) for p in params]
            # The family's row on the grid as an array, as the sweep takes it.
            stacked = members[0].row if family.kind is None else family.row(np.array(params))
        alone = range(len(members)) if grid != "finest" else [*range(0, len(members), 97), -1]
        for n in (1, 2, 6, 32):
            stack = functional._stacked_log_coefficients(stacked, n, None)
            assert stack.shape == (len(members), n)
            for k in alone:
                want = log_coefficients(members[k], n)
                np.testing.assert_array_equal(stack[k].view(np.uint64), want.view(np.uint64))
        if rows is not None:
            want = np.abs(stack[:, 1]) - np.abs(stack[:, 0])
            assert [row.delta for row in rows] == np.broadcast_to(want, len(rows)).tolist()

    @pytest.mark.parametrize("label,grid,message", [
        ("g_alpha_upper", [0.5, 5e-324, 1e-323],
         "g_alpha_upper {'alpha': 5e-324}: the row's terms underflow"),
        ("g_alpha_upper", [0.5, 1e-323, 5e-324],
         "g_alpha_upper {'alpha': 1e-323}: the row's terms underflow"),
        ("k_theta_alpha", [1.0, 1e160, 1e170],
         "k_theta_alpha {'theta': 0.0, 'alpha': 1e+160}: the row's terms underflow"),
        # A member refused by its delta comes before a later one refused by its build.
        ("k_theta_alpha", [1e160, -1.0],
         "k_theta_alpha {'theta': 0.0, 'alpha': 1e+160}: the row's terms underflow"),
        ("m_alpha_upper", [0.5, -1.0, 1e200], "M requires alpha >= 0, got -1.0"),
    ])
    def test_refusals_in_grid_order(self, label, grid, message):
        # The refusal is the one a loop of single builds and deltas meets first.
        with pytest.raises(ValueError) as stacked:
            family_sweep(label, grid)
        with pytest.raises(ValueError) as looped:
            for p in grid:
                delta(catalog.make(label, lam=p, alpha=p))
        assert str(stacked.value) == str(looped.value) == message

    def test_empty_stack(self):
        assert family_sweep("m_alpha_upper", []) == []
        empty = catalog.FAMILIES["m_alpha_upper"].row(np.array([]))
        assert functional._stacked_log_coefficients(empty, 2, None).shape == (0, 2)

    def test_grid_is_one_stacked_call(self, monkeypatch):
        # A return to one call per member fails here, whatever it costs.
        stacked = functional._stacked_log_coefficients
        sizes = []

        def spy(row, n, name):
            sizes.append(len(row.a))
            return stacked(row, n, name)

        monkeypatch.setattr(functional, "_stacked_log_coefficients", spy)
        grid = self._grid("m_alpha_upper", "hundredths")
        assert len(family_sweep("m_alpha_upper", grid)) == 301
        assert sizes == [301]

    @staticmethod
    def _row_delta(label):
        """The correctly rounded delta of the family's stored row z / (1 + b z + c z^2):
        gamma_1 = -b/2 and gamma_2 = (b^2/2 - c)/2, by mpmath at 50 digits."""
        ((P, _),) = catalog.make(label).row.factors
        with mpmath.workdps(50):
            b, c = (mpmath.mpf(complex(x).real) for x in P[1:])
            return float(abs(b * b / 2 - c) / 2 - abs(b) / 2)

    @pytest.mark.parametrize("label", ["f1", "f2", "koebe"])
    def test_rotation_only_sweep_is_exact_and_rotation_invariant(self, label):
        # One member serves every row, and its delta is the exact delta of the
        # row as stored to the last bit; a build at each theta of the grid
        # lands within 1 ulp of it.  f1 stores b = -fl(sqrt 2), whose delta
        # rounds to -0.7071067811865475, one ulp from -sqrt(1/2).
        assert catalog.FAMILIES[label].kind is None
        grid = catalog.sweep_grid(*catalog.FAMILIES[label].sweep, 0.01)
        rows = family_sweep(label, grid)
        assert [row.param for row in rows] == grid
        want = self._row_delta(label)
        assert want == {"f1": -0.7071067811865475, "f2": 0.5, "koebe": -0.5}[label]
        assert {row.delta for row in rows} == {want}
        for theta in grid:
            got = delta(catalog.make(label, theta))
            assert abs(got - want) <= math.ulp(want)

    def test_rotation_only_sweep_builds_one_member(self, monkeypatch):
        built = []
        make = catalog.make

        def counting_make(*args, **kwargs):
            built.append(args)
            return make(*args, **kwargs)

        monkeypatch.setattr(catalog, "make", counting_make)
        assert family_sweep("f2", []) == []
        assert built == []
        assert len(family_sweep("f2", [0.0, 1.0, 2.0])) == 3
        assert len(built) == 1
        # A theta that is not finite is refused, as its build would refuse it.
        with pytest.raises(ValueError, match="theta must be finite"):
            family_sweep("f1", [0.0, math.nan])


# Per kind, the last class inside `search._scale_free` and the first outside
# it: |t| of M, 1 / (1 + 2 alpha), |t| of G, alpha / 6, and c0 of U, lam, cross 2^-32.
SCALE_FREE_EDGES = [
    (ClassSpec("M", alpha=2147483647.5000002), ClassSpec("M", alpha=2147483647.5000005)),
    (ClassSpec("G", alpha=1.3969838619232178e-09), ClassSpec("G", alpha=1.3969838619232176e-09)),
    (ClassSpec("U", lam=2.0**-32), ClassSpec("U", lam=math.nextafter(2.0**-32, 0.0))),
]
# The edges, and U one ulp above its edge.
SCALE_FREE_EDGE_MESH = [spec for edge in SCALE_FREE_EDGES for spec in edge] + [
    ClassSpec("U", lam=math.nextafter(2.0**-32, 1.0)),
]


class TestViolationScan:
    def test_u_scan_clean_and_frozen(self):
        res = bound_violation_scan(ClassSpec("U", lam=1.0), samples=100_000, seed=0)
        assert isinstance(res, ScanResult)
        assert res.violations == 0
        assert res.passed
        # Frozen values for the SplitMix64 stream of seed 0.  The maximum is
        # sample 28606, whose delta at its own doubles is 0.497668127475671222062
        # to 21 digits (mpmath, 200 bits): this pins its correctly rounded value.
        assert res.min_delta == -0.6949800760457365
        assert res.max_delta == 0.49766812747567124

    @pytest.mark.parametrize("spec, want", [
        (ClassSpec("M", alpha=1.0), (-0.31559042172034774, 0.16550245170252983)),
        (ClassSpec("G", alpha=1.0), (-0.19024367135330078, 0.08275126884258899)),
    ], ids=["M(1)", "G(1)"])
    def test_sin_branch_scans_clean_and_frozen(self, spec, want):
        # U reads k^2 as cos^2(phase / 2), M and G as sin^2(phase / 2):
        # frozen values of the other branch, for the same stream of seed 0.
        res = bound_violation_scan(spec, samples=100_000, seed=0)
        assert res.violations == 0
        assert (res.min_delta, res.max_delta) == want

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

    @pytest.mark.parametrize("samples", [
        1, search._SCAN_BLOCK - 1, search._SCAN_BLOCK, search._SCAN_BLOCK + 1, 100_000,
    ])
    @pytest.mark.parametrize("spec", [
        *(pytest.param(spec, id=mesh_id(spec)) for spec in ORACLE_MESH),
        pytest.param(ClassSpec("M", alpha=1e150), id="M(1e+150)"),
        pytest.param(ClassSpec("G", alpha=1e-300), id="G(1e-300)"),
        pytest.param(ClassSpec("U", lam=1e-300), id="U(1e-300)"),
        *(pytest.param(spec, id=spec.label()) for spec in SCALE_FREE_EDGE_MESH),
    ])
    def test_blocked_scan_is_the_one_shot_scan(self, spec, samples):
        # The scan draws and evaluates its samples block by block, without
        # the kernel's scaling where `_scale_free` admits the class; it must
        # report what one scaled body_delta call over the whole stream gives,
        # bit for bit.
        body = search._body(spec)
        u = search._unit_doubles(7, 0, search._stream_index(3 * samples)).reshape(samples, 3)
        m1 = u[:, 0] * body.reach
        d = body_delta(spec, m1, u[:, 1] * body.cap(m1), u[:, 2] * (2.0 * math.pi))
        pair = bound_delta(spec)
        slack = SCAN_TOLERANCE * max(abs(pair.lower), abs(pair.upper))
        violations = np.count_nonzero(d < pair.lower - slack) + np.count_nonzero(
            d > pair.upper + slack
        )
        res = bound_violation_scan(spec, samples=samples, seed=7)
        assert (res.min_delta, res.max_delta, res.violations) == (d.min(), d.max(), violations)

    def test_only_blocks_that_cross_a_bound_are_counted(self, monkeypatch):
        # Bounds that cut through some blocks and miss others, the short last
        # block among those the lower bound cuts: the violations are those of
        # one body_delta call over the whole stream.
        spec, size, seed = ClassSpec("M", alpha=1.0), search._SCAN_BLOCK, 0
        samples = 4 * size + 1000
        body = search._body(spec)
        u = search._unit_doubles(seed, 0, search._stream_index(3 * samples)).reshape(samples, 3)
        m1 = u[:, 0] * body.reach
        d = body_delta(spec, m1, u[:, 1] * body.cap(m1), u[:, 2] * (2.0 * math.pi))
        lows = np.array([d[i:i + size].min() for i in range(0, samples, size)])
        highs = np.array([d[i:i + size].max() for i in range(0, samples, size)])
        # Midway between the 3rd and 4th lowest block minima and the 2nd and 3rd highest maxima.
        pair = dataclasses.replace(bound_delta(spec), lower=np.sort(lows)[2:4].mean(),
                                   upper=np.sort(highs)[-3:-1].mean())
        monkeypatch.setattr(search, "bound_delta", lambda spec: pair)
        slack = SCAN_TOLERANCE * max(abs(pair.lower), abs(pair.upper))
        lower, upper = pair.lower - slack, pair.upper + slack
        assert (lows < lower).tolist() == [False, True, False, True, True]
        assert (highs > upper).tolist() == [False, True, False, True, False]
        violations = np.count_nonzero(d < lower) + np.count_nonzero(d > upper)
        assert violations > 0
        assert bound_violation_scan(spec, samples=samples, seed=seed).violations == violations

    def test_scan_memory_stays_blocked(self):
        # Each block draws its own samples, so the scan peaks near 1 MiB; the
        # three draws of 10^6 samples whole would take 22.9 MiB.
        tracemalloc.start()
        try:
            bound_violation_scan(ClassSpec.of("M", 1.0), samples=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_as_dict(self):
        d = bound_violation_scan(ClassSpec("G", alpha=1.0), samples=1_000, seed=0).as_dict()
        assert d["class"] == "G(1)"
        assert d["samples"] == 1000
        assert d["passed"] is True

    @pytest.mark.parametrize("samples", [
        1, search._SCAN_BLOCK - 1, search._SCAN_BLOCK, search._SCAN_BLOCK + 1,
    ])
    def test_scan_is_a_prefix_of_longer_scans(self, samples):
        # Sample i reads outputs 3i .. 3i + 2 whatever the block it falls in.
        spec = ClassSpec("U", lam=0.5)
        index = search._stream_index(3 * (samples + 10_000))
        u = search._unit_doubles(11, 0, index).reshape(-1, 3)[:samples]
        body = search._body(spec)
        m1 = u[:, 0] * body.reach
        d = body_delta(spec, m1, u[:, 1] * body.cap(m1), u[:, 2] * (2.0 * math.pi))
        res = bound_violation_scan(spec, samples=samples, seed=11)
        assert (res.min_delta, res.max_delta) == (d.min(), d.max())

    def test_seed_domain(self):
        spec = ClassSpec("S")
        assert bound_violation_scan(spec, samples=100, seed=2**64 - 1).passed
        # A numpy integer seed draws the stream of the same Python int.
        assert bound_violation_scan(spec, samples=100, seed=np.uint64(2**64 - 1)) == (
            bound_violation_scan(spec, samples=100, seed=2**64 - 1)
        )
        refusal = r"seed must be an integer in \[0, 18446744073709551615\]"
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match=refusal):
                bound_violation_scan(spec, samples=100, seed=seed)

    @pytest.mark.parametrize("samples, seed, refusal", [
        (10.0, 0, "samples must be an integer, got 10.0"),
        (True, 0, "samples must be an integer, got True"),
        (np.float64(10.0), 0, "samples must be an integer"),
        (10, True, r"seed must be an integer in \[0, 18446744073709551615\], got True"),
        (10, np.float64(1.0), "seed must be an integer"),
    ], ids=["float_samples", "bool_samples", "numpy_float_samples", "bool_seed",
            "numpy_float_seed"])
    def test_arguments_that_are_not_integers_refused(self, samples, seed, refusal):
        with pytest.raises(ValueError, match=refusal):
            bound_violation_scan(ClassSpec("S"), samples=samples, seed=seed)

    def test_numpy_integer_arguments_are_stored_as_ints(self):
        # The result and its JSON are those of the same Python ints.
        spec = ClassSpec("S")
        res = bound_violation_scan(spec, samples=np.int64(100), seed=np.uint64(2**64 - 1))
        assert (type(res.samples), type(res.seed)) == (int, int)
        assert res == bound_violation_scan(spec, samples=100, seed=2**64 - 1)
        assert json.loads(json.dumps(res.as_dict()))["seed"] == 2**64 - 1

    def test_as_dict_names_the_generator(self):
        d = bound_violation_scan(ClassSpec("S"), samples=10).as_dict()
        assert d["generator"] == "splitmix64"

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="samples"):
            bound_violation_scan(ClassSpec("S"), samples=0)

    @pytest.mark.parametrize("where, start", [
        (0, 0),
        (search._SCAN_BLOCK + 5, search._SCAN_BLOCK),
        (3 * search._SCAN_BLOCK - 1, 2 * search._SCAN_BLOCK),
    ])
    def test_nan_in_a_block_is_refused(self, monkeypatch, where, start):
        # The samples are not checked one by one: a NaN delta anywhere in a
        # block carries through the block's min and max, and the scan refuses it.
        kernel, done = search._delta, []

        def poisoned(body, m1, m2, k2, **kwargs):
            d = kernel(body, m1, m2, k2, **kwargs)
            first = sum(done)
            done.append(d.size)
            if first <= where < first + d.size:
                d[where - first] = math.nan
            return d

        monkeypatch.setattr(search, "_delta", poisoned)
        refusal = rf"^M\(1\) scan: delta not finite in block from sample {start}$"
        with pytest.raises(ValueError, match=refusal):
            bound_violation_scan(ClassSpec("M", alpha=1.0), samples=3 * search._SCAN_BLOCK)

    def test_sample_count_capped(self):
        # Refused before any sample is drawn.
        with pytest.raises(ValueError, match=r"samples must lie in \[1, 1000000\]"):
            bound_violation_scan(ClassSpec("S"), samples=MAX_SAMPLES + 1)


# The classes of the kernel accuracy test: its map's extremes, 1e-150 at
# M(1e150) and subnormal at G(3.8e-309), included.
KERNEL_SPECS = [
    ClassSpec("S"),
    ClassSpec("U", lam=0.1),
    ClassSpec("U", lam=1.0),
    ClassSpec("M", alpha=0.0),
    ClassSpec("M", alpha=1e-3),
    ClassSpec("M", alpha=1e150),
    ClassSpec("G", alpha=1.0),
    ClassSpec("G", alpha=1e-300),
    ClassSpec("G", alpha=3.8e-309),
]


class TestHalfAngleKernel:
    """body_delta, the scan's real kernel, against the complex form it replaces."""

    @staticmethod
    def _complex_form(spec, m1, m2, phase):
        """delta = 0.5 |a_3 - mu a_2^2| - 0.5 |a_2| in complex arithmetic, and the
        scale |a_2| + |P| + |T| that its roundoff is measured in."""
        body = search._body(spec)
        a2 = body.s * m1
        a3 = body.q * a2 * a2 + body.t * (m2 * np.exp(1j * phase))
        d = 0.5 * np.abs(a3 - functional.MU * a2 * a2) - 0.5 * np.abs(a2)
        scale = np.abs(a2) + np.abs((body.q - functional.MU) * a2 * a2) + np.abs(body.t * m2)
        return d, scale

    @staticmethod
    def _stream_points(spec, samples=4000):
        body = search._body(spec)
        u = search._unit_doubles(0, 0, search._stream_index(3 * samples)).reshape(samples, 3)
        m1 = u[:, 0] * body.reach
        return m1, u[:, 1] * body.cap(m1), u[:, 2] * (2.0 * math.pi)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=mesh_id)
    def test_within_a_few_ulps_of_the_complex_form(self, spec):
        m1, m2, phase = self._stream_points(spec)
        want, scale = self._complex_form(spec, m1, m2, phase)
        err = np.abs(body_delta(spec, m1, m2, phase) - want)
        assert (err <= 4.0 * np.spacing(scale)).all()

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=mesh_id)
    @pytest.mark.parametrize("turns", [-3.0, -1.0, 1.0, 2.0, 50.0])
    def test_phases_outside_one_turn(self, spec, turns):
        # cos^2(phase / 2) and sin^2(phase / 2) have period 2 pi, so a phase
        # off [0, 2 pi) is read as the complex form reads it.
        m1, m2, phase = self._stream_points(spec, 500)
        phase = phase + turns * 2.0 * math.pi
        want, scale = self._complex_form(spec, m1, m2, phase)
        err = np.abs(body_delta(spec, m1, m2, phase) - want)
        assert (err <= 4.0 * np.spacing(scale)).all()

    # Classes of both forms of k^2: cos^2 where q - mu and t share a sign, sin^2 where not.
    @pytest.mark.parametrize("spec, cos_form", [
        (ClassSpec("S"), True),
        (ClassSpec("U", lam=0.1), True),
        (ClassSpec("U", lam=1.0), True),
        (ClassSpec("M", alpha=0.0), False),
        (ClassSpec("M", alpha=1.0), False),
        (ClassSpec("M", alpha=1e150), False),
        (ClassSpec("G", alpha=1.0), False),
        (ClassSpec("G", alpha=1e-300), False),
    ], ids=lambda v: mesh_id(v) if isinstance(v, ClassSpec) else ("cos" if v else "sin"))
    def test_within_one_ulp_of_the_exact_delta(self, spec, cos_form):
        # Against delta at the points' own doubles in 200-bit arithmetic, at
        # stream points and at phases 1e-15 to 1e-3 off 0, pi and 2 pi, where
        # k^2 is near 0 or 1 and tan(phase / 2) near 0 or a pole.
        body = search._body(spec)
        assert ((body.q > functional.MU) == (body.t > 0.0)) == cos_form
        m1, m2, phase = self._stream_points(spec, 200)
        eps = np.logspace(-15.0, -3.0, 13)
        near = np.concatenate([eps, -eps, math.pi - eps, math.pi + eps, 2.0 * math.pi - eps])
        m1 = np.concatenate([m1, m1[:near.size]])
        m2 = np.concatenate([m2, m2[:near.size]])
        phase = np.concatenate([phase, near])
        got = body_delta(spec, m1, m2, phase)
        scale = self._complex_form(spec, m1, m2, phase)[1]
        with mpmath.workprec(200):
            s, q, t, mu = (mpmath.mpf(float(v)) for v in (body.s, body.q, body.t, functional.MU))
            for d, x, y, ph, ulp in zip(got.tolist(), m1.tolist(), m2.tolist(), phase.tolist(),
                                        np.spacing(scale).tolist()):
                a2 = s * x
                exact = abs((q - mu) * a2 * a2 + t * y * mpmath.expj(ph)) / 2 - abs(a2) / 2
                assert abs(d - exact) <= ulp, (x, y, ph)

    @pytest.mark.parametrize("lam, m2", [
        (1.0, 1e-200), (1e-300, 1e-300), (1e-300, 1e-310),
    ])
    def test_tiny_coordinates_keep_their_squares(self, lam, m2):
        # At m1 = 0, delta = |T| / 2 at every phase, also where T^2 underflows.
        spec = ClassSpec("U", lam=lam)
        assert m2 * m2 == 0.0
        assert body_delta(spec, 0.0, m2, [0.0, 1.0, math.pi]).tolist() == [0.5 * m2] * 3

    def test_scalar_points_give_scalars(self):
        got = body_delta(ClassSpec("S"), 0.5, 0.5, 0.0)
        assert isinstance(got, np.float64)
        assert body_delta(ClassSpec("S"), [[0.5]], 0.5, [0.0, 1.0]).shape == (1, 2)


class TestScaleFreeKernel:
    """`_delta` without its scaling, on the classes that `search._scale_free` admits."""

    # The extreme draws of a scan coordinate: 0, the two least nonzero, 1/2 and the two largest.
    EXTREME_U = [0.0, 2.0**-53, 2.0**-52, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]

    @settings(max_examples=200, deadline=None)
    @given(spec=st.one_of(
        st.sampled_from([ClassSpec("S")] + [inside for inside, _ in SCALE_FREE_EDGES]),
        log_uniform(-9.6, 0.0).map(lambda lam: ClassSpec("U", lam=lam)),
        st.one_of(st.just(0.0), log_uniform(-300.0, 9.33)).map(lambda a: ClassSpec("M", alpha=a)),
        log_uniform(-8.85, 0.0).map(lambda a: ClassSpec("G", alpha=a)),
    ))
    def test_scaling_moves_no_bit(self, spec):
        # At every triple of extreme draws and at 1000 stream samples, as the scan draws them.
        body = search._body(spec)
        assert search._scale_free(body)
        extremes = np.array(list(itertools.product(self.EXTREME_U, repeat=3)))
        stream = search._unit_doubles(0, 0, search._stream_index(3000)).reshape(1000, 3)
        u = np.concatenate([extremes, stream])
        m1 = u[:, 0] * body.reach
        m2 = u[:, 1] * body.cap(m1)
        k2 = search._half_angle_k2(body, u[:, 2] * math.pi)
        scaled = search._delta(body, m1, m2, k2)
        free = search._delta(body, m1, m2, k2, scale=False)
        assert free.view(np.int64).tolist() == scaled.view(np.int64).tolist()

    @pytest.mark.parametrize("spec, scaled", [
        *((spec, spec in [outside for _, outside in SCALE_FREE_EDGES])
          for spec in SCALE_FREE_EDGE_MESH),
        (ClassSpec("S"), False),
        (ClassSpec("M", alpha=1e150), True),
        (ClassSpec("G", alpha=1e-300), True),
        (ClassSpec("U", lam=1e-300), True),
    ], ids=lambda v: v.label() if isinstance(v, ClassSpec) else ("scaled" if v else "free"))
    def test_the_scan_scales_outside_the_predicate(self, monkeypatch, spec, scaled):
        kernel, scales = search._delta, []

        def recording(body, m1, m2, k2, **kwargs):
            scales.append(kwargs["scale"])
            return kernel(body, m1, m2, k2, **kwargs)

        monkeypatch.setattr(search, "_delta", recording)
        bound_violation_scan(spec, samples=search._SCAN_BLOCK + 1)
        assert scales == [scaled, scaled]


def _splitmix64_reference(seed, k):
    """Output k of the SplitMix64 stream of seed, in Python ints."""
    mask = 2**64 - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSplitMix64:
    def test_published_outputs(self):
        # The first five outputs published for seed 1234567.
        assert search._splitmix64(1234567, 0, search._stream_index(5)).tolist() == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    @pytest.mark.parametrize("start", [0, 3 * search._SCAN_BLOCK, 3 * MAX_SAMPLES - 64])
    def test_wraparound_matches_python_ints(self, start):
        # At the largest seed the very first addition wraps modulo 2^64.
        seed = 2**64 - 1
        got = search._splitmix64(seed, start, search._stream_index(64)).tolist()
        assert got == [_splitmix64_reference(seed, k) for k in range(start, start + 64)]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("start, n", [
        (0, search._SCAN_BLOCK - 1),
        (0, search._SCAN_BLOCK),
        (0, search._SCAN_BLOCK + 1),
        (search._SCAN_BLOCK - 1, 3),
        (search._SCAN_BLOCK, search._SCAN_BLOCK + 1),
        (MAX_SAMPLES - search._SCAN_BLOCK - 1, search._SCAN_BLOCK + 1),
    ])
    def test_strided_draws_are_the_interleaved_stream(self, seed, start, n):
        # The scan draws coordinate j of samples start .. start + n - 1 on
        # its own: outputs 3i + j, the bits of every third output of one draw.
        whole = search._unit_doubles(seed, 3 * start, search._stream_index(3 * n))
        index = search._stream_index(n, 3)
        for j in range(3):
            got = search._unit_doubles(seed, 3 * start + j, index)
            assert got.view(np.int64).tolist() == whole[j::3].view(np.int64).tolist()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_last_partial_block_with_the_scan_index(self, seed):
        # A scan of 1e5 samples ends in a block of 1696; its draws read the
        # first entries of the scan's full-block index.
        start = 100_000 - 100_000 % search._SCAN_BLOCK
        n = 100_000 - start
        assert n == 1696
        index = search._stream_index(search._SCAN_BLOCK, 3)
        for j in range(3):
            got = search._splitmix64(seed, 3 * start + j, index[:n]).tolist()
            assert got == [_splitmix64_reference(seed, 3 * (start + i) + j) for i in range(n)]

    def test_scan_index_is_built_once_and_read_only(self, monkeypatch):
        built, make = [], search._stream_index

        def recording(count, step=1):
            built.append(make(count, step))
            return built[-1]

        spec = ClassSpec("G", alpha=0.5)
        first = bound_violation_scan(spec, samples=3 * search._SCAN_BLOCK + 5, seed=9)
        monkeypatch.setattr(search, "_stream_index", recording)
        bound_violation_scan(spec, samples=search._SCAN_BLOCK - 3, seed=2**64 - 1)
        again = bound_violation_scan(spec, samples=3 * search._SCAN_BLOCK + 5, seed=9)
        assert again == first
        # One index per scan, whatever its number of blocks.
        assert [x.size for x in built] == [search._SCAN_BLOCK - 3, search._SCAN_BLOCK]
        for x in built:
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0

    def test_unit_doubles_are_the_top_53_bits(self):
        u = search._unit_doubles(2**64 - 1, 100, search._stream_index(64))
        want = [(_splitmix64_reference(2**64 - 1, k) >> 11) / 2**53 for k in range(100, 164)]
        assert u.tolist() == want
        assert ((0.0 <= u) & (u < 1.0)).all()


def test_g_quadratic_sits_strictly_inside_interval():
    # The quadratic member does not attain the G(1) lower bound; the gap
    # 4/21 - 3/16 = 1/336 is genuine.
    d = delta(g_quadratic())
    pair = bound_delta(ClassSpec("G", alpha=1.0))
    assert d == pytest.approx(-3.0 / 16.0, abs=1e-14)
    assert pair.lower < d < pair.upper
    assert d - pair.lower == pytest.approx(1.0 / 336.0, abs=1e-12)
