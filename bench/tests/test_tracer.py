"""Tests of the benchmark's tracer, its references and its output contract.

Run from the repository root: ``python3 -m pytest -q bench/tests``.  The
workload test runs one traced pass of each workload, about 40 s in all.
"""

import json
import math
import os

import pytest

import reference
import run
import tracer
import workloads
from logcoef import bounds, catalog, classes, functional, search, series
from logcoef.classes import ClassSpec

ROOT = os.path.dirname(run.HERE)

# The workload meant to exercise each wrapped function.
EXERCISED_BY = {
    "series.log_unit": "boundary-membership",
    "series.exp_unit": "boundary-membership",
    "series.pow_real": "boundary-membership",
    "series.div": "boundary-membership",
    "series.horner": "boundary-membership",
    "catalog.rational": "boundary-membership",
    "catalog.k_theta_alpha": "boundary-membership",
    "catalog.m_alpha_upper": "boundary-membership",
    "catalog.g_alpha_upper": "boundary-membership",
    "classes.membership": "boundary-membership",
    "cli.verify": "boundary-membership",
    "cli.membership": "boundary-membership",
    "search.body_search": "body-search",
    "search.body_delta": "body-search",
    "bounds.bound_delta": "body-search",
    "cli.search": "body-search",
    "cli.sweep": "body-search",
    "functional.delta": "family-scan",
    "functional.log_pair": "family-scan",
    "search.bound_violation_scan": "family-scan",
    "search.family_sweep": "family-scan",
    "cli.gamma": "family-scan",
}

# Layers each workload is designed never to call.
NEVER_CALLED = {
    "boundary-membership": ("search",),
    "body-search": ("series", "catalog", "classes"),
    "family-scan": ("classes",),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _is_wrapped(fn):
    return hasattr(fn, "traced_original")


class TestInstall:
    def test_wrappers_reach_every_namespace_that_imported_the_name(self):
        import logcoef

        originals = (catalog.pow_real, catalog.log_unit, search.bound_delta,
                     series.TruncatedSeries.__call__)
        with tracer.Tracer():
            for fn in (catalog.pow_real, catalog.log_unit, catalog.exp_unit,
                       functional.log_unit, series.log_unit, logcoef.log_unit,
                       search.bound_delta, bounds.bound_delta, search.body_delta,
                       series._div_coeffs, series.TruncatedSeries.__call__,
                       classes.membership_test, functional.log_pair):
                assert _is_wrapped(fn)
        assert (catalog.pow_real, catalog.log_unit, search.bound_delta,
                series.TruncatedSeries.__call__) == originals
        assert not _is_wrapped(functional.log_unit)

    def test_every_target_is_installed(self):
        with tracer.Tracer():
            for modname, path, _, _ in tracer.TARGETS:
                owner, attr = tracer._resolve(modname, path)
                assert _is_wrapped(getattr(owner, attr)), path

    def test_nested_calls_record_parents_and_sizes(self):
        with tracer.Tracer(job=7) as t:
            catalog.k_theta_alpha(0.0, 1.0, order=40)
        names = [s["name"] for s in t.spans]
        assert names[0] == "catalog.k_theta_alpha"
        assert set(names[1:]) == {"series.pow_real", "series.log_unit", "series.exp_unit"}
        assert all(s["parent"] == 0 and s["order"] == 40 for s in t.spans[1:])
        assert all(s["job"] == 7 and s["end"] >= s["start"] for s in t.spans)

    def test_raising_call_records_failed_span_and_reraises(self):
        with tracer.Tracer() as t:
            with pytest.raises(ValueError, match="lambda"):
                catalog.f3(2.0)
            catalog.f3(0.5)
        failed, ok = [s for s in t.spans if s["name"] == "catalog.rational"]
        assert failed["failed"] and failed["error"] == "ValueError"
        assert not ok["failed"] and ok["parent"] == -1
        assert not t._stack

    def test_refused_membership_counts_as_refused(self):
        f = catalog.k_theta_alpha(0.0, 1.0, order=64)
        with tracer.Tracer() as t:
            with pytest.raises(ValueError, match="cannot be trusted"):
                classes.membership_test(f, ClassSpec("M", alpha=1.0), radii=(0.99,), angular=8)
        m = tracer.layer_metrics([t.spans])
        assert m["classes.membership.refused"] == 1
        assert m["classes.membership.series.calls"] == 1
        assert m["classes.membership.series.samples"] == 0


class TestLayerMetrics:
    def test_self_time_subtracts_child_spans(self):
        spans = [
            {"name": "cli.gamma", "parent": -1, "start": 0.0, "end": 1.0, "failed": False},
            {"name": "functional.log_pair", "parent": 0, "start": 0.1, "end": 0.5,
             "failed": False},
            {"name": "series.log_unit", "parent": 1, "start": 0.2, "end": 0.4,
             "failed": False, "order": 31},
        ]
        m = tracer.layer_metrics([spans])
        assert m["cli.gamma.ms"] == pytest.approx(1000.0)
        assert m["cli.self_ms"] == pytest.approx(600.0)
        assert m["functional.log_pair.ms"] == pytest.approx(400.0)
        assert m["series.log_unit.lo.self_ms"] == pytest.approx(200.0)
        assert m["series.log_unit.madds"] == 31 * 30 // 2
        assert m["series.self_frac"] == pytest.approx(0.2)
        assert sum(m[f"{layer}.self_frac"] for layer in tracer.LAYERS) == pytest.approx(1.0)

    def test_order_buckets(self):
        assert [tracer.order_bucket(n) for n in (32, 64, 65, 1024, 1025, 5120)] == [
            "lo", "lo", "mid", "mid", "hi", "hi"]


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["sweep", "--function", "k_theta_alpha", "--step", "0.25"],
    ["search", "--class", "M", "--alpha", "1.0", "--resolution", "24"],
    ["membership", "--function", "f4", "--class", "U", "--lambda", "0.7"],
])
def test_traced_and_untraced_stdout_are_byte_identical(argv):
    job = {"argv": [*argv, "--format", "json"], "check": "verify", "ref": {}}
    plain = run.run_job(job, 0, False, ROOT, _env())
    traced = run.run_job(job, 0, True, ROOT, _env())
    assert plain["stdout"] and plain["stdout"] == traced["stdout"]
    assert not plain["spans"] and traced["spans"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_wrapped_function_is_hit_on_its_workload(workload):
    jobs = workloads.jobs_for(workload, seed=0)
    p = run.run_pass(jobs, True, ROOT, _env())
    assert all("spans" in r for r in p["results"]), [r.get("why") for r in p["results"]]
    hit = {s["name"] for r in p["results"] for s in r["spans"]}
    want = {name for name, w in EXERCISED_BY.items() if w == workload}
    assert want <= hit, sorted(want - hit)
    for layer in NEVER_CALLED[workload]:
        assert not any(name.startswith(layer + ".") for name in hit), layer
    m = tracer.layer_metrics([r["spans"] for r in p["results"]])
    if workload == "body-search":
        assert m["search.self_frac"] >= 0.8
    if workload == "boundary-membership":
        assert m["series.self_frac"] >= 0.8


class TestReference:
    MESH = [("S", None)] + workloads.CRITERION_5_MESH

    @pytest.mark.parametrize("kind,param", MESH)
    def test_bound_formulas_match_the_package(self, kind, param):
        spec = ClassSpec(kind) if kind == "S" else (
            ClassSpec(kind, lam=param) if kind == "U" else ClassSpec(kind, alpha=param))
        pair = bounds.bound_delta(spec)
        lo, hi = reference.bound_pair(kind, param)
        assert abs(lo - pair.lower) <= 1e-12 and abs(hi - pair.upper) <= 1e-12

    @pytest.mark.parametrize("label,params", [
        ("koebe", {"theta": 1.1}), ("f1", {"theta": 2.0}), ("f2", {"theta": 0.4}),
        ("f3", {"theta": 0.3, "lam": 0.6}), ("f4", {"lam": 0.8}), ("f5", {"lam": 0.2}),
        ("k_theta_alpha", {"theta": 0.7, "alpha": 1.5}), ("m_alpha_upper", {"alpha": 2.0}),
        ("g_alpha_upper", {"alpha": 0.5}), ("g_quadratic", {}),
    ])
    def test_gammas_match_the_series_logarithm(self, label, params):
        f = catalog.make(label, order=48, **params)
        pair = functional.log_pair(f)
        g1, g2 = reference.gammas(label, **params)
        assert abs(pair.gamma1 - g1) <= 1e-9 and abs(pair.gamma2 - g2) <= 1e-9

    def test_membership_reference_gives_the_probe_a_fail(self):
        margins = reference.membership_margins("koebe", "G", (0.5, 0.99), 64, alpha=1.0)
        assert margins[-1] < 0.0

    def test_unparseable_output_fails_the_job(self):
        ok, err, why = reference.check({"check": "verify", "ref": {}}, 2, "error: bad")
        assert not ok and math.isinf(err) and "not JSON" in why


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracer.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(40))
    value, pct = run.tail(values)
    assert value == 29 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))
