"""Span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of each `logcoef` module from
outside, in every module namespace that holds a reference to them, so calls
made through ``from .series import log_unit`` are seen as well as calls made
through ``series.log_unit``.  Nothing under ``src/`` is changed.  Each call
records a span: name, start, end, parent span, job id, whether it raised, and
a few size attributes (series order, grid points, samples).  Spans stay in
memory until the job ends.

`layer_metrics()` turns the spans of one pass into the per-layer metrics.  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

clock = time.perf_counter

SERIES_OPS = ("log_unit", "exp_unit", "pow_real", "div", "horner")
ORDER_BUCKETS = ("lo", "mid", "hi")  # order <= 64, <= 1024, > 1024
CATALOG_GROUPS = ("rational", "k_theta_alpha", "m_alpha_upper", "g_alpha_upper")
MEMBERSHIP_PATHS = ("closed", "series")
CLI_COMMANDS = ("verify", "membership", "search", "sweep", "gamma")
LAYERS = ("series", "catalog", "classes", "functional", "bounds", "search", "cli")


def order_bucket(order: int) -> str:
    if order <= 64:
        return "lo"
    return "mid" if order <= 1024 else "hi"


def _series_order(args, kwargs, result):
    return {"order": args[0].order}


def _div_order(args, kwargs, result):
    return {"order": len(args[0]) - 1}


def _horner_size(args, kwargs, result):
    return {"order": args[0].order, "points": int(np.size(args[1]))}


def _membership_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        d = {
            "path": "closed" if a["f"].evaluator is not None else "series",
            "samples": len(tuple(a["radii"])) * int(a["angular"]),
        }
        if result is not None:
            d["skipped"] = result.skipped
        return d

    return attrs


def _points(args, kwargs, result):
    return {"points": int(np.size(result))} if result is not None else {}


def _scan_samples(args, kwargs, result):
    return {"samples": result.samples} if result is not None else {}


def _cli_name(args, kwargs):
    return f"cli.{args[0][0]}"  # cli.main(argv) names the command first


# (module, attribute path, span name, attribute hook).  A span name may be a
# callable of (args, kwargs) for wrappers whose name depends on the call; the
# hook "membership" is built from the wrapped function's signature.
TARGETS = (
    ("logcoef.series", "log_unit", "series.log_unit", _series_order),
    ("logcoef.series", "exp_unit", "series.exp_unit", _series_order),
    ("logcoef.series", "pow_real", "series.pow_real", _series_order),
    ("logcoef.series", "_div_coeffs", "series.div", _div_order),
    ("logcoef.series", "TruncatedSeries.__call__", "series.horner", _horner_size),
    *(("logcoef.catalog", label, "catalog.rational", None)
      for label in ("koebe", "f1", "f2", "f3", "f4", "f5", "g_quadratic")),
    ("logcoef.catalog", "k_theta_alpha", "catalog.k_theta_alpha", None),
    ("logcoef.catalog", "m_alpha_upper", "catalog.m_alpha_upper", None),
    ("logcoef.catalog", "g_alpha_upper", "catalog.g_alpha_upper", None),
    ("logcoef.classes", "membership_test", "classes.membership", "membership"),
    ("logcoef.functional", "delta", "functional.delta", None),
    ("logcoef.functional", "log_pair", "functional.log_pair", None),
    ("logcoef.bounds", "bound_delta", "bounds.bound_delta", None),
    ("logcoef.search", "body_search", "search.body_search", None),
    ("logcoef.search", "body_delta", "search.body_delta", _points),
    ("logcoef.search", "bound_violation_scan", "search.bound_violation_scan", _scan_samples),
    ("logcoef.search", "family_sweep", "search.family_sweep", None),
    ("logcoef.cli", "main", _cli_name, None),
)


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for calls into `logcoef` while installed."""

    def __init__(self, job: int = 0):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, attrs=None):
        """`fn` with a span recorded around every call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name(args, kwargs) if callable(name) else name,
                "job": self.job,
                "parent": stack[-1] if stack else -1,
                "failed": False,
            }
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                rec["failed"] = True
                rec["error"] = type(e).__name__
                raise
            finally:
                rec["end"] = clock()
                stack.pop()
                if attrs is not None:
                    rec.update(attrs(args, kwargs, result))

        wrapper.traced_original = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every `logcoef` namespace that refers to it."""
        import logcoef.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items() if n == "logcoef" or n.startswith("logcoef.")]
        for modname, path, name, attrs in TARGETS:
            owner, attr = _resolve(modname, path)
            orig = getattr(owner, attr)
            hook = _membership_attrs(orig) if attrs == "membership" else attrs
            wrapped = self.wrap(name, orig, hook)
            holders = {id(owner): owner}
            holders.update((id(m), m) for m in modules)
            for holder in holders.values():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- per-layer metrics -----------------------------------------------------------


def _madds(op: str, order: int, points: int) -> int:
    """Complex multiply-adds of one series operation, computed from its sizes."""
    n = order
    if op == "log_unit":
        return n * (n - 1) // 2
    if op in ("exp_unit", "div"):
        return n * (n + 1) // 2
    if op == "pow_real":
        return n * (n + 1)
    return (n + 1) * points  # horner


# Per-layer metrics that come from the run's timing, not from its spans.
RUN_METRICS = [
    ("trace.overhead_frac", "frac", "lower"),
    ("cal_s", "s", "lower"),
    ("raw.pass_s", "s", "lower"),
    ("raw.job_p50_ms", "ms", "lower"),
]


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return _span_metric_names() + RUN_METRICS


def _span_metric_names() -> list[tuple[str, str, str]]:
    out = []
    for op in SERIES_OPS:
        for b in ORDER_BUCKETS:
            out.append((f"series.{op}.{b}.calls", "count", "lower"))
            out.append((f"series.{op}.{b}.self_ms", "ms", "lower"))
        out.append((f"series.{op}.madds", "count", "lower"))
    for g in CATALOG_GROUPS:
        out += [(f"catalog.{g}.calls", "count", "lower"), (f"catalog.{g}.ms", "ms", "lower")]
    for p in MEMBERSHIP_PATHS:
        out += [
            (f"classes.membership.{p}.calls", "count", "lower"),
            (f"classes.membership.{p}.ms", "ms", "lower"),
            (f"classes.membership.{p}.samples", "count", "lower"),
        ]
    out += [
        ("classes.membership.skipped", "count", "lower"),
        ("classes.membership.refused", "count", "lower"),
        ("classes.membership.finite_frac", "frac", "higher"),
    ]
    for f in ("delta", "log_pair"):
        out += [(f"functional.{f}.calls", "count", "lower"), (f"functional.{f}.ms", "ms", "lower")]
    out += [("bounds.bound_delta.calls", "count", "lower"), ("bounds.bound_delta.ms", "ms", "lower")]
    out += [
        ("search.body_search.calls", "count", "lower"),
        ("search.body_search.ms", "ms", "lower"),
        ("search.body_delta.points", "count", "lower"),
        ("search.body_delta.ms", "ms", "lower"),
        ("search.bound_violation_scan.calls", "count", "lower"),
        ("search.bound_violation_scan.ms", "ms", "lower"),
        ("search.bound_violation_scan.samples", "count", "lower"),
        ("search.family_sweep.calls", "count", "lower"),
        ("search.family_sweep.ms", "ms", "lower"),
        ("search.family_sweep.members", "count", "lower"),
    ]
    for c in CLI_COMMANDS:
        out += [(f"cli.{c}.calls", "count", "lower"), (f"cli.{c}.ms", "ms", "lower")]
    out.append(("cli.self_ms", "ms", "lower"))
    out += [(f"{layer}.self_frac", "frac", "lower") for layer in LAYERS]
    return out


def layer_metrics(jobs: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one pass from the span lists of its jobs.

    A span's `parent` is an index into its own job's list, -1 for a root.
    """
    m = {name: 0.0 for name, _, _ in _span_metric_names()}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    total_ms = 0.0
    for spans in jobs:
        total_ms += _add_job(m, layer_self, spans)

    samples = m["classes.membership.closed.samples"] + m["classes.membership.series.samples"]
    skipped = m["classes.membership.skipped"]
    m["classes.membership.finite_frac"] = 1.0 - skipped / samples if samples else 1.0
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self[layer] / total_ms if total_ms else 0.0
    return m


def _add_job(m: dict, layer_self: dict, spans: list[dict]) -> float:
    """Add one job's spans to the metrics; returns the job's root span time."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] += (s["end"] - s["start"]) * 1e3
    total_ms = 0.0
    for s, covered in zip(spans, child_ms):
        name = s["name"]
        ms = (s["end"] - s["start"]) * 1e3
        self_ms = ms - covered
        layer, op = name.split(".", 1)
        layer_self[layer] += self_ms
        if layer == "series":
            b = order_bucket(s["order"])
            m[f"series.{op}.{b}.calls"] += 1
            m[f"series.{op}.{b}.self_ms"] += self_ms
            m[f"series.{op}.madds"] += _madds(op, s["order"], s.get("points", 0))
        elif layer == "catalog":
            m[f"catalog.{op}.calls"] += 1
            m[f"catalog.{op}.ms"] += ms
        elif layer == "classes":
            p = s["path"]
            m[f"classes.membership.{p}.calls"] += 1
            m[f"classes.membership.{p}.ms"] += ms
            if s["failed"]:
                m["classes.membership.refused"] += s.get("error") == "ValueError"
            else:
                m[f"classes.membership.{p}.samples"] += s["samples"]
                m["classes.membership.skipped"] += s["skipped"]
        elif layer == "search" and op == "body_delta":
            m["search.body_delta.points"] += s.get("points", 0)
            m["search.body_delta.ms"] += ms
        elif layer == "cli":
            m[f"cli.{op}.calls"] += 1
            m[f"cli.{op}.ms"] += ms
            m["cli.self_ms"] += self_ms
            total_ms += ms
        else:
            m[f"{name}.calls"] += 1
            m[f"{name}.ms"] += ms
            if name == "search.bound_violation_scan":
                m["search.bound_violation_scan.samples"] += s.get("samples", 0)
            elif name == "functional.delta" and s["parent"] >= 0:
                parent = spans[s["parent"]]["name"]
                m["search.family_sweep.members"] += parent == "search.family_sweep"
    return total_ms
