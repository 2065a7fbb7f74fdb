"""Command-line front end.

Subcommands: gamma (log-coefficient pair of a catalog function), bounds
(closed-form delta bounds for a class), verify (deterministic check battery),
search (body search or randomized scan), sweep (bound/search curves over a
parameter range, or delta along a catalog family), membership (polar-grid
class test for one function).

Exit status: 0 on success, 1 when a check fails (membership failure, scan
violation, failed verify), 2 on usage errors including numeric flags that a
module rejects.

Output formats: text (human-readable key = value lines), json (one top-level
object), csv (comma-separated, header row, LF endings).  Floats in json and
csv are serialized with repr, so re-parsing reproduces the in-memory doubles
bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import bounds, catalog, classes, functional, search
from .bounds import M_BRANCH_ALPHA
from .classes import ClassSpec


# -- serialization helpers ---------------------------------------------------


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(x) for x in row])
    return buf.getvalue()


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _desc(f) -> str:
    if not f.params:
        return f.label
    inner = ", ".join(f"{k}={v:g}" for k, v in sorted(f.params.items()))
    return f"{f.label}({inner})"


def _emit(args, payload, text_lines, header, rows) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = _csv_text(header, rows)
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- flag interpretation -----------------------------------------------------


def _class_spec(args, shared: bool = False) -> ClassSpec:
    """Class instance from flags.  With shared=True the parameter flags also
    feed the --function being tested, so only the one matching the class kind
    is consumed; otherwise a mismatched parameter flag is an error."""
    kind = getattr(args, "klass", None)
    if kind is None:
        raise ValueError("--class is required for this command")
    lam = getattr(args, "lam", None)
    alpha = getattr(args, "alpha", None)
    if not shared:
        return ClassSpec(kind, lam=lam, alpha=alpha)
    if kind == "S":
        return ClassSpec("S")
    return ClassSpec.of(kind, lam if kind == "U" else alpha)


def _function_from_args(args):
    label = getattr(args, "function", None)
    if label is None:
        raise ValueError("--function is required for this command")
    return catalog.make(
        label,
        theta=getattr(args, "theta", 0.0) or 0.0,
        lam=getattr(args, "lam", None),
        alpha=getattr(args, "alpha", None),
    )


def _parse_radii(text: str) -> tuple:
    try:
        radii = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--radii expects comma-separated numbers, got {text!r}") from None
    if not radii:
        raise ValueError("--radii expects at least one radius")
    return radii


# -- subcommands -------------------------------------------------------------


def _cmd_gamma(args) -> int:
    f = _function_from_args(args)
    pair = functional.log_pair(f)
    payload = {
        "command": "gamma",
        "function": f.label,
        "params": dict(sorted(f.params.items())),
        "gamma1": _cjson(pair.gamma1),
        "gamma2": _cjson(pair.gamma2),
        "delta": pair.delta,
    }
    lines = [
        f"function: {_desc(f)}",
        f"gamma1_re = {pair.gamma1.real!r}",
        f"gamma1_im = {pair.gamma1.imag!r}",
        f"gamma2_re = {pair.gamma2.real!r}",
        f"gamma2_im = {pair.gamma2.imag!r}",
        f"delta = {pair.delta!r}",
    ]
    header = ["function", "gamma1_re", "gamma1_im", "gamma2_re", "gamma2_im", "delta"]
    rows = [
        [
            f.label,
            pair.gamma1.real,
            pair.gamma1.imag,
            pair.gamma2.real,
            pair.gamma2.imag,
            pair.delta,
        ]
    ]
    _emit(args, payload, lines, header, rows)
    return 0


def _cmd_bounds(args) -> int:
    spec = _class_spec(args)
    pair = bounds.bound_delta(spec)
    payload = {"command": "bounds", "class": spec.label()}
    payload.update(pair.as_dict())
    lines = [
        f"class: {spec.label()}",
        f"lower = {pair.lower!r}",
        f"upper = {pair.upper!r}",
        f"lower_sharp = {_cell(pair.lower_sharp)}",
        f"upper_sharp = {_cell(pair.upper_sharp)}",
    ]
    if pair.lower_witness:
        lines.append(f"lower_witness = {pair.lower_witness}")
    if pair.upper_witness:
        lines.append(f"upper_witness = {pair.upper_witness}")
    if pair.note:
        lines.append(f"note = {pair.note}")
    header = [
        "class",
        "lower",
        "upper",
        "lower_sharp",
        "upper_sharp",
        "lower_witness",
        "upper_witness",
        "note",
    ]
    rows = [
        [
            spec.label(),
            pair.lower,
            pair.upper,
            pair.lower_sharp,
            pair.upper_sharp,
            pair.lower_witness,
            pair.upper_witness,
            pair.note,
        ]
    ]
    _emit(args, payload, lines, header, rows)
    return 0


def _golden_delta_rows():
    rows = [
        (catalog.koebe(0.0), -0.5, ClassSpec("S")),
        (catalog.f1(0.0), -0.5 * math.sqrt(2.0), ClassSpec("S")),
        (catalog.f2(0.0), 0.5, ClassSpec("S")),
    ]
    for lam in (0.1, 0.5, 1.0):
        rows.append((catalog.f3(lam), 0.5 * lam, ClassSpec("U", lam=lam)))
    for lam in (0.5, 0.75, 1.0):
        rows.append((catalog.f4(lam), -0.5 * math.sqrt(2.0 * lam), ClassSpec("U", lam=lam)))
    for lam in (0.1, 0.25, 0.5):
        rows.append((catalog.f5(lam), -0.25 * (2.0 * lam + 1.0), ClassSpec("U", lam=lam)))
    rows.append((catalog.g_quadratic(), -3.0 / 16.0, ClassSpec("G", alpha=1.0)))
    return rows


def _verify_checks(full: bool):
    checks = []

    def add(name: str, passed, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    for f, expected, spec in _golden_delta_rows():
        d = functional.delta(f)
        pair = bounds.bound_delta(spec)
        ok = abs(d - expected) <= 1e-10 and pair.lower - 1e-10 <= d <= pair.upper + 1e-10
        add(
            f"delta {_desc(f)}",
            ok,
            f"delta={d!r} expected={expected!r} bounds={spec.label()}",
        )

    for alpha in (0.0, 0.5, 1.0, 2.0):
        d = functional.delta(catalog.m_alpha_upper(alpha, order=64))
        add(
            f"series delta m_alpha_upper(alpha={alpha:g})",
            abs(d - 0.5 / (1.0 + 2.0 * alpha)) <= 1e-6,
            f"delta={d!r}",
        )
    for alpha in (0.25, 0.5, 1.0):
        d = functional.delta(catalog.g_alpha_upper(alpha, order=64))
        add(
            f"series delta g_alpha_upper(alpha={alpha:g})",
            abs(d - alpha / 12.0) <= 1e-6,
            f"delta={d!r}",
        )
    for alpha in (0.5, 1.0, 2.0, 5.0):
        a2 = catalog.k_theta_alpha(0.0, alpha, order=64).a(2)
        add(
            f"series a2 k_theta_alpha(alpha={alpha:g})",
            abs(a2 - 2.0 / (1.0 + alpha)) <= 1e-6,
            f"a2={a2.real!r}",
        )

    add(
        "U lower branches agree at lambda=1/2",
        abs(bounds.u_lower_small_lambda(0.5) - bounds.u_lower_large_lambda(0.5)) <= 1e-12,
        f"small={bounds.u_lower_small_lambda(0.5)!r} large={bounds.u_lower_large_lambda(0.5)!r}",
    )
    brk = M_BRANCH_ALPHA
    add(
        "M lower branches agree at breakpoint",
        abs(bounds.m_lower_small_alpha(brk) - bounds.m_lower_large_alpha(brk)) <= 1e-12,
        f"small={bounds.m_lower_small_alpha(brk)!r} large={bounds.m_lower_large_alpha(brk)!r}",
    )
    s_pair = bounds.bound_delta(ClassSpec("S"))
    m0 = bounds.bound_delta(ClassSpec("M", alpha=0.0))
    add(
        "M(0) bounds equal S bounds",
        abs(m0.lower - s_pair.lower) <= 1e-12 and abs(m0.upper - s_pair.upper) <= 1e-12,
        f"M0=({m0.lower!r},{m0.upper!r}) S=({s_pair.lower!r},{s_pair.upper!r})",
    )
    m1 = bounds.bound_delta(ClassSpec("M", alpha=1.0))
    add(
        "M(1) bounds",
        abs(m1.lower + 1.0 / math.sqrt(10.0)) <= 1e-12 and abs(m1.upper - 1.0 / 6.0) <= 1e-12,
        f"({m1.lower!r},{m1.upper!r})",
    )
    g1 = bounds.bound_delta(ClassSpec("G", alpha=1.0))
    add(
        "G(1) bounds",
        abs(g1.lower + 4.0 / 21.0) <= 1e-12 and abs(g1.upper - 1.0 / 12.0) <= 1e-12,
        f"({g1.lower!r},{g1.upper!r})",
    )

    radii = (0.5, 0.9, 0.99) if full else (0.5, 0.9)
    angular = 256 if full else 128
    for f, spec in classes.asserted_memberships():
        rep = classes.membership_test(f, spec, radii=radii, angular=angular)
        add(
            f"membership {_desc(f)} in {spec.label()}",
            rep.passed,
            f"worst_margin={rep.worst_margin!r}",
        )

    probe = classes.membership_test(
        catalog.koebe(0.0), ClassSpec("G", alpha=1.0), radii=radii, angular=angular
    )
    add(
        "probe koebe(theta=0) rejected by G(1)",
        (not probe.passed) and probe.worst_margin < 0.0,
        f"worst_margin={probe.worst_margin!r}",
    )
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(full=args.all)
    n_pass = sum(1 for c in checks if c["passed"])
    ok = n_pass == len(checks)
    payload = {
        "command": "verify",
        "full": bool(args.all),
        "checks": checks,
        "passed": n_pass,
        "failed": len(checks) - n_pass,
        "ok": ok,
    }
    lines = []
    for c in checks:
        if c["passed"]:
            lines.append(f"ok   {c['name']}")
        else:
            lines.append(f"FAIL {c['name']}: {c['detail']}")
    lines.append(f"passed {n_pass}/{len(checks)}")
    header = ["name", "passed", "detail"]
    rows = [[c["name"], c["passed"], c["detail"]] for c in checks]
    _emit(args, payload, lines, header, rows)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    spec = _class_spec(args)
    if args.samples is not None:
        res = search.bound_violation_scan(spec, samples=args.samples, seed=args.seed)
        payload = {"command": "scan"}
        payload.update(res.as_dict())
        lines = [
            f"class: {spec.label()}",
            f"samples = {res.samples}",
            f"seed = {res.seed}",
            f"violations = {res.violations}",
            f"min_delta = {res.min_delta!r}",
            f"max_delta = {res.max_delta!r}",
            f"result: {'PASS' if res.passed else 'FAIL'}",
        ]
        header = ["class", "samples", "seed", "violations", "min_delta", "max_delta", "passed"]
        rows = [
            [
                spec.label(),
                res.samples,
                res.seed,
                res.violations,
                res.min_delta,
                res.max_delta,
                res.passed,
            ]
        ]
        _emit(args, payload, lines, header, rows)
        return 0 if res.passed else 1

    resolution = args.resolution if args.resolution is not None else 200
    res = search.body_search(spec, resolution=resolution)
    pair = bounds.bound_delta(spec)
    payload = {"command": "search"}
    payload.update(res.as_dict())
    payload["bound_lower"] = pair.lower
    payload["bound_upper"] = pair.upper
    lines = [
        f"class: {spec.label()}",
        f"resolution = {res.resolution}",
        f"min_delta = {res.min_delta!r}",
        f"max_delta = {res.max_delta!r}",
        f"bound_lower = {pair.lower!r}",
        f"bound_upper = {pair.upper!r}",
        f"argmin: m1 = {res.argmin['m1']!r}, m2 = {res.argmin['m2']!r}, "
        f"phase = {res.argmin['phase']!r}",
        f"argmax: m1 = {res.argmax['m1']!r}, m2 = {res.argmax['m2']!r}, "
        f"phase = {res.argmax['phase']!r}",
        f"note: {res.note}",
    ]
    header = [
        "class",
        "resolution",
        "min_delta",
        "max_delta",
        "bound_lower",
        "bound_upper",
        "argmin_m1",
        "argmin_m2",
        "argmin_phase",
        "argmax_m1",
        "argmax_m2",
        "argmax_phase",
    ]
    rows = [
        [
            spec.label(),
            res.resolution,
            res.min_delta,
            res.max_delta,
            pair.lower,
            pair.upper,
            res.argmin["m1"],
            res.argmin["m2"],
            res.argmin["phase"],
            res.argmax["m1"],
            res.argmax["m2"],
            res.argmax["phase"],
        ]
    ]
    _emit(args, payload, lines, header, rows)
    return 0


def _class_param_grid(kind: str, step: float) -> list:
    if kind in ("U", "G"):
        return catalog.sweep_grid(0.0, 1.0, "(]", step)
    # M: cover [0, 3] and always include the branch point of the lower bound.
    return sorted(set(catalog.sweep_grid(0.0, 3.0, "[]", step) + [M_BRANCH_ALPHA]))


def _cmd_sweep(args) -> int:
    if (args.klass is None) == (args.function is None):
        raise ValueError("sweep needs exactly one of --class or --function")
    step = args.step if args.step is not None else 0.05
    if not 0.0 < step < math.inf:
        raise ValueError(f"--step must be positive and finite, got {step}")

    if args.klass is not None:
        kind = args.klass
        if kind == "S":
            raise ValueError("class S has no parameter to sweep; choose U, M, or G")
        resolution = args.resolution if args.resolution is not None else 64
        table = []
        for p in _class_param_grid(kind, step):
            spec = ClassSpec.of(kind, p)
            pair = bounds.bound_delta(spec)
            res = search.body_search(spec, resolution=resolution)
            table.append((p, pair.lower, pair.upper, res.min_delta, res.max_delta))
        header = ["param", "bound_lower", "bound_upper", "search_min", "search_max"]
        payload = {
            "command": "sweep",
            "mode": "class",
            "class": kind,
            "step": step,
            "resolution": resolution,
            "rows": [dict(zip(header, row)) for row in table],
        }
        lines = [f"sweep: class {kind} step={step!r} resolution={resolution}"]
    else:
        label = args.function
        theta_grid = (args.theta,) if args.theta is not None else (0.0,)
        family = catalog.FAMILIES.get(label)
        # family_sweep refuses a label that is not sweepable.
        params = catalog.sweep_grid(*family.sweep, step) if family and family.sweep else []
        sweep_rows = search.family_sweep(label, params, theta_grid=theta_grid)
        table = []
        for r in sweep_rows:
            lo = hi = None
            if family.kind is not None:
                pair = bounds.bound_delta(ClassSpec.of(family.kind, r.param))
                lo, hi = pair.lower, pair.upper
            table.append((r.param, r.delta_min, r.delta_max, lo, hi))
        header = ["param", "delta_min", "delta_max", "bound_lower", "bound_upper"]
        payload = {
            "command": "sweep",
            "mode": "function",
            "function": label,
            "step": step,
            "rows": [dict(zip(header, row)) for row in table],
        }
        lines = [f"sweep: function {label} step={step!r}"]

    lines.append("  ".join(header))
    for row in table:
        lines.append("  ".join(_cell(x) if x is not None else "-" for x in row))
    _emit(args, payload, lines, header, table)
    return 0


def _cmd_membership(args) -> int:
    f = _function_from_args(args)
    spec = _class_spec(args, shared=True)
    radii = _parse_radii(args.radii)
    rep = classes.membership_test(f, spec, radii=radii, angular=args.angular)
    payload = {"command": "membership", "params": dict(sorted(f.params.items()))}
    payload.update(rep.as_dict())
    lines = [
        f"class: {spec.label()}",
        f"function: {_desc(f)}",
        f"angular = {rep.angular}",
    ]
    for r, m in zip(rep.radii, rep.margin_by_radius):
        lines.append(f"margin[{r:g}] = {m!r}")
    lines += [
        f"worst_margin = {rep.worst_margin!r}",
        f"witness_re = {rep.witness.real!r}",
        f"witness_im = {rep.witness.imag!r}",
        f"skipped = {rep.skipped}",
        f"result: {'PASS' if rep.passed else 'FAIL'}",
    ]
    header = [
        "label",
        "class",
        "radius",
        "margin",
        "worst_margin",
        "witness_re",
        "witness_im",
        "skipped",
        "passed",
    ]
    rows = [
        [
            f.label,
            spec.label(),
            r,
            m,
            rep.worst_margin,
            rep.witness.real,
            rep.witness.imag,
            rep.skipped,
            rep.passed,
        ]
        for r, m in zip(rep.radii, rep.margin_by_radius)
    ]
    _emit(args, payload, lines, header, rows)
    return 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _add_class_flags(sp) -> None:
    sp.add_argument("--class", dest="klass", choices=("S", "U", "M", "G"))
    _add_param_flags(sp)


def _add_param_flags(sp) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, metavar="X")
    sp.add_argument("--alpha", type=float, metavar="X")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="logcoef",
        description="Logarithmic-coefficient functionals, bounds, and searches "
        "for classes of univalent functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gamma", help="log-coefficient pair and delta of a catalog function")
    sp.add_argument("--function", metavar="LABEL", help=", ".join(catalog.LABELS))
    sp.add_argument("--theta", type=float, default=0.0, metavar="X")
    _add_param_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("bounds", help="closed-form delta bounds for a class")
    _add_class_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("verify", help="deterministic check battery; exit 1 on any failure")
    sp.add_argument("--all", action="store_true", help="full catalog membership at radius 0.99")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search", help="body search (or randomized scan with --samples)")
    _add_class_flags(sp)
    sp.add_argument(
        "--resolution", type=int, metavar="R",
        help=f"guard-grid intervals in m1, 2 to {search.MAX_RESOLUTION}; extremes are "
        "exact at any value (default 200)",
    )
    sp.add_argument(
        "--samples", type=int, metavar="N",
        help=f"run a randomized scan of N samples instead, 1 to {search.MAX_SAMPLES}",
    )
    sp.add_argument("--seed", type=int, default=0, metavar="S")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("sweep", help="bound curves over a class parameter, or delta along a family")
    sp.add_argument("--class", dest="klass", choices=("S", "U", "M", "G"))
    sp.add_argument(
        "--function", metavar="LABEL",
        help=", ".join(label for label, family in catalog.FAMILIES.items() if family.sweep),
    )
    sp.add_argument("--step", type=float, metavar="X", help="parameter step (default 0.05)")
    sp.add_argument(
        "--resolution", type=int, metavar="R",
        help=f"per-row guard-grid intervals in m1, 2 to {search.MAX_RESOLUTION} (default 64)",
    )
    sp.add_argument("--theta", type=float, metavar="X")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("membership", help="polar-grid class membership test for one function")
    sp.add_argument("--function", metavar="LABEL", help=", ".join(catalog.LABELS))
    sp.add_argument("--theta", type=float, default=0.0, metavar="X")
    sp.add_argument("--class", dest="klass", choices=("S", "U", "M", "G"))
    _add_param_flags(sp)
    sp.add_argument("--radii", default="0.5,0.9,0.99", metavar="R1,R2,...")
    sp.add_argument(
        "--angular", type=int, default=256, metavar="K",
        help=f"samples per radius, 1 to {classes.MAX_ANGULAR} (default 256)",
    )
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_membership)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
