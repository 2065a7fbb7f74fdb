"""Command-line front end.

Subcommands: gamma (log-coefficient pair of a catalog function), bounds
(closed-form delta bounds for a class), verify (deterministic check battery),
search (body search or randomized scan), sweep (bound/search curves over a
parameter range, or delta along a catalog family), membership (polar-grid
class test for one function).

verify reads every delta it checks from one stacked gamma call on the rows of
the entries it builds, and every membership from one `classes.membership_tests`
call; each detail is what `functional.delta` on the entry alone, or
`membership_test` on the pair alone, gives.

Exit status: 0 on success, 1 when a check fails (membership failure, scan
violation, failed verify), 2 on usage errors including numeric flags that a
module rejects.

Output formats: text (human-readable key = value lines), json (one top-level
object on one line, keys sorted), csv (comma-separated, header row, LF
endings).  Text and csv read one record per output row, a dict from column to
value: the csv header is its keys, and each `key = value` text line renders
one of its fields.  Json serializes the report, built from the row where both
hold the same flat fields.  Floats are serialized with repr, so re-parsing
reproduces the in-memory doubles bit for bit; parameters and radii in labels
print in the same shortest form, with a trailing ".0" dropped.

The parser is built once per process: `build_parser` returns the same object
on every call and `main` parses with it, so an in-process caller of `main`
pays for one build, as a shell run does.  A line that starts with a
command's name is parsed by that command's own parser, which is all that the
top-level pass does with it, at more cost: a first parse of a `search` line
in a fresh process took 290-360 us through the top level and 150 us through
its own parser.  The top level serves help, a line with no command or an
unknown one, a leading option, and the error for leftover words.
Parsing never changes the parser.  Callers must not mutate it either (add an
argument, change a default): every later `main` call in the process would
see the change.

`main` freezes the garbage collector's heap on entry (`gc.freeze`) and
unfreezes it on every way out: a return, argparse's exit and any exception.
The objects that exist before the command (modules, functions, the parser, a
caller's objects) then sit in the permanent generation, so the collections a
command triggers scan only objects the command made.  Without it, a process
enters `main` with a few hundred young objects pending, and the command's
first collection escalates to generation 1 and rescans the several thousand
objects the imports left there: for a short command, a larger cost than most
of its own steps.  A caller that has frozen objects of its own
(`gc.get_freeze_count() > 0`) keeps its frozen set as it is: `main` then
neither freezes nor unfreezes.  An in-process caller's objects that were
young at entry go to the oldest generation on exit, as `gc.unfreeze` puts
every frozen object there.  No other module touches `gc`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import sys

import numpy as np

from . import bounds, catalog, classes, functional, search
from .bounds import M_BRANCH_ALPHA
from .classes import KINDS, ClassSpec, format_number


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
    import csv  # only a csv report needs it: the others skip its import and its objects

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(row[k]) for k in header])
    return buf.getvalue()


def _fields(row, *own) -> list:
    """`key = value` text lines for a row record, in its order.  Keys in `own`
    have a line of their own shape, and a None value prints no line."""
    return [f"{k} = {_cell(v)}" for k, v in row.items() if k not in own and v is not None]


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _desc(f) -> str:
    if not f.params:
        return f.label
    inner = ", ".join(f"{k}={format_number(v)}" for k, v in sorted(f.params.items()))
    return f"{f.label}({inner})"


def _emit(args, payload, text_lines, rows, header=None) -> None:
    """Write the report: json serializes `payload`, csv writes `rows` (dicts
    from column to value) under `header`, by default the first row's keys."""
    if args.format == "json":
        # No indent: an indented dump runs in Python, a flat one in json's C encoder.
        out = json.dumps(payload, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = _csv_text(list(rows[0]) if header is None else header, rows)
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from e
    else:
        sys.stdout.write(out)


# -- flag interpretation -----------------------------------------------------


# The parsed flag that carries the parameter of a class of each kind.
_PARAM_DEST = {"U": "lam", "M": "alpha", "G": "alpha"}


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
    return ClassSpec.of(kind, getattr(args, _PARAM_DEST[kind]))


def _function_from_args(args):
    """The --function entry.  Refuses a nonzero --theta that the entry does
    not take, and a --lambda or --alpha that neither the entry nor the
    --class under test reads."""
    label = getattr(args, "function", None)
    if label is None:
        raise ValueError("--function is required for this command")
    theta = getattr(args, "theta", 0.0) or 0.0
    family = catalog.FAMILIES.get(label)  # catalog.make refuses an unknown label
    if theta and family is not None and not family.rotated:
        raise ValueError(f"{label} takes no rotation; --theta must be 0, got {theta}")
    kind = getattr(args, "klass", None)
    if family is not None:
        read = {_PARAM_DEST.get(family.kind), _PARAM_DEST.get(kind)}
        for dest, flag in (("lam", "--lambda"), ("alpha", "--alpha")):
            value = getattr(args, dest, None)
            if value is not None and dest not in read:
                who = f"neither {label} nor class {kind} takes" if kind else f"{label} takes no"
                raise ValueError(f"{who} {flag}, got {value}")
    return catalog.make(
        label,
        theta=theta,
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
    row = {
        "function": f.label,
        "gamma1_re": pair.gamma1.real,
        "gamma1_im": pair.gamma1.imag,
        "gamma2_re": pair.gamma2.real,
        "gamma2_im": pair.gamma2.imag,
        "delta": pair.delta,
    }
    _emit(args, payload, [f"function: {_desc(f)}", *_fields(row, "function")], [row])
    return 0


def _cmd_bounds(args) -> int:
    spec = _class_spec(args)
    row = {"class": spec.label(), **bounds.bound_delta(spec).as_dict()}
    payload = {"command": "bounds", **row}
    _emit(args, payload, [f"class: {row['class']}", *_fields(row, "class")], [row])
    return 0


# The class instances at which verify checks every witness that bound_delta
# names against the side it attains.
_WITNESS_MESH = (
    ClassSpec("S"),
    *(ClassSpec("U", lam=x) for x in (0.1, 0.25, 0.5, 0.75, 1.0)),
    *(ClassSpec("M", alpha=x) for x in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)),
    *(ClassSpec("G", alpha=x) for x in (0.25, 0.5, 0.75, 1.0)),
)


def _verify_checks(full: bool):
    checks = []

    def add(name: str, passed, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    pairs = {spec: bounds.bound_delta(spec) for spec in _WITNESS_MESH}
    koebe = catalog.koebe(0.0)
    # Members that attain no bound: a known delta, inside the bounds.
    known = (
        (koebe, -0.5, ClassSpec("S")),
        (catalog.g_quadratic(), -3.0 / 16.0, ClassSpec("G", alpha=1.0)),
    )
    witnesses = [(spec, side, getattr(pair, f"{side}_witness"), getattr(pair, side))
                 for spec, pair in pairs.items()
                 for side in ("lower", "upper") if getattr(pair, f"{side}_witness")]
    # Every delta from one stacked gamma call on the rows of the built entries,
    # each with the bits of functional.delta on its entry alone.
    entries = [f for f, _, _ in known]
    entries += [catalog.make(label, lam=spec.lam, alpha=spec.alpha)
                for spec, _, label, _ in witnesses]
    gammas = functional._stacked_log_coefficients(
        catalog._stack_rows([f.row for f in entries]), 2, lambda k: functional._named(entries[k]))
    deltas = [functional.LogPair(*pair).delta for pair in gammas.tolist()]
    for (f, expected, spec), d in zip(known, deltas):
        pair = pairs[spec]
        ok = abs(d - expected) <= 1e-10 and pair.lower - 1e-10 <= d <= pair.upper + 1e-10
        add(f"delta {_desc(f)}", ok, f"delta={d!r} expected={expected!r} bounds={spec.label()}")
    n = len(known)
    for (spec, side, _, bound), f, d in zip(witnesses, entries[n:], deltas[n:]):
        add(f"{spec.label()} {side} witness {_desc(f)}", abs(d - bound) <= 1e-12,
            f"delta={d!r} bound={bound!r}")

    for alpha in (0.5, 1.0, 2.0, 5.0):
        a2 = catalog.k_theta_alpha(0.0, alpha).a(2)
        add(
            f"series a2 k_theta_alpha(alpha={format_number(alpha)})",
            abs(a2 - 2.0 / (1.0 + alpha)) <= 1e-12,
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
    s_pair, m0 = pairs[ClassSpec("S")], pairs[ClassSpec("M", alpha=0.0)]
    add(
        "M(0) bounds equal S bounds",
        abs(m0.lower - s_pair.lower) <= 1e-12 and abs(m0.upper - s_pair.upper) <= 1e-12,
        f"M0=({m0.lower!r},{m0.upper!r}) S=({s_pair.lower!r},{s_pair.upper!r})",
    )
    m1 = pairs[ClassSpec("M", alpha=1.0)]
    add(
        "M(1) bounds",
        abs(m1.lower + 1.0 / math.sqrt(10.0)) <= 1e-12 and abs(m1.upper - 1.0 / 6.0) <= 1e-12,
        f"({m1.lower!r},{m1.upper!r})",
    )
    g1 = pairs[ClassSpec("G", alpha=1.0)]
    add(
        "G(1) bounds",
        abs(g1.lower + 4.0 / 21.0) <= 1e-12 and abs(g1.upper - 1.0 / 12.0) <= 1e-12,
        f"({g1.lower!r},{g1.upper!r})",
    )

    # Every membership, and the probe last, in one stacked reduction.
    tests = [*classes.asserted_memberships(), (koebe, ClassSpec("G", alpha=1.0))]
    radii = (0.5, 0.9, 0.99) if full else (0.5, 0.9)
    *reports, probe = classes.membership_tests(tests, radii, 256 if full else 128)
    for (f, spec), rep in zip(tests, reports):
        add(f"membership {_desc(f)} in {spec.label()}", rep.passed,
            f"worst_margin={rep.worst_margin!r}")
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
    _emit(args, payload, lines, checks)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    spec = _class_spec(args)
    if args.samples is not None:
        res = search.bound_violation_scan(spec, samples=args.samples, seed=args.seed or 0)
        row = res.as_dict()
        lines = [
            f"class: {row['class']}",
            *_fields(row, "class", "passed"),
            f"result: {'PASS' if res.passed else 'FAIL'}",
        ]
        _emit(args, {"command": "scan", **row}, lines, [row])
        return 0 if res.passed else 1

    if args.seed is not None:
        raise ValueError("--seed is read only by a scan; add --samples")
    res = search.body_search(spec)
    pair = bounds.bound_delta(spec)
    row = {
        "class": spec.label(),
        "min_delta": res.min_delta,
        "max_delta": res.max_delta,
        "bound_lower": pair.lower,
        "bound_upper": pair.upper,
    }
    payload = {"command": "search", **res.as_dict(), **row}
    points = {"argmin": res.argmin, "argmax": res.argmax}
    lines = [
        f"class: {row['class']}",
        *_fields(row, "class"),
        *(f"{side}: {', '.join(_fields(point))}" for side, point in points.items()),
        f"note: {res.note}",
    ]
    coords = {f"{side}_{k}": v for side, point in points.items() for k, v in point.items()}
    _emit(args, payload, lines, [{**row, **coords}])
    return 0


def _class_param_grid(kind: str, step: float) -> list:
    if kind in ("U", "G"):
        return catalog.sweep_grid(0.0, 1.0, "(]", step)
    # M: cover [0, 3] and always include the branch point of the lower bound.
    return sorted(set(catalog.sweep_grid(0.0, 3.0, "[]", step) + [M_BRANCH_ALPHA]))


def _cmd_sweep(args) -> int:
    if (args.klass is None) == (args.function is None):
        raise ValueError("sweep needs exactly one of --class or --function")
    step = args.step  # catalog.sweep_grid refuses a step it cannot walk

    if args.klass is not None:
        kind = args.klass
        if kind == "S":
            raise ValueError("class S has no parameter to sweep; choose U, M, or G")
        grid = _class_param_grid(kind, step)
        results = [search.body_search(ClassSpec.of(kind, p)) for p in grid]
        lower, upper = (x.tolist() for x in bounds.bound_table(kind, np.array(grid)))
        table = [(p, lo, hi, res.min_delta, res.max_delta)
                 for p, lo, hi, res in zip(grid, lower, upper, results)]
        header = ["param", "bound_lower", "bound_upper", "search_min", "search_max"]
        payload = {
            "command": "sweep",
            "mode": "class",
            "class": kind,
            "step": step,
            "rows": [dict(zip(header, row)) for row in table],
        }
        title = f"sweep: class {kind} step={step!r}"
    else:
        label = args.function
        family = catalog.FAMILIES.get(label)
        # family_sweep refuses a label that is not sweepable.
        params = catalog.sweep_grid(*family.sweep, step) if family and family.sweep else []
        rows = search.family_sweep(label, params)
        lower = upper = [None] * len(rows)
        if family.kind is not None:
            lower, upper = (x.tolist() for x in bounds.bound_table(family.kind, np.array(params)))
        # One delta fills both columns, since bench/reference.py and users
        # read delta_min and delta_max.
        table = [(r.param, r.delta, r.delta, lo, hi) for r, lo, hi in zip(rows, lower, upper)]
        header = ["param", "delta_min", "delta_max", "bound_lower", "bound_upper"]
        payload = {
            "command": "sweep",
            "mode": "function",
            "function": label,
            "step": step,
            "rows": [dict(zip(header, row)) for row in table],
        }
        title = f"sweep: function {label} step={step!r}"

    lines = []
    if args.format == "text":  # json and csv never read the formatted table
        lines = [title, "  ".join(header)]
        lines += ["  ".join(_cell(x) if x is not None else "-" for x in row) for row in table]
    _emit(args, payload, lines, payload["rows"], header)
    return 0


def _cmd_membership(args) -> int:
    f = _function_from_args(args)
    spec = _class_spec(args, shared=True)
    radii = _parse_radii(args.radii)
    rep = classes.membership_test(f, spec, radii=radii, angular=args.angular)
    payload = {"command": "membership", "params": dict(sorted(f.params.items())), **rep.as_dict()}
    summary = {
        "worst_margin": rep.worst_margin,
        "witness_re": rep.witness.real,
        "witness_im": rep.witness.imag,
        "skipped": rep.skipped,
    }
    rows = [
        {
            "label": f.label,
            "class": spec.label(),
            "radius": r,
            "margin": m,
            **summary,
            "passed": rep.passed,
        }
        for r, m in zip(rep.radii, rep.margin_by_radius)
    ]
    lines = [
        f"class: {spec.label()}",
        f"function: {_desc(f)}",
        *_fields({"angular": rep.angular}),
        *(f"margin[{format_number(row['radius'])}] = {_cell(row['margin'])}" for row in rows),
        *_fields(summary),
        f"result: {'PASS' if rep.passed else 'FAIL'}",
    ]
    _emit(args, payload, lines, rows)
    return 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _add_class_flags(sp) -> None:
    sp.add_argument("--class", dest="klass", choices=KINDS)
    _add_param_flags(sp)


def _add_param_flags(sp) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, metavar="X")
    sp.add_argument("--alpha", type=float, metavar="X")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Every call returns the same object: `main` parses a command's line with
    its subparser, and the top level serves help and errors.  Callers
    must not mutate it: a change would reach every later call.  argparse
    reads the terminal width (COLUMNS) when it formats help, not here, so a
    width set after the build still applies.
    """
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
    # --resolution is read by nothing: it still parses, so that command lines
    # written for the grid the search no longer evaluates keep working, and
    # it still conflicts with --samples.  The default is None so that
    # argparse sees every explicit --resolution as a conflict.
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument(
        "--resolution", type=int, metavar="R",
        help="ignored: the search evaluates delta at three closed-form m1 per class, "
        "both endpoints and one clipped vertex, so it has no grid to size",
    )
    mode.add_argument(
        "--samples", type=int, metavar="N",
        help=f"run a randomized scan of N samples instead, 1 to {search.MAX_SAMPLES}",
    )
    # A body search draws nothing.  The default is None so that it can refuse
    # every explicit --seed, also --seed 0; a scan reads None as seed 0.
    sp.add_argument(
        "--seed", type=int, metavar="S", help="scan seed, 0 to 2**64 - 1 (default 0)",
    )
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("sweep", help="bound curves over a class parameter, or delta along a family")
    sp.add_argument("--class", dest="klass", choices=KINDS)
    sp.add_argument(
        "--function", metavar="LABEL",
        help=", ".join(label for label, family in catalog.FAMILIES.items() if family.sweep),
    )
    sp.add_argument(
        "--step", type=float, default=0.05, metavar="X",
        help="parameter step (default %(default)s)",
    )
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("membership", help="polar-grid class membership test for one function")
    sp.add_argument("--function", metavar="LABEL", help=", ".join(catalog.LABELS))
    sp.add_argument("--theta", type=float, default=0.0, metavar="X")
    sp.add_argument("--class", dest="klass", choices=KINDS)
    _add_param_flags(sp)
    sp.add_argument("--radii", default="0.5,0.9,0.99", metavar="R1,R2,...")
    sp.add_argument(
        "--angular", type=int, default=256, metavar="K",
        help=f"samples per radius, 1 to {classes.MAX_ANGULAR} (default 256)",
    )
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_membership)

    return p


def _parse(argv):
    """`build_parser().parse_args(argv)`, with a line that starts with a
    command's name parsed by that command's own parser."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    command, *words = argv
    args, extras = commands[command].parse_known_args(words, argparse.Namespace(command=command))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return the exit
    status.  Parses with the shared parser of `build_parser`, with the heap it
    starts with frozen (see the module docstring)."""
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        try:
            args = _parse(argv)
        except SystemExit as e:
            code = e.code
            if code is None:
                return 0
            return code if isinstance(code, int) else 2
        try:
            # Every command that takes --theta refuses a non-finite one, also
            # where the entry does not read it.
            theta = getattr(args, "theta", None)
            if theta is not None and not math.isfinite(theta):
                raise ValueError(f"theta must be finite, got {theta}")
            return args.func(args)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    raise SystemExit(main())
