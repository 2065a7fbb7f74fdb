"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and the exact bytes on
stdout are both observable.  Numeric output is round-tripped with float() to
confirm the repr serialization reproduces the in-memory doubles.
"""

import argparse
import csv
import dataclasses
import gc
import importlib.util
import io
import json
import math
import re
import types
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from logcoef import bounds, catalog, classes, cli, functional, search
from logcoef.bounds import M_BRANCH_ALPHA, bound_delta
from logcoef.catalog import f4, f5
from logcoef.classes import ClassSpec, asserted_memberships, membership_test
from logcoef.cli import build_parser, main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def value(text):
    """A text or csv cell parsed back: None for an empty cell, else bool, int, float or str."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def json_field(doc, key):
    """doc[key], or doc[a][b] for a column a_b that json nests; None when absent."""
    if key in doc or "_" not in key:
        return doc.get(key)
    outer, inner = key.rsplit("_", 1)
    return doc[outer][inner]


def key_values(text):
    """`key = value` pairs of a line such as "m1 = 0.5, m2 = 0.0"."""
    return dict(part.split(" = ") for part in text.split(", "))


class TestFormatsAgree:
    """Every `key = value` text line, every csv cell and the matching json
    field of one run parse to the same value."""

    def three(self, run, argv, code):
        outs = {}
        for fmt in ("text", "json", "csv"):
            got, out, err = run(*argv, "--format", fmt)
            assert (got, err) == (code, "")
            outs[fmt] = out
        header, cells = parse_csv(outs["csv"])
        rows = [dict(zip(header, r)) for r in cells]
        return outs["text"].splitlines(), rows, json.loads(outs["json"])

    def check(self, lines, rows, doc, own=()):
        pattern = re.compile(r"(\w+) = (.*)")
        fields = dict(m.groups() for m in map(pattern.fullmatch, lines) if m)
        assert fields
        for key, text in fields.items():
            assert value(text) == json_field(doc, key), key
            for row in rows:
                if key in row:
                    assert row[key] == text, key
        assert rows
        for row in rows:
            for key, cell in row.items():
                if key not in own:
                    assert value(cell) == json_field(doc, key), key

    @pytest.mark.parametrize("argv", [
        ("gamma", "--function", "f5", "--lambda", "0.3"),
        ("gamma", "--function", "k_theta_alpha", "--alpha", "0.7", "--theta", "0.4"),
    ])
    def test_gamma(self, run, argv):
        lines, rows, doc = self.three(run, argv, 0)
        self.check(lines, rows, doc)
        assert lines[0].startswith(f"function: {doc['function']}(")

    @pytest.mark.parametrize("klass", [("S",), ("U", "--lambda", "0.3"), ("G", "--alpha", "1")])
    def test_bounds(self, run, klass):
        lines, rows, doc = self.three(run, ("bounds", "--class", *klass), 0)
        self.check(lines, rows, doc)
        assert lines[0] == f"class: {doc['class']}" == f"class: {rows[0]['class']}"

    def test_body_search(self, run):
        argv = ("search", "--class", "M", "--alpha", "2.5")
        lines, rows, doc = self.three(run, argv, 0)
        self.check(lines, rows, doc)
        assert lines[0] == f"class: {doc['class']}"
        assert lines[-1] == f"note: {doc['note']}"
        for side in ("argmin", "argmax"):
            line = next(x for x in lines if x.startswith(f"{side}: "))
            pairs = key_values(line[len(side) + 2 :])
            assert list(pairs) == ["m1", "m2", "phase"]
            for coord, text in pairs.items():
                assert rows[0][f"{side}_{coord}"] == text
                assert float(text) == doc[side][coord]

    def test_scan(self, run):
        argv = ("search", "--class", "G", "--alpha", "0.5", "--samples", "3000", "--seed", "5")
        lines, rows, doc = self.three(run, argv, 0)
        self.check(lines, rows, doc)
        assert lines[-1] == "result: PASS"

    def test_failing_membership(self, run):
        argv = (
            "membership", "--function", "koebe", "--class", "G", "--alpha", "1",
            "--radii", "0.5,0.9", "--angular", "64",
        )
        lines, rows, doc = self.three(run, argv, 1)
        self.check(lines, rows, doc, own=("radius", "margin"))
        assert lines[0] == f"class: {rows[0]['class']}" == "class: G(1)"
        margins = [x for x in lines if x.startswith("margin[")]
        assert len(margins) == len(rows) == len(doc["margin_by_radius"]) == 2
        for line, row, entry in zip(margins, rows, doc["margin_by_radius"]):
            assert line == f"margin[{row['radius']}] = {row['margin']}"
            assert (float(row["radius"]), float(row["margin"])) == (
                entry["radius"], entry["margin"]
            )
        assert lines[-1] == "result: FAIL"

    def test_empty_sweep_csv_is_header_only(self, run):
        code, out, err = run("sweep", "--function", "f3", "--step", "2", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "param,delta_min,delta_max,bound_lower,bound_upper\n"


class TestGamma:
    def test_text_output(self, run):
        code, out, err = run("gamma", "--function", "f4", "--lambda", "0.5")
        assert code == 0
        assert err == ""
        assert "function: f4(lam=0.5)" in out
        assert "gamma1_re = 0.5" in out
        assert "gamma2_re = 0.0" in out
        assert "delta = -0.5" in out

    def test_json_round_trip(self, run):
        code, out, _ = run("gamma", "--function", "f4", "--lambda", "0.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "gamma"
        assert doc["function"] == "f4"
        assert doc["delta"] == functional.delta(f4(0.5))
        assert doc["gamma1"]["re"] == 0.5

    def test_csv_round_trip(self, run):
        code, out, _ = run("gamma", "--function", "f5", "--lambda", "0.3", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["function", "gamma1_re", "gamma1_im", "gamma2_re", "gamma2_im", "delta"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        want = functional.log_pair(f5(0.3))
        assert float(row["gamma1_re"]) == want.gamma1.real
        assert float(row["gamma2_re"]) == want.gamma2.real
        assert float(row["delta"]) == want.delta

    def test_rotated_function(self, run):
        code, out, _ = run(
            "gamma", "--function", "f3", "--lambda", "0.5", "--theta", "0.7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["theta"] == 0.7
        # delta is rotation invariant
        assert doc["delta"] == pytest.approx(0.25, abs=1e-12)

    def test_parameters_print_in_full(self, run):
        code, out, _ = run(
            "gamma", "--function", "f3", "--lambda", "0.123456789", "--theta", "1e-7",
        )
        assert code == 0
        assert "function: f3(lam=0.123456789, theta=1e-07)" in out

    def test_missing_parameter_is_usage_error(self, run):
        code, out, err = run("gamma", "--function", "f3")
        assert code == 2
        assert out == ""
        assert "error: f3 requires lambda" in err

    @pytest.mark.parametrize("argv, message", [
        (("--function", "f3", "--lambda", "1.5"), "U requires 0 < lambda <= 1, got 1.5"),
        (("--function", "k_theta_alpha", "--alpha", "-1"), "M requires alpha >= 0, got -1.0"),
        (("--function", "m_alpha_upper", "--alpha", "-1"), "M requires alpha >= 0, got -1.0"),
        (("--function", "g_alpha_upper", "--alpha", "1.5"), "G requires 0 < alpha <= 1, got 1.5"),
    ])
    def test_parameter_outside_the_class_is_usage_error(self, run, argv, message):
        code, out, err = run("gamma", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("alpha", ["1e-11", "1e-8"])
    def test_small_alpha_prints_the_exact_delta(self, run, alpha):
        # delta = -(3 a^2 + 2 a + 1) / (2 (1 + 2 a) (1 + a)^2), here in exact
        # rational arithmetic at the float alpha.
        a = Fraction(float(alpha))
        want = float(-(3 * a * a + 2 * a + 1) / (2 * (1 + 2 * a) * (1 + a) ** 2))
        code, out, err = run("gamma", "--function", "k_theta_alpha", "--alpha", alpha)
        assert code == 0 and err == ""
        (got,) = re.findall(r"^delta = (\S+)$", out, re.M)
        assert abs(float(got) - want) <= 4e-16

    @pytest.mark.parametrize("label", ["k_theta_alpha", "m_alpha_upper"])
    def test_underflowing_row_is_usage_error(self, run, label):
        code, out, err = run("gamma", "--function", label, "--alpha", "1e200")
        assert code == 2
        assert out == ""
        assert "underflow" in err

    @pytest.mark.parametrize("alpha", ["5e-324", "7e-324"])
    def test_vanished_g_power_is_usage_error(self, run, alpha):
        # alpha/2 underflows to 0 here; gamma_2 and delta would read 0.0.
        code, out, err = run("gamma", "--function", "g_alpha_upper", "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert "the row's terms underflow" in err

    def test_k_at_alpha_zero_keeps_its_label(self, run):
        code, out, _ = run("gamma", "--function", "k_theta_alpha", "--alpha", "0", "--theta", "0.3")
        assert code == 0
        assert "function: k_theta_alpha(alpha=0, theta=0.3)" in out

    def test_unknown_function(self, run):
        code, _, err = run("gamma", "--function", "zeta")
        assert code == 2
        assert "unknown function" in err

    @pytest.mark.parametrize("argv", [
        ("--function", "f3", "--lambda", "0.5", "--theta", "nan"),
        ("--function", "k_theta_alpha", "--alpha", "1", "--theta", "nan"),
    ])
    def test_non_finite_theta_is_usage_error(self, run, argv):
        code, out, err = run("gamma", *argv)
        assert code == 2
        assert out == ""
        assert "error: theta must be finite, got nan" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--function", "koebe", "--step", "3"),
    ("sweep", "--function", "f4", "--step", "0.3"),
    ("gamma", "--function", "f4", "--lambda", "0.7"),
    ("membership", "--function", "f4", "--lambda", "0.7", "--class", "U"),
])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_refused_where_it_is_not_read(run, argv, theta):
    # f4 takes no theta, and sweep takes no --theta at all.
    code, out, err = run(*argv, f"--theta={theta}")
    assert code == 2
    assert out == ""
    if argv[0] == "sweep":
        assert f"unrecognized arguments: --theta={theta}" in err
    else:
        assert f"error: theta must be finite, got {theta}" in err


# Each catalog entry without a rotation: its parameter flags, and the class
# flags of a class it belongs to.
UNROTATED = {
    "f4": (("--lambda", "0.7"), ("--class", "U")),
    "f5": (("--lambda", "0.3"), ("--class", "U")),
    "m_alpha_upper": (("--alpha", "0.5"), ("--class", "M")),
    "g_alpha_upper": (("--alpha", "0.5"), ("--class", "G")),
    "g_quadratic": ((), ("--class", "G", "--alpha", "1")),
}


def _theta_argv(command, label):
    params, klass = UNROTATED[label]
    if command == "gamma":
        return ("gamma", "--function", label, *params)
    return ("membership", "--function", label, *params, *klass, "--radii", "0.5", "--angular", "16")


def test_unrotated_lists_every_entry_without_rotation():
    assert sorted(UNROTATED) == sorted(k for k, f in catalog.FAMILIES.items() if not f.rotated)


@pytest.mark.parametrize("command", ["gamma", "membership"])
@pytest.mark.parametrize("label", sorted(UNROTATED))
def test_nonzero_theta_is_refused_where_it_is_not_read(run, command, label):
    argv = _theta_argv(command, label)
    assert run(*argv)[0] == 0
    code, out, err = run(*argv, "--theta", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {label} takes no rotation; --theta must be 0, got 1.0\n"


@pytest.mark.parametrize("command", ["gamma", "membership"])
@pytest.mark.parametrize("theta", ["0", "0.0", "-0.0"])
def test_zero_theta_is_accepted_where_it_is_not_read(run, command, theta):
    for label in UNROTATED:
        argv = _theta_argv(command, label)
        assert run(*argv, "--theta", theta) == run(*argv)


@pytest.mark.parametrize("argv", [
    ("bounds", "--class", "M"),
    ("gamma", "--function", "k_theta_alpha"),
    ("gamma", "--function", "m_alpha_upper"),
], ids=["bounds", "gamma_k_theta_alpha", "gamma_m_alpha_upper"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_zero_alpha_reports_zero(run, argv, fmt):
    # -0.0 is the class parameter 0: every report of it is the one of 0.
    got = run(*argv, "--alpha", "-0", "--format", fmt)
    assert got == run(*argv, "--alpha", "0", "--format", fmt)
    assert got[0] == 0 and not re.search(r"-0(\.0)?(?![.\d])", got[1])


@pytest.mark.parametrize("argv, message", [
    (("gamma", "--function", "koebe", "--alpha", "5", "--lambda", "0.3"),
     "koebe takes no --lambda, got 0.3"),
    (("gamma", "--function", "f4", "--lambda", "0.7", "--alpha", "2"),
     "f4 takes no --alpha, got 2.0"),
    (("gamma", "--function", "k_theta_alpha", "--alpha", "0.5", "--lambda", "0.3"),
     "k_theta_alpha takes no --lambda, got 0.3"),
    (("gamma", "--function", "g_quadratic", "--alpha", "1"), "g_quadratic takes no --alpha, got 1.0"),
    (("membership", "--function", "koebe", "--class", "S", "--alpha", "1"),
     "neither koebe nor class S takes --alpha, got 1.0"),
    (("membership", "--function", "f4", "--class", "U", "--lambda", "0.7", "--alpha", "2"),
     "neither f4 nor class U takes --alpha, got 2.0"),
    (("membership", "--function", "m_alpha_upper", "--class", "M", "--alpha", "0.5",
      "--lambda", "0.3"), "neither m_alpha_upper nor class M takes --lambda, got 0.3"),
])
def test_parameter_flag_that_nothing_reads_is_refused(run, argv, message):
    assert run(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("membership", "--function", "koebe", "--class", "G", "--alpha", "1"),
    ("membership", "--function", "f3", "--class", "M", "--alpha", "0.5", "--lambda", "0.3"),
    ("membership", "--function", "k_theta_alpha", "--class", "U", "--lambda", "0.5",
     "--alpha", "0.3"),
])
def test_parameter_flag_that_the_class_reads_is_accepted(run, argv):
    code, out, err = run(*argv, "--radii", "0.5", "--angular", "8")
    assert code in (0, 1) and out and err == ""


def _benchmark_jobs(monkeypatch):
    """The job lists of the benchmark's workloads, under seeds 1 to 5."""
    root = Path(cli.__file__).resolve().parents[2] / "bench"
    monkeypatch.syspath_prepend(str(root))  # workloads imports reference
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [job for workload in workloads.WORKLOADS for seed in range(1, 6)
            for job in workloads.jobs_for(workload, seed)]


def test_every_benchmark_argv_is_accepted(monkeypatch):
    # The benchmark's workloads name their flags per job; none may hit a
    # refusal of the flags alone.
    seen = set()
    for job in _benchmark_jobs(monkeypatch):
        args = build_parser().parse_args(job["argv"])
        if args.command in ("gamma", "membership"):
            cli._function_from_args(args)
            seen.add(args.command)
        if args.command == "membership":
            cli._class_spec(args, shared=True)
        if args.command == "search":
            cli._class_spec(args)
            seen.add(args.command)
    assert seen == {"gamma", "membership", "search"}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_benchmark_search_resolution_is_inert(run, monkeypatch, fmt):
    # The benchmark's body searches pass --resolution, which the search
    # ignores: each prints, byte for byte, what it prints without the flag.
    argvs = {tuple(job["argv"]) for job in _benchmark_jobs(monkeypatch)
             if job["argv"][0] == "search" and "--resolution" in job["argv"]}
    assert len(argvs) == 16
    for argv in sorted(argvs):
        i = argv.index("--resolution")
        bare = argv[:i] + argv[i + 2:]
        with_flag = run(*argv, "--format", fmt)
        assert with_flag[0] == 0 and with_flag == run(*bare, "--format", fmt), argv


@pytest.mark.parametrize("argv, message", [
    (("bounds",), "--class is required for this command"),
    (("gamma",), "--function is required for this command"),
    (("membership", "--function", "f1", "--class", "S"),
     "class S has no pointwise membership criterion"),
    (("membership", "--function", "f1", "--class", "M", "--alpha", "0", "--radii", ","),
     "--radii expects at least one radius"),
])
def test_missing_or_unusable_input_is_refused(run, argv, message):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [
    ("gamma", "--function", "k_theta_alpha", "--alpha", "0.7"),
    ("sweep", "--function", "k_theta_alpha"),
    ("membership", "--function", "k_theta_alpha", "--alpha", "0.7", "--class", "M"),
])
def test_order_flag_is_gone(run, argv):
    code, out, err = run(*argv, "--order", "64")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --order 64" in err


class TestBounds:
    def test_text_example(self, run):
        code, out, _ = run("bounds", "--class", "M", "--alpha", "1")
        assert code == 0
        assert "class: M(1)" in out
        assert f"lower = {-1.0 / math.sqrt(10.0)!r}" in out
        assert f"upper = {1.0 / 6.0!r}" in out
        assert "upper_sharp = true" in out
        assert "lower_sharp = false" in out

    def test_json_matches_library(self, run):
        code, out, _ = run("bounds", "--class", "U", "--lambda", "0.8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        pair = bound_delta(ClassSpec("U", lam=0.8))
        assert doc["lower"] == pair.lower
        assert doc["upper"] == pair.upper
        assert doc["lower_witness"] == "f4"

    def test_csv_booleans(self, run):
        code, out, _ = run("bounds", "--class", "S", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["class"] == "S"
        assert row["lower_sharp"] == "true"
        assert float(row["lower"]) == -0.5 * math.sqrt(2.0)

    def test_class_label_prints_parameter_in_full(self, run):
        code, out, _ = run("bounds", "--class", "G", "--alpha", "0.123456789", "--format", "json")
        assert code == 0
        assert json.loads(out)["class"] == "G(0.123456789)"

    def test_missing_class_parameter(self, run):
        code, _, err = run("bounds", "--class", "U")
        assert code == 2
        assert "error:" in err

    def test_non_finite_parameter_is_usage_error(self, run):
        code, out, err = run("bounds", "--class", "M", "--alpha", "inf")
        assert code == 2
        assert out == ""
        assert "error: alpha must be finite, got inf" in err

    def test_cross_parameter_rejected(self, run):
        code, _, err = run("bounds", "--class", "M", "--lambda", "0.5", "--alpha", "1")
        assert code == 2
        assert "not lambda" in err

    def test_overflowing_bound_is_usage_error(self, run):
        # The large-alpha lower bound's denominator overflows past alpha ~ 2.2e307,
        # which would print a false -0.0.
        code, out, err = run("bounds", "--class", "M", "--alpha", "1e308")
        assert code == 2
        assert out == ""
        assert err == "error: m_lower_large_alpha overflows at alpha = 1e+308\n"

    def test_large_alpha_bound_stays_finite(self, run):
        code, out, _ = run("bounds", "--class", "M", "--alpha", "1e105", "--format", "json")
        assert code == 0
        assert json.loads(out)["lower"] == pytest.approx(-7.5e-106, rel=1e-12)


class TestVerify:
    def test_quick_battery_passes(self, run):
        code, out, _ = run("verify")
        assert code == 0
        assert "passed 54/54" in out
        assert "FAIL" not in out

    def test_output_is_deterministic(self, run):
        _, first, _ = run("verify", "--format", "json")
        _, second, _ = run("verify", "--format", "json")
        assert first == second

    def test_csv_shape(self, run):
        code, out, _ = run("verify", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["name", "passed", "detail"]
        assert len(rows) == 54
        assert all(r[1] == "true" for r in rows)


    # The class instances verify checks witnesses at: S and criterion 5's mesh.
    WITNESS_MESH = (
        [("S", None)]
        + [("U", x) for x in (0.1, 0.25, 0.5, 0.75, 1.0)]
        + [("M", x) for x in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)]
        + [("G", x) for x in (0.25, 0.5, 0.75, 1.0)]
    )

    def test_one_row_per_named_witness(self, run):
        code, out, _ = run("verify", "--format", "json")
        assert code == 0
        rows = [c for c in json.loads(out)["checks"] if " witness " in c["name"]]
        expected = []
        for kind, param in self.WITNESS_MESH:
            spec = ClassSpec("S") if kind == "S" else ClassSpec.of(kind, param)
            pair = bound_delta(spec)
            for side in ("lower", "upper"):
                label = getattr(pair, f"{side}_witness")
                if label is not None:
                    expected.append((spec.label(), side, label))
        got = [(name.split()[0], name.split()[1], name.split()[3].split("(")[0])
               for name in (r["name"] for r in rows)]
        assert got == expected
        for r in rows:
            d, bound = (float(v.split("=")[1]) for v in r["detail"].split())
            assert r["passed"] and abs(d - bound) <= 1e-12

    @pytest.mark.parametrize("flags", [(), ("--all",)], ids=["quick", "all"])
    def test_details_match_the_per_entry_route(self, run, flags):
        # verify reads every delta from one stacked gamma call and every
        # membership from one stacked reduction; each check keeps its name, its
        # place, and the detail that functional.delta on its entry alone, or
        # membership_test on its pair alone, gives.
        code, out, _ = run("verify", *flags, "--format", "json")
        assert code == 0
        checks = [(c["name"], c["passed"], c["detail"]) for c in json.loads(out)["checks"]]
        known = []
        for f, expected, spec in ((catalog.koebe(0.0), -0.5, ClassSpec("S")),
                                  (catalog.g_quadratic(), -3.0 / 16.0, ClassSpec("G", alpha=1.0))):
            d = functional.delta(f)
            known.append((f"delta {cli._desc(f)}", True,
                          f"delta={d!r} expected={expected!r} bounds={spec.label()}"))
        witnesses = []
        for kind, param in self.WITNESS_MESH:
            spec = ClassSpec("S") if kind == "S" else ClassSpec.of(kind, param)
            pair = bound_delta(spec)
            for side in ("lower", "upper"):
                label = getattr(pair, f"{side}_witness")
                if label is not None:
                    f = catalog.make(label, lam=spec.lam, alpha=spec.alpha)
                    d = functional.delta(f)
                    witnesses.append((f"{spec.label()} {side} witness {cli._desc(f)}", True,
                                      f"delta={d!r} bound={getattr(pair, side)!r}"))
        radii, angular = ((0.5, 0.9, 0.99), 256) if flags else ((0.5, 0.9), 128)
        members = []
        for f, spec in asserted_memberships():
            rep = membership_test(f, spec, radii=radii, angular=angular)
            members.append((f"membership {cli._desc(f)} in {spec.label()}", rep.passed,
                            f"worst_margin={rep.worst_margin!r}"))
        probe = membership_test(catalog.koebe(0.0), ClassSpec("G", alpha=1.0),
                                radii=radii, angular=angular)
        members.append(("probe koebe(theta=0) rejected by G(1)", not probe.passed,
                        f"worst_margin={probe.worst_margin!r}"))
        assert (len(known), len(witnesses), len(members)) == (2, 22, 21)
        assert checks[:24] == known + witnesses
        assert checks[24][0].startswith("series a2 ")
        assert checks[-21:] == members

    def test_wrong_witness_fails_only_its_rows(self, run, monkeypatch):
        real = bounds.bound_delta

        def f3_as_u_lower(spec):
            pair = real(spec)
            return dataclasses.replace(pair, lower_witness="f3") if spec.kind == "U" else pair

        monkeypatch.setattr(bounds, "bound_delta", f3_as_u_lower)
        code, out, _ = run("verify", "--format", "json")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        lams = ("0.1", "0.25", "0.5", "0.75", "1")
        assert failed == [f"U({x}) lower witness f3(lam={x}, theta=0)" for x in lams]


class TestSearch:
    def test_body_search_csv(self, run):
        code, out, _ = run(
            "search", "--class", "U", "--lambda", "0.5", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["class"] == "U(0.5)"
        assert float(row["bound_lower"]) == -0.5
        assert float(row["bound_upper"]) == 0.25
        assert float(row["min_delta"]) == pytest.approx(-0.5, abs=1e-12)
        assert float(row["max_delta"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["argmin_m2"]) >= 0.0

    def test_body_search_json_note(self, run):
        code, out, _ = run("search", "--class", "G", "--alpha", "0.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "relaxation" in doc["note"]
        assert "resolution" not in doc and "refined" not in doc

    def test_scan_mode(self, run):
        code, out, _ = run(
            "search", "--class", "M", "--alpha", "1", "--samples", "20000",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "scan"
        assert doc["violations"] == 0
        assert doc["passed"] is True

    def test_scan_seed_determinism(self, run):
        _, a, _ = run("search", "--class", "S", "--samples", "5000", "--seed", "7",
                      "--format", "json")
        _, b, _ = run("search", "--class", "S", "--samples", "5000", "--seed", "7",
                      "--format", "json")
        _, c, _ = run("search", "--class", "S", "--samples", "5000", "--seed", "8",
                      "--format", "json")
        assert a == b
        assert a != c

    def test_text_mode_mentions_body(self, run):
        code, out, _ = run("search", "--class", "S")
        assert code == 0
        assert "note: proof-relaxation body" in out

    def test_parallel_flag_is_gone(self, run):
        code, _, err = run("search", "--class", "S", "--parallel")
        assert code == 2
        assert "--parallel" in err

    @pytest.mark.parametrize("resolution", ["-1", "1", "200", str(10**6 + 1)])
    def test_resolution_is_ignored(self, run, resolution):
        # The search has no grid, so no value is out of range, also those
        # once refused below 2 and above 10**6: each gives the output of a
        # search without the flag.
        argv = ("search", "--class", "M", "--alpha", "2", "--format", "json")
        assert run(*argv, "--resolution", resolution) == run(*argv)

    def test_samples_cap(self, run):
        # Rejected before any sample is drawn.
        code, out, err = run("search", "--class", "S", "--samples", str(10**6 + 1))
        assert code == 2
        assert out == ""
        assert "samples must lie in [1, 1000000]" in err

    @pytest.mark.parametrize("resolution", ["1", "200"])
    def test_scan_refuses_a_resolution(self, run, resolution):
        # --resolution is ignored, and a scan refuses it, as it did when it sized a grid.
        code, out, err = run("search", "--class", "S", "--samples", "10",
                             "--resolution", resolution)
        assert code == 2
        assert out == ""
        assert "not allowed with argument --samples" in err

    @pytest.mark.parametrize("seed", ["5", "0"])
    def test_body_search_refuses_a_seed(self, run, seed):
        # A body search draws nothing, so --seed would be ignored; also the scan's default 0.
        code, out, err = run("search", "--class", "S", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err == "error: --seed is read only by a scan; add --samples\n"

    def test_scan_seed_defaults_to_zero(self, run):
        argv = ("search", "--class", "S", "--samples", "10", "--format", "json")
        assert run(*argv) == run(*argv, "--seed", "0")
        _, out, _ = run("search", "--help")
        assert "scan seed, 0 to 2**64 - 1 (default 0)" in " ".join(out.split())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_generator_is_usage_error(self, run, seed):
        code, out, err = run("search", "--class", "S", "--samples", "10", "--seed", str(seed))
        assert code == 2
        assert out == ""
        assert "seed must be an integer in [0, 18446744073709551615]" in err

    def test_largest_seed_scans(self, run):
        code, out, _ = run("search", "--class", "S", "--samples", "10",
                           "--seed", str(2**64 - 1), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["seed"], doc["generator"]) == (2**64 - 1, "splitmix64")

    def test_non_finite_parameter_is_usage_error(self, run):
        # NaN deltas fail both bound comparisons, so a scan would count no violations.
        code, out, err = run("search", "--class", "M", "--alpha", "nan", "--samples", "1000")
        assert code == 2
        assert out == ""
        assert "error: alpha must be finite, got nan" in err


class TestSweep:
    def test_u_class_sweep_row_count(self, run):
        code, out, _ = run(
            "sweep", "--class", "U", "--step", "0.05", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["param", "bound_lower", "bound_upper", "search_min", "search_max"]
        assert len(rows) == 20
        by_param = {float(r[0]): r for r in rows}
        assert float(by_param[0.5][1]) == -0.5
        assert float(by_param[1.0][2]) == 0.5

    def test_g_class_sweep_example_row(self, run):
        code, out, _ = run(
            "sweep", "--class", "G", "--step", "0.1", "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 10
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert float(last[1]) == -4.0 / 21.0
        assert float(last[2]) == 1.0 / 12.0

    def test_m_class_sweep_includes_breakpoint(self, run):
        code, out, _ = run(
            "sweep", "--class", "M", "--step", "0.5", "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        params = [float(r[0]) for r in rows]
        assert M_BRANCH_ALPHA in params
        assert params == sorted(params)
        assert len(rows) == 8

    def test_function_sweep(self, run):
        code, out, _ = run(
            "sweep", "--function", "f3", "--step", "0.25", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["param", "delta_min", "delta_max", "bound_lower", "bound_upper"]
        assert len(rows) == 4
        for r in rows:
            lam = float(r[0])
            assert float(r[1]) == pytest.approx(lam / 2.0, abs=1e-12)
            assert float(r[4]) == lam / 2.0

    def test_function_sweep_without_bound_class(self, run):
        code, out, _ = run("sweep", "--function", "koebe", "--step", "2.0", "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[0][3] == "" and rows[0][4] == ""
        code, out, _ = run("sweep", "--function", "koebe", "--step", "2.0")
        assert " -  -" in out.splitlines()[2]

    def test_exactly_one_mode_required(self, run):
        code, _, err = run("sweep")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run("sweep", "--class", "U", "--function", "f3")
        assert code == 2
        assert "exactly one" in err

    def test_s_not_sweepable(self, run):
        code, _, err = run("sweep", "--class", "S")
        assert code == 2
        assert "no parameter" in err

    def test_step_validated(self, run):
        code, _, err = run("sweep", "--class", "U", "--step", "-0.1")
        assert code == 2
        assert "step must be finite and at least 1/10000 of the range, got -0.1" in err

    @pytest.mark.parametrize("mode", [("--class", "M"), ("--function", "f3")])
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_is_usage_error(self, run, mode, step):
        code, out, err = run("sweep", *mode, "--step", step)
        assert code == 2
        assert out == ""
        assert f"error: step must be finite and at least 1/10000 of the range, got {step}" in err

    @pytest.mark.parametrize("mode, step", [
        (("--class", "U"), "9.99e-05"),  # 10010 steps across (0, 1]
        (("--function", "koebe"), "0.000628"),  # 10005 steps across [0, 2 pi)
    ])
    def test_step_grid_cap(self, run, mode, step):
        # Refused before the grid is built.  The steps sit just past the cap,
        # so a run stays short even if the check were missing.
        code, out, err = run("sweep", *mode, "--step", step)
        assert code == 2
        assert out == ""
        assert f"step must be finite and at least 1/10000 of the range, got {step}" in err

    @pytest.mark.parametrize("argv", [
        ("--function", "f3", "--theta", "1"),
        ("--class", "U", "--resolution", "24"),
    ], ids=["theta", "resolution"])
    def test_removed_option_is_unrecognized(self, run, argv):
        # Neither could change a row: delta is rotation invariant, and the
        # body search has no grid.
        code, out, err = run("sweep", *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in err

    @pytest.mark.parametrize("kind", ["U", "M", "G"])
    def test_class_sweep_is_the_search(self, run, kind):
        # Each row is body_search and bound_delta, bit for bit.
        code, out, _ = run("sweep", "--class", kind, "--step", "0.05", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "resolution" not in doc and doc["rows"]
        for row in doc["rows"]:
            spec = ClassSpec.of(kind, row["param"])
            pair = bound_delta(spec)
            assert (row["bound_lower"], row["bound_upper"]) == (pair.lower, pair.upper)
            res = search.body_search(spec)
            assert (row["search_min"], row["search_max"]) == (res.min_delta, res.max_delta)

    def test_class_sweep_runs_no_numpy_kernel(self, run, monkeypatch):
        # A class sweep searches each class in Python floats: the numpy
        # kernel of body_delta and the scan is never called.
        calls = []
        monkeypatch.setattr(search, "_delta", lambda *a: calls.append(a))
        code, _, _ = run("sweep", "--class", "M", "--step", "0.001", "--format", "json")
        assert code == 0
        assert calls == []

    @pytest.mark.parametrize("kind, step, count", [
        ("M", "0.0003", 10002), ("U", "0.0001", 10000), ("G", "0.0001", 10000),
    ])
    def test_finest_class_sweep_warns_of_nothing(self, run, kind, step, count):
        # The finest grids, searched in Python floats, where a division by
        # zero raises; with every warning an error, each row is still finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("sweep", "--class", kind, "--step", step, "--format", "csv")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == count
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_empty_class_grid(self, run):
        # A step past the range leaves no parameter: only the header.
        code, out, _ = run("sweep", "--class", "U", "--step", "2", "--format", "csv")
        assert (code, out) == (0, "param,bound_lower,bound_upper,search_min,search_max\n")
        code, out, _ = run("sweep", "--class", "U", "--step", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == []
        assert '"rows": []' in out

    @pytest.mark.parametrize("mode", [("--class", "G"), ("--function", "f3")])
    def test_only_text_formats_the_table(self, run, monkeypatch, mode):
        code, text, _ = run("sweep", *mode, "--step", "0.25")
        assert code == 0 and len(text.splitlines()) == 6
        monkeypatch.setattr(cli, "_cell", None)  # json never calls it
        code, _, _ = run("sweep", *mode, "--step", "0.25", "--format", "json")
        assert code == 0

    @pytest.mark.parametrize(
        "label", [label for label, fam in catalog.FAMILIES.items() if fam.sweep]
    )
    def test_bound_columns_follow_the_class_kind(self, run, label):
        code, out, _ = run("sweep", "--function", label, "--step", "0.25", "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows
        has_class = catalog.FAMILIES[label].kind is not None
        for r in rows:
            assert (r[3] != "", r[4] != "") == (has_class, has_class)

    SWEEPABLE = [label for label, fam in catalog.FAMILIES.items() if fam.sweep]

    @staticmethod
    def _loops(monkeypatch):
        """Replace the sweep's stacked delta and bound table by loops of single
        calls: each member built at theta = 0 and read alone, and bound_delta
        on each class.  Each loop runs once per grid, for every format."""
        seen = {}

        def family_sweep(label, params):
            fam = catalog.FAMILIES[label]
            if (label, tuple(params)) not in seen:
                built = [catalog.make(label, lam=p, alpha=p) if fam.kind else catalog.make(label)
                         for p in params]
                seen[label, tuple(params)] = list(map(search.SweepRow, params,
                                                      map(functional.delta, built)))
            return seen[label, tuple(params)]

        def bound_table(kind, params):
            if (kind, tuple(params)) not in seen:
                pairs = [bound_delta(ClassSpec.of(kind, p)) for p in params.tolist()]
                seen[kind, tuple(params)] = tuple(np.array([getattr(p, side) for p in pairs])
                                                  for side in ("lower", "upper"))
            return seen[kind, tuple(params)]

        monkeypatch.setattr(search, "family_sweep", family_sweep)
        # bound_delta reads bounds.bound_table itself, so only cli sees the loop.
        monkeypatch.setattr(cli, "bounds", types.SimpleNamespace(bound_table=bound_table))

    @pytest.mark.parametrize("mode, name, step", [
        *(("--function", label, step) for label in SWEEPABLE for step in ("0.05", "0.3")),
        ("--function", "k_theta_alpha", "0.0003"),
        *(("--class", kind, "0.05") for kind in ("U", "M", "G")),
    ])
    def test_sweep_is_a_loop_of_single_calls(self, run, monkeypatch, mode, name, step):
        # Every output byte, in every format: the rows of one stacked call and
        # the bounds of one table are those of a build, a delta and a
        # bound_delta per row.
        argv = ("sweep", mode, name, "--step", step, "--format")
        got = [run(*argv, fmt) for fmt in ("text", "json", "csv")]
        self._loops(monkeypatch)
        want = [run(*argv, fmt) for fmt in ("text", "json", "csv")]
        assert got[0][0] == 0 and '"param"' in got[1][1]
        assert got == want

    def test_sweep_builds_no_member_and_no_bound_pair_per_row(self, run, monkeypatch):
        # A return to a build or a bound_delta per row fails here, whatever it costs.
        calls = []
        for label in catalog.LABELS:
            real = getattr(catalog, label)
            monkeypatch.setattr(catalog, label,
                                lambda *a, _real=real, **k: calls.append(_real) or _real(*a, **k))
        real = bounds.bound_delta
        monkeypatch.setattr(bounds, "bound_delta", lambda spec: calls.append(spec) or real(spec))
        code, out, _ = run("sweep", "--function", "m_alpha_upper", "--step", "0.01",
                           "--format", "json")
        assert code == 0 and len(json.loads(out)["rows"]) == 301
        code, out, _ = run("sweep", "--class", "M", "--step", "0.05", "--format", "json")
        assert code == 0 and len(json.loads(out)["rows"]) == 62
        assert calls == []

    def test_function_help_lists_sweepable_labels(self, run):
        code, out, _ = run("sweep", "--help")
        assert code == 0
        text = " ".join(out.split())  # argparse wraps long help lines
        assert "koebe, f1, f2, f3, f4, f5, k_theta_alpha, m_alpha_upper, g_alpha_upper" in text
        assert "g_quadratic" not in text


class TestMembership:
    def test_passing_membership(self, run):
        code, out, _ = run(
            "membership", "--function", "f3", "--lambda", "0.8", "--class", "U",
            "--angular", "64",
        )
        assert code == 0
        assert "result: PASS" in out
        assert "margin[0.99]" in out

    def test_failing_membership(self, run):
        code, out, _ = run(
            "membership", "--function", "koebe", "--class", "G", "--alpha", "1",
            "--radii", "0.5", "--angular", "64",
        )
        assert code == 1
        assert "result: FAIL" in out

    def test_csv_has_one_row_per_radius(self, run):
        code, out, _ = run(
            "membership", "--function", "g_alpha_upper", "--alpha", "0.5",
            "--class", "G", "--radii", "0.5,0.9", "--angular", "32",
            "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["label", "class", "radius", "margin"]
        assert len(rows) == 2
        assert [r[2] for r in rows] == ["0.5", "0.9"]
        assert all(r[8] == "true" for r in rows)

    def test_shared_parameter_feeds_class_and_function(self, run):
        code, out, _ = run(
            "membership", "--function", "f4", "--lambda", "0.5", "--class", "U",
            "--angular", "16", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == 0.5
        assert doc["params"]["lam"] == 0.5
        assert doc["passed"] is True

    def test_series_entry_at_full_depth(self, run):
        # A quadrature-evaluated entry passes on the outermost ring.
        code, out, _ = run(
            "membership", "--function", "m_alpha_upper", "--alpha", "1",
            "--class", "M", "--angular", "32", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["worst_margin"] > 0

    def test_small_alpha_extremal_passes_at_099(self, run):
        # The extremal of M(0.3) has exact worst margin (1 - r)/(1 + r) on radius r.
        code, out, _ = run(
            "membership", "--function", "k_theta_alpha", "--alpha", "0.3", "--class", "M",
        )
        assert code == 0
        assert "result: PASS" in out
        line = next(x for x in out.splitlines() if x.startswith("margin[0.99] = "))
        assert abs(float(line.split(" = ")[1]) - 0.01 / 1.99) <= 1e-10

    def test_overflowing_margin_is_refused(self, run):
        # f and f' are finite and nonzero there: not a singular sample.
        code, out, err = run(
            "membership", "--function", "koebe", "--class", "M", "--alpha", "1e308",
            "--radii", "0.5",
        )
        assert code == 2
        assert out == ""
        assert "error: the M(1e+308) margin overflows at z = (0.5+0j)" in err

    def test_alpha_above_evaluation_cap_is_refused(self, run):
        # Past alpha = 1e6 the quadrature entries' margins lose accuracy, so
        # they are refused rather than reported.
        code, out, err = run(
            "membership", "--function", "k_theta_alpha", "--class", "M", "--alpha", "1e7",
            "--radii", "0.99",
        )
        assert code == 2
        assert out == ""
        assert "error: k_theta_alpha is evaluated only at alpha <= 1e+06" in err

    def test_angular_cap(self, run):
        # Refused before any sample is taken.
        code, out, err = run(
            "membership", "--function", "f1", "--class", "U", "--lambda", "1",
            "--angular", str(10**4 + 1),
        )
        assert code == 2
        assert out == ""
        assert "angular must lie in [1, 10000]" in err

    def test_bad_radii(self, run):
        code, _, err = run(
            "membership", "--function", "f1", "--class", "U", "--lambda", "1",
            "--radii", "0.5,oops",
        )
        assert code == 2
        assert "--radii" in err

    def test_non_finite_theta_is_usage_error(self, run):
        code, out, err = run(
            "membership", "--function", "f3", "--class", "U", "--lambda", "0.5",
            "--theta", "nan",
        )
        assert code == 2
        assert out == ""
        assert "error: theta must be finite, got nan" in err

    def test_radius_prints_in_full(self, run):
        code, out, _ = run(
            "membership", "--function", "k_theta_alpha", "--alpha", "0.5", "--class", "M",
            "--radii", "0.5,0.99999999", "--angular", "16",
        )
        assert code == 0
        assert "margin[0.99999999] = " in out
        assert "margin[1] = " not in out

    def test_function_help_lists_labels(self, run):
        code, out, _ = run("membership", "--help")
        assert code == 0
        assert ", ".join(catalog.LABELS) in " ".join(out.split())


class TestPlumbing:
    def test_out_writes_identical_bytes(self, run, tmp_path):
        code, stdout_text, _ = run("bounds", "--class", "M", "--alpha", "2", "--format", "csv")
        assert code == 0
        path = tmp_path / "bounds.csv"
        code, out, _ = run(
            "bounds", "--class", "M", "--alpha", "2", "--format", "csv",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        data = path.read_bytes()
        assert data.decode("utf-8") == stdout_text
        assert b"\r" not in data

    def test_unwritable_out_is_usage_error(self, run, tmp_path):
        path = tmp_path / "missing" / "bounds.txt"
        code, out, err = run("bounds", "--class", "S", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    def test_no_arguments_is_usage_error(self, run):
        assert run()[0] == 2

    def test_help_exits_zero(self, run):
        assert run("--help")[0] == 0

    def test_bad_choice(self, run):
        assert run("bounds", "--class", "X")[0] == 2

    def test_json_floats_parse_back(self, run):
        code, out, _ = run("bounds", "--class", "M", "--alpha", "0.5", "--format", "json")
        doc = json.loads(out)
        pair = bound_delta(ClassSpec("M", alpha=0.5))
        assert doc["lower"] == pair.lower and doc["upper"] == pair.upper


# One cheap command line per subcommand.
ONE_OF_EACH = (
    ("gamma", "--function", "koebe", "--theta", "0.5"),
    ("bounds", "--class", "M", "--alpha", "1"),
    ("verify", "--format", "json"),
    ("search", "--class", "G", "--alpha", "0.5", "--samples", "100"),
    ("sweep", "--class", "U", "--step", "0.5"),
    ("membership", "--function", "f3", "--lambda", "0.5", "--class", "U", "--radii", "0.5",
     "--angular", "16"),
)


class TestOneParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_main_builds_no_parser(self, run, monkeypatch):
        build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert sorted(argv[0] for argv in ONE_OF_EACH) == sorted(OPTIONS)
        for argv in ONE_OF_EACH:
            assert run(*argv)[0] == 0, argv
        assert built == []

    def test_reuse_leaks_nothing(self, run):
        # A usage error, help, a refusal from a module and three commands that
        # read defaults: each outcome is the same on a parser's first use and
        # after every other command line ran.
        argvs = [
            ("search", "--class", "S", "--samples", "10", "--resolution", "4"),
            ("search", "--help"),
            ("bounds", "--class", "M", "--alpha", "-1"),
            ("membership", "--function", "k_theta_alpha", "--alpha", "0.5", "--class", "M"),
            ("search", "--class", "S", "--samples", "10"),
            ("sweep", "--class", "U"),
        ]
        first = []
        for argv in argvs:
            build_parser.cache_clear()
            first.append(run(*argv))
        assert [code for code, _, _ in first] == [2, 0, 2, 0, 0, 0]
        forward = [run(*argv) for argv in argvs]
        backward = [run(*argv) for argv in reversed(argvs)][::-1]
        assert forward == first
        assert backward == first

    def test_help_width_is_read_when_formatting(self, run, monkeypatch):
        build_parser()
        monkeypatch.setenv("COLUMNS", "200")
        wide = run("search", "--help")
        monkeypatch.setenv("COLUMNS", "60")
        code, out, _ = run("search", "--help")
        assert code == 0
        assert max(map(len, out.splitlines())) <= 60
        assert max(map(len, wide[1].splitlines())) > 60


# Every option of every subcommand, in parser order.  Adding or removing a
# knob has to edit this table, so the change shows in review.
OPTIONS = {
    "gamma": ("--function", "--theta", "--lambda", "--alpha", "--format", "--out"),
    "bounds": ("--class", "--lambda", "--alpha", "--format", "--out"),
    "verify": ("--all", "--format", "--out"),
    "search": (
        "--class", "--lambda", "--alpha", "--resolution", "--samples", "--seed",
        "--format", "--out",
    ),
    "sweep": ("--class", "--function", "--step", "--format", "--out"),
    "membership": (
        "--function", "--theta", "--class", "--lambda", "--alpha", "--radii", "--angular",
        "--format", "--out",
    ),
}


def test_option_inventory():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: tuple(o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sp in sub.choices.items()
    }
    assert got == OPTIONS


# Command lines beyond the benchmark's: help, usage errors and the argparse
# forms (abbreviation, --opt=value, "--") that the top-level pass could treat
# differently from the command's own parser.
PARSE_CORPUS = (
    (),
    ("--help",),
    ("-h", "search"),
    ("frobnicate", "--class", "S"),
    ("search", "--class", "S", "--bogus"),
    ("search", "--class", "S", "one", "two"),
    ("search", "--class", "M", "--alph", "2"),
    ("search", "--class", "S", "--format=json"),
    ("gamma", "--function", "koebe", "--", "extra"),
    ("search", "--class", "M", "--alpha"),
    ("--format", "json", "search", "--class", "S"),
    ("search", "--help"),
)


class TestCommandParser:
    """`main` parses a line that starts with a command by that command's parser:
    the result is what the top-level `parse_args` gives, down to the bytes."""

    @pytest.fixture
    def corpus(self, monkeypatch):
        bench = {tuple(job["argv"]) for job in _benchmark_jobs(monkeypatch)}
        return [*sorted(bench), *PARSE_CORPUS]

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = ("exit", e.code)
        return result, capsys.readouterr()

    def test_namespace_is_the_top_level_one(self, corpus, capsys):
        exits = 0
        for argv in corpus:
            got = self._outcome(cli._parse, argv, capsys)
            assert got == self._outcome(build_parser().parse_args, argv, capsys), argv
            exits += isinstance(got[0], tuple)
        assert exits == len(PARSE_CORPUS) - 2  # all but "--alph 2" and "--format=json"

    def test_main_prints_what_the_top_level_parse_prints(self, corpus, run, monkeypatch):
        ours = {argv: run(*argv) for argv in corpus}
        monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        assert {argv: run(*argv) for argv in corpus} == ours
        code, _, err = ours[("search", "--class", "S", "--bogus")]
        assert code == 2 and err.endswith("logcoef: error: unrecognized arguments: --bogus\n")

    def test_commands_come_from_the_cached_parser(self, run, monkeypatch):
        # A parser rebuilt after cache_clear is the one whose command parses.
        build_parser.cache_clear()
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seen = []
        search_parser = sub.choices["search"]
        real = search_parser.parse_known_args
        monkeypatch.setattr(search_parser, "parse_known_args",
                            lambda *a: seen.append(a[0]) or real(*a))
        assert run("search", "--class", "S")[0] == 0
        assert seen == [["--class", "S"]]


class _NoNumpy:
    """Stands in for a module's `np`: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


@pytest.mark.parametrize("argv", [
    ("--class", "S"),
    ("--class", "U", "--lambda", "0.5"),
    ("--class", "M", "--alpha", "2"),
    ("--class", "G", "--alpha", "1"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_one_class_search_runs_no_numpy(run, monkeypatch, argv, fmt):
    # The body search and the bound pair of one class are Python floats.
    expected = run("search", *argv, "--format", fmt)
    for module in (bounds, search, classes):
        monkeypatch.setattr(module, "np", _NoNumpy())
    assert run("search", *argv, "--format", fmt) == expected


class TestCollector:
    """`main` freezes the heap it starts with and unfreezes it on every way out."""

    @staticmethod
    def _spy(monkeypatch, seen, effect=None):
        # bounds.bound_delta stands in for the command's own work: `effect`
        # runs inside the command, with the collector as main left it.
        real = bounds.bound_delta

        def bound_delta(spec):
            seen.append(gc.get_freeze_count())
            if effect is not None:
                effect()
            return real(spec)

        monkeypatch.setattr(bounds, "bound_delta", bound_delta)

    @pytest.mark.parametrize("argv, code", [
        (("gamma", "--function", "koebe"), 0),
        (("membership", "--function", "koebe", "--class", "G", "--alpha", "1"), 1),
        (("bounds", "--class", "M", "--alpha", "-1"), 2),
        (("--help",), 0),
        (("bounds", "--class", "S", "--bogus"), 2),
    ])
    def test_every_exit_unfreezes(self, run, argv, code):
        entry = gc.get_freeze_count()
        assert run(*argv)[0] == code
        assert gc.get_freeze_count() == entry

    def test_an_exception_unfreezes_and_propagates(self, run, monkeypatch):
        seen = []

        def fail():
            raise RuntimeError("inside the command")

        self._spy(monkeypatch, seen, fail)
        entry = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="inside the command"):
            run("bounds", "--class", "S")
        assert gc.get_freeze_count() == entry
        (inside,) = seen
        assert inside > entry

    def test_a_callers_frozen_set_is_left_as_it_is(self, run, monkeypatch):
        seen = []
        self._spy(monkeypatch, seen)
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            assert run("bounds", "--class", "S")[0] == 0
            assert gc.get_freeze_count() == frozen
            assert seen == [frozen]  # neither frozen further nor thawed
        finally:
            gc.unfreeze()

    def test_a_cycle_made_by_the_command_is_collected(self, run, monkeypatch):
        refs, collected = [], []

        class Node:  # weakly referenceable, unlike SimpleNamespace
            pass

        def cycle():
            node = Node()
            node.self = node
            refs.append(weakref.ref(node))
            del node
            gc.collect()
            collected.append(refs[-1]() is None)

        self._spy(monkeypatch, [], cycle)
        assert run("bounds", "--class", "S")[0] == 0
        assert collected == [True]

    def test_the_command_does_not_see_the_heap_it_started_with(self, run, monkeypatch):
        # The objects the collector would scan inside the command: those of
        # generations 0-2.  The deterministic stand-in for "a collection does
        # not rescan the import-time heap".
        def tracked():
            return sum(len(gc.get_objects(g)) for g in range(3))

        inside = []
        self._spy(monkeypatch, [], lambda: inside.append(tracked()))
        before = tracked()
        assert run("bounds", "--class", "S")[0] == 0
        assert inside[0] < before / 20
