"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and the exact bytes on
stdout are both observable.  Numeric output is round-tripped with float() to
confirm the repr serialization reproduces the in-memory doubles.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import re
from fractions import Fraction

import pytest

from logcoef import bounds, catalog, functional, search
from logcoef.bounds import M_BRANCH_ALPHA, bound_delta
from logcoef.catalog import f4, f5
from logcoef.classes import ClassSpec
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
        argv = ("search", "--class", "M", "--alpha", "2.5", "--resolution", "40")
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
            "search", "--class", "U", "--lambda", "0.5", "--resolution", "80",
            "--format", "csv",
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
        code, out, _ = run("search", "--class", "G", "--alpha", "0.5", "--resolution", "40",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "relaxation" in doc["note"]
        assert doc["resolution"] == 40

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
        code, out, _ = run("search", "--class", "S", "--resolution", "30")
        assert code == 0
        assert "note: proof-relaxation body" in out

    def test_parallel_flag_is_gone(self, run):
        code, _, err = run("search", "--class", "S", "--parallel")
        assert code == 2
        assert "--parallel" in err

    def test_resolution_cap(self, run):
        # Rejected before any grid is built.
        code, _, err = run("search", "--class", "S", "--resolution", str(10**6 + 1))
        assert code == 2
        assert "resolution must lie in [2, 1000000]" in err

    def test_samples_cap(self, run):
        # Rejected before any sample is drawn.
        code, out, err = run("search", "--class", "S", "--samples", str(10**6 + 1))
        assert code == 2
        assert out == ""
        assert "samples must lie in [1, 1000000]" in err

    @pytest.mark.parametrize("resolution", ["1", str(search.DEFAULT_RESOLUTION)])
    def test_scan_refuses_a_resolution(self, run, resolution):
        # A scan has no grid, so --resolution would be ignored; also the default value.
        code, out, err = run("search", "--class", "S", "--samples", "10",
                             "--resolution", resolution)
        assert code == 2
        assert out == ""
        assert "not allowed with argument --samples" in err

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
        # body search is exact at every resolution.
        code, out, err = run("sweep", *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in err

    @pytest.mark.parametrize("kind", ["U", "M", "G"])
    def test_class_sweep_is_the_search(self, run, kind):
        # Each row is body_search at its default and at the coarsest grid, and
        # bound_delta, bit for bit: no row depends on a resolution.
        code, out, _ = run("sweep", "--class", kind, "--step", "0.05", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "resolution" not in doc and doc["rows"]
        for row in doc["rows"]:
            spec = ClassSpec.of(kind, row["param"])
            pair = bound_delta(spec)
            assert (row["bound_lower"], row["bound_upper"]) == (pair.lower, pair.upper)
            for res in (search.body_search(spec), search.body_search(spec, resolution=2)):
                assert (row["search_min"], row["search_max"]) == (res.min_delta, res.max_delta)

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
