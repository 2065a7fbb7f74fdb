"""Parameter sweeps and machine-readable reports.

family_sweep walks a catalog family and records the delta at each value;
the command line wraps the same machinery and emits text, json, or csv with
floats serialized via repr, so a re-parsed file reproduces the doubles
exactly.  This script drives both, writing its files to a temporary
directory that it removes when done.
"""

import csv
import json
import tempfile
from pathlib import Path

from logcoef import bound_delta, ClassSpec, family_sweep
from logcoef.cli import main

print("== delta along the f3 family (attains the U upper bound) ==")
for row in family_sweep("f3", [0.2, 0.4, 0.6, 0.8, 1.0]):
    upper = bound_delta(ClassSpec("U", lam=row.param)).upper
    print(f"lambda = {row.param:3.1f}: delta = {row.delta:+.9f}   bound {upper:+.9f}")
print()

print("== delta along f5 then f4 (attains the U lower bound, branch and all) ==")
for label, grid in [("f5", [0.1, 0.3, 0.5]), ("f4", [0.5, 0.75, 1.0])]:
    for row in family_sweep(label, grid):
        lower = bound_delta(ClassSpec("U", lam=row.param)).lower
        print(f"{label} lambda = {row.param:4.2f}: delta = {row.delta:+.9f}   bound {lower:+.9f}")
print()

with tempfile.TemporaryDirectory(prefix="logcoef_demo_") as tmp:
    out_dir = Path(tmp)

    print("== the same sweep through the command line, as csv ==")
    g_csv = out_dir / "g_sweep.csv"
    main(["sweep", "--class", "G", "--step", "0.1", "--format", "csv", "--out", str(g_csv)])
    with open(g_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    print(f"wrote {g_csv} ({len(rows) - 1} rows)")
    print("  ".join(rows[0]))
    for r in rows[-2:]:
        print("  ".join(x[:20] for x in r))
    print()

    print("== json reports parse back to the exact doubles ==")
    b_json = out_dir / "bounds.json"
    main(["bounds", "--class", "M", "--alpha", "1", "--format", "json", "--out", str(b_json)])
    doc = json.loads(b_json.read_text())
    pair = bound_delta(ClassSpec("M", alpha=1.0))
    print(f"wrote {b_json}")
    print(f"lower from file {doc['lower']!r}")
    print(f"lower in memory {pair.lower!r}")
    print(f"bit-identical: {doc['lower'] == pair.lower and doc['upper'] == pair.upper}")
    print()

print("== the verify battery is the one-command health check ==")
code = main(["verify"])
print(f"exit status {code}")
