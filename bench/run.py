"""Benchmark for the `logcoef` CLI: seeded workloads of jobs, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload boundary-membership --seed 1 --seconds 30 --trace 0

The harness runs the workload's job list in passes, one job at a time in a
closed loop, each job in a fresh interpreter (`bench/job.py`), because CLI
users pay a cold start on every command.  Every job's JSON output is checked
against the exact references in `bench/reference.py`.  Each job process also
times a fixed calibration kernel (`bench/calibrate.py`) right after its job,
and the job's time is divided by it (`_cal`), because the host's vCPU speed
differs between processes.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics from `bench/tracer.py`.  The line before it is a run record
(machine, versions, seed, calibration and raw seconds, failures).  Traced
runs write their spans to ``.bench_out/``.  See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

JOB_SCRIPT = os.path.join(HERE, "job.py")
JOB_TIMEOUT_S = 120
ERR_FLOOR = 1e-14  # roundoff level of the reference formulas
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it

# name -> (unit, better, bound): the end-to-end metrics BENCHMARK.json lists.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_cal": ("cal", "lower", 0.25),
    "job_p50_cal": ("cal", "lower", 0.25),
    "job_tail_cal": ("cal", "lower", 0.25),
    "ok_frac": ("frac", "higher", 0.01),
    "max_err": ("abs", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# A run makes round(seconds / PASS_S) passes, so the number of job samples,
# and with it the tail percentile, is the same on every run and every commit.
# One pass of any workload takes about this long on a 2-vCPU x86-64 VM.
PASS_S = 7.5

# The calibration kernel's time on that VM in its faster state.  Set-up
# seconds are scaled to this kernel speed (see end_to_end).
KERNEL_REF_S = 0.033


def run_job(job: dict, job_id: int, trace: bool, root: str, env: dict) -> dict:
    """Run one job in a fresh interpreter, check its output, return its record."""
    spec = json.dumps({"argv": job["argv"], "job": job_id, "trace": trace})
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, JOB_SCRIPT, spec],
            cwd=root, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"timed out after {JOB_TIMEOUT_S} s", "err": math.inf}
    try:
        rep = json.loads(proc.stdout)
    except ValueError:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "why": f"job process failed: {tail[0]}", "err": math.inf}
    ok, err, why = reference.check(job, rep["rc"], rep["stdout"])
    if not ok and rep["stderr"].strip():
        why += f" (stderr: {rep['stderr'].strip().splitlines()[-1]})"
    return {
        "ok": ok,
        "why": why,
        "err": err,
        "stdout": rep["stdout"],
        "setup_s": (rep["ready_ns"] - spawn_ns) * 1e-9,
        "job_s": rep["job_s"],
        "cal_s": rep["cal_s"],
        "rss_mb": rep["rss_kb"] / 1024.0,
        "spans": rep["spans"],
    }


def run_pass(jobs: list, trace: bool, root: str, env: dict) -> dict:
    results = [run_job(job, i, trace, root, env) for i, job in enumerate(jobs)]
    cal = [r["cal_s"] for r in results if "cal_s" in r]
    return {"cal_s": statistics.median(cal) if cal else math.nan, "results": results,
            "trace": trace}


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for the tail, got {len(values)}")
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def timing(passes: list) -> dict:
    """Raw and calibrated times of the passes given."""
    pass_s, pass_cal, job_s, job_cal = [], [], [], []
    for p in passes:
        done = [r for r in p["results"] if "job_s" in r]
        cal = [r["job_s"] / r["cal_s"] for r in done]
        pass_s.append(sum(r["job_s"] for r in done))
        pass_cal.append(sum(cal))
        job_s += [r["job_s"] for r in done]
        job_cal += cal
    return {"pass_s": pass_s, "pass_cal": pass_cal, "job_s": job_s, "job_cal": job_cal}


def end_to_end(passes: list) -> tuple[dict, dict]:
    results = [r for p in passes for r in p["results"]]
    t = timing(passes)
    tail_cal, pct = tail(t["job_cal"])
    ok = [r for r in results if r["ok"]]
    errs = [r["err"] for r in ok]
    done = [r for r in results if "job_s" in r]
    # Interpreter start slows down with the vCPU as the jobs do, so each job's
    # set-up seconds are scaled by KERNEL_REF_S over its own kernel time.
    values = {
        "setup_s": statistics.median(r["setup_s"] * KERNEL_REF_S / r["cal_s"] for r in done),
        "pass_cal": statistics.median(t["pass_cal"]),
        "job_p50_cal": statistics.median(t["job_cal"]),
        "job_tail_cal": tail_cal,
        "ok_frac": len(ok) / len(results),
        "max_err": max([ERR_FLOOR, *errs]),
        "peak_rss_mb": max(r["rss_mb"] for r in done),
    }
    metrics = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
    record = {
        "raw_setup_s": statistics.median(r["setup_s"] for r in done),
        "tail_percentile": pct,
        "tail_samples": len(t["job_cal"]),
        "raw_pass_s": t["pass_s"],
        "raw_job_p50_ms": statistics.median(t["job_s"]) * 1e3,
        "raw_job_tail_ms": tail(t["job_s"])[0] * 1e3,
    }
    return metrics, record


def per_layer(passes: list, out_path: str) -> dict:
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    per_pass = [tracer.layer_metrics([r["spans"] for r in p["results"] if "spans" in r])
                for p in traced]
    units = {name: unit for name, unit, _ in tracer.per_layer_names()}
    metrics = {k: (statistics.median(m[k] for m in per_pass), units[k]) for k in per_pass[0]}
    t_plain, t_traced = timing(plain), timing(traced)
    overhead = statistics.median(t_traced["pass_cal"]) / statistics.median(t_plain["pass_cal"])
    metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
    metrics["cal_s"] = (statistics.median(p["cal_s"] for p in plain), "s")
    metrics["raw.pass_s"] = (statistics.median(t_plain["pass_s"]), "s")
    metrics["raw.job_p50_ms"] = (statistics.median(t_plain["job_s"]) * 1e3, "ms")

    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        spans = [
            {**s, "pass": k} for k, p in enumerate(traced) for r in p["results"]
            for s in r.get("spans", ())
        ]
        json.dump(spans, fh)
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "logcoef", "cli.py")):
        print(f"error: no logcoef source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    jobs = workloads.jobs_for(args.workload, args.seed)
    n_passes = max(1, round(args.seconds / PASS_S))
    if args.trace:
        n_passes = max(2, n_passes + n_passes % 2)
    # Untimed: byte-compiles the package once, as an installed package would be.
    subprocess.run([sys.executable, "-c", "import logcoef.cli"], cwd=root, env=env,
                   check=True, timeout=JOB_TIMEOUT_S)

    passes = [run_pass(jobs, bool(args.trace and k % 2), root, env) for k in range(n_passes)]

    results = [r for p in passes for r in p["results"]]
    failures = {}
    for job, r in zip(jobs * n_passes, results):
        if not r["ok"]:
            key = " ".join(job["argv"])
            failures[key] = {"why": r["why"], "known_defect": job.get("known_defect")}
    correct = all(f["known_defect"] for f in failures.values())

    if args.trace:
        out_path = os.path.join(root, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(passes, out_path)
        extra = {"spans_file": os.path.relpath(out_path, root)}
    else:
        metrics, extra = end_to_end(passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": n_passes,
        "jobs_per_pass": len(jobs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cal_s": [p["cal_s"] for p in passes],
        **extra,
        "failures": failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(results) - sum(r["ok"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
