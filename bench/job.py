"""Run one `logcoef` CLI job in this fresh interpreter and report on it.

Usage: ``python3 bench/job.py '<json spec>'`` with ``src`` on PYTHONPATH.  The
spec holds ``argv`` (the CLI arguments), ``job`` (an id for the spans) and
``trace`` (whether to record spans).  The CLI's own stdout and stderr are
captured and returned verbatim inside one JSON object, printed to stdout with
the exit code, the timestamps and the peak resident set:

* ``ready_ns``: CLOCK_MONOTONIC, which all processes share, once
  `logcoef.cli` is imported and `build_parser()` has run;
* ``job_s``: the time `cli.main(argv)` took;
* ``rss_kb``: the process's peak resident set;
* ``cal_s``: the time of the calibration kernel, run after the job.
"""

import contextlib
import io
import json
import resource
import sys
import time

from calibrate import kernel


def main() -> int:
    spec = json.loads(sys.argv[1])
    from logcoef import cli

    cli.build_parser()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(job=spec["job"])
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        job_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "ready_ns": ready_ns,
        "job_s": job_s,
        "rss_kb": rss_kb,
        "cal_s": kernel(),
        "spans": tracer.spans if tracer else [],
    }
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
