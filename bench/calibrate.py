"""The calibration kernel that the benchmark divides job times by.

The host's vCPU speed differs between processes by a factor of 1.5 or more,
so every job process times this fixed kernel right after its job, in the
same process, and the job's time is reported in units of the kernel's time.
"""

import math
import time

import numpy as np


def kernel() -> float:
    """Seconds for a fixed mix of the kinds of work `logcoef` does.

    * a Python loop of `np.dot` over growing slices, as in the series
      recurrences;
    * a Python loop of multiply-adds over 256 points, as in Horner evaluation
      on a membership ring;
    * vectorised complex elementwise work on a 201 x 200 grid, as in
      `body_delta`;
    * plain interpreter work, as in the CLI and the short calls of
      family sweeps.

    Each part alone tracks some jobs' slowdowns and not others'; together
    they track all three workloads' jobs about equally well.
    """
    start = time.perf_counter()
    n = 4096
    a = np.exp(1j * np.linspace(0.0, 3.0, n))
    b = a[::-1].copy()
    acc = 0j
    for k in range(1, n):
        acc += np.dot(a[:k], b[n - k:])
    z = 0.9 * np.exp(2j * np.pi * np.arange(256) / 256)
    h = np.zeros_like(z)
    for c in a:
        h = h * z + c
    acc += h.sum()
    m1 = np.linspace(0.0, 1.0, 201)[:, None]
    for phase in np.linspace(0.0, 2.0 * np.pi, 12):
        w = m1 * np.exp(1j * (phase + np.linspace(0.0, 2.0 * np.pi, 200)))[None, :]
        acc += (0.5 * np.abs(w * w - 0.5 * m1 * m1) - 0.5 * np.abs(m1)).sum()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    if not math.isfinite(acc.real + s):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return time.perf_counter() - start
