"""The benchmark's three workloads: seeded lists of `logcoef` CLI jobs.

A job is a dict with the CLI arguments (`argv`, always with ``--format
json``), the name of the check in `reference` that judges its output, and the
parameters that check needs (`ref`).  The seed draws theta rotations and the
extra parameter values; the number of jobs, the series orders, radii, angular
samples, grid resolutions and scan sizes are the same for every seed.

Why each workload:

* ``boundary-membership`` runs the membership checks users run near the
  circle.  Its time is in `series` (Horner evaluation and the order-5120
  builds), it takes both evaluation paths of `classes`, and it never calls
  `search`.
* ``body-search`` runs the coefficient-body searches of acceptance
  criterion 5 and the class sweeps.  Its time is in `search` (`body_delta`);
  it never calls `series`, `catalog` or `classes`.
* ``family-scan`` uses the same layers in thousands of short calls: family
  sweeps at order 32, `gamma` for every catalog label, and random scans.  A
  change tuned for large orders or for the grid search that slows short calls
  or the scan shows here.
"""

from __future__ import annotations

import math

import numpy as np

from reference import M_BRANCH_ALPHA

RADII = (0.5, 0.9, 0.99)
ANGULAR = 256
SEARCH_RESOLUTION = 200
SWEEP_STEP_CLASS = 0.05
SWEEP_STEP_FAMILY = 0.01
SCAN_SAMPLES = 100_000

# The class instances of acceptance criterion 5.
CRITERION_5_MESH = (
    [("U", lam) for lam in (0.1, 0.25, 0.5, 0.75, 1.0)]
    + [("M", a) for a in (0.0, 0.5, 1.0, M_BRANCH_ALPHA, 2.0, 5.0)]
    + [("G", a) for a in (0.25, 0.5, 0.75, 1.0)]
)

# Always present, so the defect behind it shows on every seed: at order 5120
# the series build of k_theta_alpha is ill-conditioned for small alpha, and
# membership reports margin -3.79 at r = 0.99 where the exact margin is
# (1 - r)/(1 + r) = 5.03e-3 (ROADMAP item 3).
K_ALPHA_CORE = (0.3, 0.5, 1.0, 2.0)
KNOWN_DEFECT_K_ALPHA_03 = "false FAIL of k_theta_alpha(alpha=0.3) from the order-5120 series build"

# Seeded extras are drawn where the order-5120 builds are accurate to 1e-9 or
# better, so that a seed cannot add a failure or move max_err, which the
# fixed core above sets on every seed.
K_ALPHA_SEEDED = (0.75, 3.0)
M_ALPHA_CORE = (0.5, 1.0, 2.0)
M_ALPHA_SEEDED = (0.5, 3.0)

WORKLOADS = ("boundary-membership", "body-search", "family-scan")


def _job(argv, check, ref, known_defect=None):
    job = {"argv": [*argv, "--format", "json"], "check": check, "ref": ref}
    if known_defect:
        job["known_defect"] = known_defect
    return job


def _num(x: float) -> str:
    return repr(float(x))


def _membership(label, kind, theta=0.0, lam=None, alpha=None, known_defect=None):
    argv = ["membership", "--function", label, "--class", kind, "--theta", _num(theta)]
    if lam is not None:
        argv += ["--lambda", _num(lam)]
    if alpha is not None:
        argv += ["--alpha", _num(alpha)]
    ref = {"label": label, "kind": kind, "theta": theta, "lam": lam, "alpha": alpha,
           "radii": list(RADII), "angular": ANGULAR}
    return _job(argv, "membership", ref, known_defect)


def boundary_membership(rng: np.random.Generator) -> list:
    jobs = [
        _job(["verify"], "verify", {}),
        _job(["verify", "--all"], "verify", {}),
    ]
    for a in K_ALPHA_CORE:
        defect = KNOWN_DEFECT_K_ALPHA_03 if a == 0.3 else None
        jobs.append(_membership("k_theta_alpha", "M", alpha=a, known_defect=defect))
    for _ in range(2):
        jobs.append(_membership("k_theta_alpha", "M", theta=rng.uniform(0.0, 2.0 * math.pi),
                                alpha=rng.uniform(*K_ALPHA_SEEDED)))
    for a in M_ALPHA_CORE:
        jobs.append(_membership("m_alpha_upper", "M", alpha=a))
    jobs.append(_membership("m_alpha_upper", "M", alpha=rng.uniform(*M_ALPHA_SEEDED)))
    jobs.append(_membership("g_alpha_upper", "G", alpha=rng.uniform(0.05, 1.0)))
    jobs.append(_membership("f3", "U", theta=rng.uniform(0.0, 2.0 * math.pi),
                            lam=rng.uniform(0.05, 1.0)))
    jobs.append(_membership("f4", "U", lam=rng.uniform(0.5, 1.0)))
    jobs.append(_membership("f5", "U", lam=rng.uniform(0.05, 0.5)))
    # The non-member probe: koebe is not in G(1), so the right answer is FAIL.
    jobs.append(_membership("koebe", "G", alpha=1.0))
    return jobs


def _class_args(kind, param):
    if kind == "S":
        return ["--class", "S"]
    flag = "--lambda" if kind == "U" else "--alpha"
    return ["--class", kind, flag, _num(param)]


def body_search(rng: np.random.Generator) -> list:
    # The inputs are the fixed mesh of criterion 5, so this workload draws
    # nothing from the seed.
    del rng
    jobs = []
    for kind, param in [("S", None), *CRITERION_5_MESH]:
        argv = ["search", *_class_args(kind, param), "--resolution", str(SEARCH_RESOLUTION)]
        jobs.append(_job(argv, "search", {"kind": kind, "param": param}))
    for kind in ("U", "M", "G"):
        argv = ["sweep", "--class", kind, "--step", _num(SWEEP_STEP_CLASS)]
        jobs.append(_job(argv, "class_sweep", {"kind": kind}))
    return jobs


SWEEPABLE = ("koebe", "f1", "f2", "f3", "f4", "f5",
             "k_theta_alpha", "m_alpha_upper", "g_alpha_upper")


def family_scan(rng: np.random.Generator) -> list:
    jobs = []
    for label in SWEEPABLE:
        argv = ["sweep", "--function", label, "--step", _num(SWEEP_STEP_FAMILY)]
        jobs.append(_job(argv, "family_sweep", {"label": label}))

    def theta():
        return rng.uniform(0.0, 2.0 * math.pi)

    gamma_params = [
        ("koebe", {"theta": theta()}),
        ("f1", {"theta": theta()}),
        ("f2", {"theta": theta()}),
        ("f3", {"theta": theta(), "lam": rng.uniform(0.05, 1.0)}),
        ("f4", {"lam": rng.uniform(0.5, 1.0)}),
        ("f5", {"lam": rng.uniform(0.05, 0.5)}),
        ("k_theta_alpha", {"theta": theta(), "alpha": rng.uniform(0.05, 3.0)}),
        ("m_alpha_upper", {"alpha": rng.uniform(0.05, 3.0)}),
        ("g_alpha_upper", {"alpha": rng.uniform(0.05, 1.0)}),
        ("g_quadratic", {}),
    ]
    for label, p in gamma_params:
        argv = ["gamma", "--function", label]
        for key, flag in (("theta", "--theta"), ("lam", "--lambda"), ("alpha", "--alpha")):
            if key in p:
                argv += [flag, _num(p[key])]
        jobs.append(_job(argv, "gamma", {"label": label, **p}))

    for kind, param in CRITERION_5_MESH:
        seed = int(rng.integers(0, 2**31))
        argv = ["search", *_class_args(kind, param), "--samples", str(SCAN_SAMPLES),
                "--seed", str(seed)]
        jobs.append(_job(argv, "scan", {"kind": kind, "param": param}))
    return jobs


_JOB_LISTS = {
    "boundary-membership": boundary_membership,
    "body-search": body_search,
    "family-scan": family_scan,
}


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one pass of `workload` under `seed`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _JOB_LISTS[workload](rng)
