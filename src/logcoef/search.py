"""Numerical searches over coefficient bodies and catalog families.

The closed-form bounds in `bounds` are extremes of delta = |gamma_2| -
|gamma_1| over a coefficient body in (m1, m2, phase): the moduli of a_2 and
of the free part of a_3 (or of the Schwarz coefficients c_1, c_2) and their
relative phase.  The bodies are relaxations: every class member yields a
body point, so the body extremes bracket the class extremes from outside.
`body_search` finds them exactly by solving (m2, phase) in closed form, the
phase 0 or pi, so that e^{i pi} = -1 exactly and T = t m2 lies along P or
against it.  What is left is a function of m1 in closed form: its maximum
sits at an endpoint and its minimum at one clipped vertex (`_min_m1`), so
the search evaluates three points per class (`tests/test_symbolic.py`
proves that these hold the extremes), in Python floats; a class sweep
searches its classes one by one.  `bound_violation_scan` samples the whole
body at random as a brute-force check, from a SplitMix64 stream of its own:
one cache-sized block of samples at a time, each coordinate of a block one
contiguous draw off a stream index built once per scan, every block in the
same few arrays, allocated once per scan, and without the kernel's
per-point scaling where `_scale_free` proves it exact.  delta is evaluated
in real arithmetic: by the kernel `_delta` on numpy arrays, in `body_delta`
and the scan, at k^2 from one tan per point (`_half_angle_k2`), and by its
one-point form `_float_delta` in the search, at k^2 = 1 or 0, where T is
aligned with P or against it.
`family_sweep` records the delta a one-parameter catalog family actually
attains at each parameter value: it builds no member, but takes the
family's row on the whole grid as an array and reads the gammas of that
stack of rows in one call of `functional`.  delta is rotation invariant, so
a family whose only parameter is the rotation angle is built once.  Which
parameter a family sweeps, over what range, and its row are
read from `catalog.FAMILIES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import catalog, functional
from .bounds import bound_delta
from .classes import ClassSpec, _body
from .series import _is_integer

# The searched set is a relaxation of the class, not the class itself.
BODY_NOTE = "proof-relaxation body: contains the coefficient region of the class"

# Roundoff a scanned delta may pass the bounds by, times the larger bound in modulus,
# since the bounds shrink with the class parameter and a fixed margin would hide errors there.
SCAN_TOLERANCE = 1e-9

# Most samples accepted by bound_violation_scan.
MAX_SAMPLES = 10**6

# Samples bound_violation_scan draws and evaluates per block, three
# contiguous draws of this length.  Small enough that the scan's
# arrays stay in cache and, at 64 KiB of float64 each, come from the heap
# that a fresh process already holds; large enough to amortize numpy's
# per-call overhead.  A cold `search --class M --alpha 0.5 --samples 100000`
# took a median 0.087 calibration units (`bench/calibrate.py`; 3.9 ms) and
# 13 minor faults in blocks of 8192, against 0.107 (4.7 ms, 13 faults) and
# 0.089 (4.2 ms, 166 faults) in blocks of 4096 and 16384 (20 fresh processes
# each, numpy 2.4.6 on a 2-vCPU AVX-512 Xeon VM).
_SCAN_BLOCK = 8192

# The scan's generator and its seeds, [0, SEED_LIMIT).
SCAN_GENERATOR = "splitmix64"
SEED_LIMIT = 2**64


def _delta(body, m1, m2, k2, scale=True, out=None):
    """delta at the body points (m1, m2) of a class with k^2 = `k2`, in real arithmetic.

    `body` is the class's row, whose fields may also be arrays that
    broadcast against the points, and m1 and m2 are float arrays of one
    shape, at least 1-D, since the steps work in place and a 0-d array
    would turn into a scalar.  a_3 - mu a_2^2 = P + T e^{i phase} with
    P = (q - mu) a_2^2 and T = t m2 both real, so

        |P + T e^{i phase}|^2 = (|P| - |T|)^2 + 4 |P| |T| k^2,

    where k is cos(phase / 2) if P and T share a sign and sin(phase / 2) if
    they do not: no complex number.  Those signs are the signs of q - mu and
    t, fixed per class.  `k2` is k^2 at each point (`_half_angle_k2`), or 1
    where T is aligned with P and 0 where it is against it, as at the
    search's extremes (`_float_delta`).  At each point |P| and |T| are
    scaled by 2^-e, e the binary exponent of the larger, into [0, 1) before
    they are squared, and the modulus back by 2^e.  The scaling is exact, so
    no square under- or overflows anywhere from G(3.8e-309) to M(1.3e154),
    and the bits are those of the unscaled formula wherever it stays in
    range; `scale=False` skips it where `_scale_free` proves it changes no
    bit.

    The callers check their points, or draw them on the body.  `out`, if
    given, holds work arrays (a2, p, t, k, e) like the points, e of np.intc,
    a2 and t possibly m1 and m2, which only they read: nothing is allocated.
    """
    a2, p, t, k, e = (None,) * 5 if out is None else out
    a2 = np.multiply(abs(body.s), m1, out=a2)  # |a_2|, as m1 >= 0
    p = np.multiply(abs(body.q - functional.MU), a2, out=p)
    p *= a2  # |P|
    t = np.multiply(abs(body.t), m2, out=t)  # |T|
    if scale:
        e = np.frexp(np.maximum(p, t, out=k), out=(k, e))[1]
        np.negative(e, out=e)
        np.ldexp(p, e, out=p)
        np.ldexp(t, e, out=t)
        np.negative(e, out=e)
    k = np.multiply(k2, p, out=k)
    k *= t
    k *= 4.0  # 4 |P| |T| k^2, scaled
    p -= t
    p *= p
    p += k
    r = np.sqrt(p, out=p)
    if scale:
        np.ldexp(r, e, out=r)  # |a_3 - mu a_2^2|
    r -= a2
    r *= 0.5
    return r


def _scale_free(body) -> bool:
    """Whether `_delta` gives the same bits without its scaling at every
    point `bound_violation_scan` draws on the class row `body`: where each
    of |s|, |q - mu|, |t|, reach and c0 is 0 or in [2^-32, 2^32], as on S,
    U(lam >= 2^-32), M(alpha <= 2147483647.5) and G(alpha >=
    1.3969838619232178e-09).  A draw u is 0 or in [2^-53, 1) and cap(m1) is
    c0 or at least 2^-53, so m1, m2, |a_2|, |P|, |T| and k^2 (3.7e-33 or
    more) are 0 or in [2^-266, 2^160], and |P| - |T| is 0 or at least
    2^-318 in modulus: every nonzero product, square and sum of `_delta`
    lies in [2^-636, 2^322], and in [2^-958, 4] scaled by 2^-e or 2^-2e
    (e <= 161).  Both are normal, where a scaling by a power of 2 is exact
    and commutes with every rounding.  Elsewhere (M(1e150), G(1e-300)) the
    scan scales, as `body_delta` and the searches, on any points, always do.
    """
    fields = (body.s, body.q - functional.MU, body.t, body.reach, body.c0)
    return all(x == 0.0 or 2.0**-32 <= abs(x) <= 2.0**32 for x in fields)


def _half_angle_k2(body, half, out=None):
    """k^2 of `_delta` at the phases 2 half of a class's points, from one trig call per point.

    tan(half) gives cos^2 = 1 / (1 + tan^2) and sin^2 = tan^2 / (1 + tan^2).
    tan has period pi, as cos^2 and sin^2 do, and tan^2 is finite at every
    double half, since no double lies on a pole.  numpy's float64 tan took
    about 23 us on an 8192-point block, against 120-140 us for its cos or
    its sin (numpy 2.4.6, AVX-512 Xeon).  Either form keeps delta within
    0.77 ulp of |a_2| + |P| + |T| of its exact value at the point's doubles,
    also at phases near 0, pi and 2 pi, as cos^2 and sin^2 did; at a few
    percent of points its bits differ from theirs, by at most one such ulp.
    At half = fl(pi) / 2, tan^2 is 2.7e32 and cos^2 3.7e-33, not 0.  `out`
    takes k^2, and `half` the sin form's 1 + tan^2: nothing is allocated.
    """
    k = np.tan(half, out=out)
    k *= k  # tan^2, finite at every double half
    if (body.q > functional.MU) == (body.t > 0.0):
        k += 1.0
        np.reciprocal(k, out=k)  # cos^2 = 1 / (1 + tan^2)
    else:
        k /= np.add(k, 1.0, out=None if out is None else half)  # sin^2 = tan^2 / (1 + tan^2)
    return k


def body_delta(spec: ClassSpec, m1, m2, phase):
    """delta at body points; broadcasts over array inputs.

    The body of each class, and its map to (a_2, a_3), is `classes._body`;
    delta is evaluated by `_delta` with k^2 from `_half_angle_k2`, as the
    random scan evaluates it.  At phase fl(pi), the double nearest pi,
    cos^2(phase / 2) is 3.7e-33, not 0, so delta there is within one ulp of
    |a_2| + |P| + |T| of the search's value at its phase pi, where
    e^{i pi} = -1 exactly.  Refuses with ValueError a coordinate that is not
    finite and a point outside the body: m1 outside [0, m1 range] or m2
    outside [0, cap(m1)].
    """
    m1, m2, phase = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (m1, m2, phase)))
    body = _body(spec)
    # cap(m1) is computed only once m1 is known to be in range.
    on_body = (
        ((0.0 <= m1) & (m1 <= body.reach)).all()
        and ((0.0 <= m2) & (m2 <= body.cap(m1))).all()
        and np.isfinite(phase).all()
    )
    if not on_body:
        raise ValueError(f"body points must be finite with 0 <= m1 <= {body.reach!r} and "
                         f"0 <= m2 <= cap(m1) for {spec.label()}")
    d = _delta(body, m1.ravel(), m2.ravel(), _half_angle_k2(body, 0.5 * phase.ravel()))
    return d.reshape(m1.shape)[()]


@dataclass(frozen=True)
class SearchResult:
    """Exact extremes of delta over a coefficient body.

    argmin and argmax hold the body coordinates (m1, m2, phase) of the
    points where delta takes the reported values, with phase 0 or pi, and
    phase pi meaning e^{i pi} = -1 exactly.  argmax has m1 = 0 or the
    body's reach, and argmin the m1 of `_min_m1`.  The values are `_delta`
    at k^2 = 1 (max) and 0 (min); body_delta at the reported args is within
    one ulp of |a_2| + |P| + |T| of them, since it reads phase pi as fl(pi).
    """

    spec: ClassSpec
    min_delta: float
    max_delta: float
    argmin: dict
    argmax: dict
    note: str = field(default=BODY_NOTE)

    def as_dict(self) -> dict:
        return {
            "class": self.spec.label(),
            "min_delta": self.min_delta,
            "max_delta": self.max_delta,
            "argmin": dict(self.argmin),
            "argmax": dict(self.argmax),
            "note": self.note,
        }


def _min_m1(body) -> float:
    """m1 of the minimum of delta over the body, in closed form from the class's row of floats.

    With p = |q - mu| s^2, |P| = p m1^2 and cap = c0 + c2 m1^2,
    2 delta_min = max(|P| - |t| cap, 0) - |s| m1.  Up to its kink at
    sqrt(|t| c0 / D), D = p - |t| c2 > 0, that is -|s| m1, which decreases;
    beyond it, |P| - |t| cap - |s| m1, convex with its vertex at |s| / (2 D).
    So the minimum on [0, reach] is at the vertex clipped to
    [min(kink, reach), reach].  p is formed as |q - mu| s before the second
    s, so that s^2 does not underflow at G(1e-300).
    """
    s, t = abs(body.s), abs(body.t)
    d = abs(body.q - functional.MU) * s * s - t * body.c2
    kink = math.sqrt(t * body.c0 / d)
    return min(max(s / (2.0 * d), min(kink, body.reach)), body.reach)


def _float_delta(body, m1: float, m2: float, k2: float) -> float:
    """`_delta` at one point of one class, in Python floats, step for step."""
    a2 = abs(body.s) * m1
    p = abs(body.q - functional.MU) * a2 * a2
    t = abs(body.t) * m2
    e = math.frexp(max(p, t))[1]
    p, t = math.ldexp(p, -e), math.ldexp(t, -e)
    r = math.sqrt((p - t) * (p - t) + k2 * p * t * 4.0)
    return (math.ldexp(r, e) - a2) * 0.5


def body_search(spec: ClassSpec) -> SearchResult:
    """Exact extremes of delta over the body, by a one-variable reduction.

    For fixed m1 the maximum over (m2, phase) puts m2 at the cap with t w
    aligned with P; the minimum puts m2 at min(cap, |P|/|t|), anti-aligned.
    What is left of the maximum is a quadratic in m1 with negative slope at
    0, so it sits at m1 = 0 or reach, and a tie goes to m1 = 0.  What is left
    of the minimum decreases up to its kink and is a convex quadratic beyond
    it, so it sits at that quadratic's vertex clipped to [min(kink, reach),
    reach] (`_min_m1`).  These three m1 are all the search evaluates, and
    `tests/test_symbolic.py` proves that they hold the extremes.  A class
    whose map overflows is refused with ValueError by `classes._body`, and
    each point goes through the checks of `body_delta`, so a point that is
    not finite is refused too.

    The search runs in Python floats, with no numpy call, since numpy's
    first use of each operation in a process costs more than the about 20
    flops of one class: the first search of M(1) in a fresh process took a
    median 509 us through numpy arrays and 54 us in floats (numpy 2.4.6,
    2-vCPU Xeon VM).  A class sweep calls it once per class, at 10-14 us a
    class once warm (`timeit` on M(1), U(0.5) and G(0.5), same machine).
    """
    body = _body(spec)
    points = []
    for m1, k2 in ((0.0, 1.0), (body.reach, 1.0), (_min_m1(body), 0.0)):
        a2 = body.s * m1
        p, cap = (body.q - functional.MU) * a2 * a2, body.c0 + body.c2 * m1 * m1
        against = p < 0.0 < body.t or body.t < 0.0 < p  # from the signs, as p t underflows
        phase = math.pi if against == (k2 == 1.0) else 0.0
        m2 = cap if k2 == 1.0 else min(cap, abs(p) / abs(body.t))
        if not (0.0 <= m1 <= body.reach and 0.0 <= m2 <= cap):
            body_delta(spec, m1, m2, phase)  # refuses it, in its own words
        points.append((_float_delta(body, m1, m2, k2), {"m1": m1, "m2": m2, "phase": phase}))
    zero, reach, (d_min, argmin) = points
    d_max, argmax = reach if reach[0] > zero[0] else zero  # ties go to m1 = 0
    return SearchResult(spec=spec, min_delta=d_min, max_delta=d_max, argmin=argmin, argmax=argmax)


# -- catalog family sweeps ---------------------------------------------------


class SweepRow(NamedTuple):
    param: float
    delta: float


def family_sweep(label, param_grid):
    """delta along a one-parameter catalog family, one row per parameter value.

    The swept parameter is the entry's class parameter, or theta for an entry
    without one (see `catalog.FAMILIES`).  delta is rotation invariant, so
    every member is taken at theta = 0, and a family whose only parameter is
    theta is built once: each row carries that one member's delta, and an
    empty grid builds nothing.  A theta that is not finite is refused as its
    build would refuse it.  Any other family builds no member: its row
    (`catalog.Family.row`) is taken on the whole grid as an array, and
    gamma_1 and gamma_2 of that stack of rows come from one
    `functional._stacked_log_coefficients` call, which gives every member the
    bits of `functional.delta` on it alone.  A refusal names the first
    parameter in grid order that a loop of single builds and deltas would
    refuse, in that loop's words: a parameter the constructor refuses
    (`catalog.Family.inside`, `catalog.Row.finite`) is refused by a build at
    it, after the gammas of the members before it.
    """
    family = catalog.FAMILIES.get(label)
    if family is None or family.sweep is None:
        sweepable = sorted(k for k, fam in catalog.FAMILIES.items() if fam.sweep)
        raise ValueError(f"{label!r} is not sweepable; choose one of {sweepable}")
    grid = list(map(float, param_grid))
    if family.kind is None:
        for theta in grid:
            catalog._check_finite(("theta", theta))
        d = functional.delta(catalog.make(label)) if grid else None
        return list(map(SweepRow, grid, [d] * len(grid)))
    params = np.array(grid)
    with np.errstate(all="ignore"):
        built = family.inside(params) & family.row(params).finite
    stop = len(grid) if built.all() else int(built.argmin())

    def name(i):
        return functional._named(catalog.make(label, lam=grid[i], alpha=grid[i]))

    g = functional._stacked_log_coefficients(family.row(params[:stop]), 2, name)
    if stop < len(grid):
        catalog.make(label, lam=grid[stop], alpha=grid[stop])  # refuses it, in its own words
    return list(map(SweepRow, grid, (np.abs(g[:, 1]) - np.abs(g[:, 0])).tolist()))


# -- randomized bound checks -------------------------------------------------

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) with Vigna's finaliser:
# output k of seed s is mix(s + (k + 1) gamma mod 2^64), so any stretch of the
# stream is drawn without the outputs before it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)


def _stream_index(count: int, step: int = 1) -> np.ndarray:
    """i step gamma mod 2^64 for i in [0, count), read-only.

    Before mixing, outputs start, start + step, ... of seed s are this index
    plus the one constant s + (start + 1) gamma, whatever s and start: a scan
    builds it once and shares it among all its draws.
    """
    x = np.arange(0, step * count, step, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x.flags.writeable = False
    return x


def _splitmix64(seed: int, start: int, index: np.ndarray, x=None, t=None) -> np.ndarray:
    """Outputs start, start + step, ..., start + (count - 1) step of the
    SplitMix64 stream of seed, where `index` is a `_stream_index` of count
    entries and this step.

    The constant seed + (start + 1) gamma is reduced modulo 2^64 in Python
    ints, then every step is in place on uint64 arrays, which wrap modulo
    2^64 without a warning, where numpy scalars would overflow with one.
    `x` and `t`, if given, are uint64 arrays like `index` for the outputs
    and the shift's scratch.
    """
    x = np.add(index, np.uint64((int(seed) + (start + 1) * _GAMMA) % 2**64), out=x)
    t = np.empty_like(x) if t is None else t
    for shift, mult in _MIX:
        np.right_shift(x, shift, out=t)
        x ^= t
        x *= mult
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _unit_doubles(seed: int, start: int, index: np.ndarray, out=None, bits=()) -> np.ndarray:
    """The same outputs as doubles in [0, 1): the top 53 bits times 2^-53,
    into `out` if given, drawn in the arrays `bits` of `_splitmix64`.

    After the shift every output is below 2^53, so its int64 view converts
    exactly, and faster than a uint64 cast.
    """
    x = _splitmix64(seed, start, index, *bits)
    x >>= np.uint64(11)
    return np.multiply(x.view(np.int64), 2.0**-53, out=out)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a randomized body scan against the closed-form bounds."""

    spec: ClassSpec
    samples: int
    seed: int
    violations: int
    min_delta: float
    max_delta: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {
            "class": self.spec.label(),
            "samples": self.samples,
            "seed": self.seed,
            "generator": SCAN_GENERATOR,
            "violations": self.violations,
            "min_delta": self.min_delta,
            "max_delta": self.max_delta,
            "passed": self.passed,
        }


def bound_violation_scan(spec: ClassSpec, samples: int = 100_000, seed: int = 0) -> ScanResult:
    """Sample the body at random and count samples whose delta escapes the
    closed-form bounds by more than SCAN_TOLERANCE times the larger bound in
    modulus.

    The draw is uniform in (m1, m2 / cap(m1), phase), not uniform over the
    body's area.  Sample i reads outputs 3i, 3i + 1 and 3i + 2 of the
    SplitMix64 stream of seed (see `_splitmix64`) as m1 / reach,
    m2 / cap(m1) and phase / (2 pi).  The seed alone fixes the samples, on
    every numpy version, and a scan of N samples is the first N samples of
    any longer scan with the same seed.  Each block of _SCAN_BLOCK samples
    draws its own outputs, each coordinate as every third output from its
    own offset: one `_stream_index` of step 3, built once per scan and shared
    read-only by every block and coordinate, plus that offset's constant.  A
    block is evaluated at once by `_delta`, the kernel of `body_delta`,
    with k^2 from one tan per sample (`_half_angle_k2`), so no array spans
    the whole scan.  Every step writes into eight arrays of at most 64 KiB,
    allocated once per scan; the kernel skips its scaling where `_scale_free`
    admits the class, and only a block whose min or max crosses a bound
    counts its violations.  Every step is elementwise or an exact reduction,
    so the result is that of one `body_delta` call over all samples, bit for
    bit.  The samples are on the body by construction; a block whose min or
    max delta is not finite is refused with ValueError, as are samples that
    are not an integer in [1, MAX_SAMPLES] and a seed that is not an integer
    in [0, 2^64); a bool is not an integer here.
    """
    if not _is_integer(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}], got {samples}")
    # np.uint64 would truncate a fractional seed, aliasing it to an integer one.
    if not (_is_integer(seed) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, {SEED_LIMIT - 1}], got {seed}")
    samples, seed = int(samples), int(seed)  # as_dict's values are then JSON's
    body = _body(spec)
    pair = bound_delta(spec)
    slack = SCAN_TOLERANCE * max(abs(pair.lower), abs(pair.upper))
    lower, upper = pair.lower - slack, pair.upper + slack
    lo, hi, violations = math.inf, -math.inf, 0
    n, scale = min(samples, _SCAN_BLOCK), not _scale_free(body)
    # The index, then the arrays every block runs in, allocated once per scan
    # and one by one: as one 2-D array they were fresh pages, 142 minor faults
    # in a cold scan job against 13.
    arrays = [_stream_index(n, 3)]
    arrays += [np.empty(n, dtype) for dtype in [np.uint64] * 2 + [float] * 5 + [np.intc]]
    for start in range(0, samples, _SCAN_BLOCK):
        n = min(samples - start, _SCAN_BLOCK)  # the scan's last block may be shorter
        block, *draw, m1, m2, half, k2, p, e = (x[:n] for x in arrays)
        # Coordinate j of sample i is output 3i + j: three contiguous draws.
        _unit_doubles(seed, 3 * start, block, m1, draw)
        m1 *= body.reach
        _unit_doubles(seed, 3 * start + 1, block, m2, draw)
        np.multiply(m1, body.c2, out=half)  # cap(m1), in _Body.cap's order
        half *= m1
        half += body.c0
        m2 *= half
        _unit_doubles(seed, 3 * start + 2, block, half, draw)
        half *= math.pi  # phase / 2, the bits of 0.5 * (u * 2 pi)
        _half_angle_k2(body, half, k2)
        # |a_2|, |T| and 4 |P| |T| k^2 overwrite m1, m2 and half, which are not read again.
        d = _delta(body, m1, m2, k2, scale=scale, out=(m1, p, m2, half, e))
        d_min, d_max = float(d.min()), float(d.max())  # a NaN carries through both
        if not (math.isfinite(d_min) and math.isfinite(d_max)):
            raise ValueError(f"{spec.label()} scan: delta not finite in block from sample {start}")
        lo, hi = min(lo, d_min), max(hi, d_max)
        if d_min < lower or d_max > upper:  # a block inside both bounds adds 0
            violations += int(np.count_nonzero(d < lower)) + int(np.count_nonzero(d > upper))
    return ScanResult(
        spec=spec,
        samples=samples,
        seed=seed,
        violations=violations,
        min_delta=lo,
        max_delta=hi,
    )
