"""Randomized drivers shared by the unit and acceptance tests.

Two families live here:

* ``interval_containment_fuzz`` -- vectorized random workloads over every
  ``IntervalArray`` operation (with add, sub, mul and square also on lanes
  near overflow and on subnormal lanes) and the monotone
  ``segment_area_below`` enclosure, checking that the float truth of each lane
  stays inside the computed enclosure (or that the lane is honestly
  poisoned when the operation left its domain), and that sampled lanes
  enclose the exact image of the whole lane (rational arithmetic, or mpmath
  at 50 digits for ``acos`` and ``segment_area_below``);
* ``hypothesis_samples`` -- random points drawn inside a catalog system's
  variable box that meet *all* of its orderings and at which all of its
  hypotheses are certainly true, produced by a per-system proposal
  distribution and filtered by the system's own orderings and certainty
  masks on point lanes, so the samples cannot drift from the catalog.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from diskpack.geometry import T_inv, segment_area_below, sigma, z_below
from diskpack.iarrays import IntervalArray
from diskpack.prover.catalog import _height_cap, _S1_HI, _S1_LO

# ---------------------------------------------------------------------------
# Interval containment fuzzing
# ---------------------------------------------------------------------------


def _enclose(rng: np.random.Generator, points: np.ndarray, scale: float) -> IntervalArray:
    """Random interval enclosing each point; some lanes degenerate to points."""
    lo_pad = rng.uniform(0.0, scale, points.shape)
    hi_pad = rng.uniform(0.0, scale, points.shape)
    exact = rng.random(points.shape) < 0.25
    lo_pad[exact] = 0.0
    hi_pad[exact] = 0.0
    return IntervalArray(points - lo_pad, points + hi_pad)


def _magnitude_lanes(
    rng: np.random.Generator, lanes: int, lo_exp: float, hi_exp: float
) -> "tuple[IntervalArray, np.ndarray, np.ndarray]":
    """Lanes whose ends have magnitudes 10**U(lo_exp, hi_exp): half of them
    straddle zero, the rest have one random sign; a quarter are points.
    Returns the lanes, a point inside each, and the straddle mask."""
    a, b = 10.0 ** rng.uniform(lo_exp, hi_exp, (2, lanes))
    straddle = rng.random(lanes) < 0.5
    sign = np.where(rng.random(lanes) < 0.5, -1.0, 1.0)
    lo = np.where(straddle, -a, sign * np.minimum(a, b))
    hi = np.where(straddle, b, sign * np.maximum(a, b))
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    u = rng.random(lanes)
    p = np.clip(lo * (1.0 - u) + hi * u, lo, hi)
    point = (rng.random(lanes) < 0.25) & ~straddle
    lo = np.where(point, p, lo)
    hi = np.where(point, p, hi)
    return IntervalArray(lo, hi), p, straddle


def _magnitude(x: IntervalArray) -> np.ndarray:
    return np.maximum(np.abs(x.lo), np.abs(x.hi))


def _ends(v: "IntervalArray | float | None", i: int) -> "tuple[Fraction, Fraction] | None":
    if v is None:
        return None
    if isinstance(v, IntervalArray):
        return Fraction(float(v.lo[i])), Fraction(float(v.hi[i]))
    c = Fraction(v)
    return c, c


def _exact_range(
    op: str, x: "tuple[Fraction, Fraction]", y: "tuple[Fraction, Fraction] | None"
):
    """The exact image of the lane(s) under op, in rational arithmetic; for
    sqrt, the range of the radicand the result's squared ends must cover.
    A divisor lane must not contain zero."""
    xl, xh = x
    if op == "sqrt":
        return max(xl, Fraction(0)), xh
    if op == "square":
        squares = (xl * xl, xh * xh)
        return (Fraction(0) if xl < 0 < xh else min(squares)), max(squares)
    yl, yh = y
    if op == "add":
        return xl + yl, xh + yh
    if op == "sub":
        return xl - yh, xh - yl
    if op == "div":
        yl, yh = 1 / yh, 1 / yl
    products = (xl * yl, xl * yh, xh * yl, xh * yh)
    return min(products), max(products)


def _mp_segment_area(c: "mp.mpf") -> "mp.mpf":
    return mp.acos(c) - c * mp.sqrt(1 - c * c)


class _Tally:
    """Accumulates (checks, violations) over the fuzz battery."""

    def __init__(self) -> None:
        self.checks = 0
        self.violations = 0

    def check(
        self,
        result: IntervalArray,
        truth: np.ndarray,
        domain_clean: "np.ndarray | None" = None,
    ) -> None:
        # Soundness: whenever the real operation is defined, the lane either
        # contains the truth or is poisoned (NaN = honest "don't know").
        poisoned = result.poisoned()
        defined = np.isfinite(truth)
        outside = defined & ~poisoned & ((truth < result.lo) | (truth > result.hi))
        bad = outside
        # Quality: a lane whose inputs never left the domain must not poison.
        if domain_clean is not None:
            bad = bad | (domain_clean & poisoned)
        self.checks += truth.size
        self.violations += int(np.count_nonzero(bad))

    def check_exact(
        self,
        op: str,
        result: IntervalArray,
        x: "IntervalArray | float",
        y: "IntervalArray | float | None",
        lanes: np.ndarray,
    ) -> None:
        # Soundness against the exact image of the whole lane: a float truth
        # is rounded like the endpoints themselves, so it cannot show an
        # endpoint that rounded inward; a rational one can.  A float operand
        # is a point lane.  Poisoned lanes and infinite ends on their own
        # side are sound; an infinite end on the other side (a lower end of
        # +inf, an upper end of -inf) misses every finite image and is a
        # violation.  sqrt compares the squared ends with the radicand.
        for i in lanes:
            lo, hi = float(result.lo[i]), float(result.hi[i])
            if math.isnan(lo) or math.isnan(hi):
                continue
            exact_lo, exact_hi = _exact_range(op, _ends(x, i), _ends(y, i))
            if lo == math.inf or hi == -math.inf:
                below = above = False
            elif op == "sqrt":
                below = lo <= 0.0 or Fraction(lo) ** 2 <= exact_lo
                above = hi == math.inf or (hi >= 0.0 and exact_hi <= Fraction(hi) ** 2)
            else:
                below = lo == -math.inf or Fraction(lo) <= exact_lo
                above = hi == math.inf or exact_hi <= Fraction(hi)
            self.checks += 1
            self.violations += int(not (below and above))

    def check_nonincreasing(
        self, f, result: IntervalArray, x: IntervalArray, lanes: np.ndarray
    ) -> None:
        # f is nonincreasing on [-1, 1], so the exact image of a lane
        # clamped to [-1, 1] runs from f at its upper end to f at its lower
        # end; mpmath evaluates both at 50 digits, far below a double's ulp.
        with mp.workdps(50):
            for i in lanes:
                lo, hi = float(result.lo[i]), float(result.hi[i])
                if math.isnan(lo) or math.isnan(hi):
                    continue
                exact_lo = f(mp.mpf(min(float(x.hi[i]), 1.0)))
                exact_hi = f(mp.mpf(max(float(x.lo[i]), -1.0)))
                self.checks += 1
                self.violations += int(not (lo <= exact_lo and exact_hi <= hi))


def interval_containment_fuzz(seed: int, lanes: int) -> "tuple[int, int]":
    """Run a containment-fuzz battery; return (checks_performed, violations).

    Each battery entry evaluates one operation on random interval inputs and
    the same operation on real points inside those inputs.  One check is one
    lane of one operation.
    """
    rng = np.random.default_rng(seed)
    tally = _Tally()

    # Points across several magnitudes, including negatives and zeros.
    scale_bank = np.array([1e-8, 1e-3, 1.0, 1e3, 1e8])
    scales = scale_bank[rng.integers(0, scale_bank.size, lanes)]
    px = rng.uniform(-1.0, 1.0, lanes) * scales
    py = rng.uniform(-1.0, 1.0, lanes) * scales
    px[rng.random(lanes) < 0.05] = 0.0
    x = _enclose(rng, px, 0.1)
    y = _enclose(rng, py, 0.1)
    x = IntervalArray(x.lo * 1.0, x.hi * 1.0)  # defensive copies

    tally.check(x + y, px + py, domain_clean=np.ones(lanes, bool))
    tally.check(x - y, px - py, domain_clean=np.ones(lanes, bool))
    tally.check(x * y, px * py, domain_clean=np.ones(lanes, bool))
    tally.check(-x, -px, domain_clean=np.ones(lanes, bool))
    tally.check(x.square(), px * px, domain_clean=np.ones(lanes, bool))
    tally.check(x.min_with(y), np.minimum(px, py), domain_clean=np.ones(lanes, bool))
    tally.check(x.max_with(y), np.maximum(px, py), domain_clean=np.ones(lanes, bool))

    # Exact checks sample lanes from their own stream, so the battery's
    # inputs are the same with or without them.
    pick = np.random.default_rng((seed, 1))
    some = pick.choice(lanes, size=min(lanes, 64), replace=False)

    # Scalar fast paths, both signs plus the annihilating zero; a divisor
    # of 3 rounds, where a power of two would not.
    for op, r, a, b, truth in (
        ("mul", x * 3.5, x, 3.5, px * 3.5),
        ("mul", -2.25 * x, x, -2.25, -2.25 * px),
        ("mul", x * 0.0, x, 0.0, px * 0.0),
        ("div", x / 4.0, x, 4.0, px / 4.0),
        ("div", x / -0.5, x, -0.5, px / -0.5),
        ("div", x / 3.0, x, 3.0, px / 3.0),
        ("div", x / -3.0, x, -3.0, px / -3.0),
        ("add", x + 1.25, x, 1.25, px + 1.25),
        ("add", 1.25 + x, x, 1.25, 1.25 + px),
        ("sub", 1.0 - x, 1.0, x, 1.0 - px),
        ("sub", x - 1.0, x, 1.0, px - 1.0),
    ):
        tally.check(r, truth, domain_clean=np.ones(lanes, bool))
        tally.check_exact(op, r, a, b, some)

    # Division by an interval bounded away from zero is domain-clean.
    dsign = np.where(rng.random(lanes) < 0.5, -1.0, 1.0)
    pd = dsign * rng.uniform(0.25, 4.0, lanes) * scales
    d = _enclose(rng, pd, 0.05)
    clean_div = (d.lo > 0) | (d.hi < 0)
    quot_d, recip_d = x / d, 2.0 / d
    tally.check(quot_d, px / pd, domain_clean=clean_div)
    tally.check(recip_d, 2.0 / pd, domain_clean=clean_div)
    clean = np.flatnonzero(clean_div)
    some_clean = pick.choice(clean, size=min(clean.size, 64), replace=False)
    tally.check_exact("div", quot_d, x, d, some_clean)
    tally.check_exact("div", recip_d, 2.0, d, some_clean)

    # Division through zero must poison, never lie.
    z_lo = -rng.uniform(0.1, 1.0, lanes)
    z_hi = rng.uniform(0.1, 1.0, lanes)
    straddle = IntervalArray(z_lo, z_hi)
    quot = x / straddle
    tally.checks += lanes
    tally.violations += int(np.count_nonzero(~quot.poisoned()))

    # sqrt on nonnegative lanes is domain-clean; on straddling lanes the
    # negative part is clamped and only nonnegative truths apply.
    pnn = np.abs(px)
    xnn = _enclose(rng, pnn, 0.05)
    xnn = IntervalArray(np.maximum(xnn.lo, 0.0), xnn.hi)
    root = xnn.sqrt()
    tally.check(root, np.sqrt(pnn), domain_clean=np.ones(lanes, bool))
    tally.check_exact("sqrt", root, xnn, None, some)
    part = IntervalArray(px - np.abs(px) - 0.5, np.abs(px) + 0.5)  # straddles 0
    truth_nn = np.where(px >= 0.0, np.sqrt(np.abs(px)), np.nan)
    root = part.sqrt()
    tally.check(root, truth_nn, domain_clean=np.ones(lanes, bool))
    tally.check_exact("sqrt", root, part, None, some)

    # acos on lanes inside [-1, 1].
    pu = rng.uniform(-1.0, 1.0, lanes)
    u = _enclose(rng, pu, 0.02)
    u = IntervalArray(np.maximum(u.lo, -1.0), np.minimum(u.hi, 1.0))
    arc = u.acos()
    tally.check(arc, np.arccos(pu), domain_clean=np.ones(lanes, bool))
    tally.check_nonincreasing(mp.acos, arc, u, some)

    # segment_area_below on enclosures: the nonincreasing f evaluated at the
    # two clamped ends of each lane.  Lanes inside [-1, 1] are domain-clean.
    def area(p: np.ndarray) -> np.ndarray:
        return np.arccos(p) - p * np.sqrt(np.maximum(1.0 - p * p, 0.0))

    seg = segment_area_below(u)
    tally.check(seg, area(pu), domain_clean=np.ones(lanes, bool))
    tally.check_nonincreasing(_mp_segment_area, seg, u, some)

    # Lanes packed toward c -> +-1, where the slope of the square root has no
    # bound: each lane reaches a random multiple of the gap to its end.
    side = np.where(rng.random(lanes) < 0.75, 1.0, -1.0)
    gap = 10.0 ** rng.uniform(-16.0, -1.0, lanes)
    pe = side * (1.0 - gap)
    inward = gap * rng.uniform(0.0, 4.0, lanes)
    outward = gap * rng.random(lanes)
    exact = rng.random(lanes) < 0.25
    inward[exact] = 0.0
    outward[exact] = 0.0
    e = IntervalArray(
        np.maximum(pe - np.where(side > 0, inward, outward), -1.0),
        np.minimum(pe + np.where(side > 0, outward, inward), 1.0),
    )
    seg = segment_area_below(e)
    tally.check(seg, area(pe), domain_clean=np.ones(lanes, bool))
    tally.check_nonincreasing(_mp_segment_area, seg, e, some)

    # A lane that only partly overshoots +-1 is clamped, never poisoned; the
    # truth at an inner point inside [-1, 1] must hold.
    over = rng.uniform(1e-12, 0.5, lanes)
    ov = IntervalArray(np.where(side > 0, pu, -1.0 - over), np.where(side > 0, 1.0 + over, pu))
    seg = segment_area_below(ov)
    tally.check(seg, area(pu), domain_clean=np.ones(lanes, bool))
    tally.check_nonincreasing(_mp_segment_area, seg, ov, some)

    # A lane wholly above 1, wholly below -1 or NaN must poison.
    start = np.nextafter(1.0, 2.0) + rng.uniform(0.0, 1.0, lanes) * (rng.random(lanes) < 0.5)
    outside = IntervalArray(
        np.where(side > 0, start, -(start + over)), np.where(side > 0, start + over, -start)
    )
    nan_lane = rng.random(lanes) < 0.1
    outside.lo[nan_lane & (side > 0)] = np.nan
    outside.hi[nan_lane & (side < 0)] = np.nan
    tally.checks += lanes
    tally.violations += int(np.count_nonzero(~segment_area_below(outside).poisoned()))

    # Lanes near overflow (|x| from 1e154 to 1e308, where squares and
    # products leave the doubles) and lanes of subnormals.  A lane may
    # poison only where its true range reaches past half the largest double
    # and does not contain zero: a range that contains zero has no end
    # beyond the doubles on the wrong side.
    half_max = np.finfo(np.float64).max / 2
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for lo_exp, hi_exp in ((154.0, 308.0), (-323.5, -307.6)):
            bx, pbx, sx = _magnitude_lanes(rng, lanes, lo_exp, hi_exp)
            by, pby, sy = _magnitude_lanes(rng, lanes, lo_exp, hi_exp)
            mx, my = _magnitude(bx), _magnitude(by)
            sum_clean = (mx + my < half_max) | (sx & sy)
            ops = {"add": bx + by, "sub": bx - by, "mul": bx * by, "square": bx.square()}
            tally.check(ops["add"], pbx + pby, domain_clean=sum_clean)
            tally.check(ops["sub"], pbx - pby, domain_clean=sum_clean)
            tally.check(ops["mul"], pbx * pby, domain_clean=(mx * my < half_max) | sx | sy)
            tally.check(ops["square"], pbx * pbx, domain_clean=(mx * mx < half_max) | sx)
            tally.check(bx * 1e-300, pbx * 1e-300, domain_clean=np.ones(lanes, bool))
            sample = rng.choice(lanes, size=min(lanes, 64), replace=False)
            for op, r in ops.items():
                tally.check_exact(op, r, bx, by, sample)

    # Composite expression mixing every op with always-positive denominator.
    w = x.square() + y.square() + 1.0
    expr = (x * y) / w + w.sqrt() - x.min_with(y)
    truth = (px * py) / (px * px + py * py + 1.0) + np.sqrt(
        px * px + py * py + 1.0
    ) - np.minimum(px, py)
    tally.check(expr, truth, domain_clean=np.ones(lanes, bool))

    # Poison must propagate: arithmetic on a poisoned lane never certifies.
    poisoned = quot + x
    bad_cert = (
        poisoned.cert_le(np.inf)
        | poisoned.cert_ge(-np.inf)
        | poisoned.cert_lt(np.inf)
        | poisoned.cert_gt(-np.inf)
    )
    tally.checks += lanes
    tally.violations += int(np.count_nonzero(bad_cert))

    # Certainty masks never lie: certified bounds hold for the inner point.
    s = x + y
    ts = px + py
    for bound in (0.0, 1.0, -3.0):
        tally.checks += 4 * lanes
        tally.violations += int(np.count_nonzero(s.cert_le(bound) & (ts > bound)))
        tally.violations += int(np.count_nonzero(s.cert_lt(bound) & (ts >= bound)))
        tally.violations += int(np.count_nonzero(s.cert_ge(bound) & (ts < bound)))
        tally.violations += int(np.count_nonzero(s.cert_gt(bound) & (ts <= bound)))

    return tally.checks, tally.violations


# ---------------------------------------------------------------------------
# Hypothesis-satisfying samplers for the catalog systems
# ---------------------------------------------------------------------------

_EPS = 1e-9


def _descending_partition(
    rng: np.random.Generator, total: np.ndarray, k: int
) -> np.ndarray:
    """(batch, k) nonnegative descending rows summing to ``total``."""
    w = rng.uniform(0.05, 1.0, (total.size, k))
    w = -np.sort(-w, axis=1)
    w /= w.sum(axis=1, keepdims=True)
    return w * total[:, None]


def _enforce_chain(h: np.ndarray) -> np.ndarray:
    """Clamp each column below its predecessor so rows are descending."""
    for i in range(1, h.shape[1]):
        h[:, i] = np.minimum(h[:, i], h[:, i - 1])
    return h


_point = IntervalArray.from_point


def _propose_tp(rng: np.random.Generator, batch: int) -> "dict[str, np.ndarray]":
    return {"s1": rng.uniform(_S1_LO, _S1_HI, batch)}


def _propose_sc(k: int, sigma_gated: bool):
    def propose(rng: np.random.Generator, batch: int) -> "dict[str, np.ndarray]":
        if sigma_gated:
            # sigma < sn <= h_k forces k*sigma(s1) < 1 + T_inv(s1); that
            # budget only opens near the small end of the s1 range.
            s1_hi = {5: 0.44, 6: 0.38, 7: 0.312}[k]
            s1 = rng.uniform(0.295, s1_hi, batch)
            sig = sigma(_point(s1)).lo
            ti = T_inv(_point(s1)).lo
            slack = np.maximum((1.0 + ti) - k * sig, 0.0)
            fill = rng.uniform(0.55, 0.9995, batch)
            h = sig[:, None] + _descending_partition(rng, slack * fill, k)
        else:
            s1 = rng.uniform(_S1_LO, _S1_HI, batch)
            sig = None
            ti = T_inv(_point(s1)).lo
            fill = rng.uniform(0.55, 0.9995, batch)
            h = _descending_partition(rng, (1.0 + ti) * fill, k)
        caps = np.minimum(s1, np.inf)[:, None] * np.ones(k)
        for i in range(k):
            caps[:, i] = np.minimum(s1, _height_cap(i + 1)) * (1.0 - 1e-12)
        h = _enforce_chain(np.minimum(h, caps))
        z = z_below(_point(s1), [_point(h[:, i]) for i in range(k)]).lo
        if sig is None:
            sn_lo = z
        elif k >= 6:  # LEMMA_SC6/7_SIGMA state no z < sn
            sn_lo = sig
        else:
            sn_lo = np.maximum(z, sig)
        sn_hi = np.minimum(h[:, -1], _height_cap(k))
        u = rng.uniform(1e-6, 1.0 - 1e-6, batch)
        sn = sn_lo + u * (sn_hi - sn_lo)
        sn = np.where(sn_hi > sn_lo, sn, -1.0)  # impossible lanes fail filtering
        env = {"s1": s1, "sn": sn}
        for i in range(k):
            env[f"h{i + 1}"] = h[:, i]
        return env

    return propose


def _propose_msc_neg(rng: np.random.Generator, batch: int) -> "dict[str, np.ndarray]":
    s1 = rng.uniform(_S1_LO, _S1_HI, batch)
    ti = T_inv(_point(s1)).lo
    # H4 = 1 + ti - (h1+h2+h3) must be >= 0: target the sum directly.
    target = rng.uniform(0.0, 1.0, batch) * (1.0 + ti)
    h = _descending_partition(rng, target, 3)
    caps = np.stack([np.minimum(s1, _height_cap(i)) for i in (1, 2, 3)], axis=1)
    h = _enforce_chain(np.minimum(h, caps * (1.0 - 1e-12)))
    h4 = rng.uniform(_EPS, 1.0, batch) * h[:, 2]
    return {"s1": s1, "h1": h[:, 0], "h2": h[:, 1], "h3": h[:, 2], "h4": h4}


def _propose_msc_pos(rng: np.random.Generator, batch: int) -> "dict[str, np.ndarray]":
    # room = T_inv(s1) - (h1+h2+h3) > 0 needs T_inv(s1) > 0, so s1 < 2/sqrt(5).
    s1 = rng.uniform(0.295, 0.894, batch)
    ti = T_inv(_point(s1)).lo
    fill = rng.uniform(0.05, 0.98, batch)
    h = _descending_partition(rng, np.maximum(ti, 0.0) * fill, 3)
    caps = np.stack(
        [np.minimum(s1, 0.695), np.full(batch, 0.348), np.full(batch, 0.232)], axis=1
    )
    h = _enforce_chain(np.minimum(h, caps * (1.0 - 1e-12)))
    lim = np.minimum(h[:, 2], 0.232)
    h_jnext = rng.uniform(0.0, 1.0, batch) * lim
    delta_y = rng.uniform(0.0, 1.0, batch) * lim
    return {
        "s1": s1,
        "h1": h[:, 0],
        "h2": h[:, 1],
        "h3": h[:, 2],
        "h_jnext": h_jnext,
        "delta_y": delta_y,
    }


def proposer_for(name: str):
    """Proposal distribution for a catalog system, keyed by its name.  The
    formulas a proposer needs are evaluated on point lanes and their lower
    ends taken; a proposal is only a candidate, which the certainty masks
    accept or reject."""
    if name.startswith("LEMMA_TP"):
        return _propose_tp
    if name.startswith("LEMMA_SC"):
        k = int(name[len("LEMMA_SC")])
        return _propose_sc(k, sigma_gated=name.endswith("_SIGMA"))
    if name == "LEMMA_MSC_NEG":
        return _propose_msc_neg
    if name == "LEMMA_MSC_POS":
        return _propose_msc_pos
    raise KeyError(name)


def hypothesis_samples(
    system,
    n: int,
    seed: int,
    batch: int = 20000,
    max_rounds: int = 2000,
) -> "dict[str, np.ndarray]":
    """``n`` random points in the variable box that meet every ordering
    and at which every hypothesis is certainly true.

    Candidates come from the system's proposal distribution and are
    evaluated as point lanes; acceptance is decided solely by box
    membership, the system's own orderings and its certainly-true masks,
    so these samples track the catalog by construction.
    """
    rng = np.random.default_rng(seed)
    propose = proposer_for(system.name)
    kept: "dict[str, list[np.ndarray]]" = {v.name: [] for v in system.variables}
    got = 0
    for _ in range(max_rounds):
        raw = propose(rng, batch)
        env = _point_env(system, raw)
        mask = np.ones(batch, bool)
        for v in system.variables:
            mask &= (raw[v.name] >= v.lo) & (raw[v.name] <= v.hi)
        for small, big in system.orderings:
            mask &= raw[small] <= raw[big]
        for hyp in system.hypotheses:
            mask &= hyp.certs(env)[0]
        if mask.any():
            for name in kept:
                kept[name].append(raw[name][mask])
            got += int(np.count_nonzero(mask))
        if got >= n:
            return {name: np.concatenate(parts)[:n] for name, parts in kept.items()}
    raise RuntimeError(
        f"{system.name}: only {got}/{n} hypothesis-satisfying samples "
        f"after {max_rounds} rounds"
    )


def _point_env(system, values: "dict[str, np.ndarray]") -> dict:
    env = {name: _point(v) for name, v in values.items()}
    return system.prepare(env) if system.prepare else env


def conclusion_values(system, samples: "dict[str, np.ndarray]") -> np.ndarray:
    """The certified end of the system's conclusion quantity at each sample,
    evaluated as a point lane: the lower end for a ``>`` conclusion, the
    upper end for ``<=``.  The conclusion is certified at a sample exactly
    where that end meets the bound."""
    v = system.conclusion.fn(_point_env(system, samples))
    return v.lo if system.conclusion.op in (">", ">=") else v.hi


def sample_points(samples: "dict[str, np.ndarray]") -> "list[dict[str, float]]":
    """Each sample as a dict of floats, for the float formulas."""
    names = list(samples)
    return [dict(zip(names, map(float, row))) for row in zip(*samples.values())]
