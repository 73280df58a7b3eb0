"""Acceptance gate: one test per numbered criterion, each printing a single
``criterion N: PASS/FAIL`` line with the measured evidence.

Every criterion runs in the default suite; the slowest are criterion 3's
guarantee sweep (about 2 min) and criterion 8's full prover tier (about 4 s
single-core).
"""

from __future__ import annotations

import math
import random
import resource
import time

import oracles
from diskpack.cli import EXIT_OK, EXIT_PACK_FAILED, main
from diskpack.geometry import CONSTANTS, S1_STAR, T, T_inv, sigma
from diskpack.packer import (
    FailReason,
    gen_random,
    gen_worst_case,
    pack,
    shelf_pack,
    validate,
)
from diskpack.prover import ProofStatus, lemma_catalog, prove
from fuzzers import conclusion_values, hypothesis_samples, interval_containment_fuzz

WORST_SIDE = 2.0 / math.sqrt(5.0)
SQRT_CRIT = math.sqrt(1.6)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _system(name: str):
    return next(s for s in lemma_catalog() if s.name == name)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_critical_instance():
    t0 = time.perf_counter()
    result = pack(gen_worst_case(0.0))
    report = validate(result.packing.placements, 1e-9) if result.ok else None
    elapsed = time.perf_counter() - t0

    ok = (
        result.ok
        and report.ok
        and len(result.packing.placements) == 2
        and all(p.side == WORST_SIDE for p in result.packing.placements)
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"two squares of side 2/sqrt(5) packed (case {result.packing.case}, "
        f"max corner norm {report.max_corner_norm:.12f}) and validated at "
        f"tol 1e-9 in {elapsed:.3f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_impossibility_family(tmp_path):
    t0 = time.perf_counter()
    outcomes = []
    for eps in (1e-3, 1e-2, 1e-1):
        result = pack(gen_worst_case(eps))
        inst = tmp_path / f"eps{eps}.txt"
        code_gen = main(["gen", "--kind", "worst", "--epsilon", str(eps), "--out", str(inst)])
        code_pack = main(["pack", str(inst), "--out", str(tmp_path / "out.txt")])
        outcomes.append(
            not result.ok
            and result.reason is FailReason.AREA_EXCEEDS_GUARANTEE
            and code_gen == EXIT_OK
            and code_pack == EXIT_PACK_FAILED
        )
    elapsed = time.perf_counter() - t0

    ok = all(outcomes) and elapsed < 1.0
    _report(
        2,
        ok,
        "sides 2/sqrt(5)+eps for eps in {1e-3, 1e-2, 1e-1} all refused "
        f"(library reason area-exceeds-guarantee, CLI exit 2) in {elapsed:.3f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_guarantee_sweep():
    dists = ("uniform", "powerlaw", "equal", "adversarial_top4")
    rng = random.Random(328125)

    specs = []
    for dist in dists:  # pin both ends of the n range for every distribution
        specs.append((dist, 4 if dist == "adversarial_top4" else 1, 1.6))
        specs.append((dist, 10_000, 1.6))
    while len(specs) < 10_000:
        dist = dists[len(specs) % 4]
        n = max(1, round(10.0 ** rng.uniform(0.0, 4.0)))
        if dist == "adversarial_top4":
            n = max(n, 4)
        area = 1.6 if rng.random() < 0.7 else rng.uniform(0.05, 1.6)
        specs.append((dist, n, area))

    t0 = time.perf_counter()
    squares = 0
    failure = None
    for i, (dist, n, area) in enumerate(specs):
        inst = gen_random(seed=i, n=n, target_area=area, dist=dist)
        result = pack(inst)
        report = validate(result.packing.placements, 1e-9) if result.ok else None
        if not (result.ok and report.ok):
            failure = (i, dist, n, area)
            break
        squares += n
    elapsed = time.perf_counter() - t0

    ok = failure is None and elapsed < 600.0
    _report(
        3,
        ok,
        f"10000/10000 seeded instances ({squares} squares, areas <= 1.6) "
        f"packed and validate-clean at tol 1e-9 in {elapsed:.1f}s"
        + ("" if failure is None else f"; first failure {failure}"),
    )
    assert ok, (
        f"first failing instance (index, dist, n, area) = {failure}"
        if failure is not None
        else f"sweep took {elapsed:.1f}s, over its 600 s bound"
    )


# ---------------------------------------------------------------- criterion 4


def _shelf_geometry_ok(xs, ys, sides, width, height) -> bool:
    """In-bounds and pairwise-disjoint via the shelf structure: within one
    shelf x-intervals must chain; shelf bases must clear the shelf heights."""
    slop = 1e-9
    shelves: "dict[float, list[tuple[float, float]]]" = {}
    for x, y, s in zip(xs, ys, sides):
        if not (-slop <= x and x + s <= width + slop and -slop <= y and y + s <= height + slop):
            return False
        shelves.setdefault(y, []).append((x, s))
    cursor_top = None
    for base in sorted(shelves):
        row = sorted(shelves[base])
        if cursor_top is not None and base < cursor_top - slop:
            return False
        for (xa, sa), (xb, _) in zip(row, row[1:]):
            if xa + sa > xb + slop:
                return False
        cursor_top = base + max(s for _, s in row)
    return True


def _rect_regime_set(rng: random.Random):
    """A rectangle h x w (h <= w) and a nonincreasing square set with total
    area <= hw/2 inside the half-area guarantee's validity regime: square
    container, or largest side <= h/2, or largest side >= w/2."""
    kind = rng.randrange(3)
    h = rng.uniform(0.4, 1.4)
    if kind == 0:
        w, cap, first = h, h, None
    elif kind == 1:
        w, cap, first = rng.uniform(h, 2.0), h / 2.0, None
    else:
        w = rng.uniform(h, 2.0 * h)
        first = rng.uniform(w / 2.0, h)
        cap = first
    budget = h * w / 2.0

    sides = []
    if first is not None:
        sides.append(min(first, math.sqrt(budget)))
    rem = budget - math.fsum(s * s for s in sides)
    while rem > max((0.15 * cap) ** 2, 1e-12) and len(sides) < 400:
        s = min(cap, math.sqrt(rem)) * rng.uniform(0.15, 1.0)
        sides.append(s)
        rem = budget - math.fsum(x * x for x in sides)
    if rng.random() < 0.5 and rem > 1e-12 and math.sqrt(rem) <= cap:
        sides.append(math.sqrt(rem))  # top up to the exact half-area budget

    sides.sort(reverse=True)
    total = math.fsum(s * s for s in sides)
    if total > budget:  # float roundoff from the top-up: shrink the tail only
        if len(sides) == 1:
            while sides[0] * sides[0] > budget:
                sides[0] = math.nextafter(sides[0], 0.0)
        else:
            head = sides[0] ** 2
            f = math.sqrt(max(budget - head, 0.0) / (total - head)) * (1.0 - 1e-14)
            sides[1:] = [s * f for s in sides[1:]]
    assert math.fsum(s * s for s in sides) <= budget
    return w, h, sides


def _unit_square_set(rng: random.Random):
    """Nonincreasing set with largest side x1 < 1/2 and total area at most
    1/2 + 2*(x1 - 1/2)^2, the threshold below which shelf packing into the
    unit square can never fail."""
    x1 = rng.uniform(0.06, 0.4999)
    budget = 0.5 + 2.0 * (x1 - 0.5) ** 2
    sides = [x1]
    rem = budget - x1 * x1
    while rem > max((0.1 * x1) ** 2, 1e-12) and len(sides) < 400:
        s = min(x1, math.sqrt(rem)) * rng.uniform(0.2, 1.0)
        sides.append(s)
        rem = budget - math.fsum(x * x for x in sides)
    if rng.random() < 0.5 and rem > 1e-12 and math.sqrt(rem) <= x1:
        sides.append(math.sqrt(rem))
    sides.sort(reverse=True)
    total = math.fsum(s * s for s in sides)
    if total > budget:
        f = math.sqrt(max(budget - x1 * x1, 0.0) / (total - x1 * x1)) * (1.0 - 1e-14)
        sides[1:] = [s * f for s in sides[1:]]
    assert sides[0] == x1 and math.fsum(s * s for s in sides) <= budget
    return sides


def test_criterion_4_shelf_guarantees():
    t0 = time.perf_counter()

    rng = random.Random(44)
    rect_failures = 0
    for _ in range(1000):
        w, h, sides = _rect_regime_set(rng)
        xs, ys, fail = shelf_pack(w, h, sides)
        if fail is not None or not _shelf_geometry_ok(xs, ys, sides, w, h):
            rect_failures += 1

    rng = random.Random(45)
    unit_failures = 0
    for _ in range(1000):
        sides = _unit_square_set(rng)
        xs, ys, fail = shelf_pack(1.0, 1.0, sides)
        if fail is not None or not _shelf_geometry_ok(xs, ys, sides, 1.0, 1.0):
            unit_failures += 1

    elapsed = time.perf_counter() - t0
    ok = rect_failures == 0 and unit_failures == 0 and elapsed < 60.0
    _report(
        4,
        ok,
        f"1000/1000 half-area rectangle sets and 1000/1000 unit-square sets "
        f"(x1 < 1/2, area <= 1/2 + 2(x1-1/2)^2) shelf-packed disjoint and "
        f"in-bounds in {elapsed:.1f}s",
    )
    assert ok, (rect_failures, unit_failures)


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_geometry_oracle_equivalence():
    t0 = time.perf_counter()

    worst_sigma = 0.0
    for i in range(1000):
        s1 = 0.295 + (SQRT_CRIT - 0.295) * i / 999.0
        worst_sigma = max(worst_sigma, abs(sigma(s1) - oracles.sigma_bisect(s1)))

    worst_ts = 0.0
    for i in range(1000):
        s = 1e-6 + (math.sqrt(2.0) - 1e-6) * i / 999.0
        worst_ts = max(worst_ts, abs(T(T_inv(s)) - s))
    for i in range(1000):
        u = -0.7071 + (0.9999 + 0.7071) * i / 999.0
        s = T(u)
        if 0.0 < s <= math.sqrt(2.0):
            worst_ts = max(worst_ts, abs(T_inv(s) - u))

    ti = T_inv(S1_STAR)
    resting = (-S1_STAR - 2.0 * ti + math.sqrt(8.0 - (S1_STAR - 2.0 * ti) ** 2)) / 4.0
    centered = (math.sqrt(20.0 - S1_STAR**2) - 2.0 * S1_STAR) / 5.0
    branch_gap = abs(resting - centered)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_sigma <= 1e-9
        and worst_ts <= 1e-12
        and branch_gap <= 1e-10
        and elapsed < 10.0
    )
    _report(
        5,
        ok,
        f"sigma vs bisection max |diff| {worst_sigma:.2e} on 1000 grid points, "
        f"T round-trip max |diff| {worst_ts:.2e}, branch gap at s1* "
        f"{branch_gap:.2e}, in {elapsed:.1f}s",
    )
    assert ok
    assert CONSTANTS.s1_star == S1_STAR


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_interval_soundness_fuzz():
    t0 = time.perf_counter()
    checks = violations = 0
    for seed in (20260825, 1, 2):
        c, v = interval_containment_fuzz(seed, lanes=12_000)
        checks += c
        violations += v
    elapsed = time.perf_counter() - t0

    ok = checks >= 1_000_000 and violations == 0 and elapsed < 60.0
    _report(
        6,
        ok,
        f"{checks} random containment checks across all interval operations, "
        f"{violations} violations, in {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_fast_proof_tier():
    budgets = (("LEMMA_TP1", 60.0), ("LEMMA_TP2", 60.0), ("LEMMA_SC1", 600.0))
    rows = []
    ok = True
    for name, limit in budgets:
        result = prove(_system(name))
        rows.append(
            f"{name} {result.status.value} in {result.stats.wall_time_s:.2f}s "
            f"({result.stats.boxes_explored} boxes)"
        )
        ok = ok and result.status is ProofStatus.PROVED
        ok = ok and result.stats.undecided_count == 0
        ok = ok and result.stats.wall_time_s < limit
    _report(7, ok, "; ".join(rows))
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_full_proof_tier():
    t0 = time.perf_counter()
    rows = []
    proved = undecided = 0
    for system in lemma_catalog():
        result = prove(system)
        proved += result.status is ProofStatus.PROVED
        undecided += result.stats.undecided_count
        rows.append(
            f"    {system.name:18s} {result.status.value:9s} "
            f"boxes={result.stats.boxes_explored:>11d} "
            f"depth={result.stats.max_depth_reached:>3d} "
            f"time={result.stats.wall_time_s:9.2f}s"
        )
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = proved == len(rows) and undecided == 0 and wall < 120.0
    _report(
        8,
        ok,
        f"{proved} of {len(rows)} catalog systems proved with {undecided} "
        f"undecided boxes, in {wall:.1f}s wall (bound 120 s, single process), peak RSS "
        f"{rss_mb:.0f} MB of the test process",
    )
    print("\n".join(rows), flush=True)
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_bound_function_sampling():
    t0 = time.perf_counter()
    worst = None
    count = 0
    for system in lemma_catalog():
        if system.name.startswith("LEMMA_TP"):
            continue
        samples = hypothesis_samples(system, 100_000, seed=20260825)
        values = conclusion_values(system, samples)
        count += values.shape[0]
        low = float(values.min())
        if values.shape[0] != 100_000 or not (values > 1.6).all():
            worst = (system.name, low)
            break
        if worst is None or low < worst[1]:
            worst = (system.name, low)
    elapsed = time.perf_counter() - t0

    ok = worst is not None and worst[1] > 1.6 and count == 900_000 and elapsed < 120.0
    _report(
        9,
        ok,
        f"{count} hypothesis-satisfying samples across 9 bound systems all "
        f"certify > 8/5 on point lanes; tightest minimum {worst[1]:.6f} at {worst[0]}, "
        f"in {elapsed:.1f}s",
    )
    assert ok
