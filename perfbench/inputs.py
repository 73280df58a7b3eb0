"""Input generators.  Every input is a function of the workload seed only;
the program under test receives nothing but what these produce.

* sweep_mix: criterion 3's guarantee sweep on a fixed grid.  n runs over a
  half-decade grid (starting at 4 for adversarial_top4) and the number of
  instances in each cell is fixed, so the cost of a pass does not depend on
  the seed.  The areas are fixed per cell too: an adversarial_top4 instance
  below 39/25 lands in case C3, where the validator is super-linear (about
  13 s at n = 10^4 against 0.4 s at area 1.6), so a seeded area would let
  the seed decide the cost.  The seed reaches the sides through
  `gen_random`'s own seed, and the order of a pass (`schedule`).
* c3_cli: large-case instances, one square s1 at the midpoint of one of
  equal strata of (0.295, 1.25] and n - 1 smaller squares skewed small and
  capped at s1, total area 1.6.  The validator's cost on C3 packings swings
  by 2-8x with s1 (peaks near s1 = 1.0 and 1.15 at n = 3000), so a seeded
  s1 would let the seed decide the cost; the seed draws the other sides.
* planted documents: one violation added to a clean packing document by
  text edits, so the expected verdict does not come from the program.
* prove: the ten catalog systems other than LEMMA_MSC_NEG, plus
  LEMMA_MSC_NEG narrowed in s1 to [0.900, 0.905].
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import NamedTuple

DISTS = ("uniform", "powerlaw", "equal", "adversarial_top4")
SWEEP_GRID = (1, 3, 10, 30, 100, 300, 1000, 3000, 10000)
# Instances per cell: many where they cost a few ms, few where one costs
# seconds.  The latency percentiles are taken over cells, each the median
# of its instances, so every cell weighs the same (n is log-uniform in
# criterion 3); the extra instances make them less dependent on the seed.
SWEEP_CHEAP_N = 300
SWEEP_PER_CELL = (12, 3)  # n <= SWEEP_CHEAP_N, larger n
# An instance runs SWEEP_REPS times per pass, at seeded places in the pass,
# and its time is the median: a single run of an instance measures how
# busy the machine was at that moment as much as the program.  Instances
# with a lower area at n > SWEEP_CHEAP_N run SWEEP_HEAVY_REPS times; they
# take seconds each (validate is super-linear on them, ROADMAP item 1), and
# one of them, adversarial_top4 at n = 10^4, is most of a pass.
SWEEP_REPS = 3
SWEEP_HEAVY_REPS = 2
# Every third instance of a cell, starting with the first, has a lower
# area, the others 1.6.  The lower areas cycle with the cell's grid
# position, so every distribution meets each of them.
SWEEP_LOW_AREAS = (0.4, 0.8, 1.2)
SWEEP_LOW_EVERY = 3

C3_NS = (30, 300, 3000)
C3_S1 = (0.295, 1.25)
C3_AREA = 1.6
C3_SKEW = 3  # other sides are s1 * u**C3_SKEW before scaling
C3_PLANT_EVERY = 3
# Smallest side a planted copy may have.  The validator shrinks every square
# by its tolerance (1e-9) on each side, so a square narrower than twice that
# has no interior: a copy of it overlaps nothing, and a copy at x = 1 may
# still be within the tolerance of the disk.  The C3 generator makes such
# squares when the area budget runs out before the last side.
PLANT_MIN_SIDE = 1e-6

SLICE = (0.900, 0.905)
# Proofs per pass of each system but the slice, which runs once: the other
# ten take 5 ms to 1 s each, and a single run of them measures the machine's
# momentary speed as much as the prover.
PROVE_REPS = 6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TOP4_AREA = 39.0 / 25.0


class SweepCase(NamedTuple):
    dist: str
    n: int
    area: float
    seed: int
    reps: int  # timed runs per pass; the op's time is their median


def sweep_cases(seed: int, grid=SWEEP_GRID) -> "list[SweepCase]":
    """The grid's instance specs in a seeded order."""
    rng = random.Random(f"sweep_mix/{seed}")
    cases = []
    for dist in DISTS:
        for pos, n in enumerate(grid):
            if dist == "adversarial_top4" and n < 4:
                if n != grid[0]:
                    continue
                n = 4
            cheap = n <= SWEEP_CHEAP_N
            k = SWEEP_PER_CELL[0] if cheap else SWEEP_PER_CELL[1]
            for i in range(k):
                area = 1.6
                if i % SWEEP_LOW_EVERY == 0:
                    area = SWEEP_LOW_AREAS[(pos + i // SWEEP_LOW_EVERY) % len(SWEEP_LOW_AREAS)]
                reps = SWEEP_REPS if cheap or area == 1.6 else SWEEP_HEAVY_REPS
                cases.append(SweepCase(dist, n, area, rng.getrandbits(32), reps))
    rng.shuffle(cases)
    return cases


def schedule(tag: str, reps: "list[int]") -> "list[int]":
    """One pass: each input index i appears reps[i] times, in an order
    seeded by `tag`."""
    order = [i for i, r in enumerate(reps) for _ in range(r)]
    random.Random(tag).shuffle(order)
    return order


class C3Case(NamedTuple):
    n: int
    sides: "tuple[float, ...]"
    plant: str  # "", "duplicate" or "outside"
    plant_index: int


def _c3_sides(rng: random.Random, n: int, s1: float) -> "list[float]":
    rest = C3_AREA - s1 * s1
    w = [rng.random() ** C3_SKEW for _ in range(n - 1)]

    def area(f: float) -> float:
        return sum(min(f * x, s1) ** 2 for x in w)

    lo, hi = 0.0, 1.0
    while area(hi) < rest:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if area(mid) < rest:
            lo = mid
        else:
            hi = mid
    sides = sorted((min(lo * x, s1) for x in w), reverse=True)
    # absorb the remaining area into the smallest square, as gen_random does
    head = s1 * s1 + sum(s * s for s in sides[:-1])
    sides[-1] = math.sqrt(max(C3_AREA - head, 1e-30))
    return [s1] + sides


def _is_c3(sides: "list[float]") -> bool:
    top = sorted(sides, reverse=True)
    if top[0] <= 0.295:
        return False
    return not (top[0] <= _INV_SQRT2 and sum(s * s for s in top[:4]) >= _TOP4_AREA)


def c3_cases(seed: int, ns=C3_NS, strata: int = 16) -> "list[C3Case]":
    """`strata` instances per n, s1 at the midpoints of equal-width strata
    of (0.295, 1.25], in a seeded order.  Every C3_PLANT_EVERY-th stratum of
    each n also gets a planted copy, the two violation kinds alternating.
    The planted strata are fixed, not drawn: verifying a planted copy costs
    about what its instance's verify costs, which grows with n and swings
    with s1, so a seeded choice would let the seed decide the cost."""
    rng = random.Random(f"c3_cli/{seed}")
    lo, hi = C3_S1
    cases = []
    for ni, n in enumerate(ns):
        for k in range(strata):
            s1 = lo + (hi - lo) * (k + 0.5) / strata
            while True:
                sides = _c3_sides(rng, n, s1)
                if _is_c3(sides) and min(sides) > 0:
                    break
            rng.shuffle(sides)
            plant = ""
            if k % C3_PLANT_EVERY == C3_PLANT_EVERY - 1:
                plant = ("duplicate", "outside")[(k // C3_PLANT_EVERY + ni) % 2]
            cases.append(C3Case(n, tuple(sides), plant, rng.randrange(n)))
    rng.shuffle(cases)
    return cases


def plant(doc: str, kind: str, index: int) -> "tuple[str, list[str]]":
    """Append one placement to a clean packing document: a copy of a
    placement ("duplicate") or a copy moved to x = 1 ("outside").  The copy
    is of the first placement from `index` on, wrapping around, whose side
    is at least PLANT_MIN_SIDE.  Returns the document and the exact
    violation lines `verify` must print (the containment line is matched
    up to its corner norm)."""
    lines = doc.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("placements "))
    n = int(lines[at].split()[1])
    squares = [lines[at + 1 + i].split() for i in range(n)]  # square x y side
    index = next(
        j for j in ((index + k) % n for k in range(n)) if float(squares[j][3]) >= PLANT_MIN_SIDE
    )
    square = squares[index]
    if kind == "outside":
        square[1] = f"{1.0:.16e}"
        expected = [f"containment violation: square {n} reaches corner norm"]
    else:
        expected = [f"overlap violation: squares {index} and {n} intersect"]
    lines[at] = f"placements {n + 1}"
    lines.insert(at + 1 + n, " ".join(square))
    return "\n".join(lines) + "\n", expected


def prove_systems(catalog: list, s1_range=SLICE) -> list:
    """The ten catalog systems other than LEMMA_MSC_NEG, then
    `msc_neg_slice`: LEMMA_MSC_NEG with s1 narrowed to `s1_range`.

    The slice is fixed.  The four width-0.005 slices starting at 0.900,
    0.905, 0.910 and 0.915 cost 7.3 / 6.6 / 5.5 / 4.2 s (2.94 M to 2.22 M
    boxes), so a slice picked by the seed would spread prove time by about
    30 % across seeds.  [0.900, 0.905] is the costliest and keeps the hot
    c -> 1 region; the seed sets the order of the proofs (`schedule`)."""
    out = [s for s in catalog if s.name != "LEMMA_MSC_NEG"]
    msc = next(s for s in catalog if s.name == "LEMMA_MSC_NEG")
    lo, hi = s1_range
    var = dataclasses.replace(msc.variables[0], lo=lo, hi=hi)
    out.append(
        dataclasses.replace(msc, name="msc_neg_slice", variables=(var,) + msc.variables[1:])
    )
    return out
