"""Packing squares into the unit disk with a guaranteed area threshold.

Any finite set of axis-parallel squares with total area at most 8/5 is
packed, and 8/5 is best possible (two squares of side 2/sqrt(5) + eps fail
for every eps > 0).  The packer dispatches on the largest side s1:

* s1 <= 0.295: a concentric container square of side 1.388 takes all but the
  four largest squares by shelf packing; those four go to pockets centered
  on the container's sides.
* s1 <= 1/sqrt(2) and the four largest squares have total area >= 39/25:
  the four largest go to the quadrants of the inscribed square; the rest are
  shelf packed into a small container sitting on top of it.
* otherwise: s1 is packed topmost.  Later squares go into the two pockets
  beside s1 when they fit, and otherwise into a stack of horizontal
  subcontainers below s1, each as tall as its first square.  One strip
  kind, _Strips, fills every subcontainer and every pocket whose
  horizontal straight boundary is the longer one: vertical strips advance
  outward from a base, and squares stack away from the band edge nearer
  the disk center.  Such a pocket is the band [pocket floor, inf], so it
  stacks upward from its floor.  The other pockets stack horizontal
  shelves upward from their floor (_Shelves).

Refined shelf packing places each square flush against its support cut and,
if the circle refuses the flush spot, slides it by the minimal amount toward
the horizontal diameter that makes it fit; the slide can only succeed in
shelves whose band reaches the diameter.

All placements carry a fixed admission tolerance, DEFAULT_TOL = 1e-9:
corners may exceed the unit circle by at most that much, which the
validator accepts at its default.  This slack is essential at the critical
instance, where corners land on the circle up to roundoff; without it the
packer fails area-8/5 instances it must pack.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError
from .geometry import (
    CONSTANTS,
    PlacedSquare,
    PocketGeometry,
    SQRT2,
    pocket_geometry,
)

Corner = Tuple[float, float]  # the lower-left corner of a placed square

DEFAULT_TOL = 1e-9
# A tolerance is slack for roundoff, not for geometry: the validator lets
# squares overlap by up to 2·tol and poke out of the disk by tol, so a tol
# near a square's side would pass overlapping or escaping placements.
MAX_TOL = 1e-6

_C1_CONTAINER = 1.388
_C1_POCKET = 0.295
# lower-left corners of the four C1 pockets, a column each in filling order,
# and of the container
_C1_POCKETS = np.array(
    (
        (-_C1_POCKET / 2, _C1_CONTAINER / 2),  # top
        (-_C1_POCKET / 2, -_C1_CONTAINER / 2 - _C1_POCKET),  # bottom
        (-_C1_CONTAINER / 2 - _C1_POCKET, -_C1_POCKET / 2),  # left
        (_C1_CONTAINER / 2, -_C1_POCKET / 2),  # right
    )
).T
_C1_ORIGIN = np.array(((-_C1_CONTAINER / 2,), (-_C1_CONTAINER / 2,)))
# C2 needs s1 <= _C2_MAX_S1 and the four largest squares' area >= _C2_TOP4_AREA
_C2_MAX_S1 = 1 / SQRT2
_C2_TOP4_AREA = 39.0 / 25.0
_C2_CELL = SQRT2 / 2
_C2_BOX = SQRT2 / 5
# the four C2 quadrant cells, each cornered at the disk center, a column
# each in filling order (lower left, lower right, upper left, upper right):
# a square of side s has its lower-left corner at s times these
_C2_QUADRANTS = np.array(((-1.0, 0.0, -1.0, 0.0), (-1.0, -1.0, 0.0, 0.0)))
_C2_ORIGIN = np.array(((-_C2_BOX / 2,), (_C2_CELL,)))


class FailReason(enum.Enum):
    AREA_EXCEEDS_GUARANTEE = "area-exceeds-guarantee"
    NO_PLACEMENT_FOUND = "no-placement-found"


@dataclass(frozen=True)
class Instance:
    """A packing instance: positive, finite square sides in input order."""

    sides: "tuple[float, ...]"

    def __post_init__(self) -> None:
        for i, s in enumerate(self.sides):
            if not isinstance(s, (int, float)) or not math.isfinite(s) or s <= 0:
                raise InputError(f"side {i} is {s!r}; sides must be finite and > 0")

    @property
    def total_area(self) -> float:
        return sum(s * s for s in self.sides)

    def __len__(self) -> int:
        return len(self.sides)


class Placements(Sequence[PlacedSquare]):
    """Read-only sequence of PlacedSquare over three float64 columns.

    Indexing and iteration build each PlacedSquare on demand; a slice is a
    view of the same kind.  A view compares equal to another view, or to a
    tuple, holding the same squares in the same order."""

    __slots__ = ("x", "y", "side")

    def __init__(self, x: object, y: object, side: object) -> None:
        # one read-only copy holds all three columns
        try:
            columns = np.array((x, y, side), dtype=np.float64)
        except ValueError:
            columns = None
        if columns is None or columns.ndim != 2:
            raise InputError("placement columns must be one-dimensional and of equal length")
        columns.flags.writeable = False
        self.x, self.y, self.side = columns[0], columns[1], columns[2]

    @classmethod
    def of(cls, squares: Sequence[PlacedSquare]) -> "Placements":
        """The columns of any sequence of PlacedSquare (a view is returned
        as it is)."""
        if isinstance(squares, Placements):
            return squares
        return cls([p.x for p in squares], [p.y for p in squares], [p.side for p in squares])

    def __len__(self) -> int:
        return len(self.side)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Placements(self.x[i], self.y[i], self.side[i])
        return PlacedSquare(float(self.x[i]), float(self.y[i]), float(self.side[i]))

    def __iter__(self):
        return map(PlacedSquare, self.x.tolist(), self.y.tolist(), self.side.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Placements):
            other = tuple(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Placements({list(self)!r})"


@dataclass(frozen=True, eq=False)
class Packing:
    """A packing as read-only float64 columns x, y (lower-left corners) and
    side, in input order; `placements` views them as PlacedSquare."""

    x: np.ndarray
    y: np.ndarray
    side: np.ndarray
    case: str
    total_area: float
    placements: Placements = field(init=False, repr=False)

    def __post_init__(self) -> None:
        view = Placements(self.x, self.y, self.side)
        object.__setattr__(self, "x", view.x)
        object.__setattr__(self, "y", view.y)
        object.__setattr__(self, "side", view.side)
        object.__setattr__(self, "placements", view)

    @classmethod
    def from_placements(
        cls, placements: Sequence[PlacedSquare], case: str, total_area: float
    ) -> "Packing":
        view = Placements.of(placements)
        return cls(view.x, view.y, view.side, case, total_area)


@dataclass(frozen=True)
class PackResult:
    ok: bool
    packing: Optional[Packing]
    failed_index: Optional[int]
    reason: Optional[FailReason]


def refined_shelf_place(
    side: float,
    x_lo: float,
    x_hi: float,
    y_min: float,
    y_max: float,
    flush: float,
) -> Optional[float]:
    """Bottom ordinate for a square of the given side and x-extent, as close
    to the flush ordinate as the disk and the structural bounds allow.

    y_min/y_max bound the square's bottom (cursors, band floor/ceiling);
    choosing the admissible ordinate nearest to flush realizes the minimal
    slide toward the diameter.  Returns None when no ordinate works."""
    xm = max(abs(x_lo), abs(x_hi))
    r2 = (1.0 + DEFAULT_TOL) * (1.0 + DEFAULT_TOL) - xm * xm
    if r2 < 0.0:
        return None
    reach = math.sqrt(r2)
    lo = max(y_min, -reach)
    hi = min(y_max, reach - side)
    if lo > hi:
        return None
    return min(max(flush, lo), hi)


def shelf_pack(
    width: float,
    height: float,
    sides: Sequence[float],
) -> "tuple[list[float], list[float], Optional[int]]":
    """Classic shelf packing of nonincreasing sides into a width x height
    rectangle anchored at (0, 0).

    Returns the lower-left x and y of the placed prefix as two lists and
    the index of the first side that did not fit (None if all fit).
    Shelves run horizontally; each shelf's height is its first square,
    and the rectangle admits squares DEFAULT_TOL beyond it."""
    xs: "list[float]" = []
    ys: "list[float]" = []
    x_max, y_max = width + DEFAULT_TOL, height + DEFAULT_TOL
    shelf_y = 0.0
    shelf_h = 0.0
    cursor = 0.0
    for i, s in enumerate(sides):
        if s > x_max:
            return xs, ys, i
        if xs and s <= shelf_h and cursor + s <= x_max:
            xs.append(cursor)
            ys.append(shelf_y)
            cursor += s
            continue
        # open a new shelf (also handles the very first square)
        new_y = shelf_y + shelf_h
        if new_y + s > y_max:
            return xs, ys, i
        shelf_y, shelf_h, cursor = new_y, s, s
        xs.append(0.0)
        ys.append(shelf_y)
    return xs, ys, None


class _Shelves:
    """Refined shelf packing by horizontal shelves stacked up from floor.

    Each shelf is as tall as its first square; its run advances from x =
    base in the given direction (+1 rightward, -1 leftward), and squares
    wider than cap are refused.  Only the open shelf is kept."""

    def __init__(self, base: float, direction: int, floor: float, cap: float) -> None:
        self.base = base
        self.direction = direction
        self.cap = cap
        self.y0 = floor  # bottom of the open shelf
        self.ceiling = floor  # its top, where the next shelf opens
        self.reach = -math.inf  # largest side the open shelf takes; none is open yet
        self.frontier = base  # outer x edge of its run

    def try_place(self, side: float) -> Optional[Corner]:
        if side > self.cap + DEFAULT_TOL:
            return None
        if side <= self.reach:
            # extend the open shelf's run
            if self.direction > 0:
                x_lo, x_hi = self.frontier, self.frontier + side
            else:
                x_lo, x_hi = self.frontier - side, self.frontier
            y = refined_shelf_place(side, x_lo, x_hi, self.y0, self.ceiling - side, self.y0)
            if y is not None:
                self.frontier += self.direction * side
                return x_lo, y
        floor = self.ceiling
        if self.direction > 0:
            x_lo, x_hi = self.base, self.base + side
        else:
            x_lo, x_hi = self.base - side, self.base
        y = refined_shelf_place(side, x_lo, x_hi, floor, floor, floor)
        if y is None:
            return None
        self.y0, self.ceiling, self.reach = floor, floor + side, side + DEFAULT_TOL
        self.frontier = self.base + self.direction * side
        return x_lo, y


class _Strips:
    """Refined shelf packing by vertical strips in the band [bottom, top].

    Strips advance from x = base in the given direction (+1 rightward, -1
    leftward), each as wide as its first square; squares wider than cap are
    refused.  In a strip, squares stack away from the support cut, the band
    edge closer to the disk center (top on ties), and slide toward the
    diameter when the circle refuses the flush spot.  Only the open strip is
    kept.  A subcontainer is a band as tall as its first square; a pocket in
    strip mode is the band [pocket floor, inf], supported at its floor."""

    def __init__(self, base: float, direction: int, bottom: float, top: float, cap: float) -> None:
        self.direction = direction
        self.bottom = bottom
        self.top = top
        self.cap = cap
        self.support_top = abs(top) <= abs(bottom)
        self.base = base  # inner x edge of the open strip
        self.edge = base  # its outer x edge, where the next strip opens
        self.reach = -math.inf  # largest side the open strip takes; none is open yet
        # flush ordinate of the open strip's next square: the bottom of its
        # stack under a top support, the top of its stack over a bottom one
        self.cursor = 0.0

    def try_place(self, side: float) -> Optional[Corner]:
        if side > self.cap + DEFAULT_TOL:
            return None
        # stack on the open strip when it is wide enough; otherwise, or when
        # the circle refuses, open the next strip flush with the support cut
        for opening in (False, True) if side <= self.reach else (True,):
            base = self.edge if opening else self.base
            if self.direction > 0:
                x_lo, x_hi = base, base + side
            else:
                x_lo, x_hi = base - side, base
            if self.support_top:
                flush = (self.top if opening else self.cursor) - side
                y = refined_shelf_place(side, x_lo, x_hi, self.bottom, flush, flush)
            else:
                flush = self.bottom if opening else self.cursor
                y = refined_shelf_place(side, x_lo, x_hi, flush, self.top - side, flush)
            if y is not None:
                if opening:
                    self.base, self.edge = base, base + self.direction * side
                    self.reach = side + DEFAULT_TOL
                self.cursor = y if self.support_top else y + side
                return x_lo, y
        return None


def _pocket(geo: PocketGeometry, direction: int) -> "Union[_Shelves, _Strips]":
    """The pocket beside the top square on the left (direction -1) or the
    right (+1).  Its shelves run parallel to the shorter straight boundary:
    horizontally, stacked up from the pocket floor, when bx <= by, and
    otherwise as vertical strips advancing outward.  The circle bounds the
    pocket on the outside, so only the floor and the inner side are
    explicit."""
    base = direction * geo.s1 / 2
    if geo.bx <= geo.by:
        return _Shelves(base, direction, geo.bottom_y, geo.sigma)
    return _Strips(base, direction, geo.bottom_y, math.inf, geo.sigma)


def _chord(y_t: float, h: float) -> float:
    """Width of the disk band [y_t - h, y_t], clamped instead of raising so
    bands that poke out by a tolerance still get a (zero) width."""
    rad = min(1.0 - y_t * y_t, 1.0 - (y_t - h) * (y_t - h))
    return 2.0 * math.sqrt(max(rad, 0.0))


def _instance(sides: Union[Instance, Sequence[float]]) -> Instance:
    if isinstance(sides, Instance):
        return sides
    return Instance(tuple(float(s) for s in sides))


def _by_size(inst: Instance) -> "tuple[np.ndarray, np.ndarray]":
    """The sides as a float64 column and their order by nonincreasing side,
    ties in input order."""
    side = np.array(inst.sides, dtype=np.float64)
    return side, np.argsort(-side, kind="stable")


def _packed(case: str, inst: Instance, x: object, y: object, side: np.ndarray) -> PackResult:
    return PackResult(True, Packing(x, y, side, case, inst.total_area), None, None)


def _failed(inst: Instance, index: int) -> PackResult:
    reason = (
        FailReason.AREA_EXCEEDS_GUARANTEE
        if inst.total_area > CONSTANTS.critical_area
        else FailReason.NO_PLACEMENT_FOUND
    )
    return PackResult(False, None, index, reason)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and 0 <= tol <= MAX_TOL):
        raise InputError(f"tol must be finite and in [0, {MAX_TOL:g}], got {tol!r}")


def _shelved(
    inst: Instance,
    side: np.ndarray,
    order: np.ndarray,
    head: np.ndarray,
    box: float,
    origin: np.ndarray,
    case: str,
) -> PackResult:
    """The four largest squares at the lower-left corners `head` (an x and a
    y row, a column per square in filling order), the rest shelf packed into
    a box x box square whose lower-left corner is the column `origin`."""
    rest = order[4:]
    px, py, fail = shelf_pack(box, box, side[rest].tolist())
    if fail is not None:
        return _failed(inst, int(rest[fail]))
    xy = np.empty((2, len(side)))
    xy[:, order] = np.concatenate((head, np.add((px, py), origin)), axis=1)
    return _packed(case, inst, xy[0], xy[1], side)


def pack_c1(sides: Union[Instance, Sequence[float]]) -> PackResult:
    """Concentric container of side 1.388 plus four side pockets; requires
    every side at most 0.295."""
    inst = _instance(sides)
    side, order = _by_size(inst)
    head = _C1_POCKETS[:, : len(order)]
    return _shelved(inst, side, order, head, _C1_CONTAINER, _C1_ORIGIN, "C1")


def pack_c2(sides: Union[Instance, Sequence[float]]) -> PackResult:
    """Four largest squares into the quadrants of the inscribed square, the
    rest shelf packed into a container of side sqrt(2)/5 on top of it."""
    inst = _instance(sides)
    side, order = _by_size(inst)
    s = side[order[:4]]
    head = _C2_QUADRANTS[:, : len(s)] * s
    return _shelved(inst, side, order, head, _C2_BOX, _C2_ORIGIN, "C2")


def pack_c3(sides: Union[Instance, Sequence[float]]) -> PackResult:
    """Topmost square plus pocket and subcontainer packing."""
    inst = _instance(sides)
    side, by_size = _by_size(inst)
    order = by_size.tolist()
    s1 = inst.sides[order[0]]
    if s1 > SQRT2 + 1e-12:
        return _failed(inst, order[0])
    geo = pocket_geometry(s1)
    left, right = _pocket(geo, -1), _pocket(geo, +1)
    subcontainers: "list[_Strips]" = []  # stacked downward from the top square
    x, y = [0.0] * len(order), [0.0] * len(order)
    x[order[0]], y[order[0]] = -s1 / 2, geo.t_inv
    for i in order[1:]:
        s = inst.sides[i]
        corner = left.try_place(s) or right.try_place(s)
        if corner is None and subcontainers:
            corner = subcontainers[-1].try_place(s)
        if corner is None:
            # slice a subcontainer as tall as s below the last one
            top = subcontainers[-1].bottom if subcontainers else geo.t_inv
            width = _chord(top, s)
            if top - s >= -1.0 - DEFAULT_TOL and width >= s - DEFAULT_TOL:
                sub = _Strips(-width / 2, +1, top - s, top, s)
                corner = sub.try_place(s)
                if corner is not None:
                    subcontainers.append(sub)
        if corner is None:
            return _failed(inst, i)
        x[i], y[i] = corner
    return _packed("C3", inst, x, y, side)


def pack(sides: Union[Instance, Sequence[float]]) -> PackResult:
    """Pack squares into the unit disk; guaranteed to succeed when the total
    area is at most 8/5.  Placements are returned in input order."""
    inst = _instance(sides)
    if not inst.sides:
        return PackResult(True, Packing((), (), (), "C3", 0.0), None, None)
    top = heapq.nlargest(4, inst.sides)
    if top[0] <= _C1_POCKET:
        return pack_c1(inst)
    if top[0] <= _C2_MAX_S1 and sum(s ** 2 for s in top) >= _C2_TOP4_AREA:
        return pack_c2(inst)
    return pack_c3(inst)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checked: int
    containment_violations: "tuple[int, ...]"
    overlap_violations: "tuple[tuple[int, int], ...]"
    max_corner_norm: float


def validate(placements: Sequence[PlacedSquare], tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check containment (corner norms at most 1 + tol) and pairwise
    disjointness (squares_overlap: interiors shrunk by tol per side).

    placements is a Placements view, whose columns are read as they are, or
    any other sequence of PlacedSquare.

    containment_violations holds the offending indices in ascending order;
    overlap_violations holds the overlapping pairs (i, j), i < j, in
    ascending order.  tol must lie in [0, MAX_TOL]; anything else raises
    InputError.

    The overlap pairs come from a Python sweep over x or, for at least
    _GRID_MIN_N squares of near-equal height, from a NumPy cell grid, which
    is 3-5x faster there; the two return the same pairs, and the choice
    depends only on the placements (see _overlap_pairs).  Neither cost
    grows with the largest side, so a few large squares over many tiny
    ones stay near-linear."""
    _check_tol(tol)
    view = Placements.of(placements)
    n = len(view)
    if n == 0:
        return ValidationReport(True, 0, (), (), 0.0)
    x, y, s = view.x, view.y, view.side
    x2, y2 = x + s, y + s  # bit-equal to PlacedSquare.x2 / .y2
    norms = np.hypot(np.maximum(np.abs(x), np.abs(x2)), np.maximum(np.abs(y), np.abs(y2)))
    containment = tuple(np.flatnonzero(~(norms <= 1.0 + tol)).tolist())
    overlaps = tuple(_overlap_pairs(x, y, x2, y2, 2 * tol))
    ok = not containment and not overlaps
    return ValidationReport(ok, n, containment, overlaps, float(norms.max()))


# The grid's dispatch rule (_grid_budget), from the costs measured on the
# sweep_mix packings at n = 10^2..10^4 (2-core Xeon VM, Python 3.11, NumPy
# 2.4): the sweep costs 2-3.5 us per square at any n, the grid about 150 us
# per call plus 0.5 us per square plus 25-40 ns per candidate pair.  They
# cross near 100 squares and near 50 candidate pairs per square.
_GRID_MIN_N = 200
_GRID_PAIRS_PER_SQUARE = 40
# Candidate pairs grow about as (window / median)**2 per square, so a taller
# window is not worth bucketing.
_GRID_MAX_RATIO = 4.0
# candidate pairs tested at once: this bounds the grid's memory, and blocks
# that fit the cache test a pair about twice as fast as one large block
_GRID_BLOCK = 1 << 13
# a cell index must be exact as a float and fit an int64 key
_GRID_MAX_INDEX = float(1 << 30)
# The cells each square is tested against: runs (dx, first dy, last dy) of
# cells whose keys are consecutive.  In its own cell, only later squares.
_RUNS = ((0, 0, 1), (1, -1, 1))


def _grid_budget(n: int, ratio: float) -> float:
    """How many candidate pairs the grid may test in place of the sweep, for
    n live squares and a window `ratio` median heights tall: none below the
    crossover or for skewed sides, else _GRID_PAIRS_PER_SQUARE per square.
    It depends on nothing but the placements."""
    if n < _GRID_MIN_N or not ratio <= _GRID_MAX_RATIO:
        return 0.0
    return float(_GRID_PAIRS_PER_SQUARE * n)


def _overlap_pairs(
    x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray, tt: float
) -> "list[tuple[int, int]]":
    """Every pair (i, j), i < j, for which squares_overlap holds with
    2 * tol = tt >= 0, in ascending order.

    Each pair test is squares_overlap's own float expression.  A search
    only limits which pairs get tested, by bounds that are implied by the
    predicate: a positive extent min(x2) - max(x) > tt needs open x-extents
    that intersect, and the same in y.  So a square whose shrunk extent is
    empty overlaps nothing: a pair's extent never exceeds either square's
    own.  The others are live.

    Both searches set the k tallest live squares apart (_tallest) and test
    each of them against every other, so that a few large squares over many
    tiny ones cost k tests per square, not (largest side / typical side).
    The window is the tallest remaining height.

    * The Python sweep over x (_sweep_pairs) costs about window / median
      height scans per square: 2-3.5 us per square at n = 10^4 on every
      distribution.
    * The NumPy cell grid (_grid_pairs) costs a fixed amount per call plus
      25-40 ns per candidate pair: at n = 10^4, 0.5-0.8 us per square on
      equal sides, 2 on uniform sides and 8-17 on power-law sides.

    _grid_budget picks the grid from the number of live squares, window /
    median and the exact count of its candidate pairs; the sweep takes
    everything else, coordinates the grid cannot index included.  Both
    return the same pairs."""
    # The budget only shrinks with fewer live squares or a taller window:
    # with none at n squares and ratio 1, the sweep runs and the squares are
    # split on lists, which cost less than NumPy calls on few squares.
    if _grid_budget(len(x), 1.0):
        h = y2 - y
        live = ((x2 - x > tt) & (h > tt)).nonzero()[0]
        if len(live) < 2:
            return []
        height = h[live]
        ranked = np.sort(height)[::-1].tolist()
        k = _tallest(ranked)
        tall = height > ranked[k]
        budget = _grid_budget(len(live), ranked[k] / ranked[len(ranked) // 2])
        if budget:
            large, rest = live[tall], live[~tall]
            # cells as wide as the widest rounded x2 - x and as tall as the
            # tallest rounded y2 - y outside `large`
            grid = _Grid.of(x, y, x2, y2, rest, float((x2[rest] - x[rest]).max()), ranked[k])
            if grid is not None and grid.candidates + len(large) * len(live) <= budget:
                return grid.pairs(large, tt)
        cols = x.tolist(), y.tolist(), x2.tolist(), y2.tolist()
        live, large = live.tolist(), set(live[tall].tolist())
    else:
        cols = xs, ys, x2s, y2s = x.tolist(), y.tolist(), x2.tolist(), y2.tolist()
        live = [i for i in range(len(xs)) if x2s[i] - xs[i] > tt and y2s[i] - ys[i] > tt]
        if len(live) < 2:
            return []
        height = [y2s[i] - ys[i] for i in live]
        ranked = sorted(height, reverse=True)
        k = _tallest(ranked)
        large = {i for i, h in zip(live, height) if h > ranked[k]}
    # ranked[k] is the largest rounded y2 - y outside `large`
    return sorted(_sweep_pairs(*cols, tt, live, large, ranked[k]))


def _tallest(ranked: "list[float]") -> int:
    """k, for the live heights in nonincreasing order: k minimizes k +
    ranked[k] / median, the scans per insert of a sweep that keeps the k
    tallest squares in a list it scans in full."""
    median = ranked[len(ranked) // 2]
    k = 0
    for c in range(1, len(ranked)):
        if c >= k + ranked[k] / median:  # no later c can cost less
            break
        if c + ranked[c] / median < k + ranked[k] / median:
            k = c
    return k


def _sweep_pairs(
    xs: "list[float]",
    ys: "list[float]",
    x2s: "list[float]",
    y2s: "list[float]",
    tt: float,
    live: "list[int]",
    large: "set[int]",
    window: float,
) -> "list[tuple[int, int]]":
    """_overlap_pairs by a sweep over x, in no particular order.

    An insert scans the active squares whose bottom lies within `window`
    below its own, and every active square of `large`.  `window` is at
    least every rounded height d = fl(yj2 - yj) outside `large`, and the
    rounded bound fl(yi - window) is never above an overlapping bottom yj.

    An overlapping j has yj2 > yi, so yi <= yj2 - g, where g is the gap from
    yj2 down to the next double.  With yj2 = fl(yj + sj), the exact height
    e = yj2 - yj differs from the double sj by the sum's rounding error: at
    most g / 2 if the sum rounded up to yj2, else half the gap above yj2,
    which is at most 2 g.  d is the double nearest e, so e - d <= |e - sj|
    <= g.  Hence yi - d <= yj2 - g - d = yj + (e - d) - g <= yj, and
    rounding is monotone, so fl(yi - window) <= fl(yi - d) <= yj.  The
    window needs no rounding up, and one ulp less misses pairs."""
    # a square is active from its left edge to its right edge; event e < m
    # removes live[e], any other adds live[e - m], and the stable sort fires
    # removals before additions at one abscissa
    m = len(live)
    at = [x2s[i] for i in live] + [xs[i] for i in live]
    events = np.argsort(at, kind="stable").tolist()
    pairs: "list[tuple[int, int]]" = []
    big: "list[int]" = []  # the active large squares
    act_y: "list[float]" = []  # the other active squares, by bottom ordinate
    act_i: "list[int]" = []
    for e in events:
        if e < m:
            i = live[e]
            if i in large:
                big.remove(i)
                continue
            pos = bisect_left(act_y, ys[i])
            while act_i[pos] != i:
                pos += 1
            del act_y[pos], act_i[pos]
            continue
        i = live[e - m]
        xi, yi, xi2, yi2 = xs[i], ys[i], x2s[i], y2s[i]
        lo = bisect_left(act_y, yi - window)
        for j in big + act_i[lo : bisect_left(act_y, yi2)]:
            # an active j already meets i's open x-extent; its open y-extent
            # must meet i's too before the exact test can hold
            if (
                y2s[j] > yi
                and ys[j] < yi2
                and min(xi2, x2s[j]) - max(xi, xs[j]) > tt
                and min(yi2, y2s[j]) - max(yi, ys[j]) > tt
            ):
                pairs.append((j, i) if j < i else (i, j))
        if i in large:
            big.append(i)
        else:
            pos = bisect_right(act_y, yi)
            act_y.insert(pos, yi)
            act_i.insert(pos, i)
    return pairs


def _hits(xa, ya, x2a, y2a, xb, yb, x2b, y2b, tt: float) -> np.ndarray:
    """squares_overlap's float expression, lane by lane."""
    return (np.minimum(x2a, x2b) - np.maximum(xa, xb) > tt) & (
        np.minimum(y2a, y2b) - np.maximum(ya, yb) > tt
    )


class _Grid:
    """The live squares `rest` bucketed into cells cw wide and ch tall, for
    _overlap_pairs.  No rounded x2 - x among them exceeds cw, and no
    rounded y2 - y exceeds ch.

    A square's cell is (floor(x / cw), floor(y / ch)) of the exact
    quotients, which np.floor_divide computes (from fmod) below 2**51.  Two
    overlapping squares then lie in the same or in adjacent cells on each
    axis.  Say x <= x' < x2 on the x-axis, w = x2 - x.  Cells two apart
    need x < q * cw and (q + 1) * cw <= x', so w > cw >= fl(w): the
    subtraction rounded down to cw, and by Sterbenz's lemma x and x2
    differ in sign or by a factor over 2.  With x < 0 < x2, fl(w) is at
    least x2 > cw (q >= 0) or -x > cw (q < 0).  With 0 <= x < x2 / 2, q >=
    1 and x' >= 2 cw, yet x2 < 2 w rounds to at most 2 cw.  Negative x2
    mirrors this.  So cw needs no rounding up, and a cell one ulp narrower
    misses pairs.

    A cell's key is ix * stride + iy, with a stride two more than the
    largest iy, so each of _RUNS is one run of the sorted keys and a
    neighbour row off the grid reads as an empty cell.  Each candidate
    pair comes up once."""

    def __init__(self, x, y, x2, y2, index: np.ndarray, key: np.ndarray, stride: int) -> None:
        order = np.argsort(key, kind="stable")
        key = key[order]
        self.arrays = (x, y, x2, y2)
        self.index = index[order]  # the square in each sorted slot
        self.x, self.y = x[self.index], y[self.index]
        self.x2, self.y2 = x2[self.index], y2[self.index]
        # slot s is tested against the slots [lo, lo + count) of each run
        slot = np.arange(len(key))
        lo, count = [], []
        for dx, first, last in _RUNS:
            start = np.searchsorted(key, key + (dx * stride + first), "left")
            stop = np.searchsorted(key, key + (dx * stride + last), "right")
            start = np.maximum(start, slot + 1)
            lo.append(start)
            count.append(stop - start)
        self.src = np.tile(slot, len(_RUNS))
        self.lo = np.concatenate(lo)
        self.count = np.concatenate(count)
        self.candidates = int(self.count.sum())

    @classmethod
    def of(cls, x, y, x2, y2, rest: np.ndarray, cw: float, ch: float) -> "Optional[_Grid]":
        """The grid over `rest`, or None when a cell is not finite or a cell
        index is too large to be exact."""
        if not (math.isfinite(cw) and math.isfinite(ch)):
            return None
        with np.errstate(all="ignore"):  # huge quotients are refused below
            gx = np.floor_divide(x[rest], cw)
            gy = np.floor_divide(y[rest], ch)
        if not max(np.abs(gx).max(), np.abs(gy).max()) < _GRID_MAX_INDEX:  # NaN too
            return None
        gx -= gx.min()
        gy -= gy.min()
        stride = int(gy.max()) + 2
        key = gx.astype(np.int64) * stride + gy.astype(np.int64)
        return cls(x, y, x2, y2, rest, key, stride)

    def pairs(self, large: np.ndarray, tt: float) -> "list[tuple[int, int]]":
        """_overlap_pairs: the candidate pairs in blocks of about
        _GRID_BLOCK, then each square of `large` against every square of
        the grid and every earlier one of `large`."""
        found_i: "list[np.ndarray]" = []
        found_j: "list[np.ndarray]" = []
        keep = self.count > 0
        src, lo, count = self.src[keep], self.lo[keep], self.count[keep]
        total = np.cumsum(count)
        a = 0
        while a < len(count):
            b = max(int(np.searchsorted(total, total[a] - count[a] + _GRID_BLOCK, "right")), a + 1)
            c = count[a:b]
            p = np.repeat(src[a:b], c)
            q = np.arange(int(c.sum())) + np.repeat(lo[a:b] - (np.cumsum(c) - c), c)
            hit = _hits(
                self.x[p], self.y[p], self.x2[p], self.y2[p],
                self.x[q], self.y[q], self.x2[q], self.y2[q], tt,
            )
            found_i.append(self.index[p[hit]])
            found_j.append(self.index[q[hit]])
            a = b
        x, y, x2, y2 = self.arrays
        m = len(self.index)
        j = np.concatenate((self.index, large))
        jx, jy = np.concatenate((self.x, x[large])), np.concatenate((self.y, y[large]))
        jx2, jy2 = np.concatenate((self.x2, x2[large])), np.concatenate((self.y2, y2[large]))
        for t, i in enumerate(large.tolist(), m):
            hit = _hits(x[i], y[i], x2[i], y2[i], jx[:t], jy[:t], jx2[:t], jy2[:t], tt)
            found_i.append(np.full(int(hit.sum()), i))
            found_j.append(j[:t][hit])
        if not found_i:
            return []
        fi, fj = np.concatenate(found_i), np.concatenate(found_j)
        n = len(x)
        code = np.sort(np.minimum(fi, fj) * n + np.maximum(fi, fj))
        return list(zip((code // n).tolist(), (code % n).tolist()))


def gen_worst_case(eps: float = 0.0) -> Instance:
    """Two squares of side 2/sqrt(5) + eps: packable exactly when eps <= 0."""
    side = CONSTANTS.worst_side + eps
    if side <= 0:
        raise InputError(f"eps {eps!r} leaves no positive side")
    return Instance((side, side))


_DISTS = ("uniform", "powerlaw", "equal", "adversarial_top4")


def gen_random(seed: int, n: int, target_area: float, dist: str = "uniform") -> Instance:
    """Random instance with the given total area (within 1e-9).

    dist: 'uniform' draws sides uniformly, 'powerlaw' heavily favors small
    squares (u**4), 'equal' uses identical sides, and 'adversarial_top4'
    builds four equal large squares holding most of the area (stressing the
    39/25 dispatch boundary) plus equal small ones."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not math.isfinite(target_area) or target_area <= 0:
        raise InputError(f"target_area must be finite and > 0, got {target_area!r}")
    if dist not in _DISTS:
        raise InputError(f"unknown dist {dist!r}; expected one of {_DISTS}")
    rng = random.Random(seed)
    if dist == "adversarial_top4":
        if n < 4:
            raise InputError("adversarial_top4 needs n >= 4")
        if n == 4:
            a4 = target_area
        else:
            # push the four big squares toward the 39/25 dispatch boundary,
            # but always leave area for the small ones
            a4 = min(
                _C2_TOP4_AREA + 0.75 * (target_area - _C2_TOP4_AREA),
                0.999 * target_area,
            )
        big = math.sqrt(a4 / 4)
        sides = [big] * 4
        if n > 4:
            small = math.sqrt((target_area - a4) / (n - 4))
            sides += [small] * (n - 4)
    else:
        sides = []
        for _ in range(n):
            u = rng.random()
            while u == 0.0:
                u = rng.random()
            sides.append(u)
        # 'equal' draws every u too: the shuffle below must see the same stream
        if dist == "powerlaw":
            sides = [u**4 for u in sides]
        elif dist == "equal":
            sides = [1.0] * n
        factor = math.sqrt(target_area / sum(s * s for s in sides))
        sides = [s * factor for s in sides]
    # absorb the scaling roundoff into the last square
    rest = sum(s * s for s in sides[:-1])
    sides[-1] = math.sqrt(max(target_area - rest, 1e-30))
    rng.shuffle(sides)
    return Instance(tuple(sides))
