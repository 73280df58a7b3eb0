"""Closed-form disk geometry shared by the packer and the verifier.

The unit disk is centered at the origin with y growing upward.  Every
function here is written against the kind-generic helpers in scalars, so one
formula body serves plain floats (packing) and IntervalArray lanes (verified
enclosures).  Float arguments get strict domain checks; enclosures clamp
partial overshoot instead, which extends each function continuously across
the domain boundary and keeps slightly-too-wide boxes evaluable.
segment_area_below alone dispatches on the kind: it is monotone, so its
enclosure evaluates the formula at the two ends of a lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .iarrays import IntervalArray
from .scalars import (
    Numeric,
    acos,
    branch_le,
    enclosure,
    smax,
    smin,
    sqrt,
    square,
)

# Pocket regime threshold: sqrt((2 + sqrt(2)) / 3).  Below it the largest
# square inscribed in a pocket rests on the pocket bottom; above it the
# square centers vertically on the diameter and the pocket is used only down
# to the square's bottom edge.  The enclosure is a pair of doubles (lo, hi)
# around the exact value (tests/test_geometry.py proves lo < s1* < hi in
# rational arithmetic); S1_STAR is their midpoint.
S1_STAR_ENCLOSURE = (1.0668041935883539, 1.0668041935883545)
S1_STAR = 1.066804193588354

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DiskConstants:
    critical_area: float
    critical_density: float
    worst_side: float
    s1_star: float


CONSTANTS = DiskConstants(
    critical_area=8.0 / 5.0,
    critical_density=8.0 / (5.0 * math.pi),
    worst_side=2.0 / math.sqrt(5.0),
    s1_star=S1_STAR,
)


def _real(*values: object) -> bool:
    return all(isinstance(v, (int, float)) for v in values)


def T(u: Numeric) -> Numeric:
    """Side of the largest axis-parallel square centered on x = 0 with its
    bottom edge on the line y = u, inside the unit disk; 0 when no square
    fits."""
    if _real(u) and not -1.0 <= u <= 1.0:
        raise DomainError(f"T: ordinate {u!r} outside [-1, 1]")
    return smax(0.0, (2 * (sqrt(5 - square(u)) - 2 * u)) / 5)


def T_inv(s: Numeric) -> Numeric:
    """Ordinate of the bottom edge of a horizontally centered square of side
    s pushed as high as possible (top corners on the circle)."""
    if _real(s) and not 0.0 < s <= SQRT2 + 1e-9:
        raise DomainError(f"T_inv: side {s!r} outside (0, sqrt(2)]")
    return sqrt(1 - square(s) / 4) - s


def ell1(s1: Numeric) -> Numeric:
    """Length of the straight bottom boundary of the pocket beside a topmost
    square of side s1: chord half-length at the square's bottom line, minus
    half the square."""
    return _ell1(s1, T_inv(s1))


def _ell1(s1: Numeric, ti: Numeric) -> Numeric:
    return sqrt(smax(1 - square(ti), 0.0)) - s1 / 2


def sigma(s1: Numeric) -> Numeric:
    """Side of the largest axis-parallel square fitting in a pocket beside
    the topmost square of side s1.

    Two regimes split at S1_STAR.  Below it the inscribed square rests on
    the pocket bottom y = T_inv(s1) flush against s1, so its outer top
    corner pins it: (s1/2 + x)^2 + (T_inv(s1) + x)^2 = 1.  Above it the
    square centers vertically on the diameter instead:
    (s1/2 + x)^2 + (x/2)^2 = 1.
    """
    if _real(s1) and not 0.0 < s1 < 2.0:
        raise DomainError(f"sigma: side {s1!r} outside (0, 2)")
    thr = enclosure(S1_STAR_ENCLOSURE, s1)
    return branch_le(
        s1, thr, lambda: _sigma_resting(s1, T_inv(s1)), lambda: _sigma_centered(s1)
    )


def _sigma_resting(s1: Numeric, ti: Numeric) -> Numeric:
    d = s1 - 2 * ti
    return (-s1 - 2 * ti + sqrt(smax(8 - square(d), 0.0))) / 4


def _sigma_centered(s1: Numeric) -> Numeric:
    return (sqrt(20 - square(s1)) - 2 * s1) / 5


def _segment_area(c: Numeric) -> Numeric:
    return acos(c) - c * sqrt(smax(1 - square(c), 0.0))


def segment_area_below(c: Numeric) -> Numeric:
    """arccos(c) - c*sqrt(1 - c^2): the disk area on the far side of the
    horizontal line y = c, i.e. the area of {y >= c}.  Callers measuring the
    area below a cut at ordinate t pass c = -t.

    A float evaluates the formula directly.  An IntervalArray lane
    [lo, hi] gets [f(hi), f(lo)] with both ends clamped to [-1, 1], which is
    sound because f'(c) = -2*sqrt(1 - c^2) <= 0: f is nonincreasing on
    [-1, 1], and the continuous extension the formula gives beyond the clamp
    (acos clamps, the radicand is floored at 0) is constant, f(-1) = pi
    below and f(1) = 0 above.  So f over the lane lies in [f(hi'), f(lo')]
    for the clamped ends hi', lo'.  Each end is the same formula evaluated
    on a point lane through the outward-rounded interval operations, whose
    result encloses the exact f there; the lower end of f at hi' and the
    upper end of f at lo' bound the range.  The result is never wider than
    the natural extension of the formula over the whole lane, which holds
    both point evaluations (the interval operations are inclusion-isotonic)
    and loses the monotonicity: its two terms vary together, and the slope
    of the square root has no bound as c -> 1.  A lane that is NaN, or lies
    wholly above 1 or wholly below -1, is poisoned (NaN), as the natural
    extension's arccos would poison it.
    """
    if _real(c) and not -1.0 <= c <= 1.0:
        raise DomainError(f"segment_area_below: cut {c!r} outside [-1, 1]")
    if not isinstance(c, IntervalArray):
        return _segment_area(c)
    ends = IntervalArray.from_point(np.clip(np.stack((c.hi, c.lo)), -1.0, 1.0))
    f = _segment_area(ends)
    bad = c.poisoned() | (c.lo > 1.0) | (c.hi < -1.0)
    return IntervalArray(np.where(bad, np.nan, f.lo[0]), np.where(bad, np.nan, f.hi[1]))


def chord_width(y_t: Numeric, h: Numeric) -> Numeric:
    """Width of the widest axis-parallel rectangle of height h with top edge
    at ordinate y_t inside the disk (the chord at the narrower of its two
    edges)."""
    rad = smin(1 - square(y_t), 1 - square(y_t - h))
    if _real(rad) and rad < 0.0:
        raise DomainError(f"chord_width: band [{y_t!r} - {h!r}, {y_t!r}] outside disk")
    return 2 * sqrt(smax(rad, 0.0))


def x_max(a: Numeric, b: Numeric, u: Numeric) -> Numeric:
    """Largest abscissa for the left side of a square of side u confined to
    the horizontal band [b, a] of the disk.  With c = min(a, -b): if the
    square can straddle the diameter (u <= 2c) it slides to the vertically
    centered position; otherwise it sits flush at the nearer cut and its far
    corners pin it to the circle."""
    c = smin(a, -b)

    def centered() -> Numeric:
        return T_inv(u)

    def flush() -> Numeric:
        rad = 1 - square(u - c)
        if _real(rad) and rad < 0.0:
            raise DomainError(f"x_max: side {u!r} does not fit the band [{b!r}, {a!r}]")
        return sqrt(smax(rad, 0.0)) - u

    return branch_le(u, 2 * c, centered, flush)


def y_residual(a: Numeric, h: Numeric, w: Numeric, h_next: Numeric) -> Numeric:
    """Lower bound on the total packed width along a subcontainer of top
    ordinate a, height h and inscribed width w, at the moment a square of
    side h_next no longer fits.  May be negative."""
    return w / 2 - h + x_max(a, a - h, h_next)


def z_below(s1: Numeric, heights: "list[Numeric]") -> Numeric:
    """Side of the largest square placeable below the stack of subcontainers
    of the given heights hanging under the topmost square s1; 0 once the
    stack reaches the bottom of the disk."""
    total = sum(heights) if heights else 0.0
    return T(smin(-T_inv(s1) + total, 1.0))


@dataclass(frozen=True)
class PocketGeometry:
    """Straight-boundary data of the pocket beside the topmost square.

    bx and by are the lengths of the horizontal and vertical straight
    boundaries; bottom_y is the ordinate of the pocket's usable bottom.
    Below S1_STAR the bottom is the square's own bottom line; above it the
    pocket is truncated at the bottom edge of its inscribed square, where
    the horizontal boundary length works out to exactly sigma.  t_inv is
    T_inv(s1), the ordinate of the topmost square's bottom edge.
    """

    s1: float
    sigma: float
    ell1: float
    bx: float
    by: float
    bottom_y: float
    t_inv: float


def pocket_geometry(s1: float) -> PocketGeometry:
    """The pocket data of a float s1.  T_inv(s1) is evaluated once and
    shared by ell1, sigma's resting regime and the pocket bounds; the values
    equal ell1(s1), sigma(s1) and T_inv(s1) exactly."""
    ti = T_inv(s1)
    l1 = _ell1(s1, ti)
    if s1 <= S1_STAR:
        sg = _sigma_resting(s1, ti)
        return PocketGeometry(
            s1=s1, sigma=sg, ell1=l1, bx=l1, by=s1, bottom_y=ti, t_inv=ti
        )
    sg = _sigma_centered(s1)
    return PocketGeometry(
        s1=s1, sigma=sg, ell1=l1, bx=sg, by=ti + s1 + sg / 2, bottom_y=-sg / 2, t_inv=ti
    )


@dataclass(frozen=True)
class PlacedSquare:
    """Axis-parallel square given by its lower-left corner and side."""

    x: float
    y: float
    side: float

    @property
    def x2(self) -> float:
        return self.x + self.side

    @property
    def y2(self) -> float:
        return self.y + self.side

    def far_corner_norm(self) -> float:
        return math.hypot(
            max(abs(self.x), abs(self.x2)), max(abs(self.y), abs(self.y2))
        )


def square_in_disk(sq: PlacedSquare, tol: float = 1e-9) -> bool:
    """True iff all four corners lie within distance 1 + tol of the center."""
    return sq.far_corner_norm() <= 1.0 + tol


def squares_overlap(p: PlacedSquare, q: PlacedSquare, tol: float = 1e-9) -> bool:
    """True iff the interiors still intersect after shrinking each square by
    tol on every side (shared edges do not count as overlap)."""
    return (
        min(p.x2, q.x2) - max(p.x, q.x) > 2 * tol
        and min(p.y2, q.y2) - max(p.y, q.y) > 2 * tol
    )
