"""Vectorized interval arithmetic for batched box evaluation.

This is the only interval kind: it evaluates every prover box and every
enclosure the formula layer builds.  Every operation inflates each result
endpoint outward by a fixed two-ulp relative margin plus a tiny absolute one.
That over-covers the half-ulp rounding error of every IEEE operation with
plain arithmetic, which runs several times faster than nextafter on large
arrays; the extra slack per operation is negligible against the first-order
width growth the prover subdivides away anyway.

Errors never raise.  A lane whose computation leaves the mathematical domain
(square root over a negative range, arccos beyond [-1, 1], division through
zero) gets NaN endpoints.  NaN compares false, so a lane NaN at both ends is
never certainly-true and never certainly-false: callers see it as undecided
and keep splitting, which is always sound.  A lane NaN at one end only (an
overflowing sum can give [NaN, inf]) still certifies through its other end;
that is sound too, since each end bounds the true range on its own.
"""

from __future__ import annotations

import math

import numpy as np

_PI_HI = math.nextafter(math.pi, math.inf)

# Outward inflation: x -> x -/+ (|x| * _OUT_REL + _OUT_ABS).  A computed
# endpoint x carries a round-to-nearest error of at most ulp(x)/2
# <= 2^-53 * |x| for normal x (at most one denormal step otherwise).  The
# inflation subtracts at least 1.99 * 2^-52 * |x| + the smallest normal,
# which still exceeds ulp/2 after its own two rounding errors, so the
# inflated endpoint bounds every real the operation could have produced.
#
# _down and _up build the margin in one buffer, in place: |x|, times the
# relative factor, plus the absolute one, plus x.  _down carries the margin
# negated, which is exact (round-to-nearest is symmetric in sign), and
# x + (-m) is x - m.  So both give the doubles that x -/+ (|x| * _OUT_REL +
# _OUT_ABS) gives with a temporary per operation: same arithmetic, same
# bound.  An infinite endpoint on the wrong side, _down(+inf) or
# _up(-inf), comes out NaN, which poisons the lane.
_OUT_REL = 4.440892098500626e-16  # 2 * 2**-52
_OUT_ABS = 2.2250738585072014e-308  # smallest normal

# Widening applied around libm arccos, which may be off by a couple of ulp;
# two inflation layers cover a 2-ulp libm error with margin.
_ACOS_SLOP = 2


def _down(a: np.ndarray) -> np.ndarray:
    m = np.abs(a)
    m *= -_OUT_REL
    m -= _OUT_ABS
    m += a
    return m


def _up(a: np.ndarray) -> np.ndarray:
    m = np.abs(a)
    m *= _OUT_REL
    m += _OUT_ABS
    m += a
    return m


def _lohi(value: object) -> "tuple[object, object] | None":
    if isinstance(value, IntervalArray):
        return value.lo, value.hi
    if isinstance(value, (int, float)):
        f = float(value)
        return f, f
    return None


class IntervalArray:
    """Parallel arrays of interval endpoints, one lane per box."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @classmethod
    def from_point(cls, values: np.ndarray) -> "IntervalArray":
        v = np.asarray(values, dtype=np.float64)
        return cls(v, v)

    @classmethod
    def constant(cls, lo: float, hi: float, shape: "int | tuple[int, ...]") -> "IntervalArray":
        return cls(np.full(shape, lo), np.full(shape, hi))

    @property
    def shape(self) -> "tuple[int, ...]":
        return self.lo.shape

    def poisoned(self) -> np.ndarray:
        return np.isnan(self.lo) | np.isnan(self.hi)

    def __repr__(self) -> str:
        return f"IntervalArray(lo={self.lo!r}, hi={self.hi!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        return IntervalArray(_down(self.lo + olo), _up(self.hi + ohi))

    __radd__ = __add__

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __sub__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        return IntervalArray(_down(self.lo - ohi), _up(self.hi - olo))

    def __rsub__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        return IntervalArray(_down(olo - self.hi), _up(ohi - self.lo))

    def __mul__(self, other: object) -> "IntervalArray":
        if isinstance(other, (int, float)):
            # Point factor: only two products matter.
            c = float(other)
            with np.errstate(invalid="ignore"):
                a = self.lo * c
                b = self.hi * c
            if c >= 0.0:
                return IntervalArray(_down(a), _up(b))
            return IntervalArray(_down(b), _up(a))
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        with np.errstate(invalid="ignore"):
            ll = self.lo * olo
            lh = self.lo * ohi
            hl = self.hi * olo
            hh = self.hi * ohi
        lo = np.minimum(np.minimum(ll, lh), np.minimum(hl, hh))
        hi = np.maximum(np.maximum(ll, lh), np.maximum(hl, hh))
        return IntervalArray(_down(lo), _up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "IntervalArray":
        if isinstance(other, (int, float)) and other != 0.0:
            c = float(other)
            with np.errstate(invalid="ignore"):
                a = self.lo / c
                b = self.hi / c
            if c > 0.0:
                return IntervalArray(_down(a), _up(b))
            return IntervalArray(_down(b), _up(a))
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        bad = np.logical_and(np.less_equal(olo, 0.0), np.greater_equal(ohi, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = self.lo / olo
            lh = self.lo / ohi
            hl = self.hi / olo
            hh = self.hi / ohi
        lo = _down(np.minimum(np.minimum(ll, lh), np.minimum(hl, hh)))
        hi = _up(np.maximum(np.maximum(ll, lh), np.maximum(hl, hh)))
        return IntervalArray(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))

    def __rtruediv__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        num = IntervalArray(np.broadcast_to(np.float64(olo), self.lo.shape),
                            np.broadcast_to(np.float64(ohi), self.hi.shape))
        return num / self

    def square(self) -> "IntervalArray":
        # Squares of the magnitudes nearest to and farthest from zero: near
        # is 0 on a lane that straddles zero.  np.maximum propagates NaN, so
        # a lane with either end NaN is poisoned at both ends.
        near = np.maximum(np.maximum(self.lo, -self.hi), 0.0)
        far = np.maximum(-self.lo, self.hi)
        near *= near
        far *= far
        return IntervalArray(np.maximum(_down(near), 0.0), _up(far))

    def sqrt(self) -> "IntervalArray":
        with np.errstate(invalid="ignore"):
            lo_r = np.sqrt(np.maximum(self.lo, 0.0))
            hi_r = np.sqrt(self.hi)
        bad = np.isnan(lo_r) | np.isnan(hi_r)
        lo = np.maximum(_down(lo_r), 0.0)
        hi = _up(hi_r)
        return IntervalArray(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))

    def acos(self) -> "IntervalArray":
        bad = (self.lo > 1.0) | (self.hi < -1.0) | self.poisoned()
        with np.errstate(invalid="ignore"):
            lo_r = np.arccos(np.minimum(self.hi, 1.0))
            hi_r = np.arccos(np.maximum(self.lo, -1.0))
        for _ in range(_ACOS_SLOP):
            lo_r = _down(lo_r)
            hi_r = _up(hi_r)
        lo = np.maximum(lo_r, 0.0)
        hi = np.minimum(hi_r, _PI_HI)
        return IntervalArray(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))

    def min_with(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            raise TypeError(f"cannot take min with {type(other).__name__}")
        olo, ohi = o
        return IntervalArray(np.minimum(self.lo, olo), np.minimum(self.hi, ohi))

    def max_with(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            raise TypeError(f"cannot take max with {type(other).__name__}")
        olo, ohi = o
        return IntervalArray(np.maximum(self.lo, olo), np.maximum(self.hi, ohi))

    # -- certainty masks ----------------------------------------------------
    # Each mask reads one end, and a NaN end makes its comparison false: a
    # lane NaN at both ends certifies nothing, and a lane NaN at one end
    # only certifies through the other.

    def cert_le(self, bound: float) -> np.ndarray:
        return self.hi <= bound

    def cert_gt(self, bound: float) -> np.ndarray:
        return self.lo > bound

    def cert_ge(self, bound: float) -> np.ndarray:
        return self.lo >= bound

    def cert_lt(self, bound: float) -> np.ndarray:
        return self.hi < bound
