"""Vectorized interval arithmetic for batched box evaluation.

This is the only interval kind: it evaluates every prover box and every
enclosure the formula layer builds.  Its soundness argument is IEEE 754
directed rounding.  Add, subtract, multiply, divide and square root are
correctly rounded in every rounding mode, so a result computed with the
mode set toward -inf is at most the real result and one computed toward
+inf at least it.  Each operation computes its lower ends in one NumPy pass
with the mode toward -inf and its upper ends in one pass toward +inf
(``fesetround``), and restores round-to-nearest in a ``finally`` before it
returns: the bisection midpoints, the float formulas, the packer and every
other float computation in the process run in the default mode.  min, max,
negation and comparisons are exact in any mode.  arccos is the one
operation the platform does not round correctly: it runs in the default
mode and its result is widened by a fixed relative margin.

Overflow keeps a bound.  Toward -inf a finite result past the largest
double rounds to the largest double, and toward +inf to inf, so
[1e308, 1.5e308] + 1e308 is [largest double, inf].  A lower end of +inf
therefore comes only from an operand end that is itself +inf (an upper end
of -inf only from -inf), and IEEE arithmetic carries an infinity exactly:
the result is the operation's value at that infinity, or NaN where it has
none (inf - inf, 0 * inf).  No operation turns a finite lane into one that
certifies a bound past its real value.

Domain errors never raise.  A lane whose computation leaves the
mathematical domain (square root over a negative range, arccos beyond
[-1, 1], division through zero) gets NaN endpoints.  NaN compares false, so
a lane NaN at both ends is never certainly-true and never certainly-false:
callers see it as undecided and keep splitting, which is always sound.  A
lane NaN at one end only (an operand NaN at one end: [NaN, 2] + [0.5, 1] is
[NaN, 3]) still certifies through its other end; that is sound too, since
each end bounds the true range on its own.

The modes are the x86-64 glibc values.  At import a self-check confirms
that NumPy's float64 loops honour them; where it fails (another platform or
C library), every operation that rounds raises DiskpackError instead of
returning an enclosure that might not hold, while the rest of diskpack
(``pack``, ``validate``, the CLI) is unaffected.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .errors import DiskpackError

_PI_HI = math.nextafter(math.pi, math.inf)

# <fenv.h> rounding modes on x86-64 glibc: the rounding-control bits of the
# x87 control word, which glibc also writes into MXCSR for SSE/AVX.
_NEAREST = 0
_DOWN = 0x400
_UP = 0x800


def _honours_rounding(setround) -> bool:
    """Whether ``setround`` steers NumPy's float64 loops: 1/3 on nine lanes
    (a SIMD body and its tail) must come out one ulp apart toward -inf and
    toward +inf."""
    ones = np.ones(9)
    try:
        if setround(_DOWN) != 0:
            return False
        lo = ones / 3.0
        if setround(_UP) != 0:
            return False
        hi = ones / 3.0
    finally:
        setround(_NEAREST)
    return bool(np.all(np.nextafter(lo, np.inf) == hi))


def _no_directed_rounding(mode: int) -> int:
    if mode != _NEAREST:
        raise DiskpackError(
            "interval arithmetic needs IEEE directed rounding through fesetround, "
            "which this platform does not honour (verified on x86-64 Linux with glibc)"
        )
    return 0


def _select_setround():
    """The C library's fesetround where the self-check passes, else a
    stand-in that refuses every directed mode.  The library is the one the
    process has already loaded (``CDLL(None)``): no search, no file opened."""
    try:
        fn = ctypes.CDLL(None).fesetround
    except (AttributeError, OSError, TypeError):  # no C library, or no fesetround in it
        return _no_directed_rounding
    fn.argtypes = (ctypes.c_int,)
    fn.restype = ctypes.c_int
    return fn if _honours_rounding(fn) else _no_directed_rounding


_setround = _select_setround()


def _rounded(op, a, b, c, d) -> "tuple[np.ndarray, np.ndarray]":
    """op(a, b) rounded toward -inf and op(c, d) rounded toward +inf."""
    try:
        _setround(_DOWN)
        lo = op(a, b)
        _setround(_UP)
        hi = op(c, d)
    finally:
        _setround(_NEAREST)
    return lo, hi


def _hull4(op, alo, ahi, blo, bhi) -> "tuple[np.ndarray, np.ndarray]":
    """The least of op over the four pairs of ends, rounded toward -inf, and
    the greatest, rounded toward +inf; NaN in any of them propagates."""
    try:
        _setround(_DOWN)
        lo = np.minimum(np.minimum(op(alo, blo), op(alo, bhi)), np.minimum(op(ahi, blo), op(ahi, bhi)))
        _setround(_UP)
        hi = np.maximum(np.maximum(op(alo, blo), op(alo, bhi)), np.maximum(op(ahi, blo), op(ahi, bhi)))
    finally:
        _setround(_NEAREST)
    return lo, hi


# arccos widening: x -> x -/+ (|x| * _OUT_REL + _OUT_ABS), _ACOS_SLOP times.
# libm arccos, run in the default mode, may be off by a couple of ulp.  One
# step moves an end by at least 1.99 * 2^-52 * |x| + the smallest normal,
# which exceeds the half-ulp error of a rounding to nearest after its own
# two rounding errors; two steps cover a 2-ulp libm error with margin.
#
# _down and _up build the margin in one buffer, in place: |x|, times the
# relative factor, plus the absolute one, plus x.  _down carries the margin
# negated, which is exact (round-to-nearest is symmetric in sign), and
# x + (-m) is x - m.  So both give the doubles that x -/+ (|x| * _OUT_REL +
# _OUT_ABS) gives with a temporary per operation.  An infinite endpoint on
# the wrong side, _down(+inf) or _up(-inf), comes out NaN; arccos of a
# clamped lane never gives one.
_OUT_REL = 4.440892098500626e-16  # 2 * 2**-52
_OUT_ABS = 2.2250738585072014e-308  # smallest normal
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
        return IntervalArray(*_rounded(np.add, self.lo, olo, self.hi, ohi))

    __radd__ = __add__

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __sub__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        return IntervalArray(*_rounded(np.subtract, self.lo, ohi, self.hi, olo))

    def __rsub__(self, other: object) -> "IntervalArray":
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        return IntervalArray(*_rounded(np.subtract, olo, self.hi, ohi, self.lo))

    def __mul__(self, other: object) -> "IntervalArray":
        if isinstance(other, (int, float)):
            # Point factor: only two products matter.
            c = float(other)
            with np.errstate(invalid="ignore"):
                if c >= 0.0:
                    return IntervalArray(*_rounded(np.multiply, self.lo, c, self.hi, c))
                return IntervalArray(*_rounded(np.multiply, self.hi, c, self.lo, c))
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        with np.errstate(invalid="ignore"):
            return IntervalArray(*_hull4(np.multiply, self.lo, self.hi, olo, ohi))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "IntervalArray":
        if isinstance(other, (int, float)) and other != 0.0:
            c = float(other)
            with np.errstate(invalid="ignore"):
                if c > 0.0:
                    return IntervalArray(*_rounded(np.divide, self.lo, c, self.hi, c))
                return IntervalArray(*_rounded(np.divide, self.hi, c, self.lo, c))
        o = _lohi(other)
        if o is None:
            return NotImplemented
        olo, ohi = o
        bad = np.logical_and(np.less_equal(olo, 0.0), np.greater_equal(ohi, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = _hull4(np.divide, self.lo, self.hi, olo, ohi)
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
        # a lane with either end NaN is poisoned at both ends.  A square is
        # never negative in any rounding mode, so the lower end needs no
        # floor.
        near = np.maximum(np.maximum(self.lo, -self.hi), 0.0)
        far = np.maximum(-self.lo, self.hi)
        return IntervalArray(*_rounded(np.multiply, near, near, far, far))

    def sqrt(self) -> "IntervalArray":
        with np.errstate(invalid="ignore"):
            clamped = np.maximum(self.lo, 0.0)
            try:
                _setround(_DOWN)
                lo = np.sqrt(clamped)
                _setround(_UP)
                hi = np.sqrt(self.hi)
            finally:
                _setround(_NEAREST)
        bad = np.isnan(lo) | np.isnan(hi)
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
