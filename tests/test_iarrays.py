"""Vectorized interval arrays: construction, soundness, poisoning.

Soundness oracle: rational arithmetic (fractions.Fraction) is exact for
+, -, *, /, square of double endpoints, and mpmath at 40 digits stands in
for sqrt/acos, so every containment assertion compares a lane's endpoints
against the true real value rather than another float computation.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskpack import iarrays, pack, validate
from diskpack.errors import DiskpackError
from diskpack.iarrays import IntervalArray, _down, _up
from diskpack.prover import prove
from diskpack.prover.catalog import lemma_catalog

from fuzzers import interval_containment_fuzz
from oracles import inflate_down_reference, inflate_up_reference, square_nested_where_reference

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)
positive = st.floats(min_value=1e-8, max_value=1e8)
# Every finite double: signed zeros, subnormals and values near overflow.
any_finite = st.floats(allow_nan=False, allow_infinity=False)

TINY = 2.2250738585072014e-308  # smallest normal
ONE_ULP = (1.0, math.nextafter(1.0, 2.0))
# Products below 2^-968, where a double's rounding error drops under the
# subnormal spacing.
UNDER_A = (math.ldexp(1 + 2**-52, -500),) * 2
UNDER_B = (math.ldexp(1 + 2**-52, -510),) * 2


@st.composite
def pairs(draw: st.DrawFn) -> "tuple[float, float]":
    a = draw(finite)
    b = draw(finite)
    return min(a, b), max(a, b)


@st.composite
def nonzero_pairs(draw: st.DrawFn) -> "tuple[float, float]":
    a = draw(positive)
    b = draw(positive)
    lo, hi = min(a, b), max(a, b)
    return (lo, hi) if draw(st.booleans()) else (-hi, -lo)


def lane(pair: "tuple[float, float]") -> IntervalArray:
    return IntervalArray(np.array([pair[0]]), np.array([pair[1]]))


def exact_points(pair: "tuple[float, float]") -> "list[Fraction]":
    lo, hi = Fraction(pair[0]), Fraction(pair[1])
    return [lo, hi, (lo + hi) / 2]


def assert_contains(r: IntervalArray, value: Fraction) -> None:
    lo, hi = float(r.lo[0]), float(r.hi[0])
    assert Fraction(lo) <= value <= Fraction(hi), (lo, hi, value)


def assert_contains_mp(r: IntervalArray, value: mp.mpf) -> None:
    assert mp.mpf(float(r.lo[0])) <= value <= mp.mpf(float(r.hi[0])), (r, value)


class TestConstruction:
    def test_from_point_is_degenerate(self):
        v = np.array([0.5, -2.0, 0.0])
        x = IntervalArray.from_point(v)
        assert np.array_equal(x.lo, v) and np.array_equal(x.hi, v)
        assert np.all(x.hi - x.lo == 0.0)

    def test_constant_broadcasts(self):
        x = IntervalArray.constant(-1.0, 2.0, 5)
        assert x.shape == (5,)
        assert np.all(x.lo == -1.0) and np.all(x.hi == 2.0)

    def test_widths(self):
        x = IntervalArray(np.array([0.0, -1.0]), np.array([1.0, 3.0]))
        assert np.array_equal(x.hi - x.lo, np.array([1.0, 4.0]))


class TestScalarFastPaths:
    def setup_method(self):
        self.x = IntervalArray(np.array([-2.0, -0.5, 0.0, 1.5]),
                               np.array([-1.0, 0.5, 0.0, 3.0]))

    def test_positive_scalar_mul_keeps_order(self):
        y = self.x * 2.0
        assert np.array_equal(y.lo <= y.hi, np.ones(4, bool))
        assert y.lo[0] <= -4.0 <= -2.0 <= y.hi[0]

    def test_negative_scalar_mul_swaps(self):
        y = -1.0 * self.x
        assert y.lo[0] <= 1.0 and y.hi[0] >= 2.0

    def test_zero_scalar_mul_collapses_finite_lanes(self):
        y = self.x * 0.0
        assert np.all(y.lo <= 0.0) and np.all(y.hi >= 0.0)
        assert not y.poisoned().any()

    def test_scalar_div(self):
        y = self.x / -2.0
        assert y.lo[3] <= -1.5 and y.hi[3] >= -0.75

    def test_sum_uses_radd(self):
        total = sum([self.x, self.x])  # starts from int 0
        assert isinstance(total, IntervalArray)
        assert total.lo[3] <= 3.0 <= 6.0 <= total.hi[3]


class TestPoisoning:
    def test_sqrt_all_negative_poisons(self):
        x = IntervalArray(np.array([-4.0]), np.array([-1.0]))
        assert x.sqrt().poisoned().all()

    def test_sqrt_partial_negative_clamps(self):
        x = IntervalArray(np.array([-1.0]), np.array([4.0]))
        r = x.sqrt()
        assert not r.poisoned().any()
        assert r.lo[0] <= 0.0 and r.hi[0] >= 2.0

    def test_acos_outside_domain_poisons(self):
        x = IntervalArray(np.array([1.5, -3.0]), np.array([2.0, -2.0]))
        assert x.acos().poisoned().all()

    def test_acos_partial_clamps(self):
        x = IntervalArray(np.array([0.5]), np.array([1.5]))
        r = x.acos()
        assert not r.poisoned().any()
        assert r.lo[0] <= 0.0 and r.hi[0] >= np.arccos(0.5)

    def test_division_through_zero_poisons_lane(self):
        num = IntervalArray(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        den = IntervalArray(np.array([-1.0, 0.5]), np.array([1.0, 1.0]))
        q = num / den
        assert q.poisoned()[0] and not q.poisoned()[1]

    def test_poison_propagates_through_arithmetic(self):
        x = IntervalArray(np.array([-2.0]), np.array([-1.0])).sqrt()
        assert (x + 1.0).poisoned().all()
        assert (x * 0.0).poisoned().all()
        assert x.square().poisoned().all()
        assert x.min_with(0.0).poisoned().all()

    def test_poisoned_lane_never_certifies(self):
        x = IntervalArray(np.array([-2.0]), np.array([-1.0])).sqrt()
        assert not x.cert_le(np.inf).any()
        assert not x.cert_ge(-np.inf).any()
        assert not x.cert_lt(np.inf).any()
        assert not x.cert_gt(-np.inf).any()

    def test_lane_nan_at_one_end_certifies_through_the_other(self):
        # an operand NaN below: the sum's lower end is NaN, its upper end
        # 2 + 1 = 3 still bounds every real x + y with x <= 2, y in [0.5, 1]
        x = lane((np.nan, 2.0)) + lane((0.5, 1.0))
        assert np.isnan(x.lo[0]) and x.hi[0] == 3.0
        assert x.poisoned().all()
        assert Fraction(2) + Fraction(1) <= Fraction(float(x.hi[0]))
        assert x.cert_le(3.0).all()
        assert not x.cert_lt(3.0).any()
        assert not x.cert_ge(-np.inf).any()
        assert not x.cert_gt(-np.inf).any()


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestSquare:
    def test_straddle_zero_floors_at_zero(self):
        x = IntervalArray(np.array([-2.0]), np.array([1.0]))
        s = x.square()
        assert s.lo[0] == 0.0 and s.hi[0] >= 4.0

    def test_negative_interval(self):
        x = IntervalArray(np.array([-3.0]), np.array([-2.0]))
        s = x.square()
        assert s.lo[0] <= 4.0 and s.hi[0] >= 9.0

    @given(st.lists(st.tuples(any_finite, any_finite), min_size=1, max_size=12))
    @example([(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)])
    @example([(-5e-324, 5e-324), (5e-324, TINY), (-TINY, -5e-324), (-5e-324, 0.0)])
    @example([(-2.0, 1.0), (-1.0, 3.0), (-3.0, -2.0), (2.0, 3.0)])
    @example([(-1.0, 1e200), (1e200, 1e300), (-1e300, -1e200), (-1e154, 1e154)])
    @example([(-1.7976931348623157e308, -1.0), (1.0, 1.7976931348623157e308)])
    def test_bit_identical_to_nested_where_on_finite_lanes(self, raw) -> None:
        lo = np.array([min(a, b) for a, b in raw])
        hi = np.array([max(a, b) for a, b in raw])
        ref_lo, ref_hi = square_nested_where_reference(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            r = IntervalArray(lo, hi).square()
        assert bits(r.lo) == bits(ref_lo)
        assert bits(r.hi) == bits(ref_hi)

    def test_nan_lanes_stay_poisoned_at_both_ends(self) -> None:
        lo = np.array([np.nan, -np.nan])
        hi = np.array([np.nan, np.nan])
        ref_lo, ref_hi = square_nested_where_reference(lo, hi)
        r = IntervalArray(lo, hi).square()
        assert np.isnan(ref_lo).all() and np.isnan(ref_hi).all()
        assert np.isnan(r.lo).all() and np.isnan(r.hi).all()


class TestSquareDifferences:
    """Two lane shapes to pin beside the nested-np.where reference: a lane
    NaN at one end, where the magnitude-based square differs from it (both
    are sound), and a straddle whose lower end squares past the largest
    double, where the two now agree.  With the reference's squares rounded
    to nearest, its 0.0 * lo^2 was 0 * inf = NaN there; rounded toward -inf,
    lo^2 is the largest double and the product 0."""

    def test_half_nan_lane_is_poisoned_at_both_ends(self) -> None:
        lo = np.array([np.nan, -2.0, 2.0, np.nan])
        hi = np.array([2.0, np.nan, np.nan, -2.0])
        ref_lo, ref_hi = square_nested_where_reference(lo, hi)
        # The reference kept a finite end on three of the four lanes.
        finite_ref = np.isfinite(ref_lo) | np.isfinite(ref_hi)
        assert finite_ref.tolist() == [False, True, True, True]
        r = IntervalArray(lo, hi).square()
        assert np.isnan(r.lo).all() and np.isnan(r.hi).all()

    def test_straddle_with_overflowing_square_is_zero_to_inf(self) -> None:
        lo = np.array([-1e200, -1e200, -1.7976931348623157e308])
        hi = np.array([1.0, 1e200, 5e-324])
        ref_lo, ref_hi = square_nested_where_reference(lo, hi)
        with np.errstate(over="ignore"):
            r = IntervalArray(lo, hi).square()
        assert bits(r.lo) == bits(ref_lo) == bits(np.zeros(3))
        assert np.all(r.hi == np.inf) and np.all(ref_hi == np.inf)


class TestOneBufferInflation:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=12))
    @example([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY])
    @example([np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_bit_identical_to_three_temporaries(self, values) -> None:
        a = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(_down(a)) == bits(inflate_down_reference(a))
            assert bits(_up(a)) == bits(inflate_up_reference(a))

    def test_nan_stays_nan(self) -> None:
        a = np.array([np.nan, -np.nan])
        assert np.isnan(_down(a)).all() and np.isnan(_up(a)).all()

    def test_zero_dimensional_endpoints(self) -> None:
        x = IntervalArray(np.array(1.0), np.array(2.0))
        r = (x + 1.0).square()
        assert r.shape == ()
        assert r.lo <= 4.0 and r.hi >= 9.0


BIG = 1.7976931348623157e308  # largest double
BOUNDS = (-np.inf, -BIG, -1.0, 0.0, 1.0, BIG, np.inf)


def corner_values(op: str, x: "tuple[float, float]", y: "tuple[float, float] | float | None" = None):
    """op's exact value at every pair of operand ends: a Fraction where the
    ends are finite, the IEEE result (an infinity) where one is not.  A
    float y is a point operand."""
    f = {"add": lambda p, q: p + q, "sub": lambda p, q: p - q, "rsub": lambda p, q: q - p,
         "mul": lambda p, q: p * q, "div": lambda p, q: p / q,
         "square": lambda p, q: p * p, "sqrt": lambda p, q: math.sqrt(p)}[op]
    ys = (0.0,) if y is None else (y, y) if isinstance(y, float) else y
    out = []
    for p in x:
        for q in ys:
            if op != "sqrt" and math.isfinite(p) and math.isfinite(q):
                out.append(f(Fraction(p), Fraction(q)))
            else:
                out.append(f(p, q))
    return out


def assert_encloses(r: IntervalArray, values) -> None:
    """The lane holds every value, and no certainty mask excludes one."""
    lo, hi = float(r.lo[0]), float(r.hi[0])
    for v in values:
        assert (lo == -math.inf or Fraction(lo) <= v) if lo != math.inf else v == math.inf, (lo, v)
        assert (hi == math.inf or v <= Fraction(hi)) if hi != -math.inf else v == -math.inf, (hi, v)
    for b in BOUNDS:
        assert not r.cert_le(b)[0] or all(v <= b for v in values), ("le", b)
        assert not r.cert_lt(b)[0] or all(v < b for v in values), ("lt", b)
        assert not r.cert_ge(b)[0] or all(v >= b for v in values), ("ge", b)
        assert not r.cert_gt(b)[0] or all(v > b for v in values), ("gt", b)


def case(op: str, x, y=None) -> "tuple[IntervalArray, list]":
    """op on one-lane operands (pairs; a float y is a scalar operand), and
    its exact values at their ends."""
    ix = lane(x)
    iy = y if y is None or isinstance(y, float) else lane(y)
    r = {"add": lambda: ix + iy, "sub": lambda: ix - iy, "rsub": lambda: iy - ix,
         "mul": lambda: ix * iy, "div": lambda: ix / iy,
         "square": ix.square, "sqrt": ix.sqrt}[op]()
    return r, corner_values(op, x, y)


class TestInfiniteEndpoints:
    """An end whose exact value lies past the largest double keeps a bound.
    Rounded toward -inf, a finite lower end that overflows is the largest
    double, and rounded toward +inf the upper end is inf, so the lane is
    [largest double, inf] (mirrored below); it holds the exact value, checked
    in rational arithmetic, and no certainty mask excludes it.  An operand
    end that is itself infinite on the wrong side (a lower end of +inf, an
    upper end of -inf) stands for that infinity: IEEE arithmetic carries it
    exactly, and the lane is that infinity at both ends."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: case("add", (1e308, 1.5e308), (1e308, 1e308)),
            lambda: case("add", (1e308, 1.5e308), 1e308),
            lambda: case("sub", (1e308, 1e308), (-1e308, -1e308)),
            lambda: case("mul", (1e200, 1e201), (1e200, 1e200)),
            lambda: case("mul", (1e200, 1e201), 1e200),
            lambda: case("div", (1e200, 1e201), 1e-200),
            lambda: case("square", (1e200, 1e201)),
            lambda: case("square", (-1e201, -1e200)),
            lambda: case("add", (np.inf, np.inf), 0.0),
            lambda: case("mul", (np.inf, np.inf), 2.0),
            lambda: case("square", (np.inf, np.inf)),
            lambda: case("sqrt", (np.inf, np.inf)),
        ],
    )
    def test_lower_end_past_the_largest_double(self, make) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            r, values = make()
        assert not r.poisoned().any()
        assert r.lo[0] >= BIG and r.hi[0] == np.inf
        assert_encloses(r, values)
        assert not r.cert_le(BIG).any()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: case("sub", (-1.5e308, -1e308), (1e308, 1e308)),
            lambda: case("sub", (-1.5e308, -1e308), 1e308),
            lambda: case("rsub", (1e308, 1.5e308), -1e308),
            lambda: case("mul", (-1e201, -1e200), (1e200, 1e200)),
            lambda: case("mul", (1e200, 1e201), -1e200),
            lambda: case("sub", (-np.inf, -np.inf), 0.0),
            lambda: case("mul", (-np.inf, -np.inf), (1.0, 2.0)),
        ],
    )
    def test_upper_end_past_the_lowest_double(self, make) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            r, values = make()
        assert not r.poisoned().any()
        assert r.lo[0] == -np.inf and r.hi[0] <= -BIG
        assert_encloses(r, values)
        assert not r.cert_ge(-BIG).any()

    def test_overflow_from_finite_operands_stops_at_the_largest_double(self) -> None:
        with np.errstate(over="ignore"):
            up = lane((1e308, 1.5e308)) + 1e308
            down = -1e308 - lane((1e308, 1.5e308))
            quot = lane((1e10, 2e10)) / lane((1e-300, 1e-300))
        assert up.lo[0] == BIG and up.hi[0] == np.inf
        assert down.lo[0] == -np.inf and down.hi[0] == -BIG
        assert quot.lo[0] == BIG and quot.hi[0] == np.inf

    def test_inflation_of_infinities(self) -> None:
        # arccos's widening; its clamped lanes never reach an infinity
        with np.errstate(over="ignore", invalid="ignore"):
            down = _down(np.array([np.inf, -np.inf, BIG, -BIG]))
            up = _up(np.array([np.inf, -np.inf, BIG, -BIG]))
        assert np.isnan(down[0]) and down[1] == -np.inf
        assert np.isnan(up[1]) and up[0] == np.inf
        # the largest doubles inflate outward, to -inf below and +inf above
        assert down[2] < BIG and down[3] == -np.inf
        assert up[2] == np.inf and up[3] > -BIG

    def test_infinite_end_on_the_open_side_stays(self) -> None:
        # [-inf, 1] and [1, inf] are sound as they are: the true value is
        # inside, so these lanes are not poisoned.
        with np.errstate(invalid="ignore"):
            r = lane((-np.inf, 1.0)) + 1.0
            q = lane((1.0, np.inf)) * 2.0
        assert r.lo[0] == -np.inf and r.hi[0] >= 2.0
        assert q.lo[0] <= 2.0 and q.hi[0] == np.inf


def rounded_down(q: Fraction) -> float:
    f = float(q)  # correctly rounded to nearest
    return f if Fraction(f) <= q else math.nextafter(f, -math.inf)


def rounded_up(q: Fraction) -> float:
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _random_doubles(rng: np.random.Generator, n: int) -> np.ndarray:
    # full 53-bit significands across 2^-40 .. 2^40, both signs
    return rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-40, 40, n) * rng.choice((-1.0, 1.0), n)


class TestDirectedRounding:
    """Every IEEE operation the layer uses rounds each end exactly: the
    lower end is the largest double at most the real result, the upper end
    the smallest at least it, checked in rational arithmetic on point lanes.
    The lane counts cover NumPy's SIMD loops: a tail alone (1, 7), one full
    vector (8), a vector and a tail (9), and many vectors (4,099)."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 4099])
    def test_each_operation_is_rounded_exactly(self, n) -> None:
        rng = np.random.default_rng(n)
        a, b = _random_doubles(rng, n), _random_doubles(rng, n)
        c = float(_random_doubles(rng, 1)[0])
        x, y = IntervalArray.from_point(a), IntervalArray.from_point(b)
        fa, fb, fc = [Fraction(v) for v in a.tolist()], [Fraction(v) for v in b.tolist()], Fraction(c)
        cases = [
            (x + y, [p + q for p, q in zip(fa, fb)]),
            (x - y, [p - q for p, q in zip(fa, fb)]),
            (c - x, [fc - p for p in fa]),
            (x * y, [p * q for p, q in zip(fa, fb)]),
            (x * c, [p * fc for p in fa]),
            (x * -c, [-p * fc for p in fa]),
            (x / y, [p / q for p, q in zip(fa, fb)]),
            (x / c, [p / fc for p in fa]),
            (x / -c, [-p / fc for p in fa]),
            (x.square(), [p * p for p in fa]),
        ]
        for r, exact in cases:
            assert r.lo.tolist() == [rounded_down(q) for q in exact]
            assert r.hi.tolist() == [rounded_up(q) for q in exact]
        root = IntervalArray.from_point(np.abs(a)).sqrt()
        for lo, hi, p in zip(root.lo.tolist(), root.hi.tolist(), np.abs(a).tolist()):
            assert Fraction(lo) ** 2 <= Fraction(p) < Fraction(math.nextafter(lo, math.inf)) ** 2
            assert Fraction(math.nextafter(hi, -math.inf)) ** 2 < Fraction(p) <= Fraction(hi) ** 2


_fegetround = ctypes.CDLL(None).fegetround
_fegetround.argtypes = ()
_fegetround.restype = ctypes.c_int


class TestModeRestored:
    """Every operation leaves the process in round-to-nearest, also when it
    raises, so the float code around the interval layer (bisection
    midpoints, counterexample checks, the packer) runs in the default
    mode."""

    def test_after_every_operation(self) -> None:
        x = IntervalArray(np.array([-2.0, 0.5, 1.0]), np.array([-1.0, 3.0, 1.0]))
        d = IntervalArray(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))
        u = IntervalArray(np.array([-0.5, 0.0, 0.25]), np.array([0.5, 0.75, 1.0]))
        ops = [
            lambda: x + d, lambda: 1.0 + x, lambda: x - d, lambda: 1.0 - x, lambda: -x,
            lambda: x * d, lambda: x * 3.0, lambda: -3.0 * x, lambda: x / d, lambda: x / 3.0,
            lambda: x / -3.0, lambda: 1.0 / d, lambda: x.square(), lambda: d.sqrt(),
            lambda: u.acos(), lambda: x.min_with(d), lambda: x.max_with(1.0),
        ]
        assert _fegetround() == iarrays._NEAREST
        for op in ops:
            op()
            assert _fegetround() == iarrays._NEAREST

    def test_after_an_operation_that_raises(self) -> None:
        big = lane((1e308, 1e308))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                big + 1e308  # raised inside the window rounding toward -inf
        assert _fegetround() == iarrays._NEAREST
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                big * lane((2.0, 2.0))
        assert _fegetround() == iarrays._NEAREST
        two = IntervalArray(np.zeros(2), np.ones(2))
        three = IntervalArray(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            two + three  # operands do not broadcast
        assert _fegetround() == iarrays._NEAREST

    def test_after_prove(self) -> None:
        tp1 = next(s for s in lemma_catalog() if s.name == "LEMMA_TP1")
        assert prove(tp1).stats.undecided_count == 0
        assert _fegetround() == iarrays._NEAREST


class TestPlatformGuard:
    """The import-time self-check: where directed rounding is not honoured,
    interval operations refuse with DiskpackError, and the rest of the
    library works."""

    def test_check_passes_here_and_rejects_an_ignored_mode(self) -> None:
        assert iarrays._setround is not iarrays._no_directed_rounding
        assert iarrays._honours_rounding(iarrays._setround)
        assert not iarrays._honours_rounding(lambda mode: 0)
        assert not iarrays._honours_rounding(lambda mode: -1)
        assert _fegetround() == iarrays._NEAREST

    def test_failed_check_refuses_rounding_operations(self, monkeypatch) -> None:
        monkeypatch.setattr(iarrays, "_honours_rounding", lambda setround: False)
        monkeypatch.setattr(iarrays, "_setround", iarrays._select_setround())
        x = lane((1.0, 2.0))
        for op in (lambda: x + 1.0, lambda: x - x, lambda: x * x, lambda: x * 2.0,
                   lambda: x / x, lambda: x / 3.0, lambda: x.square(), lambda: x.sqrt()):
            with pytest.raises(DiskpackError, match="directed rounding"):
                op()
            assert _fegetround() == iarrays._NEAREST
        assert (-x).lo[0] == -2.0 and x.min_with(0.0).hi[0] == 0.0
        res = pack([0.5, 0.4, 0.3])
        assert res.ok and validate(res.packing.placements).ok

    def test_failed_check_at_import_leaves_pack_and_validate_working(self) -> None:
        # A C library without fesetround, patched in before diskpack loads.
        script = (
            "import ctypes, numpy\n"
            "ctypes.CDLL = lambda *args, **kwargs: object()\n"
            "import diskpack\n"
            "from diskpack import iarrays\n"
            "assert iarrays._setround is iarrays._no_directed_rounding\n"
            "res = diskpack.pack([0.5, 0.4, 0.3])\n"
            "assert res.ok and diskpack.validate(res.packing.placements).ok\n"
            "try:\n"
            "    diskpack.IntervalArray.from_point([1.0]) + 1.0\n"
            "except diskpack.DiskpackError as e:\n"
            "    print('refused:', e)\n"
        )
        src = str(Path(iarrays.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("refused: interval arithmetic needs IEEE directed rounding")


class TestCertMasks:
    def test_lanewise_independence(self):
        x = IntervalArray(np.array([0.0, 0.0]), np.array([1.0, 3.0]))
        le2 = x.cert_le(2.0)
        assert le2[0] and not le2[1]

    def test_touching_bound_le_but_not_lt(self):
        x = IntervalArray(np.array([0.0]), np.array([1.0]))
        assert x.cert_le(1.0).all()
        assert not x.cert_lt(1.0).any()
        assert x.cert_ge(0.0).all()
        assert not x.cert_gt(0.0).any()


class TestContainmentFuzz:
    def test_small_fuzz_run_has_zero_violations(self):
        checks, violations = interval_containment_fuzz(seed=20260825, lanes=5000)
        assert checks >= 100_000
        assert violations == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reseeded_runs_stay_clean(self, seed):
        _, violations = interval_containment_fuzz(seed=seed, lanes=2000)
        assert violations == 0


def _in_nearest(name, modes=(iarrays._DOWN, iarrays._UP)):
    """A mutant: IntervalArray.<name> with each directed mode in `modes`
    replaced by round-to-nearest while it runs."""

    def apply(monkeypatch):
        method = getattr(IntervalArray, name)
        setround = iarrays._setround

        def nearest_for(mode):
            return setround(iarrays._NEAREST if mode in modes else mode)

        def mutant(self, *args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(iarrays, "_setround", nearest_for)
                return method(self, *args)

        monkeypatch.setattr(IntervalArray, name, mutant)

    return apply


def _modes_swapped(monkeypatch):
    down, up = iarrays._DOWN, iarrays._UP
    monkeypatch.setattr(iarrays, "_DOWN", up)
    monkeypatch.setattr(iarrays, "_UP", down)


class TestRoundingMutants:
    """Each mutant of the directed rounding must make criterion 6's fuzz, at
    one seed, report violations (a count, not an exception); the unmutated
    code reports none."""

    @staticmethod
    def _violations():
        return interval_containment_fuzz(seed=20260825, lanes=12_000)[1]

    def test_unmutated_is_clean(self):
        assert self._violations() == 0

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda mp: mp.setattr(iarrays, "_setround", lambda mode: 0),
            _modes_swapped,
            lambda mp: mp.setattr(iarrays, "_ACOS_SLOP", 0),
            _in_nearest("sqrt"),
            _in_nearest("__truediv__"),
            _in_nearest("square", (iarrays._UP,)),
            _in_nearest("square", (iarrays._DOWN,)),
        ],
        ids=[
            "setround-no-op",
            "modes-swapped",
            "no-acos-slop",
            "sqrt-unrounded",
            "division-unrounded",
            "square-upper-end-unrounded",
            "square-lower-end-unrounded",
        ],
    )
    def test_mutant_is_caught(self, monkeypatch, mutant):
        mutant(monkeypatch)
        assert self._violations() > 0


class TestExactSoundness:
    """Every lane encloses the exact image of every point of its operands."""

    @given(pairs(), pairs())
    @example((0.0, 0.0), (0.0, 0.0))
    @example(ONE_ULP, ONE_ULP)
    @example(UNDER_A, UNDER_B)
    @example((5e-324, 5e-324), (-5e-324, -5e-324))
    def test_add_sub_mul(self, x, y) -> None:
        ix, iy = lane(x), lane(y)
        for opn, r in (("add", ix + iy), ("sub", ix - iy), ("mul", ix * iy)):
            for p in exact_points(x):
                for q in exact_points(y):
                    z = {"add": p + q, "sub": p - q, "mul": p * q}[opn]
                    assert_contains(r, z)

    @given(pairs(), nonzero_pairs())
    @example((0.0, 0.0), ONE_ULP)
    @example(ONE_ULP, ONE_ULP)
    @example((TINY, 1.0), (-1e-8, -1e-8))
    @example(UNDER_A, (3.0, 3.0))
    def test_div(self, x, y) -> None:
        r = lane(x) / lane(y)
        for p in exact_points(x):
            for q in exact_points(y):
                assert_contains(r, p / q)

    @given(pairs())
    @example((0.0, 0.0))
    @example(ONE_ULP)
    @example(UNDER_A)
    @example((-5e-324, 5e-324))
    def test_square_neg(self, x) -> None:
        ix = lane(x)
        sq, neg = ix.square(), -ix
        for p in exact_points(x):
            assert_contains(sq, p * p)
            assert_contains(neg, -p)

    @given(pairs(), pairs())
    @example((0.0, 0.0), (0.0, 0.0))
    @example(ONE_ULP, (1.0, 1.0))
    def test_min_max_with(self, x, y) -> None:
        ix, iy = lane(x), lane(y)
        mn, mx = ix.min_with(iy), ix.max_with(iy)
        for p in exact_points(x):
            for q in exact_points(y):
                assert_contains(mn, min(p, q))
                assert_contains(mx, max(p, q))

    @given(pairs(), finite)
    @example((0.0, 0.0), 0.0)
    @example(ONE_ULP, 3.0)
    @example(UNDER_A, UNDER_B[0])
    def test_scalar_operands(self, x, c) -> None:
        ix = lane(x)
        cases = [
            (ix + c, lambda p: p + Fraction(c)),
            (c * ix, lambda p: Fraction(c) * p),
            (c - ix, lambda p: Fraction(c) - p),
        ]
        if abs(c) >= 1e-200:  # keeps the quotient finite
            cases.append((ix / c, lambda p: p / Fraction(c)))
        for r, f in cases:
            for p in exact_points(x):
                assert_contains(r, f(p))

    @given(st.floats(min_value=0.0, max_value=1e8), st.floats(min_value=0.0, max_value=1e8))
    @example(0.0, 0.0)
    @example(*ONE_ULP)
    @example(5e-324, TINY)
    def test_sqrt(self, a: float, b: float) -> None:
        lo, hi = min(a, b), max(a, b)
        r = lane((lo, hi)).sqrt()
        with mp.workdps(40):
            for p in (lo, hi):
                assert_contains_mp(r, mp.sqrt(mp.mpf(p)))

    @given(st.floats(min_value=5e-324, max_value=1e8), st.floats(min_value=0.0, max_value=1e8))
    @example(1.0, 4.0)
    @example(5e-324, 0.0)
    def test_sqrt_clamps_partial_domain(self, a: float, b: float) -> None:
        # [-a, b] straddles sqrt's domain edge: the lane keeps the
        # non-negative part, [0, sqrt(b)], instead of poisoning
        r = lane((-a, b)).sqrt()
        assert not r.poisoned().any()
        assert r.lo[0] == 0.0
        with mp.workdps(40):
            assert_contains_mp(r, mp.sqrt(mp.mpf(b)))

    def test_rounding_near_underflow_is_caught(self) -> None:
        # products just above the smallest normal, whose rounding error
        # lies below the subnormal spacing
        a, b = UNDER_A[0], UNDER_B[0]
        assert_contains(lane(UNDER_A) * lane(UNDER_B), Fraction(a) * Fraction(b))
        r = lane((TINY, 1.0)) / lane((-1e-8, -1e-8))
        assert_contains(r, Fraction(TINY) / Fraction(-1e-8))

    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
    @example(0.0, 0.0)
    @example(math.nextafter(1.0, 0.0), 1.0)
    @example(-1.0, math.nextafter(-1.0, 0.0))
    def test_acos(self, a: float, b: float) -> None:
        lo, hi = min(a, b), max(a, b)
        r = lane((lo, hi)).acos()
        with mp.workdps(40):
            for p in (lo, hi):
                assert_contains_mp(r, mp.acos(mp.mpf(p)))
