"""Vectorized interval arrays: construction, soundness, poisoning.

Soundness oracle: rational arithmetic (fractions.Fraction) is exact for
+, -, *, /, square of double endpoints, and mpmath at 40 digits stands in
for sqrt/acos, so every containment assertion compares a lane's endpoints
against the true real value rather than another float computation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from diskpack import iarrays
from diskpack.iarrays import IntervalArray, _down, _up

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
        # the sum overflows: the lower end inflates to inf - inf = NaN, the
        # upper end stays inf, which still bounds the real sum from above
        with np.errstate(all="ignore"):
            x = IntervalArray(np.array([1e308]), np.array([1.5e308])) + 1e308
        assert np.isnan(x.lo[0]) and x.hi[0] == np.inf
        assert x.poisoned().all()
        assert x.cert_le(np.inf).all()
        assert not x.cert_lt(np.inf).any()
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
        # The one documented difference on finite lanes: a straddle whose
        # lower end squares past the largest double (TestSquareDifferences).
        with np.errstate(over="ignore"):
            assume(not np.any((lo < 0.0) & (hi > 0.0) & np.isinf(lo * lo)))
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
    """The two lane shapes on which the magnitude-based square differs from
    the nested-np.where reference; both are sound."""

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
        assert np.isnan(ref_lo).all() and np.isinf(ref_hi).all()
        with np.errstate(over="ignore"):
            r = IntervalArray(lo, hi).square()
        assert bits(r.lo) == bits(np.zeros(3))
        assert np.all(r.hi == np.inf)


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


class TestInfiniteEndpoints:
    """A computed lower end of +inf or upper end of -inf lies past every
    double, so no bound it could give is sound: that end must come back
    NaN, which poisons the lane, never as a bound that excludes the true
    value.  The other end, where it is not NaN, is the infinity on the
    true value's side."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lane((1e308, 1.5e308)) + lane((1e308, 1e308)),
            lambda: lane((1e308, 1.5e308)) + 1e308,
            lambda: lane((1e308, 1e308)) - lane((-1e308, -1e308)),
            lambda: lane((1e200, 1e201)) * lane((1e200, 1e200)),
            lambda: lane((1e200, 1e201)) * 1e200,
            lambda: lane((1e200, 1e201)) / 1e-200,
            lambda: lane((1e200, 1e201)).square(),
            lambda: lane((-1e201, -1e200)).square(),
            lambda: lane((np.inf, np.inf)) + 0.0,
            lambda: lane((np.inf, np.inf)) * 2.0,
            lambda: lane((np.inf, np.inf)).square(),
            lambda: lane((np.inf, np.inf)).sqrt(),
        ],
    )
    def test_lower_end_past_the_largest_double(self, make) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            r = make()
        assert np.isnan(r.lo[0])
        assert np.isnan(r.hi[0]) or r.hi[0] == np.inf
        assert not r.cert_gt(-np.inf).any() and not r.cert_le(BIG).any()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lane((-1.5e308, -1e308)) - lane((1e308, 1e308)),
            lambda: lane((-1.5e308, -1e308)) - 1e308,
            lambda: -1e308 - lane((1e308, 1.5e308)),
            lambda: lane((-1e201, -1e200)) * lane((1e200, 1e200)),
            lambda: lane((1e200, 1e201)) * -1e200,
            lambda: lane((-np.inf, -np.inf)) - 0.0,
            lambda: lane((-np.inf, -np.inf)) * lane((1.0, 2.0)),
        ],
    )
    def test_upper_end_past_the_lowest_double(self, make) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            r = make()
        assert np.isnan(r.hi[0])
        assert np.isnan(r.lo[0]) or r.lo[0] == -np.inf
        assert not r.cert_lt(np.inf).any() and not r.cert_ge(-BIG).any()

    def test_inflation_of_infinities(self) -> None:
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


def _unrounded(name, ends=("_down", "_up")):
    """A mutant: IntervalArray.<name> with the outward roundings `ends`
    made identities while it runs."""

    def apply(monkeypatch):
        method = getattr(IntervalArray, name)

        def mutant(self, *args):
            with pytest.MonkeyPatch.context() as mp:
                for end in ends:
                    mp.setattr(iarrays, end, lambda a: a)
                return method(self, *args)

        monkeypatch.setattr(IntervalArray, name, mutant)

    return apply


class TestRoundingMutants:
    """Each mutant of the outward rounding must make criterion 6's fuzz, at
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
            lambda mp: mp.setattr(iarrays, "_OUT_ABS", 0.0),
            lambda mp: mp.setattr(iarrays, "_OUT_REL", 0.0),
            lambda mp: mp.setattr(iarrays, "_ACOS_SLOP", 0),
            _unrounded("sqrt"),
            _unrounded("__truediv__"),
            _unrounded("square", ("_up",)),
            _unrounded("square", ("_down",)),
        ],
        ids=[
            "no-absolute-margin",
            "no-relative-margin",
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
