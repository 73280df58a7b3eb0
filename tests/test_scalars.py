"""Kind-generic numeric helpers: dispatch, branching, domain behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskpack.errors import DomainError
from diskpack.iarrays import IntervalArray
from diskpack.scalars import (
    acos,
    branch_le,
    branch_lt,
    enclosure,
    lift,
    smax,
    smin,
    sqrt,
    square,
)


def _arr(lo, hi):
    return IntervalArray(np.asarray(lo, float), np.asarray(hi, float))


class TestElementaryDispatch:
    def test_sqrt_per_kind(self):
        assert sqrt(4.0) == 2.0
        ia = sqrt(_arr([4.0], [9.0]))
        assert ia.lo[0] <= 2.0 and ia.hi[0] >= 3.0

    def test_sqrt_float_negative_raises(self):
        with pytest.raises(DomainError):
            sqrt(-1.0)

    def test_acos_per_kind(self):
        assert acos(1.0) == 0.0
        ia = acos(_arr([0.0], [1.0]))
        assert ia.lo[0] <= 0.0 and ia.hi[0] >= math.pi / 2

    def test_acos_float_outside_raises(self):
        with pytest.raises(DomainError):
            acos(1.0000001)

    def test_square_per_kind(self):
        assert square(-3.0) == 9.0
        assert square(_arr([-3.0], [2.0])).lo[0] == 0.0

    def test_smin_smax_per_kind(self):
        assert smin(1.0, 2.0) == 1.0 and smax(1.0, 2.0) == 2.0
        ia = smin(_arr([0.0], [3.0]), 1.0)
        assert ia.lo[0] <= 0.0 and ia.hi[0] >= 1.0
        ia = smax(_arr([0.0], [3.0]), _arr([1.0], [2.0]))
        assert ia.lo[0] >= 1.0 - 1e-15 and ia.hi[0] >= 3.0
        ia = smin(2.0, _arr([1.0, 3.0], [1.0, 3.0]))
        assert ia.hi[0] <= 1.0 + 1e-15 and ia.hi[1] <= 2.0 + 1e-15

    def test_mixed_scalar_interval_minmax_symmetry(self):
        a = _arr([0.0], [1.0])
        left = smin(a, 0.5)
        right = smin(0.5, a)
        assert left.lo[0] == right.lo[0] and left.hi[0] == right.hi[0]


class TestLiftAndEnclosure:
    def test_lift_matches_kind(self):
        assert lift(2.5, 1.0) == 2.5
        la = lift(2.5, _arr([0.0, 0.0], [1.0, 1.0]))
        assert isinstance(la, IntervalArray) and la.shape == (2,)
        assert np.all(la.lo == 2.5) and np.all(la.hi == 2.5)

    def test_enclosure_keeps_interval_on_enclosure_paths(self):
        ia = enclosure((1.41, 1.42), _arr([0.0, 0.0], [1.0, 1.0]))
        assert ia.shape == (2,)
        assert np.all(ia.lo == 1.41) and np.all(ia.hi == 1.42)

    def test_enclosure_midpoint_on_float_path(self):
        assert enclosure((1.0, 3.0), 0.5) == 2.0


class TestFloatBranch:
    def test_dead_side_never_runs(self):
        def boom():
            raise AssertionError("dead side evaluated")

        assert branch_le(1.0, 2.0, lambda: "low", boom) == "low"
        assert branch_le(3.0, 2.0, boom, lambda: "high") == "high"
        assert branch_lt(1.0, 1.0, boom, lambda: "ge") == "ge"
        assert branch_le(1.0, 1.0, lambda: "le", boom) == "le"


class TestIntervalBranch:
    """One-lane IntervalArray branches."""

    def test_certain_side_short_circuits(self):
        def boom():
            raise AssertionError("dead side evaluated")

        out = branch_le(_arr([0.0], [1.0]), 2.0, lambda: _arr([5.0], [5.0]), boom)
        assert out.lo[0] == 5.0
        out = branch_lt(_arr([3.0], [4.0]), 2.0, boom, lambda: _arr([7.0], [7.0]))
        assert out.hi[0] == 7.0

    def test_unknown_returns_hull_of_both_sides(self):
        out = branch_le(
            _arr([0.0], [2.0]), 1.0,
            lambda: _arr([-1.0], [-1.0]),
            lambda: _arr([4.0], [4.0]),
        )
        assert out.lo[0] <= -1.0 and out.hi[0] >= 4.0

    def test_unknown_with_out_of_domain_side_poisons_lane(self):
        out = branch_le(
            _arr([-1.0], [1.0]), 0.0,
            lambda: sqrt(_arr([-2.0], [-2.0])),  # poisoned, never raises
            lambda: _arr([1.0], [1.0]),
        )
        assert out.poisoned().all()


class TestArrayBranch:
    def test_uniform_lanes_skip_dead_side(self):
        def boom():
            raise AssertionError("dead side evaluated")

        x = _arr([0.0, 0.2], [0.5, 0.4])
        out = branch_le(x, 1.0, lambda: x + 1.0, boom)
        assert np.all(out.lo >= 1.0 - 1e-12)
        out = branch_lt(x, -1.0, boom, lambda: x - 1.0)
        assert np.all(out.hi <= -0.5 + 1e-12)

    def test_mixed_lanes_take_hull_on_undecided(self):
        # lane 0 certainly <=, lane 1 certainly >, lane 2 straddles
        x = _arr([0.0, 2.0, 0.5], [0.5, 3.0, 1.5])
        out = branch_le(
            x, 1.0,
            lambda: IntervalArray.constant(10.0, 11.0, 3),
            lambda: IntervalArray.constant(-11.0, -10.0, 3),
        )
        assert out.lo[0] == 10.0 and out.hi[0] == 11.0
        assert out.lo[1] == -11.0 and out.hi[1] == -10.0
        assert out.lo[2] == -11.0 and out.hi[2] == 11.0

    def test_branch_against_interval_rhs(self):
        x = _arr([0.0], [0.5])
        out = branch_lt(
            x, _arr([0.6], [0.7]),
            lambda: IntervalArray.constant(1.0, 1.0, 1),
            lambda: IntervalArray.constant(2.0, 2.0, 1),
        )
        assert out.lo[0] == 1.0

    def test_float_truth_matches_interval_hull(self):
        # The float path picks one side; the enclosure of the same point must
        # contain that value even when its branch is undecided.
        for lhs in (0.49, 0.5, 0.51):
            fval = branch_le(lhs, 0.5, lambda: lhs + 1.0, lambda: lhs - 1.0)
            box = _arr([lhs - 0.05], [lhs + 0.05])
            enc = branch_le(box, 0.5, lambda: box + 1.0, lambda: box - 1.0)
            assert enc.lo[0] <= fval <= enc.hi[0]
