"""Closed-form disk geometry against independent oracles and frozen values.

The FROZEN literals below are nearest doubles to 40-digit mpmath references
produced by ``python3 tests/oracles.py``, which derives everything from fit
predicates and quadrature rather than from the closed forms under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from diskpack import (
    CONSTANTS,
    PlacedSquare,
    T,
    T_inv,
    chord_width,
    ell1,
    pocket_geometry,
    segment_area_below,
    sigma,
    square_in_disk,
    squares_overlap,
    x_max,
    y_residual,
    z_below,
)
from diskpack.errors import DomainError
from diskpack.geometry import S1_STAR, S1_STAR_ENCLOSURE, SQRT2
from diskpack.iarrays import IntervalArray

SQRT85 = math.sqrt(8.0 / 5.0)

# independently recomputed; see module docstring
FROZEN = {
    "s1_star": 1.066804193588354,
    "sigma": {
        0.295: 0.23138266312733588,
        0.5: 0.33951303034606106,
        1.0: 0.44906249366470885,
        1.2: 0.38162636914152065,
        SQRT85: 0.351939997954148,
    },
    "T": {0.0: 0.8944271909999159, 0.25: 0.6888194417315588},
    "T_inv": {0.295: 0.694062055687104, 1.0: -0.13397459621556135},
    "ell1": {0.295: 0.5724151775420431, 1.0: 0.49098476656751755},
    "segment_area": {
        0.0: 1.5707963267948966,
        0.3: 0.9799219123544154,
        -0.5: 2.527407804285415,
    },
}


class TestFrozenReferences:
    def test_sigma(self) -> None:
        for s1, want in FROZEN["sigma"].items():
            assert sigma(s1) == pytest.approx(want, abs=5e-16)

    def test_T(self) -> None:
        for u, want in FROZEN["T"].items():
            assert T(u) == pytest.approx(want, abs=5e-16)

    def test_T_inv(self) -> None:
        for s, want in FROZEN["T_inv"].items():
            assert T_inv(s) == pytest.approx(want, abs=5e-16)

    def test_ell1(self) -> None:
        for s1, want in FROZEN["ell1"].items():
            assert ell1(s1) == pytest.approx(want, abs=5e-16)

    def test_segment_area(self) -> None:
        for c, want in FROZEN["segment_area"].items():
            assert segment_area_below(c) == pytest.approx(want, abs=5e-16)

    def test_s1_star(self) -> None:
        assert S1_STAR == pytest.approx(FROZEN["s1_star"], abs=5e-16)
        lo, hi = S1_STAR_ENCLOSURE
        assert lo <= FROZEN["s1_star"] <= hi
        # closed form of the crossover: sqrt((2 + sqrt(2)) / 3)
        assert S1_STAR == pytest.approx(math.sqrt((2 + math.sqrt(2)) / 3), abs=1e-15)


class TestPinnedS1Star:
    def test_enclosure_contains_exact_value(self) -> None:
        # s* = sqrt((2 + sqrt(2)) / 3), so 3 s*^2 - 2 = sqrt(2).  For x > 0
        # with 3 x^2 - 2 > 0, x < s* iff (3 x^2 - 2)^2 < 2.  Exact rationals
        # only: no rounding enters the argument.
        lo, hi = (Fraction(v) for v in S1_STAR_ENCLOSURE)
        assert lo > 0
        assert 3 * lo**2 - 2 > 0
        assert (3 * lo**2 - 2) ** 2 < 2
        assert (3 * hi**2 - 2) ** 2 > 2

    def test_s1_star_is_the_midpoint(self) -> None:
        lo, hi = S1_STAR_ENCLOSURE
        assert 0.5 * (lo + hi) == S1_STAR


class TestAnchorValues:
    """Directly asserted special values."""

    def test_worst_side(self) -> None:
        # largest square with bottom on the horizontal diameter: side 2/sqrt(5)
        assert T(0.0) == pytest.approx(2.0 / math.sqrt(5.0), abs=5e-16)
        assert CONSTANTS.worst_side == pytest.approx(2.0 / math.sqrt(5.0), abs=0)

    def test_T_endpoints(self) -> None:
        assert T(1.0) == 0.0  # degenerate: bottom edge tangent at the top
        assert T(-1.0) == pytest.approx(8.0 / 5.0, abs=1e-15)

    def test_T_inv_of_worst_side_is_zero(self) -> None:
        assert T_inv(2.0 / math.sqrt(5.0)) == pytest.approx(0.0, abs=1e-15)

    def test_T_inv_of_sqrt2(self) -> None:
        # inscribed square rests symmetric about the diameter
        assert T_inv(SQRT2) == pytest.approx(-SQRT2 / 2.0, abs=1e-15)

    def test_segment_area_endpoints(self) -> None:
        assert segment_area_below(1.0) == pytest.approx(0.0, abs=1e-15)
        assert segment_area_below(-1.0) == pytest.approx(math.pi, abs=1e-15)
        assert segment_area_below(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_critical_constants(self) -> None:
        assert CONSTANTS.critical_area == 8.0 / 5.0
        assert CONSTANTS.critical_density == pytest.approx(8.0 / (5.0 * math.pi), abs=0)
        # worst pair: T_inv(worst_side) = 0 pins both squares against the circle
        s = CONSTANTS.worst_side
        assert 2 * s * s == pytest.approx(8.0 / 5.0, abs=1e-15)


def _mp_segment_area(c: mp.mpf) -> mp.mpf:
    return mp.acos(c) - c * mp.sqrt(1 - c * c)


unit = st.floats(min_value=-1.0, max_value=1.0)
BELOW_ONE = math.nextafter(1.0, 0.0)


class TestSegmentAreaEnclosure:
    """The IntervalArray form [f(hi), f(lo)] of the nonincreasing f."""

    @given(unit, unit)
    @example(1.0, 1.0)
    @example(-1.0, -1.0)
    @example(0.0, 0.0)
    @example(math.nextafter(BELOW_ONE, 0.0), BELOW_ONE)
    def test_encloses_exact_values_and_beats_natural_extension(self, a, b) -> None:
        lo, hi = min(a, b), max(a, b)
        c = IntervalArray(np.array([lo]), np.array([hi]))
        r = segment_area_below(c)
        with mp.workdps(40):
            for p in (mp.mpf(lo), mp.mpf(hi), (mp.mpf(lo) + mp.mpf(hi)) / 2):
                v = _mp_segment_area(p)
                assert mp.mpf(float(r.lo[0])) <= v <= mp.mpf(float(r.hi[0])), (lo, hi)
        natural = c.acos() - c * (1 - c.square()).max_with(0.0).sqrt()
        assert natural.lo[0] <= r.lo[0] and r.hi[0] <= natural.hi[0]


class TestSigma:
    def test_matches_bisection_oracle_on_grid(self) -> None:
        # the acceptance criterion runs 1,000 points; keep a fast spot check here
        for i in range(101):
            s1 = 0.295 + (SQRT85 - 0.295) * i / 100
            assert sigma(s1) == pytest.approx(oracles.sigma_bisect(s1), abs=1e-9)

    def test_branch_agreement_at_crossover(self) -> None:
        # both closed-form regimes, written out, agree at the crossover
        s1 = S1_STAR
        d = s1 - 2.0 * T_inv(s1)
        resting = (-s1 - 2.0 * T_inv(s1) + math.sqrt(8.0 - d * d)) / 4.0
        centered = (math.sqrt(20.0 - s1 * s1) - 2.0 * s1) / 5.0
        assert abs(resting - centered) < 1e-10
        assert sigma(s1) == pytest.approx(resting, abs=1e-10)

    def test_range_bounds(self) -> None:
        # sigma stays in (0.231, 0.6] on the dispatch range
        for i in range(1001):
            s1 = 0.295 + (SQRT85 - 0.295) * i / 1000
            v = sigma(s1)
            assert 0.231 < v <= 0.6

    @given(st.floats(min_value=0.295, max_value=SQRT85))
    def test_pocket_square_actually_fits(self, s1: float) -> None:
        # the claimed side passes the geometric fit predicate with slack,
        # and a 1e-6 larger square already fails
        v = sigma(s1)
        assert oracles.pocket_square_fits(s1, v - 1e-12)
        assert not oracles.pocket_square_fits(s1, v + 1e-6)


class TestRoundTrips:
    @given(st.floats(min_value=1e-6, max_value=SQRT2))
    def test_T_of_T_inv(self, s: float) -> None:
        assert T(T_inv(s)) == pytest.approx(s, abs=1e-12)

    @given(st.floats(min_value=-0.70710678, max_value=0.999999))
    def test_T_inv_of_T(self, u: float) -> None:
        # valid where T(u) lands in T_inv's domain (0, sqrt(2)]
        s = T(u)
        if 0 < s <= SQRT2:
            assert T_inv(s) == pytest.approx(u, abs=1e-12)

    def test_domain_errors(self) -> None:
        with pytest.raises(DomainError):
            T(1.5)
        with pytest.raises(DomainError):
            T(-1.0000001)
        with pytest.raises(DomainError):
            T_inv(0.0)
        with pytest.raises(DomainError):
            T_inv(SQRT2 + 1e-6)
        with pytest.raises(DomainError):
            segment_area_below(1.0000001)


class TestChordAndShelfHelpers:
    def test_chord_width_center(self) -> None:
        # full diameter for a hairline band at the center
        assert chord_width(1e-9, 1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_chord_width_symmetry(self) -> None:
        # band [y_t - h, y_t] vs its mirror [-y_t, -y_t + h]
        assert chord_width(0.7, 0.2) == pytest.approx(chord_width(-0.5, 0.2), abs=1e-15)

    def test_chord_width_is_width_at_worst_ordinate(self) -> None:
        # the constraining ordinate is the band edge farther from the diameter
        y_t, h = 0.9, 0.5
        worst = max(abs(y_t), abs(y_t - h))
        assert chord_width(y_t, h) == pytest.approx(
            2.0 * math.sqrt(1.0 - worst * worst), abs=1e-15
        )

    def test_x_max_branches(self) -> None:
        # u <= 2 min(a, -b): the square straddles the diameter, left side at
        # the vertically centered pin T_inv(u)
        assert x_max(0.3, -0.4, 0.2) == pytest.approx(T_inv(0.2), abs=1e-15)
        # u > 2 min(a, -b): flush at the nearer cut, far corners pin it;
        # hand value: c = 0.1, sqrt(1 - 0.8^2) - 0.9 = -0.3
        assert x_max(0.5, -0.1, 0.9) == pytest.approx(-0.3, abs=1e-15)

    def test_z_below_matches_T_chain(self) -> None:
        s1 = 1.0
        heights = [0.4, 0.3]
        want = T(min(-T_inv(s1) + 0.7, 1.0))
        assert z_below(s1, heights) == pytest.approx(want, abs=1e-15)

    def test_y_residual_signature(self) -> None:
        # residual vertical room after stacking h below the chord at a
        a, h, h_next = 0.5, 0.3, 0.2
        w = chord_width(a, h)
        v = y_residual(a, h, w, h_next)
        assert math.isfinite(v)


class TestPocketGeometry:
    def test_shallow_vs_tall_split(self) -> None:
        shallow = pocket_geometry(0.9)  # below s1*: pocket floor above -sigma/2
        tall = pocket_geometry(1.2)
        assert shallow.bx == pytest.approx(ell1(0.9), abs=1e-15)
        assert shallow.by == pytest.approx(0.9, abs=0)
        assert shallow.bottom_y == pytest.approx(T_inv(0.9), abs=0)
        assert tall.bx == pytest.approx(sigma(1.2), abs=1e-15)
        assert tall.bottom_y == pytest.approx(-sigma(1.2) / 2.0, abs=1e-15)

    @pytest.mark.parametrize(
        "s1",
        [
            0.295,
            0.5,
            0.9,
            math.nextafter(S1_STAR, 0.0),
            S1_STAR,
            math.nextafter(S1_STAR, 2.0),
            1.2,
            SQRT2,
        ],
    )
    def test_fields_equal_the_kind_generic_formulas(self, s1: float) -> None:
        # pocket_geometry shares one T_inv(s1) among its fields; each must
        # equal the formula evaluated on its own, bit for bit.
        geo = pocket_geometry(s1)
        assert geo.t_inv == T_inv(s1)
        assert geo.sigma == sigma(s1)
        assert geo.ell1 == ell1(s1)
        if s1 <= S1_STAR:
            assert geo.bottom_y == T_inv(s1)
        else:
            assert geo.by == T_inv(s1) + s1 + sigma(s1) / 2

    @pytest.mark.parametrize("s1", [0.0, -0.5, 1.5, 2.0, math.nan])
    def test_side_outside_the_domain_is_refused(self, s1: float) -> None:
        with pytest.raises(DomainError):
            pocket_geometry(s1)

    @given(st.floats(min_value=0.295, max_value=SQRT2))
    def test_pocket_square_in_disk(self, s1: float) -> None:
        # a sigma-sized square at the pocket anchor stays inside the disk
        geo = pocket_geometry(s1)
        sq = PlacedSquare(s1 / 2.0, geo.bottom_y, sigma(s1))
        assert square_in_disk(sq, tol=1e-9)


class TestSquarePredicates:
    def test_square_in_disk_boundary(self) -> None:
        s = 2.0 / math.sqrt(5.0)
        assert square_in_disk(PlacedSquare(-s / 2.0, 0.0, s), tol=1e-12)
        assert not square_in_disk(PlacedSquare(-s / 2.0, 0.0, s + 1e-6), tol=1e-9)

    def test_overlap_shared_edge_is_clean(self) -> None:
        p = PlacedSquare(0.0, 0.0, 0.5)
        q = PlacedSquare(0.5, 0.0, 0.5)
        assert not squares_overlap(p, q, tol=1e-12)
        assert squares_overlap(p, PlacedSquare(0.49, 0.0, 0.5), tol=1e-9)

    def test_far_corner_norm(self) -> None:
        sq = PlacedSquare(-0.3, -0.4, 0.2)
        assert sq.far_corner_norm() == pytest.approx(0.5, abs=1e-15)
