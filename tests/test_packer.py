"""Packing pipeline: dispatch, placement, validation, generators."""

from __future__ import annotations

import math
import random

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from diskpack.errors import InputError
from diskpack.geometry import CONSTANTS, PlacedSquare
from diskpack.packer import (
    FailReason,
    Instance,
    gen_random,
    gen_worst_case,
    pack,
    pack_c1,
    pack_c2,
    pack_c3,
    refined_shelf_place,
    shelf_pack,
    validate,
)

WORST = CONSTANTS.worst_side  # 2/sqrt(5)
DISTS = ("uniform", "powerlaw", "equal", "adversarial_top4")


class TestWorstCase:
    def test_two_critical_squares_pack_exactly(self):
        res = pack(gen_worst_case())
        assert res.ok and res.packing is not None
        assert res.packing.case == "C3"
        rep = validate(res.packing.placements, tol=1e-9)
        assert rep.ok
        # instance is tight: the far corners lie on the circle
        assert rep.max_corner_norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
    def test_epsilon_above_worst_fails(self, eps):
        res = pack(gen_worst_case(eps))
        assert not res.ok
        assert res.reason is FailReason.AREA_EXCEEDS_GUARANTEE
        assert res.failed_index is not None

    def test_gen_worst_case_rejects_nonpositive_side(self):
        with pytest.raises(InputError):
            gen_worst_case(-1.0)


class TestDispatch:
    def test_small_sides_use_concentric_case(self):
        res = pack([0.295] * 4 + [0.2] * 10)
        assert res.ok and res.packing.case == "C1"
        assert validate(res.packing.placements, 1e-9).ok

    def test_just_above_pocket_leaves_concentric_case(self):
        res = pack([0.2951] + [0.2] * 6)
        assert res.ok and res.packing.case == "C3"

    def test_four_large_quadrant_case(self):
        res = pack([0.625, 0.625, 0.625, 0.625, 0.09, 0.09, 0.09])
        assert res.ok and res.packing.case == "C2"
        assert validate(res.packing.placements, 1e-9).ok

    def test_quadrant_case_needs_top4_area(self):
        # same largest side but light tail of the top four: falls through
        res = pack([0.625, 0.4, 0.4, 0.4, 0.09])
        assert res.ok and res.packing.case == "C3"

    def test_large_s1_always_layered(self):
        res = pack([0.9, 0.7, 0.3])
        assert res.ok and res.packing.case == "C3"
        assert validate(res.packing.placements, 1e-9).ok

    def test_oversized_single_square_fails_fast(self):
        res = pack([1.4143])
        assert not res.ok and res.reason is FailReason.AREA_EXCEEDS_GUARANTEE

    def test_largest_single_square_packs(self):
        res = pack([math.sqrt(2.0)])
        assert res.ok
        assert validate(res.packing.placements, 1e-9).ok


class TestResultShape:
    def test_placements_follow_input_order(self):
        sides = [0.3, 0.8, 0.5, 0.65]
        res = pack(sides)
        assert res.ok
        for want, placed in zip(sides, res.packing.placements):
            assert placed.side == want

    def test_total_area_reported(self):
        sides = [0.5, 0.4]
        res = pack(sides)
        assert res.packing.total_area == pytest.approx(0.41, abs=1e-15)

    def test_empty_instance_packs_vacuously(self):
        res = pack([])
        assert res.ok
        assert res.packing.placements == ()
        assert res.packing.total_area == 0.0

    def test_instance_rejects_bad_sides(self):
        with pytest.raises(InputError):
            Instance((0.5, -0.1))
        with pytest.raises(InputError):
            Instance((float("nan"),))
        with pytest.raises(InputError):
            Instance((0.0,))


class TestValidateSynthetic:
    def test_detects_overlap(self):
        placements = [PlacedSquare(-0.4, -0.4, 0.5), PlacedSquare(-0.2, -0.2, 0.5)]
        rep = validate(placements, 1e-9)
        assert not rep.ok
        assert rep.overlap_violations == ((0, 1),)
        assert rep.containment_violations == ()

    def test_shared_edge_is_clean(self):
        placements = [PlacedSquare(-0.5, -0.25, 0.5), PlacedSquare(0.0, -0.25, 0.5)]
        rep = validate(placements, 1e-9)
        assert rep.ok

    def test_detects_escape(self):
        placements = [PlacedSquare(0.5, 0.5, 0.4)]
        rep = validate(placements, 1e-9)
        assert not rep.ok
        assert rep.containment_violations == (0,)
        assert rep.max_corner_norm == pytest.approx(math.hypot(0.9, 0.9), abs=1e-15)

    def test_empty_report(self):
        rep = validate([], 1e-9)
        assert rep.ok and rep.checked == 0 and rep.max_corner_norm == 0.0

    def test_checked_counts_everything(self):
        res = pack([0.4] * 9)
        rep = validate(res.packing.placements, 1e-9)
        assert rep.checked == 9

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12, 1e-5, 1.0])
    def test_meaningless_tol_is_refused(self, tol):
        with pytest.raises(InputError):
            validate([PlacedSquare(0.0, 0.0, 0.1)], tol)
        with pytest.raises(InputError):
            validate([], tol)
        with pytest.raises(InputError):
            pack([0.5, 0.5], tol)
        with pytest.raises(InputError):
            pack([], tol)
        for pack_case in (pack_c1, pack_c2, pack_c3):
            with pytest.raises(InputError):
                pack_case([0.2] * 4, tol)


def _assert_matches_brute_force(placements, tol):
    escaped, pairs, max_norm = oracles.brute_force_validation(placements, tol)
    rep = validate(placements, tol)
    assert rep.checked == len(placements)
    assert list(rep.containment_violations) == escaped
    assert list(rep.overlap_violations) == sorted(rep.overlap_violations)  # ascending (i, j)
    assert all(i < j for i, j in rep.overlap_violations)
    assert set(rep.overlap_violations) == set(pairs)
    assert len(rep.overlap_violations) == len(pairs)
    both_nan = math.isnan(rep.max_corner_norm) and math.isnan(max_norm)
    assert rep.max_corner_norm == max_norm or both_nan
    assert rep.ok == (not escaped and not pairs)
    return rep


def _planted(placements, seed):
    """A copy of a packing with violations planted at seeded places: exact
    duplicates, copies shifted by a fraction of their side or by about tol,
    squares moved out of the disk, and copies shifted by exactly one side
    (a shared edge, not an overlap)."""
    rng = random.Random(seed)
    out = list(placements)
    for _ in range(max(3, len(out) // 50)):
        p = out[rng.randrange(len(out))]
        kind = rng.randrange(5)
        if kind == 0:
            out.append(p)
        elif kind == 1:
            f = rng.uniform(-0.9, 0.9)
            out.append(PlacedSquare(p.x + f * p.side, p.y + rng.uniform(-0.9, 0.9) * p.side, p.side))
        elif kind == 2:
            out.append(PlacedSquare(p.x + rng.choice((-1, 1)) * rng.choice((1e-12, 2e-9, 1e-6)), p.y, p.side))
        elif kind == 3:
            out.append(PlacedSquare(1.0 - p.side / 2, p.y, p.side))
        else:
            out.append(PlacedSquare(p.x2, p.y, p.side))
    rng.shuffle(out)
    return out


class TestValidateAgainstBruteForce:
    """validate's sweep against the exhaustive O(n^2) check
    of tests/oracles.py: containment indices, overlap pairs, checked and
    max corner norm must all agree exactly."""

    TOLS = (0.0, 1e-12, 1e-9)

    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("n", [1, 5, 60, 500, 2500])
    def test_packed_instances(self, dist, n):
        if dist == "adversarial_top4" and n < 4:
            n = 4
        # area 0.8 puts adversarial_top4 into case C3: four large squares
        # over thousands of tiny ones
        for area in (1.6, 0.8):
            placements = pack(gen_random(n, n, area, dist)).packing.placements
            for tol in self.TOLS:
                _assert_matches_brute_force(placements, tol)

    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("n", [6, 300, 2500])
    def test_planted_violations(self, dist, n):
        for area in (1.6, 0.8):
            placements = pack(gen_random(n + 1, n, area, dist)).packing.placements
            planted = _planted(placements, n)
            for tol in self.TOLS:
                rep = _assert_matches_brute_force(planted, tol)
                assert not rep.ok

    def test_c3_adversarial_planted_under_the_large_squares(self):
        inst = gen_random(7, 3000, 0.8, "adversarial_top4")
        res = pack(inst)
        assert res.packing.case == "C3"
        placements = list(res.packing.placements)
        big = max(placements, key=lambda p: p.side)
        tiny = min(placements, key=lambda p: p.side)
        # tiny squares inside, on the edge of, and just clear of a large one
        placements += [
            PlacedSquare(big.x + big.side / 3, big.y + big.side / 3, tiny.side),
            PlacedSquare(big.x2, big.y + big.side / 2, tiny.side),
            PlacedSquare(big.x - tiny.side, big.y, tiny.side),
            PlacedSquare(big.x2 - tiny.side / 2, big.y2 - tiny.side / 2, tiny.side),
        ]
        for tol in self.TOLS:
            rep = _assert_matches_brute_force(placements, tol)
            assert not rep.ok

    def test_shared_edges_on_a_grid(self):
        # dyadic coordinates: every edge sum is exact, so neighbours share
        # edges exactly and nothing overlaps at any tol
        side = 1.0 / 16
        grid = [
            PlacedSquare(-0.5 + i * side, -0.5 + j * side, side)
            for i in range(16)
            for j in range(16)
        ]
        for tol in self.TOLS:
            assert _assert_matches_brute_force(grid, tol).ok
        # nudge one square by 1/2048 of a side: it overlaps its neighbours
        grid[37] = PlacedSquare(grid[37].x + side / 2048, grid[37].y, side)
        for tol in self.TOLS:
            assert not _assert_matches_brute_force(grid, tol).ok

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_degenerate_squares(self):
        # a side lost to rounding (x2 == x), squares narrower than 2 tol,
        # a non-finite coordinate, squares far outside the disk and tops
        # that overflow to infinity
        base = [PlacedSquare(-0.5, -0.5, 0.5), PlacedSquare(-0.25, -0.25, 0.5)]
        odd = [
            PlacedSquare(0.5, 0.0, 1e-300),
            PlacedSquare(-0.3, -0.3, 1e-300),
            PlacedSquare(-0.3, -0.3, 1.5e-9),
            PlacedSquare(-0.3, -0.3, 1.5e-9),
            PlacedSquare(float("nan"), 0.0, 0.1),
            PlacedSquare(1e300, 1e300, 0.5),
            PlacedSquare(0.0, 1e308, 1e308),  # y + side overflows
            PlacedSquare(0.1, 1.7e308, 1e308),
        ]
        for tol in self.TOLS:
            _assert_matches_brute_force(base + odd, tol)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        scales=st.integers(1, 4),
        tol=st.sampled_from(TOLS),
    )
    def test_random_mixed_scales(self, seed, n, scales, tol):
        # squares of a few side scales at random spots: many overlaps,
        # escapes and squares much larger than the rest
        rng = random.Random(seed)
        sizes = [10.0 ** -rng.uniform(0.3, 4.0) for _ in range(scales)]
        placements = []
        for _ in range(n):
            side = rng.choice(sizes) * rng.uniform(0.5, 1.0)
            placements.append(PlacedSquare(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1), side))
        for _ in range(rng.randrange(4)):
            p = rng.choice(placements)
            placements.append(rng.choice((p, PlacedSquare(p.x2, p.y, p.side))))
        _assert_matches_brute_force(placements, tol)


class TestShelfPack:
    def test_two_full_shelves(self):
        positions, fail = shelf_pack(1.0, 1.0, [0.5, 0.5, 0.5, 0.5])
        assert fail is None
        assert positions == [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]

    def test_height_overflow_reports_index(self):
        positions, fail = shelf_pack(1.0, 1.0, [0.6, 0.6])
        assert fail == 1 and len(positions) == 1

    def test_width_overflow_immediate(self):
        positions, fail = shelf_pack(1.0, 1.0, [1.2])
        assert fail == 0 and positions == []

    def test_half_area_guarantee_randomized(self):
        # Half-area sets in the regime where the classic shelf bound holds:
        # a failing run has area > t1^2 + (h-t1)(w-t1), which dominates hw/2
        # only for square containers or t1 outside (h/2, w/2).
        import random

        rng = random.Random(42)
        for trial in range(60):
            h = rng.uniform(0.2, 1.0)
            kind = trial % 3
            if kind == 0:  # square container, any t1 <= h
                w, cap = h, h
            elif kind == 1:  # wide container, small squares
                w, cap = rng.uniform(h, 2.0), h / 2
            else:  # moderately wide container, one dominant square
                w = rng.uniform(h, 2.0 * h)
                cap = h
            sides: "list[float]" = []
            budget = h * w / 2
            if kind == 2:
                # w <= 2h keeps sqrt(hw/2) >= w/2, so a valid first exists
                first = min(rng.uniform(w / 2, h), math.sqrt(budget))
                sides.append(first)
                budget -= first * first
            while budget > 1e-6:
                s = min(rng.uniform(0.05, 1.0) * cap, math.sqrt(budget))
                sides.append(s)
                budget -= s * s
            sides.sort(reverse=True)
            positions, fail = shelf_pack(w, h, sides)
            assert fail is None
            for (x, y), s in zip(positions, sides):
                assert -1e-9 <= x and x + s <= w + 1e-9
                assert -1e-9 <= y and y + s <= h + 1e-9
            # pairwise disjoint interiors
            boxes = [(x, y, x + s, y + s) for (x, y), s in zip(positions, sides)]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    ax0, ay0, ax1, ay1 = boxes[i]
                    bx0, by0, bx1, by1 = boxes[j]
                    assert (
                        ax1 <= bx0 + 1e-9
                        or bx1 <= ax0 + 1e-9
                        or ay1 <= by0 + 1e-9
                        or by1 <= ay0 + 1e-9
                    )


class TestRefinedShelfPlace:
    def test_flush_ordinate_kept_when_admissible(self):
        y = refined_shelf_place(0.2, -0.1, 0.1, -0.5, 0.5, flush=-0.3)
        assert y == pytest.approx(-0.3, abs=1e-12)

    def test_disk_rim_clamps_top(self):
        y = refined_shelf_place(0.2, 0.9, 0.95, -1.0, 1.0, flush=0.5)
        assert y is not None
        reach = math.sqrt((1 + 1e-9) ** 2 - 0.95**2)
        assert y <= reach - 0.2 + 1e-12

    def test_outside_disk_is_none(self):
        assert refined_shelf_place(0.1, 0.99, 1.01, -1.0, 1.0, flush=0.0) is None

    def test_empty_window_is_none(self):
        assert refined_shelf_place(0.4, -0.1, 0.1, 0.5, -0.5, flush=0.0) is None


class TestGenerators:
    @pytest.mark.parametrize("dist", ["uniform", "powerlaw", "equal", "adversarial_top4"])
    def test_target_area_met(self, dist):
        inst = gen_random(seed=7, n=12, target_area=1.6, dist=dist)
        assert len(inst.sides) == 12
        assert sum(s * s for s in inst.sides) == pytest.approx(1.6, abs=1e-9)

    def test_deterministic_per_seed(self):
        a = gen_random(3, 20, 1.0)
        b = gen_random(3, 20, 1.0)
        c = gen_random(4, 20, 1.0)
        assert a.sides == b.sides
        assert a.sides != c.sides

    def test_adversarial_needs_four(self):
        with pytest.raises(InputError):
            gen_random(0, 3, 1.0, "adversarial_top4")

    def test_adversarial_four_squares_take_everything(self):
        inst = gen_random(0, 4, 1.5, "adversarial_top4")
        assert all(s == inst.sides[0] for s in inst.sides[:3])

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            gen_random(0, 0, 1.0)
        with pytest.raises(InputError):
            gen_random(0, 5, -1.0)
        with pytest.raises(InputError):
            gen_random(0, 5, 1.0, "zipf")


class TestPackingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        sides=st.lists(st.floats(0.02, 1.0), min_size=1, max_size=40),
        frac=st.floats(0.15, 1.0),
    )
    def test_scaled_instances_always_pack_and_validate(self, sides, frac):
        area = sum(s * s for s in sides)
        factor = math.sqrt(1.6 * frac / area)
        scaled = [s * factor for s in sides]
        res = pack(scaled)
        assert res.ok, (res.failed_index, res.reason)
        assert validate(res.packing.placements, 1e-9).ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dist=st.sampled_from(DISTS))
    def test_generated_instances_always_pack(self, seed, dist):
        n = 4 + seed % 60
        inst = gen_random(seed, n, 1.6, dist)
        res = pack(inst)
        assert res.ok, (res.failed_index, res.reason)
        assert validate(res.packing.placements, 1e-9).ok
