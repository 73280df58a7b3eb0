"""Packing pipeline: dispatch, placement, validation, generators."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import itertools
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from diskpack import packer
from diskpack.cli import format_document, format_svg
from diskpack.errors import InputError
from diskpack.geometry import CONSTANTS, PlacedSquare, T_inv, pocket_geometry
from diskpack.packer import (
    DEFAULT_TOL,
    FailReason,
    Instance,
    Packing,
    Placements,
    _pocket,
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


def _rule_case(sides):
    """The dispatch rule written out over a full sort of the sides:
    nonincreasing side, ties in input order."""
    order = sorted(range(len(sides)), key=lambda i: (-sides[i], i))
    s1 = sides[order[0]]
    if s1 <= 0.295:
        return "C1"
    top4 = sum(sides[i] ** 2 for i in order[:4])
    if s1 <= 1 / math.sqrt(2.0) and top4 >= 39.0 / 25.0:
        return "C2"
    return "C3"


def _top4_at(target):
    """Sides 0.7, 0.68, 0.67, d whose top-4 area, summed largest first,
    is exactly the double `target`."""
    head = [0.7, 0.68, 0.67]
    d = math.sqrt(target - sum(s**2 for s in head))
    for _ in range(64):
        got = sum(s**2 for s in head + [d])
        if got == target:
            return head + [d]
        d = math.nextafter(d, math.inf if got < target else 0.0)
    raise AssertionError(f"no fourth side reaches {target!r}")


class TestDispatchBoundaries:
    """pack picks its case from the four largest sides without sorting; on
    each boundary the case must be the rule's, and ties must keep input
    order."""

    C2_AREA = 39.0 / 25.0
    TAIL = [0.05, 0.04, 0.05]

    def _check(self, sides, want):
        res = pack(sides)
        assert res.ok, (res.failed_index, res.reason)
        assert res.packing.case == _rule_case(sides) == want

    def test_s1_exactly_at_the_pocket_side(self):
        self._check([0.2, 0.295, 0.1, 0.2], "C1")
        self._check([0.2, math.nextafter(0.295, 1.0), 0.1, 0.2], "C3")

    def test_s1_exactly_at_the_inscribed_quadrant(self):
        s1 = 1 / math.sqrt(2.0)
        self._check([0.6, 0.6, s1, 0.6] + self.TAIL, "C2")
        self._check([0.6, 0.6, math.nextafter(s1, 2.0), 0.6] + self.TAIL, "C3")

    @pytest.mark.parametrize("ulps, want", [(-1, "C3"), (0, "C2"), (1, "C2")])
    def test_top4_area_around_39_over_25(self, ulps, want):
        target = self.C2_AREA
        for _ in range(abs(ulps)):
            target = math.nextafter(target, ulps * math.inf)
        top = _top4_at(target)
        sides = self.TAIL[:2] + top[3:] + top[:2] + self.TAIL[2:] + top[2:3]
        self._check(sides, want)
        if ulps == -1:
            # summed in 22 of the 24 orders, smallest first among them,
            # these areas reach 39/25: only the largest-first sum keeps the
            # instance out of C2
            sums = [sum(s**2 for s in p) for p in itertools.permutations(top)]
            assert sums.count(self.C2_AREA) == 22
            assert sum(s**2 for s in sorted(top)) == self.C2_AREA

    def test_tied_sides_fill_in_input_order(self):
        c1 = [0.1] + [0.25] * 6
        c2 = [0.05, 0.625, 0.63, 0.625, 0.625, 0.05]
        c3 = [0.3, 0.8, 0.8, 0.3]
        for sides, want in ((c1, "C1"), (c2, "C2"), (c3, "C3")):
            self._check(sides, want)
        # the first four of the tied largest take the pockets top, bottom,
        # left, right; the later ones go to the shelves
        p = pack(c1).packing.placements
        c, q = 1.388, 0.295  # the container and pocket sides
        pockets = [(-q / 2, c / 2), (-q / 2, -c / 2 - q), (-c / 2 - q, -q / 2), (c / 2, -q / 2)]
        assert [(p[i].x, p[i].y) for i in (1, 2, 3, 4)] == pockets
        assert p[5].y == p[6].y == -0.694 and p[5].x == -0.694 < p[6].x
        # quadrants fill lower-left, lower-right, upper-left, upper-right
        p = pack(c2).packing.placements
        assert [(p[i].x, p[i].y) for i in (2, 1, 3, 4)] == [
            (-0.63, -0.63), (0.0, -0.625), (-0.625, 0.0), (0.0, 0.0)
        ]
        assert p[0].y > 0.7 and p[5].y > 0.7
        # the first of two equal largest squares goes on top
        p = pack(c3).packing.placements
        assert (p[1].x, p[1].y) == (-0.4, T_inv(0.8))
        assert p[2].y < p[1].y


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
        assert len(res.packing.placements) == 0 and list(res.packing.placements) == []

    def test_instance_rejects_bad_sides(self):
        with pytest.raises(InputError):
            Instance((0.5, -0.1))
        with pytest.raises(InputError):
            Instance((float("nan"),))
        with pytest.raises(InputError):
            Instance((0.0,))


class TestPlacementsView:
    SIDES = [0.3, 0.8, 0.5, 0.65, 0.1]

    def test_columns_follow_input_order(self):
        packing = pack(self.SIDES).packing
        for col in (packing.x, packing.y, packing.side):
            assert isinstance(col, np.ndarray) and col.dtype == np.float64
            assert col.shape == (len(self.SIDES),)
        assert packing.side.tolist() == self.SIDES

    def test_sequence_protocol(self):
        packing = pack(self.SIDES).packing
        view = packing.placements
        assert len(view) == len(self.SIDES)
        squares = list(view)
        assert all(type(p) is PlacedSquare for p in squares)
        assert [p.side for p in squares] == self.SIDES
        for i in range(len(self.SIDES)):
            want = PlacedSquare(packing.x[i].item(), packing.y[i].item(), self.SIDES[i])
            assert view[i] == squares[i] == want
            assert view[i - len(self.SIDES)] == want
            assert type(view[i].x) is float
        with pytest.raises(IndexError):
            view[len(self.SIDES)]
        with pytest.raises(IndexError):
            view[-len(self.SIDES) - 1]
        assert view[1:3] == tuple(squares[1:3])
        assert squares[2] in view and view.index(squares[2]) == 2

    def test_equals_the_tuple_it_replaces(self):
        packing = pack(self.SIDES).packing
        squares = tuple(
            PlacedSquare(x, y, s)
            for x, y, s in zip(packing.x.tolist(), packing.y.tolist(), packing.side.tolist())
        )
        view = packing.placements
        assert view == squares and squares == view
        assert view == Placements.of(list(squares))
        assert view != squares[:-1] and view != squares[::-1]
        assert view != list(squares)  # as the tuple was never equal to a list

    def test_columns_are_read_only(self):
        packing = pack(self.SIDES).packing
        with pytest.raises(ValueError):
            packing.x[0] = 5.0
        with pytest.raises(ValueError):
            packing.placements.side[0] = 5.0

    def test_constructors(self):
        squares = [PlacedSquare(-0.5, -0.25, 0.5), PlacedSquare(0.0, -0.25, 0.5)]
        by_columns = Packing([-0.5, 0.0], [-0.25, -0.25], [0.5, 0.5], "C3", 0.5)
        from_squares = Packing.from_placements(squares, "C3", 0.5)
        assert by_columns.placements == from_squares.placements == tuple(squares)
        assert (from_squares.case, from_squares.total_area) == ("C3", 0.5)
        with pytest.raises(InputError):
            Packing([0.0], [0.0, 1.0], [0.5], "C3", 0.25)
        with pytest.raises(InputError):
            Placements([[0.0]], [[0.0]], [[0.5]])


def _heavy_c3(seed, n, s1):
    """An instance like the c3_cli benchmark's: one square s1 and n - 1
    squares s1 * u**3, scaled to total area 1.6, in a seeded order."""
    rng = random.Random(seed)
    w = [rng.random() ** 3 for _ in range(n - 1)]
    f = math.sqrt((1.6 - s1 * s1) / sum(x * x for x in w))
    sides = [s1] + [f * x for x in w]
    rng.shuffle(sides)
    return Instance(tuple(sides))


# (generator, its arguments, case, SHA-256 of the packing document, prefix
# of the SHA-256 of the SVG).  A "gen" row (dist, n, area) is
# gen_random(i, n, area, dist) for its index i in this list.
GOLDEN = [
    ("gen", ("uniform", 1, 1.6), "C3",
     "48cd8632d01fa946b9c25d099c4b35cf0c10973faa712772e15b9c9774a4c3ad", "6873175e0a7167c6"),
    ("gen", ("uniform", 4, 1.6), "C3",
     "445cd0b4f2efcd1899fc05a8d97f86199dcef5b6df3dec4ac412246622b8a674", "bbf5cf2627e270ad"),
    ("gen", ("uniform", 30, 1.6), "C3",
     "73eee06e8e1dc439f632c7c3ea1bde91421e0fe853bcb4ed60970c1260d68e64", "f41289efe3b26f85"),
    ("gen", ("uniform", 1000, 1.6), "C1",
     "8b6c8489a0b9ff5247e000c0058362c9134906f54727c59917204dd9f2db7b24", "369370f273a25ae7"),
    ("gen", ("uniform", 10000, 1.6), "C1",
     "7e9acb5e7e87564bc1fd1728afe891900d1f1cbcbe514303b5d6b053da52f94a", "597ff04238eb5998"),
    ("gen", ("powerlaw", 1, 0.8), "C3",
     "d0b67123ff2be46aaaf21a6eeaadec041ca304b7a41120c0ca8c665b1670ea29", "1ee883a67df0f08e"),
    ("gen", ("powerlaw", 4, 1.6), "C3",
     "baa499d9683d31c460cab6bf761a7c7c011cef1944b4e70284d3f41e144306cf", "c0502da32e94196d"),
    ("gen", ("powerlaw", 30, 1.6), "C3",
     "b24a0d6cfae16da42c2622426672b8124afcd82cb498bfa7ba2a03a583dc0e30", "957b262869430d54"),
    ("gen", ("powerlaw", 1000, 1.6), "C1",
     "3fa21d7d57ef104cbeabaa88d427b988ca9b0b11a04564d006a5d61cbd2913ee", "a7980c3a5545f178"),
    ("gen", ("powerlaw", 10000, 1.2), "C1",
     "0eafdd23e45dbea0d3692803f6fb99448ce6d492325ba7757d50f79d41877530", "75ed11b1f63bb4c5"),
    ("gen", ("equal", 1, 1.0), "C3",
     "9998c9bca3981dbab6b5e760f43acc52c3a27d267e261eed8f5cead43650a69d", "e65964736f669885"),
    ("gen", ("equal", 4, 1.6), "C2",
     "2fc6ae72c39948441cd020a5b31822452a6cedc0c268fe1e8b92dd236ff8d59d", "6f80000e47bea322"),
    ("gen", ("equal", 30, 1.6), "C1",
     "dc9f735f7821d97caf0157378b00c3e2218d8935af2a9b32359ca6bb16bf9024", "72daac500a2562b5"),
    ("gen", ("equal", 1000, 0.8), "C1",
     "6f9b446f16026bb782793549e27958ab7df2863e05d89c13fcd519eac1560ded", "19300bf8b472df27"),
    ("gen", ("equal", 10000, 1.6), "C1",
     "061ee85026f18a2f1472faa24bd5c4d7449344585a4f05f3bfd1dd645b625abe", "c5161ab2374df5dd"),
    ("gen", ("adversarial_top4", 4, 1.6), "C2",
     "cdd99a8e4e9d4731ce7f0d1a4f8b927073ac7ba2b3eea0777fb5748fc95dcacd", "d4e9b8cb40f98682"),
    ("gen", ("adversarial_top4", 4, 0.8), "C3",
     "2928fcd14791ee57f6c7f8376a197da815efa6b2c6997aef7aa2303877997382", "3d4df778fc8288ce"),
    ("gen", ("adversarial_top4", 30, 1.6), "C2",
     "bda5e7a8375d4581aa72ba98831a3ca00e2bfbb777227292b0404782f3e4c8b1", "f46ecb28a853e176"),
    ("gen", ("adversarial_top4", 1000, 0.8), "C3",
     "253fd063622d99f0fe7d180e16560984fb635e3c69ea40f64332f823b2c2acbd", "f81ca6ba1ec8d653"),
    ("gen", ("adversarial_top4", 10000, 1.6), "C2",
     "c67bb0296fbcfd0dfff4278dbc3015bc3010c3b2b876a78649f4fcd006520d00", "2b965081a611b2ab"),
    ("gen", ("adversarial_top4", 10000, 0.8), "C3",
     "7536a5881b59b167a26f9ee5208e146b7bad33c3ac04d31e756d9549b9082afb", "830ee9bfae174ef2"),
    ("heavy", (101, 3000, 0.9), "C3",
     "3e7da0e4f731ee9a43cb16de77d51f1e4ea4767316b7d49b3928c3d395cbc49e", "5bc50d7dc6ad5673"),
    ("heavy", (102, 3000, 1.0), "C3",
     "30d38e63f32998ce793335a49a1117e2f201c6446173bd612e63d0423fc12544", "4837d0a8eff8507b"),
    ("heavy", (103, 300, 1.15), "C3",
     "98b7b8fe13f268f157e9bb0861ca6de6b84c5c8410b9e8aa74cab14c8ce9ff00", "8a87be2fe25f2f9f"),
]


class TestGoldenOutput:
    """Packing documents and SVGs, placements and validation summary
    included, are pinned bit for bit: a change to the order of placement,
    to a float expression or to the dispatch shows up here."""

    @pytest.mark.parametrize("i", range(len(GOLDEN)))
    def test_documents_are_unchanged(self, i):
        kind, args, case, doc_sha, svg_sha = GOLDEN[i]
        if kind == "gen":
            dist, n, area = args
            inst = gen_random(i, n, area, dist)
        else:
            inst = _heavy_c3(*args)
        res = pack(inst)
        assert res.ok and res.packing.case == case
        doc = format_document(res.packing, validate(res.packing.placements))
        assert hashlib.sha256(doc.encode()).hexdigest() == doc_sha
        svg = format_svg(res.packing)
        assert hashlib.sha256(svg.encode()).hexdigest()[:16] == svg_sha

    def test_every_case_is_pinned(self):
        assert {row[2] for row in GOLDEN} == {"C1", "C2", "C3"}
        assert {row[1][0] for row in GOLDEN if row[0] == "gen"} == set(DISTS)


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


def _report_fields(rep):
    # repr tells NaN and -0.0 apart, so equal fields mean identical reports
    return (
        rep.ok,
        rep.checked,
        rep.containment_violations,
        rep.overlap_violations,
        repr(rep.max_corner_norm),
    )


# validate's private chooser forced to one overlap search: the sweep, or
# the grid wherever it can index the coordinates
_BUDGETS = {"sweep": lambda n, ratio: 0.0, "grid": lambda n, ratio: math.inf}


@contextlib.contextmanager
def _search(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packer, "_grid_budget", _BUDGETS[name])
        yield


def _search_taken(placements, tol=DEFAULT_TOL, forced=None):
    """The overlap searches validate ran: ["sweep"], ["grid"], or [] when
    fewer than two squares can overlap."""
    taken = []
    sweep, grid = packer._sweep_pairs, packer._Grid.pairs
    with contextlib.ExitStack() as stack:
        if forced:
            stack.enter_context(_search(forced))
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(packer, "_sweep_pairs", lambda *a: taken.append("sweep") or sweep(*a))
        mp.setattr(packer._Grid, "pairs", lambda self, *a: taken.append("grid") or grid(self, *a))
        validate(placements, tol)
    return taken


def _assert_matches_brute_force(placements, tol):
    """validate against the oracle, on a Placements view and on a plain
    list of PlacedSquare, and forced onto each overlap search; all reports
    must agree field for field."""
    escaped, pairs, max_norm = oracles.brute_force_validation(placements, tol)
    rep = validate(Placements.of(placements), tol)
    assert _report_fields(validate(list(placements), tol)) == _report_fields(rep)
    for name in _BUDGETS:
        with _search(name):
            assert _report_fields(validate(placements, tol)) == _report_fields(rep), name
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


def _nudged(v, ulps):
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        v = math.nextafter(v, step)
    return v


def _lattice(side=1.0 / 16, k=16):
    """k * k squares on a dyadic lattice over [-0.5, 0.5): every edge sum
    is exact, so neighbours share edges and lie exactly one cell apart."""
    return [PlacedSquare(-0.5 + i * side, -0.5 + j * side, side) for i in range(k) for j in range(k)]


def _one_ulp_across_a_cell(side=1.0 / 16):
    """Two pairs that overlap by one ulp at tol 0 and whose lower-left
    corners straddle a cell one ulp narrower than the side: at -tiny (cell
    -1) and at the side less one ulp, across x and across y."""
    short = math.nextafter(side, 0.0)
    return [
        PlacedSquare(-1e-300, 0.25, side),
        PlacedSquare(short, 0.25, side),
        PlacedSquare(0.25, -1e-300, side),
        PlacedSquare(0.25, short, side),
    ]


def _diagonal_pair(side=1.0 / 16):
    """Two overlapping squares in cells (0, 1) and (1, 0)."""
    return [PlacedSquare(0.05, 0.07, side), PlacedSquare(0.07, 0.05, side)]


def _c3_planted_under_large(n=3000):
    """A C3 adversarial_top4 packing plus tiny squares inside, on the edge
    of, and just clear of a large one."""
    res = pack(gen_random(7, n, 0.8, "adversarial_top4"))
    assert res.packing.case == "C3"
    placements = list(res.packing.placements)
    big = max(placements, key=lambda p: p.side)
    tiny = min(placements, key=lambda p: p.side)
    return placements + [
        PlacedSquare(big.x + big.side / 3, big.y + big.side / 3, tiny.side),
        PlacedSquare(big.x2, big.y + big.side / 2, tiny.side),
        PlacedSquare(big.x - tiny.side, big.y, tiny.side),
        PlacedSquare(big.x2 - tiny.side / 2, big.y2 - tiny.side / 2, tiny.side),
    ]


class TestValidateAgainstBruteForce:
    """validate against the exhaustive O(n^2) check of tests/oracles.py,
    through both overlap searches (_assert_matches_brute_force):
    containment indices, overlap pairs, checked and max corner norm must
    all agree exactly."""

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
        placements = _c3_planted_under_large()
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

    def test_squares_one_cell_apart(self):
        placements = _lattice() + _one_ulp_across_a_cell()
        assert _search_taken(placements) == ["grid"]
        for tol in self.TOLS:
            rep = _assert_matches_brute_force(placements, tol)
            assert not rep.ok
        # at tol 0 the straddling pairs overlap by one ulp
        assert {(256, 257), (258, 259)} <= set(validate(placements, 0.0).overlap_violations)

    @pytest.mark.parametrize("dist", ["equal", "adversarial_top4"])
    def test_negative_coordinates(self, dist):
        # a packing and its planted copy moved below and left of the
        # origin, where floor takes cell indices away from zero
        placements = pack(gen_random(3, 400, 1.6, dist)).packing.placements
        moved = [PlacedSquare(p.x - 3.0, p.y - 2.5, p.side) for p in placements]
        for case in (moved, _planted(moved, 4)):
            assert _search_taken(case) == ["grid"]
            for tol in self.TOLS:
                _assert_matches_brute_force(case, tol)

    def test_quotients_rounding_across_integers(self):
        # squares of side 0.15 at multiples of the cell nudged by an ulp:
        # neighbours overlap or part by an ulp or two, and some x / cell
        # round up onto the integer that their exact quotient falls short of
        side = cell = 0.15
        for _ in range(2):  # the cell is the widest rounded x2 - x
            placements = [
                PlacedSquare(_nudged(i * cell, (i + j) % 3 - 1), _nudged(j * cell, (i * j) % 3 - 1), side)
                for i in range(-12, 13)
                for j in range(-4, 5)
            ]
            cell = max(p.x2 - p.x for p in placements)
        assert sum(math.floor(p.x / cell) != math.floor(Fraction(p.x) / Fraction(cell)) for p in placements) >= 5
        assert _search_taken(placements) == ["grid"]
        for tol in self.TOLS:
            _assert_matches_brute_force(placements, tol)

    @pytest.mark.parametrize(
        "odd, search",
        [
            # squares no search sees (not live), and ones so tall or wide that
            # they are among the k tallest, which the grid tests directly
            (
                [
                    PlacedSquare(float("nan"), 0.0, 0.1),
                    PlacedSquare(0.0, float("nan"), 0.1),
                    PlacedSquare(0.0, 0.0, float("nan")),
                    PlacedSquare(float("inf"), 0.0, 0.1),
                    PlacedSquare(0.0, -float("inf"), 0.1),
                    PlacedSquare(1e308, 0.0, 0.1),
                    PlacedSquare(0.0, 1e308, 1e308),
                    PlacedSquare(1e308, -1e308, 1e308),
                    PlacedSquare(0.1, 1.7e308, 1e308),
                ],
                "grid",
            ),
            # cells of infinite width: the grid hands them to the sweep
            ([PlacedSquare(1e308, -1e308 + i * 1e300, 1e308) for i in range(300)], "sweep"),
            # cell indices of about 1.6e10, too large to be exact: the sweep
            ([PlacedSquare(1e9 + p.x, p.y, p.side) for p in _lattice()], "sweep"),
        ],
        ids=["not-live-or-large", "infinite-cells", "far-cells"],
    )
    def test_non_finite_and_huge_coordinates(self, odd, search):
        placements = _lattice() + odd
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow to inf, inf - inf
            # the grid never casts a NaN or out-of-range float to an int
            warnings.filterwarnings("error", "invalid value encountered in cast", RuntimeWarning)
            assert _search_taken(placements, forced="grid") == [search]
            for tol in self.TOLS:
                _assert_matches_brute_force(placements, tol)

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


def _sweep_mix_cases(seed):
    """The instance specs of perfbench's sweep_mix workload at a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep_cases(seed)


class TestOverlapSearchDispatch:
    """Which of validate's two overlap searches runs: the grid on many
    near-equal squares, the sweep below the crossover and on skewed sides."""

    def test_small_inputs_take_the_sweep(self):
        for dist in DISTS:
            placements = pack(gen_random(1, 100, 1.6, dist)).packing.placements
            assert _search_taken(placements) == ["sweep"], dist
        # just below and at the crossover, with every square live
        placements = _lattice(k=15)[: packer._GRID_MIN_N - 1]
        assert _search_taken(placements) == ["sweep"]
        assert _search_taken(_lattice(k=15)[: packer._GRID_MIN_N]) == ["grid"]

    @pytest.mark.parametrize("area", [1.6, 0.8])
    def test_powerlaw_takes_the_sweep(self, area):
        placements = pack(gen_random(2, 10_000, area, "powerlaw")).packing.placements
        assert _search_taken(placements) == ["sweep"]

    @pytest.mark.parametrize("n", [300, 3000])
    @pytest.mark.parametrize("s1", [0.325, 0.7, 1.0, 1.22])
    def test_skewed_c3_takes_the_sweep(self, s1, n):
        res = pack(_heavy_c3(n, n, s1))
        assert res.packing.case == "C3"
        assert _search_taken(res.packing.placements) == ["sweep"]

    @pytest.mark.parametrize("area", [1.6, 0.8])
    @pytest.mark.parametrize("dist", ["equal", "adversarial_top4"])
    def test_near_equal_sides_take_the_grid(self, dist, area):
        placements = pack(gen_random(3, 10_000, area, dist)).packing.placements
        assert _search_taken(placements) == ["grid"]

    def test_both_searches_agree_on_the_benchmark_packings(self):
        cases = _sweep_mix_cases(11)
        assert len(cases) == 312
        for c in cases:
            placements = pack(gen_random(c.seed, c.n, c.area, c.dist)).packing.placements
            reports = []
            for name in _BUDGETS:
                with _search(name):
                    reports.append(_report_fields(validate(placements, DEFAULT_TOL)))
            assert reports[0] == reports[1], c


def _smaller_cells(monkeypatch):
    of = packer._Grid.of.__func__

    def mutant(cls, x, y, x2, y2, rest, cw, ch):
        return of(cls, x, y, x2, y2, rest, math.nextafter(cw, 0.0), math.nextafter(ch, 0.0))

    monkeypatch.setattr(packer._Grid, "of", classmethod(mutant))


def _no_down_right_neighbour(monkeypatch):
    monkeypatch.setattr(packer, "_RUNS", ((0, 0, 1), (1, 0, 1)))


def _no_large(monkeypatch):
    pairs = packer._Grid.pairs
    monkeypatch.setattr(packer._Grid, "pairs", lambda self, large, tt: pairs(self, large[:0], tt))


class TestValidatorMutants:
    """Each mutant of the grid must make the forced grid disagree with the
    brute-force oracle on its case, at some tolerance; the unmutated grid
    must agree on all of them."""

    CASES = {
        "one cell apart": lambda: _lattice() + _one_ulp_across_a_cell(),
        "diagonal": lambda: _lattice() + _diagonal_pair(),
        "under the large squares": lambda: _c3_planted_under_large(600),
    }

    @staticmethod
    def _disagrees(placements):
        for tol in TestValidateAgainstBruteForce.TOLS:
            _, pairs, _ = oracles.brute_force_validation(placements, tol)
            with _search("grid"):
                if list(validate(placements, tol).overlap_violations) != pairs:
                    return True
        return False

    @pytest.mark.parametrize(
        "mutant, case",
        [
            (_smaller_cells, "one cell apart"),
            (_no_down_right_neighbour, "diagonal"),
            (_no_large, "under the large squares"),
        ],
        ids=["cell-one-ulp-short", "no-(1,-1)-neighbour", "no-large-list"],
    )
    def test_mutant_is_caught(self, monkeypatch, mutant, case):
        placements = self.CASES[case]()
        assert not self._disagrees(placements)
        mutant(monkeypatch)
        assert _search_taken(placements, forced="grid") == ["grid"]
        assert self._disagrees(placements)


class TestShelfPack:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 5.0])
    def test_meaningless_tol_is_refused(self, tol):
        with pytest.raises(InputError):
            shelf_pack(1.0, 1.0, [0.9] * 3, tol)

    def test_two_full_shelves(self):
        xs, ys, fail = shelf_pack(1.0, 1.0, [0.5, 0.5, 0.5, 0.5])
        assert fail is None
        assert (xs, ys) == ([0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.5, 0.5])

    def test_height_overflow_reports_index(self):
        xs, ys, fail = shelf_pack(1.0, 1.0, [0.6, 0.6])
        assert fail == 1 and len(xs) == len(ys) == 1

    def test_width_overflow_immediate(self):
        xs, ys, fail = shelf_pack(1.0, 1.0, [1.2])
        assert fail == 0 and xs == ys == []

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
            xs, ys, fail = shelf_pack(w, h, sides)
            assert fail is None
            for x, y, s in zip(xs, ys, sides):
                assert -1e-9 <= x and x + s <= w + 1e-9
                assert -1e-9 <= y and y + s <= h + 1e-9
            # pairwise disjoint interiors
            boxes = [(x, y, x + s, y + s) for x, y, s in zip(xs, ys, sides)]
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


class TestPocketMirror:
    # below s1 of about 0.63 the pockets fill by vertical strips, above it
    # by horizontal shelves
    @pytest.mark.parametrize("s1, shelves", [(0.5, False), (0.9, True)])
    def test_left_pocket_is_the_right_one_reflected(self, s1, shelves):
        geo = pocket_geometry(s1)
        assert (geo.bx <= geo.by) == shelves
        left, right = _pocket(geo, -1, DEFAULT_TOL), _pocket(geo, +1, DEFAULT_TOL)
        rng = random.Random(7)
        sides = sorted((1.05 * geo.sigma * rng.random() ** 3 for _ in range(300)), reverse=True)
        placed = 0
        for side in sides:
            a, b = left.try_place(side), right.try_place(side)
            assert (a is None) == (b is None)
            if a is not None:
                placed += 1
                assert a[0] == -(b[0] + side)
                assert a[1] == b[1]
        assert 20 < placed < len(sides)


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
