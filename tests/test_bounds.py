"""Area-accounting bounds: algebra, branching, kind coherence."""

from __future__ import annotations

import numpy as np
import pytest

from diskpack.bounds import B1, B2, B3, B4, B5, B6, E, F_MSC1, F_MSC2, F_SC, F_TP
from diskpack.errors import ContractError
from diskpack.geometry import T_inv, chord_width, ell1, sigma
from diskpack.iarrays import IntervalArray
from diskpack.prover import lemma_catalog
from diskpack.scalars import smax

from fuzzers import hypothesis_samples, sample_points


def _lane(lo: float, hi: float) -> IntervalArray:
    return IntervalArray(np.array([lo]), np.array([hi]))


def _point(value: float) -> IntervalArray:
    return _lane(value, value)


def _system(name: str):
    return next(s for s in lemma_catalog() if s.name == name)


class TestB1:
    def test_all_three_terms_coincide(self):
        # h=1, w=3, h_next=1/2 makes every counting argument give 7/4.
        assert B1(1.0, 3.0, 0.5) == pytest.approx(1.75, abs=1e-15)

    def test_wide_case_picks_best_term(self):
        # h=1, w=4, h_next=0.1: the full-row-minus-one term wins with 2.49.
        assert B1(1.0, 4.0, 0.1) == pytest.approx(2.49, abs=1e-12)

    def test_float_precondition_is_loud(self):
        with pytest.raises(ContractError):
            B1(1.0, 1.5, 0.1)

    def test_enclosure_kinds_do_not_raise_on_straddle(self):
        w = _lane(1.5, 3.0)  # straddles w = 2h
        out = B1(_point(1.0), w, _point(0.1))
        assert out.lo[0] <= out.hi[0]


class TestB2:
    def test_three_branches(self):
        assert B2(1.0, 1.2, 0.5) == pytest.approx(1.0)  # lone square
        assert B2(1.0, 1.8, 0.5) == pytest.approx(1.25)  # square + h_next block
        assert B2(1.0, 3.0, 0.5) == pytest.approx(1.75)  # wide: B1

    def test_interval_straddling_branch_hulls_both_sides(self):
        # w spans the lone/pair boundary at h + h_next = 1.5.
        out = B2(_point(1.0), _lane(1.4, 1.6), _point(0.5))
        assert out.lo[0] <= 1.0 and out.hi[0] >= 1.25


class TestB3B4:
    def test_b3_at_least_first_square(self):
        for a, h, w, hn in [(0.5, 0.3, 1.2, 0.1), (0.2, 0.2, 1.8, 0.15)]:
            assert B3(a, h, w, hn) >= h * h - 1e-15

    def test_b4_is_max_of_b2_b3(self):
        for a, h, w, hn in [(0.5, 0.3, 1.2, 0.1), (0.1, 0.4, 1.9, 0.2)]:
            assert B4(a, h, w, hn) == pytest.approx(
                max(B2(h, w, hn), B3(a, h, w, hn)), abs=1e-15
            )


def _b4_layers() -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """(a, h, w, h_next) of every B4 layer of sampled LEMMA_SC3 states, laid
    out as F_SC lays them out, one row per layer."""
    rows = []
    for p in sample_points(hypothesis_samples(_system("LEMMA_SC3"), 40, seed=21)):
        heights = [p["h1"], p["h2"], p["h3"], p["sn"]]
        a = T_inv(p["s1"])
        for i in range(3):
            h, h_next = heights[i], heights[i + 1]
            rows.append((a, h, chord_width(a, h), h_next))
            a = a - h
    return tuple(np.array(col) for col in zip(*rows))


def _straddling_lanes(a, h, w, hn) -> "tuple[IntervalArray, ...]":
    """Boxes around (a, h, w, hn) whose w lanes straddle B2's branch points:
    the first third spans h + hn, the second 2h, the rest neither."""
    third = len(w) // 3
    cut = np.concatenate([(h + hn)[:third], (2 * h)[third : 2 * third], w[2 * third :]])
    pad = 1e-3
    w_lo = np.minimum(w, cut) - pad
    w_hi = np.maximum(w, cut) + pad
    return (
        IntervalArray(a - 1e-4, a + 1e-4),
        IntervalArray(h - 1e-4, h + 1e-4),
        IntervalArray(w_lo, w_hi),
        IntervalArray(hn - 1e-4, hn),
    )


def _same_bits(x, y) -> bool:
    if isinstance(x, IntervalArray):
        return _same_bits(x.lo, y.lo) and _same_bits(x.hi, y.hi)
    return np.asarray(x, np.float64).tobytes() == np.asarray(y, np.float64).tobytes()


class TestB4SharedSquares:
    """B4 squares h and h_next once and shares them with the B2 and B3
    bodies: it must equal smax(B2, B3) bit for bit on every kind."""

    def _check(self, a, h, w, hn) -> None:
        expect = smax(B2(h, w, hn), B3(a, h, w, hn))
        assert _same_bits(B4(a, h, w, hn), expect)

    def test_floats(self):
        a, h, w, hn = _b4_layers()
        for i in range(len(a)):
            self._check(float(a[i]), float(h[i]), float(w[i]), float(hn[i]))

    def test_many_lane_points_and_boxes(self):
        a, h, w, hn = _b4_layers()
        self._check(*[IntervalArray.from_point(v) for v in (a, h, w, hn)])
        self._check(*_straddling_lanes(a, h, w, hn))

    def test_one_lane_boxes(self):
        lanes = _straddling_lanes(*_b4_layers())
        for i in range(0, lanes[0].shape[0], 7):
            self._check(*[IntervalArray(v.lo[i : i + 1], v.hi[i : i + 1]) for v in lanes])

    def test_branches_straddle(self):
        # the boxes really reach every B2 branch, undecided
        a, h, w, hn = _straddling_lanes(*_b4_layers())
        third = w.shape[0] // 3
        assert np.all(w.lo[:third] < (h + hn).hi[:third])
        assert np.all(w.hi[:third] >= (h + hn).lo[:third])
        assert np.all(w.lo[third : 2 * third] < (2 * h).hi[third : 2 * third])
        assert np.all(w.hi[third : 2 * third] >= (2 * h).lo[third : 2 * third])

    def test_b2_adds_no_square_to_b3(self, monkeypatch):
        a, h, w, hn = _straddling_lanes(*_b4_layers())
        calls = []
        original = IntervalArray.square

        def counting(self):
            calls.append(self.shape)
            return original(self)

        monkeypatch.setattr(IntervalArray, "square", counting)
        B3(a, h, w, hn)
        b3_squares = len(calls)
        calls.clear()
        B4(a, h, w, hn)
        # every B2 branch runs on these boxes, on the squares B3 takes anyway
        assert len(calls) == b3_squares


class TestB5B6:
    def test_b5_algebra(self):
        assert B5(0.3, 0.8, 1.0) == pytest.approx(1.0 + 0.09 - 0.24, abs=1e-15)

    def test_b6_algebra(self):
        assert B6(0.4, 1.0, 0.2) == pytest.approx(0.2 + 0.02, abs=1e-15)


class TestPocketCredit:
    def test_credit_when_failed_side_fits_pocket(self):
        sg = sigma(1.0)
        assert E(1.0, sg / 2) == pytest.approx(0.83 * sg * sg, rel=1e-15)

    def test_no_credit_when_failed_side_too_big(self):
        assert E(1.0, 0.6) == 0.0

    def test_straddling_interval_hulls_zero_and_credit(self):
        sg = sigma(1.0)
        out = E(_point(1.0), _lane(sg - 0.01, sg + 0.01))
        assert out.lo[0] <= 0.0 and out.hi[0] >= 0.83 * sg * sg * (1 - 1e-12)


class TestFTP:
    def test_far_corners_inside_disk_on_grid(self):
        # The claim is hypothesis-gated: only where the pocket is at least
        # as wide as it is relevant, ell1(s1) <= s1.
        for s1 in np.linspace(0.295, np.sqrt(1.6), 200):
            if ell1(float(s1)) > float(s1):
                continue
            f1, f2 = F_TP(float(s1))
            assert f1 <= 1.0 + 1e-12
            assert f2 <= 1.0 + 1e-12

    def test_interval_hull_near_branch_point_stays_bounded(self):
        f1, f2 = F_TP(_lane(1.066, 1.068))  # straddles the sigma branch
        assert f1.hi[0] <= 1.0 + 1e-9
        assert f2.hi[0] <= 1.0 + 1e-9


class TestFSC:
    def test_arity_contract(self):
        with pytest.raises(ContractError):
            F_SC(1.0, [], 0.1)
        with pytest.raises(ContractError):
            F_SC(1.0, [0.1] * 8, 0.05)

    def test_pocket_credit_only_adds(self):
        s = hypothesis_samples(_system("LEMMA_SC2"), 50, seed=3)
        for i in range(50):
            args = (
                float(s["s1"][i]),
                [float(s["h1"][i]), float(s["h2"][i])],
                float(s["sn"][i]),
            )
            with_e = F_SC(*args, include_E=True)
            without = F_SC(*args, include_E=False)
            assert with_e >= without - 1e-15

    def test_exceeds_critical_area_at_sampled_states(self):
        for name, k in [("LEMMA_SC1", 1), ("LEMMA_SC3", 3)]:
            for p in sample_points(hypothesis_samples(_system(name), 200, seed=5)):
                assert F_SC(p["s1"], [p[f"h{i + 1}"] for i in range(k)], p["sn"]) > 1.6


class TestKindCoherence:
    """Float evaluation of each state always lands inside the enclosure
    evaluations, of the whole batch and of the state as a one-lane
    IntervalArray."""

    @pytest.mark.parametrize("name", ["LEMMA_SC1", "LEMMA_SC4", "LEMMA_SC6_SIGMA"])
    def test_f_sc(self, name):
        system = _system(name)
        k = int(name[len("LEMMA_SC")])
        include_e = not name.endswith("_SIGMA")
        s = hypothesis_samples(system, 25, seed=9)
        pts = np.arange(25)
        f = np.array([
            F_SC(p["s1"], [p[f"h{i+1}"] for i in range(k)], p["sn"], include_e)
            for p in sample_points(s)
        ])
        ia = F_SC(
            IntervalArray.from_point(s["s1"]),
            [IntervalArray.from_point(s[f"h{i+1}"]) for i in range(k)],
            IntervalArray.from_point(s["sn"]),
            include_e,
        )
        assert np.all(ia.lo <= f) and np.all(f <= ia.hi)
        for i in pts[:8]:
            iv = F_SC(
                _point(float(s["s1"][i])),
                [_point(float(s[f"h{i2+1}"][i])) for i2 in range(k)],
                _point(float(s["sn"][i])),
                include_e,
            )
            assert iv.lo[0] <= f[i] <= iv.hi[0]

    def test_f_msc1(self):
        names = ("s1", "h1", "h2", "h3", "h4")
        s = hypothesis_samples(_system("LEMMA_MSC_NEG"), 25, seed=13)
        f = np.array([F_MSC1(*[p[n] for n in names]) for p in sample_points(s)])
        ia = F_MSC1(*[IntervalArray.from_point(s[n]) for n in names])
        assert np.all(ia.lo <= f) and np.all(f <= ia.hi)
        for i in range(8):
            iv = F_MSC1(*[_point(float(s[n][i])) for n in names])
            assert iv.lo[0] <= f[i] <= iv.hi[0]

    def test_f_msc2(self):
        names = ("s1", "h1", "h2", "h3", "h_jnext", "delta_y")
        s = hypothesis_samples(_system("LEMMA_MSC_POS"), 25, seed=17)
        f = np.array([F_MSC2(*[p[n] for n in names]) for p in sample_points(s)])
        ia = F_MSC2(*[IntervalArray.from_point(s[n]) for n in names])
        assert np.all(ia.lo <= f) and np.all(f <= ia.hi)
        for i in range(8):
            iv = F_MSC2(*[_point(float(s[n][i])) for n in names])
            assert iv.lo[0] <= f[i] <= iv.hi[0]

    def test_f_tp(self):
        for s1 in np.linspace(0.3, 1.25, 40):
            f1, f2 = F_TP(float(s1))
            iv1, iv2 = F_TP(_point(float(s1)))
            assert iv1.lo[0] <= f1 <= iv1.hi[0]
            assert iv2.lo[0] <= f2 <= iv2.hi[0]
