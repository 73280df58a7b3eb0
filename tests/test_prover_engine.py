"""Branch-and-prune engine: statuses, pruning, contraction, splitting,
chunking, and the mutants its tests must catch."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from diskpack.errors import ContractError
from diskpack.prover import (
    ConstraintSystem,
    ProofStatus,
    ProverConfig,
    lemma_catalog,
    prove,
)
from diskpack.prover import engine
from diskpack.prover.engine import (
    OrRelation,
    Relation,
    Variable,
    confirm_counterexample,
    ordering,
)
from diskpack.iarrays import IntervalArray
from diskpack.scalars import sqrt, square

from test_catalog import CATALOG, PINNED_TREES


def _sys(name, variables, hypotheses, conclusion, prepare=None):
    return ConstraintSystem(
        name=name,
        variables=tuple(variables),
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        prepare=prepare,
    )


def _sqrt_above_one(lo, hi):
    def prep(env):
        e = dict(env)
        e["r"] = sqrt(e["x"])
        return e

    return _sys(
        "toy_sqrt_above_one",
        [Variable("x", lo, hi)],
        [],
        Relation("sqrt(x) > 1", lambda e: e["r"], ">", 1.0),
        prepare=prep,
    )


class TestStatuses:
    def test_trivially_provable(self):
        system = _sys(
            "toy_pos",
            [Variable("x", -1.0, 1.0)],
            [],
            Relation("x^2+1 > 1/2", lambda e: e["x"] * e["x"] + 1.0, ">", 0.5),
        )
        res = prove(system, ProverConfig(max_depth=20, min_width=1e-6))
        assert res.status is ProofStatus.PROVED
        assert res.counterexample is None
        assert res.stats.boxes_explored >= 1
        assert res.stats.wall_time_s > 0.0

    def test_disprovable_with_confirmed_counterexample(self):
        system = _sys(
            "toy_false",
            [Variable("x", 0.0, 2.0)],
            [],
            Relation("x^2 > 1", lambda e: e["x"] * e["x"], ">", 1.0),
        )
        res = prove(system, ProverConfig(max_depth=30, min_width=1e-6))
        assert res.status is ProofStatus.DISPROVED
        assert res.counterexample is not None
        x = res.counterexample["x"]
        assert x * x <= 1.0
        assert confirm_counterexample(system, res.counterexample)

    def test_nan_midpoints_do_not_disprove(self):
        # sqrt poisons every lane of [-1, -0.5], so the search reaches
        # leaves and tries their midpoints; each is a domain error on the
        # float path, so nothing there is a counterexample
        res = prove(_sqrt_above_one(-1.0, -0.5))
        assert res.status is not ProofStatus.DISPROVED
        assert res.counterexample is None

    def test_counterexample_skips_nan_midpoints(self):
        # the root midpoint -0.25 has a NaN conclusion; a later one is real
        system = _sqrt_above_one(-1.0, 0.5)
        res = prove(system)
        assert res.status is ProofStatus.DISPROVED
        assert confirm_counterexample(system, res.counterexample)
        assert 0.0 <= res.counterexample["x"] <= 0.5

    def test_counterexample_skips_midpoints_that_divide_by_zero(self):
        # the root midpoint 0 divides by zero in plain floats (inf in NumPy)
        def prep(env):
            e = dict(env)
            e["r"] = 1.0 / e["x"]
            return e

        system = _sys(
            "toy_reciprocal",
            [Variable("x", -1.0, 1.0)],
            [],
            Relation("x > 2", lambda e: e["x"], ">", 2.0),
            prepare=prep,
        )
        assert not confirm_counterexample(system, {"x": 0.0})
        res = prove(system)
        assert res.status is ProofStatus.DISPROVED
        assert res.counterexample["x"] != 0.0
        assert confirm_counterexample(system, res.counterexample)

    def test_integer_bounds_leave_no_gap(self):
        # an integer lower bound must not truncate the midpoints written
        # into the boxes: (-0.25, 0) holds the counterexamples here
        system = _sys(
            "toy_int_bounds",
            [Variable("x", -1, 0.5)],
            [],
            Relation(
                "(x+0.1)^2 > 0.001",
                lambda e: (e["x"] + 0.1) * (e["x"] + 0.1),
                ">",
                0.001,
            ),
        )
        res = prove(system)
        assert res.status is ProofStatus.DISPROVED
        assert confirm_counterexample(system, res.counterexample)

    def test_hypothesis_gated_falsity(self):
        # conclusion fails only above x=sqrt(2); hypothesis admits that region
        system = _sys(
            "toy_gated_false",
            [Variable("x", 0.0, 2.0)],
            [Relation("x >= 1", lambda e: e["x"], ">=", 1.0)],
            Relation("x^2 > 2", lambda e: e["x"] * e["x"], ">", 2.0),
        )
        res = prove(system, ProverConfig(max_depth=30, min_width=1e-6))
        assert res.status is ProofStatus.DISPROVED
        x = res.counterexample["x"]
        assert 1.0 <= x and x * x <= 2.0

    def test_proves_the_system_it_is_given(self):
        # a catalog system with a false conclusion keeps its catalog name;
        # the search must run the system passed in, not the catalog's
        tp1 = next(s for s in lemma_catalog() if s.name == "LEMMA_TP1")
        false_tp1 = dataclasses.replace(
            tp1,
            conclusion=dataclasses.replace(tp1.conclusion, label="F_TP1 <= 0.1", bound=0.1),
        )
        res = prove(false_tp1)
        assert res.status is ProofStatus.DISPROVED
        assert confirm_counterexample(false_tp1, res.counterexample)

    def test_hypotheses_prune_falsifying_region(self):
        # conclusion is false for x outside [0.5, 0.8]; hypotheses cut it out
        system = _sys(
            "toy_gated_true",
            [
                Variable("x", 0.0, 2.0),
            ],
            [
                Relation("x >= 1/2", lambda e: e["x"], ">=", 0.5, cheap=True),
                Relation("x <= 4/5", lambda e: e["x"], "<=", 0.8),
            ],
            Relation(
                "(x-0.65)^2 <= 0.03",
                lambda e: (e["x"] - 0.65) * (e["x"] - 0.65),
                "<=",
                0.03,
            ),
        )
        res = prove(system, ProverConfig(max_depth=40, min_width=1e-6))
        assert res.status is ProofStatus.PROVED
        assert res.stats.boxes_pruned > 0

    def test_zero_margin_boundary_is_undecided(self, monkeypatch):
        # x <= 1 can never be certified on boxes straddling x = 1
        system = _sys(
            "toy_zero_margin",
            [Variable("x", 0.0, 2.0)],
            [Relation("x <= 1", lambda e: e["x"], "<=", 1.0)],
            Relation("x <= 1", lambda e: e["x"], "<=", 1.0),
        )
        monkeypatch.setattr(engine, "UNDECIDED_CAP", 4)
        res = prove(system, ProverConfig(max_depth=25, min_width=1e-6))
        assert res.status is ProofStatus.UNDECIDED
        assert res.stats.undecided_count > 0
        assert 0 < len(res.undecided_boxes) <= 8
        for box in res.undecided_boxes:
            lo, hi = box["x"]
            assert lo <= 1.0 <= hi or abs(hi - 1.0) < 1e-4 or abs(lo - 1.0) < 1e-4

    def test_strict_gap_version_is_proved(self):
        system = _sys(
            "toy_gapped",
            [Variable("x", 0.0, 2.0)],
            [Relation("x <= 1", lambda e: e["x"], "<=", 1.0)],
            Relation("x <= 1.1", lambda e: e["x"], "<=", 1.1),
        )
        res = prove(system, ProverConfig(max_depth=25, min_width=1e-6))
        assert res.status is ProofStatus.PROVED


class TestOrRelation:
    def test_disjunctive_hypothesis_prunes(self):
        system = _sys(
            "toy_or",
            [Variable("x", 0.0, 2.0)],
            [
                OrRelation(
                    "x <= 0.5 or x >= 1.5",
                    (
                        Relation("left", lambda e: e["x"], "<=", 0.5),
                        Relation("right", lambda e: e["x"], ">=", 1.5),
                    ),
                )
            ],
            Relation(
                "(x-1)^2 >= 0.2",
                lambda e: (e["x"] - 1.0) * (e["x"] - 1.0),
                ">=",
                0.2,
            ),
        )
        res = prove(system, ProverConfig(max_depth=40, min_width=1e-6))
        assert res.status is ProofStatus.PROVED

    def test_certs_combine_correctly(self):
        rel = OrRelation(
            "or",
            (
                Relation("a", lambda e: e["x"], "<=", 0.0),
                Relation("b", lambda e: e["x"], ">=", 1.0),
            ),
        )
        env = {
            "x": IntervalArray(np.array([-2.0, 2.0, 0.4, -0.5]),
                               np.array([-1.0, 3.0, 0.6, 1.5]))
        }
        ct, cf = rel.certs(env)
        assert ct.tolist() == [True, True, False, False]
        assert cf.tolist() == [False, False, True, False]


class TestPrepareAndDomains:
    @pytest.mark.parametrize("cheap", [True, False])
    def test_prepare_poisoned_lanes_are_pruned_by_the_hypothesis(self, cheap, monkeypatch):
        # prepare computes sqrt(x), which poisons every lane wholly below 0
        # (a straddling lane is clamped).  No conclusion certifies a
        # poisoned lane, so only the hypothesis x >= 0 prunes those lanes,
        # in the same pass as prepare; the cheap label changes nothing.
        prepares = []

        def prep(env):
            prepares.append(1)
            e = dict(env)
            e["r"] = sqrt(e["x"])
            return e

        builds = []
        env_from = engine._env_from
        monkeypatch.setattr(engine, "_env_from", lambda *a: builds.append(1) or env_from(*a))
        system = _sys(
            "toy_sqrt",
            [Variable("x", -1.0, 2.0)],
            [Relation("x >= 0", lambda e: e["x"], ">=", 0.0, cheap=cheap)],
            Relation("sqrt(x)^2 - x >= -1e-3", lambda e: square(e["r"]) - e["x"], ">=", -1e-3),
            prepare=prep,
        )
        config = ProverConfig(max_depth=20, min_width=1e-6)
        res = prove(system, config)
        assert res.status is ProofStatus.PROVED
        assert (res.stats.boxes_explored, res.stats.boxes_pruned) == (5471, 2736)
        assert len(builds) == len(prepares)  # one environment per chunk
        unguarded = prove(dataclasses.replace(system, hypotheses=()), config)
        assert unguarded.status is ProofStatus.UNDECIDED

    def test_confirm_counterexample_rejects_domain_errors(self):
        def prep(env):
            e = dict(env)
            e["r"] = sqrt(e["x"])
            return e

        system = _sys(
            "toy_sqrt2",
            [Variable("x", -1.0, 1.0)],
            [],
            Relation("sqrt(x) > 1", lambda e: e["r"], ">", 1.0),
            prepare=prep,
        )
        assert not confirm_counterexample(system, {"x": -0.5})  # DomainError
        assert confirm_counterexample(system, {"x": 0.25})  # sqrt = 0.5, violates
        assert not confirm_counterexample(
            _sys(
                "toy_hyp",
                [Variable("x", 0.0, 2.0)],
                [Relation("x >= 1", lambda e: e["x"], ">=", 1.0)],
                Relation("x > 0", lambda e: e["x"], ">", 0.0),
            ),
            {"x": 0.5},  # violates the hypothesis, not a counterexample
        )


def _undecidable(variables, hypotheses=()):
    # x - x is [-w, w] on a box of width w: no box is ever decided, so the
    # leaves are exactly where the split rule stops
    return _sys(
        "toy_undecidable",
        variables,
        hypotheses,
        Relation("x - x <= 0", lambda e: e["x"] - e["x"], "<=", 0.0),
    )


def _leaves(system, config, monkeypatch):
    monkeypatch.setattr(engine, "UNDECIDED_CAP", 10**9)
    res = prove(system, config)
    assert res.status is ProofStatus.UNDECIDED
    assert res.stats.undecided_count == len(res.undecided_boxes)
    return res, {tuple(box[v.name] for v in system.variables) for box in res.undecided_boxes}


class TestSplitRule:
    def test_widest_current_width_first_on_ties(self, monkeypatch):
        # y (width 2) first; then x, y and z all have width 1 and x wins;
        # then y (width 1 against 1/2 and 1) again
        system = _undecidable(
            [Variable("x", 0.0, 1.0), Variable("y", 0.0, 2.0), Variable("z", 0.0, 1.0)]
        )
        res, leaves = _leaves(system, ProverConfig(max_depth=3, min_width=0.1), monkeypatch)
        assert leaves == {
            (x, y, (0.0, 1.0))
            for x in ((0.0, 0.5), (0.5, 1.0))
            for y in ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0))
        }
        assert res.stats.max_depth_reached == 3

    def test_each_box_splits_across_its_contracted_widths(self, monkeypatch):
        # y <= x cuts y to [0, 1] on the root, so x (first on the tie) is
        # split there although y's declared range is four times as wide;
        # below, each box picks from its own widths
        system = _undecidable(
            [Variable("x", 0.0, 1.0), Variable("y", 0.0, 4.0)], [ordering("y", "x")]
        )
        _, leaves = _leaves(system, ProverConfig(max_depth=2, min_width=0.1), monkeypatch)
        assert leaves == {
            ((0.0, 0.25), (0.0, 0.25)),
            ((0.25, 0.5), (0.0, 0.5)),
            ((0.5, 1.0), (0.0, 0.5)),
            ((0.5, 1.0), (0.5, 1.0)),
        }

    def test_leaf_once_no_width_exceeds_min_width(self, monkeypatch):
        # widths 1, 1/2 and 1/4 on x: the boxes with x of width 1/4 are
        # leaves, y (width 1/4) is never split
        system = _undecidable([Variable("x", 0.0, 1.0), Variable("y", 0.0, 0.25)])
        res, leaves = _leaves(system, ProverConfig(max_depth=60, min_width=0.25), monkeypatch)
        assert leaves == {((k / 4, (k + 1) / 4), (0.0, 0.25)) for k in range(4)}
        assert res.stats.max_depth_reached == 2

    def test_leaf_at_max_depth(self, monkeypatch):
        system = _undecidable([Variable("x", 0.0, 1.0), Variable("y", 0.0, 0.25)])
        res, leaves = _leaves(system, ProverConfig(max_depth=1, min_width=1e-6), monkeypatch)
        assert leaves == {((0.0, 0.5), (0.0, 0.25)), ((0.5, 1.0), (0.0, 0.25))}
        assert res.stats.max_depth_reached == 1


def _diagonal_point():
    # y <= x on x in [0, 1], y in [1, 2] leaves one point, x = y = 1, where
    # the conclusion fails: contraction must keep it
    return _sys(
        "toy_diagonal_point",
        [Variable("x", 0.0, 1.0), Variable("y", 1.0, 2.0)],
        [ordering("y", "x")],
        Relation("x + y < 2", lambda e: e["x"] + e["y"], "<", 2.0),
    )


class TestContraction:
    def test_counterexample_on_the_ordering_boundary_is_found(self):
        res = prove(_diagonal_point())
        assert res.status is ProofStatus.DISPROVED
        assert res.counterexample == {"x": 1.0, "y": 1.0}
        assert res.stats.boxes_emptied == 0

    def test_empty_root_is_pruned_and_counted(self):
        system = _sys(
            "toy_empty",
            [Variable("x", 0.0, 1.0), Variable("y", 2.0, 3.0)],
            [ordering("y", "x")],
            Relation("x > 5", lambda e: e["x"], ">", 5.0),
        )
        res = prove(system)
        stats = res.stats
        assert res.status is ProofStatus.PROVED
        assert (stats.boxes_explored, stats.boxes_pruned, stats.boxes_emptied) == (1, 1, 1)

    def test_ordering_is_the_hypothesis_it_declares(self):
        rel = ordering("y", "x")
        assert (rel.label, rel.op, rel.bound, rel.cheap, rel.ordered) == (
            "y <= x", "<=", 0.0, True, ("y", "x"),
        )
        assert rel.holds({"x": 1.0, "y": 1.0}) and not rel.holds({"x": 1.0, "y": 1.5})

    def test_unknown_variable_is_refused(self):
        system = _sys(
            "toy_unknown",
            [Variable("x", 0.0, 1.0)],
            [ordering("y", "x")],
            Relation("x > -1", lambda e: e["x"], ">", -1.0),
        )
        with pytest.raises(ContractError):
            prove(system)

    def test_random_boxes_keep_their_ordered_points(self):
        # a <= b <= c (declared c >= b, then b >= a): any point of a box
        # that meets both orderings is in the contracted box, and one pass
        # is the fixpoint
        rng = np.random.default_rng(5)
        pairs = [(1, 2), (0, 1)]
        pts = np.sort(rng.uniform(0.0, 1.0, (4000, 3)), axis=1)
        pts[::7, 1] = pts[::7, 2]  # points on b == c
        lo = pts - rng.uniform(0.0, 0.5, pts.shape) * (rng.random(pts.shape) < 0.8)
        hi = pts + rng.uniform(0.0, 0.5, pts.shape) * (rng.random(pts.shape) < 0.8)
        assert engine._contract(lo, hi, pairs).all()
        assert np.all((lo <= pts) & (pts <= hi))
        again_lo, again_hi = lo.copy(), hi.copy()
        engine._contract(again_lo, again_hi, pairs)
        assert np.array_equal(again_lo, lo) and np.array_equal(again_hi, hi)


class TestSchedulingInvariance:
    def _two_var_system(self):
        return _sys(
            "toy_2d",
            [Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
            [],
            Relation(
                "x^2+y^2 <= 2.05",
                lambda e: e["x"] * e["x"] + e["y"] * e["y"],
                "<=",
                2.05,
            ),
        )

    def test_chunk_size_does_not_change_the_tree(self, monkeypatch):
        cfg = ProverConfig(max_depth=40, min_width=1e-4)
        monkeypatch.setattr(engine, "CHUNK_LANES", 2)
        r1 = prove(self._two_var_system(), cfg)
        monkeypatch.setattr(engine, "CHUNK_LANES", 8192)
        r2 = prove(self._two_var_system(), cfg)
        assert r1.status is r2.status is ProofStatus.PROVED
        assert r1.stats.boxes_explored == r2.stats.boxes_explored


class TestControls:
    def test_undecided_cap_stops_early(self, monkeypatch):
        # x - x is [-w, w] on a box of width w, so no box is ever decided and
        # all 2**14 leaves are undecided; they arrive in more than one chunk
        system = _sys(
            "toy_dependency",
            [Variable("x", 0.0, 1.0)],
            [],
            Relation("x - x <= 0", lambda e: e["x"] - e["x"], "<=", 0.0),
        )
        cfg = ProverConfig(max_depth=14, min_width=1e-9)
        capped = prove(system, cfg)
        assert capped.status is ProofStatus.UNDECIDED
        assert capped.stats.undecided_count > engine.UNDECIDED_CAP
        monkeypatch.setattr(engine, "UNDECIDED_CAP", 10**9)
        full = prove(system, cfg)
        assert full.status is ProofStatus.UNDECIDED
        assert full.stats.undecided_count == 2**14
        assert capped.stats.boxes_explored < full.stats.boxes_explored

    def test_max_depth_bounds_the_tree(self, monkeypatch):
        system = _sys(
            "toy_depth",
            [Variable("x", 0.0, 1.0)],
            [],
            Relation("x > 0", lambda e: e["x"], ">", 0.0),
        )
        monkeypatch.setattr(engine, "UNDECIDED_CAP", 10**9)
        res = prove(system, ProverConfig(max_depth=5, min_width=1e-12))
        assert res.stats.max_depth_reached <= 5


# Named checks: each returns True on the unmutated engine.
def _boundary_counterexample_found():
    res = prove(_diagonal_point())
    return res.status is ProofStatus.DISPROVED and res.counterexample == {"x": 1.0, "y": 1.0}


def _nan_midpoints_do_not_disprove():
    return prove(_sqrt_above_one(-1.0, -0.5)).status is not ProofStatus.DISPROVED


def _tp1_tree_is_pinned():
    stats = prove(CATALOG["LEMMA_TP1"]).stats
    tree = (stats.boxes_explored, stats.boxes_pruned, stats.max_depth_reached)
    return tree == PINNED_TREES["LEMMA_TP1"]


CHECKS = {
    "boundary counterexample found": _boundary_counterexample_found,
    "NaN midpoints do not disprove": _nan_midpoints_do_not_disprove,
    "LEMMA_TP1 tree pinned": _tp1_tree_is_pinned,
}


def _contract_one_ulp_in(monkeypatch):
    """hi[small] drops one ulp below hi[big]: cuts the points small == big."""

    def mutant(LO, HI, pairs):
        for s, b in pairs:
            np.minimum(HI[:, s], np.nextafter(HI[:, b], -np.inf), out=HI[:, s])
        for s, b in reversed(pairs):
            np.maximum(LO[:, b], LO[:, s], out=LO[:, b])
        return np.all(LO <= HI, axis=1)

    monkeypatch.setattr(engine, "_contract", mutant)


class TestEngineMutants:
    """Each mutant of the search must fail its named check; the unmutated
    engine passes every check."""

    def test_unmutated_passes_every_check(self):
        assert [name for name, check in CHECKS.items() if not check()] == []

    @pytest.mark.parametrize(
        "mutant, check",
        [
            (_contract_one_ulp_in, "boundary counterexample found"),
            (
                lambda mp: mp.setattr(engine, "confirm_counterexample", lambda *a: True),
                "NaN midpoints do not disprove",
            ),
            (
                lambda mp: mp.setattr(engine, "_centre", lambda lo, hi: lo + 0.4 * (hi - lo)),
                "LEMMA_TP1 tree pinned",
            ),
        ],
        ids=["contraction-one-ulp-in", "confirm-always-true", "midpoint-off-centre"],
    )
    def test_mutant_is_caught(self, monkeypatch, mutant, check):
        mutant(monkeypatch)
        assert not CHECKS[check]()


class TestHelpers:
    def test_relation_rejects_unknown_op(self):
        with pytest.raises(ContractError):
            Relation("bad", lambda e: e["x"], "==", 0.0)

    def test_variable_rejects_bad_range(self):
        with pytest.raises(ContractError):
            Variable("x", 1.0, 0.0)
        with pytest.raises(ContractError):
            Variable("x", 0.0, float("inf"))
