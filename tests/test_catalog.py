"""Catalog of verified constraint systems: structure, samples, fast proofs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskpack.geometry import T_inv, sigma
from diskpack.prover import (
    ProofStatus,
    ProverConfig,
    lemma_catalog,
    lemma_names,
    prove,
)
from diskpack.prover import engine
from diskpack.prover.engine import OrRelation

from fuzzers import conclusion_values, hypothesis_samples, sample_points


CATALOG = {s.name: s for s in lemma_catalog()}


class TestStructure:
    def test_eleven_systems_cover_the_ten_statements(self):
        # SC5..SC7 carry the sigma gate as separate systems; TP1/TP2 are the
        # two components of one geometric statement.
        assert len(lemma_catalog()) == 11
        assert lemma_names() == [
            "LEMMA_TP1",
            "LEMMA_TP2",
            "LEMMA_SC1",
            "LEMMA_SC2",
            "LEMMA_SC3",
            "LEMMA_SC4",
            "LEMMA_SC5_SIGMA",
            "LEMMA_SC6_SIGMA",
            "LEMMA_SC7_SIGMA",
            "LEMMA_MSC_NEG",
            "LEMMA_MSC_POS",
        ]

    def test_names_unique(self):
        names = lemma_names()
        assert len(names) == len(set(names))

    def test_variable_boxes_cover_the_stated_ranges(self):
        # s1 spans [0.295, sqrt(8/5)] with outward nudges on both ends
        for system in lemma_catalog():
            s1 = next(v for v in system.variables if v.name == "s1")
            assert s1.lo < 0.295 or math.isclose(s1.lo, 0.295, abs_tol=1e-12)
            assert s1.lo <= 0.295
            assert s1.hi >= math.sqrt(8.0 / 5.0)

    def test_height_caps_match_budget(self):
        # sum(h) <= 1 + T_inv(0.295) < 1.695 justifies h_i <= 1.695/i
        budget = 1.0 + T_inv(0.295)
        assert budget < 1.695
        for k in range(1, 8):
            name = f"LEMMA_SC{k}" if k <= 4 else f"LEMMA_SC{k}_SIGMA"
            system = CATALOG[name]
            for i in range(1, k + 1):
                v = next(v for v in system.variables if v.name == f"h{i}")
                assert v.hi <= min(math.sqrt(1.6) * (1 + 1e-12), 1.695 / i) + 1e-15
                assert v.hi >= budget / i or v.hi >= math.sqrt(1.6)

    def test_sc_systems_chain_down_to_sn(self):
        for k in (1, 4, 7):
            name = f"LEMMA_SC{k}" if k <= 4 else f"LEMMA_SC{k}_SIGMA"
            chain = ["s1"] + [f"h{i}" for i in range(1, k + 1)] + ["sn"]
            expected = [(small, big) for big, small in zip(chain, chain[1:])]
            assert list(CATALOG[name].orderings) == expected

    def test_sigma_gate_only_on_high_k(self):
        for k in (1, 2, 3, 4):
            labels = [h.label for h in CATALOG[f"LEMMA_SC{k}"].hypotheses]
            assert "sigma < sn" not in labels
        for k in (5, 6, 7):
            labels = [h.label for h in CATALOG[f"LEMMA_SC{k}_SIGMA"].hypotheses]
            assert "sigma < sn" in labels

    def test_sc1_dispatch_disjunction_present(self):
        ors = [h for h in CATALOG["LEMMA_SC1"].hypotheses if isinstance(h, OrRelation)]
        assert len(ors) == 1
        assert len(ors[0].parts) == 3
        for k in (2, 3, 4):
            assert not any(
                isinstance(h, OrRelation) for h in CATALOG[f"LEMMA_SC{k}"].hypotheses
            )

    def test_orderings_are_declared_for_contraction(self):
        # every ordering names two variables and is declared apart from the
        # hypotheses, in a chain from the largest variable down; the
        # hypotheses are the relations that can prune
        for system in lemma_catalog():
            names = {v.name for v in system.variables}
            assert all(small in names and big in names for small, big in system.orderings)
        assert sum(len(s.orderings) for s in lemma_catalog()) == 44
        assert sum(len(s.hypotheses) for s in lemma_catalog()) == 19
        chains = {
            "LEMMA_TP1": ["s1"],
            "LEMMA_SC3": ["s1", "h1", "h2", "h3", "sn"],
            "LEMMA_MSC_NEG": ["s1", "h1", "h2", "h3", "h4"],
            "LEMMA_MSC_POS": ["s1", "h1", "h2", "h3", "h_jnext"],
        }
        for name, chain in chains.items():
            expected = [(small, big) for big, small in zip(chain, chain[1:])]
            if name == "LEMMA_MSC_POS":
                expected.append(("delta_y", "h3"))
            assert list(CATALOG[name].orderings) == expected


class TestSamples:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_samples_satisfy_every_hypothesis(self, name):
        # certified on point lanes, and true in floats at every sample
        system = CATALOG[name]
        s = hypothesis_samples(system, 500, seed=101)
        for point in sample_points(s):
            for small, big in system.orderings:
                assert point[small] <= point[big], (small, big, point)
            env = system.prepare(point) if system.prepare else point
            for hyp in system.hypotheses:
                assert hyp.holds(env), (hyp.label, point)
        for v in system.variables:
            assert np.all(s[v.name] >= v.lo) and np.all(s[v.name] <= v.hi)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_conclusions_hold_at_samples(self, name):
        system = CATALOG[name]
        s = hypothesis_samples(system, 500, seed=202)
        vals = conclusion_values(system, s)
        assert np.all(np.isfinite(vals))
        if system.conclusion.op == ">":
            assert np.all(vals > system.conclusion.bound)
        else:
            assert np.all(vals <= system.conclusion.bound)
        for point in sample_points(s):
            env = system.prepare(point) if system.prepare else point
            assert system.conclusion.holds(env), point

    def test_sigma_variants_sample_above_pocket(self):
        s = hypothesis_samples(CATALOG["LEMMA_SC6_SIGMA"], 300, seed=7)
        assert all(p["sn"] > sigma(p["s1"]) for p in sample_points(s))

    def test_plain_variants_allow_pocket_sized_failures(self):
        s = hypothesis_samples(CATALOG["LEMMA_SC2"], 2000, seed=7)
        assert any(p["sn"] < sigma(p["s1"]) for p in sample_points(s))


def _boxes_around(rng, system, samples, count):
    """`count` random sub-boxes of the variable box, and one random box
    around each sample (an end on the sample itself a fifth of the time)."""
    names = [v.name for v in system.variables]
    vlo = np.array([v.lo for v in system.variables])
    vhi = np.array([v.hi for v in system.variables])
    ends = np.sort(rng.uniform(vlo, vhi, (2, count, len(names))), axis=0)
    pts = np.column_stack([samples[n] for n in names])
    pad = rng.uniform(0.0, 1.0, (2,) + pts.shape) * (vhi - vlo) * rng.choice([1e-6, 1e-3, 0.1], (2,) + pts.shape)
    pad *= rng.random(pad.shape) > 0.2
    lo = np.concatenate([ends[0], np.maximum(pts - pad[0], vlo)])
    hi = np.concatenate([ends[1], np.minimum(pts + pad[1], vhi)])
    return lo, hi, pts


class TestContraction:
    """Contraction by the catalog's orderings on random boxes and on boxes
    around samples that meet every hypothesis."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_samples_stay_inside_their_contracted_boxes(self, name):
        system = CATALOG[name]
        samples = hypothesis_samples(system, 300, seed=303)
        lo, hi, pts = _boxes_around(np.random.default_rng(303), system, samples, 300)
        inside = np.all((lo[:, None] <= pts) & (pts <= hi[:, None]), axis=2)
        assert inside.sum() >= len(pts)
        nonempty = engine._contract(lo, hi, engine._orderings(system))
        after = np.all((lo[:, None] <= pts) & (pts <= hi[:, None]), axis=2)
        assert np.all(after[inside])
        assert np.all(nonempty[inside.any(axis=1)])

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_a_second_pass_changes_nothing(self, name):
        system = CATALOG[name]
        samples = hypothesis_samples(system, 300, seed=404)
        lo, hi, _ = _boxes_around(np.random.default_rng(404), system, samples, 300)
        pairs = engine._orderings(system)
        engine._contract(lo, hi, pairs)
        again_lo, again_hi = lo.copy(), hi.copy()
        engine._contract(again_lo, again_hi, pairs)
        assert np.array_equal(again_lo, lo) and np.array_equal(again_hi, hi)


# (boxes explored, boxes pruned, max depth) of every catalog system at
# ProverConfig().  A change to an enclosure or to the search that alters a
# tree must update these on purpose; the chunk size and the lookahead
# budget must not alter one.
PINNED_TREES = {
    "LEMMA_TP1": (27, 14, 6),
    "LEMMA_TP2": (89, 45, 10),
    "LEMMA_SC1": (5997, 2999, 24),
    "LEMMA_SC2": (12843, 6422, 25),
    "LEMMA_SC3": (57303, 28652, 26),
    "LEMMA_SC4": (182073, 91037, 29),
    "LEMMA_SC5_SIGMA": (801, 401, 23),
    "LEMMA_SC6_SIGMA": (473, 237, 23),
    "LEMMA_SC7_SIGMA": (347, 174, 25),
    "LEMMA_MSC_NEG": (255063, 127532, 28),
    "LEMMA_MSC_POS": (1731, 866, 24),
}


class TestFastProofs:
    @pytest.mark.parametrize("name", sorted(PINNED_TREES))
    def test_search_tree_is_pinned(self, name):
        res = prove(CATALOG[name])
        stats = res.stats
        assert res.status is ProofStatus.PROVED
        assert stats.undecided_count == 0
        tree = (stats.boxes_explored, stats.boxes_pruned, stats.max_depth_reached)
        assert tree == PINNED_TREES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_TREES))
    def test_lookahead_does_not_change_the_tree(self, name):
        # budget 0: every block is one level, a pass per chunk
        res = engine._search(CATALOG[name], ProverConfig(), 0)
        stats = res.stats
        assert res.status is ProofStatus.PROVED
        tree = (stats.boxes_explored, stats.boxes_pruned, stats.max_depth_reached)
        assert tree == PINNED_TREES[name]
        assert stats.lanes_evaluated == stats.boxes_explored - stats.boxes_emptied

    @pytest.mark.parametrize("name", sorted(PINNED_TREES))
    def test_chunk_size_does_not_change_the_tree(self, monkeypatch, name):
        monkeypatch.setattr(engine, "CHUNK_LANES", 1024)
        stats = prove(CATALOG[name]).stats
        tree = (stats.boxes_explored, stats.boxes_pruned, stats.max_depth_reached)
        assert tree == PINNED_TREES[name]
