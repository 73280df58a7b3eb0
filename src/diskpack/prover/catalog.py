"""Catalog of the inequalities behind the packing guarantee.

Each constraint system states: for every point of the variable box that
satisfies all hypotheses, the conclusion holds.  The systems fall into three
families.

* TP — the two candidate squares stacked in the pocket beside the topmost
  square keep their far corners inside the disk (F_TP <= 1), so the pocket
  credit of E() is safe.
* SC — when the layered packing fails with k = 1..7 filled subcontainers,
  the accounted area F_SC exceeds 8/5.  For k >= 5 the failed side also
  exceeds the pocket capacity (sigma < sn) and the pocket credit is dropped.
* MSC — when five or more subcontainers exist and the failed side fits the
  pocket: F_MSC1 exceeds 8/5 wherever the third subcontainer ends, and
  F_MSC2 does too when its bottom lies above the center.

Each system orders its raw variables in one chain from the largest down,
declared as its `orderings`: the engine contracts every box by them before
it evaluates anything, and evaluates them nowhere else.  The engine then
evaluates every hypothesis, in the order given, in one pass after
prepare().
"""

from __future__ import annotations

import math

from .. import bounds
from ..geometry import CONSTANTS, T_inv, chord_width, ell1, sigma, z_below
from ..packer import _C1_POCKET, _C2_MAX_S1, _C2_TOP4_AREA
from ..scalars import square
from .engine import ConstraintSystem, OrRelation, Relation, Variable

# Box endpoints are nudged outward so every verified box strictly contains
# the stated real range: s1 from the packer's C1 threshold to sqrt(8/5).
_S1_LO = math.nextafter(_C1_POCKET, 0.0)
_S1_HI = math.nextafter(math.sqrt(8.0 / 5.0), 2.0)

# float(8/5) = 1.6 lies above the real 8/5, so certifying a value > 1.6
# certifies that it exceeds 8/5.
_CRITICAL = CONSTANTS.critical_area

# Heights satisfy h_1 >= ... >= h_k and sum(h_i) <= 1 + T_inv(s1)
# <= 1 + T_inv(0.295) < 1.695, hence h_i <= 1.695/i; no side exceeds
# sqrt(8/5).  The caps only shrink the search box - the inequalities stay
# enforced as orderings and hypotheses.  LEMMA_SC1 states no height sum:
# its caps, h1 and sn at most sqrt(8/5), follow from the chain alone.
_HSUM_CAP = 1.695


def _height_cap(i: int) -> float:
    return min(_S1_HI, _HSUM_CAP / i)


def _chain(*names: str) -> "list[tuple[str, str]]":
    """The orderings names[0] >= names[1] >= ..., as (small, big) pairs."""
    return [(small, big) for big, small in zip(names, names[1:])]


def _tp_system(which: int) -> ConstraintSystem:
    def prep(env: dict) -> dict:
        e = dict(env)
        e["ell1"] = ell1(e["s1"])
        return e

    def concl_fn(env: dict, idx: int = which - 1):
        return bounds.F_TP(env["s1"])[idx]

    return ConstraintSystem(
        name=f"LEMMA_TP{which}",
        variables=(Variable("s1", _S1_LO, _S1_HI),),
        hypotheses=(
            Relation("ell1 <= s1", lambda e: e["ell1"] - e["s1"], "<=", 0.0),
        ),
        conclusion=Relation(f"F_TP{which} <= 1", concl_fn, "<=", 1.0),
        prepare=prep,
    )


def _sc_system(k: int, sn_above_pocket: bool) -> ConstraintSystem:
    hnames = tuple(f"h{i}" for i in range(1, k + 1))
    variables = [Variable("s1", _S1_LO, _S1_HI)]
    variables += [Variable(hnames[i - 1], 0.0, _height_cap(i)) for i in range(1, k + 1)]
    variables.append(Variable("sn", 0.0, _height_cap(k)))

    # SC1 states no height sum and SC6/7 no z < sn: the same trees, stronger lemmas.
    def prep(env: dict) -> dict:
        e = dict(env)
        heights = [e[n] for n in hnames]
        e["ti"] = T_inv(e["s1"])
        if k > 1:
            e["hsum"] = sum(heights)
        if k <= 5:
            e["z"] = z_below(e["s1"], heights)
        if sn_above_pocket:
            e["sig"] = sigma(e["s1"])
        if k == 1:
            e["w1"] = chord_width(e["ti"], e["h1"])
        return e

    hyps: "list[object]" = []
    if k > 1:
        hyps.append(Relation("sum(h) <= 1 + T_inv(s1)", lambda e: e["hsum"] - e["ti"], "<=", 1.0))
    if k <= 5:
        hyps.append(Relation("z < sn", lambda e: e["z"] - e["sn"], "<", 0.0))
    if sn_above_pocket:
        hyps.append(Relation("sigma < sn", lambda e: e["sig"] - e["sn"], "<", 0.0))
    if k == 1:
        # With one subcontainer the accounting alone cannot beat 8/5
        # everywhere; the dispatch guarantees one of three extra facts
        # whenever the layered case ran instead of the four-quadrant case,
        # stated against the packer's own dispatch thresholds.
        hyps.append(
            OrRelation(
                "layered dispatch",
                (
                    Relation("s1 > 1/sqrt(2)", lambda e: e["s1"], ">", _C2_MAX_S1),
                    Relation("w1 < 2*h1", lambda e: e["w1"] - 2 * e["h1"], "<", 0.0),
                    Relation(
                        "s1^2 + h1^2 + 2*sn^2 < 39/25",
                        lambda e: square(e["s1"]) + square(e["h1"]) + 2 * square(e["sn"]),
                        "<",
                        _C2_TOP4_AREA,
                    ),
                ),
            )
        )

    def concl_fn(env: dict):
        heights = [env[n] for n in hnames]
        return bounds.F_SC(env["s1"], heights, env["sn"], include_E=not sn_above_pocket)

    return ConstraintSystem(
        name=f"LEMMA_SC{k}_SIGMA" if sn_above_pocket else f"LEMMA_SC{k}",
        variables=tuple(variables),
        hypotheses=tuple(hyps),
        conclusion=Relation("F_SC > 8/5", concl_fn, ">", _CRITICAL),
        prepare=prep,
        orderings=tuple(_chain("s1", *hnames, "sn")),
    )


def _msc_neg_system() -> ConstraintSystem:
    variables = (
        Variable("s1", _S1_LO, _S1_HI),
        Variable("h1", 0.0, _height_cap(1)),
        Variable("h2", 0.0, _height_cap(2)),
        Variable("h3", 0.0, _height_cap(3)),
        Variable("h4", 0.0, _height_cap(3)),  # h4 <= h3
    )

    # H4, the height left below the third subcontainer, has no upper bound:
    # the lemma covers any bottom of the third subcontainer.
    def prep(env: dict) -> dict:
        e = dict(env)
        e["H4"] = 1 + T_inv(e["s1"]) - e["h1"] - e["h2"] - e["h3"]
        return e

    return ConstraintSystem(
        name="LEMMA_MSC_NEG",
        variables=variables,
        hypotheses=(Relation("H4 >= 0", lambda e: e["H4"], ">=", 0.0),),
        conclusion=Relation(
            "F_MSC1 > 8/5",
            lambda e: bounds.F_MSC1(e["s1"], e["h1"], e["h2"], e["h3"], e["h4"]),
            ">",
            _CRITICAL,
        ),
        prepare=prep,
        orderings=tuple(_chain("s1", "h1", "h2", "h3", "h4")),
    )


def _msc_pos_system() -> ConstraintSystem:
    # Three subcontainers end above the center: h1+h2+h3 < T_inv(s1)
    # <= T_inv(0.295) < 0.695, so h1 < 0.695, h2 < 0.348, h3 < 0.232 by the
    # descending chain; delta_y is the distance from the center down to the
    # bottom of the inscribed rectangle, so 0 <= delta_y <= h3.
    variables = (
        Variable("s1", _S1_LO, _S1_HI),
        Variable("h1", 0.0, 0.695),
        Variable("h2", 0.0, 0.348),
        Variable("h3", 0.0, 0.232),
        Variable("h_jnext", 0.0, 0.232),
        Variable("delta_y", 0.0, 0.232),
    )

    def prep(env: dict) -> dict:
        e = dict(env)
        e["room"] = T_inv(e["s1"]) - e["h1"] - e["h2"] - e["h3"]
        return e

    return ConstraintSystem(
        name="LEMMA_MSC_POS",
        variables=variables,
        hypotheses=(Relation("T_inv(s1) - h1 - h2 - h3 > 0", lambda e: e["room"], ">", 0.0),),
        conclusion=Relation(
            "F_MSC2 > 8/5",
            lambda e: bounds.F_MSC2(
                e["s1"], e["h1"], e["h2"], e["h3"], e["h_jnext"], e["delta_y"]
            ),
            ">",
            _CRITICAL,
        ),
        prepare=prep,
        orderings=(*_chain("s1", "h1", "h2", "h3", "h_jnext"), ("delta_y", "h3")),
    )


def lemma_catalog() -> "list[ConstraintSystem]":
    """All verified systems, in reporting order."""
    return [
        _tp_system(1),
        _tp_system(2),
        _sc_system(1, sn_above_pocket=False),
        _sc_system(2, sn_above_pocket=False),
        _sc_system(3, sn_above_pocket=False),
        _sc_system(4, sn_above_pocket=False),
        _sc_system(5, sn_above_pocket=True),
        _sc_system(6, sn_above_pocket=True),
        _sc_system(7, sn_above_pocket=True),
        _msc_neg_system(),
        _msc_pos_system(),
    ]


def lemma_names() -> "list[str]":
    return [system.name for system in lemma_catalog()]
