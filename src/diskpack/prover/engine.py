"""Branch-and-prune proving of inequalities over boxes.

A ConstraintSystem states: for all variable values in the given ranges that
satisfy every hypothesis, the conclusion holds.  prove() explores the range
box with interval arithmetic: a sub-box is discarded when some hypothesis
certainly fails on it or the conclusion certainly holds on it; otherwise it
is bisected.  Every box at depth d is bisected across split[d], fixed once
per proof from the variable box alone: the widest root width after the
halvings above d, the first variable on ties.  The schedule ends at
max_depth or once every width is at most min_width; boxes still undecided
at its end are reported (the statement is then not established at this
resolution).  The midpoints of boxes where the conclusion certainly fails,
and of boxes left at the schedule's end, are tried in order as
counterexamples; only one confirmed in plain float arithmetic disproves the
statement.

Boxes are processed in chunks of same-depth boxes stored as two lane-major
arrays, so every formula evaluates vectorized across lanes; the chunking
changes the speed of a proof, not its tree.  Each chunk gets one pass:
prepare() builds the derived quantities, every hypothesis is evaluated in
order, and the surviving lanes are compacted once before the conclusion,
the expensive formula, runs on them.  A lane that leaves prepare()'s domain
is poisoned, not raised on, so a hypothesis on raw variables still prunes it
in the same pass.

All expression callbacks receive an environment dict and must be written
against the kind-generic scalar helpers, so the same callback serves the
interval sweep (IntervalArray) and the counterexample check at a midpoint
(floats).
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import ContractError, DiskpackError
from ..iarrays import IntervalArray


@dataclass(frozen=True)
class Variable:
    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ContractError(f"variable {self.name}: bad range [{self.lo}, {self.hi}]")


# op -> (the comparison on real points, and the IntervalArray methods that
# give its certainly-true and certainly-false masks).  The masks are looked
# up by name on each value, so a method patched on the class is the one used.
_OPS = {
    "<": (operator.lt, "cert_lt", "cert_ge"),
    "<=": (operator.le, "cert_le", "cert_gt"),
    ">": (operator.gt, "cert_gt", "cert_le"),
    ">=": (operator.ge, "cert_ge", "cert_lt"),
}


@dataclass(frozen=True)
class Relation:
    """`fn(env) op bound`, evaluated on intervals (certainty masks) or on
    real points (plain booleans).  `cheap` labels a relation on raw
    variables only; the engine ignores it."""

    label: str
    fn: Callable[[dict], object]
    op: str
    bound: float = 0.0
    cheap: bool = False

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ContractError(f"relation {self.label!r}: unknown op {self.op!r}")

    def certs(self, env: dict) -> "tuple[np.ndarray, np.ndarray]":
        v = self.fn(env)
        _, true, false = _OPS[self.op]
        return getattr(v, true)(self.bound), getattr(v, false)(self.bound)

    def holds(self, env: dict):
        return _OPS[self.op][0](self.fn(env), self.bound)


@dataclass(frozen=True)
class OrRelation:
    """Disjunction of relations: certainly true when some part is, certainly
    false when all parts are.  `cheap` is a label, as on Relation."""

    label: str
    parts: "tuple[Relation, ...]"
    cheap: bool = False

    def certs(self, env: dict) -> "tuple[np.ndarray, np.ndarray]":
        ct = cf = None
        for p in self.parts:
            pct, pcf = p.certs(env)
            ct = pct if ct is None else np.logical_or(ct, pct)
            cf = pcf if cf is None else np.logical_and(cf, pcf)
        return ct, cf

    def holds(self, env: dict):
        out = None
        for p in self.parts:
            h = p.holds(env)
            out = h if out is None else np.logical_or(out, h)
        return out


Hypothesis = Union[Relation, OrRelation]


# Most lanes one chunk holds, and how many undecided boxes end a search
# early as UNDECIDED.
CHUNK_LANES = 8192
UNDECIDED_CAP = 64


@dataclass(frozen=True)
class ProverConfig:
    max_depth: int = 60
    min_width: float = 1e-4


class ProofStatus(enum.Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNDECIDED = "undecided"


@dataclass
class ProofStats:
    boxes_explored: int = 0
    boxes_pruned: int = 0
    max_depth_reached: int = 0
    undecided_count: int = 0
    peak_lanes: int = 0
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class ProofResult:
    name: str
    status: ProofStatus
    stats: ProofStats
    counterexample: Optional["dict[str, float]"] = None
    undecided_boxes: "tuple[dict[str, tuple[float, float]], ...]" = ()


@dataclass(frozen=True)
class ConstraintSystem:
    """For all assignments in the variable ranges satisfying every
    hypothesis, the conclusion holds.  prepare() may add derived entries to
    the environment; it runs before every hypothesis and the conclusion."""

    name: str
    variables: "tuple[Variable, ...]"
    hypotheses: "tuple[Hypothesis, ...]"
    conclusion: Relation
    prepare: Optional[Callable[[dict], dict]] = None


def _env_from(system: ConstraintSystem, lo: np.ndarray, hi: np.ndarray) -> dict:
    return {
        v.name: IntervalArray(np.ascontiguousarray(lo[:, j]), np.ascontiguousarray(hi[:, j]))
        for j, v in enumerate(system.variables)
    }


def _prepared(system: ConstraintSystem, env: dict) -> dict:
    return system.prepare(env) if system.prepare is not None else env


def _compact_env(env: dict, keep: np.ndarray) -> dict:
    return {
        k: IntervalArray(v.lo[keep], v.hi[keep]) if isinstance(v, IntervalArray) else v
        for k, v in env.items()
    }


def confirm_counterexample(system: ConstraintSystem, point: "dict[str, float]") -> bool:
    """True iff the real point satisfies every hypothesis and violates the
    conclusion (domain errors and float division by zero or overflow count
    as not confirmed)."""
    env = {v.name: float(point[v.name]) for v in system.variables}
    try:
        env = _prepared(system, env)
        for rel in system.hypotheses:
            if not rel.holds(env):
                return False
        return not system.conclusion.holds(env)
    except (DiskpackError, ArithmeticError):
        return False


def _box_dict(system: ConstraintSystem, lo: np.ndarray, hi: np.ndarray) -> dict:
    return {
        v.name: (float(lo[j]), float(hi[j])) for j, v in enumerate(system.variables)
    }


def _split_schedule(system: ConstraintSystem, config: ProverConfig) -> "list[int]":
    """split[d] is the variable every box at depth d is bisected across."""
    widths = np.array([v.hi - v.lo for v in system.variables], dtype=float)
    split: "list[int]" = []
    while len(split) < config.max_depth and np.any(widths > config.min_width):
        j = int(np.argmax(widths))
        split.append(j)
        widths[j] *= 0.5
    return split


def _search(system: ConstraintSystem, split: "list[int]") -> ProofResult:
    names = [v.name for v in system.variables]
    lo0 = np.array([[v.lo for v in system.variables]], dtype=float)
    hi0 = np.array([[v.hi for v in system.variables]], dtype=float)
    stats = ProofStats()
    undecided: "list[dict]" = []
    stack = [(0, lo0, hi0)]
    lanes_resident = 1

    while stack:
        depth, LO, HI = stack.pop()
        # Same-depth boxes split across the same variable, so merging
        # trailing same-depth chunks only keeps the lanes vectorized.
        if stack and stack[-1][0] == depth and LO.shape[0] < CHUNK_LANES:
            group = [LO]
            group_hi = [HI]
            total = LO.shape[0]
            while stack and stack[-1][0] == depth and total < CHUNK_LANES:
                _, lo2, hi2 = stack.pop()
                group.append(lo2)
                group_hi.append(hi2)
                total += lo2.shape[0]
            LO = np.concatenate(group)
            HI = np.concatenate(group_hi)
        lanes = LO.shape[0]
        stats.peak_lanes = max(stats.peak_lanes, lanes_resident)
        lanes_resident -= lanes
        stats.boxes_explored += lanes
        stats.max_depth_reached = max(stats.max_depth_reached, depth)

        env = _prepared(system, _env_from(system, LO, HI))
        alive = np.ones(lanes, dtype=bool)
        for rel in system.hypotheses:
            _, cf = rel.certs(env)
            alive &= ~cf
        aidx = np.flatnonzero(alive)
        stats.boxes_pruned += lanes - aidx.size
        if aidx.size == 0:
            continue
        if aidx.size < lanes:
            # The conclusion is the expensive formula; evaluate it only on
            # lanes that survived every hypothesis.
            env = _compact_env(env, aidx)
            LO, HI = LO[aidx], HI[aidx]
        concl_ct, concl_cf = system.conclusion.certs(env)
        sidx = np.flatnonzero(~concl_ct)
        stats.boxes_pruned += aidx.size - sidx.size
        if sidx.size == 0:
            continue
        LOs, HIs = LO[sidx], HI[sidx]

        is_leaf = depth >= len(split)

        cand = np.arange(sidx.size) if is_leaf else np.flatnonzero(concl_cf[sidx])
        for mid in (0.5 * (LOs[cand] + HIs[cand])).tolist():
            point = dict(zip(names, mid))
            if confirm_counterexample(system, point):
                return ProofResult(system.name, ProofStatus.DISPROVED, stats, point)

        if is_leaf:
            stats.undecided_count += sidx.size
            for k in range(min(sidx.size, 8 - len(undecided))):
                undecided.append(_box_dict(system, LOs[k], HIs[k]))
            if stats.undecided_count > UNDECIDED_CAP:
                return ProofResult(
                    system.name, ProofStatus.UNDECIDED, stats, None, tuple(undecided)
                )
            continue

        # the lower halves, then the upper halves
        j = split[depth]
        mid = LOs[:, j] + 0.5 * (HIs[:, j] - LOs[:, j])
        children_lo = np.concatenate([LOs, LOs])
        children_hi = np.concatenate([HIs, HIs])
        n_children = children_lo.shape[0]
        children_hi[: sidx.size, j] = mid
        children_lo[sidx.size :, j] = mid
        for start in range(0, n_children, CHUNK_LANES):
            end = min(start + CHUNK_LANES, n_children)
            stack.append((depth + 1, children_lo[start:end], children_hi[start:end]))
            lanes_resident += end - start
        stats.peak_lanes = max(stats.peak_lanes, lanes_resident)

    status = ProofStatus.PROVED if stats.undecided_count == 0 else ProofStatus.UNDECIDED
    return ProofResult(system.name, status, stats, None, tuple(undecided))


def prove(system: ConstraintSystem, config: Optional[ProverConfig] = None) -> ProofResult:
    """Run the branch-and-prune search at `config`, else at ProverConfig()."""
    t0 = time.perf_counter()
    result = _search(system, _split_schedule(system, config or ProverConfig()))
    result.stats.wall_time_s = time.perf_counter() - t0
    return result
