"""Branch-and-prune proving of inequalities over boxes.

A ConstraintSystem states: for all variable values in the given ranges that
satisfy every hypothesis, the conclusion holds.  prove() explores the range
box with interval arithmetic: a sub-box is discarded when some hypothesis
certainly fails on it or the conclusion certainly holds on it; otherwise it
is bisected.

Before anything is evaluated on a box, the box is contracted by the
hypotheses that order two raw variables (declared with ordering()): for
small <= big, hi[small] drops to hi[big] and lo[big] rises to lo[small].
Contraction takes the min or max of existing doubles, so nothing is
rounded, and it removes only points that violate a hypothesis; a box left
with lo > hi on some variable holds no such point and is pruned.  The upper
ends are narrowed in declaration order and the lower ends in reverse, so
one pass reaches the fixpoint of a chain declared from its largest
variable down.  Each surviving box is then bisected across its own widest
current width, the first variable on ties; it is a leaf at max_depth or
once no width exceeds min_width, and leaves still undecided are reported
(the statement is then not established at this resolution).  The midpoints
of boxes where the conclusion certainly fails, and of leaves, are tried in
order as counterexamples; only one confirmed in plain float arithmetic
disproves the statement.

Boxes are processed in chunks of same-depth boxes stored as two lane-major
arrays, so every formula evaluates vectorized across lanes.  Every step
reads one box alone, so the tree depends only on the system and the
ProverConfig: the chunking changes the speed of a proof, not its tree.
Each chunk gets one pass: contraction, then prepare() builds the derived
quantities, every hypothesis is evaluated in order, and the surviving lanes
are compacted once before the conclusion, the expensive formula, runs on
them.  A lane that leaves prepare()'s domain is poisoned, not raised on, so
a hypothesis on raw variables still prunes it in the same pass.

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
    variables only; the engine ignores it.  `ordered` is (small, big) on a
    hypothesis small <= big between two raw variables, which the engine
    contracts every box by; set it only through ordering(), which builds
    `fn` to match."""

    label: str
    fn: Callable[[dict], object]
    op: str
    bound: float = 0.0
    cheap: bool = False
    ordered: Optional["tuple[str, str]"] = None

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


def ordering(small: str, big: str) -> Relation:
    """The hypothesis small <= big on two raw variables, labelled cheap and
    declared for contraction."""
    return Relation(
        f"{small} <= {big}",
        lambda e: e[small] - e[big],
        "<=",
        0.0,
        cheap=True,
        ordered=(small, big),
    )


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
    boxes_emptied: int = 0  # pruned by contraction alone; in boxes_pruned too


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


def _centre(lo, hi):
    """The midpoint of [lo, hi] in floats: where a box is bisected and where
    it is tried as a counterexample."""
    return lo + 0.5 * (hi - lo)


def _orderings(system: ConstraintSystem) -> "list[tuple[int, int]]":
    """(small, big) column pairs of the hypotheses declared by ordering()."""
    col = {v.name: j for j, v in enumerate(system.variables)}
    pairs = []
    for rel in system.hypotheses:
        if isinstance(rel, Relation) and rel.ordered is not None:
            unknown = [n for n in rel.ordered if n not in col]
            if unknown:
                raise ContractError(f"relation {rel.label!r}: no variable {unknown[0]!r}")
            pairs.append((col[rel.ordered[0]], col[rel.ordered[1]]))
    return pairs


def _contract(LO: np.ndarray, HI: np.ndarray, pairs: "list[tuple[int, int]]") -> np.ndarray:
    """Narrow the boxes in place by small <= big for every pair: upper ends
    in declaration order, lower ends in reverse.  Returns the mask of boxes
    left nonempty."""
    for s, b in pairs:
        np.minimum(HI[:, s], HI[:, b], out=HI[:, s])
    for s, b in reversed(pairs):
        np.maximum(LO[:, b], LO[:, s], out=LO[:, b])
    return np.all(LO <= HI, axis=1)


def _search(system: ConstraintSystem, config: ProverConfig) -> ProofResult:
    names = [v.name for v in system.variables]
    pairs = _orderings(system)
    lo0 = np.array([[v.lo for v in system.variables]], dtype=float)
    hi0 = np.array([[v.hi for v in system.variables]], dtype=float)
    stats = ProofStats()
    undecided: "list[dict]" = []
    stack = [(0, lo0, hi0)]
    lanes_resident = 1

    while stack:
        depth, LO, HI = stack.pop()
        # Each box's fate reads that box and its depth alone, so merging
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

        kept = np.flatnonzero(_contract(LO, HI, pairs))
        if kept.size < lanes:
            stats.boxes_emptied += lanes - kept.size
            stats.boxes_pruned += lanes - kept.size
            if kept.size == 0:
                continue
            LO, HI, lanes = LO[kept], HI[kept], kept.size

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

        widths = HIs - LOs
        leaf = (depth >= config.max_depth) | ~np.any(widths > config.min_width, axis=1)

        cand = np.flatnonzero(leaf | concl_cf[sidx])
        for mid in _centre(LOs[cand], HIs[cand]).tolist():
            point = dict(zip(names, mid))
            if confirm_counterexample(system, point):
                return ProofResult(system.name, ProofStatus.DISPROVED, stats, point)

        lidx = np.flatnonzero(leaf)
        if lidx.size:
            stats.undecided_count += lidx.size
            for k in lidx[: max(0, 8 - len(undecided))]:
                undecided.append(_box_dict(system, LOs[k], HIs[k]))
            if stats.undecided_count > UNDECIDED_CAP:
                return ProofResult(
                    system.name, ProofStatus.UNDECIDED, stats, None, tuple(undecided)
                )
            if lidx.size == sidx.size:
                continue
            split = np.flatnonzero(~leaf)
            LOs, HIs, widths = LOs[split], HIs[split], widths[split]

        # the lower halves, then the upper halves, each across its box's
        # widest side (argmax takes the first variable on ties)
        n = LOs.shape[0]
        rows = np.arange(n)
        j = np.argmax(widths, axis=1)
        mid = _centre(LOs[rows, j], HIs[rows, j])
        children_lo = np.concatenate([LOs, LOs])
        children_hi = np.concatenate([HIs, HIs])
        children_hi[rows, j] = mid
        children_lo[rows + n, j] = mid
        for start in range(0, 2 * n, CHUNK_LANES):
            end = min(start + CHUNK_LANES, 2 * n)
            stack.append((depth + 1, children_lo[start:end], children_hi[start:end]))
            lanes_resident += end - start
        stats.peak_lanes = max(stats.peak_lanes, lanes_resident)

    status = ProofStatus.PROVED if stats.undecided_count == 0 else ProofStatus.UNDECIDED
    return ProofResult(system.name, status, stats, None, tuple(undecided))


def prove(system: ConstraintSystem, config: Optional[ProverConfig] = None) -> ProofResult:
    """Run the branch-and-prune search at `config`, else at ProverConfig()."""
    t0 = time.perf_counter()
    result = _search(system, config or ProverConfig())
    result.stats.wall_time_s = time.perf_counter() - t0
    return result
