"""Branch-and-prune proving of inequalities over boxes.

A ConstraintSystem states: for all variable values in the given ranges that
satisfy every ordering and hypothesis, the conclusion holds.  prove()
explores the range box with interval arithmetic: a sub-box is discarded
when some hypothesis certainly fails on it or the conclusion certainly
holds on it; otherwise it is bisected.

Before anything is evaluated on a box, the box is contracted by the
system's orderings, small <= big on two raw variables, which nothing else
evaluates: hi[small] drops to hi[big] and lo[big] rises to lo[small].
Contraction takes the min or max of existing doubles, so nothing is
rounded, and it removes only points that violate an ordering; a box left
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
The leaf rule, the split and contraction need no evaluation, so a
chunk's subtree is known before anything is evaluated.  Each popped chunk
becomes a block: the contracted chunk, then the bisected and contracted
children of every non-leaf box of the level above, level after level while
the block stays within CHUNK_LANES // 4 lanes (a larger chunk is a block
of one level).  The block gets one pass: prepare() builds the derived
quantities, every hypothesis is evaluated in order, and the surviving lanes
are compacted once before the conclusion, the expensive formula, runs on
them.  The block is then walked top-down, and a box counts as explored
only if its parent was explored, survived and is not a leaf; the lanes
below a pruned box are wasted work, cheap on a small chunk, where one pass
per level would pay the fixed cost of every interval operation.
Counterexample candidates and undecided leaves are taken level by level,
so the first confirmed counterexample depends on the blocks, though the
tree does not.  The survivors of the last level are bisected onto the
depth-first stack.  A lane that leaves prepare()'s domain is poisoned, not
raised on, so a hypothesis on raw variables still prunes it in the same
pass.

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
    float points (a plain bool).  `cheap` labels a relation on raw
    variables only; the engine ignores it and only the benchmark's spans
    read it."""

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

    def holds(self, env: dict) -> bool:
        """The relation at a float point; a value that is not finite, which
        no comparison can settle, raises FloatingPointError."""
        v = self.fn(env)
        if not math.isfinite(v):
            raise FloatingPointError(f"relation {self.label!r}: value {v!r}")
        return _OPS[self.op][0](v, self.bound)


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

    def holds(self, env: dict) -> bool:
        # Every part is evaluated: a part off its domain raises even when
        # another part holds.
        return any([p.holds(env) for p in self.parts])


Hypothesis = Union[Relation, OrRelation]


# Most lanes one chunk holds (a block with lookahead levels holds at most a
# quarter of that), and how many undecided boxes end a search early as
# UNDECIDED.
CHUNK_LANES = 8192
UNDECIDED_CAP = 64


@dataclass(frozen=True)
class ProverConfig:
    max_depth: int = 60
    min_width: float = 1e-4

    def __post_init__(self) -> None:
        if not isinstance(self.max_depth, int) or self.max_depth < 0:
            raise ContractError(f"max_depth must be an int >= 0, not {self.max_depth!r}")
        if not (math.isfinite(self.min_width) and self.min_width > 0):
            raise ContractError(f"min_width must be finite and > 0, not {self.min_width!r}")


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
    peak_lanes: int = 0  # most lanes held at once, on the stack and in a block
    wall_time_s: float = 0.0
    boxes_emptied: int = 0  # pruned by contraction alone; in boxes_pruned too
    evaluations: int = 0  # vectorized passes through prepare()
    lanes_evaluated: int = 0  # lanes in those passes, lookahead included


@dataclass(frozen=True)
class ProofResult:
    name: str
    status: ProofStatus
    stats: ProofStats
    counterexample: Optional["dict[str, float]"] = None
    undecided_boxes: "tuple[dict[str, tuple[float, float]], ...]" = ()


@dataclass(frozen=True)
class ConstraintSystem:
    """For all assignments in the variable ranges satisfying every ordering
    (small, big), small <= big on two raw variables, and every hypothesis,
    the conclusion holds.  prepare() may add derived entries to the
    environment; it runs before every hypothesis and the conclusion."""

    name: str
    variables: "tuple[Variable, ...]"
    hypotheses: "tuple[Hypothesis, ...]"
    conclusion: Relation
    prepare: Optional[Callable[[dict], dict]] = None
    orderings: "tuple[tuple[str, str], ...]" = ()


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
    """True iff the real point meets every ordering and hypothesis and
    violates the conclusion (domain errors, float division by zero and a
    relation value that is not finite count as not confirmed)."""
    env = {v.name: float(point[v.name]) for v in system.variables}
    if not all(env[small] <= env[big] for small, big in system.orderings):
        return False
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
    """(small, big) column pairs of the system's orderings."""
    col = {v.name: j for j, v in enumerate(system.variables)}
    for pair in system.orderings:
        unknown = [n for n in pair if n not in col]
        if unknown:
            raise ContractError(f"ordering {pair[0]} <= {pair[1]}: no variable {unknown[0]!r}")
    return [(col[small], col[big]) for small, big in system.orderings]


def _contract(LO: np.ndarray, HI: np.ndarray, pairs: "list[tuple[int, int]]") -> np.ndarray:
    """Narrow the boxes in place by small <= big for every pair: upper ends
    in declaration order, lower ends in reverse.  Returns the mask of boxes
    left nonempty."""
    for s, b in pairs:
        np.minimum(HI[:, s], HI[:, b], out=HI[:, s])
    for s, b in reversed(pairs):
        np.maximum(LO[:, b], LO[:, s], out=LO[:, b])
    return np.all(LO <= HI, axis=1)


def _bisect(lo: np.ndarray, hi: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Both halves of every box across its widest side (argmax takes the
    first variable on ties): the lower halves, then the upper halves."""
    n = lo.shape[0]
    rows = np.arange(n)
    j = np.argmax(hi - lo, axis=1)
    mid = _centre(lo[rows, j], hi[rows, j])
    children_lo = np.concatenate([lo, lo])
    children_hi = np.concatenate([hi, hi])
    children_hi[rows, j] = mid
    children_lo[rows + n, j] = mid
    return children_lo, children_hi


def _block(
    LO: np.ndarray,
    HI: np.ndarray,
    depth: int,
    pairs: "list[tuple[int, int]]",
    config: ProverConfig,
    budget: int,
) -> list:
    """The chunk at `depth` and as many of its next tree levels as fit in
    `budget` lanes.  Each level is (lo, hi, kept, parent, leaf): its boxes
    left nonempty by contraction, the mask of those among the boxes built,
    the index of each built box's parent among the previous level's lo
    (None on the chunk) and the leaf mask of lo.  A level holds the halves
    of every non-leaf box of the level above, whether or not evaluation
    will keep that box: the leaf rule, the split and contraction read the
    box alone, so the subtree is known before anything is evaluated."""
    levels = []
    parent = None
    total = LO.shape[0]
    while True:
        d = depth + len(levels)
        kept = _contract(LO, HI, pairs)
        if not kept.all():
            LO, HI = LO[kept], HI[kept]
        leaf = (d >= config.max_depth) | ~np.any(HI - LO > config.min_width, axis=1)
        levels.append((LO, HI, kept, parent, leaf))
        split = np.flatnonzero(~leaf)
        if split.size == 0 or total + 2 * split.size > budget:
            return levels
        LO, HI = _bisect(LO[split], HI[split])
        parent = np.concatenate([split, split])
        total += LO.shape[0]


def _evaluate(
    system: ConstraintSystem, LO: np.ndarray, HI: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict]":
    """One vectorized pass over the boxes: (alive, concl_true, concl_false,
    env), where alive means no hypothesis is certainly false; the
    conclusion, the expensive formula, runs only on alive lanes and is
    False elsewhere."""
    lanes = LO.shape[0]
    env = _prepared(system, _env_from(system, LO, HI))
    alive = np.ones(lanes, dtype=bool)
    for rel in system.hypotheses:
        _, cf = rel.certs(env)
        alive &= ~cf
    concl_ct = np.zeros(lanes, dtype=bool)
    concl_cf = np.zeros(lanes, dtype=bool)
    aidx = np.flatnonzero(alive)
    if aidx.size:
        if aidx.size < lanes:
            env = _compact_env(env, aidx)
        concl_ct[aidx], concl_cf[aidx] = system.conclusion.certs(env)
    return alive, concl_ct, concl_cf, env


def _search(system: ConstraintSystem, config: ProverConfig, budget: int) -> ProofResult:
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
        stats.peak_lanes = max(stats.peak_lanes, lanes_resident)
        lanes_resident -= LO.shape[0]

        levels = _block(LO, HI, depth, pairs, config, budget)
        if len(levels) == 1:
            LO, HI = levels[0][:2]
        else:
            LO = np.concatenate([lv[0] for lv in levels])
            HI = np.concatenate([lv[1] for lv in levels])
        lanes = LO.shape[0]
        stats.peak_lanes = max(stats.peak_lanes, lanes_resident + lanes)
        if lanes:
            stats.evaluations += 1
            stats.lanes_evaluated += lanes
            # env stays bound until the next pass has built its own.  Freed
            # at once, it would sit on top of the heap, go back to the OS
            # and fault in again on every pass, which gave LEMMA_SC4 2.4x
            # the minor page faults and a fifth more CPU time.
            alive, concl_ct, concl_cf, env = _evaluate(system, LO, HI)
        else:  # contraction emptied the whole chunk
            alive = concl_ct = concl_cf = np.zeros(0, dtype=bool)

        # Walk the block top-down: a box is explored only if its parent was
        # explored, survived and is not a leaf.
        offset = 0
        for k, (lo, hi, kept, parent, leaf) in enumerate(levels):
            # explored among the boxes built, then among those left nonempty
            reached = np.ones(kept.size, dtype=bool) if parent is None else split[parent]
            explored = reached[kept]
            n_explored = int(np.count_nonzero(reached))
            if n_explored:
                stats.boxes_explored += n_explored
                stats.max_depth_reached = max(stats.max_depth_reached, depth + k)
            stats.boxes_emptied += n_explored - int(np.count_nonzero(explored))
            lanes_k = slice(offset, offset + lo.shape[0])
            offset += lo.shape[0]
            survived = explored & alive[lanes_k] & ~concl_ct[lanes_k]
            stats.boxes_pruned += n_explored - int(np.count_nonzero(survived))

            cand = np.flatnonzero(survived & (leaf | concl_cf[lanes_k]))
            for mid in _centre(lo[cand], hi[cand]).tolist():
                point = dict(zip(names, mid))
                if confirm_counterexample(system, point):
                    return ProofResult(system.name, ProofStatus.DISPROVED, stats, point)

            lidx = np.flatnonzero(survived & leaf)
            if lidx.size:
                stats.undecided_count += lidx.size
                for i in lidx[: max(0, 8 - len(undecided))]:
                    undecided.append(_box_dict(system, lo[i], hi[i]))
                if stats.undecided_count > UNDECIDED_CAP:
                    return ProofResult(
                        system.name, ProofStatus.UNDECIDED, stats, None, tuple(undecided)
                    )
            split = survived & ~leaf

        if split.any():
            children_lo, children_hi = _bisect(lo[split], hi[split])
            for start in range(0, children_lo.shape[0], CHUNK_LANES):
                end = min(start + CHUNK_LANES, children_lo.shape[0])
                stack.append((depth + len(levels), children_lo[start:end], children_hi[start:end]))
                lanes_resident += end - start
            stats.peak_lanes = max(stats.peak_lanes, lanes_resident)
        # drop this block's boxes before the next is built; the stack holds
        # what is left of it
        del levels, lo, hi

    status = ProofStatus.PROVED if stats.undecided_count == 0 else ProofStatus.UNDECIDED
    return ProofResult(system.name, status, stats, None, tuple(undecided))


def prove(system: ConstraintSystem, config: Optional[ProverConfig] = None) -> ProofResult:
    """Run the branch-and-prune search at `config`, else at ProverConfig()."""
    t0 = time.perf_counter()
    result = _search(system, config or ProverConfig(), CHUNK_LANES // 4)
    result.stats.wall_time_s = time.perf_counter() - t0
    return result
