"""Branch-and-prune verification of the packing inequalities."""

from ..iarrays import IntervalArray
from .engine import (
    ConstraintSystem,
    OrRelation,
    ProofResult,
    ProofStats,
    ProofStatus,
    ProverConfig,
    Relation,
    Variable,
    confirm_counterexample,
    prove,
)
from .catalog import lemma_catalog, lemma_names

__all__ = [
    "ConstraintSystem",
    "IntervalArray",
    "OrRelation",
    "ProofResult",
    "ProofStats",
    "ProofStatus",
    "ProverConfig",
    "Relation",
    "Variable",
    "confirm_counterexample",
    "lemma_catalog",
    "lemma_names",
    "prove",
]
