"""Square-into-disk packing with a verified area guarantee.

Any finite set of axis-parallel squares whose total area is at most 8/5
packs into the unit disk, and 8/5 is tight: two squares of side 2/sqrt(5)
plus any positive inflation do not fit.  :func:`pack` realizes the
guarantee constructively, :func:`validate` checks containment and
disjointness of any placement list, and :mod:`diskpack.prover` re-verifies
the inequality lemmas behind the guarantee with rigorous interval
arithmetic.
"""

from .bounds import B1, B2, B3, B4, B5, B6, E, F_MSC1, F_MSC2, F_SC, F_TP
from .errors import ContractError, DiskpackError, DomainError, InputError, ParseError
from .geometry import (
    CONSTANTS,
    PlacedSquare,
    PocketGeometry,
    T,
    T_inv,
    chord_width,
    ell1,
    pocket_geometry,
    segment_area_below,
    sigma,
    square_in_disk,
    squares_overlap,
    x_max,
    y_residual,
    z_below,
)
from .iarrays import IntervalArray
from .packer import (
    DEFAULT_TOL,
    FailReason,
    Instance,
    Packing,
    Placements,
    PackResult,
    ValidationReport,
    gen_random,
    gen_worst_case,
    pack,
    pack_c1,
    pack_c2,
    pack_c3,
    validate,
)
from .prover import (
    ConstraintSystem,
    ProofResult,
    ProofStats,
    ProofStatus,
    ProverConfig,
    lemma_catalog,
    lemma_names,
    prove,
)

__version__ = "0.1.0"

__all__ = [
    "B1",
    "B2",
    "B3",
    "B4",
    "B5",
    "B6",
    "CONSTANTS",
    "ConstraintSystem",
    "ContractError",
    "DEFAULT_TOL",
    "DiskpackError",
    "DomainError",
    "E",
    "F_MSC1",
    "F_MSC2",
    "F_SC",
    "F_TP",
    "FailReason",
    "InputError",
    "Instance",
    "IntervalArray",
    "PackResult",
    "Packing",
    "Placements",
    "ParseError",
    "PlacedSquare",
    "PocketGeometry",
    "ProofResult",
    "ProofStats",
    "ProofStatus",
    "ProverConfig",
    "T",
    "T_inv",
    "ValidationReport",
    "chord_width",
    "ell1",
    "gen_random",
    "gen_worst_case",
    "lemma_catalog",
    "lemma_names",
    "pack",
    "pack_c1",
    "pack_c2",
    "pack_c3",
    "pocket_geometry",
    "prove",
    "segment_area_below",
    "sigma",
    "square_in_disk",
    "squares_overlap",
    "validate",
    "x_max",
    "y_residual",
    "z_below",
]
