"""Kind-generic numeric helpers.

The geometric formulas are written once and evaluated over two operand
kinds: Python floats (the packing path and the prover's counterexample
check) and IntervalArray lanes (the prover's enclosures; a batch of real
points is a point-lane IntervalArray).  The helpers here dispatch on the
operand kind so a formula body stays plain arithmetic plus
sqrt/acos/min/max and an occasional two-way branch.

Branches take the two outcomes as zero-argument callables.  On the float path
only the chosen side runs, so expressions that would leave their domain on
the dead side are never evaluated.  On the enclosure path a lane whose branch
condition is undecidable gets the hull of both sides, which contains every
value either side could take.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .iarrays import IntervalArray, _lohi

Numeric = object  # float | IntervalArray


def sqrt(x: Numeric) -> Numeric:
    if isinstance(x, IntervalArray):
        return x.sqrt()
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def acos(x: Numeric) -> Numeric:
    if isinstance(x, IntervalArray):
        return x.acos()
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"arccos of value outside [-1, 1]: {x!r}")
    return math.acos(x)


def square(x: Numeric) -> Numeric:
    if isinstance(x, IntervalArray):
        return x.square()
    return x * x


def smin(a: Numeric, b: Numeric) -> Numeric:
    if isinstance(a, IntervalArray):
        return a.min_with(b)
    if isinstance(b, IntervalArray):
        return b.min_with(a)
    return a if a < b else b


def smax(a: Numeric, b: Numeric) -> Numeric:
    if isinstance(a, IntervalArray):
        return a.max_with(b)
    if isinstance(b, IntervalArray):
        return b.max_with(a)
    return a if a > b else b


def lift(value: float, like: Numeric) -> Numeric:
    """A point constant of the same kind as ``like``."""
    if isinstance(like, IntervalArray):
        return IntervalArray.constant(float(value), float(value), like.shape)
    return float(value)


def enclosure(pair: "tuple[float, float]", like: Numeric) -> Numeric:
    """An irrational constant given by its enclosing pair of doubles
    (lo, hi), kind-matched to ``like``.

    On the enclosure path the full interval is kept; on the float path the
    midpoint is the conventional double approximation.
    """
    lo, hi = pair
    if isinstance(like, IntervalArray):
        return IntervalArray.constant(lo, hi, like.shape)
    return 0.5 * (lo + hi)


def _array_branch(
    ct: np.ndarray,
    cf: np.ndarray,
    if_true: Callable[[], IntervalArray],
    if_false: Callable[[], IntervalArray],
) -> IntervalArray:
    # Chunks cover nearby boxes, so a branch condition usually resolves the
    # same way across all lanes; skip the dead side entirely then.
    if ct.all():
        return if_true()
    if cf.all():
        return if_false()
    a = if_true()
    b = if_false()
    lo = np.where(ct, a.lo, np.where(cf, b.lo, np.minimum(a.lo, b.lo)))
    hi = np.where(ct, a.hi, np.where(cf, b.hi, np.maximum(a.hi, b.hi)))
    return IntervalArray(lo, hi)


def branch_le(
    lhs: Numeric,
    rhs: Numeric,
    if_true: Callable[[], Numeric],
    if_false: Callable[[], Numeric],
) -> Numeric:
    """Evaluate ``if_true`` where lhs <= rhs, ``if_false`` elsewhere."""
    if isinstance(lhs, IntervalArray):
        rlo, rhi = _lohi(rhs)
        return _array_branch(lhs.hi <= rlo, lhs.lo > rhi, if_true, if_false)
    return if_true() if lhs <= rhs else if_false()


def branch_lt(
    lhs: Numeric,
    rhs: Numeric,
    if_true: Callable[[], Numeric],
    if_false: Callable[[], Numeric],
) -> Numeric:
    """Evaluate ``if_true`` where lhs < rhs, ``if_false`` elsewhere."""
    if isinstance(lhs, IntervalArray):
        rlo, rhi = _lohi(rhs)
        return _array_branch(lhs.hi < rlo, lhs.lo >= rhi, if_true, if_false)
    return if_true() if lhs < rhs else if_false()
