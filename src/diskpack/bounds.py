"""Area accounting for filled subcontainers.

Each B function bounds from below the total area of the squares packed into
one subcontainer at the moment a square of side h_next no longer fits.  The
F functions assemble those bounds over a whole packing state into a single
scalar that exceeds 8/5 whenever the state could reject a square; proving
that inequality over every admissible state is what certifies the packer.

All formulas are kind-generic (floats, IntervalArray).  Float calls
enforce preconditions loudly; IntervalArray lanes evaluate both sides of
undecided branches and hull the results, so bounds stay sound on boxes that
straddle a case split.
"""

from __future__ import annotations

from .errors import ContractError
from .geometry import (
    S1_STAR_ENCLOSURE,
    T_inv,
    _real,
    chord_width,
    segment_area_below,
    sigma,
    y_residual,
)
from .scalars import Numeric, branch_le, branch_lt, enclosure, lift, smax, smin, sqrt, square


def B1(h: Numeric, w: Numeric, h_next: Numeric) -> Numeric:
    """Packed-area bound for a wide subcontainer (w >= 2h), as the best of
    three counting arguments: half-full rows, a full row plus h_next-sized
    leftovers, and half-full rows minus one missing h_next square."""
    return _B1(h, w, h_next, square(h), square(h_next))


def B2(h: Numeric, w: Numeric, h_next: Numeric) -> Numeric:
    """Packed-area bound valid for every width regime: a lone square when
    even one more h_next does not fit beside it, a square plus an h_next
    block on narrow widths, and B1 once w >= 2h."""
    return _B2(h, w, h_next, square(h), square(h_next))


def B3(a: Numeric, h: Numeric, w: Numeric, h_next: Numeric) -> Numeric:
    """Packed-area bound using the residual packed width y_residual: the
    first square plus either a strip of height h_next along the residual or
    the residual squared (capped at two h_next squares)."""
    return _B3(a, h, w, h_next, square(h), square(h_next))


def B4(a: Numeric, h: Numeric, w: Numeric, h_next: Numeric) -> Numeric:
    """Best of B2 and B3."""
    h2, hn2 = square(h), square(h_next)
    return smax(_B2(h, w, h_next, h2, hn2), _B3(a, h, w, h_next, h2, hn2))


# The bodies of B1-B3 take h^2 and h_next^2 as h2 and hn2, so that B4
# squares each once for both of its bounds.


def _B1(h: Numeric, w: Numeric, h_next: Numeric, h2: Numeric, hn2: Numeric) -> Numeric:
    if _real(h, w) and w < 2 * h:
        raise ContractError(f"B1: width {w!r} below twice the height {h!r}")
    t1 = (h * w) / 2 + h2 / 4
    t2 = h2 + (w - h - h_next) * h_next
    t3 = (h * (w + h)) / 2 - hn2
    return smax(smax(t1, t2), t3)


def _B2(h: Numeric, w: Numeric, h_next: Numeric, h2: Numeric, hn2: Numeric) -> Numeric:
    def lone() -> Numeric:
        return h2

    def pair() -> Numeric:
        return h2 + hn2

    def wide() -> Numeric:
        return _B1(h, w, h_next, h2, hn2)

    return branch_lt(w, h + h_next, lone, lambda: branch_lt(w, 2 * h, pair, wide))


def _B3(
    a: Numeric, h: Numeric, w: Numeric, h_next: Numeric, h2: Numeric, hn2: Numeric
) -> Numeric:
    y = smax(y_residual(a, h, w, h_next), 0.0)
    return h2 + smax(y * h_next, smin(square(y), 2 * hn2))


def B5(h: Numeric, H: Numeric, A_next: Numeric) -> Numeric:
    """Bound for the lowest subcontainer: the disk area A_next below its top
    minus the swept rectangle H*h left uncovered, plus the first square."""
    return A_next + square(h) - H * h


def B6(H_R: Numeric, W_R: Numeric, h_next: Numeric) -> Numeric:
    """Bound for a subcontainer cut off by the disk bottom: half its
    inscribed rectangle plus a quarter strip of the failed side."""
    return (H_R * W_R) / 2 + (h_next * H_R) / 4


def E(s1: Numeric, sn: Numeric) -> Numeric:
    """Extra area credited to the pocket beside the topmost square: 83% of
    the inscribed pocket square, available whenever the failed side sn would
    itself have fit the pocket."""
    sg = sigma(s1)

    def fits() -> Numeric:
        return _pocket_credit(sg)

    def too_big() -> Numeric:
        return lift(0.0, sg)

    return branch_le(sn, sg, fits, too_big)


def _pocket_credit(sg: Numeric) -> Numeric:
    """83% of the inscribed pocket square of side sg."""
    return (83 * square(sg)) / 100


def _layers(
    total: Numeric, a: Numeric, heights: "list[Numeric]", h_last: Numeric
) -> "tuple[Numeric, Numeric]":
    """Add B4 for each subcontainer of the given heights, stacked down from
    top ordinate a, each against the next height (h_last after the last);
    return the new total and the ordinate below the stack."""
    for i, h in enumerate(heights):
        h_next = heights[i + 1] if i + 1 < len(heights) else h_last
        total = total + B4(a, h, chord_width(a, h), h_next)
        a = a - h
    return total, a


def F_TP(s1: Numeric) -> "tuple[Numeric, Numeric]":
    """Squared distances from the center to the far corners of the two
    candidate squares inscribed in a pocket beside the topmost square: the
    diagonal-halving one (side sigma/sqrt(2) above the inscribed square) and
    the 0.645-scaled one stacked twice.  Both must stay within the disk
    (value <= 1) for the pocket refinement to be safe."""
    sg = sigma(s1)
    ti = T_inv(s1)
    q = sg / (2 * sqrt(lift(2.0, sg)))
    thr = enclosure(S1_STAR_ENCLOSURE, s1)

    def y1_resting() -> Numeric:
        return ti + sg + q

    def y1_centered() -> Numeric:
        return sg / 2 + q

    def y2_resting() -> Numeric:
        return ti + (129 * sg) / 100

    def y2_centered() -> Numeric:
        return -(sg / 2) + (129 * sg) / 100

    x1 = s1 / 2 + q
    x2 = s1 / 2 + (129 * sg) / 200
    y1 = branch_le(s1, thr, y1_resting, y1_centered)
    y2 = branch_le(s1, thr, y2_resting, y2_centered)
    return square(x1) + square(y1), square(x2) + square(y2)


def F_SC(
    s1: Numeric,
    heights: "list[Numeric]",
    sn: Numeric,
    include_E: bool = True,
) -> Numeric:
    """Total-area bound for a stack of k = len(heights) filled subcontainers
    hanging under the topmost square, at the moment a square of side sn
    fails everywhere: the two blocking squares, optionally the pocket credit
    E, and B4 per subcontainer with the next height as the failed side."""
    if not 1 <= len(heights) <= 7:
        raise ContractError(f"F_SC: expected 1 <= k <= 7 heights, got {len(heights)}")
    total = square(s1) + square(sn)
    if include_E:
        total = total + E(s1, sn)
    return _layers(total, T_inv(s1), heights, sn)[0]


def F_MSC1(
    s1: Numeric, h1: Numeric, h2: Numeric, h3: Numeric, h4: Numeric
) -> Numeric:
    """Total-area bound when the fifth subcontainer would start below the
    disk: three B4 layers, then B5 on the fourth against the full segment
    below it, plus the topmost square and the pocket credit."""
    ti = T_inv(s1)
    total = square(s1) + _pocket_credit(sigma(s1))
    total, a = _layers(total, ti, [h1, h2, h3], h4)
    H4 = 1 + a
    A5 = segment_area_below(smin(h1 + h2 + h3 + h4 - ti, 1.0))
    return total + B5(h4, H4, A5)


def F_MSC2(
    s1: Numeric,
    h1: Numeric,
    h2: Numeric,
    h3: Numeric,
    h_jnext: Numeric,
    delta_y: Numeric,
) -> Numeric:
    """Total-area bound when some middle subcontainer R reaches past the
    center: two B4 layers above R, B6 on R itself (cut at ordinate
    -delta_y), and B5 on the subcontainer below R against the segment under
    its top, plus the topmost square and the pocket credit."""
    total = square(s1) + _pocket_credit(sigma(s1))
    total, a = _layers(total, T_inv(s1), [h1, h2], h3)
    H_R = a + delta_y
    W_R = chord_width(a, H_R)
    A_next = segment_area_below(delta_y + h_jnext)
    return total + B6(H_R, W_R, h_jnext) + B5(h_jnext, 1 - delta_y, A_next)
