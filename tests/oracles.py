"""Independent reference computations used to freeze expected values.

Everything here is built from first principles -- geometric fit predicates
driven by bisection, high-precision mpmath evaluation of independently
re-derived expressions, an exhaustive all-pairs check in place of the
validator's sweep, or text read and written one number at a time -- without
importing the code under test, so agreement between the two is evidence
rather than tautology.

Coordinate conventions (shared with the library): unit disk centered at the
origin; the topmost square of side ``s1`` spans ``[-s1/2, s1/2]`` in x with
its two top corners on the circle, so its bottom edge sits on the line
``y = sqrt(1 - s1^2/4) - s1``.
"""

from __future__ import annotations

import ctypes
import math

import mpmath as mp
import numpy as np

from diskpack.errors import ParseError


def bottom_line(s1: float) -> float:
    """Bottom ordinate of the topmost square (top corners on the circle)."""
    return math.sqrt(1.0 - s1 * s1 / 4.0) - s1


def pocket_square_fits(s1: float, t: float) -> bool:
    """Fit predicate for a square of side t in the pocket right of the
    topmost square: left edge on x = s1/2, bottom ordinate no lower than the
    topmost square's bottom line, all four corners inside the unit circle.

    The best vertical position is the one minimizing the larger |y| of the
    two right corners: centered on the diameter when the floor allows,
    resting on the floor otherwise."""
    floor = bottom_line(s1)
    y0 = max(floor, -t / 2.0)
    x = s1 / 2.0 + t
    y = max(abs(y0), abs(y0 + t))
    return x * x + y * y <= 1.0


def sigma_bisect(s1: float, steps: int = 60) -> float:
    """Side of the largest pocket square, by bisection on the fit predicate
    alone (no closed form).  60 steps resolve 2^-60 < 1e-18."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        if pocket_square_fits(s1, mid):
            lo = mid
        else:
            hi = mid
    return lo


def mp_sigma(s1: "str | float", dps: int = 60) -> mp.mpf:
    """High-precision pocket-square side via the same fit predicate."""
    with mp.workdps(dps):
        v = mp.mpf(s1)
        floor = mp.sqrt(1 - v * v / 4) - v

        def fits(t: mp.mpf) -> bool:
            y0 = max(floor, -t / 2)
            x = v / 2 + t
            y = max(abs(y0), abs(y0 + t))
            return x * x + y * y <= 1

        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(220):  # 2^-220 ~ 1e-67
            mid = (lo + hi) / 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo


def s1_star_bisect(dps: int = 60) -> mp.mpf:
    """Crossover s1 where the pocket square stops resting on the bottom line
    and becomes centered on the diameter: the floor equals -sigma/2 there."""
    with mp.workdps(dps):

        def gap(s1: mp.mpf) -> mp.mpf:
            floor = mp.sqrt(1 - s1 * s1 / 4) - s1
            return floor + mp_sigma(s1, dps) / 2

        lo, hi = mp.mpf("0.9"), mp.mpf("1.2")
        # gap is decreasing in s1 (floor falls faster than sigma/2 grows)
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_T(u: "str | float", dps: int = 60) -> mp.mpf:
    """Side of the square with bottom edge on y = u and top corners on the
    circle: solve (s/2)^2 + (u + s)^2 = 1 for the positive root."""
    with mp.workdps(dps):
        uu = mp.mpf(u)
        # (5/4) s^2 + 2 u s + (u^2 - 1) = 0
        disc = 4 * uu * uu - 5 * (uu * uu - 1)
        s = (-2 * uu + mp.sqrt(disc)) / mp.mpf("2.5")
        return max(s, mp.mpf(0))


def mp_T_inv(s: "str | float", dps: int = 60) -> mp.mpf:
    """Bottom ordinate of the topmost square of side s (top corners on the
    circle)."""
    with mp.workdps(dps):
        v = mp.mpf(s)
        return mp.sqrt(1 - v * v / 4) - v


def mp_segment_area(c: "str | float", dps: int = 60) -> mp.mpf:
    """Area of the disk part above y = c, by direct chord-length
    integration (independent of the acos closed form)."""
    with mp.workdps(dps):
        cc = mp.mpf(c)
        return mp.quad(lambda y: 2 * mp.sqrt(1 - y * y), [cc, 1])


def mp_ell1(s1: "str | float", dps: int = 60) -> mp.mpf:
    """Pocket width at the bottom line: half-chord minus half the square."""
    with mp.workdps(dps):
        v = mp.mpf(s1)
        a = mp_T_inv(v, dps)
        return mp.sqrt(1 - a * a) - v / 2


# Reference interval kernels, written the direct way: the outward inflation
# that widens arccos, with a temporary per operation, and the square's ends
# picked by nested np.where on the lane's sign, each end rounded by its own
# IEEE directed mode.  diskpack.iarrays computes them another way and must
# give the same doubles: the inflation on every non-NaN endpoint, the square
# on every finite lane (tests/test_iarrays.py).  The constants are the
# library's, written out: the inflation margins, and the x86-64 glibc
# fesetround modes.
_OUT_REL = 4.440892098500626e-16  # 2 * 2**-52
_OUT_ABS = 2.2250738585072014e-308  # smallest normal
_FE_TONEAREST, _FE_DOWNWARD, _FE_UPWARD = 0, 0x400, 0x800
_fesetround = ctypes.CDLL(None).fesetround
_fesetround.argtypes = (ctypes.c_int,)
_fesetround.restype = ctypes.c_int


def inflate_down_reference(a: np.ndarray) -> np.ndarray:
    return a - (np.abs(a) * _OUT_REL + _OUT_ABS)


def inflate_up_reference(a: np.ndarray) -> np.ndarray:
    return a + (np.abs(a) * _OUT_REL + _OUT_ABS)


def _in_mode(mode: int, fn):
    try:
        _fesetround(mode)
        return fn()
    finally:
        _fesetround(_FE_TONEAREST)


def square_nested_where_reference(
    lo: np.ndarray, hi: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Interval square by the sign of the lane: [lo^2, hi^2] on lo >= 0,
    [hi^2, lo^2] on hi <= 0, [0, max(lo^2, hi^2)] on a straddle, where
    0.0 * lo^2 is +0.0 on finite lanes and NaN on NaN ones.  The lower end
    is computed rounding toward -inf, the upper end toward +inf."""
    pos = lo >= 0.0
    neg = hi <= 0.0

    def lower() -> np.ndarray:
        lo2, hi2 = lo * lo, hi * hi
        return np.where(pos, lo2, np.where(neg, hi2, 0.0 * lo2))

    def upper() -> np.ndarray:
        lo2, hi2 = lo * lo, hi * hi
        return np.where(pos, hi2, np.where(neg, lo2, np.maximum(lo2, hi2)))

    with np.errstate(invalid="ignore", over="ignore"):
        return _in_mode(_FE_DOWNWARD, lower), _in_mode(_FE_UPWARD, upper)


def brute_force_validation(
    placements, tol: float
) -> "tuple[list[int], list[tuple[int, int]], float]":
    """O(n^2) reference for the validator: the indices of squares with a
    corner farther than 1 + tol from the center, every pair (i, j), i < j,
    whose interiors still intersect after shrinking each square by tol per
    side, and the largest corner norm.

    Each of the four corners is measured on its own, and every pair is
    tested, one row of pairs at a time.  A pair overlaps when its common
    extent exceeds 2 tol on both axes, computed as min(right edges) -
    max(left edges): the float expression that defines the predicate
    (geometry.squares_overlap), so the two are compared bit for bit."""
    x = np.array([p.x for p in placements], dtype=float)
    y = np.array([p.y for p in placements], dtype=float)
    s = np.array([p.side for p in placements], dtype=float)
    x2, y2 = x + s, y + s
    corners = [np.hypot(cx, cy) for cx in (x, x2) for cy in (y, y2)]
    norms = np.maximum.reduce(corners)
    escaped = [i for i in range(len(x)) if not norms[i] <= 1.0 + tol]
    pairs = []
    for i in range(len(x)):
        j = np.arange(i + 1, len(x))
        wide = np.minimum(x2[i], x2[j]) - np.maximum(x[i], x[j]) > 2 * tol
        tall = np.minimum(y2[i], y2[j]) - np.maximum(y[i], y[j]) > 2 * tol
        pairs += [(i, int(k)) for k in j[wide & tall]]
    return escaped, pairs, float(norms.max(initial=0.0))



# Reference text formats: diskpack.cli's formatters and parsers as they were
# when each number was written or read by its own call, on plain columns.  The
# library handles a whole column at a time and must write the same bytes, and
# accept and refuse the same texts with the same ParseError messages, except
# that it also refuses '_' and non-ASCII characters in a number
# (tests/test_cli.py).


def _fmt_reference(v: float) -> str:
    return f"{v:.16e}"


def format_instance_reference(sides: "list[float]", comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    lines += [_fmt_reference(s) for s in sides]
    return "\n".join(lines) + "\n"


def format_document_reference(
    xs: "list[float]",
    ys: "list[float]",
    sides: "list[float]",
    case: str,
    total_area: float,
    summary: str,
) -> str:
    """The document of the columns; ``summary`` is the validation line's text
    after 'validation '."""
    lines = [
        "diskpack-packing 1",
        "container-radius 1",
        f"case {case}",
        f"total-area {_fmt_reference(total_area)}",
        f"placements {len(sides)}",
    ]
    lines += [
        f"square {_fmt_reference(x)} {_fmt_reference(y)} {_fmt_reference(s)}"
        for x, y, s in zip(xs, ys, sides)
    ]
    lines.append(f"validation {summary}")
    return "\n".join(lines) + "\n"


def format_svg_reference(xs: "list[float]", ys: "list[float]", sides: "list[float]") -> str:
    first = max(range(len(sides)), key=sides.__getitem__, default=-1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.10 2.10"'
        ' width="640" height="640">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#1f2937"'
        ' stroke-width="0.008"/>',
        '  <g transform="scale(1,-1)" stroke="#1f2937" stroke-width="0.004">',
    ]
    for i, (x, y, s) in enumerate(zip(xs, ys, sides)):
        fill = "#f59e0b" if i == first else "#93c5fd"
        lines.append(
            f'    <rect x="{_fmt_reference(x)}" y="{_fmt_reference(y)}"'
            f' width="{_fmt_reference(s)}" height="{_fmt_reference(s)}" fill="{fill}"/>'
        )
    lines += ["  </g>", "</svg>"]
    return "\n".join(lines) + "\n"


def parse_instance_reference(text: str) -> "list[float]":
    """One decimal side per line; '#' comments and blank lines are skipped."""
    sides: "list[float]" = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            sides.append(float(line))
        except ValueError:
            raise ParseError(f"line {ln}: {line!r} is not a decimal number") from None
    return sides


def _doc_float_reference(token: str, what: str, ln: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"line {ln}: {what} {token!r} is not a number") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ParseError(f"line {ln}: {what} must be finite, got {token}")
    return v


def parse_document_reference(
    text: str,
) -> "tuple[list[float], list[float], list[float], str, float]":
    """(xs, ys, sides, case, total_area) of a packing document, row by row."""
    rows = [
        (ln, line.strip())
        for ln, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise ParseError("empty document")
    pos = 0

    def take(prefix: str) -> "tuple[int, list[str]]":
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(f"unexpected end of document; expected {prefix!r}")
        ln, line = rows[pos]
        fields = line.split()
        if fields[0] != prefix:
            raise ParseError(f"line {ln}: expected {prefix!r}, got {fields[0]!r}")
        pos += 1
        return ln, fields[1:]

    ln, rest = rows[0][0], rows[0][1]
    if rest != "diskpack-packing 1":
        raise ParseError(f"line {ln}: unsupported schema {rest!r}")
    pos = 1
    ln, args = take("container-radius")
    if args != ["1"]:
        raise ParseError(f"line {ln}: only container-radius 1 is supported")
    ln, args = take("case")
    if len(args) != 1:
        raise ParseError(f"line {ln}: case wants one tag")
    case = args[0]
    ln, args = take("total-area")
    if len(args) != 1:
        raise ParseError(f"line {ln}: total-area wants one number")
    total_area = _doc_float_reference(args[0], "total-area", ln)
    ln, args = take("placements")
    try:
        count = int(args[0]) if len(args) == 1 else -1
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(f"line {ln}: placements wants a non-negative count")
    xs: "list[float]" = []
    ys: "list[float]" = []
    sides: "list[float]" = []
    for _ in range(count):
        ln, args = take("square")
        if len(args) != 3:
            raise ParseError(f"line {ln}: square wants x, y and side")
        xs.append(_doc_float_reference(args[0], "x", ln))
        ys.append(_doc_float_reference(args[1], "y", ln))
        side = _doc_float_reference(args[2], "side", ln)
        if side <= 0:
            raise ParseError(f"line {ln}: side must be positive, got {side}")
        sides.append(side)
    if pos < len(rows):
        ln, args = take("validation")
    if pos < len(rows):
        raise ParseError(f"line {rows[pos][0]}: trailing content")
    return xs, ys, sides, case, total_area


if __name__ == "__main__":
    # regenerate the frozen literals used in the tests
    mp.mp.dps = 40
    star = s1_star_bisect()
    print(f"s1_star           = {mp.nstr(star, 22)}")
    for tag in ("0.295", "0.5", "1.0", "1.2"):
        print(f"sigma({tag:5s})      = {mp.nstr(mp_sigma(tag), 22)}")
    print(f"sigma(sqrt(8/5))  = {mp.nstr(mp_sigma(mp.sqrt(mp.mpf(8) / 5)), 22)}")
    print(f"T(0)              = {mp.nstr(mp_T('0'), 22)}")
    print(f"T(0.25)           = {mp.nstr(mp_T('0.25'), 22)}")
    print(f"T_inv(0.295)      = {mp.nstr(mp_T_inv('0.295'), 22)}")
    print(f"T_inv(1.0)        = {mp.nstr(mp_T_inv('1.0'), 22)}")
    print(f"ell1(0.295)       = {mp.nstr(mp_ell1('0.295'), 22)}")
    print(f"ell1(1.0)         = {mp.nstr(mp_ell1('1.0'), 22)}")
    print(f"segment_area(0)   = {mp.nstr(mp_segment_area('0'), 22)}")
    print(f"segment_area(0.3) = {mp.nstr(mp_segment_area('0.3'), 22)}")
    print(f"segment_area(-0.5)= {mp.nstr(mp_segment_area('-0.5'), 22)}")
