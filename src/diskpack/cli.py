"""Command-line front end for unit-disk square packing.

Four subcommands share one executable:

``pack``
    Read an instance file (one decimal side length per line), pack it into
    the unit disk, and write a versioned packing document plus an optional
    SVG rendering.  Exit 0 on success, 2 when packing fails, 3 when the
    written packing fails its own validation, 1 on bad input.  Squares
    are admitted and the written packing validated at the fixed tolerance
    1e-9; pack takes no --tol, and one given is a usage error (exit 1).
``verify``
    Re-validate a packing document independently of whoever produced it.
    Containment and overlap violations are listed on stderr and flip the
    exit code to 3; unparseable documents, and a NaN, infinite or negative
    --tol, or one above 1e-6, exit 1.
``prove``
    Run inequality systems from the lemma catalog through the interval
    branch-and-prune prover.  Exit 0 only if every requested system is
    proved; 4 when any comes back undecided or disproved; 1 for an unknown
    lemma name or a limit that means nothing (a negative --depth, a
    non-finite or non-positive --min-width).
``gen``
    Emit instance files: the two-square worst case (optionally inflated by
    --epsilon) or seeded random instances with a prescribed total area.

Exit codes are the sole success/failure channel; the human-readable reports
on stdout/stderr are informational.  Every number in documents and SVGs is
written with 17 significant digits, so parsing one back is bit-exact, and
the SVG rectangles reuse the document's exact digit strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence, TextIO

from .errors import DiskpackError, InputError, ParseError
from .geometry import CONSTANTS
from .packer import (
    DEFAULT_TOL,
    Instance,
    Packing,
    ValidationReport,
    gen_random,
    gen_worst_case,
    pack,
    validate,
)
from .prover import ProofResult, ProofStatus, ProverConfig, lemma_catalog, prove

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PACK_FAILED = 2
EXIT_INVALID_PACKING = 3
EXIT_NOT_PROVED = 4

_SCHEMA_LINE = "diskpack-packing 1"


def _fmt(v: float) -> str:
    """17 significant digits: float(_fmt(v)) == v for every finite v."""
    return f"{v:.16e}"


# ---------------------------------------------------------------------------
# instance files


def parse_instance(text: str) -> Instance:
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
    return Instance(tuple(sides))


def format_instance(inst: Instance, comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    lines += [_fmt(s) for s in inst.sides]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# packing documents


def format_document(packing: Packing, report: ValidationReport) -> str:
    """Versioned, line-oriented packing document (17-digit round trip)."""
    lines = [
        _SCHEMA_LINE,
        "container-radius 1",
        f"case {packing.case}",
        f"total-area {_fmt(packing.total_area)}",
        f"placements {len(packing.placements)}",
    ]
    lines += [
        f"square {_fmt(x)} {_fmt(y)} {_fmt(s)}"
        for x, y, s in zip(packing.x.tolist(), packing.y.tolist(), packing.side.tolist())
    ]
    lines.append(
        f"validation {'ok' if report.ok else 'violations'}"
        f" checked={report.checked}"
        f" containment={len(report.containment_violations)}"
        f" overlaps={len(report.overlap_violations)}"
        f" max-corner-norm={_fmt(report.max_corner_norm)}"
    )
    return "\n".join(lines) + "\n"


def _doc_float(token: str, what: str, ln: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"line {ln}: {what} {token!r} is not a number") from None
    if v != v or v in (float("inf"), float("-inf")):
        raise ParseError(f"line {ln}: {what} must be finite, got {token}")
    return v


def parse_document(text: str) -> Packing:
    """Parse a packing document; raises ParseError on any schema violation.

    The embedded validation summary is ignored: verification always re-runs
    the geometric checks on the parsed placements.
    """
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
    if rest != _SCHEMA_LINE:
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
    total_area = _doc_float(args[0], "total-area", ln)
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
        xs.append(_doc_float(args[0], "x", ln))
        ys.append(_doc_float(args[1], "y", ln))
        side = _doc_float(args[2], "side", ln)
        if side <= 0:
            raise ParseError(f"line {ln}: side must be positive, got {side}")
        sides.append(side)
    if pos < len(rows):
        ln, args = take("validation")  # summary is re-derived, not trusted
    if pos < len(rows):
        raise ParseError(f"line {rows[pos][0]}: trailing content")
    return Packing(xs, ys, sides, case, total_area)


# ---------------------------------------------------------------------------
# SVG rendering


def format_svg(packing: Packing) -> str:
    """Disk outline plus one rectangle per placement in document coordinates.

    The y axis is flipped by a group transform, so the rect attributes carry
    exactly the digit strings of the document (textual fidelity).  The square
    placed first by the algorithm -- the largest one -- is shaded distinctly.
    """
    sides = packing.side.tolist()
    # max keeps the first of equal largest sides, which the packer places first
    first = max(range(len(sides)), key=sides.__getitem__, default=-1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.10 2.10"'
        ' width="640" height="640">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#1f2937"'
        ' stroke-width="0.008"/>',
        '  <g transform="scale(1,-1)" stroke="#1f2937" stroke-width="0.004">',
    ]
    for i, (x, y, s) in enumerate(zip(packing.x.tolist(), packing.y.tolist(), sides)):
        fill = "#f59e0b" if i == first else "#93c5fd"
        lines.append(
            f'    <rect x="{_fmt(x)}" y="{_fmt(y)}"'
            f' width="{_fmt(s)}" height="{_fmt(s)}" fill="{fill}"/>'
        )
    lines += ["  </g>", "</svg>"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_pack(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    inst = parse_instance(_read_text(args.input))
    result = pack(inst)
    if not result.ok:
        side = inst.sides[result.failed_index]
        print(
            f"pack failed at square {result.failed_index}"
            f" (side {_fmt(side)}): {result.reason.value}",
            file=err,
        )
        print(
            f"total area {_fmt(inst.total_area)} vs guarantee threshold"
            f" {_fmt(CONSTANTS.critical_area)}",
            file=err,
        )
        return EXIT_PACK_FAILED
    packing = result.packing
    report = validate(packing.placements, DEFAULT_TOL)
    _write_text(args.out, format_document(packing, report))
    if args.svg is not None:
        _write_text(args.svg, format_svg(packing))
    if not report.ok:
        print(
            f"packing failed its own validation: {len(report.containment_violations)}"
            f" containment and {len(report.overlap_violations)} overlap violations"
            f" -> {args.out}",
            file=err,
        )
        return EXIT_INVALID_PACKING
    print(
        f"packed {len(packing.placements)} squares (case {packing.case},"
        f" total area {packing.total_area:.6g}) -> {args.out}",
        file=out,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    packing = parse_document(_read_text(args.packing))
    report = validate(packing.placements, tol=args.tol)
    for i in report.containment_violations:
        p = packing.placements[i]
        print(
            f"containment violation: square {i} reaches corner norm"
            f" {_fmt(p.far_corner_norm())} > 1",
            file=err,
        )
    for i, j in report.overlap_violations:
        print(f"overlap violation: squares {i} and {j} intersect", file=err)
    if not report.ok:
        return EXIT_INVALID_PACKING
    print(
        f"ok: {report.checked} squares contained and pairwise disjoint"
        f" (max corner norm {report.max_corner_norm:.9g})",
        file=out,
    )
    return EXIT_OK


def _result_row(result: ProofResult) -> "dict[str, object]":
    row: "dict[str, object]" = {
        "name": result.name,
        "status": result.status.value,
        "boxes_explored": result.stats.boxes_explored,
        "boxes_pruned": result.stats.boxes_pruned,
        "max_depth_reached": result.stats.max_depth_reached,
        "undecided_count": result.stats.undecided_count,
        "peak_lanes": result.stats.peak_lanes,
        "boxes_emptied": result.stats.boxes_emptied,
        "evaluations": result.stats.evaluations,
        "lanes_evaluated": result.stats.lanes_evaluated,
        "wall_time_s": result.stats.wall_time_s,
    }
    if result.counterexample is not None:
        row["counterexample"] = result.counterexample
    return row


def cmd_prove(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    systems = lemma_catalog()
    if args.lemma != "all":
        systems = [s for s in systems if s.name == args.lemma]
        if not systems:
            known = ", ".join(s.name for s in lemma_catalog())
            print(f"unknown lemma {args.lemma!r}; known: {known}, all", file=err)
            return EXIT_INPUT
    rows = []
    for system in systems:
        result = prove(system, ProverConfig(args.depth, args.min_width))
        rows.append(_result_row(result))
        line = (
            f"{result.name}: {result.status.value}"
            f" boxes={result.stats.boxes_explored}"
            f" max_depth={result.stats.max_depth_reached}"
            f" undecided={result.stats.undecided_count}"
            f" time={result.stats.wall_time_s:.3f}s"
        )
        if result.counterexample is not None:
            line += f" counterexample={result.counterexample}"
        print(line, file=out)
    if args.report is not None:
        all_proved = all(r["status"] == ProofStatus.PROVED.value for r in rows)
        _write_text(
            args.report,
            json.dumps({"lemmas": rows, "all_proved": all_proved}, indent=2) + "\n",
        )
    if all(r["status"] == ProofStatus.PROVED.value for r in rows):
        return EXIT_OK
    return EXIT_NOT_PROVED


def cmd_gen(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.kind == "worst":
        bad = [
            name
            for name, v in (
                ("--seed", args.seed),
                ("--n", args.n),
                ("--area", args.area),
                ("--dist", args.dist),
            )
            if v is not None
        ]
        if bad:
            raise InputError(f"--kind worst does not take {', '.join(bad)}")
        eps = 0.0 if args.epsilon is None else args.epsilon
        inst = gen_worst_case(eps)
        comment = f"worst-case pair, epsilon={eps!r}"
    else:
        if args.epsilon is not None:
            raise InputError("--epsilon only applies to --kind worst")
        seed = 0 if args.seed is None else args.seed
        n = 100 if args.n is None else args.n
        area = CONSTANTS.critical_area if args.area is None else args.area
        dist = "uniform" if args.dist is None else args.dist
        inst = gen_random(seed, n, area, dist)
        comment = f"random instance, seed={seed} n={n} area={area!r} dist={dist}"
    _write_text(args.out, format_instance(inst, comment))
    print(f"wrote {len(inst)} sides (total area {inst.total_area:.9g}) -> {args.out}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _UsageError(Exception):
    pass


def _limit(convert, ok, what: str):
    """An argparse type that also refuses values outside a limit's meaning."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with the
    # pack-failure code; surface usage problems as exit 1 instead
    def error(self, message: str) -> "None":  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on the first call and reused by every later main()
    in the process."""
    parser = _Parser(prog="diskpack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="pack an instance file into the unit disk")
    p.add_argument("input", help="instance file: one side length per line")
    p.add_argument("--out", required=True, help="packing document to write")
    p.add_argument("--svg", default=None, help="also render the packing as SVG")
    p.set_defaults(handler=cmd_pack)

    p = sub.add_parser("verify", help="re-validate a packing document")
    p.add_argument("packing", help="packing document to check")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="geometric tolerance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("prove", help="run lemma systems through the interval prover")
    p.add_argument("--lemma", required=True, help="lemma name, or 'all'")
    p.add_argument(
        "--depth", type=_limit(int, lambda v: v >= 0, ">= 0"),
        default=ProverConfig.max_depth, help="max split depth",
    )
    p.add_argument(
        "--min-width", type=_limit(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
        default=ProverConfig.min_width, help="width below which no variable is split",
    )
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(handler=cmd_prove)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", required=True, choices=("worst", "random"))
    p.add_argument("--epsilon", type=float, default=None, help="worst-case side inflation")
    p.add_argument("--seed", type=int, default=None, help="random: RNG seed (default 0)")
    p.add_argument("--n", type=int, default=None, help="random: square count (default 100)")
    p.add_argument("--area", type=float, default=None, help="random: total area (default 1.6)")
    p.add_argument("--dist", default=None, help="random: uniform|powerlaw|equal|adversarial_top4")
    p.add_argument("--out", required=True, help="instance file to write")
    p.set_defaults(handler=cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, sys.stdout, sys.stderr)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except DiskpackError as exc:  # parse, input, domain and contract faults
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
