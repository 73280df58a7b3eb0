"""Command-line interface: exit codes, document fidelity, SVG, reports."""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest

import oracles
from diskpack import cli
from diskpack.cli import (
    EXIT_INPUT,
    EXIT_INVALID_PACKING,
    EXIT_NOT_PROVED,
    EXIT_OK,
    EXIT_PACK_FAILED,
    _fmt,
    format_document,
    format_instance,
    format_svg,
    main,
    parse_document,
    parse_instance,
)
from diskpack.errors import InputError, ParseError
from diskpack.geometry import PlacedSquare
from diskpack.packer import Instance, Packing, PackResult, ValidationReport, validate
from diskpack.prover import ProofStats, ProverConfig, lemma_catalog, lemma_names, prove


def _doc(placements, case="C3"):
    total = sum(p.side**2 for p in placements)
    packing = Packing.from_placements(placements, case, total)
    return format_document(packing, validate(placements, 1e-9))


class TestNumberFidelity:
    def test_fmt_round_trips_bit_exactly(self):
        rng = random.Random(5)
        values = [rng.uniform(-2, 2) for _ in range(200)]
        values += [1e-300, -1e-300, 1.5e300, 0.0, 2 / math.sqrt(5)]
        for v in values:
            assert float(_fmt(v)) == v

    def test_document_round_trip_is_bit_exact(self):
        placements = [
            PlacedSquare(-0.4472135954999579, -0.8944271909999159, 0.8944271909999159),
            PlacedSquare(-0.123, 0.456, 0.2),
        ]
        text = _doc(placements)
        back = parse_document(text)
        assert back.case == "C3"
        for orig, parsed in zip(placements, back.placements):
            assert parsed.x == orig.x
            assert parsed.y == orig.y
            assert parsed.side == orig.side


class TestInstanceFiles:
    def test_comments_and_blanks_skipped(self):
        inst = parse_instance("# hello\n\n0.5\n  # indented comment\n0.25\n\n")
        assert inst.sides == (0.5, 0.25)

    def test_reject_non_decimal(self):
        with pytest.raises(ParseError):
            parse_instance("0.5\nbogus\n")

    def test_format_embeds_comment_and_digits(self):
        text = format_instance(Instance((0.5,)), comment="demo")
        assert text.startswith("# demo\n")
        assert parse_instance(text).sides == (0.5,)


class TestDocumentParsing:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ParseError):
            parse_document("diskpack-packing 2\ncontainer-radius 1\n")

    def test_rejects_unsupported_radius(self):
        text = _doc([PlacedSquare(-0.1, -0.1, 0.2)]).replace(
            "container-radius 1", "container-radius 2"
        )
        with pytest.raises(ParseError):
            parse_document(text)

    def test_rejects_nonfinite_and_nonpositive(self):
        base = _doc([PlacedSquare(-0.1, -0.1, 0.2)])
        sq = next(l for l in base.splitlines() if l.startswith("square"))
        for bad in (
            sq.rsplit(" ", 1)[0] + " nan",
            sq.rsplit(" ", 1)[0] + " inf",
            sq.rsplit(" ", 1)[0] + " -1.0",
        ):
            with pytest.raises(ParseError):
                parse_document(base.replace(sq, bad))

    def test_rejects_count_mismatch_and_trailing(self):
        base = _doc([PlacedSquare(-0.1, -0.1, 0.2)])
        with pytest.raises(ParseError):
            parse_document(base.replace("placements 1", "placements 2"))
        with pytest.raises(ParseError):
            parse_document(base + "extra line\n")
        with pytest.raises(ParseError):
            parse_document(base.replace("placements 1", "placements -3"))

    def test_rejects_truncation(self):
        base = _doc([PlacedSquare(-0.1, -0.1, 0.2)])
        truncated = "\n".join(base.splitlines()[:3]) + "\n"
        with pytest.raises(ParseError):
            parse_document(truncated)

    def test_rows_of_four_tokens_must_each_be_a_square(self):
        # 8 tokens on 2 lines, every fourth one 'square', yet no row is x, y, side
        head = "diskpack-packing 1\ncontainer-radius 1\ncase C3\ntotal-area 0.05\nplacements 2\n"
        for rows in ("square 0.1 0.1 0.2 square 0.3 0.3\n0.1\n", "square 0.1 0.1\nsquare square 0.2 0.3\n"):
            with pytest.raises(ParseError, match="^line 6: square wants x, y and side$"):
                parse_document(head + rows)

    def test_validation_summary_not_trusted(self):
        # lying 'validation ok' line on broken geometry: verify re-derives
        placements = [PlacedSquare(0.5, 0.5, 0.9)]
        text = _doc(placements)
        assert "validation violations" in text
        forged = text.replace("validation violations", "validation ok")
        packing = parse_document(forged)  # parses fine, summary ignored
        assert not validate(packing.placements, 1e-9).ok


class TestPlainNumbers:
    """Python's float() and int() also read '_' separators and non-ASCII
    digits; a number in an instance file or a document is ASCII decimal."""

    @pytest.mark.parametrize(
        "text, ln",
        [
            ("1_0e-1\n", 1),
            ("0.5\n# \u00e9t\u00e9 comments may hold anything_\n\u0661.\u0665\n", 3),
            ("0.5\n\n0.2\uff15\n", 3),
        ],
    )
    def test_instance_file_refuses_other_spellings(self, tmp_path, capsys, text, ln):
        with pytest.raises(ParseError, match=f"^line {ln}: .* is not a decimal number$"):
            parse_instance(text)
        inst = tmp_path / "inst.txt"
        inst.write_text(text, encoding="utf-8")
        assert main(["pack", str(inst), "--out", str(tmp_path / "o.txt")]) == EXIT_INPUT
        assert f"error: line {ln}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("placements 2", "placements 0_2", "line 5: placements wants a non-negative count"),
            ("placements 2", "placements \u0662", "line 5: placements wants a non-negative count"),
            ("total-area ", "total-area 0_", "line 4: total-area '0_"),
            ("square ", "square 0_", "line 6: x '0_"),
            (" 2.0000000000000001e-01\nsquare", " 2.0000000000000001e-0\u0661\nsquare", "line 6: side '"),
        ],
    )
    def test_document_refuses_other_spellings(self, tmp_path, capsys, old, new, message):
        text = _doc([PlacedSquare(-0.1, -0.1, 0.2), PlacedSquare(0.3, 0.3, 0.1)])
        assert old in text
        bad = text.replace(old, new, 1)
        with pytest.raises(ParseError, match="^" + message):
            parse_document(bad)
        doc = tmp_path / "doc.txt"
        doc.write_text(bad, encoding="utf-8")
        assert main(["verify", str(doc)]) == EXIT_INPUT
        assert f"error: {message}" in capsys.readouterr().err


_ODD_TOKENS = (
    "nan", "-inf", "inf", "1e309", "-1e309", "-0", "0", "-0.0", "-0.5", "+0.25",
    ".5", "1.", "1e-400", "5e-324", "NaN", "Infinity", "0x1p0", "1_0", "\u0661.\u0665",
    "square", "", "2", "-1", "02", "0.1.2",
)


def _bits(values) -> "tuple[int, ...]":
    return tuple(np.asarray(values, dtype=np.float64).view(np.int64).tolist())


def _mutate_lines(rng: random.Random, lines: "list[str]") -> "list[str]":
    """One random edit of the kinds a damaged or hand-made file shows."""
    kind = rng.randrange(12)
    rows = [i for i, line in enumerate(lines) if line.startswith("square")]
    at = rng.choice(rows) if rows and rng.random() < 0.75 else rng.randrange(len(lines) or 1)
    if kind == 0 and lines:  # drop, duplicate or split a token
        toks = lines[at].split(" ")
        j = rng.randrange(len(toks))
        edit = rng.randrange(3)
        if edit == 0:
            del toks[j]
        elif edit == 1:
            toks.insert(j, toks[j])
        elif len(toks[j]) > 1:
            cut = rng.randrange(1, len(toks[j]))
            toks[j : j + 1] = [toks[j][:cut], toks[j][cut:]]
        lines[at] = " ".join(toks)
    elif kind == 1 and at + 1 < len(lines):  # move a row boundary
        toks = lines[at].split(" ") + lines[at + 1].split(" ")
        cut = rng.randrange(len(toks) + 1)
        head, tail = toks[:cut], toks[cut:]
        if rng.random() < 0.5 and head and tail:  # keep the token count
            tail.insert(0, "square")
            del head[rng.randrange(len(head))]
        lines[at : at + 2] = [" ".join(t) for t in (head, tail) if t]
    elif kind == 2:  # a comment or blank line
        lines.insert(at, rng.choice(("# note", "", "   ", "\t# x \u00e9", "#")))
    elif kind == 3 and lines:  # an odd value in place of a number
        toks = lines[at].split(" ")
        j = rng.randrange(len(toks))
        if toks[j][:1] in "0123456789+-.":
            toks[j] = rng.choice(_ODD_TOKENS)
        lines[at] = " ".join(toks)
    elif kind == 4:  # truncated
        del lines[at:]
    elif kind == 5:  # trailing content
        lines.append(rng.choice(("extra line", "validation ok", "square 0 0 1", "# end")))
    elif kind == 6 and lines:  # other separators
        sep = rng.choice(("\t", "  ", " \t ", "\u00a0", "\u2003"))
        lines[at] = lines[at].replace(" ", sep, rng.randrange(1, 4))
    elif kind == 7 and lines:  # a wrong keyword
        toks = lines[at].split(" ")
        toks[0] = rng.choice(("squares", "Square", "square", "validation", "case", "#square"))
        lines[at] = " ".join(toks)
    elif kind == 8 and lines:  # a wrong or odd count
        lines = [
            "placements " + rng.choice(("-1", "x", "0_2", "2 3", "+2", "02", "", "\u0662"))
            if ln.startswith("placements") else ln
            for ln in lines
        ]
    elif kind == 9 and lines:  # leading and trailing space
        lines[at] = rng.choice((" ", "\t", "  ")) + lines[at] + rng.choice(("", " ", "\t"))
    elif kind == 10 and lines:  # a count one off
        lines = [
            f"placements {int(ln.split()[1]) + rng.choice((-1, 1))}"
            if ln.startswith("placements ") and ln.split()[1:] and ln.split()[1].isdigit()
            else ln
            for ln in lines
        ]
    elif kind == 11 and lines:  # a whole row duplicated or dropped
        if rng.random() < 0.5:
            lines.insert(at, lines[at])
        else:
            del lines[at]
    return lines


def _document_outcome(parse, text: str):
    try:
        xs, ys, sides, case, total = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    return (_bits(xs), _bits(ys), _bits(sides), case, _bits([total]))


def _library_document(text: str):
    p = parse_document(text)
    return p.x, p.y, p.side, p.case, p.total_area


def _instance_outcome(parse, text: str):
    try:
        sides = parse(text)
        inst = sides if isinstance(sides, Instance) else Instance(tuple(sides))
    except ParseError as exc:
        return ("error", str(exc))
    except InputError as exc:
        return ("input", str(exc))
    return _bits(inst.sides)


class TestParsersAgainstReference:
    """Seeded mutation fuzz: the column-at-a-time parsers against the
    row-by-row reference (tests/oracles.py).  Outcomes are bit-identical
    columns, case and total area, or the same ParseError message; the one
    allowed difference is the refusal of '_' and non-ASCII numbers."""

    @staticmethod
    def _agree(new, ref, text):
        tokens = [
            tok
            for line in text.splitlines()
            if not line.strip().startswith("#")
            for tok in line.split()
        ]
        if all(tok.isascii() and "_" not in tok for tok in tokens):
            assert new == ref, text
        else:
            assert new == ref or new[0] == "error", text

    def test_documents(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(3000):
            n = rng.choice((0, 1, 2, 3, 5, 8, 40))
            xs = [rng.uniform(-1, 1) for _ in range(n)]
            ys = [rng.choice((rng.uniform(-1, 1), -0.0, 5e-324)) for _ in range(n)]
            sides = [rng.choice((rng.uniform(1e-3, 1), 5e-324, 1.5)) for _ in range(n)]
            text = oracles.format_document_reference(
                xs, ys, sides, "C3", sum(s * s for s in sides), "ok checked=0"
            )
            lines = text.split("\n")[:-1]
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                lines = _mutate_lines(rng, lines)
            newline = "\r\n" if rng.random() < 0.1 else "\n"
            text = newline.join(lines) + rng.choice((newline, ""))
            new = _document_outcome(_library_document, text)
            ref = _document_outcome(oracles.parse_document_reference, text)
            self._agree(new, ref, text)
            seen.add(new[0] if isinstance(new[0], str) else "ok")
        assert seen == {"ok", "error"}

    def test_instances(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(2000):
            n = rng.choice((0, 1, 2, 5, 30))
            sides = [rng.choice((rng.uniform(1e-3, 1), 5e-324, 1.7976931348623157e308)) for _ in range(n)]
            text = oracles.format_instance_reference(sides, rng.choice(("", "demo")))
            lines = text.split("\n")[:-1]
            for _ in range(rng.choice((0, 1, 2, 3))):
                lines = _mutate_lines(rng, lines)
            newline = "\r\n" if rng.random() < 0.1 else "\n"
            text = newline.join(lines) + newline
            new = _instance_outcome(parse_instance, text)
            ref = _instance_outcome(oracles.parse_instance_reference, text)
            self._agree(new, ref, text)
            seen.add(new[0] if new and isinstance(new[0], str) else "ok")
        assert seen == {"ok", "error", "input"}


class TestFormattersAgainstReference:
    """Every formatter writes the bytes of the per-row f-string reference
    (tests/oracles.py)."""

    EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)

    def _columns(self, n):
        rng = np.random.default_rng(n)
        cols = rng.uniform(-1.0, 1.0, (3, n)) * 10.0 ** rng.integers(-300, 300, (3, n))
        cols[2] = np.abs(cols[2])
        for j, v in enumerate(self.EXTREMES[: n]):
            cols[:, j] = v
        return cols

    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_instance(self, n):
        sides = [abs(v) for v in self._columns(n)[2].tolist() if v != 0] or [5e-324] * n
        for comment in ("", "seed=3 n=4"):
            got = format_instance(Instance(tuple(sides)), comment)
            assert got == oracles.format_instance_reference(sides, comment)

    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_document_and_svg(self, n):
        x, y, side = self._columns(n)
        packing = Packing(x, y, side, "C2", 1.5 if n else 0.0)
        for report in (
            ValidationReport(True, n, (), (), 0.9999999999999999),
            ValidationReport(False, n, (0,), ((0, 1),), 1.7976931348623157e308),
        ):
            verdict = "ok" if report.ok else "violations"
            summary = (
                f"{verdict} checked={n} containment={len(report.containment_violations)}"
                f" overlaps={len(report.overlap_violations)}"
                f" max-corner-norm={report.max_corner_norm:.16e}"
            )
            assert format_document(packing, report) == oracles.format_document_reference(
                x.tolist(), y.tolist(), side.tolist(), "C2", packing.total_area, summary
            )
        assert format_svg(packing) == oracles.format_svg_reference(
            x.tolist(), y.tolist(), side.tolist()
        )

    def test_svg_shades_the_first_of_equal_largest_sides(self):
        x, y = np.zeros(4), np.zeros(4)
        side = np.array([0.25, 0.5, 0.5, 0.125])
        got = format_svg(Packing(x, y, side, "C1", 0.5))
        assert got == oracles.format_svg_reference(x.tolist(), y.tolist(), side.tolist())
        assert got.splitlines()[5].endswith('fill="#f59e0b"/>')


class TestPackVerifyFlow:
    def test_worst_case_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        doc = tmp_path / "pack.txt"
        assert main(["gen", "--kind", "worst", "--out", str(inst)]) == EXIT_OK
        assert main(["pack", str(inst), "--out", str(doc)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "case C3" in out or "case" in out
        assert main(["verify", str(doc)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["1e-3", "1e-2", "1e-1"])
    def test_inflated_worst_case_exits_two(self, tmp_path, capsys, eps):
        inst = tmp_path / "inst.txt"
        doc = tmp_path / "pack.txt"
        assert main(["gen", "--kind", "worst", "--epsilon", eps, "--out", str(inst)]) == EXIT_OK
        assert main(["pack", str(inst), "--out", str(doc)]) == EXIT_PACK_FAILED
        err = capsys.readouterr().err
        assert "guarantee threshold" in err
        assert not doc.exists()

    def test_pack_rejects_bad_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\nnot-a-number\n")
        assert main(["pack", str(bad), "--out", str(tmp_path / "o.txt")]) == EXIT_INPUT
        bad.write_text("-0.5\n")
        assert main(["pack", str(bad), "--out", str(tmp_path / "o.txt")]) == EXIT_INPUT

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["pack", str(tmp_path / "nope.txt"), "--out", "x"]) == EXIT_INPUT
        assert main(["verify", str(tmp_path / "nope.txt")]) == EXIT_INPUT

    def test_verify_flags_overlap(self, tmp_path, capsys):
        p = PlacedSquare(-0.25, -0.25, 0.5)
        doc = tmp_path / "doc.txt"
        doc.write_text(_doc([p, p]))
        assert main(["verify", str(doc)]) == EXIT_INVALID_PACKING
        assert "overlap violation" in capsys.readouterr().err

    def test_verify_flags_containment(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(_doc([PlacedSquare(0.5, 0.5, 2.5)]))
        assert main(["verify", str(doc)]) == EXIT_INVALID_PACKING
        assert "containment violation" in capsys.readouterr().err

    def test_verify_garbage_is_input_error(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("not a packing document\n")
        assert main(["verify", str(doc)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_verify_tol_is_honored(self, tmp_path):
        # single centered square whose corners poke 2.8e-10 outside the disk
        s = math.sqrt(2.0) + 4e-10
        doc = tmp_path / "doc.txt"
        doc.write_text(_doc([PlacedSquare(-s / 2, -s / 2, s)]))
        assert main(["verify", str(doc)]) == EXIT_OK  # default tol 1e-9
        assert main(["verify", str(doc), "--tol", "1e-12"]) == EXIT_INVALID_PACKING

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "1e-5", "1"])
    def test_verify_refuses_meaningless_tol(self, tmp_path, capsys, tol):
        doc = tmp_path / "doc.txt"
        doc.write_text(_doc([PlacedSquare(-0.25, -0.25, 0.5)]))
        assert main(["verify", str(doc), f"--tol={tol}"]) == EXIT_INPUT
        assert "tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "1e-5", "1", "1e-9"])
    def test_pack_writes_nothing_under_meaningless_tol(self, tmp_path, tol):
        # pack admits squares at the fixed DEFAULT_TOL and takes no --tol, not
        # even the default's value: any is a usage error, raised before placing
        inst = tmp_path / "inst.txt"
        inst.write_text("0.5\n0.5\n")
        out = tmp_path / "out.txt"
        assert main(["pack", str(inst), "--out", str(out), f"--tol={tol}"]) == EXIT_INPUT
        assert not out.exists()

    def test_pack_never_exits_ok_on_a_packing_it_rejects(self, tmp_path, monkeypatch, capsys):
        p = PlacedSquare(-0.25, -0.25, 0.5)
        overlapping = PackResult(True, Packing.from_placements((p, p), "C3", 0.5), None, None)
        monkeypatch.setattr(cli, "pack", lambda inst: overlapping)
        inst = tmp_path / "inst.txt"
        inst.write_text("0.5\n0.5\n")
        out = tmp_path / "out.txt"
        assert main(["pack", str(inst), "--out", str(out)]) == EXIT_INVALID_PACKING
        assert "failed its own validation" in capsys.readouterr().err
        assert "validation violations" in out.read_text()


class TestSvg:
    def test_rects_reuse_document_digit_strings(self, tmp_path):
        inst = tmp_path / "inst.txt"
        doc = tmp_path / "pack.txt"
        svg = tmp_path / "pack.svg"
        inst.write_text("0.9\n0.5\n0.7\n")
        assert main(["pack", str(inst), "--out", str(doc), "--svg", str(svg)]) == EXIT_OK
        doc_lines = [l.split() for l in doc.read_text().splitlines() if l.startswith("square")]
        svg_text = svg.read_text()
        assert 'transform="scale(1,-1)"' in svg_text
        assert "<circle" in svg_text
        for _, x, y, side in doc_lines:
            assert f'x="{x}"' in svg_text
            assert f'y="{y}"' in svg_text
            assert f'width="{side}"' in svg_text

    def test_largest_square_shaded_distinctly(self):
        placements = [PlacedSquare(-0.1, -0.4, 0.3), PlacedSquare(-0.3, 0.0, 0.6)]
        svg = format_svg(Packing.from_placements(placements, "C3", 0.45))
        rects = [l for l in svg.splitlines() if "<rect" in l]
        assert "#f59e0b" in rects[1]  # index 1 holds the larger side
        assert "#93c5fd" in rects[0]
        assert svg.count("#f59e0b") == 1


class TestProve:
    def test_single_lemma_with_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["prove", "--lemma", "LEMMA_TP1", "--report", str(report)])
        assert code == EXIT_OK
        assert "LEMMA_TP1: proved" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["all_proved"] is True
        assert data["lemmas"][0]["name"] == "LEMMA_TP1"
        assert data["lemmas"][0]["status"] == "proved"
        assert data["lemmas"][0]["undecided_count"] == 0
        # contraction never empties a box of this one-variable system
        assert data["lemmas"][0]["boxes_emptied"] == 0
        # every box is evaluated, and the lookahead can only add lanes
        row = data["lemmas"][0]
        assert row["evaluations"] >= 1
        assert row["lanes_evaluated"] >= row["boxes_explored"] - row["boxes_emptied"]

    def test_all_lemmas_prove(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["prove", "--lemma", "all", "--report", str(report)]) == EXIT_OK
        data = json.loads(report.read_text())
        assert data["all_proved"] is True
        assert [entry["name"] for entry in data["lemmas"]] == lemma_names()
        for entry in data["lemmas"]:
            assert entry["status"] == "proved", entry["name"]
            assert entry["undecided_count"] == 0, entry["name"]

    def test_report_rows_carry_every_stats_field(self):
        for name in ("LEMMA_TP1", "LEMMA_TP2"):
            result = prove(next(s for s in lemma_catalog() if s.name == name))
            row = cli._result_row(result)
            for field in dataclasses.fields(ProofStats):
                assert row[field.name] == getattr(result.stats, field.name), field.name

    def test_unknown_lemma_lists_catalog(self, capsys):
        assert main(["prove", "--lemma", "LEMMA_NOPE"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "unknown lemma" in err and "LEMMA_SC7_SIGMA" in err

    def test_depth_override_can_exhaust_search(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["prove", "--lemma", "LEMMA_TP1", "--depth", "2", "--report", str(report)]
        )
        assert code == EXIT_NOT_PROVED
        data = json.loads(report.read_text())
        assert data["all_proved"] is False
        assert data["lemmas"][0]["status"] == "undecided"
        assert data["lemmas"][0]["max_depth_reached"] <= 2

    def test_limits_reach_the_search(self, monkeypatch):
        seen = []

        def record(system, config):
            seen.append(config)
            return prove(system, config)

        monkeypatch.setattr(cli, "prove", record)
        assert main(["prove", "--lemma", "LEMMA_TP1"]) == EXIT_OK
        assert main(
            ["prove", "--lemma", "LEMMA_TP1", "--depth", "3", "--min-width", "0.25"]
        ) == EXIT_NOT_PROVED
        # the parser is built once per process; no value carries over
        assert main(["prove", "--lemma", "LEMMA_TP1"]) == EXIT_OK
        assert seen == [ProverConfig(), ProverConfig(max_depth=3, min_width=0.25), ProverConfig()]
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--depth", "-3"),
            ("--min-width", "0"),
            ("--min-width", "-1e-4"),
            ("--min-width", "nan"),
            ("--min-width", "inf"),
        ],
    )
    def test_nonsense_limits_refused_before_search(self, monkeypatch, capsys, flag, value):
        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(cli, "prove", no_search)
        assert main(["prove", "--lemma", "LEMMA_TP1", f"{flag}={value}"]) == EXIT_INPUT
        assert flag in capsys.readouterr().err


class TestGen:
    def test_random_defaults(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen", "--kind", "random", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("# random instance, seed=0 n=100")
        inst = parse_instance(text)
        assert len(inst.sides) == 100
        assert sum(s * s for s in inst.sides) == pytest.approx(1.6, abs=1e-9)

    def test_random_respects_arguments(self, tmp_path):
        out = tmp_path / "inst.txt"
        code = main(
            ["gen", "--kind", "random", "--seed", "9", "--n", "6", "--area", "0.8",
             "--dist", "equal", "--out", str(out)]
        )
        assert code == EXIT_OK
        inst = parse_instance(out.read_text())
        assert len(inst.sides) == 6
        assert sum(s * s for s in inst.sides) == pytest.approx(0.8, abs=1e-9)

    def test_flag_cross_contamination_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.txt")
        assert main(["gen", "--kind", "worst", "--seed", "3", "--out", out]) == EXIT_INPUT
        assert "--seed" in capsys.readouterr().err
        assert main(["gen", "--kind", "random", "--epsilon", "0.1", "--out", out]) == EXIT_INPUT

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        assert main(["gen", "--kind", "worst"]) == EXIT_INPUT  # missing --out
        assert main(["prove"]) == EXIT_INPUT  # missing --lemma
        assert main(["gen", "--kind", "sideways", "--out", str(tmp_path / "y.txt")]) == EXIT_INPUT
