"""Command-line interface: exit codes, document fidelity, SVG, reports."""

from __future__ import annotations

import json
import math
import random

import pytest

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
from diskpack.errors import ParseError
from diskpack.geometry import PlacedSquare
from diskpack.packer import Instance, Packing, PackResult, validate
from diskpack.prover import ProverConfig, lemma_names, prove


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

    def test_validation_summary_not_trusted(self):
        # lying 'validation ok' line on broken geometry: verify re-derives
        placements = [PlacedSquare(0.5, 0.5, 0.9)]
        text = _doc(placements)
        assert "validation violations" in text
        forged = text.replace("validation violations", "validation ok")
        packing = parse_document(forged)  # parses fine, summary ignored
        assert not validate(packing.placements, 1e-9).ok


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
