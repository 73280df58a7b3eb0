"""The three workloads, their correctness checks and their metrics.

Each workload is a closed loop with one caller: an operation starts only
after the previous one returned, and after a full garbage collection, so
that no operation pays for the garbage of the one before.  A *pass* runs
every input of the workload a fixed number of times (once, or more for
short inputs; see inputs.py); untraced runs repeat passes while the next
one should end within the run's time, traced runs make one untraced and
one traced pass over the same inputs.

* sweep_mix  op = library `pack(inst)` then `validate(placements, 1e-9)`
* c3_cli     op = `diskpack.cli.main` pack then verify of the written
             document; every third stratum of each n adds a verify of a
             planted copy
* prove      op = `prove(system)` at the system's default config
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple, Optional

import inputs
import spans
from diskpack import cli, packer
from diskpack.errors import ParseError
from diskpack.prover import ProofStatus, lemma_catalog, prove

TOL = 1e-9
# Exit code `verify` must return on a planted document.  The self-test sets
# a wrong value here to check that a wrong verdict counts as a failure.
PLANTED_EXIT = cli.EXIT_INVALID_PACKING


class Size(NamedTuple):
    sweep_grid: "tuple[int, ...]"
    c3_ns: "tuple[int, ...]"
    c3_strata: int
    slice: "tuple[float, float]"  # s1 range of the LEMMA_MSC_NEG slice
    prove_only: "Optional[tuple[str, ...]]"  # catalog names, None = all
    setup_reps: int


FULL = Size(inputs.SWEEP_GRID, inputs.C3_NS, 16, inputs.SLICE, None, 5)
# Seconds-long sizes for the self-test; metric names and units are the same.
TINY = Size((1, 3, 10, 30), (30,), 3, (0.900, 0.9002), ("LEMMA_TP1", "LEMMA_TP2"), 1)


class Op(NamedTuple):
    kind: str  # "instance" (clean round trip or proof) or "reject"
    key: int  # the input; an input may run more than once per pass
    seconds: float  # CPU time of the process (see `clock`)
    wall: float  # wall-clock time, kept in the result file for reference
    cell: object = None  # inputs of one grid cell; None: a cell of its own


# Operations are timed in CPU time of this process, which runs one thread:
# on a single-threaded closed loop that is wall time minus the time the
# machine ran something else.  A KVM guest's kernel counts the time a virtual
# CPU waits for its host as steal, outside any process's CPU time, so time
# lost to other VMs taking the core is left out; slowdowns from sharing
# caches and cores with them are not.
clock = time.process_time
wall_clock = time.perf_counter


class Checker:
    """Counts operations and those that failed or gave a wrong verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: "list[str]" = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@contextlib.contextmanager
def _no_span(name: str, units: int = 0):
    yield


def _quiet_main(argv: "list[str]") -> "tuple[int, str, str]":
    """cli.main with stdout and stderr captured, the same way on every call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- sweep_mix


class SweepMix:
    name = "sweep_mix"
    latency_per_sample = False  # percentiles over grid cells

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.cases = inputs.sweep_cases(seed, size.sweep_grid)
        self.schedule = inputs.schedule(f"sweep_mix/{seed}/order", [c.reps for c in self.cases])
        self.instances: "list[packer.Instance]" = []

    def setup(self, gen: Callable = packer.gen_random) -> None:
        self.instances = [gen(c.seed, c.n, c.area, c.dist) for c in self.cases]

    def inputs_digest(self) -> str:
        return _digest(repr([inst.sides for inst in self.instances]))

    def run_pass(self, check: Checker, tracer: Optional[spans.Tracer] = None):
        span = _no_span if tracer is None else tracer.span
        pack, validate = packer.pack, packer.validate
        if tracer is not None:
            pack = tracer.wrap(pack, "packer.pack", spans.count_squares)
            validate = tracer.wrap(validate, "packer.validate", spans.count_squares)
        ops, case_of = [], {}
        for i in self.schedule:
            c, inst = self.cases[i], self.instances[i]
            gc.collect()
            with span(f"op.sweep.{c.dist}.n{c.n}", c.n):
                w0, t0 = wall_clock(), clock()
                result = pack(inst)
                report = validate(result.packing.placements, TOL) if result.ok else None
                t1, w1 = clock(), wall_clock()
            ops.append(Op("instance", i, t1 - t0, w1 - w0, (c.dist, c.n)))
            ok = result.ok and report.ok and report.checked == c.n
            check.op(ok, f"sweep {c.dist} n={c.n} area={c.area}: packed={result.ok}"
                     f" clean={report is not None and report.ok}")
            if result.ok:
                case_of[i] = result.packing.case
        cases = {k: sum(1 for v in case_of.values() if v == k) for k in ("C1", "C2", "C3")}
        return ops, {"cases": cases}


# ---------------------------------------------------------------- c3_cli


class C3Cli:
    name = "c3_cli"
    latency_per_sample = True  # percentiles over all round trips of the run

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.cases = inputs.c3_cases(seed, size.c3_ns, size.c3_strata)
        self.dir = workdir
        self.digests: "list[Optional[str]]" = [None] * len(self.cases)
        self.planted: "dict[int, list[str]]" = {}

    def _path(self, kind: str, i: int) -> str:
        return os.path.join(self.dir, f"{kind}{i}.txt")

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        for i, c in enumerate(self.cases):
            with open(self._path("instance", i), "w", encoding="utf-8") as fh:
                fh.write(cli.format_instance(packer.Instance(c.sides)))

    def inputs_digest(self) -> str:
        return _digest(repr([(c.sides, c.plant, c.plant_index) for c in self.cases]))

    def _first_check(self, i: int, c: inputs.C3Case, doc: str) -> "list[str]":
        """Checks made once per instance, outside the timed calls: the
        written placements validate with the library, the case is C3, and
        the planted copy is built from the written document."""
        problems = []
        try:
            packing = cli.parse_document(doc)
        except ParseError as exc:
            return [f"written document does not parse: {exc}"]
        report = packer.validate(packing.placements, TOL)
        if not report.ok or report.checked != c.n:
            problems.append("library validate rejects the written packing")
        if packing.case != "C3":
            problems.append(f"case {packing.case}, expected C3")
        if c.plant:
            text, expected = inputs.plant(doc, c.plant, c.plant_index)
            with open(self._path("planted", i), "w", encoding="utf-8") as fh:
                fh.write(text)
            self.planted[i] = expected
        return problems

    def run_pass(self, check: Checker, tracer: Optional[spans.Tracer] = None):
        span = _no_span if tracer is None else tracer.span
        ops, docs, cases = [], [], {}
        for i, c in enumerate(self.cases):
            src, doc_path = self._path("instance", i), self._path("packing", i)
            gc.collect()
            with span(f"op.c3.n{c.n}", c.n):
                w0, t0 = wall_clock(), clock()
                with span("cli.main.pack", c.n):
                    rc_pack, out_pack, err_pack = _quiet_main(["pack", src, "--out", doc_path])
                with span("cli.main.verify", c.n):
                    rc_verify, out_verify, err_verify = _quiet_main(["verify", doc_path])
                t1, w1 = clock(), wall_clock()
            ops.append(Op("instance", 2 * i, t1 - t0, w1 - w0))
            case = out_pack.partition("(case ")[2].partition(",")[0]
            cases[case] = cases.get(case, 0) + 1
            problems = []
            try:
                with open(doc_path, encoding="utf-8") as fh:
                    doc = fh.read()
            except FileNotFoundError:
                doc = ""
                problems.append("no document written")
            if rc_pack != cli.EXIT_OK or err_pack or case != "C3":
                problems.append(f"pack exit {rc_pack} {err_pack.strip()!r} {out_pack.strip()!r}")
            if rc_verify != cli.EXIT_OK or err_verify or not out_verify.startswith("ok: "):
                problems.append(f"verify exit {rc_verify} {err_verify.strip()!r}")
            digest = _digest(doc)
            if self.digests[i] is None:
                if not problems:
                    self.digests[i] = digest
                    problems += self._first_check(i, c, doc)
            elif digest != self.digests[i]:
                problems.append("written document differs from the first pass")
            check.op(not problems, f"c3 instance {i} n={c.n}: {'; '.join(problems)}")
            docs.append(digest)

            if i in self.planted:
                gc.collect()
                with span("op.c3.reject", c.n + 1):
                    w0, t0 = wall_clock(), clock()
                    with span("cli.main.reject", c.n + 1):
                        rc, out, err = _quiet_main(["verify", self._path("planted", i)])
                    t1, w1 = clock(), wall_clock()
                ops.append(Op("reject", 2 * i + 1, t1 - t0, w1 - w0))
                lines = err.splitlines()
                expected = self.planted[i]
                ok = (
                    rc == PLANTED_EXIT
                    and not out
                    and len(lines) == len(expected)
                    and all(ln.startswith(e) for ln, e in zip(lines, expected))
                )
                check.op(ok, f"c3 planted {c.plant} {i}: exit {rc}, stderr {lines!r}")
        return ops, {"cases": cases, "documents": _digest("".join(docs))}


# ---------------------------------------------------------------- prove


class Prove:
    name = "prove"
    latency_per_sample = False  # percentiles over systems

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.seed, self.size = seed, size
        self.systems: list = []
        self.schedule: "list[int]" = []

    def setup(self) -> None:
        catalog = lemma_catalog()
        if self.size.prove_only is not None:
            catalog = [s for s in catalog if s.name in self.size.prove_only + ("LEMMA_MSC_NEG",)]
        self.systems = inputs.prove_systems(catalog, self.size.slice)
        reps = [1 if s.name == "msc_neg_slice" else inputs.PROVE_REPS for s in self.systems]
        self.schedule = inputs.schedule(f"prove/{self.seed}", reps)

    def inputs_digest(self) -> str:
        return _digest(repr([(s.name, s.variables) for s in self.systems] + self.schedule))

    def run_pass(self, check: Checker, tracer: Optional[spans.Tracer] = None):
        span = _no_span if tracer is None else tracer.span
        systems = self.systems
        if tracer is not None:
            systems = [
                dataclasses.replace(s, prepare=tracer.wrap(s.prepare, "catalog.prepare"))
                for s in systems
            ]
        ops, stats, seconds = [], {}, {}
        for k in self.schedule:
            system = systems[k]
            gc.collect()
            with span(f"prove.{system.name}"):
                w0, t0 = wall_clock(), clock()
                result = prove(system)
                t1, w1 = clock(), wall_clock()
            ops.append(Op("instance", k, t1 - t0, w1 - w0))
            st = result.stats
            counts = {
                "boxes": st.boxes_explored,
                "pruned": st.boxes_pruned,
                "max_depth": st.max_depth_reached,
                "peak_lanes": st.peak_lanes,
            }
            same = stats.setdefault(system.name, counts) == counts
            check.op(
                result.status is ProofStatus.PROVED and st.undecided_count == 0 and same,
                f"{system.name}: {result.status.value}, undecided {st.undecided_count},"
                f" counts {counts} (first proof in this pass: {stats[system.name]})",
            )
            seconds.setdefault(system.name, []).append(t1 - t0)
        seconds = {name: statistics.median(t) for name, t in seconds.items()}
        return ops, {"systems": stats, "seconds": seconds}

    def conclusions(self) -> "frozenset[int]":
        return frozenset(id(s.conclusion) for s in self.systems)


WORKLOADS = {w.name: w for w in (SweepMix, C3Cli, Prove)}


# ---------------------------------------------------------------- metrics


def end_to_end_names() -> "list[tuple[str, str]]":
    return [
        ("pass_s", "s"),
        ("instance_ms_p50", "ms"),
        ("instance_ms_p90", "ms"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ]


PROVED_SYSTEMS = (
    "LEMMA_TP1",
    "LEMMA_TP2",
    "LEMMA_SC1",
    "LEMMA_SC2",
    "LEMMA_SC3",
    "LEMMA_SC4",
    "LEMMA_SC5_SIGMA",
    "LEMMA_SC6_SIGMA",
    "LEMMA_SC7_SIGMA",
    "LEMMA_MSC_POS",
    "msc_neg_slice",
)
IARRAY_OP_NAMES = tuple(dict.fromkeys(spans.IARRAY_OPS.values()))


def per_layer_names() -> "list[tuple[str, str]]":
    names = [("gen.us_per_square", "us")]
    names += [("pack.us_per_square", "us"), ("pack.share", "fraction")]
    names += [(f"pack.{c}.us_per_square", "us") for c in ("c1", "c2", "c3")]
    names += [(f"pack.cases.{c}", "count") for c in ("c1", "c2", "c3")]
    names += [("validate.us_per_square", "us"), ("validate.share", "fraction")]
    names += [(f"validate.{d}.us_per_square", "us") for d in inputs.DISTS]
    names += [(f"validate.{k}.us_per_square", "us") for k in ("n1e3", "n1e4", "reject")]
    names += [
        (f"cli.{k}.us_per_square", "us")
        for k in ("parse_instance", "format_document", "parse_document", "self")
    ]
    for system in PROVED_SYSTEMS:
        names += [
            (f"prove.{system}.s", "s"),
            (f"prove.{system}.boxes", "count"),
            (f"prove.{system}.max_depth", "count"),
            (f"prove.{system}.peak_lanes", "count"),
            (f"prove.{system}.us_per_box", "us"),
        ]
    names += [("prove.boxes_total", "count"), ("prove.pruned_frac", "fraction")]
    names += [("engine.self_s", "s")]
    names += [(f"catalog.{k}_s", "s") for k in ("cheap", "hypotheses", "prepare", "conclusion")]
    for op in IARRAY_OP_NAMES:
        names += [
            (f"iarrays.{op}.calls", "count"),
            (f"iarrays.{op}.lanes", "count"),
            (f"iarrays.{op}.ns_per_lane", "ns"),
        ]
    names += [("trace.overhead_s", "s")]
    return names


def _per(ns: float, units: float, scale: float = 1e-3) -> float:
    """ns / units in the target unit (default: microseconds per unit)."""
    return ns * scale / units if units else 0.0


def layer_metrics(
    workload: str, totals: spans.Totals, counts: dict, gen_totals: Optional[spans.Totals]
) -> "dict[str, float]":
    """Per-layer values from one traced pass.  A layer the workload does not
    reach reports 0."""
    m = {name: 0.0 for name, _ in per_layer_names()}
    inc, slf, units = totals.incl_ns, totals.self_ns, totals.units

    def under(child: str, parent: Callable[[str], bool]) -> "tuple[int, int]":
        ns = sq = 0
        for (c, p), (d, u) in totals.by_parent.items():
            if c == child and parent(p):
                ns, sq = ns + d, sq + u
        return ns, sq

    if gen_totals is not None:
        m["gen.us_per_square"] = _per(
            gen_totals.incl_ns["packer.gen_random"], gen_totals.units["packer.gen_random"]
        )
    op_ns = totals.matching(lambda k: k.startswith("op."), "incl_ns")
    for layer in ("pack", "validate"):
        key = f"packer.{layer}"
        m[f"{layer}.us_per_square"] = _per(inc[key], units[key])
        m[f"{layer}.share"] = inc[key] / op_ns if op_ns else 0.0
    for c in ("c1", "c2", "c3"):
        key = f"packer.pack.{c}"
        m[f"pack.{c}.us_per_square"] = _per(inc[key], units[key])
        m[f"pack.cases.{c}"] = counts.get("cases", {}).get(c.upper(), 0)
    for d in inputs.DISTS:
        m[f"validate.{d}.us_per_square"] = _per(
            *under("packer.validate", lambda p, d=d: p.startswith(f"op.sweep.{d}.n"))
        )
    m["validate.n1e3.us_per_square"] = _per(*under("packer.validate", lambda p: p.endswith(".n1000")))
    m["validate.n1e4.us_per_square"] = _per(*under("packer.validate", lambda p: p.endswith(".n10000")))
    m["validate.reject.us_per_square"] = _per(*under("packer.validate", lambda p: p == "cli.main.reject"))
    for k in ("parse_instance", "format_document", "parse_document"):
        m[f"cli.{k}.us_per_square"] = _per(inc[f"cli.{k}"], units[f"cli.{k}"])
    is_main = lambda k: k.startswith("cli.main.")  # noqa: E731
    m["cli.self.us_per_square"] = _per(
        totals.matching(is_main, "self_ns"), totals.matching(is_main, "units")
    )

    systems, seconds = counts.get("systems", {}), counts.get("seconds", {})
    for name, r in systems.items():
        m[f"prove.{name}.s"] = seconds[name]
        m[f"prove.{name}.boxes"] = r["boxes"]
        m[f"prove.{name}.max_depth"] = r["max_depth"]
        m[f"prove.{name}.peak_lanes"] = r["peak_lanes"]
        m[f"prove.{name}.us_per_box"] = seconds[name] * 1e6 / r["boxes"]
    explored = sum(r["boxes"] for r in systems.values())
    m["prove.boxes_total"] = explored
    m["prove.pruned_frac"] = sum(r["pruned"] for r in systems.values()) / explored if explored else 0.0
    m["engine.self_s"] = totals.matching(lambda k: k.startswith("prove."), "self_ns") * 1e-9
    for k in ("cheap", "hypotheses", "prepare", "conclusion"):
        m[f"catalog.{k}_s"] = slf[f"catalog.{k}"] * 1e-9
    for op in IARRAY_OP_NAMES:
        key = f"iarrays.{op}"
        m[f"{key}.calls"] = totals.calls[key]
        m[f"{key}.lanes"] = units[key]
        m[f"{key}.ns_per_lane"] = _per(slf[key], units[key], 1.0)
    return m


def end_to_end_metrics(passes: "list[list[Op]]", per_sample: bool) -> "dict[str, float]":
    """An input's time is the median of its times in the run, and `pass_s`
    is the sum of these over the inputs of one pass.  A cell's latency is
    the median over its clean instances, and the latency percentiles are
    taken over cells, so each cell of the sweep grid weighs the same (n is
    log-uniform in criterion 3).  With `per_sample`, they are taken over
    every clean operation of the run instead, which puts many more samples
    beyond the 90th percentile when every input is a cell of its own.  None
    of these depends on how many passes fit the run."""
    times: "dict[int, list[float]]" = {}
    cells: "dict[object, set[int]]" = {}
    for ops in passes:
        for op in ops:
            times.setdefault(op.key, []).append(op.seconds)
            if op.kind == "instance":
                cells.setdefault(op.key if op.cell is None else op.cell, set()).add(op.key)
    med = {key: statistics.median(t) for key, t in times.items()}
    if per_sample:
        lat = [op.seconds * 1e3 for ops in passes for op in ops if op.kind == "instance"]
    else:
        lat = [statistics.median(med[key] for key in keys) * 1e3 for keys in cells.values()]
    return {
        "pass_s": sum(med.values()),
        "instance_ms_p50": statistics.median(lat),
        "instance_ms_p90": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
    }


# ---------------------------------------------------------------- set-up


_IMPORT = """\
import time, numpy
t0 = time.process_time()
import diskpack.cli, diskpack.prover
print(time.process_time() - t0)
"""


def import_seconds(root: str) -> float:
    """CPU time a fresh interpreter takes to import the CLI and the prover,
    which every `diskpack` invocation pays before doing work.  NumPy is
    imported first and not counted: with the interpreter's own start-up it
    is most of a fresh process's time, and it varies by up to a third from
    minute to minute on a shared host, which would hide diskpack's part."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT],
        cwd=root,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout)
