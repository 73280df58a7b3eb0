"""In-memory span recorder and the wrappers that time diskpack's layers from
outside.

A span is (name, start, end, parent, units): `units` is the work the call
did (squares for packer and CLI calls, lanes for interval operations), so
per-unit costs are measured where the work happens.  Spans are kept in
plain lists while the traced pass runs and are turned into NumPy arrays
only once it ends.  Self time is a span's duration minus the durations of
its direct children, so the self times of all spans add up to the traced
wall time without double counting.

Nothing inside `src/` is edited: every wrapper replaces a public name at
the place its consumer looks it up (a module global or a class attribute)
and `instrumented()` restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name_id: "list[int]" = []
        self.start: "list[int]" = []
        self.end: "list[int]" = []
        self.parent: "list[int]" = []
        self.units: "list[int]" = []
        self._stack: "list[int]" = [-1]

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, units: int) -> int:
        i = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.units.append(units)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, units: int = 0) -> Iterator[None]:
        i = self._open(self._nid(name), units)
        try:
            yield
        finally:
            self._close(i)

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        units: Optional[Callable] = None,
    ) -> Callable:
        """Time every call of fn.  `name` may be a function of the call's
        arguments; `units(args, result)` gives the work done (0 if None)."""
        fixed = None if callable(name) else self._nid(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._nid(name(*args))
            i = self._open(nid, 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if units is not None:
                self.units[i] = units(args, result)
            return result

        return traced

    def wrap_lanes(self, fn: Callable, name: str) -> Callable:
        """Wrap an IntervalArray method; the work is the receiver's lanes.
        Kept separate from wrap() because it runs ~10^5 times per pass."""
        nid = self._nid(name)
        open_, close = self._open, self._close

        def traced(self_, *args):
            i = open_(nid, self_.lo.size)
            try:
                return fn(self_, *args)
            finally:
                close(i)

        return traced

    def arrays(self) -> "dict[str, np.ndarray]":
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "units": np.array(self.units, dtype=np.int64),
            "self_ns": dur - child,
            "dur_ns": dur,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name_id", "start_ns", "end_ns", "parent", "units")},
        )


class Totals:
    """Per-name sums over a tracer's spans: calls, units, inclusive and
    self nanoseconds; `by_parent` groups inclusive time and units by the
    name of the direct parent span."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        names = tracer.names
        self.calls: "dict[str, int]" = defaultdict(int)
        self.units: "dict[str, int]" = defaultdict(int)
        self.incl_ns: "dict[str, int]" = defaultdict(int)
        self.self_ns: "dict[str, int]" = defaultdict(int)
        self.by_parent: "dict[tuple[str, str], list[int]]" = defaultdict(lambda: [0, 0])
        k = len(names)
        nid = a["name_id"]
        for j, (c, u, d, s) in enumerate(
            zip(
                np.bincount(nid, minlength=k),
                np.bincount(nid, weights=a["units"], minlength=k),
                np.bincount(nid, weights=a["dur_ns"], minlength=k),
                np.bincount(nid, weights=a["self_ns"], minlength=k),
            )
        ):
            self.calls[names[j]] = int(c)
            self.units[names[j]] = int(u)
            self.incl_ns[names[j]] = int(d)
            self.self_ns[names[j]] = int(s)
        has = a["parent"] >= 0
        pnid = np.full(len(nid), -1, dtype=np.int64)
        pnid[has] = nid[a["parent"][has]]
        # (child name, parent name) pairs are few; group them in Python
        for (c, p), d, u in _group(nid[has], pnid[has], a["dur_ns"][has], a["units"][has]):
            self.by_parent[(names[c], names[p])] = [d, u]

    def matching(self, pred: Callable[[str], bool], field: str) -> int:
        table = getattr(self, field)
        return sum(v for k, v in table.items() if pred(k))


def _group(c: np.ndarray, p: np.ndarray, d: np.ndarray, u: np.ndarray):
    if c.size == 0:
        return []
    key = c.astype(np.int64) * (1 << 32) + p
    uniq, inv = np.unique(key, return_inverse=True)
    ds = np.bincount(inv, weights=d)
    us = np.bincount(inv, weights=u)
    return [
        ((int(k >> 32), int(k & 0xFFFFFFFF)), int(dd), int(uu))
        for k, dd, uu in zip(uniq, ds, us)
    ]


@contextlib.contextmanager
def patched(target: object, attr: str, value: object) -> Iterator[None]:
    old = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, old)


# IntervalArray methods and the op name each is reported under.  __radd__
# and __rmul__ are aliases of __add__ and __mul__ in the class body, so they
# share an op; the four certainty predicates are one-comparison methods and
# share the `cert` op to stay within the per-layer metric budget.
IARRAY_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "rsub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "truediv",
    "__neg__": "neg",
    "square": "square",
    "sqrt": "sqrt",
    "acos": "acos",
    "min_with": "min_with",
    "max_with": "max_with",
    "cert_le": "cert",
    "cert_gt": "cert",
    "cert_ge": "cert",
    "cert_lt": "cert",
}


def count_squares(args, result) -> int:
    return len(args[0])


@contextlib.contextmanager
def instrumented(tracer: Tracer, conclusions: "frozenset[int]" = frozenset()) -> Iterator[None]:
    """Wrap every public function the benchmark's layers are measured at.

    Packer: `pack_c1/2/3` are looked up in `diskpack.packer` by `pack`;
    CLI: `pack`, `validate`, the parsers and the formatter are looked up in
    `diskpack.cli` by its command handlers; prover: `Relation.certs` and
    `OrRelation.certs` on their classes (named by role: the ids in
    `conclusions` are conclusions, `cheap` relations are cheap hypotheses,
    the rest main hypotheses) and the IntervalArray methods on the class.
    `ConstraintSystem.prepare` is a per-system field; the prove workload
    wraps it with `dataclasses.replace`."""
    from diskpack import cli, packer
    from diskpack.iarrays import IntervalArray
    from diskpack.prover.engine import OrRelation, Relation

    def role(rel, env) -> str:
        if id(rel) in conclusions:
            return "catalog.conclusion"
        return "catalog.cheap" if rel.cheap else "catalog.hypotheses"

    with contextlib.ExitStack() as stack:
        for case in ("c1", "c2", "c3"):
            fn = getattr(packer, f"pack_{case}")
            stack.enter_context(
                patched(packer, f"pack_{case}", tracer.wrap(fn, f"packer.pack.{case}", count_squares))
            )
        for attr, name in (
            ("pack", "packer.pack"),
            ("validate", "packer.validate"),
            ("format_document", "cli.format_document"),
        ):
            fn = getattr(cli, attr)
            units = (lambda a, r: len(a[0].placements)) if attr == "format_document" else count_squares
            stack.enter_context(patched(cli, attr, tracer.wrap(fn, name, units)))
        stack.enter_context(
            patched(cli, "parse_instance", tracer.wrap(cli.parse_instance, "cli.parse_instance", lambda a, r: len(r)))
        )
        stack.enter_context(
            patched(
                cli,
                "parse_document",
                tracer.wrap(cli.parse_document, "cli.parse_document", lambda a, r: len(r.placements)),
            )
        )
        for cls in (Relation, OrRelation):
            stack.enter_context(patched(cls, "certs", tracer.wrap(cls.certs, role)))
        for meth, op in IARRAY_OPS.items():
            fn = getattr(IntervalArray, meth)
            stack.enter_context(patched(IntervalArray, meth, tracer.wrap_lanes(fn, f"iarrays.{op}")))
        yield
