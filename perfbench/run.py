"""diskpack benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep_mix|c3_cli|prove \\
        --seed N --seconds S --trace 0|1

Run it from the root of a diskpack source tree; it imports `src/diskpack`
from there (nothing to build).  One process, one thread.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Lines before it give the same numbers
for people, the sample counts and the machine.  Outputs go under
`.perfbench_out/` (results, spans, exact-count records).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One thread: NumPy's BLAS pool is not used by diskpack, and operations are
# timed in CPU time of the whole process (workloads.clock).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def source_digest() -> str:
    """Digest of the program and benchmark sources: exact-count records are
    compared only between runs of identical code."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    files = sorted(glob.glob(os.path.join(ROOT, "src", "diskpack", "**", "*.py"), recursive=True))
    files += sorted(glob.glob(os.path.join(here, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(digest: str) -> "dict[str, object]":
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": digest,
    }


def _exact(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if k != "seconds"}


def check_record(name: str, seed: int, size: str, digest: str, counts: dict) -> None:
    """Exact counts must repeat bit-for-bit between runs of one seed."""
    path = os.path.join(OUT, "counts", f"{name}-seed{seed}-{size}-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            raise BenchError(f"exact counts differ from an earlier run of this seed ({path})")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    os.replace(tmp, path)


def run(name: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    import spans
    import workloads as wl

    size = {"full": wl.FULL, "tiny": wl.TINY}[size_name]
    digest = source_digest()
    workdir = os.path.join(OUT, "work", f"{name}-seed{seed}-{os.getpid()}")
    work = wl.WORKLOADS[name](seed, size, workdir)
    try:
        setups, inputs_seen = [], set()
        for _ in range(size.setup_reps):
            t_import = wl.import_seconds(ROOT)
            t0 = wl.clock()
            work.setup()
            setups.append(t_import + wl.clock() - t0)
            inputs_seen.add(work.inputs_digest())
        if len(inputs_seen) != 1:
            raise BenchError("input generation is not deterministic")
        # Every operation starts after a full collection (see workloads.py);
        # freezing what set-up left alive keeps those collections short.
        gc.collect()
        gc.freeze()

        check = wl.Checker()
        passes = []  # (ops, counts)
        if not trace:
            # Start a pass only if it should end within `seconds`, so that a
            # run lasts about `seconds` (or one pass, if that is longer).
            t0 = time.perf_counter()
            while True:
                passes.append(work.run_pass(check))
                elapsed = time.perf_counter() - t0
                if elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
            metrics = wl.end_to_end_metrics([p_ops for p_ops, _ in passes], work.latency_per_sample)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(wl.end_to_end_names())
        else:
            passes.append(work.run_pass(check))
            tracer = spans.Tracer()
            conclusions = work.conclusions() if hasattr(work, "conclusions") else frozenset()
            with spans.instrumented(tracer, conclusions):
                passes.append(work.run_pass(check, tracer))
            gen_totals = None
            if name == "sweep_mix":
                gen_tracer = spans.Tracer()
                from diskpack import packer

                work.setup(gen_tracer.wrap(packer.gen_random, "packer.gen_random", lambda a, r: len(r)))
                gen_totals = spans.Totals(gen_tracer)
            counts = dict(passes[1][1], seconds=passes[0][1].get("seconds", {}))
            metrics = wl.layer_metrics(name, spans.Totals(tracer), counts, gen_totals)
            metrics["trace.overhead_s"] = sum(op.seconds for op in passes[1][0]) - sum(
                op.seconds for op in passes[0][0]
            )
            units = dict(wl.per_layer_names())
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            tracer.save(os.path.join(OUT, "spans", f"{name}-seed{seed}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    exact = [_exact(c) for _, c in passes]
    if any(c != exact[0] for c in exact):
        raise BenchError("exact counts differ between passes of one run")
    check_record(name, seed, size_name, digest, exact[0])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "samples": {
            kind: sum(1 for p_ops, _ in passes for op in p_ops if op.kind == kind)
            for kind in ("instance", "reject")
        },
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.messages,
        "op_seconds": [[op.seconds for op in p_ops] for p_ops, _ in passes],
        "op_wall_seconds": [[op.wall for op in p_ops] for p_ops, _ in passes],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "environment": environment(digest),
    }


def expected_metrics(trace: bool) -> "dict[str, str]":
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep_mix", "c3_cli", "prove"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "diskpack", "__init__.py")):
        print("error: src/diskpack not found; run from the root of a diskpack tree", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        want = expected_metrics(bool(args.trace))
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != want:
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"
          f" passes {result['passes']} samples {result['samples']}")
    for k, m in result["metrics"].items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']} operations)")
    for msg in result["failures"]:
        print(f"failure: {msg}", file=sys.stderr)
    print(f"environment {json.dumps(result['environment'])}")
    print(f"result file {os.path.relpath(path, ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
