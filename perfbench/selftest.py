"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py        # from the repository root

For every workload, untraced and traced, it checks that the run emits
exactly the metrics BENCHMARK.json names, each with its unit and a finite
value, and that nothing fails.  Then it expects planted documents to verify
clean, a deliberately wrong verdict, and checks that every planted
operation is counted as failed.  Exits 1 on the first problem.
"""

from __future__ import annotations

import math
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0.1, trace=trace, size_name="tiny")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = run.expected_metrics(trace)
            where = f"{name} trace={int(trace)}"
            if got != want:
                problems.append(f"{where}: metric names or units differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite values {bad}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed: {result['failures']}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations,"
                  f" {result['failed']} failed")

    right = workloads.PLANTED_EXIT
    workloads.PLANTED_EXIT = 0  # wrong on purpose: planted copies must exit 3
    try:
        result = run.run("c3_cli", seed=1, seconds=0.1, trace=False, size_name="tiny")
    finally:
        workloads.PLANTED_EXIT = right
    planted = result["samples"]["reject"]
    print(f"wrong expected verdict: {result['failed']} of {planted} planted operations failed")
    if planted == 0 or result["failed"] != planted or result["correct"]:
        problems.append("a wrong expected verdict was not counted in failed")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
