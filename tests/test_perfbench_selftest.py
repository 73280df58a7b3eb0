"""The benchmark's own self-test, run as part of the suite.

perfbench/ times diskpack from outside: it wraps `Relation.certs` and
`OrRelation.certs`, names prover spans by `Relation.cheap`, reads the
`ProofStats` fields, patches `packer.pack_c1/2/3` and the CLI functions.
Renaming or removing any of them breaks the benchmark, and only its
self-test, traced runs included, notices.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout, proc.stdout + proc.stderr
