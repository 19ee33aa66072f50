"""The benchmark's own self-test, run as part of the suite.

``bench/selftest.py`` shows that each benchmark check rejects a broken
output.  Running it here means a package change that breaks what the
benchmark relies on fails the suite, not only a later benchmark run.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
