"""A seconds-long run of each of the benchmark's workloads.

The benchmark checks every output it gets apart from the package (each
trajectory against its own grid, each translation and eval report
against its own expectations), so a package change that breaks or alters
what ``plan``, ``translate`` or ``evaluate_dataset`` returns there fails
the suite, not only a later benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["plan", "translate", "eval"])
def test_workload_runs_and_checks_out(workload):
    result = run_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert result["correct"] is True, result


def test_traced_eval_runs_and_checks_out():
    # The tracer wraps every function named in bench/spans.py's TARGETS and
    # fails at install when one is renamed or removed from the package.
    result = run_bench("--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert result["correct"] is True, result
    assert result["metrics"]["pipeline.translate.self_ms"]["value"] > 0
