"""Benchmark for ltlkit: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload {translate,eval,plan} --seed N \\
        --seconds S --trace {0,1}

Run from a source checkout; the package is imported from ``src/`` next
to this directory.  Inputs are generated from ``--seed``.  After set-up
(timed several times) and one untimed warm-up pass, whole passes over the
corpus run for at most ``--seconds``, with a garbage collection between
passes.  Every output is checked against what its inputs imply.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run is split into an
untraced half and a traced half and the object holds the per-layer
metrics.  Results and spans are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "translate": ("wl_translate", "TranslateWorkload"),
    "eval": ("wl_eval", "EvalWorkload"),
    "plan": ("wl_plan", "PlanWorkload"),
}
SETUP_REPEATS = 9
# Cores the passes take in turn; emptied if the process cannot be pinned.
CORES = sorted(os.sched_getaffinity(0))

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import ltlkit\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time ``import ltlkit`` in a fresh interpreter, as a user pays it."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Phase:
    """Per-pass figures of one timed phase."""

    def __init__(self, items_per_pass: int):
        self.items_per_pass = items_per_pass
        self.walls: list = []
        self.cpus: list = []
        self.latencies: list = []

    @property
    def items(self) -> int:
        return self.items_per_pass * len(self.walls)

    def ms_per_op(self) -> float:
        return sum(self.walls) * 1e3 / self.items

    def cpu_ms_per_op(self) -> float:
        return sum(self.cpus) * 1e3 / self.items


def pin(index: int) -> None:
    """Pin the process, and the pool threads it starts from now on, to the
    core ``index`` picks from ``CORES`` in turn."""
    if CORES:
        os.sched_setaffinity(0, {CORES[index % len(CORES)]})


def measure(workload, seconds: float, before_pass=None) -> Phase:
    """Run whole passes while the next one, as long as the last, still ends
    within ``seconds``; at least one pass runs.  Each pass runs on one core,
    and successive passes take the cores in turn."""
    phase = Phase(workload.items_per_pass)
    deadline = time.perf_counter() + seconds
    while True:
        pin(len(phase.walls))
        gc.collect()
        if before_pass is not None:
            before_pass()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        latencies, outputs = workload.run_pass()
        phase.cpus.append(time.process_time() - cpu0)
        phase.walls.append(time.perf_counter() - wall0)
        phase.latencies += latencies
        workload.check(outputs)
        del outputs
        if time.perf_counter() + phase.walls[-1] > deadline:
            return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """Rates are totals over the timed phase.  The host's speed swings from
    second to second; a total averages over those swings, and so varies
    less from run to run than the median pass does."""
    return {
        "ops_per_s": (1e3 / phase.ms_per_op(), "1/s"),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "cpu_ms_per_op": (phase.cpu_ms_per_op(), "ms"),
        "setup_s": (setup_s, "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, phase: Phase, untraced: Phase, load_ms: float,
              items_per_pass: int) -> dict:
    items = phase.items
    n = tracer.counts.get

    def calls(name):
        return len(tracer.durations(name)) / items

    def ms(name):
        return sum(tracer.durations(name)) * 1e3 / items

    def self_ms(name):
        return sum(tracer.self_times(name)) * 1e3 / items

    def share(part, whole):
        return part / whole if whole else 0.0

    from spans import COMPLETE, p95

    sat_calls = len(tracer.durations("automata.is_satisfiable"))
    equiv_calls = len(tracer.durations("automata.equiv"))
    completions = len(tracer.durations(COMPLETE))
    m = {
        "automata.build_automaton.calls": (calls("automata.build_automaton"), "count"),
        "automata.build_automaton.ms": (ms("automata.build_automaton"), "ms"),
        "automata.states": (n("states", 0) / items, "count"),
        "automata.edges": (n("edges", 0) / items, "count"),
        "automata.is_empty.ms": (ms("automata.is_empty"), "ms"),
        "automata.is_satisfiable.calls": (calls("automata.is_satisfiable"), "count"),
        "automata.is_satisfiable.ms": (ms("automata.is_satisfiable"), "ms"),
        "automata.equiv.calls": (calls("automata.equiv"), "count"),
        "automata.equiv.ms": (ms("automata.equiv"), "ms"),
        "formulas.to_nnf.ms": (ms("formulas.to_nnf"), "ms"),
        "formulas.evaluate.calls": (calls("formulas.evaluate"), "count"),
        "formulas.evaluate.ms": (ms("formulas.evaluate"), "ms"),
        "automata.is_satisfiable.repeat_share": (share(n("sat.repeat", 0), sat_calls), "ratio"),
        "automata.equiv.repeat_share": (share(n("equiv.repeat", 0), equiv_calls), "ratio"),
        "automata.equiv.shortcut_share": (share(n("equiv.shortcut", 0), equiv_calls), "ratio"),
        "srl.tag.calls": (calls("srl.tag"), "count"),
        "srl.tag.ms": (ms("srl.tag"), "ms"),
        "prompts.render.ms": (ms("prompts.render"), "ms"),
        "prompts.render_reprompt.calls": (calls("prompts.render_reprompt"), "count"),
        "prompts.extract_formula.ms": (ms("prompts.extract_formula"), "ms"),
        "gateway.complete.calls": (calls(COMPLETE), "count"),
        "gateway.complete.ms": (ms(COMPLETE), "ms"),
        "pipeline.translate.self_ms": (self_ms("pipeline.translate"), "ms"),
        "pipeline.translate.p95_ms": (p95(tracer.durations("pipeline.translate")) * 1e3, "ms"),
        "pipeline.vote.ms": (ms("pipeline.vote"), "ms"),
        "pipeline.vote.classes": (
            (n("vote.candidates", 0) - n("vote.merged", 0)) / items, "count"),
        "pipeline.accept_ratio": (share(n("accepted", 0), completions), "ratio"),
        "parsing.parse.calls": (calls("parsing.parse"), "count"),
        "parsing.parse.ms": (ms("parsing.parse"), "ms"),
        "parsing.print_formula.calls": (calls("parsing.print_formula"), "count"),
        "parsing.print_formula.ms": (ms("parsing.print_formula"), "ms"),
        "evaluation.evaluate_dataset.self_ms": (self_ms("evaluation.evaluate_dataset"), "ms"),
        "evaluation.ground_formula.ms": (ms("evaluation.ground_formula"), "ms"),
        # Loading happens once per set-up, so it is spread over one pass.
        "evaluation.load_dataset.ms": (load_ms / items_per_pass, "ms"),
        "planner.plan.self_ms": (self_ms("planner.plan"), "ms"),
        "planner.plan.p95_ms": (p95(tracer.durations("planner.plan")) * 1e3, "ms"),
        "planner.trajectory_cells": (n("trajectory_cells", 0) / items, "count"),
        "trace.overhead_ms_per_op": (phase.ms_per_op() - untraced.ms_per_op(), "ms"),
    }
    return m


def run(args) -> dict:
    if not (SRC / "ltlkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'ltlkit'}; "
                         "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ltlkit

    if Path(ltlkit.__file__).resolve().parent != (SRC / "ltlkit").resolve():
        raise SystemExit(f"error: imported ltlkit from {ltlkit.__file__}, not {SRC}")
    # With one caller and the interpreter lock the package keeps one core
    # busy at a time.  Keeping a pass on one core also keeps translate's
    # pool threads from waking up on another, a hand-off whose cost on a
    # shared virtual machine swings between runs by a factor of two.  The
    # speed of each core drifts over tens of seconds, partly apart from
    # the others, so passes take the cores in turn to average over them.
    try:
        pin(0)
    except OSError as exc:
        CORES.clear()
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(__import__(module_name), class_name)

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            seconds = import_seconds()
            target = workdir / f"setup{i}"
            target.mkdir(parents=True)
            start = time.perf_counter()
            workload = workload_cls(args.seed, target)
            setups.append(seconds + time.perf_counter() - start)

        gc.collect()
        _, outputs = workload.run_pass()  # warm-up, untimed
        workload.check(outputs)
        del outputs

        if not args.trace:
            phase = measure(workload, args.seconds)
            return {"attempted": phase.items,
                    "metrics": end_to_end(phase, statistics.median(setups))}

        from spans import Tracer

        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        workload.wrap_backend = tracer.backend
        try:
            workload.load()
            load_ms = sum(tracer.durations("evaluation.load_dataset")) * 1e3
            tracer.reset()
            traced = measure(workload, args.seconds / 2, before_pass=tracer.new_pass)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, traced, untraced, load_ms, workload.items_per_pass)
        return {"attempted": untraced.items + traced.items, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from checks import CheckError

    try:
        outcome = run(args)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
