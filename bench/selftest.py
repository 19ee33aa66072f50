"""Tests of the benchmark's own checks: each rejects a deliberately broken output.

    python3 bench/selftest.py

Each test takes a real output of the package for a generated input,
shows that the check accepts it, then breaks one property and shows that
the check rejects the result.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from collections import deque
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ltlkit import parsing, planner  # noqa: E402

import forms  # noqa: E402
import wl_eval  # noqa: E402
import wl_plan  # noqa: E402
import wl_translate  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 7


class TranslateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = wl_translate.TranslateWorkload(SEED, None)
        _, cls.results = cls.workload.run_pass()

    def pick(self, shape):
        for call, result in zip(self.workload.calls, self.results):
            if call["shape"] == shape:
                return call, result
        raise LookupError(shape)

    def test_real_outputs_pass(self):
        self.workload.check(self.results)

    def test_majority_winner_must_be_first_of_class(self):
        # Runs are [goal, other, rewrite of goal]: the rewrite is in the
        # majority class but comes later in run order.
        call, result = self.pick("majority_split")
        later = result.runs[2].formula
        with self.assertRaises(CheckError):
            wl_translate.check_result(call, replace(result, final_formula=later))

    def test_fallback_winner_and_scores(self):
        call, result = self.pick("fallback")
        loser = next(r.formula for r in result.runs
                     if forms.from_package(r.formula) != call["winner"])
        with self.assertRaises(CheckError):
            wl_translate.check_result(call, replace(result, final_formula=loser))
        scores = dict(result.confidence_scores)
        scores[next(iter(scores))] += 0.125
        with self.assertRaises(CheckError):
            wl_translate.check_result(call, replace(result, confidence_scores=scores))

    def test_decision(self):
        call, result = self.pick("fallback")
        with self.assertRaises(CheckError):
            wl_translate.check_result(call, replace(result, decision="majority"))

    def test_retries_per_run(self):
        call, result = self.pick("repeated_rejections")
        runs = list(result.runs)
        runs[0] = replace(runs[0], retries_used=runs[0].retries_used + 1)
        with self.assertRaises(CheckError):
            wl_translate.check_result(call, replace(result, runs=tuple(runs)))


class EvalChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = HERE.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=out)
        cls.workload = wl_eval.EvalWorkload(SEED, Path(cls.tmp.name))
        _, cls.reports = cls.workload.run_pass()
        cls.plan, cls.report = cls.workload.plans[0], cls.reports[0]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def rejects(self, report):
        with self.assertRaises(CheckError):
            wl_eval.check_report(self.plan, report, len(wl_eval.RECORDS))

    def test_real_outputs_pass(self):
        self.workload.check(self.reports)

    def test_accuracies(self):
        self.rejects(replace(self.report, accuracy_semantic=self.report.accuracy_semantic + 0.01))
        self.rejects(replace(self.report, accuracy_exact=self.report.accuracy_semantic))

    def test_failures_list_exactly_the_wrong_records(self):
        self.rejects(replace(self.report, failures=self.report.failures[1:]))
        first = self.report.failures[0]
        moved = replace(first, record_index=(first.record_index + 1) % self.report.n_records)
        self.rejects(replace(self.report, failures=(moved,) + self.report.failures[1:]))

    def test_failure_kind(self):
        errored = replace(self.report.failures[0], kind="error")
        self.rejects(replace(self.report, failures=(errored,) + self.report.failures[1:]))


def _path(world, src, dst):
    """Shortest walkable cell path from src to dst, both included."""
    parent = {src: None}
    queue = deque([src])
    while queue:
        cell = queue.popleft()
        if cell == dst:
            break
        for nxt in wl_plan.neighbours(cell, world["n"], world["walls"]):
            if nxt not in parent:
                parent[nxt] = cell
                queue.append(nxt)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


class PlanChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import random

        cls.world = wl_plan.make_world(random.Random(SEED), 10)
        grid = planner.parse_world(cls.world["text"])
        cls.plans = {
            family: (names, planner.plan(grid, parsing.parse(forms.infix(goal))))
            for family, names, goal in cls.world["goals"]
        }

    def rejects(self, family, trajectory):
        names = self.plans[family][0]
        with self.assertRaises(CheckError):
            wl_plan.check_trajectory(self.world, family, names, trajectory)

    def test_real_outputs_pass(self):
        for family, (names, trajectory) in self.plans.items():
            wl_plan.check_trajectory(self.world, family, names, trajectory)

    def test_start_cell(self):
        _, t = self.plans["reach"]
        start = self.world["start"]
        other = next(c for c in wl_plan.neighbours(start, 10, self.world["walls"]) if c != start)
        self.rejects("reach", replace(t, prefix_cells=(other,) + t.prefix_cells[1:]))

    def test_illegal_step(self):
        _, t = self.plans["ordered"]
        wall = next(iter(self.world["walls"]))
        self.rejects("ordered", replace(t, loop_cells=t.loop_cells + (wall,)))
        far = max(self.world["labels"], key=lambda c: abs(c[0] - t.loop_cells[-1][0]))
        self.rejects("ordered", replace(t, prefix_cells=t.prefix_cells + (far,)))

    def test_loop_must_close(self):
        _, t = self.plans["patrol"]
        loop = t.loop_cells[:-1]
        self.assertNotIn(loop[0], wl_plan.neighbours(loop[-1], 10, self.world["walls"]))
        self.rejects("patrol", replace(t, loop_cells=loop))

    def test_goal_must_hold(self):
        start = self.world["start"]
        idle = replace(self.plans["reach"][1], prefix_cells=(start,), loop_cells=(start,))
        for family in self.plans:
            self.rejects(family, idle)

    def test_ordered_visits_in_order(self):
        first, second = self.plans["ordered"][0]
        labels = self.world["labels"]
        a = next(c for c, n in labels.items() if n == first)
        b = next(c for c, n in labels.items() if n == second)
        to_b = _path(self.world, self.world["start"], b)
        self.assertNotIn(a, to_b)
        # Visits b, then a, then stays at a: the order is reversed.
        walk = to_b + _path(self.world, b, a)[1:]
        self.rejects("ordered", replace(self.plans["ordered"][1],
                                        prefix_cells=tuple(walk), loop_cells=(a,)))

    def test_hazard_before_target(self):
        hazard, target = self.plans["avoid_until"][0]
        labels = self.world["labels"]
        h = next(c for c, n in labels.items() if n == hazard)
        c = next(c for c, n in labels.items() if n == target)
        to_h = _path(self.world, self.world["start"], h)
        self.assertNotIn(c, to_h)
        walk = to_h + _path(self.world, h, c)[1:]
        self.rejects("avoid_until", replace(self.plans["avoid_until"][1],
                                            prefix_cells=tuple(walk), loop_cells=(c,)))


if __name__ == "__main__":
    unittest.main()
