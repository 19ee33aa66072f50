"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single PASS/FAIL line
(with its wall-clock budget) straight to the terminal, so a bare
``pytest`` run ends with a readable scorecard.  The conftest hook sorts
this module to the end of the session, which is what makes the
whole-suite budget in the offline-completeness check meaningful.
"""

import os
import random
import socket
import time
from pathlib import Path

import pytest

from ltlkit.automata import equiv, is_satisfiable
from ltlkit.formulas import And, Atom, Finally, Globally, Not, Or, Until, evaluate, to_nnf
from ltlkit.gateway import HttpBackend, config_from_env
from ltlkit.parsing import parse, print_formula
from ltlkit.pipeline import (
    DECISION_CONFIDENCE,
    DECISION_MAJORITY,
    PipelineConfig,
    translate,
)
from ltlkit.planner import NoPlanError, builtin_world, parse_world, plan
from ltlkit.prompts import BUILTIN_PROMPT_SETS, builtin_prompt_set, render

from helpers import completion_for, random_formula
from oracles import bounded_witness
from test_automata import SUITE
from test_evaluation import fixture_report
from test_pipeline import run_translate

GOLDEN = Path(__file__).parent / "golden"

ROUND_TRIP_SAMPLES = 500
SUITE_MINIMUM = 30
WHOLE_SUITE_BUDGET = 90.0


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def _gate(capsys, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        elapsed = time.perf_counter() - start
        _announce(capsys, f"{label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget
    suffix = f" [{detail}]" if detail else ""
    verdict = "PASS" if within else "FAIL"
    _announce(
        capsys, f"{label}: {verdict} ({elapsed:.2f}s, budget {budget:g}s){suffix}"
    )
    assert within, f"{label} exceeded its {budget:g}s budget ({elapsed:.2f}s)"


def test_criterion_1_parser_round_trip(capsys):
    def body():
        rng = random.Random(8422)
        for _ in range(ROUND_TRIP_SAMPLES):
            formula = random_formula(rng, 5, ("a", "b", "c", "d"))
            for syntax in ("infix", "prefix"):
                text = print_formula(formula, syntax)
                assert parse(text, syntax=syntax) == formula
        for text, syntax, _ in SUITE:
            formula = parse(text, syntax=syntax)
            for out_syntax in ("infix", "prefix"):
                rendered = print_formula(formula, out_syntax)
                assert parse(rendered, syntax=out_syntax) == formula
        return f"{ROUND_TRIP_SAMPLES} random + {len(SUITE)} quoted formulas"

    _gate(capsys, "criterion 1 (parser round-trip)", 5.0, body)


def test_criterion_2_oracle_agreement(capsys):
    def body():
        assert len(SUITE) >= SUITE_MINIMUM
        for text, syntax, expected in SUITE:
            formula = parse(text, syntax=syntax)
            verdict = is_satisfiable(formula)
            witness, swept = bounded_witness(formula)
            if expected == "sat":
                assert verdict.satisfiable, text
                assert witness is not None, (
                    f"{text}: oracle found nothing within total length {swept}"
                )
            else:
                assert not verdict.satisfiable, text
                assert witness is None, text
        return f"{len(SUITE)} formulas, 100% agreement"

    _gate(capsys, "criterion 2 (satisfiability oracle agreement)", 30.0, body)


def test_criterion_3_witness_soundness_and_identities(capsys):
    def body():
        checked = 0
        for text, syntax, expected in SUITE:
            if expected != "sat":
                continue
            formula = parse(text, syntax=syntax)
            result = is_satisfiable(formula)
            assert evaluate(formula, result.witness), text
            checked += 1
        shapes = [
            Atom("a"),
            And(Atom("a"), Atom("b")),
            Finally(Atom("a")),
            Until(Atom("a"), Atom("b")),
        ]
        for phi in shapes:
            assert equiv(Not(Finally(phi)), Globally(Not(phi)))
            assert equiv(Finally(Finally(phi)), Finally(phi))
            psi = Atom("b")
            assert equiv(Not(And(phi, psi)), Or(Not(phi), Not(psi)))
            assert equiv(Not(Or(phi, psi)), And(Not(phi), Not(psi)))
            negated_until = Not(Until(phi, Atom("c")))
            assert equiv(negated_until, to_nnf(negated_until))
        return f"{checked} witnesses, 4 identity families"

    _gate(capsys, "criterion 3 (witness soundness, equivalence identities)", 10.0, body)


def test_criterion_4_translation_loop_conformance(capsys):
    def body():
        # (a) invalid completion, then a valid one on the re-prompt
        result = run_translate([
            ["LTL: F(a & \nFINISH", completion_for("F(a & F(b))")],
            [completion_for("F(a & F(b))")],
            [completion_for("F(a & F(b))")],
        ])
        assert result.runs[0].retries_used == 1
        assert result.final_formula == Finally(And(Atom("a"), Finally(Atom("b"))))

        # (b) five invalid completions exhaust the run
        result = run_translate([
            ["nothing to extract here"] * 5,
            [completion_for("G(a)")],
            [completion_for("G(a)")],
        ])
        assert result.runs[0].failed
        assert result.runs[0].retries_used == 4
        assert result.decision == DECISION_MAJORITY

        # (c) two of three equivalent renderings form a majority
        result = run_translate([
            [completion_for("F(a)")],
            [completion_for("!(G(!a))")],
            [completion_for("G(a)")],
        ])
        assert result.decision == DECISION_MAJORITY
        assert equiv(result.final_formula, Finally(Atom("a")))

        # (d) three pairwise inequivalent outputs: confidence fallback
        result = run_translate([
            [completion_for("F(a)")],
            [completion_for("G(a)")],
            [completion_for("F(b)")],
        ])
        assert result.decision == DECISION_CONFIDENCE
        assert result.final_formula == Finally(Atom("a"))
        assert result.confidence_scores == {
            "F(a)": 2 / 3,
            "G(a)": 1 / 2,
            "F(b)": 1 / 2,
        }

        # (e) an unsatisfiable candidate never survives the gate
        result = run_translate([
            [completion_for("a & !a"), completion_for("F(a)")],
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        assert is_satisfiable(result.final_formula).satisfiable
        return "scenarios a-e exact"

    _gate(capsys, "criterion 4 (translation loop conformance)", 5.0, body)


def test_criterion_5_evaluation_fixture(capsys, tmp_path):
    def body():
        report = fixture_report(tmp_path)
        assert report.accuracy_semantic == 0.75
        assert report.accuracy_exact == 0.5
        assert report.stddev_semantic == 0.0
        assert dict(report.per_structure) == {
            "F(p)": 1.0,
            "F(p & F(p))": 1.0,
            "!p U p": 1.0,
            "G(!p)": 0.0,
        }
        return "semantic 0.7500, stddev 0.0000"

    _gate(capsys, "criterion 5 (evaluation fixture)", 5.0, body)


def test_criterion_6_prompt_golden_files(capsys):
    def body():
        for name in BUILTIN_PROMPT_SETS:
            text = render(builtin_prompt_set(name))
            golden = (GOLDEN / f"{name}.prompt.txt").read_text(encoding="utf-8")
            assert text == golden, f"{name} drifted from its golden file"
            finish_lines = [ln for ln in text.splitlines() if ln == "FINISH"]
            assert len(finish_lines) == 6, name
        return f"{len(BUILTIN_PROMPT_SETS)} sets byte-identical, 6 FINISH lines each"

    _gate(capsys, "criterion 6 (prompt golden files)", 1.0, body)


def test_criterion_7_planner_fixtures(capsys):
    def body():
        world = builtin_world("demo")
        goal = parse("F(purple_room & F(red_room))")
        trajectory = plan(world, goal)
        assert evaluate(goal, trajectory.trace)
        cells = trajectory.prefix_cells + trajectory.loop_cells
        assert cells.index((1, 1)) < cells.index((4, 4)), "purple before red"

        lonely = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        with pytest.raises(NoPlanError):
            plan(lonely, parse("F(b)"))
        return "demo trajectory certified, unreachable goal refused"

    _gate(capsys, "criterion 7 (planner fixtures)", 1.0, body)


def test_criterion_8_offline_completeness(capsys, request):
    live = os.environ.get("LTLKIT_LIVE_SMOKE") == "1"
    if not live:
        guard = getattr(socket.socket.connect, "__name__", "")
        assert guard == "guarded", "network guard is not installed"
    elapsed = time.monotonic() - request.config._suite_started
    within = elapsed < WHOLE_SUITE_BUDGET
    mode = "live smoke enabled" if live else "network guard active"
    verdict = "PASS" if within else "FAIL"
    _announce(
        capsys,
        f"criterion 8 (offline completeness): {verdict} "
        f"(suite {elapsed:.1f}s, budget {WHOLE_SUITE_BUDGET:g}s) [{mode}]",
    )
    assert within, f"suite took {elapsed:.1f}s, budget {WHOLE_SUITE_BUDGET:g}s"


def test_criterion_9_live_smoke(capsys):
    gate = (
        os.environ.get("LTLKIT_LIVE_SMOKE") == "1"
        and os.environ.get("LTLKIT_API_KEY")
        and os.environ.get("LTLKIT_ENDPOINT")
    )
    if not gate:
        _announce(
            capsys,
            "criterion 9 (live smoke): SKIPPED "
            "(set LTLKIT_LIVE_SMOKE=1, LTLKIT_API_KEY, LTLKIT_ENDPOINT to run)",
        )
        pytest.skip("live smoke disabled")

    backend = HttpBackend(endpoint=os.environ["LTLKIT_ENDPOINT"])
    config = PipelineConfig(generation=config_from_env())
    result = translate(
        "Enter blue room via red room",
        builtin_prompt_set("drone"),
        config,
        backend,
    )
    assert is_satisfiable(result.final_formula).satisfiable
    expected = parse("F(red_room & F(blue_room))")
    match = "yes" if equiv(result.final_formula, expected) else "no"
    got = print_formula(result.final_formula, "infix")
    _announce(
        capsys,
        f"criterion 9 (live smoke): PASS (got {got}; semantic match: {match}, "
        "reported but not asserted)",
    )
