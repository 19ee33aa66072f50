import concurrent.futures
import json
import threading

import pytest

from ltlkit import automata, pipeline
from ltlkit.automata import ResourceLimitError, is_satisfiable
from ltlkit.formulas import And, Atom, Finally, Globally, atoms
from ltlkit.gateway import (
    Completion,
    GenerationConfig,
    MockBackend,
    ProviderError,
    ReplayBackend,
    ReplayStore,
)
from ltlkit.parsing import parse, print_formula
from ltlkit.pipeline import (
    DECISION_CONFIDENCE,
    DECISION_MAJORITY,
    AllRunsFailedError,
    NoMajorityError,
    PipelineConfig,
    TranslationResult,
    confidence_scores,
    translate,
    vote,
)
from ltlkit.prompts import CoTExample, PromptBundle, PromptHeader, render

from helpers import completion_for


def tiny_bundle() -> PromptBundle:
    header = PromptHeader(
        instruction_text="Translate the specification into an LTL formula.",
        allowed_aps=("a", "b", "red_room"),
        allowed_operators=("F", "G", "U", "&", "|", "!"),
        output_syntax="infix",
    )
    example = CoTExample(
        specification="go to a",
        srl_annotation="go [verb] to a [destination]",
        subgoals=(("What must eventually hold?", "a"),),
        final_ltl=Finally(Atom("a")),
    )
    return PromptBundle(header=header, examples=(example,), shots=1)


def run_translate(scripts, **config_kwargs) -> TranslationResult:
    config = PipelineConfig(**config_kwargs)
    backend = MockBackend(scripts=scripts)
    return translate("reach a then b", tiny_bundle(), config, backend)


class TestScriptedScenarios:
    def test_invalid_then_valid_completion(self):
        # Scenario (a): the first run needs one re-prompt, the others
        # are immediately valid.
        result = run_translate([
            ["LTL: F(a & \nFINISH", completion_for("F(a & F(b))")],
            [completion_for("F(a & F(b))")],
            [completion_for("F(a & F(b))")],
        ])
        assert result.decision == DECISION_MAJORITY
        assert result.final_formula == Finally(And(Atom("a"), Finally(Atom("b"))))
        assert result.runs[0].retries_used == 1
        assert result.runs[1].retries_used == 0
        assert not any(r.failed for r in result.runs)

    def test_persistently_invalid_run_fails(self):
        # Scenario (b): five garbage completions exhaust the attempt
        # budget for run 0; the other runs still carry the vote.
        result = run_translate([
            ["no formula here"] * 5,
            [completion_for("G(a)")],
            [completion_for("G(a)")],
        ])
        run = result.runs[0]
        assert run.failed
        assert run.formula is None
        assert run.retries_used == 4
        assert len(run.transcripts) == 5
        assert result.decision == DECISION_MAJORITY
        assert result.final_formula == Globally(Atom("a"))

    def test_two_of_three_majority(self):
        # Scenario (c): two runs agree up to equivalence, the third
        # disagrees; the first-collected member of the winning class is
        # returned verbatim.
        result = run_translate([
            [completion_for("F(a)")],
            [completion_for("!(G(!a))")],
            [completion_for("G(a)")],
        ])
        assert result.decision == DECISION_MAJORITY
        assert print_formula(result.final_formula) == "F(a)"
        assert result.confidence_scores == {}

    def test_confidence_fallback_arithmetic(self):
        # Scenario (d): {F(a), G(a), F(b)} are pairwise inequivalent.
        # Token frequencies are F:2/3, G:1/3, a:2/3, b:1/3, so the mean
        # scores come out at 2/3, 1/2 and 1/2.
        result = run_translate([
            [completion_for("F(a)")],
            [completion_for("G(a)")],
            [completion_for("F(b)")],
        ])
        assert result.decision == DECISION_CONFIDENCE
        assert print_formula(result.final_formula) == "F(a)"
        assert result.confidence_scores == {
            "F(a)": 2 / 3,
            "G(a)": 1 / 2,
            "F(b)": 1 / 2,
        }

    def test_output_always_passes_the_gate(self):
        # Scenario (e): whatever mix of invalid, unsatisfiable and valid
        # completions the runs produce, the returned formula parses and
        # is satisfiable.
        scripted = [
            ["LTL: F(a &\nFINISH", completion_for("a & !a"), completion_for("F(a)")],
            ["word soup", completion_for("G(b)")],
            [completion_for("b U a")],
        ]
        result = run_translate(scripted)
        assert is_satisfiable(result.final_formula).satisfiable

    def test_unsatisfiable_candidates_trigger_reprompts(self):
        result = run_translate([
            [completion_for("a & !a"), completion_for("F(a)")],
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        assert result.runs[0].retries_used == 1
        reprompt = result.runs[0].transcripts[1][0]
        assert "unsatisfiable" in reprompt

    def test_deeply_nested_completion_is_reprompted(self):
        result = run_translate(
            [["LTL: " + "!" * 3000 + "red_room", completion_for("F(red_room)")]],
            k=1,
        )
        run = result.runs[0]
        assert run.retries_used == 1
        assert "nested deeper than" in run.transcripts[1][0]
        assert result.final_formula == Finally(Atom("red_room"))

    def test_reprompts_extend_the_base_prompt(self):
        result = run_translate([
            ["garbage", "more garbage", completion_for("F(a)")],
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        base = result.runs[0].transcripts[0][0]
        for prompt, _ in result.runs[0].transcripts:
            assert prompt.startswith(base)


class TestVote:
    CONFIG = PipelineConfig()

    def test_unanimity(self):
        f = parse("F(a)")
        outcome = vote([f, f, f], self.CONFIG)
        assert outcome.decision == DECISION_MAJORITY
        assert outcome.formula == f

    def test_majority_returns_first_collected_member(self):
        outcome = vote(
            [parse("!(G(!a))"), parse("G(a)"), parse("F(a)")], self.CONFIG
        )
        assert outcome.decision == DECISION_MAJORITY
        assert print_formula(outcome.formula) == "!G(!a)"

    def test_vote_invariance_under_syntactic_variation(self):
        base = [parse("F(a)"), parse("F(a)"), parse("G(b)")]
        variant = [parse("F(a)"), parse("!(G(!a))"), parse("G(b)")]
        chosen_base = vote(base, self.CONFIG)
        chosen_variant = vote(variant, self.CONFIG)
        assert chosen_base.decision == DECISION_MAJORITY
        assert chosen_variant.decision == DECISION_MAJORITY
        from ltlkit.automata import equiv
        assert equiv(chosen_base.formula, chosen_variant.formula)

    def test_fallback_tie_breaks_lexicographically(self):
        outcome = vote(
            [parse("G(b)"), parse("c U c"), parse("F(a)")], self.CONFIG
        )
        assert outcome.decision == DECISION_CONFIDENCE
        assert print_formula(outcome.formula) == "F(a)"
        assert set(outcome.confidence_scores.values()) == {1 / 3}

    def test_error_mode_raises(self):
        config = PipelineConfig(on_no_majority="error")
        with pytest.raises(NoMajorityError) as exc:
            vote([parse("F(a)"), parse("G(a)"), parse("F(b)")], config)
        assert exc.value.confidence_scores["F(a)"] == 2 / 3

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            vote([], self.CONFIG)

    def test_undecidable_candidate_forms_its_own_class(self, monkeypatch):
        big = parse("G(F(a)) & G(F(b))")

        def capped_equiv(f, g):
            if big in (f, g):
                raise ResourceLimitError(10)
            return f == g

        monkeypatch.setattr(pipeline, "equiv", capped_equiv)
        outcome = vote([big, parse("F(a)"), parse("F(a)")], self.CONFIG)
        assert outcome.decision == DECISION_MAJORITY
        assert outcome.formula == parse("F(a)")
        outcome = vote([parse("F(a)"), big, big], self.CONFIG)
        assert outcome.decision == DECISION_CONFIDENCE


class TestConfidenceScores:
    def test_tokens_deduplicated_per_candidate(self):
        # F(a & F(b)) contributes F once despite two occurrences.
        scores = confidence_scores([parse("F(a & F(b))"), parse("F(a)")])
        # Tokens of the first: {F, &, a, b}; counts F=2, &=1, a=2, b=1.
        assert scores["F(a & F(b))"] == (2 + 1 + 2 + 1) / (4 * 2)
        assert scores["F(a)"] == (2 + 2) / (2 * 2)

    def test_duplicate_renderings_collapse(self):
        scores = confidence_scores([parse("F(a)"), parse("F(a)"), parse("G(b)")])
        assert set(scores) == {"F(a)", "G(b)"}


class TestTranslateMechanics:
    def test_all_runs_failed(self):
        with pytest.raises(AllRunsFailedError) as exc:
            run_translate([["x"] * 5, ["y"] * 5, ["z"] * 5])
        assert len(exc.value.runs) == 3
        assert all(r.failed for r in exc.value.runs)

    def test_gate_over_the_state_cap_rejects_the_candidate(self, monkeypatch):
        monkeypatch.setattr(automata, "STATE_CAP", 2)
        is_satisfiable.cache_clear()  # another test may have decided it
        error = "satisfiability check gave up: automaton construction exceeded 2 states"
        with pytest.raises(AllRunsFailedError) as exc:
            run_translate([[completion_for("G(F(a)) & G(F(b))")] * 2],
                          k=1, max_retries_per_run=2)
        (run,) = exc.value.runs
        assert (run.failed, run.error, run.retries_used) == (True, error, 1)
        assert f"Checker error: {error}" in run.transcripts[1][0].splitlines()
        assert str(exc.value) == f"all 1 runs failed (run 0: {error})"

    def test_gateway_error_fails_only_its_run(self):
        result = run_translate([
            [ProviderError("scripted outage", status=503)],
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        assert result.runs[0].failed
        assert result.runs[0].error.startswith("gateway:")
        assert result.runs[0].transcripts[-1][1] == ""
        assert result.decision == DECISION_MAJORITY

    def test_no_majority_error_carries_runs(self):
        with pytest.raises(NoMajorityError) as exc:
            run_translate(
                [[completion_for("F(a)")], [completion_for("G(a)")],
                 [completion_for("F(b)")]],
                on_no_majority="error",
            )
        assert len(exc.value.runs) == 3

    def test_bit_deterministic_with_scripts(self):
        scripts = [
            ["noise", completion_for("F(a)")],
            [completion_for("G(a)")],
            [completion_for("F(a)")],
        ]
        first = run_translate(scripts)
        second = run_translate(scripts)
        assert first.to_dict() == second.to_dict()
        assert [r.transcripts for r in first.runs] == [r.transcripts for r in second.runs]

    def test_attempt_budget_bounds_gateway_calls(self):
        backend = MockBackend(queue=["junk"] * 20)
        config = PipelineConfig(k=1, max_retries_per_run=5)
        with pytest.raises(AllRunsFailedError):
            translate("reach a", tiny_bundle(), config, backend)
        assert len(backend.calls) == 5

    def test_reasoning_chains_are_successful_completions(self):
        result = run_translate([
            ["oops"] * 5,
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        assert result.reasoning_chains == (
            completion_for("F(a)"), completion_for("F(a)")
        )
        assert result.runs[0].reasoning == ""

    def test_empty_specification_rejected(self):
        backend = MockBackend(queue=[])
        with pytest.raises(ValueError):
            translate("   ", tiny_bundle(), PipelineConfig(), backend)

    def test_prefilled_test_slot_rejected(self):
        backend = MockBackend(queue=[])
        bundle = tiny_bundle().with_test("already set")
        with pytest.raises(ValueError):
            translate("reach a", bundle, PipelineConfig(), backend)


def replay_backend(tmp_path, specification, formula_text, config):
    store = ReplayStore(tmp_path / "replay.jsonl")
    prompt = render(tiny_bundle().with_test(specification))
    store.put(prompt, config.generation, completion_for(formula_text))
    return ReplayBackend(store)


class TestRunScheduling:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an in-memory backend must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)

    def test_scripted_mock_runs_inline(self, no_pool):
        result = run_translate(
            [["noise", completion_for("F(a)")]] + [[completion_for("F(a)")]] * 4,
            k=5,
        )
        assert result.decision == DECISION_MAJORITY
        assert [r.retries_used for r in result.runs] == [1, 0, 0, 0, 0]

    def test_replay_runs_inline(self, tmp_path, no_pool):
        config = PipelineConfig(k=5)
        backend = replay_backend(tmp_path, "reach a", "G(a)", config)
        result = translate("reach a", tiny_bundle(), config, backend)
        assert result.final_formula == Globally(Atom("a"))
        assert len(result.runs) == 5 and not any(r.failed for r in result.runs)

    def test_queue_mode_serves_runs_in_order(self):
        # Run 0 takes its retry before run 1 takes anything.
        backend = MockBackend(queue=[
            "junk", completion_for("F(a)"),
            completion_for("G(b)"),
            completion_for("F(a)"),
        ])
        result = translate("reach a", tiny_bundle(), PipelineConfig(k=3), backend)
        assert [r.formula for r in result.runs] == [
            Finally(Atom("a")), Globally(Atom("b")), Finally(Atom("a")),
        ]
        assert [r.retries_used for r in result.runs] == [1, 0, 0]
        assert backend.calls[1].startswith(backend.calls[0])
        assert backend.calls[2:] == [backend.calls[0]] * 2

    def test_inline_runs_decide_a_shared_candidate_once(self, tmp_path):
        config = PipelineConfig(k=3)
        backend = replay_backend(tmp_path, "reach a", "F(a & F(b))", config)
        is_satisfiable.cache_clear()
        translate("reach a", tiny_bundle(), config, backend)
        info = is_satisfiable.cache_info()
        assert info.misses == info.currsize
        assert info.hits >= 2

    def test_other_backends_run_concurrently(self):
        # Each run blocks until all three are inside ``complete``, which
        # only a pool of three threads can bring about.
        barrier = threading.Barrier(3, timeout=10)

        class LiveLike:
            def complete(self, prompt, generation):
                barrier.wait()
                return Completion(text=completion_for("F(a)"))

        result = translate("reach a", tiny_bundle(), PipelineConfig(k=3), LiveLike())
        assert result.final_formula == Finally(Atom("a"))
        assert not barrier.broken


class TestSrlInjection:
    def test_annotation_appended_when_enabled(self):
        backend = MockBackend(queue=[completion_for("F(red_room)")])
        config = PipelineConfig(k=1, inject_test_srl=True)
        translate("go to the red room", tiny_bundle(), config, backend)
        prompt = backend.calls[0]
        assert prompt.endswith(
            "Specification: go to the red room\n"
            "SRL: go [verb] to the red room [destination]\n"
        )

    def test_long_and_chain_is_annotated(self):
        text = "go to the " + "and " * 5000 + "room"
        backend = MockBackend(queue=[completion_for("F(red_room)")])
        config = PipelineConfig(k=1, inject_test_srl=True)
        result = translate(text, tiny_bundle(), config, backend)
        assert result.final_formula == Finally(Atom("red_room"))
        assert backend.calls[0].endswith(f"SRL: go [verb] {text[3:]} [destination]\n")

    def test_no_annotation_by_default(self):
        backend = MockBackend(queue=[completion_for("F(red_room)")])
        config = PipelineConfig(k=1)
        translate("go to the red room", tiny_bundle(), config, backend)
        assert backend.calls[0].endswith("Specification: go to the red room\n")

    def test_base_prompt_matches_bundle_render(self):
        backend = MockBackend(queue=[completion_for("F(red_room)")])
        config = PipelineConfig(k=1)
        translate("go to the red room", tiny_bundle(), config, backend)
        expected = render(tiny_bundle().with_test("go to the red room"))
        assert backend.calls[0] == expected


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"k": 2},
        {"k": 0},
        {"k": -3},
        {"max_retries_per_run": 0},
        {"on_no_majority": "shrug"},
    ])
    def test_rejected_configs(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_generation_config_embedded(self):
        config = PipelineConfig(generation=GenerationConfig(temperature=0.0))
        assert config.generation.temperature == 0.0


class TestReporting:
    def test_to_dict_shape(self):
        result = run_translate([
            [completion_for("F(a)")],
            [completion_for("F(a)")],
            [completion_for("G(b)")],
        ])
        data = result.to_dict()
        assert data["final_formula"] == "F(a)"
        assert data["decision"] == DECISION_MAJORITY
        assert [r["index"] for r in data["runs"]] == [0, 1, 2]
        assert atoms(result.final_formula) == {"a"}

    def test_to_dict_is_json_and_runs_keep_transcripts(self):
        result = run_translate([
            ["noise", completion_for("F(a)")],
            [completion_for("F(a)")],
            [completion_for("F(a)")],
        ])
        data = result.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert "transcripts" not in data["runs"][0]
        assert [len(r.transcripts) for r in result.runs] == [2, 1, 1]
