from pathlib import Path

import pytest

from ltlkit.formulas import Atom, Finally, Release
from ltlkit.parsing import ParseError, print_formula
from ltlkit.prompts import (
    BUILTIN_PROMPT_SETS,
    CoTExample,
    ExtractionError,
    PromptBundle,
    PromptHeader,
    PromptValidationError,
    builtin_prompt_set,
    extract_formula,
    load_prompt_set,
    render,
    render_reprompt,
    validate_bundle,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def tiny_bundle(**overrides) -> PromptBundle:
    header = PromptHeader(
        instruction_text="Translate the specification into an LTL formula.",
        allowed_aps=("a", "b"),
        allowed_operators=("F", "G", "U", "&", "|", "!"),
        output_syntax="infix",
    )
    example = CoTExample(
        specification="go to a",
        srl_annotation="go [verb] to a [destination]",
        subgoals=(("What must eventually hold?", "a"),),
        final_ltl=Finally(Atom("a")),
    )
    fields = {"header": header, "examples": (example,), "shots": 1}
    fields.update(overrides)
    return PromptBundle(**fields)


class TestGoldenRenders:
    @pytest.mark.parametrize("name", BUILTIN_PROMPT_SETS)
    def test_render_matches_golden_bytes(self, name):
        rendered = render(builtin_prompt_set(name))
        golden = (GOLDEN_DIR / f"{name}.prompt.txt").read_bytes()
        assert rendered.encode("utf-8") == golden

    @pytest.mark.parametrize("name", BUILTIN_PROMPT_SETS)
    def test_exactly_six_finish_lines(self, name):
        rendered = render(builtin_prompt_set(name))
        assert sum(1 for ln in rendered.splitlines() if ln == "FINISH") == 6

    @pytest.mark.parametrize("name", BUILTIN_PROMPT_SETS)
    def test_six_examples_each_with_subgoals(self, name):
        bundle = builtin_prompt_set(name)
        assert len(bundle.examples) == 6
        for ex in bundle.examples:
            assert ex.subgoals
            assert ex.srl_annotation

    def test_unknown_builtin_name(self):
        with pytest.raises(ValueError):
            builtin_prompt_set("warehouse")


class TestRendering:
    def test_empty_test_slot_renders_nothing_after_examples(self):
        rendered = render(tiny_bundle())
        assert rendered.endswith("LTL: F(a)\nFINISH\n")
        assert rendered.count("Specification:") == 1

    def test_test_slot_appended_last(self):
        bundle = tiny_bundle().with_test("eventually reach b")
        rendered = render(bundle)
        assert rendered.endswith("\nSpecification: eventually reach b\n")

    def test_test_srl_line_included_when_given(self):
        bundle = tiny_bundle().with_test("reach b", srl="reach [verb] b [destination]")
        rendered = render(bundle)
        assert rendered.endswith(
            "Specification: reach b\nSRL: reach [verb] b [destination]\n"
        )

    def test_with_test_leaves_original_untouched(self):
        base = tiny_bundle()
        base.with_test("reach b")
        assert base.test_specification == ""

    def test_header_lines(self):
        lines = render(tiny_bundle()).splitlines()
        assert lines[1] == "Allowed atomic propositions: a, b"
        assert lines[2] == "Allowed operators: F, G, U, &, |, !"

    def test_prefix_syntax_prints_prefix_formulas(self):
        header = PromptHeader(
            instruction_text="x", allowed_aps=("a",),
            allowed_operators=("F",), output_syntax="prefix",
        )
        bundle = tiny_bundle(header=header)
        assert "LTL: F a\n" in render(bundle)

    def test_render_is_deterministic(self):
        bundle = builtin_prompt_set("drone").with_test("visit the pad")
        assert render(bundle) == render(bundle)

    @pytest.mark.parametrize("name", BUILTIN_PROMPT_SETS)
    def test_prompt_set_loaded_twice_renders_identically(self, name):
        first, second = builtin_prompt_set(name), builtin_prompt_set(name)
        assert first is not second
        golden = (GOLDEN_DIR / f"{name}.prompt.txt").read_text("utf-8")
        assert render(first.with_test("visit the pad")) == (
            golden + "\nSpecification: visit the pad\n"
        )
        assert render(second) == render(first) == golden

    def test_invalid_bundle_raises_on_every_render(self):
        bundle = tiny_bundle(shots=2).with_test("reach b")
        messages = []
        for _ in range(2):
            with pytest.raises(PromptValidationError) as exc:
                render(bundle)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "declares 2 shots" in messages[0]


class TestReprompt:
    def test_original_render_is_exact_prefix(self):
        bundle = tiny_bundle().with_test("reach b")
        base = render(bundle)
        reprompt = render_reprompt(bundle, "LTL: F(\nFINISH", "unexpected end of input")
        assert reprompt.startswith(base)

    def test_correction_block_contents(self):
        bundle = tiny_bundle().with_test("reach b")
        reprompt = render_reprompt(bundle, "LTL: X(a)", "operator X is not supported")
        tail = reprompt[len(render(bundle)):]
        assert "The previous attempt was rejected." in tail
        assert "LTL: X(a)" in tail
        assert "Checker error: operator X is not supported" in tail
        assert "FINISH" in tail


class TestExtraction:
    def test_simple_completion(self):
        f = extract_formula("Subgoal 1: ...\nLTL: F(a & b)\nFINISH", "infix")
        assert print_formula(f) == "F(a & b)"

    def test_last_ltl_line_wins(self):
        completion = "LTL: F(a)\nno wait\nLTL: G(b)\nFINISH"
        assert print_formula(extract_formula(completion, "infix")) == "G(b)"

    def test_text_after_finish_ignored(self):
        completion = "LTL: F(a)\nFINISH\nLTL: G(b)\nFINISH"
        assert print_formula(extract_formula(completion, "infix")) == "F(a)"

    def test_marker_casing_and_spacing(self):
        assert print_formula(extract_formula(" ltl : a U b", "infix")) == "a U b"

    def test_missing_ltl_line(self):
        with pytest.raises(ExtractionError):
            extract_formula("I think the answer is F(a)\nFINISH", "infix")

    def test_empty_formula_after_marker(self):
        with pytest.raises(ExtractionError):
            extract_formula("LTL:\nFINISH", "infix")

    def test_parse_error_names_the_line(self):
        with pytest.raises(ParseError) as exc:
            extract_formula("LTL: F(a\nFINISH", "infix")
        assert "F(a" in str(exc.value)

    def test_parse_error_message_is_the_same_on_every_call(self):
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                extract_formula("LTL: G(a &\nFINISH", "infix")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].count("(in extracted line 'G(a &')") == 1

    def test_prefix_extraction(self):
        f = extract_formula("LTL: F & Y F C\nFINISH", "prefix")
        assert print_formula(f) == "F(Y & F(C))"


class TestValidation:
    def test_valid_bundle_passes(self):
        validate_bundle(tiny_bundle())

    def test_shot_count_mismatch(self):
        with pytest.raises(PromptValidationError) as exc:
            validate_bundle(tiny_bundle(shots=6))
        assert "6 shots" in str(exc.value)

    def test_stray_atom_rejected(self):
        bad = CoTExample("spec", "srl", (("q", "a"),), Finally(Atom("z")))
        with pytest.raises(PromptValidationError) as exc:
            validate_bundle(tiny_bundle(examples=(bad,)))
        assert "atoms outside the header" in str(exc.value)

    def test_disallowed_operator_rejected(self):
        header = PromptHeader("x", ("a",), ("G",), "infix")
        bad = CoTExample("spec", "srl", (("q", "a"),), Finally(Atom("a")))
        with pytest.raises(PromptValidationError) as exc:
            validate_bundle(tiny_bundle(header=header, examples=(bad,)))
        assert "operators outside the header" in str(exc.value)

    def test_empty_subgoals_rejected(self):
        bad = CoTExample("spec", "srl", (), Finally(Atom("a")))
        with pytest.raises(PromptValidationError):
            validate_bundle(tiny_bundle(examples=(bad,)))

    def test_bad_syntax_rejected(self):
        header = PromptHeader("x", ("a",), ("F",), "polish")
        with pytest.raises(PromptValidationError):
            validate_bundle(tiny_bundle(header=header))

    @pytest.mark.parametrize("overrides,message", [
        ({"header": PromptHeader("x", ("a", "bad name"), ("F",), "infix")},
         "invalid atomic proposition name 'bad name'"),
        ({"header": PromptHeader("x", ("a",), ("F", "X"), "infix")},
         "unknown operators in header: ['X']"),
        ({"examples": (CoTExample("s", "r", (("q\nmore", "a"),), Finally(Atom("a"))),)},
         "example 1 has a multi-line subgoal"),
        ({"examples": (CoTExample("s", "r", (("q", "a"),), Release(Atom("a"), Atom("b"))),)},
         "example 1: Release has no surface token"),
    ], ids=["atom name", "unknown operator", "multi-line subgoal", "release"])
    def test_rejected_bundles(self, overrides, message):
        with pytest.raises(PromptValidationError) as exc:
            validate_bundle(tiny_bundle(**overrides))
        assert str(exc.value) == message


PROMPT_SET_TEXT = """\
[header]
instruction: Translate.
aps: a, b
operators: F, G, U, &, |, !
syntax: infix
shots: 2

[example]
spec: go to a
srl: go [verb] to a [destination]
q: What must hold?
a: a, eventually
ltl: F(a)

[example]
spec: stay in b
srl: stay [verb] in b [location]
q: What must hold forever?
a: b
ltl: G(b)
"""


class TestLoader:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "tiny.prompts"
        path.write_text(PROMPT_SET_TEXT, encoding="utf-8")
        bundle = load_prompt_set(path)
        assert bundle.shots == 2
        assert bundle.header.allowed_aps == ("a", "b")
        assert print_formula(bundle.examples[1].final_ltl) == "G(b)"
        assert bundle.examples[0].subgoals == (("What must hold?", "a, eventually"),)

    @pytest.mark.parametrize("mutation,fragment", [
        (("ltl: F(a)", "ltl: F(a\n"), "bad ltl line"),
        (("q: What must hold?", "z: What must hold?"), "unknown key 'z'"),
        (("spec: go to a", "spec go to a"), "unrecognised line"),
        (("shots: 2", "shots: two"), "bad.prompts:6: shots must be an integer"),
        (("a: a, eventually\n", ""), "question without an answer"),
        (("srl: go [verb] to a [destination]\n", ""),
         "bad.prompts:8: example is missing srl"),
        (("shots: 2", "shots: 2\ncolour: red"),
         "bad.prompts:7: unknown header key 'colour'"),
        (("a: a, eventually", "q: And then?"),
         "bad.prompts:12: two questions without an answer"),
        (("q: What must hold?\n", ""), "bad.prompts:11: answer without a question"),
        (("srl: go [verb] to a [destination]", "spec: go to b"),
         "bad.prompts:10: duplicate 'spec' line"),
        # The header comes first and once, and names each key once.
        (("ltl: G(b)\n", "ltl: G(b)\n[header]\ninstruction: Other.\n"),
         "bad.prompts:21: misplaced [header]"),
        (("[header]\n", "[example]\nspec: go to a\n[header]\n"),
         "bad.prompts:1: misplaced [example]"),
        (("[header]\n", "[header]\n[header]\n"), "bad.prompts:2: misplaced [header]"),
        (("shots: 2", "shots: 2\naps: c"), "bad.prompts:7: duplicate 'aps' line"),
        (("syntax: infix\n", ""), "bad.prompts: header is missing 'syntax'"),
        (("syntax: infix", "syntax: postfix"),
         "bad.prompts:5: header syntax must be infix or prefix, not 'postfix'"),
    ])
    def test_malformed_sets(self, tmp_path, mutation, fragment):
        old, new = mutation
        path = tmp_path / "bad.prompts"
        path.write_text(PROMPT_SET_TEXT.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(PromptValidationError) as exc:
            load_prompt_set(path)
        assert fragment in str(exc.value)

    def test_file_that_is_not_utf8_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.prompts"
        path.write_bytes(PROMPT_SET_TEXT.encode().replace(b"go to a", b"go to \xe9"))
        with pytest.raises(PromptValidationError, match="not UTF-8 text") as exc:
            load_prompt_set(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.prompts"
        path.write_text(
            PROMPT_SET_TEXT.replace("syntax: infix\n", "", 1), encoding="utf-8"
        )
        with pytest.raises(PromptValidationError) as exc:
            load_prompt_set(path)
        assert "syntax" in str(exc.value)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "tiny.prompts"
        path.write_text("# leading comment\n\n" + PROMPT_SET_TEXT, encoding="utf-8")
        assert len(load_prompt_set(path).examples) == 2
