import re
import time

import pytest

from ltlkit.prompts import builtin_prompt_set
from ltlkit.srl import (
    LexiconError,
    Role,
    RoleSpan,
    SpanOverlapError,
    default_lexicon,
    load_lexicon,
    render_annotation,
    tag,
)

_BRACKET = re.compile(r" \[[a-z]+\]")


def roles_of(spans):
    return [s.role for s in spans]


class TestTagging:
    def test_enter_via(self):
        text = "Enter blue room via red room"
        spans = tag(text)
        assert [(s.text, s.role) for s in spans] == [
            ("Enter", Role.VERB),
            ("blue room", Role.DESTINATION),
            ("via red room", Role.PATH),
        ]
        assert spans[0].entry == "enter"

    def test_no_lexicon_hits_yields_nothing(self):
        assert tag("xyzzy") == []

    def test_avoid_until_sentence(self):
        text = "avoid the red room until going to the second floor"
        spans = tag(text)
        assert [(s.text, s.role, s.entry) for s in spans] == [
            ("avoid", Role.NEGATION_MARKER, "avoid"),
            ("the red room", Role.THEME, None),
            ("until", Role.TEMPORAL_MARKER, None),
            ("going", Role.VERB, "go"),
            ("to the second floor", Role.DESTINATION, None),
        ]

    def test_preposition_role_assignment(self):
        spans = tag("go to orange room")
        assert [(s.text, s.role) for s in spans] == [
            ("go", Role.VERB),
            ("to orange room", Role.DESTINATION),
        ]

    def test_leading_noun_phrase_is_agent(self):
        spans = tag("The robot must go to the red room")
        assert spans[0] == RoleSpan("The robot", Role.AGENT, 0, 9)
        assert Role.VERB in roles_of(spans)

    def test_offsets_are_valid(self):
        text = "Visit the purple room before the red room"
        spans = tag(text)
        for s in spans:
            assert 0 <= s.start < s.end <= len(text)
            assert text[s.start:s.end] == s.text
        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        for left, right in zip(spans, spans[1:]):
            assert left.end <= right.start

    def test_deterministic(self):
        text = "Pick up the cup from the kitchen and place it on the table"
        assert tag(text) == tag(text)

    def test_case_insensitive_lookup(self):
        upper = tag("ENTER BLUE ROOM VIA RED ROOM")
        lower = tag("enter blue room via red room")
        assert roles_of(upper) == roles_of(lower)

    def test_suffix_lemmatization(self):
        assert tag("going to the lab")[0].entry == "go"
        assert tag("moves the box")[0].entry == "move"
        assert tag("entered the room")[0].entry == "enter"

    def test_particle_joins_verb(self):
        spans = tag("Pick up the cup")
        assert spans[0].text == "Pick up"
        assert spans[0].role is Role.VERB
        assert spans[0].entry == "pick"

    def test_multiword_negation_marker(self):
        spans = tag("Always stay away from the hallway")
        assert (spans[0].text, spans[0].role) == ("Always", Role.TEMPORAL_MARKER)
        assert (spans[1].text, spans[1].role) == ("stay away", Role.NEGATION_MARKER)
        assert (spans[2].text, spans[2].role) == ("from the hallway", Role.SOURCE)

    def test_temporal_marker_carries_frame_forward(self):
        spans = tag("Visit the purple room before the red room")
        assert [(s.text, s.role) for s in spans] == [
            ("Visit", Role.VERB),
            ("the purple room", Role.DESTINATION),
            ("before", Role.TEMPORAL_MARKER),
            ("the red room", Role.DESTINATION),
        ]

    def test_punctuation_breaks_phrases(self):
        spans = tag("Go to the yellow room.")
        assert spans[-1].text == "to the yellow room"
        assert spans[-1].end == len("Go to the yellow room")

    def test_long_and_chain_is_linear(self):
        # An "and" is a boundary only if the token after it is; a chain of
        # thousands must neither recurse per "and" nor rescan the chain.
        text = "go to the " + "and " * 5000 + "room"
        started = time.process_time()
        spans = tag(text)
        assert time.process_time() - started < 1.0
        assert spans == [
            RoleSpan("go", Role.VERB, 0, 2, "go"),
            RoleSpan(text[3:], Role.DESTINATION, 3, len(text)),
        ]


class TestRendering:
    def test_bracketed_output(self):
        text = "Enter blue room via red room"
        assert render_annotation(text, tag(text)) == (
            "Enter [verb] blue room [destination] via red room [path]"
        )

    def test_empty_spans_leave_text_unchanged(self):
        assert render_annotation("anything at all", []) == "anything at all"

    def test_trailing_punctuation_survives(self):
        text = "Go to the yellow room."
        assert render_annotation(text, tag(text)) == (
            "Go [verb] to the yellow room [destination]."
        )

    @pytest.mark.parametrize("text", [
        "Enter blue room via red room",
        "avoid the red room until going to the second floor",
        "Pick up the cup from the kitchen and place it on the table",
        "The robot must go to the red room, then visit the hallway.",
    ])
    def test_stripping_brackets_recovers_instruction(self, text):
        rendered = render_annotation(text, tag(text))
        assert _BRACKET.sub("", rendered) == text

    def test_overlapping_spans_rejected(self):
        a = RoleSpan("blue room", Role.DESTINATION, 6, 15)
        b = RoleSpan("room via", Role.PATH, 11, 19)
        with pytest.raises(SpanOverlapError):
            render_annotation("Enter blue room via red room", [a, b])


class TestLexicon:
    def test_default_lexicon_contents(self):
        lex = default_lexicon()
        assert lex.prepositions["to"] is Role.DESTINATION
        assert lex.prepositions["via"] is Role.PATH
        assert lex.prepositions["from"] is Role.SOURCE
        assert lex.verbs["enter"] is Role.DESTINATION
        assert lex.verbs["go"] is None
        assert ("stay", "away") in lex.negation

    def test_default_lexicon_is_parsed_once_and_read_only(self):
        lex = default_lexicon()
        assert default_lexicon() is lex
        with pytest.raises(TypeError):
            lex.verbs["go"] = Role.DESTINATION
        with pytest.raises(TypeError):
            lex.prepositions["to"] = Role.SOURCE
        assert lex.verbs["go"] is None
        assert lex.prepositions["to"] is Role.DESTINATION

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(
            "# tiny lexicon\n"
            "[verbs]\n"
            "go -\n"
            "visit destination\n"
            "[prepositions]\n"
            "to destination\n"
            "[temporal]\n"
            "then\n"
            "[negation]\n"
            "stay away\n",
            encoding="utf-8",
        )
        lex = load_lexicon(path)
        assert lex.verbs == {"go": None, "visit": Role.DESTINATION}
        spans = tag("visit the lab, then go to the office", lexicon=lex)
        assert roles_of(spans) == [
            Role.VERB, Role.DESTINATION, Role.TEMPORAL_MARKER,
            Role.VERB, Role.DESTINATION,
        ]

    @pytest.mark.parametrize("body,lineno,fragment", [
        ("[nouns]\n", 1, "unknown section"),
        ("go -\n", 1, "before any section"),
        ("[verbs]\ngo\n", 2, "expected 'lemma role'"),
        ("[verbs]\ngo widget\n", 2, "unknown role"),
        ("[prepositions]\nto\n", 2, "expected 'word role'"),
        ("[verbs]\ngo destination\nGo -\n", 3, "verb 'Go' listed twice"),
        ("[prepositions]\nto destination\nto path\n", 3, "preposition 'to' listed twice"),
    ])
    def test_malformed_files(self, tmp_path, body, lineno, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(LexiconError) as exc:
            load_lexicon(path)
        assert fragment in str(exc.value)
        assert f"{path}:{lineno}" in str(exc.value)

    def test_file_that_is_not_utf8_is_a_lexicon_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"[verbs]\ngo \xff\n")
        with pytest.raises(LexiconError, match="not UTF-8 text") as exc:
            load_lexicon(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_marker_index_is_built_once_per_lexicon(self, tmp_path):
        path = tmp_path / "markers.txt"
        path.write_text(
            "[verbs]\ngo -\n[temporal]\nthen\nand then\n[negation]\nnever\n",
            encoding="utf-8",
        )
        lex = load_lexicon(path)
        negation, temporal = lex._marker_index
        assert lex._marker_index[0] is negation
        assert dict(negation) == {"never": (("never",),)}
        assert dict(temporal) == {"then": (("then",),), "and": (("and", "then"),)}
        assert load_lexicon(path)._marker_index[1] is not temporal
        spans = tag("go north and then never go south", lexicon=lex)
        assert [(s.text, s.role) for s in spans if s.role is not Role.VERB] == [
            ("and then", Role.TEMPORAL_MARKER), ("never", Role.NEGATION_MARKER),
        ]

    def test_lemma_lookup_is_lowercased_at_load(self, tmp_path):
        path = tmp_path / "caps.txt"
        path.write_text("[verbs]\nVISIT destination\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert "visit" in lex.verbs


class TestPromptSetCoverage:
    CONTENT_ROLES = {Role.DESTINATION, Role.THEME, Role.PATH}

    @pytest.mark.parametrize("name", ["drone", "cleanup", "pickplace"])
    def test_every_shipped_example_gets_a_content_span(self, name):
        bundle = builtin_prompt_set(name)
        for example in bundle.examples:
            spans = tag(example.specification)
            assert self.CONTENT_ROLES & set(roles_of(spans)), (
                example.specification
            )
