import random
import time

import pytest

from ltlkit.formulas import And, Atom, Finally, Globally, Not, Or, Release, Until
from ltlkit.parsing import (
    MAX_NESTING,
    PARSE_MEMO_MAX_TEXT,
    InternalOperatorError,
    ParseError,
    UnknownOperatorError,
    _parse_memo,
    _tokenize,
    parse,
    print_formula,
)

from helpers import random_formula


class TestInfixParsing:
    def test_precedence_or_weakest(self):
        assert parse("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_until_binds_tighter_than_and(self):
        assert parse("a & b U c") == And(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_until_right_associative(self):
        assert parse("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_parentheses_override(self):
        assert parse("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_negation_tightest(self):
        assert parse("!a U b") == Until(Not(Atom("a")), Atom("b"))
        assert parse("!(a U b)") == Not(Until(Atom("a"), Atom("b")))

    def test_temporal_operators(self):
        assert parse("F(a)") == Finally(Atom("a"))
        assert parse("G(a & b)") == Globally(And(Atom("a"), Atom("b")))
        assert parse("F G a") == Finally(Globally(Atom("a")))

    def test_quoted_drone_formula(self):
        f = parse("!(red_room) U (second_floor)")
        assert f == Until(Not(Atom("red_room")), Atom("second_floor"))

    def test_nested_eventuality_with_disjunction(self):
        f = parse("F((B | Y) & F(C))")
        assert f == Finally(And(Or(Atom("B"), Atom("Y")), Finally(Atom("C"))))


class TestPrefixParsing:
    def test_simple(self):
        assert parse("F a", syntax="prefix") == Finally(Atom("a"))

    def test_nested(self):
        f = parse("F & | B Y F C", syntax="prefix")
        assert f == Finally(And(Or(Atom("B"), Atom("Y")), Finally(Atom("C"))))

    def test_until_negation(self):
        f = parse("U ! red_room second_floor", syntax="prefix")
        assert f == Until(Not(Atom("red_room")), Atom("second_floor"))

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("F a b", syntax="prefix")

    def test_missing_operand_rejected(self):
        with pytest.raises(ParseError):
            parse("& a", syntax="prefix")


class TestAutoSyntax:
    def test_infix_wins_when_both_could_apply(self):
        assert parse("F(a)") == parse("F(a)", syntax="auto")

    def test_falls_back_to_prefix(self):
        assert parse("& a b", syntax="auto") == And(Atom("a"), Atom("b"))

    def test_reports_infix_error_when_both_fail(self):
        with pytest.raises(ParseError) as info:
            parse("a &", syntax="auto")
        assert "syntax error" in str(info.value)

    def test_unknown_syntax_rejected(self):
        with pytest.raises(ValueError):
            parse("a", syntax="polish")


class TestRejectedOperators:
    @pytest.mark.parametrize("text", ["X a", "X(a)", "a U X(b)"])
    def test_next_rejected_infix(self, text):
        with pytest.raises(UnknownOperatorError) as info:
            parse(text, syntax="infix")
        assert "X" in str(info.value)

    def test_release_rejected_prefix(self):
        with pytest.raises(UnknownOperatorError) as info:
            parse("R a b", syntax="prefix")
        assert "R" in str(info.value)

    def test_rejection_survives_auto(self):
        with pytest.raises(UnknownOperatorError):
            parse("X a", syntax="auto")


class TestParseErrors:
    def test_offset_is_byte_position(self):
        with pytest.raises(ParseError) as info:
            parse("F(a")
        assert info.value.offset == 3

    def test_offset_counts_multibyte_characters(self):
        with pytest.raises(ParseError) as info:
            parse("aé &")  # 'é' is two bytes in UTF-8
        assert info.value.offset == 1

    def test_expected_tokens_reported(self):
        with pytest.raises(ParseError) as info:
            parse("a &")
        assert info.value.expected  # non-empty guidance
        assert "expected" in str(info.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ", syntax="prefix")

    def test_stray_rparen(self):
        with pytest.raises(ParseError) as info:
            parse("a)")
        assert info.value.offset == 1

    @pytest.mark.parametrize("syntax", ["infix", "prefix", "auto"])
    @pytest.mark.parametrize("text,error,message,offset", [
        ("a b $", ParseError, "unexpected character '$'", 4),
        ("a a X", UnknownOperatorError, "operator 'X'", 4),
        ("F(a) ) R", UnknownOperatorError, "operator 'R'", 7),
        ("1 & a", ParseError, "unexpected character '1'", 0),
    ])
    def test_a_lexical_error_anywhere_wins(self, text, error, message, offset, syntax):
        # The re-prompt quotes the error, so which one is reported matters.
        with pytest.raises(error) as info:
            parse(text, syntax=syntax)
        assert message in str(info.value)
        assert info.value.offset == offset


class TestTokenOffsets:
    PIECES = ["a", "red_room", "b_2", "F", "G", "U", "&", "|", "!", "(", ")"]
    SPACES = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028"]

    def check_offsets(self, text):
        tokens = list(_tokenize(text))
        at = 0
        for tok in tokens[:-1]:
            at = text.index(tok.text, at)
            assert tok.offset == len(text[:at].encode("utf-8")), (text, tok)
            at += len(tok.text)
        assert tokens[-1].offset == len(text.encode("utf-8"))

    @pytest.mark.parametrize("text", [
        "a & b",
        "F(a)\u00a0&\u3000G(b_1)",
        "\u2003\u2003red_room U\u00a0(blue | !green)\u3000",
        " \t\n(a|b)&F G c\u2028",
        "",
    ])
    def test_offsets_are_utf8_byte_positions(self, text):
        self.check_offsets(text)

    def test_random_token_strings(self):
        rng = random.Random(7)
        for _ in range(300):
            text = "".join(
                rng.choice(self.PIECES) + "".join(
                    rng.choice(self.SPACES) for _ in range(rng.randint(1, 3))
                )
                for _ in range(rng.randint(0, 12))
            )
            self.check_offsets(text)

    def test_error_offset_after_multibyte_spaces(self):
        with pytest.raises(ParseError) as info:
            parse("a\u3000&\u00a0é")
        assert info.value.offset == len("a\u3000&\u00a0".encode("utf-8"))

    def test_megabyte_chain_fails_at_the_cap_quickly(self):
        # Tokens are read on demand, so the parser stops at the token that
        # crosses the cap instead of reading the whole text first.
        text = "a & " * 262_144 + "a"
        start = time.process_time()
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == 2 + 4 * MAX_NESTING == 1026
        assert time.process_time() - start < 1

    def test_megabyte_chain_ending_in_a_stray_character_fails_quickly(self):
        # The lexical error at the last byte wins over the cap at byte 1026,
        # and finding it is one regex search.
        text = "a & " * 262_144 + "$"
        start = time.process_time()
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse(text)
        assert info.value.offset == 1_048_576
        assert time.process_time() - start < 1


class TestPrinting:
    def test_infix_minimal_parens(self):
        f = Finally(And(Or(Atom("B"), Atom("Y")), Finally(Atom("C"))))
        assert print_formula(f) == "F((B | Y) & F(C))"

    def test_infix_until_not(self):
        f = Until(Not(Atom("red_room")), Atom("second_floor"))
        assert print_formula(f) == "!red_room U second_floor"

    def test_prefix(self):
        f = Until(Not(Atom("red_room")), Atom("second_floor"))
        assert print_formula(f, "prefix") == "U ! red_room second_floor"

    def test_right_assoc_until_prints_without_parens(self):
        f = Until(Atom("a"), Until(Atom("b"), Atom("c")))
        assert print_formula(f) == "a U b U c"
        g = Until(Until(Atom("a"), Atom("b")), Atom("c"))
        assert print_formula(g) == "(a U b) U c"

    def test_release_never_prints(self):
        # Raised on every call: a failed print keeps nothing on the node.
        f = Release(Atom("unprinted_a"), Atom("unprinted_b"))
        for syntax in ("infix", "prefix", "infix", "prefix"):
            with pytest.raises(InternalOperatorError):
                print_formula(f, syntax)
        assert set(vars(f)) == {"left", "right"}

    def test_each_syntax_keeps_its_own_text(self):
        f = Until(Not(Atom("kept_text_a")), Finally(Atom("kept_text_b")))
        for _ in range(2):
            assert print_formula(f) == "!kept_text_a U F(kept_text_b)"
            assert print_formula(f, "prefix") == "U ! kept_text_a F kept_text_b"
        with pytest.raises(ValueError, match="unknown syntax"):
            print_formula(f, "polish")


class TestRoundTrip:
    @pytest.mark.parametrize("syntax", ["infix", "prefix"])
    def test_random_formulas_round_trip(self, syntax):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng, 5, ["a", "b", "c", "d"])
            assert parse(print_formula(f, syntax), syntax=syntax) == f

    def test_round_trip_through_auto(self):
        rng = random.Random(100)
        for _ in range(100):
            f = random_formula(rng, 4, ["a", "b"])
            for syntax in ("infix", "prefix"):
                assert parse(print_formula(f, syntax), syntax="auto") == f


class TestNestingCap:
    DEEP = [
        "!" * 3000 + "a",
        "(" * 3000 + "a" + ")" * 3000,
        "F " * 3000 + "a",
    ]

    @pytest.mark.parametrize("syntax", ["infix", "prefix", "auto"])
    @pytest.mark.parametrize("text", DEEP, ids=["not", "parens", "finally"])
    def test_deep_input_is_a_parse_error(self, text, syntax):
        with pytest.raises(ParseError):
            parse(text, syntax=syntax)

    @pytest.mark.parametrize("text,syntax,offset", [
        ("!" * (MAX_NESTING + 1) + "a", "infix", MAX_NESTING),
        ("(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1), "infix", MAX_NESTING),
        ("a U " * (MAX_NESTING + 1) + "a", "infix", 2 + 4 * MAX_NESTING),
        # A left-associated chain nests its first operand one level per operator.
        ("a & " * (MAX_NESTING + 1) + "a", "infix", 2 + 4 * MAX_NESTING),
        ("F " * (MAX_NESTING + 1) + "a", "prefix", 2 * MAX_NESTING),
        ("| " * (MAX_NESTING + 1) + "a " * (MAX_NESTING + 2), "prefix", 2 * MAX_NESTING),
    ])
    def test_offset_of_the_token_that_crosses_the_cap(self, text, syntax, offset):
        with pytest.raises(ParseError) as info:
            parse(text, syntax=syntax)
        assert info.value.offset == offset
        assert "nested deeper than" in str(info.value)

    @pytest.mark.parametrize("text,syntax", [
        ("!" * MAX_NESTING + "a", "infix"),
        ("(" * MAX_NESTING + "a" + ")" * MAX_NESTING, "infix"),
        ("a & " * MAX_NESTING + "a", "infix"),
        ("F " * MAX_NESTING + "a", "prefix"),
    ])
    def test_cap_itself_is_allowed(self, text, syntax):
        f = parse(text, syntax=syntax)
        assert parse(print_formula(f, syntax), syntax=syntax) == f


class TestParseMemo:
    def test_same_text_returns_the_same_tree(self):
        text = "F(memo_a & F(memo_b)) U G(!memo_c)"
        first = parse(text, "infix")
        before = _parse_memo.cache_info()
        assert parse(text, "infix") is first
        after = _parse_memo.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_syntax_is_part_of_the_key(self):
        text = "& memo_d memo_e"
        assert parse(text, "prefix") == And(Atom("memo_d"), Atom("memo_e"))
        with pytest.raises(ParseError):
            parse(text, "infix")

    def test_over_length_text_is_parsed_but_not_stored(self):
        text = "memo_e & " * 100 + "memo_f"
        assert len(text) > PARSE_MEMO_MAX_TEXT
        before = _parse_memo.cache_info()
        first = parse(text)
        second = parse(text)
        assert first == second
        assert print_formula(first) == text
        after = _parse_memo.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("text", [
        "F(a",
        "a X b",
        "!" * (MAX_NESTING + 1) + "a",
        "a & " * (MAX_NESTING + 1) + "a",
    ])
    def test_errors_are_raised_afresh_every_time(self, text):
        raised = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse(text)
            raised.append(info.value)
        first, second = raised
        assert first is not second
        assert (first.args, first.offset, first.expected) == (
            second.args, second.offset, second.expected
        )

    def test_unknown_syntax_still_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown syntax"):
            parse("a", syntax="polish")
