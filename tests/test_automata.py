import random
import threading
from pathlib import Path

import pytest

from ltlkit import automata
from ltlkit.automata import (
    ResourceLimitError,
    _bits,
    build_automaton,
    dump,
    equiv,
    is_empty,
    is_satisfiable,
)
from ltlkit.formulas import (
    And,
    Atom,
    Finally,
    Globally,
    Not,
    Or,
    Until,
    atoms,
    evaluate,
    to_nnf,
)
from ltlkit.parsing import parse

from helpers import lasso, random_formula
from oracles import affordable_bound, bounded_witness

# The committed oracle-agreement suite.  Every formula uses at most 3
# atoms and at most 9 nodes.  Entries marked "unsat" carry an analytic
# argument in the comment; the bounded oracle corroborates by finding no
# witness within its sweep, and finding any witness would fail the test.
SUITE = [
    # -- satisfiable, witnesses well within the oracle bound --
    ("a", "infix", "sat"),
    ("!a", "infix", "sat"),
    ("F(a)", "infix", "sat"),
    ("G(a)", "infix", "sat"),
    ("a U b", "infix", "sat"),
    ("F(a) | G(a)", "infix", "sat"),
    ("G(a | b)", "infix", "sat"),
    ("F(a & b & c)", "infix", "sat"),
    ("G(!a) & F(b)", "infix", "sat"),
    ("F(a) & F(b) & F(c)", "infix", "sat"),
    ("G(F(a))", "infix", "sat"),
    ("G(F(a)) & G(F(b))", "infix", "sat"),
    ("F(G(a))", "infix", "sat"),
    ("a U (b U c)", "infix", "sat"),
    ("(a U b) U c", "infix", "sat"),
    ("!(a U b)", "infix", "sat"),
    ("!(G(a))", "infix", "sat"),
    ("!(F(a) & F(b))", "infix", "sat"),
    ("G(!a | F(b))", "infix", "sat"),
    ("F(a & F(b & F(c)))", "infix", "sat"),
    # -- quoted example formulas (one per worked example we ship) --
    ("F(orange_room)", "infix", "sat"),
    ("F(red_room & F(blue_room))", "infix", "sat"),
    ("!(red_room) U (second_floor)", "infix", "sat"),
    ("F(yellow_room) & G(!hallway)", "infix", "sat"),
    ("G(!purple_room)", "infix", "sat"),
    ("F D", "prefix", "sat"),
    ("F & Y F C", "prefix", "sat"),
    ("F & | B Y F C", "prefix", "sat"),
    ("& F C G ! D", "prefix", "sat"),
    ("U ! Y B", "prefix", "sat"),
    ("| F B F Y", "prefix", "sat"),
    ("G & U S ! C F C", "prefix", "sat"),
    ("F(C & G(!Y))", "infix", "sat"),
    ("F(C) & G(!Y)", "infix", "sat"),
    # -- unsatisfiable, each with an analytic argument --
    ("a & !a", "infix", "unsat"),          # contradiction at position 0
    ("F(a & !a)", "infix", "unsat"),       # a & !a holds nowhere
    ("G(a & !a)", "infix", "unsat"),       # likewise
    ("G(a) & !a", "infix", "unsat"),       # G(a) forces a at position 0
    ("G(a) & F(!a)", "infix", "unsat"),    # always a vs eventually not a
    ("F(a) & G(!a)", "infix", "unsat"),    # eventually a vs never a
    ("a & G(!a)", "infix", "unsat"),       # a now vs never a
    ("(a U b) & G(!b)", "infix", "unsat"), # U demands eventual b
    ("!a U (a & !a)", "infix", "unsat"),   # the until goal is contradictory
    ("G(F(a)) & F(G(!a))", "infix", "unsat"),  # infinitely often vs finally never
]


class TestOracleAgreement:
    @pytest.mark.parametrize("text,syntax,expected", SUITE,
                             ids=[t for t, _, _ in SUITE])
    def test_suite_entry(self, text, syntax, expected):
        f = parse(text, syntax=syntax)
        assert len(atoms(f)) <= 3
        result = is_satisfiable(f)
        oracle_witness, swept = bounded_witness(f)

        if expected == "sat":
            assert result.satisfiable
            assert evaluate(f, result.witness)
            assert oracle_witness is not None, (
                f"oracle found no witness within total length {swept}"
            )
        else:
            assert not result.satisfiable
            assert result.witness is None
            assert oracle_witness is None

    def test_suite_is_large_enough(self):
        assert len(SUITE) >= 30

    def test_oracle_bound_is_adaptive(self):
        assert affordable_bound(2) == 8    # one atom: full sweep
        assert affordable_bound(4) == 6    # two atoms
        assert affordable_bound(8) == 4    # three atoms


class TestFrozenExamples:
    def test_single_atom(self):
        result = is_satisfiable(Atom("a"))
        assert result.satisfiable
        assert "a" in result.witness.label(0)

    def test_nested_reachability(self):
        f = parse("F(red_room & F(blue_room))")
        result = is_satisfiable(f)
        assert result.satisfiable
        assert evaluate(f, result.witness)
        # The word the example quotes is a model too.
        quoted = lasso(
            [{"red_room"}, {"blue_room"}], [{}]
        )
        assert evaluate(f, quoted)

    def test_contradiction(self):
        assert not is_satisfiable(parse("a & !a")).satisfiable

    def test_infinitely_often(self):
        assert is_satisfiable(parse("G(F(a))")).satisfiable

    def test_loop_walks_to_an_accepting_node_and_back(self):
        # The first node the prefix reaches in a component with an
        # accepting cycle is not accepting here, so the loop goes on to an
        # accepting node and returns.
        f = parse("b & F(!b) & G(F(b))")
        aut = build_automaton(f)
        assert (aut.n_states, len(aut.acceptance_sets)) == (9, 2)
        witness = is_empty(aut)
        assert witness == lasso([{"b"}, {}], [{"b"}, {}, {}])
        assert evaluate(f, witness)
        assert bounded_witness(f)[0] is not None

    def test_path_search_without_a_reachable_goal_is_none(self):
        successors = {0: [("x", 1)], 1: [("y", 2)], 2: [("z", 0)]}.get
        assert automata._bfs_path(0, successors, lambda n: n == 2) == [("x", 1), ("y", 2)]
        assert automata._bfs_path(0, successors, lambda n: False) is None


class TestEquivalenceIdentities:
    PHIS = [Atom("a"), And(Atom("a"), Atom("b")), Finally(Atom("a")),
            Until(Atom("a"), Atom("b"))]

    @pytest.mark.parametrize("phi", PHIS)
    def test_not_finally_is_globally_not(self, phi):
        assert equiv(Not(Finally(phi)), Globally(Not(phi)))

    @pytest.mark.parametrize("phi", PHIS)
    def test_finally_idempotent(self, phi):
        assert equiv(Finally(Finally(phi)), Finally(phi))

    def test_de_morgan(self):
        a, b = Atom("a"), Atom("b")
        assert equiv(Not(And(a, b)), Or(Not(a), Not(b)))
        assert equiv(Not(Or(a, b)), And(Not(a), Not(b)))

    @pytest.mark.parametrize("phi", PHIS)
    def test_until_release_duality_via_nnf(self, phi):
        f = Not(Until(phi, Atom("c")))
        assert equiv(f, to_nnf(f))

    def test_known_inequivalences(self):
        assert not equiv(parse("F(a)"), parse("G(a)"))
        assert not equiv(parse("F(a) & F(b)"), parse("F(a & F(b))"))
        # ...but the quoted separating word satisfies exactly one side.
        word = lasso([{"b"}, {"a"}], [{}])
        assert evaluate(parse("F(a) & F(b)"), word)
        assert not evaluate(parse("F(a & F(b))"), word)


class TestRandomizedProperties:
    def test_equiv_reflexive_and_nnf_invariant(self):
        rng = random.Random(13)
        for _ in range(25):
            f = random_formula(rng, 3, ["a", "b"])
            assert equiv(f, f)
            assert equiv(f, to_nnf(f))

    def test_equiv_symmetric(self):
        rng = random.Random(14)
        for _ in range(15):
            f = random_formula(rng, 3, ["a", "b"])
            g = random_formula(rng, 3, ["a", "b"])
            assert equiv(f, g) == equiv(g, f)

    def test_negation_involution(self):
        # No formula and its negation can both be unsatisfiable.
        rng = random.Random(15)
        for _ in range(40):
            f = random_formula(rng, 3, ["a", "b"])
            assert is_satisfiable(f).satisfiable or is_satisfiable(Not(f)).satisfiable

    def test_witnesses_always_evaluate_true(self):
        rng = random.Random(16)
        for _ in range(40):
            f = random_formula(rng, 4, ["a", "b", "c"])
            result = is_satisfiable(f)
            if result.satisfiable:
                assert evaluate(f, result.witness)


class TestConstruction:
    def test_build_is_deterministic(self):
        f = parse("G & U S ! C F C", syntax="prefix")
        first = dump(build_automaton(f))
        second = dump(build_automaton(f))
        assert first == second

    def test_characterized_size(self):
        # Regression pin for the construction's determinism; the exact
        # numbers characterize this implementation, not the language.
        aut = build_automaton(parse("G & U S ! C F C", syntax="prefix"))
        assert aut.n_states == 9
        assert len(aut.acceptance_sets) == 2

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(automata, "STATE_CAP", 2)
        with pytest.raises(ResourceLimitError, match="exceeded 2 states"):
            build_automaton(parse("F(a & F(b & F(c)))"))

    def test_dump_shape(self):
        aut = build_automaton(parse("F(a)"))
        text = dump(aut)
        lines = text.splitlines()
        assert lines[0] == f"states: {aut.n_states}"
        assert lines[1] == "initial: 0"
        assert any(line.startswith("alphabet: ") for line in lines)
        assert any(" -> " in line for line in lines)
        assert any(line.startswith("accept 0:") for line in lines)

    def test_transitions_are_normalized(self):
        aut = build_automaton(parse("F(a) & G(b | !c)"))
        keys = [
            (src, _bits(pos), _bits(neg), dst) for src, pos, neg, dst in aut.transitions
        ]
        assert keys == sorted(keys)
        for _, pos, neg, _ in aut.transitions:
            assert not pos & neg  # no atom both required and forbidden
            assert (pos | neg) >> len(aut.alphabet) == 0
        for acc in aut.acceptance_sets:
            assert all(0 <= s < aut.n_states for s in acc)


GOLDEN_SUITE_DUMPS = Path(__file__).parent / "golden" / "suite_automata.txt"


def test_suite_dumps_match_golden():
    # Every SUITE automaton, pinned byte for byte: states, their notes,
    # transition order and acceptance sets.
    text = "".join(
        f"### {syntax}: {source}\n" + dump(build_automaton(parse(source, syntax=syntax)))
        for source, syntax, _ in SUITE
    )
    assert text == GOLDEN_SUITE_DUMPS.read_text(encoding="utf-8")


GOLDEN_SUITE_WITNESSES = Path(__file__).parent / "golden" / "suite_witnesses.txt"


def show_letters(letters) -> str:
    return " ".join("{" + ", ".join(sorted(letter)) + "}" for letter in letters) or "(empty)"


def test_suite_witnesses_match_golden():
    # The emptiness verdict and witness lasso of every SUITE automaton,
    # letters sorted so the text does not depend on the hash seed.
    lines = []
    for source, syntax, _ in SUITE:
        witness = is_empty(build_automaton(parse(source, syntax=syntax)))
        shown = "empty" if witness is None else (
            f"prefix {show_letters(witness.prefix)}; loop {show_letters(witness.loop)}"
        )
        lines.append(f"{syntax}: {source} -> {shown}\n")
    assert "".join(lines) == GOLDEN_SUITE_WITNESSES.read_text(encoding="utf-8")


class TestSatMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts automaton constructions made through the module global."""
        calls = []
        real = automata.build_automaton

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(automata, "build_automaton", counting)
        return calls

    def test_repeated_call_is_answered_from_the_memo(self, builds):
        f = parse("memo_a U (memo_b & G(F(memo_a)))")
        first = is_satisfiable(f)
        second = is_satisfiable(f)
        assert first == second
        assert evaluate(f, second.witness)
        assert len(builds) == 1

    def test_state_cap_failures_are_never_remembered(self, builds, monkeypatch):
        # Atoms of this test only, so no other test has decided f.
        f = parse("F(memo_c & F(memo_d & F(memo_e)))")
        with monkeypatch.context() as lowered:
            lowered.setattr(automata, "STATE_CAP", 2)
            for _ in range(2):
                with pytest.raises(ResourceLimitError, match="exceeded 2 states"):
                    is_satisfiable(f)
        # The failures left nothing behind; the success is then remembered.
        assert is_satisfiable(f).satisfiable
        assert is_satisfiable(f).satisfiable
        assert len(builds) == 3

    def test_failed_self_check_is_raised_every_time(self, builds, monkeypatch):
        monkeypatch.setattr(automata, "evaluate", lambda f, w: False)
        f = parse("F(memo_f)")
        for _ in range(2):
            with pytest.raises(RuntimeError, match="self-check"):
                is_satisfiable(f)
        assert len(builds) == 2

    def test_equiv_reuses_decided_formulas(self, builds):
        f, g = parse("F(memo_g) | F(memo_h)"), parse("F(memo_g | memo_h)")
        assert equiv(f, g)
        assert len(builds) == 2
        assert equiv(f, g)
        assert len(builds) == 2

    def test_concurrent_callers_agree(self):
        f = parse("G(F(memo_i)) & G(F(memo_j)) & (memo_i U memo_j)")
        results = [None] * 5
        barrier = threading.Barrier(len(results))

        def decide(i):
            barrier.wait(timeout=10)
            results[i] = is_satisfiable(f)

        threads = [threading.Thread(target=decide, args=(i,)) for i in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert results[0].satisfiable
        assert all(r == results[0] for r in results)
