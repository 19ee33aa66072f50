import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ltlkit

from ltlkit import formulas
from ltlkit.automata import equiv
from ltlkit.formulas import (
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    LassoWord,
    Not,
    Or,
    Release,
    Until,
    atoms,
    children,
    conforms_to_dataset_grammar,
    evaluate,
    fold,
    is_nnf,
    is_valid_atom_name,
    map_atoms,
    operator_tokens,
    structure,
    to_nnf,
    walk,
)

from ltlkit.evaluation import ground_formula
from ltlkit.parsing import parse, print_formula
from ltlkit.pipeline import PipelineConfig, vote

from helpers import random_formula, random_lasso


def w(prefix, loop):
    return LassoWord.make(prefix, loop)


class TestAtomNames:
    @pytest.mark.parametrize("name", ["a", "red_room", "second_floor", "_x", "B", "p2"])
    def test_valid(self, name):
        assert is_valid_atom_name(name)
        assert Atom(name).name == name

    @pytest.mark.parametrize("name", ["F", "G", "U", "X", "R"])
    def test_operator_tokens_rejected(self, name):
        assert not is_valid_atom_name(name)
        with pytest.raises(ValueError):
            Atom(name)

    @pytest.mark.parametrize("name", ["", "9x", "a-b", "red room", "a.b"])
    def test_malformed_rejected(self, name):
        assert not is_valid_atom_name(name)
        with pytest.raises(ValueError):
            Atom(name)


class TestTreeBasics:
    def test_equality_is_structural(self):
        assert Finally(Atom("a")) == Finally(Atom("a"))
        assert And(Atom("a"), Atom("b")) != And(Atom("b"), Atom("a"))

    def test_nodes_are_immutable(self):
        f = Atom("a")
        with pytest.raises(AttributeError):
            f.name = "b"

    def test_children(self):
        f = Until(Atom("a"), Not(Atom("b")))
        assert children(f) == (Atom("a"), Not(Atom("b")))
        assert children(Atom("a")) == ()

    def test_walk_covers_every_node(self):
        f = And(Finally(Atom("a")), Globally(Or(Atom("b"), Atom("a"))))
        seen = list(walk(f))
        assert f in seen
        assert Atom("a") in seen
        assert len(list(walk(f))) == 7

    def test_fold_combines_children_first_left_to_right(self):
        f = And(Finally(Atom("a")), Until(Atom("b"), Not(Atom("c"))))
        visited = []

        def combine(node, *kids):
            visited.append(node)
            return (type(node).__name__, *kids)

        assert fold(f, combine) == (
            "And", ("Finally", ("Atom",)), ("Until", ("Atom",), ("Not", ("Atom",)))
        )
        assert visited == [
            Atom("a"), Finally(Atom("a")), Atom("b"), Atom("c"), Not(Atom("c")),
            f.right, f,
        ]

    def test_map_atoms_renames_every_leaf(self):
        f = Until(Not(Atom("a")), Or(Atom("b"), Atom("a")))
        assert map_atoms(f, str.upper) == Until(Not(Atom("A")), Or(Atom("B"), Atom("A")))

    def test_atoms(self):
        f = Until(Not(Atom("red_room")), Atom("second_floor"))
        assert atoms(f) == frozenset({"red_room", "second_floor"})

    def test_operator_tokens(self):
        f = Finally(And(Atom("a"), Not(Atom("b"))))
        assert operator_tokens(f) == frozenset({"F", "&", "!"})
        assert operator_tokens(Atom("a")) == frozenset()

    def test_operator_tokens_rejects_release(self):
        with pytest.raises(ValueError):
            operator_tokens(Release(Atom("a"), Atom("b")))

    def test_structure_collapses_atoms(self):
        f = Finally(And(Atom("red_room"), Finally(Atom("blue_room"))))
        assert structure(f) == Finally(And(Atom("p"), Finally(Atom("p"))))


class TestHashCache:
    def test_hash_is_stable_and_shared_by_equal_trees(self):
        rng = random.Random(7)
        for _ in range(200):
            for node in walk(random_formula(rng, 5, ["a", "b", "c"])):
                fields = tuple(
                    getattr(node, f.name) for f in dataclasses.fields(node)
                )
                assert hash(node) == hash(node)
                assert hash(type(node)(*fields)) == hash(node)

    def test_equal_trees_built_apart_hash_and_compare_equal(self):
        for seed in range(50):
            f = random_formula(random.Random(seed), 5, ["a", "b", "c"])
            g = random_formula(random.Random(seed), 5, ["a", "b", "c"])
            assert f is g
            assert f == g and hash(f) == hash(g)
            assert {f: seed}[g] == seed

    def test_printed_forms_ignore_the_cache(self):
        f = Until(Not(Atom("a")), Globally(Atom("b")))
        before = (repr(f), dataclasses.asdict(f))
        hash(f)
        assert (repr(f), dataclasses.asdict(f)) == before
        assert dataclasses.replace(f, left=Atom("c")) == Until(
            Atom("c"), Globally(Atom("b"))
        )

    def test_pickle_from_another_hash_seed_works_as_a_key(self):
        # The child hashes its node before pickling it; its string hashes
        # differ from ours, so a cached hash must not come along.
        code = (
            "import pickle, sys\n"
            "from ltlkit.parsing import parse\n"
            "f = parse('F(red_room & F(blue_room)) U G(!green_room)')\n"
            "hash(f)\n"
            "sys.stdout.write(pickle.dumps(f).hex())\n"
        )
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        src = str(Path(ltlkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        loaded = pickle.loads(bytes.fromhex(child.stdout))
        fresh = Until(
            Finally(And(Atom("red_room"), Finally(Atom("blue_room")))),
            Globally(Not(Atom("green_room"))),
        )
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert {fresh: "here"}[loaded] == "here"
        assert len({loaded, fresh}) == 1


class TestNnf:
    def test_negated_finally(self):
        assert to_nnf(Not(Finally(Atom("a")))) == Globally(Not(Atom("a")))

    def test_negated_globally(self):
        assert to_nnf(Not(Globally(Atom("a")))) == Finally(Not(Atom("a")))

    def test_negated_until_uses_release(self):
        f = to_nnf(Not(Until(Atom("a"), Atom("b"))))
        assert f == Release(Not(Atom("a")), Not(Atom("b")))

    def test_de_morgan(self):
        assert to_nnf(Not(And(Atom("a"), Atom("b")))) == Or(Not(Atom("a")), Not(Atom("b")))
        assert to_nnf(Not(Or(Atom("a"), Atom("b")))) == And(Not(Atom("a")), Not(Atom("b")))

    def test_double_negation(self):
        assert to_nnf(Not(Not(Atom("a")))) == Atom("a")

    def test_random_formulas_normalize(self):
        rng = random.Random(7)
        names = ["a", "b", "c"]
        for _ in range(150):
            f = random_formula(rng, 4, names)
            g = to_nnf(f)
            assert is_nnf(g)
            # Semantic preservation, spot-checked on random words.
            for _ in range(5):
                word = random_lasso(rng, names)
                assert evaluate(f, word) == evaluate(g, word)

    def test_nnf_fixpoint(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_formula(rng, 4, ["a", "b"])
            g = to_nnf(f)
            assert to_nnf(g) == g


class TestDatasetGrammar:
    def test_atomic_negation_allowed(self):
        f = Until(Not(Atom("red_room")), Atom("second_floor"))
        assert conforms_to_dataset_grammar(f)

    def test_compound_negation_rejected(self):
        assert not conforms_to_dataset_grammar(Not(Finally(Atom("a"))))
        assert not conforms_to_dataset_grammar(Finally(Not(And(Atom("a"), Atom("b")))))

    def test_release_rejected(self):
        assert not conforms_to_dataset_grammar(Release(Atom("a"), Atom("b")))


class TestLassoWord:
    def test_loop_must_be_nonempty(self):
        with pytest.raises(ValueError):
            LassoWord((), ())

    def test_label_is_periodic(self):
        word = w([{"a"}], [{"b"}, {}])
        assert word.label(0) == frozenset({"a"})
        assert word.label(1) == frozenset({"b"})
        assert word.label(2) == frozenset()
        assert word.label(3) == frozenset({"b"})
        assert word.label(101) == word.label(1 + (100 % 2))

    def test_positions(self):
        assert w([{}, {}], [{"a"}]).positions() == 3


class TestEvaluate:
    def test_atom_checks_first_position(self):
        assert evaluate(Atom("a"), w([{"a"}], [{}]))
        assert not evaluate(Atom("a"), w([{}], [{"a"}]))

    def test_finally_within_prefix(self):
        f = Finally(And(Atom("red_room"), Finally(Atom("blue_room"))))
        assert evaluate(f, w([{"red_room"}, {"blue_room"}], [{}]))
        assert not evaluate(f, w([{"blue_room"}, {"red_room"}], [{}]))

    def test_globally_looks_at_loop_only_after_prefix(self):
        f = Globally(Atom("a"))
        assert evaluate(f, w([{"a"}], [{"a"}]))
        assert not evaluate(f, w([{"a"}], [{"a"}, {}]))
        assert not evaluate(f, w([{}], [{"a"}]))

    def test_until_requires_eventual_goal(self):
        f = Until(Atom("a"), Atom("b"))
        assert evaluate(f, w([], [{"b"}]))  # goal immediately
        assert evaluate(f, w([{"a"}, {"a"}], [{"b"}]))
        assert not evaluate(f, w([{"a"}], [{"a"}]))  # goal never arrives
        assert not evaluate(f, w([{}, {"b"}], [{}]))  # left fails before goal

    def test_until_ignores_left_after_goal(self):
        f = Until(Atom("a"), Atom("b"))
        assert evaluate(f, w([{"a", "b"}], [{}]))

    def test_infinitely_often_across_loop(self):
        f = Globally(Finally(Atom("a")))
        assert evaluate(f, w([], [{}, {"a"}]))
        assert not evaluate(f, w([{"a"}], [{}]))

    def test_eventually_always(self):
        f = Finally(Globally(Atom("a")))
        assert evaluate(f, w([{}], [{"a"}]))
        assert not evaluate(f, w([], [{"a"}, {}]))

    def test_release_semantics(self):
        # (a R b): b holds up to and including the step where a first holds,
        # or forever.
        f = Release(Atom("a"), Atom("b"))
        assert evaluate(f, w([], [{"b"}]))
        assert evaluate(f, w([{"b"}, {"a", "b"}], [{}]))
        assert not evaluate(f, w([{"b"}, {"a"}], [{}]))  # b gone at release point
        assert not evaluate(f, w([{"b"}], [{}]))

    def test_negation_flips(self):
        rng = random.Random(21)
        for _ in range(100):
            f = random_formula(rng, 3, ["a", "b"])
            word = random_lasso(rng, ["a", "b"])
            assert evaluate(Not(f), word) == (not evaluate(f, word))

    def test_loop_unrolling_invariance(self):
        # Unrolling the loop once more into the prefix never changes the verdict.
        rng = random.Random(22)
        for _ in range(60):
            f = random_formula(rng, 3, ["a", "b"])
            word = random_lasso(rng, ["a", "b"])
            unrolled = LassoWord(word.prefix + word.loop, word.loop)
            assert evaluate(f, word) == evaluate(f, unrolled)


DEEP = 3000


def deep_finally() -> Formula:
    """F(F(...F(a)...)), DEEP operators deep."""
    f = Atom("a")
    for _ in range(DEEP):
        f = Finally(f)
    return f


def long_and() -> Formula:
    """a & b & ... & b, a left-leaning chain of DEEP conjunctions."""
    f = Atom("a")
    for _ in range(DEEP):
        f = And(f, Atom("b"))
    return f


class TestDeepInput:
    # Trees far deeper than the recursion limit, built through the API
    # rather than the parser (which caps nesting).  Results are compared
    # through their printed text, which also checks the printer.

    def test_printing(self):
        assert print_formula(deep_finally()) == "F(" * DEEP + "a" + ")" * DEEP
        assert print_formula(deep_finally(), "prefix") == "F " * DEEP + "a"
        assert print_formula(long_and()) == "a" + " & b" * DEEP
        assert print_formula(long_and(), "prefix") == "& " * DEEP + "a" + " b" * DEEP

    def test_negation_normal_form(self):
        assert print_formula(to_nnf(deep_finally())) == "F(" * DEEP + "a" + ")" * DEEP
        assert print_formula(to_nnf(Not(deep_finally()))) == "G(" * DEEP + "!a" + ")" * DEEP
        assert print_formula(to_nnf(long_and())) == "a" + " & b" * DEEP
        assert print_formula(to_nnf(Not(long_and()))) == "!a" + " | !b" * DEEP

    def test_evaluation(self):
        assert evaluate(deep_finally(), w([{}, {}], [{"a"}, {}]))
        assert not evaluate(deep_finally(), w([{"b"}], [{}]))
        assert evaluate(long_and(), w([], [{"a", "b"}]))
        assert not evaluate(long_and(), w([], [{"a"}]))

    def test_structure_and_grounding(self):
        assert print_formula(structure(deep_finally())) == "F(" * DEEP + "p" + ")" * DEEP
        assert print_formula(structure(long_and())) == "p" + " & p" * DEEP
        grounded = ground_formula(long_and(), {"B": "b_room"})
        assert print_formula(grounded) == "a" + " & b_room" * DEEP
        grounded = ground_formula(deep_finally(), {"a": "x"})
        assert print_formula(grounded, "prefix") == "F " * DEEP + "x"

    @pytest.mark.parametrize("fn", [
        to_nnf,
        structure,
        print_formula,
        lambda f: print_formula(f, "prefix"),
        lambda f: evaluate(f, w([], [{"a"}])),
        lambda f: ground_formula(f, {"a": "b"}),
    ], ids=["to_nnf", "structure", "infix", "prefix", "evaluate", "ground_formula"])
    def test_non_formula_child_is_a_type_error(self, fn):
        with pytest.raises(TypeError, match="not a formula node: 3"):
            fn(And(Atom("a"), 3))


# Seconds of CPU any one operation on a DEEP chain may take; each takes
# milliseconds, and any recursion ends in RecursionError instead.
DEEP_BOUND_S = 2.0


def within_bound(fn):
    start = time.process_time()
    result = fn()
    assert time.process_time() - start < DEEP_BOUND_S
    return result


class TestInterning:
    @pytest.mark.parametrize("build", [deep_finally, long_and], ids=["F", "and"])
    def test_deep_chain_operations_return_in_bounded_time(self, build):
        f, g = build(), build()
        assert within_bound(lambda: f is g)
        assert within_bound(lambda: f == g and not f != g)
        assert within_bound(lambda: hash(f) == hash(g))
        assert within_bound(lambda: pickle.loads(pickle.dumps(f))) is f
        assert within_bound(lambda: copy.deepcopy(f)) is f
        assert within_bound(lambda: equiv(f, g))
        assert within_bound(lambda: vote([f, g, f], PipelineConfig()).formula) is f
        text = within_bound(lambda: print_formula(f))
        assert text.startswith("F(F(") or text.startswith("a & b & ")

    def test_threads_building_the_same_trees_share_nodes(self):
        # Atom names of this test only, so every node is built afresh.
        names = ["thread_a", "thread_b", "thread_c"]
        start = threading.Barrier(8, timeout=60)
        built = [None] * 8

        def build(slot):
            start.wait()
            built[slot] = [
                random_formula(random.Random(seed), 6, names) for seed in range(300)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside constructors
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        first = built[0]
        for other in built[1:]:
            assert all(
                x is y for f, g in zip(first, other) for x, y in zip(walk(f), walk(g))
            )

    def test_dropped_nodes_leave_the_table(self):
        gc.collect()
        before = len(formulas._table)
        kept = [Atom(f"dropped_{i}") for i in range(100_000)]
        assert len(formulas._table) >= before + 100_000
        del kept
        gc.collect()
        assert len(formulas._table) == before

    def test_keyword_and_replaced_nodes_are_interned(self):
        f = Until(Not(Atom("a")), Globally(Atom("b")))
        assert Until(left=Not(Atom("a")), right=Globally(Atom("b"))) is f
        assert dataclasses.replace(f, right=Globally(Atom("b"))) is f
        assert copy.copy(f) is f


def fields_only(f: Formula) -> bool:
    return set(vars(f)) == {field.name for field in dataclasses.fields(f)}


class TestKeptValues:
    """print_formula, atoms and operator_tokens keep their result on the
    node they were asked about; nothing else may show it."""

    def fresh(self, tag: str) -> Formula:
        # Atom names of this test only, so no other test has kept a value.
        a, b, c = (Atom(f"kept_{tag}_{name}") for name in "abc")
        return Until(Finally(And(a, Not(b))), Or(Globally(c), a))

    def keep_everything(self, f: Formula) -> None:
        print_formula(f)
        print_formula(f, "prefix")
        atoms(f)
        operator_tokens(f)

    def test_pickles_and_copies_do_not_change(self):
        f = self.fresh("pickle")
        before = pickle.dumps(f)
        self.keep_everything(f)
        assert not fields_only(f)
        assert pickle.dumps(f) == before
        assert pickle.loads(before) is f
        assert copy.deepcopy(f) is f

    def test_repr_and_asdict_do_not_change(self):
        f = self.fresh("repr")
        shown, fields = repr(f), dataclasses.asdict(f)
        self.keep_everything(f)
        assert repr(f) == shown
        assert dataclasses.asdict(f) == fields

    def test_values_are_kept_on_the_root_only(self):
        f = self.fresh("root")
        text = print_formula(f)
        assert print_formula(f) is text
        assert atoms(f) is atoms(f)
        assert operator_tokens(f) is operator_tokens(f)
        assert all(fields_only(node) for node in walk(f) if node is not f)

    def test_release_raises_on_every_call_and_keeps_nothing(self):
        f = Or(Release(Atom("kept_release_a"), Atom("kept_release_b")), Atom("c"))
        for _ in range(3):
            with pytest.raises(ValueError, match="Release has no surface token"):
                operator_tokens(f)
        assert fields_only(f)

    def test_threads_printing_one_fresh_tree_get_one_string(self):
        names = ["kept_thread_a", "kept_thread_b", "kept_thread_c"]
        f = random_formula(random.Random(5), 8, names)
        assert fields_only(f)
        start = threading.Barrier(8, timeout=60)
        printed = [None] * 8

        def print_it(slot):
            start.wait()
            printed[slot] = print_formula(f)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=print_it, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(set(printed)) == 1
        assert parse(printed[0]) is f
