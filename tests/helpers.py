"""Small utilities shared across test modules."""

import itertools
import random

from ltlkit.formulas import And, Atom, Finally, Globally, LassoWord, Not, Or, Until


def random_formula(rng: random.Random, max_depth: int, names):
    """A random formula over the given atom names, in the surface grammar."""
    if max_depth <= 0 or rng.random() < 0.25:
        return Atom(rng.choice(names))
    kind = rng.choice(["not", "and", "or", "F", "G", "U"])
    if kind == "not":
        return Not(random_formula(rng, max_depth - 1, names))
    if kind == "F":
        return Finally(random_formula(rng, max_depth - 1, names))
    if kind == "G":
        return Globally(random_formula(rng, max_depth - 1, names))
    left = random_formula(rng, max_depth - 1, names)
    right = random_formula(rng, max_depth - 1, names)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    return Until(left, right)


def all_letters(names):
    """Every subset of the given atom names, as frozensets."""
    names = sorted(names)
    out = []
    for r in range(len(names) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(names, r))
    return out


def lasso(prefix, loop) -> LassoWord:
    """A lasso word from any iterables of atom-name collections."""
    return LassoWord(tuple(map(frozenset, prefix)), tuple(map(frozenset, loop)))


def random_lasso(rng: random.Random, names, max_prefix=3, max_loop=3) -> LassoWord:
    letters = all_letters(names)
    prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_prefix)))
    loop = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_loop)))
    return LassoWord(prefix, loop)


def completion_for(formula_text: str) -> str:
    """A minimal model completion carrying the given formula line."""
    return f"LTL: {formula_text}\nFINISH"


def build_replay_backend(dataset, bundle, config, answers, store_path):
    """A replay backend preloaded with one completion per instruction.

    ``answers`` maps instruction text to the formula text the stored
    completion should carry.  The store is keyed on the exact prompt the
    pipeline will render, so every one of the k runs replays the same
    completion and the vote is unanimous.
    """
    from ltlkit.gateway import ReplayBackend, ReplayStore
    from ltlkit.prompts import render

    store = ReplayStore(store_path)
    for record in dataset.records:
        prompt = render(bundle.with_test(record.instruction))
        store.put(prompt, config.generation, completion_for(answers[record.instruction]))
    return ReplayBackend(store)
