"""Automata of seeded random formulas, pinned byte for byte.

``tests/golden/random_automata.txt`` holds one JSON line per formula: its
infix printing, the state and edge counts of its automaton, the first 16
hex digits of the SHA-256 of the automaton's ``dump`` (states, notes,
transition order and acceptance sets), and the emptiness witness with its
letters sorted, or ``empty``.  The formulas are 2,000 seeded random
formulas of depth at most 4 over the atoms ``a b c``, each followed by
its negation, so the file pins transition order, edge decoding and the
witness search's tie-breaks far beyond the ``SUITE`` of
``test_automata``.  Regenerate the file (only when a change to these
automata is intended) with

    PYTHONPATH=src python tests/test_random_automata.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from ltlkit.automata import build_automaton, dump, is_empty
from ltlkit.formulas import Not
from ltlkit.parsing import print_formula

from helpers import random_formula
from test_automata import show_letters

GOLDEN_RANDOM_AUTOMATA = Path(__file__).parent / "golden" / "random_automata.txt"
RANDOM_FORMULAS = 2000


def golden_formulas() -> list:
    rng = random.Random("random-automata")
    formulas = []
    for _ in range(RANDOM_FORMULAS):
        f = random_formula(rng, rng.randint(1, 4), ["a", "b", "c"])
        formulas += [f, Not(f)]
    return formulas


def golden_text() -> str:
    lines = []
    for f in golden_formulas():
        aut = build_automaton(f)
        witness = is_empty(aut)
        shown = "empty" if witness is None else (
            f"prefix {show_letters(witness.prefix)}; loop {show_letters(witness.loop)}"
        )
        lines.append(json.dumps([
            print_formula(f, "infix"),
            aut.n_states,
            len(aut.transitions),
            hashlib.sha256(dump(aut).encode("utf-8")).hexdigest()[:16],
            shown,
        ]) + "\n")
    return "".join(lines)


def test_random_automata_match_golden():
    assert golden_text() == GOLDEN_RANDOM_AUTOMATA.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_random_automata.py --write")
    GOLDEN_RANDOM_AUTOMATA.write_text(golden_text(), encoding="utf-8")
