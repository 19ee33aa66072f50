"""Every printed and derived form of a formula, pinned byte for byte.

``tests/golden/formula_forms.txt`` holds one JSON line per formula: its
infix and prefix printing, the fully parenthesized rendering of its
negation normal form, the infix printing of its structure, and one digit
per fixed lasso saying whether the lasso satisfies it.  The formulas are
the oracle-agreement ``SUITE`` of ``test_automata`` and about 2,000
seeded random formulas.  Regenerate the file (only when a change to
these forms is intended) with

    PYTHONPATH=src python tests/test_formula_forms.py --write
"""

import json
import random
import sys
from pathlib import Path

from ltlkit.automata import _show
from ltlkit.formulas import LassoWord, atoms, evaluate, structure, to_nnf
from ltlkit.parsing import parse, print_formula

from helpers import lasso, random_formula, random_lasso
from test_automata import SUITE

GOLDEN_FORMULA_FORMS = Path(__file__).parent / "golden" / "formula_forms.txt"
RANDOM_FORMULAS = 2000

# Lasso shapes over the indices of a formula's atoms in name order; an
# index past the formula's last atom names no atom.
_shape_rng = random.Random("formula-forms-lassos")
LASSO_SHAPES = [random_lasso(_shape_rng, "012", max_prefix=3, max_loop=4) for _ in range(8)]


def lassos_for(f) -> list[LassoWord]:
    names = sorted(atoms(f))

    def letter(indices):
        return [names[int(i)] for i in indices if int(i) < len(names)]

    return [
        lasso(map(letter, shape.prefix), map(letter, shape.loop))
        for shape in LASSO_SHAPES
    ]


def golden_formulas() -> list:
    formulas = [parse(text, syntax=syntax) for text, syntax, _ in SUITE]
    rng = random.Random("formula-forms")
    formulas += [
        random_formula(rng, rng.randint(2, 7), ["a", "b", "c"])
        for _ in range(RANDOM_FORMULAS)
    ]
    return formulas


def golden_text() -> str:
    lines = []
    for f in golden_formulas():
        lines.append(json.dumps([
            print_formula(f, "infix"),
            print_formula(f, "prefix"),
            _show(to_nnf(f)),
            print_formula(structure(f), "infix"),
            "".join("1" if evaluate(f, w) else "0" for w in lassos_for(f)),
        ]) + "\n")
    return "".join(lines)


def test_formula_forms_match_golden():
    assert golden_text() == GOLDEN_FORMULA_FORMS.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_formula_forms.py --write")
    GOLDEN_FORMULA_FORMS.write_text(golden_text(), encoding="utf-8")
