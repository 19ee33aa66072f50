"""Vocabularies and formula families shared by the translate and eval inputs.

Each prompt set shipped with the package has its own propositions and
output syntax; the phrases below are how instructions name them.  A
family builds a goal formula from distinct atoms, words an instruction
for it, and knows an equivalent rewrite (by a named identity) and a
known-wrong variant.  Automaton sizes depend only on the family, never
on which atoms a seed picks, so every seed costs the same.
"""

from __future__ import annotations

import forms
from forms import alw, ap, conj, disj, ev, neg, until

PROMPT_SETS = {
    "drone": {
        "syntax": "infix",
        "phrases": {
            "red_room": "the red room",
            "blue_room": "the blue room",
            "green_room": "the green room",
            "orange_room": "the orange room",
            "purple_room": "the purple room",
            "yellow_room": "the yellow room",
            "first_floor": "the first floor",
            "second_floor": "the second floor",
            "third_floor": "the third floor",
            "hallway": "the hallway",
            "landing_pad": "the landing pad",
            "charging_dock": "the charging dock",
        },
    },
    "cleanup": {
        "syntax": "prefix",
        "phrases": {
            "B": "the blue room",
            "D": "the red room",
            "Y": "the yellow room",
            "C": "the green room",
            "W": "the blue room with the chair",
            "Z": "the green room with the chair",
        },
    },
    "pickplace": {
        "syntax": "prefix",
        "phrases": {
            "S": "the scanner",
            "C": "the green blocks",
            "B": "the blue blocks",
            "D": "the red blocks",
            "Y": "the yellow blocks",
        },
    },
}


def _chain(names):
    """F(a & F(b & ... F(z))): visit the atoms in order."""
    f = ev(ap(names[-1]))
    for name in reversed(names[:-1]):
        f = ev(conj(ap(name), f))
    return f


def _patrol(names):
    return conj(*[alw(ev(ap(n))) for n in names])


def _ordered(names):
    """Strict order: each atom is reached before the next one holds."""
    parts = [until(neg(ap(b)), ap(a)) for a, b in zip(names, names[1:])]
    return conj(*parts, ev(ap(names[-1])))


def _listing(n):
    """"{0}, {1} and {2}" for n = 3."""
    return ", ".join("{%d}" % i for i in range(n - 1)) + " and {%d}" % (n - 1)


class Family:
    """A goal shape over ``arity`` distinct atoms.

    ``build``, ``rewrite`` and ``wrong`` map a list of atom names to a
    formula; the rewrite applies the identity named in ``FAMILIES``.
    """

    def __init__(self, arity, build, rewrite, wrong, wordings):
        self.arity = arity
        self.build = build
        self.rewrite = rewrite
        self.wrong = wrong
        self.wordings = wordings

    def instruction(self, names, phrases, rng) -> str:
        return rng.choice(self.wordings).format(*[phrases[n] for n in names])


def _seq(n):
    # Rewrite: commuted &.  Wrong: the first two visits swapped.
    return Family(
        n, _chain,
        lambda a: ev(conj(_chain(a[1:]), ap(a[0]))),
        lambda a: _chain([a[1], a[0]] + list(a[2:])),
        ["visit " + ", then ".join("{%d}" % i for i in range(n)),
         "go to {0} and after that " + ", then ".join("{%d}" % i for i in range(1, n))],
    )


def _patrol_of(n):
    # Rewrite: G over &.  Wrong: a conjunct dropped, or G lost from one.
    return Family(
        n, _patrol,
        lambda a: conj(alw(conj(ev(ap(a[0])), ev(ap(a[1])))), *[alw(ev(ap(x))) for x in a[2:]]),
        lambda a: _patrol(a[:-1]) if n > 2 else conj(alw(ev(ap(a[0]))), ev(ap(a[1]))),
        ["patrol " + _listing(n) + " forever", "keep visiting " + _listing(n) + " again and again"],
    )


FAMILIES = {
    # Rewrite: F/G duality.
    "reach": Family(
        1,
        lambda a: ev(ap(a[0])),
        lambda a: neg(alw(neg(ap(a[0])))),
        lambda a: alw(ap(a[0])),
        ["go to {0}", "reach {0}", "fly to {0}"],
    ),
    **{f"seq{n}": _seq(n) for n in (2, 3, 4, 5)},
    **{f"patrol{n}": _patrol_of(n) for n in (2, 3, 4)},
    # Rewrite: commuted &.
    "ordered2": Family(
        2, _ordered,
        lambda a: conj(ev(ap(a[1])), until(neg(ap(a[1])), ap(a[0]))),
        lambda a: _ordered([a[1], a[0]]),
        ["visit {0} before {1}", "reach {0} first and only then {1}"],
    ),
    # Rewrite: commuted &.
    "ordered3": Family(
        3, _ordered,
        lambda a: conj(until(neg(ap(a[2])), ap(a[1])), until(neg(ap(a[1])), ap(a[0])),
                       ev(ap(a[2]))),
        lambda a: _ordered([a[1], a[0], a[2]]),
        ["visit {0}, {1} and {2} in exactly this order",
         "reach {0} before {1} and {1} before {2}"],
    ),
    # Rewrite: F/G duality.
    "avoid": Family(
        2,
        lambda a: conj(ev(ap(a[0])), alw(neg(ap(a[1])))),
        lambda a: conj(ev(ap(a[0])), neg(ev(ap(a[1])))),
        lambda a: conj(ev(ap(a[1])), alw(neg(ap(a[0])))),
        ["go to {0} and always stay away from {1}", "reach {0} and never enter {1}"],
    ),
    # Rewrite: De Morgan.
    "avoid2": Family(
        3,
        lambda a: conj(alw(conj(neg(ap(a[0])), neg(ap(a[1])))), ev(ap(a[2]))),
        lambda a: conj(alw(neg(disj(ap(a[0]), ap(a[1])))), ev(ap(a[2]))),
        lambda a: conj(alw(neg(ap(a[2]))), ev(conj(ap(a[0]), ap(a[1])))),
        ["never enter {0} or {1} and go to {2}", "avoid {0} and {1} while you reach {2}"],
    ),
    # Rewrite: F(a | b) = F(a) | F(b).
    "either": Family(
        2,
        lambda a: disj(ev(ap(a[0])), ev(ap(a[1]))),
        lambda a: ev(disj(ap(a[0]), ap(a[1]))),
        lambda a: conj(ev(ap(a[0])), ev(ap(a[1]))),
        ["go to {0} or {1}", "reach either {0} or {1}"],
    ),
    # Rewrite: a U b implies F(b).
    "until": Family(
        2,
        lambda a: until(neg(ap(a[0])), ap(a[1])),
        lambda a: conj(until(neg(ap(a[0])), ap(a[1])), ev(ap(a[1]))),
        lambda a: until(neg(ap(a[1])), ap(a[0])),
        ["avoid {0} until you reach {1}", "stay out of {0} until reaching {1}"],
    ),
}


def completion_text(formula, syntax: str) -> str:
    """A well-formed model answer: reasoning steps, the formula, FINISH."""
    names = ", ".join(sorted(forms.atoms(formula)))
    return (
        "Subgoal 1: Which atomic propositions does the specification mention?\n"
        f"Answer 1: {names}.\n"
        "Subgoal 2: How do the pieces combine?\n"
        "Answer 2: As in the worked examples.\n"
        f"LTL: {forms.render(formula, syntax)}\nFINISH"
    )


def rejected_text(reason: str, formula, syntax: str) -> str:
    """A model answer the pipeline must reject, for the given reason."""
    if reason == "no_ltl":
        return ("Subgoal 1: Which atomic propositions does the specification mention?\n"
                "Answer 1: The instruction is ambiguous.\nFINISH")
    if reason == "parse":
        # An unbalanced parenthesis in infix, a missing operand in prefix.
        text = forms.render(formula, syntax)
        return f"LTL: {text + ' )' if syntax == 'infix' else '& ' + text}\nFINISH"
    if reason == "unsat":
        # Reach an atom that must never hold.
        name = ap(min(forms.atoms(formula)))
        return f"LTL: {forms.render(conj(ev(name), alw(neg(name))), syntax)}\nFINISH"
    raise ValueError(f"unknown rejection reason {reason!r}")
