"""The benchmark's own small formula representation.

Inputs are generated here as tuples and rendered to text, and the
package's outputs are converted back to tuples before they are checked,
so no check relies on the package's printer or parser.

A formula is ``("ap", name)``, ``("!", f)``, ``("F", f)``, ``("G", f)``,
or a binary ``("&", f, g)``, ``("|", f, g)`` or ``("U", f, g)``.
"""

from __future__ import annotations

UNARY = ("!", "F", "G")

# Binding strength in infix text, loosest first; atoms, F and G are
# self-delimiting and bind tightest.
_LEVEL = {"|": 1, "&": 2, "U": 3, "!": 4}
_TIGHT = 5


def ap(name):
    return ("ap", name)


def neg(f):
    return ("!", f)


def ev(f):
    return ("F", f)


def alw(f):
    return ("G", f)


def conj(*fs):
    """Left-nested conjunction, as the infix parser builds ``a & b & c``."""
    out = fs[0]
    for f in fs[1:]:
        out = ("&", out, f)
    return out


def disj(f, g):
    return ("|", f, g)


def until(f, g):
    return ("U", f, g)


def _level(f) -> int:
    return _LEVEL.get(f[0], _TIGHT)


def infix(f) -> str:
    """Canonical infix text with the fewest parentheses.

    ``&`` and ``|`` associate to the left and ``U`` to the right, so a
    right operand of the same binary operator (and a left ``U`` operand)
    is parenthesised.
    """
    op = f[0]
    if op == "ap":
        return f[1]
    if op == "!":
        inner = infix(f[1])
        return "!" + (f"({inner})" if _level(f[1]) < _LEVEL["!"] else inner)
    if op in ("F", "G"):
        return f"{op}({infix(f[1])})"
    left, right = f[1], f[2]
    lt, rt = infix(left), infix(right)
    level = _LEVEL[op]
    if _level(left) < level or (op == "U" and left[0] == "U"):
        lt = f"({lt})"
    if _level(right) < level or (op != "U" and right[0] == op):
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


def prefix(f) -> str:
    """Polish notation with space-separated tokens."""
    if f[0] == "ap":
        return f[1]
    return " ".join([f[0]] + [prefix(g) for g in f[1:]])


def render(f, syntax: str) -> str:
    return infix(f) if syntax == "infix" else prefix(f)


def atoms(f) -> frozenset:
    if f[0] == "ap":
        return frozenset([f[1]])
    out = frozenset()
    for g in f[1:]:
        out |= atoms(g)
    return out


def operators(f) -> frozenset:
    if f[0] == "ap":
        return frozenset()
    out = frozenset([f[0]])
    for g in f[1:]:
        out |= operators(g)
    return out


_NODE_TAGS = {
    "Not": "!", "Finally": "F", "Globally": "G",
    "And": "&", "Or": "|", "Until": "U",
}


def from_package(node):
    """Convert a formula object returned by the package into a tuple.

    Reads only node class names and fields, so the conversion does not
    depend on the package's printer.
    """
    kind = type(node).__name__
    if kind == "Atom":
        return ("ap", node.name)
    tag = _NODE_TAGS[kind]
    if tag in UNARY:
        return (tag, from_package(node.operand))
    return (tag, from_package(node.left), from_package(node.right))


def confidence_scores(candidates) -> dict:
    """The documented token-overlap fallback score, recomputed.

    A candidate's tokens are its atoms and operator symbols; each token
    earns the number of candidates (with multiplicity) holding it, and
    the score is their sum over (token count * number of candidates).
    Keys are canonical infix texts.
    """
    n = len(candidates)
    token_sets = [atoms(f) | operators(f) for f in candidates]
    counts: dict = {}
    for tokens in token_sets:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    scores: dict = {}
    for f, tokens in zip(candidates, token_sets):
        text = infix(f)
        if text not in scores:
            scores[text] = sum(counts[t] for t in tokens) / (len(tokens) * n)
    return scores


def fallback_winner(candidates):
    """Highest score wins; ties go to the smallest infix text."""
    scores = confidence_scores(candidates)
    best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return next(f for f in candidates if infix(f) == best)
