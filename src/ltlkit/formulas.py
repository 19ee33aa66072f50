"""LTL formula trees and their semantics over ultimately periodic words.

The operator set is deliberately small: atoms, negation, conjunction,
disjunction, Finally, Globally and Until.  Release exists only as the
negation-normal-form dual of Until and never appears in surface syntax.
There is no Next operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Tokens reserved for operators; they can never name an atomic proposition.
RESERVED_TOKENS = frozenset({"F", "G", "U", "X", "R"})


def is_valid_atom_name(name: str) -> bool:
    return bool(_ATOM_RE.match(name)) and name not in RESERVED_TOKENS


class Formula:
    """Base class for all formula nodes.

    A node's hash is ``hash`` of the tuple of its fields, as the generated
    dataclass hash gives it, but is computed on first use and kept in the
    node, so a memo lookup on a tree costs one call instead of a walk.
    The kept value is left out of pickles and copies: string hashes differ
    between processes, so a loaded node computes its own.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = self._field_hash()
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic proposition, e.g. ``red_room``."""

    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atomic proposition name: {self.name!r}")
        if self.name in RESERVED_TOKENS:
            raise ValueError(f"{self.name!r} is a reserved operator token")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Finally(Formula):
    """F(phi): phi holds at some present or future position."""

    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    """G(phi): phi holds at every present and future position."""

    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    """left U right: right eventually holds and left holds until then."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    """Dual of Until; internal to negation normal form only."""

    left: Formula
    right: Formula


# The generated hash of each node class becomes _field_hash, behind the
# caching Formula.__hash__.
for _cls in (Atom, Not, And, Or, Finally, Globally, Until, Release):
    _cls._field_hash = _cls.__hash__
    _cls.__hash__ = Formula.__hash__


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Finally, Globally)):
        return (f.operand,)
    if isinstance(f, (And, Or, Until, Release)):
        return (f.left, f.right)
    raise TypeError(f"not a formula node: {f!r}")


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of f, parents before children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def atoms(f: Formula) -> frozenset[str]:
    """The set of atomic proposition names occurring in f."""
    return frozenset(n.name for n in walk(f) if isinstance(n, Atom))


_OP_TOKEN = {Not: "!", And: "&", Or: "|", Finally: "F", Globally: "G", Until: "U"}


def operator_tokens(f: Formula) -> frozenset[str]:
    """The set of operator tokens used by f, drawn from {F, G, U, &, |, !}."""
    found = set()
    for node in walk(f):
        if isinstance(node, Release):
            raise ValueError("Release has no surface token")
        tok = _OP_TOKEN.get(type(node))
        if tok is not None:
            found.add(tok)
    return frozenset(found)


def node_count(f: Formula) -> int:
    return sum(1 for _ in walk(f))


def structure(f: Formula) -> Formula:
    """The shape of f with every atom collapsed to the placeholder ``p``.

    Two formulas share a structure exactly when they differ only in which
    atoms appear at the leaves.
    """
    if isinstance(f, Atom):
        return Atom("p")
    if isinstance(f, Not):
        return Not(structure(f.operand))
    if isinstance(f, And):
        return And(structure(f.left), structure(f.right))
    if isinstance(f, Or):
        return Or(structure(f.left), structure(f.right))
    if isinstance(f, Finally):
        return Finally(structure(f.operand))
    if isinstance(f, Globally):
        return Globally(structure(f.operand))
    if isinstance(f, Until):
        return Until(structure(f.left), structure(f.right))
    if isinstance(f, Release):
        return Release(structure(f.left), structure(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, via operator duals.

    Uses !F(p) = G(!p), !G(p) = F(!p), !(p U q) = !p R !q, !(p R q) = !p U !q
    and De Morgan.  The result may contain Release nodes.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Finally):
        return Finally(to_nnf(f.operand))
    if isinstance(f, Globally):
        return Globally(to_nnf(f.operand))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Not):
        g = f.operand
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return to_nnf(g.operand)
        if isinstance(g, And):
            return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Finally):
            return Globally(to_nnf(Not(g.operand)))
        if isinstance(g, Globally):
            return Finally(to_nnf(Not(g.operand)))
        if isinstance(g, Until):
            return Release(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
        if isinstance(g, Release):
            return Until(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    raise TypeError(f"not a formula node: {f!r}")


def is_nnf(f: Formula) -> bool:
    return all(
        isinstance(n.operand, Atom) for n in walk(f) if isinstance(n, Not)
    )


def conforms_to_dataset_grammar(f: Formula) -> bool:
    """True when negation is applied to atoms only, as dataset golds require."""
    return is_nnf(f) and not any(isinstance(n, Release) for n in walk(f))


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic word: ``prefix`` then ``loop`` forever.

    Each position is the set of atomic propositions true there.  The loop
    must be non-empty; the prefix may be empty.
    """

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("lasso loop must be non-empty")

    @staticmethod
    def make(prefix, loop) -> "LassoWord":
        """Build from any iterables of atom-name collections."""
        return LassoWord(
            tuple(frozenset(p) for p in prefix),
            tuple(frozenset(p) for p in loop),
        )

    def positions(self) -> int:
        return len(self.prefix) + len(self.loop)

    def label(self, i: int) -> frozenset[str]:
        n = self.positions()
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def successor(self, i: int) -> int:
        return i + 1 if i + 1 < self.positions() else len(self.prefix)


def evaluate(f: Formula, w: LassoWord) -> bool:
    """Decide whether w satisfies f, by fixpoint over the finite quotient.

    Until and Finally are least fixpoints (start false, grow), Globally and
    Release greatest fixpoints (start true, shrink); each iterates until
    stable, which takes at most one pass per position.
    """
    n = w.positions()
    succ = [w.successor(i) for i in range(n)]
    table: dict[Formula, list[bool]] = {}

    def vals(g: Formula) -> list[bool]:
        cached = table.get(g)
        if cached is not None:
            return cached
        if isinstance(g, Atom):
            out = [g.name in w.label(i) for i in range(n)]
        elif isinstance(g, Not):
            sub = vals(g.operand)
            out = [not v for v in sub]
        elif isinstance(g, And):
            a, b = vals(g.left), vals(g.right)
            out = [x and y for x, y in zip(a, b)]
        elif isinstance(g, Or):
            a, b = vals(g.left), vals(g.right)
            out = [x or y for x, y in zip(a, b)]
        elif isinstance(g, Finally):
            sub = vals(g.operand)
            out = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = sub[i] or out[succ[i]]
                    if v != out[i]:
                        out[i] = v
                        changed = True
        elif isinstance(g, Globally):
            sub = vals(g.operand)
            out = [True] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = sub[i] and out[succ[i]]
                    if v != out[i]:
                        out[i] = v
                        changed = True
        elif isinstance(g, Until):
            a, b = vals(g.left), vals(g.right)
            out = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = b[i] or (a[i] and out[succ[i]])
                    if v != out[i]:
                        out[i] = v
                        changed = True
        elif isinstance(g, Release):
            a, b = vals(g.left), vals(g.right)
            out = [True] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    v = b[i] and (a[i] or out[succ[i]])
                    if v != out[i]:
                        out[i] = v
                        changed = True
        else:
            raise TypeError(f"not a formula node: {g!r}")
        table[g] = out
        return out

    return vals(f)[0]
