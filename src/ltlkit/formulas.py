"""LTL formula trees and their semantics over ultimately periodic words.

The operator set is deliberately small: atoms, negation, conjunction,
disjunction, Finally, Globally and Until.  Release exists only as the
negation-normal-form dual of Until and never appears in surface syntax.
There is no Next operator.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Tokens reserved for operators; they can never name an atomic proposition.
RESERVED_TOKENS = frozenset({"F", "G", "U", "X", "R"})


def is_valid_atom_name(name: str) -> bool:
    return bool(_ATOM_RE.match(name)) and name not in RESERVED_TOKENS


class _Interned(type):
    """Builds every node through ``_table``, keyed by (class, *fields); a
    hit skips ``__init__``, Atom's name check included.  A miss builds
    under ``_lock`` after a second look, so threads share one node."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # as from dataclasses.replace: a node binds them
            node = super().__call__(*args, **kwargs)
            args = tuple(getattr(node, name) for name in cls.__match_args__)
        key = (cls, *args)
        node = _table.get(key)
        if node is None:
            with _lock:
                node = _table.get(key)
                if node is None:
                    node = _table[key] = super().__call__(*args)
        return node


# Values are held weakly, so untrusted input cannot grow the table.
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_lock = threading.Lock()


class Formula(metaclass=_Interned):
    """Base class for all formula nodes.

    Nodes are interned (hash-consed; Filliâtre and Conchon, "Type-safe
    modular hash-consing", 2006): equal trees are one object, so ``==`` is
    ``is`` and ``hash`` the identity hash, and neither walks the tree.  A
    pickle or copy holds the distinct nodes as a flat table, children
    first, and loads through the constructors into the loader's nodes.

    A node also keeps, in its ``__dict__``, what ``kept`` computed from it
    on first use: its printed text in each syntax, ``atoms``,
    ``operator_tokens`` and, for a goal given to ``plan``, its automaton.
    Only the node a caller asked about keeps them, not its subnodes, and
    they go with the node.  They are not fields, so ``repr``, ``asdict``,
    pickles and copies never show them.
    """

    def __reduce__(self):
        nodes = list(dict.fromkeys(reversed(list(walk(self)))))
        number = {node: i for i, node in enumerate(nodes)}
        return _from_rows, (tuple(
            (Atom, n.name) if type(n) is Atom else (type(n), *map(number.get, children(n)))
            for n in nodes
        ),)


def _from_rows(rows: tuple) -> Formula:
    built: list = []
    for cls, *fields in rows:
        built.append(cls(*fields) if cls is Atom else cls(*map(built.__getitem__, fields)))
    return built[-1]


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    """An atomic proposition, e.g. ``red_room``."""

    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atomic proposition name: {self.name!r}")
        if self.name in RESERVED_TOKENS:
            raise ValueError(f"{self.name!r} is a reserved operator token")


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Finally(Formula):
    """F(phi): phi holds at some present or future position."""

    operand: Formula


@dataclass(frozen=True, eq=False)
class Globally(Formula):
    """G(phi): phi holds at every present and future position."""

    operand: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    """left U right: right eventually holds and left holds until then."""

    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Release(Formula):
    """Dual of Until; internal to negation normal form only."""

    left: Formula
    right: Formula


# How many subformulas each node class holds: one in ``operand``, or two
# in ``left`` and ``right``.
_ARITY = {Atom: 0, Not: 1, Finally: 1, Globally: 1, And: 2, Or: 2, Until: 2, Release: 2}


def children(f: Formula) -> tuple[Formula, ...]:
    arity = _ARITY.get(type(f))
    if arity is None:
        raise TypeError(f"not a formula node: {f!r}")
    return () if arity == 0 else (f.operand,) if arity == 1 else (f.left, f.right)


T = TypeVar("T")


def fold(f: Formula, combine: Callable[..., T]) -> T:
    """Combine f bottom-up, without recursion, and return the root's result.

    ``combine(node, *results)`` is called once for every occurrence of a
    node, with the results of its children in ``children`` order.  Nodes
    are combined in post-order: a node's left subtree completely, then its
    right subtree, then the node itself.  Equal subtrees are one interned
    node, but it is combined once per occurrence; fold keeps no results
    (``kept`` keeps a root's).
    """
    order = []
    stack = [f]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += children(node)
    results: list = []
    for node in reversed(order):
        arity = _ARITY[type(node)]
        if arity == 0:
            results.append(combine(node))
        elif arity == 1:
            results[-1] = combine(node, results[-1])
        else:
            right = results.pop()
            results[-1] = combine(node, results[-1], right)
    return results[0]


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of f, parents before children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def kept(f: Formula, key: str, compute: Callable[[Formula], T]) -> T:
    """``compute(f)``, computed on the first call and kept on the node f.

    Nodes are interned and immutable, so the value holds as long as f
    lives, and goes with it.  An exception is raised afresh on every call,
    never kept.  Two threads may both compute a value; either result is
    the same.
    """
    value = f.__dict__.get(key)
    if value is None:
        value = f.__dict__[key] = compute(f)
    return value


def atoms(f: Formula) -> frozenset[str]:
    """The set of atomic proposition names occurring in f."""
    return kept(f, "_atoms", _atoms)


def _atoms(f: Formula) -> frozenset[str]:
    return frozenset(n.name for n in walk(f) if isinstance(n, Atom))


_OP_TOKEN = {Not: "!", And: "&", Or: "|", Finally: "F", Globally: "G", Until: "U"}


def operator_tokens(f: Formula) -> frozenset[str]:
    """The set of operator tokens used by f, drawn from {F, G, U, &, |, !}."""
    return kept(f, "_operator_tokens", _operator_tokens)


def _operator_tokens(f: Formula) -> frozenset[str]:
    found = set()
    for node in walk(f):
        if isinstance(node, Release):
            raise ValueError("Release has no surface token")
        tok = _OP_TOKEN.get(type(node))
        if tok is not None:
            found.add(tok)
    return frozenset(found)


def map_atoms(f: Formula, rename: Callable[[str], str]) -> Formula:
    """f with every atom ``a`` replaced by the atom ``rename(a.name)``."""
    return fold(
        f, lambda node, *kids: type(node)(*kids) if kids else Atom(rename(node.name))
    )


def structure(f: Formula) -> Formula:
    """The shape of f with every atom collapsed to the placeholder ``p``.

    Two formulas share a structure exactly when they differ only in which
    atoms appear at the leaves.
    """
    return map_atoms(f, lambda name: "p")


# The operator each operator turns into when a negation is pushed through it.
_DUAL = {And: Or, Or: And, Finally: Globally, Globally: Finally, Until: Release, Release: Until}


def _nnf_pair(node: Formula, *kids: tuple[Formula, Formula]) -> tuple[Formula, Formula]:
    """The negation normal forms of node and of its negation, given its
    children's pairs."""
    if not kids:
        return node, Not(node)
    if type(node) is Not:
        return kids[0][::-1]
    positive, negative = zip(*kids)
    return type(node)(*positive), _DUAL[type(node)](*negative)


def to_nnf(f: Formula) -> Formula:
    """Negation normal form: negation only on atoms, via operator duals.

    Uses !F(p) = G(!p), !G(p) = F(!p), !(p U q) = !p R !q, !(p R q) = !p U !q
    and De Morgan.  The result may contain Release nodes.
    """
    return fold(f, _nnf_pair)[0]


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
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def successor(self, i: int) -> int:
        return i + 1 if i + 1 < self.positions() else len(self.prefix)


def evaluate(f: Formula, w: LassoWord) -> bool:
    """Decide whether w satisfies f, by fixpoint over the finite quotient.

    Until is a least fixpoint (start false, grow) and Release a greatest
    one (start true, shrink); each iterates until stable, which takes at
    most one pass per position.  F(b) is evaluated as true U b and G(b)
    as false R b.
    """
    n = w.positions()
    succ = [w.successor(i) for i in range(n)]
    labels = [w.label(i) for i in range(n)]
    backwards = range(n - 1, -1, -1)

    def until(a: list[bool], b: list[bool]) -> list[bool]:
        out = [False] * n
        changed = True
        while changed:
            changed = False
            for i in backwards:
                v = b[i] or (a[i] and out[succ[i]])
                if v != out[i]:
                    out[i] = v
                    changed = True
        return out

    def release(a: list[bool], b: list[bool]) -> list[bool]:
        out = [True] * n
        changed = True
        while changed:
            changed = False
            for i in backwards:
                v = b[i] and (a[i] or out[succ[i]])
                if v != out[i]:
                    out[i] = v
                    changed = True
        return out

    always, never = [True] * n, [False] * n
    steps = {
        Atom: lambda g: [g.name in label for label in labels],
        Not: lambda g, a: [not x for x in a],
        And: lambda g, a, b: [x and y for x, y in zip(a, b)],
        Or: lambda g, a, b: [x or y for x, y in zip(a, b)],
        Finally: lambda g, b: until(always, b),
        Globally: lambda g, b: release(never, b),
        Until: lambda g, a, b: until(a, b),
        Release: lambda g, a, b: release(a, b),
    }
    return fold(f, lambda g, *kids: steps[type(g)](g, *kids))[0]
