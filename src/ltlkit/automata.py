"""Generalized Büchi automata for satisfiability and equivalence checking.

``build_automaton`` runs the classic tableau expansion over the negation
normal form: a state is a set of obligations that must hold from the
current position, and every way of discharging them into "now" literals
plus "next" obligations becomes a transition.  Each Finally/Until
subformula contributes one acceptance set, tracking that its eventuality
is discharged infinitely often.  An edge's constraint stays as the two
atom bitmasks the expansion computes, ``pos`` (atoms that must hold) and
``neg`` (atoms that must not), bit j standing for the j-th atom of
``sorted(aut.alphabet)``; ``dump``, the witness and the planner decode
them against that order.

Emptiness goes through the counting degeneralization and a strongly
connected component decomposition: ``is_empty`` returns an ultimately
periodic witness word, or None when the language is empty.
``is_satisfiable`` memoises its results, so ``equiv`` and every caller
deciding a formula again pay only a lookup.
"""

from __future__ import annotations

import bisect
import functools
from collections import deque
from dataclasses import dataclass

from .formulas import (
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
    evaluate,
    fold,
    to_nnf,
)

# States one automaton may have; ``build_automaton`` reads it on every call.
STATE_CAP = 100_000

# Entries in the is_satisfiable memo; each holds one formula and its
# SatResult.
SAT_MEMO_SIZE = 1024


class ResourceLimitError(RuntimeError):
    """Automaton construction exceeded ``STATE_CAP`` states."""

    def __init__(self, cap: int):
        super().__init__(f"automaton construction exceeded {cap} states")
        self.cap = cap


# Fully parenthesized templates, one per operator, Release included.
_SHOW = {
    Not: "!%s",
    Finally: "F(%s)",
    Globally: "G(%s)",
    And: "(%s & %s)",
    Or: "(%s | %s)",
    Until: "(%s U %s)",
    Release: "(%s R %s)",
}


def _show_node(node: Formula, *kids: str) -> str:
    return _SHOW[type(node)] % kids if kids else node.name


def _show(f: Formula) -> str:
    """Fully parenthesized rendering, Release included; used for sorting
    states and for the debug dump, never as surface syntax."""
    return fold(f, _show_node)


@dataclass(frozen=True)
class BuchiAutomaton:
    """A generalized Büchi automaton over the letters of ``alphabet``.

    Each transition is ``(src, pos, neg, dst)``: ``pos`` and ``neg`` are
    bitmasks over ``sorted(alphabet)``, bit j standing for its j-th atom,
    naming the atoms that must hold and those that must not (never both);
    atoms in neither are unconstrained.  Transitions are sorted by source,
    then by the set bits of ``pos`` and of ``neg``, then by target.  State
    i lies in acceptance set j when i is in ``acceptance_sets[j]``.
    """

    alphabet: frozenset[str]
    n_states: int
    initial: int
    transitions: tuple[tuple[int, int, int, int], ...]
    acceptance_sets: tuple[frozenset[int], ...]
    state_notes: tuple[str, ...]


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Closure:
    """The subformulas of an NNF formula, numbered once in ``_show`` order.

    Atoms are numbered in name order.  Because both numberings follow the
    orders the construction sorts by, ascending bit indices reproduce
    every ``_show``- and name-keyed order exactly.  ``kind`` and ``args``
    give each member's node type and child indices; ``atom_bit`` holds,
    for an atom or a negated atom, the bit of its name.
    """

    def __init__(self, nnf: Formula):
        shows: dict[Formula, str] = {}
        fold(nnf, lambda node, *kids: shows.setdefault(node, _show_node(node, *kids)))
        members = sorted(shows, key=shows.__getitem__)
        index = {node: i for i, node in enumerate(members)}
        self.shows = [shows[node] for node in members]
        self.kind = [type(node) for node in members]
        self.args = [tuple(index[c] for c in children(node)) for node in members]
        name_bit = {name: 1 << j for j, name in enumerate(sorted(atoms(nnf)))}
        self.atom_bit = [
            name_bit[node.name] if isinstance(node, Atom)
            else name_bit[node.operand.name] if isinstance(node, Not)
            else 0
            for node in members
        ]
        self.root = index[nnf]
        self.eventualities = 0
        for i, kind in enumerate(self.kind):
            if kind is Finally or kind is Until:
                self.eventualities |= 1 << i

    def expansions(self, obligations: int) -> list[tuple[int, int, int, int]]:
        """All ways to discharge a set of obligations for one step.

        Returns (pos, neg, next_obligations, fulfilled) bitmasks: pos/neg
        over atoms constrained now, the others over closure members, with
        fulfilled collecting the Finally/Until obligations discharged
        through their eventuality branch.  Contradictory branches are
        pruned.  The list is sorted by the members of each mask in turn.
        """
        kind, args, atom_bit = self.kind, self.args, self.atom_bit
        results: set = set()
        branches = [(_bits(obligations), 0, 0, 0, 0, 0)]
        while branches:
            pending, seen, pos, neg, nxt, ful = branches.pop()
            while pending:
                i, pending = pending[0], pending[1:]
                bit = 1 << i
                if seen & bit:
                    continue
                seen |= bit
                k = kind[i]
                if k is Atom:
                    if neg & atom_bit[i]:
                        break
                    pos |= atom_bit[i]
                elif k is Not:
                    if pos & atom_bit[i]:
                        break
                    neg |= atom_bit[i]
                elif k is And:
                    pending = args[i] + pending
                elif k is Or:
                    left, right = args[i]
                    branches.append(((right,) + pending, seen, pos, neg, nxt, ful))
                    pending = (left,) + pending
                elif k is Finally:
                    branches.append((pending, seen, pos, neg, nxt | bit, ful))
                    pending = args[i] + pending
                    ful |= bit
                elif k is Globally:
                    pending = args[i] + pending
                    nxt |= bit
                elif k is Until:
                    left, right = args[i]
                    branches.append(((left,) + pending, seen, pos, neg, nxt | bit, ful))
                    pending = (right,) + pending
                    ful |= bit
                else:  # Release, the last kind negation normal form has
                    left, right = args[i]
                    branches.append(((right,) + pending, seen, pos, neg, nxt | bit, ful))
                    pending = (left, right) + pending
            else:
                results.add((pos, neg, nxt, ful))
        return sorted(results, key=lambda r: tuple(map(_bits, r)))

    def show_set(self, mask: int) -> str:
        return ", ".join(self.shows[i] for i in _bits(mask))


def build_automaton(f: Formula) -> BuchiAutomaton:
    """Tableau construction; states are (obligations, fulfilled-badge) pairs.

    The badge records which eventualities the incoming transition
    discharged (or did not owe), so acceptance can be expressed over
    states: acceptance set i holds the states whose badge contains the
    i-th eventuality.  Obligations and badges are bitmasks over the
    numbered closure of the negation normal form.  Past ``STATE_CAP``
    states it raises ``ResourceLimitError``.
    """
    closure = _Closure(to_nnf(f))
    eventualities = closure.eventualities
    initial = (1 << closure.root, 0)
    ids: dict[tuple[int, int], int] = {initial: 0}
    queue = deque([initial])
    transitions: set[tuple[int, int, int, int]] = set()
    expansion_cache: dict[int, list] = {}

    while queue:
        state = queue.popleft()
        sid = ids[state]
        obligations = state[0]
        expanded = expansion_cache.get(obligations)
        if expanded is None:
            expanded = closure.expansions(obligations)
            expansion_cache[obligations] = expanded
        for pos, neg, nxt, ful in expanded:
            target = (nxt, eventualities & (~obligations | ful))
            tid = ids.get(target)
            if tid is None:
                tid = len(ids)
                if tid >= STATE_CAP:
                    raise ResourceLimitError(STATE_CAP)
                ids[target] = tid
                queue.append(target)
            transitions.add((sid, pos, neg, tid))

    notes = [""] * len(ids)
    for (obls, badge), sid in ids.items():
        notes[sid] = "obligations={%s} fulfilled={%s}" % (
            closure.show_set(obls), closure.show_set(badge)
        )

    acceptance = tuple(
        frozenset(sid for (_, badge), sid in ids.items() if badge >> u & 1)
        for u in _bits(eventualities)
    )
    return BuchiAutomaton(
        alphabet=atoms(f),
        n_states=len(ids),
        initial=0,
        transitions=tuple(sorted(
            transitions, key=lambda t: (t[0], _bits(t[1]), _bits(t[2]), t[3])
        )),
        acceptance_sets=acceptance,
        state_notes=tuple(notes),
    )


def _degeneralized_edges(aut: BuchiAutomaton):
    """The counter product: (start, n_nodes, successors, accepting).

    Node ``q * (k + 1) + c`` is state q with counter c: acceptance sets
    0..c-1 have been visited this round, and c == k marks a completed
    round, which resets on the next step.  Nodes are numbered below
    ``n_nodes``, and ``start`` is the initial state's node.
    ``successors(node)`` yields ((pos, neg), node) pairs in transition
    order.
    """
    adj: dict[int, list] = {s: [] for s in range(aut.n_states)}
    for src, pos, neg, dst in aut.transitions:
        adj[src].append(((pos, neg), dst))
    k = len(aut.acceptance_sets)
    k1 = k + 1

    def successors(node):
        q, c = divmod(node, k1)
        base = 0 if c == k and k > 0 else c
        for lab, q2 in adj[q]:
            c2 = base
            while c2 < k and q2 in aut.acceptance_sets[c2]:
                c2 += 1
            yield lab, q2 * k1 + c2

    def accepting(node) -> bool:
        return node % k1 == k

    return aut.initial * k1, aut.n_states * k1, successors, accepting


def _tarjan_sccs(start, successors, accepting):
    """Iterative Tarjan over the nodes reachable from start.

    ``successors(node)`` is called exactly once per node, when the search
    enters it, so a caller can build its graph inside this one pass; the
    automaton and the planner's product graph share it.  Nodes are
    numbered in the order the search enters them (Tarjan's index), and
    the per-node state is flat lists over those numbers, sized to the
    nodes reached.  Returns (comp_of, good): ``comp_of`` maps each node
    reached to its component, numbered as they complete, and ``good[c]``
    says whether component c holds a cycle through an accepting node.
    """
    number = {start: 0}
    nodes = [start]
    low = [0]
    self_loop = bytearray(1)
    comp = [-1]  # -1 while the node is on the stack
    good = bytearray()
    stack = [0]  # entered, unassigned nodes; ascending, as entered
    work = [(0, iter(successors(start)))]
    while work:
        v, it = work[-1]
        for node in it:
            w = number.get(node)
            if w is None:
                w = number[node] = len(nodes)
                nodes.append(node)
                low.append(w)
                self_loop.append(0)
                comp.append(-1)
                stack.append(w)
                work.append((w, iter(successors(node))))
                break
            if w == v:
                self_loop[v] = 1
            if comp[w] < 0 and w < low[v]:
                low[v] = w
        else:
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == v:
                at = bisect.bisect_left(stack, v)
                members = stack[at:]
                del stack[at:]
                c = len(good)
                for m in members:
                    comp[m] = c
                good.append((len(members) > 1 or self_loop[v])
                            and any(accepting(nodes[m]) for m in members))
    return dict(zip(nodes, comp)), good


def _bfs_path(source, successors, goal_test, allowed=None):
    """Shortest non-empty path from source to a goal node, or None.

    Returns a list of (label, node) steps.  The source itself is a goal
    only when a cycle leads back to it, as in the planner's ``walk``.
    """
    parents: dict = {}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for lab, succ in successors(node):
            if succ in parents or (allowed is not None and succ not in allowed):
                continue
            parents[succ] = (node, lab)
            if goal_test(succ):
                path = [(lab, succ)]
                while node != source:
                    prev, lab = parents[node]
                    path.append((lab, node))
                    node = prev
                path.reverse()
                return path
            queue.append(succ)
    return None


def is_empty(aut: BuchiAutomaton) -> LassoWord | None:
    """Language emptiness: a witness lasso, or None when the language is empty.

    One Tarjan pass over the counter nodes of ``_degeneralized_edges``
    finds the components with an accepting cycle.  The witness is a
    shortest prefix to one, then a shortest cycle through its first node
    if that node is accepting, else a shortest walk to an accepting node
    of its component and back.  Each step reads its edge's canonical
    letter: the atoms of ``pos`` true, all others false.
    """
    start, _, successors, accepting = _degeneralized_edges(aut)
    comp_of, good = _tarjan_sccs(
        start, lambda n: [s for _, s in successors(n)], accepting
    )
    if not any(good):
        return None

    prefix = [] if good[comp_of[start]] else _bfs_path(
        start, successors, lambda n: good[comp_of[n]]
    )
    anchor = prefix[-1][1] if prefix else start
    inside = {n for n, c in comp_of.items() if c == comp_of[anchor]}
    if accepting(anchor):
        loop = _bfs_path(anchor, successors, lambda n: n == anchor, inside)
    else:
        loop = _bfs_path(anchor, successors, accepting, inside)
        loop += _bfs_path(loop[-1][1], successors, lambda n: n == anchor, inside)

    names = sorted(aut.alphabet)

    def letters(steps) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(names[j] for j in _bits(pos)) for (pos, _), _ in steps)

    return LassoWord(letters(prefix), letters(loop))


@dataclass(frozen=True)
class SatResult:
    """A satisfiability verdict: a satisfiable formula carries its witness."""

    witness: LassoWord | None

    @property
    def satisfiable(self) -> bool:
        return self.witness is not None


@functools.lru_cache(maxsize=SAT_MEMO_SIZE)
def is_satisfiable(f: Formula) -> SatResult:
    """Satisfiability via automaton emptiness, with a semantic self-check.

    Results are memoised process-wide, keyed by the formula alone, in a
    least-recently-used table of ``SAT_MEMO_SIZE`` entries, so a result
    remembered before ``STATE_CAP`` changed stands until
    ``is_satisfiable.cache_clear()``.  The self-check runs on every
    computed result; ``ResourceLimitError`` and a failed self-check are
    raised again on every call, never remembered.
    """
    witness = is_empty(build_automaton(f))
    if witness is None:
        return SatResult(None)
    if not evaluate(f, witness):
        raise RuntimeError(
            "internal error: emptiness witness failed the semantic self-check "
            f"for {_show(f)}"
        )
    return SatResult(witness)


def equiv(f: Formula, g: Formula) -> bool:
    """Language equivalence: f & !g and !f & g are both unsatisfiable."""
    if f == g:
        return True
    if is_satisfiable(And(f, Not(g))).satisfiable:
        return False
    return not is_satisfiable(And(Not(f), g)).satisfiable


def dump(aut: BuchiAutomaton) -> str:
    """Line-oriented text dump, one ``state``/``edge``/``accept`` line each.

    Edge constraints list the atoms of ``pos`` bare and those of ``neg``
    with a ``!`` prefix; ``[true]`` marks the unconstrained edge.
    """
    names = sorted(aut.alphabet)
    lines = [
        f"states: {aut.n_states}",
        f"initial: {aut.initial}",
        "alphabet: " + ", ".join(names),
    ]
    for sid in range(aut.n_states):
        lines.append(f"state {sid}: {aut.state_notes[sid]}")
    for src, pos, neg, dst in aut.transitions:
        bits = [names[j] for j in _bits(pos)] + ["!" + names[j] for j in _bits(neg)]
        lines.append(f"edge {src} -> {dst} [{', '.join(bits) if bits else 'true'}]")
    for i, acc in enumerate(aut.acceptance_sets):
        lines.append(f"accept {i}: " + ", ".join(str(s) for s in sorted(acc)))
    return "\n".join(lines) + "\n"
