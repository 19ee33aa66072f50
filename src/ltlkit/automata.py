"""Generalized Büchi automata for satisfiability and equivalence checking.

``build_automaton`` runs the classic tableau expansion over the negation
normal form: a state is a set of obligations that must hold from the
current position, and every way of discharging them into "now" literals
plus "next" obligations becomes a transition.  Each Finally/Until
subformula contributes one acceptance set, tracking that its eventuality
is discharged infinitely often.

Emptiness goes through the counting degeneralization and a strongly
connected component decomposition; a non-empty automaton yields an
ultimately periodic witness word.  ``is_satisfiable`` memoises its
results, so ``equiv`` and every caller deciding a formula again pay only a
lookup.
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
    to_nnf,
    walk,
)

DEFAULT_STATE_CAP = 100_000

# Entries in the is_satisfiable memo; each holds one formula and its
# SatResult.
SAT_MEMO_SIZE = 1024


class ResourceLimitError(RuntimeError):
    """Automaton construction exceeded the configured state cap."""

    def __init__(self, cap: int):
        super().__init__(f"automaton construction exceeded {cap} states")
        self.cap = cap


def _show(f: Formula) -> str:
    """Fully parenthesized rendering, Release included; used for sorting
    states and for the debug dump, never as surface syntax."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _show(f.operand)
    if isinstance(f, Finally):
        return f"F({_show(f.operand)})"
    if isinstance(f, Globally):
        return f"G({_show(f.operand)})"
    if isinstance(f, And):
        return f"({_show(f.left)} & {_show(f.right)})"
    if isinstance(f, Or):
        return f"({_show(f.left)} | {_show(f.right)})"
    if isinstance(f, Until):
        return f"({_show(f.left)} U {_show(f.right)})"
    if isinstance(f, Release):
        return f"({_show(f.left)} R {_show(f.right)})"
    raise TypeError(f"not a formula node: {f!r}")


@dataclass(frozen=True)
class Label:
    """Transition constraint: atoms that must hold and atoms that must not.

    Atoms mentioned in neither set are unconstrained.
    """

    required_true: frozenset[str]
    required_false: frozenset[str]

    def __post_init__(self) -> None:
        if self.required_true & self.required_false:
            raise ValueError("contradictory transition label")

    def admits(self, letter: frozenset[str]) -> bool:
        return self.required_true <= letter and not (self.required_false & letter)

    def witness_letter(self) -> frozenset[str]:
        """The canonical letter: required atoms true, everything else false."""
        return self.required_true

    def _key(self):
        return (tuple(sorted(self.required_true)), tuple(sorted(self.required_false)))


@dataclass(frozen=True)
class BuchiAutomaton:
    alphabet: frozenset[str]
    n_states: int
    initial: int
    transitions: tuple[tuple[int, Label, int], ...]
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
        shows = {node: _show(node) for node in set(walk(nnf))}
        members = sorted(shows, key=shows.__getitem__)
        index = {node: i for i, node in enumerate(members)}
        names = sorted(atoms(nnf))
        self.names = names
        self.shows = [shows[node] for node in members]
        self.kind = [type(node) for node in members]
        self.args = [tuple(index[c] for c in children(node)) for node in members]
        name_bit = {name: 1 << j for j, name in enumerate(names)}
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


def build_automaton(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> BuchiAutomaton:
    """Tableau construction; states are (obligations, fulfilled-badge) pairs.

    The badge records which eventualities the incoming transition
    discharged (or did not owe), so acceptance can be expressed over
    states: acceptance set i holds the states whose badge contains the
    i-th eventuality.  Obligations and badges are bitmasks over the
    numbered closure of the negation normal form.
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
                if tid >= state_cap:
                    raise ResourceLimitError(state_cap)
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
    names = closure.names
    labels: dict[tuple[int, int], Label] = {}

    def label(pos: int, neg: int) -> Label:
        lab = labels.get((pos, neg))
        if lab is None:
            lab = labels[pos, neg] = Label(
                frozenset(names[j] for j in _bits(pos)),
                frozenset(names[j] for j in _bits(neg)),
            )
        return lab

    return BuchiAutomaton(
        alphabet=atoms(f),
        n_states=len(ids),
        initial=0,
        transitions=tuple(
            (src, label(pos, neg), dst)
            for src, pos, neg, dst in sorted(
                transitions, key=lambda t: (t[0], _bits(t[1]), _bits(t[2]), t[3])
            )
        ),
        acceptance_sets=acceptance,
        state_notes=tuple(notes),
    )


@dataclass(frozen=True)
class EmptinessResult:
    empty: bool
    witness: LassoWord | None


def _degeneralized_edges(aut: BuchiAutomaton):
    """Adjacency of the counter product, plus its accepting predicate.

    Node ``q * (k + 1) + c`` is state q with counter c: acceptance sets
    0..c-1 have been visited this round, and c == k marks a completed
    round, which resets on the next step.  ``successors(node)`` yields
    (label, node) pairs in transition order.
    """
    adj: dict[int, list[tuple[Label, int]]] = {s: [] for s in range(aut.n_states)}
    for src, lab, dst in aut.transitions:
        adj[src].append((lab, dst))
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

    return successors, accepting


def _tarjan_sccs(start, successors, accepting):
    """Iterative Tarjan over the nodes reachable from start.

    ``successors(node)`` is called exactly once per node, when the search
    enters it, so a caller can build its graph inside this one pass; the
    automaton and the planner's product graph share it.  Nodes are
    numbered in the order the search enters them (Tarjan's index), and
    the per-node state is flat lists over those numbers, sized to the
    nodes reached.  Returns (nodes, adjacency, comp, good): node number
    i is ``nodes[i]``, ``adjacency[i]`` lists its successors' numbers and
    ``comp[i]`` its component, numbered as they complete; ``good[c]``
    says whether component c holds a cycle through an accepting node.
    """
    number = {start: 0}
    nodes = [start]
    adjacency: list[list[int]] = [[]]
    low = [0]
    comp = [-1]  # -1 while the node is on the stack
    good = bytearray()
    stack = [0]  # entered, unassigned nodes; ascending, as entered
    work = [(0, iter(successors(start)))]
    while work:
        v, it = work[-1]
        succs = adjacency[v]
        for node in it:
            w = number.get(node)
            if w is None:
                w = number[node] = len(nodes)
                nodes.append(node)
                adjacency.append([])
                low.append(w)
                comp.append(-1)
                stack.append(w)
                succs.append(w)
                work.append((w, iter(successors(node))))
                break
            succs.append(w)
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
                good.append((len(members) > 1 or v in succs)
                            and any(accepting(nodes[m]) for m in members))
    return nodes, adjacency, comp, good


def _bfs_path(sources, successors, goal_test, allowed=None):
    """Shortest edge path from any source to a goal node, or None.

    Returns a list of (label, node) steps.  A source satisfying goal_test
    yields the empty path.
    """
    parents: dict = {}
    queue = deque()
    for s in sources:
        if s not in parents:
            parents[s] = None
            queue.append(s)
            if goal_test(s):
                return []
    while queue:
        node = queue.popleft()
        for lab, succ in successors(node):
            if allowed is not None and succ not in allowed:
                continue
            if succ in parents:
                continue
            parents[succ] = (node, lab)
            if goal_test(succ):
                path = []
                cur = succ
                while parents[cur] is not None:
                    prev, label = parents[cur]
                    path.append((label, cur))
                    cur = prev
                path.reverse()
                return path
            queue.append(succ)
    return None


def _bfs_cycle(node, successors, allowed):
    """Shortest non-empty cycle from node back to itself inside allowed."""
    best = None
    for lab, succ in successors(node):
        if succ not in allowed:
            continue
        if succ == node:
            return [(lab, succ)]
        back = _bfs_path([succ], successors, lambda n: n == node, allowed)
        if back is not None:
            candidate = [(lab, succ)] + back
            if best is None or len(candidate) < len(best):
                best = candidate
    return best


def is_empty(aut: BuchiAutomaton) -> EmptinessResult:
    """Language emptiness; a non-empty result carries a witness lasso.

    One Tarjan pass over the counter nodes of ``_degeneralized_edges``
    finds the components with an accepting cycle.  The witness is a
    shortest prefix to one and a short accepting loop in it, with each
    label's canonical letter (required atoms true, all others false).
    """
    successors, accepting = _degeneralized_edges(aut)
    start = aut.initial * (len(aut.acceptance_sets) + 1)
    nodes, _, comps, good = _tarjan_sccs(
        start, lambda n: [s for _, s in successors(n)], accepting
    )
    if not any(good):
        return EmptinessResult(empty=True, witness=None)
    comp_of = dict(zip(nodes, comps))

    prefix_steps = _bfs_path([start], successors, lambda n: good[comp_of[n]])
    assert prefix_steps is not None  # good nodes are reachable by construction
    anchor = prefix_steps[-1][1] if prefix_steps else start
    comp = {n for n, c in comp_of.items() if c == comp_of[anchor]}

    to_accepting = _bfs_path([anchor], successors, accepting, allowed=comp)
    assert to_accepting is not None
    acc_node = to_accepting[-1][1] if to_accepting else anchor
    if acc_node == anchor:
        loop_steps = _bfs_cycle(anchor, successors, comp)
    else:
        back = _bfs_path([acc_node], successors, lambda n: n == anchor, allowed=comp)
        assert back is not None
        loop_steps = to_accepting + back
    assert loop_steps, "accepting component must contain a cycle"

    prefix = tuple(lab.witness_letter() for lab, _ in prefix_steps)
    loop = tuple(lab.witness_letter() for lab, _ in loop_steps)
    return EmptinessResult(empty=False, witness=LassoWord(prefix, loop))


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: LassoWord | None


@functools.lru_cache(maxsize=SAT_MEMO_SIZE)
def is_satisfiable(f: Formula, state_cap: int = DEFAULT_STATE_CAP) -> SatResult:
    """Satisfiability via automaton emptiness, with a semantic self-check.

    Results are memoised process-wide, keyed by the formula and the state
    cap, in a least-recently-used table of ``SAT_MEMO_SIZE`` entries.  The
    self-check runs on every computed result; ``ResourceLimitError`` and a
    failed self-check are raised again on every call, never remembered.
    """
    result = is_empty(build_automaton(f, state_cap=state_cap))
    if result.empty:
        return SatResult(satisfiable=False, witness=None)
    if not evaluate(f, result.witness):
        raise RuntimeError(
            "internal error: emptiness witness failed the semantic self-check "
            f"for {_show(f)}"
        )
    return SatResult(satisfiable=True, witness=result.witness)


def equiv(f: Formula, g: Formula, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Language equivalence: f & !g and !f & g are both unsatisfiable."""
    if f == g:
        return True
    if is_satisfiable(And(f, Not(g)), state_cap=state_cap).satisfiable:
        return False
    return not is_satisfiable(And(Not(f), g), state_cap=state_cap).satisfiable


def dump(aut: BuchiAutomaton) -> str:
    """Line-oriented text dump, one ``state``/``edge``/``accept`` line each.

    Edge constraints list required-true atoms bare and required-false atoms
    with a ``!`` prefix; ``[true]`` marks the unconstrained edge.
    """
    lines = [
        f"states: {aut.n_states}",
        f"initial: {aut.initial}",
        "alphabet: " + ", ".join(sorted(aut.alphabet)),
    ]
    for sid in range(aut.n_states):
        lines.append(f"state {sid}: {aut.state_notes[sid]}")
    for src, lab, dst in aut.transitions:
        bits = sorted(lab.required_true) + ["!" + a for a in sorted(lab.required_false)]
        lines.append(f"edge {src} -> {dst} [{', '.join(bits) if bits else 'true'}]")
    for i, acc in enumerate(aut.acceptance_sets):
        lines.append(f"accept {i}: " + ", ".join(str(s) for s in sorted(acc)))
    return "\n".join(lines) + "\n"
