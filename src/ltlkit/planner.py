"""Grid-world trajectory planning against a temporal-logic goal.

A world is a rectangular grid of cells; the agent starts on a designated
cell and may move to a 4-neighbor or stay put at every step.  Cells
carry sets of atomic propositions, and the infinite word read off a
trajectory (one letter per step, from the cell occupied at that step)
must satisfy the goal formula.  Planning searches the product of the
world graph with the goal's automaton and returns a lasso-shaped
trajectory: a finite prefix followed by a loop repeated forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from importlib import resources

from .automata import (
    BuchiAutomaton,
    DEFAULT_STATE_CAP,
    _degeneralized_edges,
    _tarjan_sccs,
    build_automaton,
    is_empty,
)
from .formulas import Formula, LassoWord, evaluate, is_valid_atom_name

Cell = tuple[int, int]

RESERVED_GLYPHS = {".", "#"}
BUILTIN_WORLDS = ("demo",)


class PlanningError(RuntimeError):
    """Base class for planner failures."""


class UnsatisfiableFormulaError(PlanningError):
    """The goal formula has no model at all, in any world."""


class NoPlanError(PlanningError):
    """The formula is satisfiable, but no trajectory in this world works."""


class WorldFormatError(ValueError):
    """A world file is malformed; the message carries file and line."""

    def __init__(self, origin: str, lineno: int, message: str):
        super().__init__(f"{origin}:{lineno}: {message}")
        self.origin = origin
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class GridWorld:
    """A rectangular grid with labeled cells.

    Coordinates are (x, y) with x the column growing rightward and y the
    row growing downward; (0, 0) is the top-left cell.  Movement is
    4-way plus waiting in place; blocked cells cannot be entered.  Each
    cell's labels, any collection of names but a string, become a frozenset.
    """

    width: int
    height: int
    start: Cell
    blocked: frozenset[Cell] = frozenset()
    labels: Mapping[Cell, frozenset[str]] = field(default_factory=dict)
    glyphs: Mapping[Cell, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("world dimensions must be positive")
        if not self.in_bounds(self.start):
            raise ValueError(f"start {self.start} is out of bounds")
        if self.start in self.blocked:
            raise ValueError(f"start {self.start} is a blocked cell")
        for cell in self.blocked:
            if not self.in_bounds(cell):
                raise ValueError(f"blocked cell {cell} is out of bounds")
        labels: dict[Cell, frozenset[str]] = {}
        for cell, names in self.labels.items():
            if not self.in_bounds(cell):
                raise ValueError(f"labeled cell {cell} is out of bounds")
            if cell in self.blocked:
                raise ValueError(f"labeled cell {cell} is blocked")
            if isinstance(names, str):
                raise ValueError(f"labels of {cell} must be a set of names, not {names!r}")
            labels[cell] = names = frozenset(names)
            for name in names:
                if not is_valid_atom_name(name):
                    raise ValueError(f"label {name!r} is not a valid atom name")
        object.__setattr__(self, "labels", labels)  # frozen, hashable letters

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def label(self, cell: Cell) -> frozenset[str]:
        return self.labels.get(cell, frozenset())

    def moves(self, cell: Cell) -> tuple[Cell, ...]:
        """Waiting plus the open 4-neighbors, in lexicographic order."""
        x, y = cell
        candidates = [cell, (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
        return tuple(sorted(
            c for c in candidates if self.in_bounds(c) and c not in self.blocked
        ))

    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for names in self.labels.values():
            out |= names
        return frozenset(out)


def parse_world(text: str, origin: str = "<string>") -> GridWorld:
    """Parse the world file format.

    The file has a ``legend:`` section mapping single characters to
    space-separated label names, then a ``grid:`` section whose lines
    are the rows.  ``.`` is an unlabeled cell, ``#`` is blocked, and
    ``S`` is the start cell (required exactly once); a legend entry for
    ``S`` gives the start cell labels.  Before ``grid:``, blank lines
    and lines starting with ``#`` are ignored; inside the grid every
    character is meaningful and the section ends at a blank line or the
    end of the file.
    """
    legend: dict[str, frozenset[str]] = {}
    rows: list[tuple[int, str]] = []
    section = "preamble"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if section == "grid":
            if not raw.strip():
                break
            rows.append((lineno, raw.rstrip("\n")))
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "legend:":
            if section != "preamble":
                raise WorldFormatError(origin, lineno, "duplicate legend: section")
            section = "legend"
            continue
        if line == "grid:":
            section = "grid"
            continue
        if section != "legend":
            raise WorldFormatError(
                origin, lineno, f"unexpected line before legend:: {line!r}"
            )
        if "=" not in line:
            raise WorldFormatError(
                origin, lineno, f"legend entry needs 'CHAR = names': {line!r}"
            )
        glyph, _, names_part = line.partition("=")
        glyph = glyph.strip()
        names = names_part.split()
        if len(glyph) != 1:
            raise WorldFormatError(
                origin, lineno, f"legend key must be a single character: {glyph!r}"
            )
        if glyph in RESERVED_GLYPHS:
            raise WorldFormatError(
                origin, lineno, f"legend key {glyph!r} is reserved"
            )
        if glyph in legend:
            raise WorldFormatError(origin, lineno, f"duplicate legend key {glyph!r}")
        if not names:
            raise WorldFormatError(origin, lineno, "legend entry has no label names")
        for name in names:
            if not is_valid_atom_name(name):
                raise WorldFormatError(
                    origin, lineno, f"label {name!r} is not a valid atom name"
                )
        legend[glyph] = frozenset(names)

    if not rows:
        raise WorldFormatError(origin, 0, "world has no grid: section or no rows")

    width = len(rows[0][1])
    height = len(rows)
    start: Cell | None = None
    blocked: set[Cell] = set()
    labels: dict[Cell, frozenset[str]] = {}
    glyphs: dict[Cell, str] = {}

    for y, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise WorldFormatError(
                origin, lineno,
                f"row {y} has width {len(row)}, expected {width}",
            )
        for x, ch in enumerate(row):
            cell = (x, y)
            if ch == ".":
                continue
            if ch == "#":
                blocked.add(cell)
            elif ch == "S":
                if start is not None:
                    raise WorldFormatError(origin, lineno, "multiple start cells")
                start = cell
                if "S" in legend:
                    labels[cell] = legend["S"]
                    glyphs[cell] = ch
            elif ch in legend:
                labels[cell] = legend[ch]
                glyphs[cell] = ch
            else:
                raise WorldFormatError(
                    origin, lineno,
                    f"unknown grid character {ch!r} at column {x}",
                )

    if start is None:
        raise WorldFormatError(origin, 0, "world has no start cell 'S'")
    return GridWorld(
        width=width,
        height=height,
        start=start,
        blocked=frozenset(blocked),
        labels=labels,
        glyphs=glyphs,
    )


def load_world(path: str | Path) -> GridWorld:
    path = Path(path)
    return parse_world(path.read_text(encoding="utf-8"), origin=str(path))


def builtin_world(name: str) -> GridWorld:
    """Load one of the world maps shipped with the package."""
    if name not in BUILTIN_WORLDS:
        raise ValueError(f"unknown builtin world {name!r}; have {BUILTIN_WORLDS}")
    text = (
        resources.files("ltlkit.data.worlds")
        .joinpath(f"{name}.world")
        .read_text(encoding="utf-8")
    )
    return parse_world(text, origin=f"builtin:{name}")


@dataclass(frozen=True)
class Trajectory:
    """A lasso-shaped plan: walk the prefix once, then the loop forever.

    ``prefix_cells`` is never empty and starts at the world's start
    cell; the last prefix cell is adjacent (or equal, for waiting) to
    the first loop cell, and the last loop cell closes back to the
    first.  ``trace`` is the word the trajectory reads.
    """

    prefix_cells: tuple[Cell, ...]
    loop_cells: tuple[Cell, ...]
    trace: LassoWord

    def __post_init__(self) -> None:
        if not self.prefix_cells:
            raise ValueError("trajectory prefix must be non-empty")
        if not self.loop_cells:
            raise ValueError("trajectory loop must be non-empty")


def validate_trajectory(world: GridWorld, trajectory: Trajectory) -> None:
    """Raise ValueError if the trajectory is not walkable in the world."""
    cells = list(trajectory.prefix_cells) + list(trajectory.loop_cells)
    for cell in cells:
        if not world.in_bounds(cell):
            raise ValueError(f"cell {cell} is out of bounds")
        if cell in world.blocked:
            raise ValueError(f"cell {cell} is blocked")
    if trajectory.prefix_cells[0] != world.start:
        raise ValueError(
            f"trajectory starts at {trajectory.prefix_cells[0]}, "
            f"world start is {world.start}"
        )
    closed = cells + [trajectory.loop_cells[0]]
    for a, b in zip(closed, closed[1:]):
        if b not in world.moves(a):
            raise ValueError(f"illegal move {a} -> {b}")
    expected = LassoWord(
        tuple(world.label(c) for c in trajectory.prefix_cells),
        tuple(world.label(c) for c in trajectory.loop_cells),
    )
    if expected != trajectory.trace:
        raise ValueError("trace does not match the cells' labels")


def check_trace(formula: Formula, trajectory: Trajectory) -> bool:
    """Does the word this trajectory reads satisfy the formula?"""
    return evaluate(formula, trajectory.trace)


def _product_graph(world: GridWorld, aut: BuchiAutomaton):
    """The product of the world with the automaton's counter
    degeneralization, as a successor function over integer nodes that
    builds each node's moves when first asked.

    Cell (x, y) is at position ``(x + 1) * h + y + 1``, ``h = height + 2``,
    of a grid walled all around.  Node ``position * width + n`` is
    counter node n of ``_degeneralized_edges`` on that cell, with
    ``width = n_states * (k + 1)``, so integer order is (cell, q, c) order
    and ``accepting`` applies as it is.  Returns (initial, successors,
    accepting, cell, width), where ``cell(node)`` is its (x, y).
    """
    h = world.height + 2
    open_ = bytearray((world.width + 2) * h)
    for x in range(world.width):
        open_[(x + 1) * h + 1:(x + 2) * h - 1] = b"\x01" * world.height
    for x, y in world.blocked:
        open_[(x + 1) * h + y + 1] = 0
    letter_of = [frozenset()] * len(open_)
    for (x, y), names in world.labels.items():
        letter_of[(x + 1) * h + y + 1] = names
    k1 = len(aut.acceptance_sets) + 1
    width = aut.n_states * k1

    d_succ, accepting = _degeneralized_edges(aut)
    moves: dict[int, list[int]] = {}  # position -> node bases of its moves
    # (counter node, label set) -> sorted successor counter nodes
    steps: dict[tuple[int, frozenset[str]], list[int]] = {}

    def successors(node: int) -> list[int]:
        pos, offset = divmod(node, width)
        bases = moves.get(pos)
        if bases is None:
            bases = moves[pos] = [
                p * width for p in (pos - h, pos - 1, pos, pos + 1, pos + h) if open_[p]
            ]
        key = (offset, letter_of[pos])
        offsets = steps.get(key)
        if offsets is None:
            offsets = steps[key] = sorted(
                {s for lab, s in d_succ(offset) if lab.admits(key[1])}
            )
        return [b + d for b in bases for d in offsets]

    def cell(node: int) -> Cell:
        x, y = divmod(node // width, h)
        return (x - 1, y - 1)

    x, y = world.start
    initial = ((x + 1) * h + y + 1) * width + aut.initial * k1
    return initial, successors, accepting, cell, width


def _shortest_walk(source, adjacency, is_goal, closed: bytearray, step) -> list:
    """A shortest non-empty walk from source to a goal node, or None.

    A forward BFS that never enters a closed node stops at the first
    layer holding a goal.  Going back, each layer keeps its nodes with a
    successor kept in the next, the goal exactly the remaining steps
    away: the step-i nodes of all shortest walks.  ``step(node, kept)``
    picks each next node; the source may be the goal, for a cycle.
    """
    closed[source] = not is_goal(source)
    layers = [[source]]
    while True:
        found, reached = set(), []
        for v in layers[-1]:
            for s in adjacency[v]:
                if closed[s]:
                    continue
                if is_goal(s):
                    found.add(s)
                else:
                    closed[s] = 1
                    reached.append(s)
        if found:
            break
        if not reached:
            return None
        layers.append(reached)
    kept = [found]
    for layer in reversed(layers[1:]):
        kept.append({v for v in layer if not kept[-1].isdisjoint(adjacency[v])})
    walk = [source]
    for nxt in reversed(kept):
        walk.append(step(walk[-1], nxt.intersection(adjacency[walk[-1]])))
    return walk


def plan(
    world: GridWorld,
    formula: Formula,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Trajectory:
    """Find a shortest-prefix trajectory whose trace satisfies the formula.

    Raises UnsatisfiableFormulaError when the formula has no model at
    all and NoPlanError when it does but this world cannot realize one.
    Among shortest plans, ties are broken toward waiting in place, then
    toward lexicographically smaller cells, so output is deterministic.

    One Tarjan pass builds the product graph and finds its components
    with an accepting cycle.  The loop closes at the first node of one
    that the prefix reaches: a shortest cycle if it is accepting, else a
    shortest walk to an accepting node of its component and back.
    """
    aut = build_automaton(formula, state_cap=state_cap)
    if is_empty(aut).empty:
        raise UnsatisfiableFormulaError(
            "the goal formula is unsatisfiable; no world can realize it"
        )

    initial, successors, accepting, cell, width = _product_graph(world, aut)
    nodes, adjacency, comp, good = _tarjan_sccs(initial, successors, accepting)

    def step(node: int, candidates) -> int:
        # Waiting in place first, then the smallest (cell, q, c).
        here = nodes[node] // width
        return min(candidates, key=lambda s: (nodes[s] // width != here, nodes[s]))

    prefix_nodes = [0] if good[comp[0]] else _shortest_walk(
        0, adjacency, lambda s: good[comp[s]], bytearray(len(nodes)), step
    )
    if prefix_nodes is None:
        raise NoPlanError(
            "the goal is satisfiable but no trajectory in this world meets it"
        )
    anchor = prefix_nodes[-1]
    outside = bytearray(map(comp[anchor].__ne__, comp))
    if accepting(nodes[anchor]):
        cycle_nodes = _shortest_walk(anchor, adjacency, anchor.__eq__, outside, step)
    else:
        to_acc = _shortest_walk(
            anchor, adjacency, lambda s: accepting(nodes[s]), bytearray(outside), step
        )
        back = _shortest_walk(to_acc[-1], adjacency, anchor.__eq__, outside, step)
        cycle_nodes = to_acc + back[1:]
    # cycle_nodes runs anchor ... anchor; drop the closing repeat.
    assert cycle_nodes[0] == anchor and cycle_nodes[-1] == anchor
    loop_nodes = cycle_nodes[:-1]

    prefix_cells = tuple(cell(nodes[n]) for n in prefix_nodes[:-1])
    loop_cells = tuple(cell(nodes[n]) for n in loop_nodes)
    if not prefix_cells:
        prefix_cells = (loop_cells[0],)
        loop_cells = loop_cells[1:] + loop_cells[:1]

    trace = LassoWord(
        tuple(map(world.label, prefix_cells)), tuple(map(world.label, loop_cells))
    )
    trajectory = Trajectory(prefix_cells, loop_cells, trace)
    validate_trajectory(world, trajectory)
    if not evaluate(formula, trace):
        raise RuntimeError(
            "internal error: planned trajectory failed the semantic self-check"
        )
    return trajectory


def render_path(world: GridWorld, trajectory: Trajectory) -> str:
    """ASCII picture of the plan: ``*`` prefix cells, ``o`` loop cells.

    The start keeps its ``S`` and blocked cells their ``#``; labeled
    cells off the path show their legend glyph (``+`` if unknown).
    """
    grid = [["." for _ in range(world.width)] for _ in range(world.height)]
    for (x, y) in world.blocked:
        grid[y][x] = "#"
    for cell in world.labels:
        x, y = cell
        grid[y][x] = world.glyphs.get(cell, "+") if world.glyphs else "+"
    for (x, y) in trajectory.prefix_cells:
        grid[y][x] = "*"
    for (x, y) in trajectory.loop_cells:
        grid[y][x] = "o"
    sx, sy = world.start
    grid[sy][sx] = "S"
    return "\n".join("".join(row) for row in grid)
