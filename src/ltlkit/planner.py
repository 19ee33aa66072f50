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

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

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
    4-way plus waiting in place; blocked cells cannot be entered.
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
        for cell, names in self.labels.items():
            if not self.in_bounds(cell):
                raise ValueError(f"labeled cell {cell} is out of bounds")
            if cell in self.blocked:
                raise ValueError(f"labeled cell {cell} is blocked")
            for name in names:
                if not is_valid_atom_name(name):
                    raise ValueError(f"label {name!r} is not a valid atom name")

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
    """Forward adjacency of the product of the world with the automaton's
    counter degeneralization, over integer nodes.

    Open cells are numbered in (x, y) order.  Node
    ``cell * width + q * (k + 1) + c`` is counter state (q, c) on that
    cell, where ``width = n_states * (k + 1)``, so integer order is
    (cell, q, c) order.  Returns (cells, initial, adjacency, width).
    """
    h = world.height + 2  # grid position (x + 1) * h + y + 1, walls around
    slot = [-1] * ((world.width + 2) * h)
    cells: list[Cell] = []
    for x in range(world.width):
        for y in range(world.height):
            if (x, y) not in world.blocked:
                slot[(x + 1) * h + y + 1] = len(cells)
                cells.append((x, y))
    k1 = len(aut.acceptance_sets) + 1
    width = aut.n_states * k1
    # Each cell's moves as node bases, in cell order:
    # (x-1, y), (x, y-1), (x, y), (x, y+1), (x+1, y).
    bases = [
        [i * width for i in (slot[p - h], slot[p - 1], slot[p], slot[p + 1], slot[p + h])
         if i >= 0]
        for p in [(x + 1) * h + y + 1 for x, y in cells]
    ]
    letter_of = [frozenset()] * len(cells)
    for (x, y), names in world.labels.items():
        letter_of[slot[(x + 1) * h + y + 1]] = names

    d_succ, _ = _degeneralized_edges(aut)
    # (q * k1 + c, label set) -> sorted successor offsets
    steps: dict[tuple[int, frozenset[str]], list[int]] = {}
    initial = cells.index(world.start) * width + aut.initial * k1
    adjacency: dict[int, tuple[int, ...]] = {}
    stack = [initial]
    while stack:
        node = stack.pop()
        if node in adjacency:
            continue
        cell, offset = divmod(node, width)
        key = (offset, letter_of[cell])
        offsets = steps.get(key)
        if offsets is None:
            offsets = steps[key] = sorted({
                q2 * k1 + c2
                for lab, (q2, c2) in d_succ(divmod(offset, k1))
                if lab.admits(key[1])
            })
        succs = adjacency[node] = tuple([b + d for b in bases[cell] for d in offsets])
        stack.extend(succs)
    return cells, initial, adjacency, width


def _distances_to(targets: Iterable, reverse_adj: Mapping) -> dict:
    """Multi-source BFS edge distances toward the target set."""
    dist = {t: 0 for t in targets}
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        for pred in reverse_adj.get(node, ()):
            if pred not in dist:
                dist[pred] = dist[node] + 1
                queue.append(pred)
    return dist


def _greedy_descent(start, dist: Mapping, adjacency: Mapping, width: int) -> list:
    """Walk from start to a dist-0 node, always stepping to a successor
    one closer.  Returns the node path including both endpoints.

    Ties go to waiting in place if possible, otherwise to the
    lexicographically smallest cell; nodes number (cell, q, c) in order,
    so the node itself is the rest of the key.
    """
    path = [start]
    node = start
    while dist[node] > 0:
        cell = node // width
        node = min(
            (s for s in adjacency[node] if dist.get(s) == dist[node] - 1),
            key=lambda s: (s // width != cell, s),
        )
        path.append(node)
    return path


def plan(
    world: GridWorld,
    formula: Formula,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Trajectory:
    """Find a shortest-prefix trajectory whose trace satisfies the formula.

    Raises UnsatisfiableFormulaError when the formula has no model at
    all and NoPlanError when it does but this world cannot realize one.
    Among shortest plans, ties are broken toward lexicographically
    smaller cells, so output is deterministic.
    """
    aut = build_automaton(formula, state_cap=state_cap)
    if is_empty(aut).empty:
        raise UnsatisfiableFormulaError(
            "the goal formula is unsatisfiable; no world can realize it"
        )

    cells, initial, adjacency, width = _product_graph(world, aut)
    k = len(aut.acceptance_sets)
    # Counter k closes a round; with k == 0 every node has counter 0 == k.
    accepting = {n for n in adjacency if n % (k + 1) == k}
    good_comps = [
        set(comp) for comp in _tarjan_sccs(initial, adjacency.__getitem__)
        if not accepting.isdisjoint(comp)
        and (len(comp) > 1 or comp[0] in adjacency[comp[0]])
    ]

    reverse_adj: dict = {}
    for node, succs in adjacency.items():
        for s in succs:
            reverse_adj.setdefault(s, []).append(node)

    dist_to_good = _distances_to(set().union(*good_comps), reverse_adj)
    if initial not in dist_to_good:
        raise NoPlanError(
            "the goal is satisfiable but no trajectory in this world meets it"
        )
    prefix_nodes = _greedy_descent(initial, dist_to_good, adjacency, width)
    anchor = prefix_nodes[-1]
    comp = next(members for members in good_comps if anchor in members)
    comp_reverse = {node: [p for p in reverse_adj[node] if p in comp] for node in comp}
    comp_adj = {node: [s for s in adjacency[node] if s in comp] for node in comp}
    dist_to_anchor = _distances_to([anchor], comp_reverse)

    if anchor in accepting:
        # Shortest cycle anchor -> anchor; a self-loop gives length 1.
        first = min(
            (s for s in comp_adj[anchor] if s in dist_to_anchor),
            key=lambda s: (dist_to_anchor[s], s // width != anchor // width, s),
        )
        cycle_nodes = [anchor] + _greedy_descent(first, dist_to_anchor, comp_adj, width)
    else:
        dist_to_acc = _distances_to(comp & accepting, comp_reverse)
        to_acc = _greedy_descent(anchor, dist_to_acc, comp_adj, width)
        acc = to_acc[-1]
        back = _greedy_descent(acc, dist_to_anchor, comp_adj, width)
        cycle_nodes = to_acc + back[1:]
    # cycle_nodes runs anchor ... anchor; drop the closing repeat.
    assert cycle_nodes[0] == anchor and cycle_nodes[-1] == anchor
    loop_nodes = cycle_nodes[:-1]

    prefix_cells = tuple(cells[n // width] for n in prefix_nodes[:-1])
    loop_cells = tuple(cells[n // width] for n in loop_nodes)
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
