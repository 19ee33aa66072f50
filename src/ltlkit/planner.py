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

import functools
import re
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Mapping

from importlib import resources

from .automata import (
    BuchiAutomaton,
    _degeneralized_edges,
    _tarjan_sccs,
    build_automaton,
    is_satisfiable,
)
from .formulas import Formula, LassoWord, evaluate, is_valid_atom_name, kept

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


def _check_cell(what: str, cell: object) -> Cell:
    # type() rather than isinstance(): a bool is an int, but not a coordinate.
    if not (isinstance(cell, tuple) and len(cell) == 2 and all(type(v) is int for v in cell)):
        raise ValueError(f"{what} {cell!r} is not an (x, y) pair of ints")
    return cell


@dataclass(frozen=True, eq=False)
class GridWorld:
    """A rectangular grid with labeled cells.

    Coordinates are (x, y) with x the column growing rightward and y the
    row growing downward; (0, 0) is the top-left cell.  Movement is
    4-way plus waiting in place; blocked cells cannot be entered.  Every
    cell given (start, blocked, label and glyph keys) is an (x, y) tuple of
    ints, and ``blocked`` becomes a frozenset.  Each cell's labels, any
    collection of names but a string, become a frozenset.
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
        _check_cell("start", self.start)
        if not self.in_bounds(self.start):
            raise ValueError(f"start {self.start} is out of bounds")
        blocked = frozenset(_check_cell("blocked cell", c) for c in self.blocked)
        object.__setattr__(self, "blocked", blocked)
        if self.start in blocked:
            raise ValueError(f"start {self.start} is a blocked cell")
        for cell in blocked:
            if not self.in_bounds(cell):
                raise ValueError(f"blocked cell {cell} is out of bounds")
        for cell in self.glyphs:
            _check_cell("glyph cell", cell)
        object.__setattr__(self, "labels", _checked_labels(self))  # hashable letters

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def label(self, cell: Cell) -> frozenset[str]:
        return self.labels.get(cell, frozenset())


def _checked_labels(world: GridWorld) -> dict[Cell, frozenset[str]]:
    """``world.labels`` checked and frozen; ``plan`` checks them again,
    since the dict can be edited in place after construction."""
    labels: dict[Cell, frozenset[str]] = {}
    for cell, names in world.labels.items():
        _check_cell("labeled cell", cell)
        if not world.in_bounds(cell):
            raise ValueError(f"labeled cell {cell} is out of bounds")
        if cell in world.blocked:
            raise ValueError(f"labeled cell {cell} is blocked")
        if isinstance(names, str):
            raise ValueError(f"labels of {cell} must be a set of names, not {names!r}")
        labels[cell] = names = frozenset(names)
        for name in names:
            if not is_valid_atom_name(name):
                raise ValueError(f"label {name!r} is not a valid atom name")
    return labels


def parse_world(text: str, origin: str = "<string>") -> GridWorld:
    """Parse the world file format.

    The file has an optional ``legend:`` section mapping single characters to
    space-separated label names, then a ``grid:`` section whose lines
    are the rows.  ``.`` is an unlabeled cell, ``#`` is blocked, and
    ``S`` is the start cell (required exactly once); a legend entry for
    ``S`` gives the start cell labels.  Before ``grid:``, blank lines
    and lines starting with ``#`` are ignored; inside the grid every
    character is meaningful and the section ends at a blank line or the
    end of the file.

    Two passes: split the text at the first ``grid:`` line into the head
    and the rows, then build the legend from the head and the cells from
    the rows.
    """
    lines = text.splitlines()
    top = next((n for n, raw in enumerate(lines) if raw.strip() == "grid:"), len(lines))
    head = [(n, line) for n, raw in enumerate(lines[:top], start=1)
            if (line := raw.strip()) and line[0] != "#"]
    rows = list(takewhile(str.strip, lines[top + 1:]))

    if head and head[0][1] != "legend:":
        n, line = head[0]
        raise WorldFormatError(origin, n, f"unexpected line before legend:: {line!r}")
    legend: dict[str, frozenset[str]] = {}
    for lineno, line in head[1:]:
        if line == "legend:":
            raise WorldFormatError(origin, lineno, "duplicate legend: section")
        glyph, eq, names_part = line.partition("=")
        glyph, names = glyph.strip(), names_part.split()
        if not eq:
            problem = f"legend entry needs 'CHAR = names': {line!r}"
        elif len(glyph) != 1:
            problem = f"legend key must be a single character: {glyph!r}"
        elif glyph in RESERVED_GLYPHS:
            problem = f"legend key {glyph!r} is reserved"
        elif glyph in legend:
            problem = f"duplicate legend key {glyph!r}"
        elif not names:
            problem = "legend entry has no label names"
        else:
            bad = [name for name in names if not is_valid_atom_name(name)]
            problem = bad and f"label {bad[0]!r} is not a valid atom name"
        if problem:
            raise WorldFormatError(origin, lineno, problem)
        legend[glyph] = frozenset(names)

    if not rows:
        raise WorldFormatError(origin, 0, "world has no grid: section or no rows")
    width = len(rows[0])
    start: Cell | None = None
    blocked: set[Cell] = set()
    labels: dict[Cell, frozenset[str]] = {}
    glyphs: dict[Cell, str] = {}
    for y, row in enumerate(rows):
        lineno = top + 2 + y
        if len(row) != width:
            raise WorldFormatError(
                origin, lineno, f"row {y} has width {len(row)}, expected {width}"
            )
        for x, ch in enumerate(row):
            if ch == ".":
                continue
            cell = (x, y)
            if ch == "#":
                blocked.add(cell)
            elif ch == "S":
                if start is not None:
                    raise WorldFormatError(origin, lineno, "multiple start cells")
                start = cell
            elif ch not in legend:
                raise WorldFormatError(
                    origin, lineno, f"unknown grid character {ch!r} at column {x}"
                )
            if ch in legend:
                labels[cell] = legend[ch]
                glyphs[cell] = ch

    if start is None:
        raise WorldFormatError(origin, 0, "world has no start cell 'S'")
    return GridWorld(width, len(rows), start, frozenset(blocked), labels, glyphs)


def load_world(path: str | Path) -> GridWorld:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise WorldFormatError(str(path), lineno, f"not UTF-8 text: {exc}") from exc
    return parse_world(text, origin=str(path))


def builtin_world(name: str) -> GridWorld:
    """Load one of the world maps shipped with the package."""
    if name not in BUILTIN_WORLDS:
        raise ValueError(f"unknown builtin world {name!r}; have {BUILTIN_WORLDS}")
    path = resources.files("ltlkit").joinpath(f"data/worlds/{name}.world")
    text = path.read_text(encoding="utf-8")
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
    # Every cell is in bounds and open, so a move is legal exactly when
    # it waits or steps to a 4-neighbor.
    for a, b in zip(closed, closed[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1:
            raise ValueError(f"illegal move {a} -> {b}")
    expected = LassoWord(
        tuple(world.label(c) for c in trajectory.prefix_cells),
        tuple(world.label(c) for c in trajectory.loop_cells),
    )
    if expected != trajectory.trace:
        raise ValueError("trace does not match the cells' labels")


# Sets of stable cells whose blocks one world keeps; the four goals the
# benchmark plans on each of its worlds need five between them.
PARTITION_MEMO_SIZE = 32


class _Grid:
    """The world side of the product: a world's geometry, kept per world.

    Built from ``width``, ``height`` and ``blocked`` only, which a world
    never changes, so it outlives a ``plan`` call but not its world (see
    ``_grids``).  Cell (x, y) is bit ``(x + 1) * h + y + 1``,
    ``h = height + 2``, of a grid walled all around, so ``spread`` takes a
    set of cells one move on in four shifts.  Moves (the four neighbours
    and waiting) are symmetric, so ``spread`` also gives the cells one
    move before a set.  What it hands out is shared: callers only read it.
    """

    def __init__(self, world: GridWorld):
        self.h = h = world.height + 2
        self.open = sum(((1 << world.height) - 1) << 1 << x * h
                        for x in range(1, world.width + 1))
        for x, y in world.blocked:
            self.open ^= 1 << (x + 1) * h + y + 1
        self.size = (world.width + 2) * h
        self._around: dict[int, list[int]] = {}
        self.partition = functools.lru_cache(maxsize=PARTITION_MEMO_SIZE)(self._partition)

    def spread(self, cells: int) -> int:
        h = self.h
        return (cells | cells << 1 | cells >> 1 | cells << h | cells >> h) & self.open

    def around(self, position: int) -> list[int]:
        """The open cells one move from an open cell, waiting included."""
        moves = self._around.get(position)
        if moves is None:
            h = self.h
            moves = self._around[position] = [
                q for q in (position - h, position - 1, position, position + 1, position + h)
                if self.open >> q & 1
            ]
        return moves

    def _partition(self, stable: int) -> tuple[list[int], dict[int, int]]:
        """The blocks of a set of stable cells, by flood fill: a table from
        each position to its quotient name, and the cells of each block of
        more than one cell by name."""
        table = list(range(self.size))
        masks = {}
        while stable:
            block = seed = stable & -stable
            while (grown := self.spread(block) & stable) != block:
                block = grown
            stable ^= block
            if block != seed:
                masks[name := seed.bit_length() - 1] = block
                for run in re.finditer("1+", f"{block:b}"[::-1]):
                    table[run.start():run.end()] = [name] * (run.end() - run.start())
        return table, masks


# Each world's _Grid, held no longer than the world: worlds compare by
# identity, and nothing is stored on the world itself.
_grids: weakref.WeakKeyDictionary[GridWorld, _Grid] = weakref.WeakKeyDictionary()


class _Product:
    """The product of a world with the goal's counter degeneralization,
    held as one cell bitset per counter node.

    The geometry, positions included, is the world's ``_Grid``; the rest
    is built per call, and the letters are read from ``world.labels``, and
    checked again, on every call.  A product node is a (position, o) pair,
    o a counter node of ``_degeneralized_edges``, and its step reads the
    letter of its cell: a mask over ``sorted(aut.alphabet)``, as the edges
    are, which leaves out the labels the goal does not mention.

    A node is waiting-stable when o is among its own successors on its
    cell's letter.  Each 4-connected group of o's stable cells, a block,
    lies in one component and has a self-loop, so contracting it to one
    node keeps the components, which of them have an accepting cycle, and
    reachability.  Quotient node ``name * width + o``, ``width`` the
    number of counter nodes, is the block whose lowest position is name,
    or the unstable cell at position name.  The blocks of a set of
    stable cells come from the grid's partition memo, so goals on one
    world share them.
    """

    def __init__(self, world: GridWorld, aut: BuchiAutomaton):
        grid = _grids.get(world)
        if grid is None:
            grid = _grids[world] = _Grid(world)
        self.h = h = grid.h
        self.open = grid.open
        self.size = grid.size
        self.spread = grid.spread
        self.around = grid.around
        bit = {name: 1 << j for j, name in enumerate(sorted(aut.alphabet))}
        self.letter_of = [0] * self.size  # by position
        self.letters = {0: self.open}  # the cells of each letter
        for (x, y), names in _checked_labels(world).items():
            p = (x + 1) * h + y + 1
            self.letter_of[p] = m = sum(bit.get(name, 0) for name in names)
            self.letters[0] ^= 1 << p
            self.letters[m] = self.letters.get(m, 0) | 1 << p
        start, self.width, self.successors_of, self.accepting = _degeneralized_edges(aut)
        x, y = world.start
        position = (x + 1) * h + y + 1
        self.source = (position, start)
        self._steps: dict[tuple[int, int], tuple[int, ...]] = {}
        self.moves = functools.cache(self._moves)
        self.blocks = functools.cache(lambda o: grid.partition(
            sum(cells for cells, succ in self.moves(o) if o in succ)
        ))
        self.start = self.blocks(start)[0][position] * self.width + start  # its quotient node

    def cell(self, position: int) -> Cell:
        x, y = divmod(position, self.h)
        return (x - 1, y - 1)

    def steps(self, o: int, m: int) -> tuple[int, ...]:
        """The counter nodes o goes to on the letter of mask m, ascending."""
        succ = self._steps.get((o, m))
        if succ is None:
            succ = self._steps[o, m] = tuple(sorted(
                {s for (pos, neg), s in self.successors_of(o) if not (pos & ~m or neg & m)}
            ))
        return succ

    def _moves(self, o: int) -> list[tuple[int, tuple[int, ...]]]:
        """(cells, successors) pairs: the cells whose letter takes counter
        node o to exactly those counter nodes, ascending; dead ends left out."""
        by_succ: dict[tuple[int, ...], int] = {}
        for letter, cells in self.letters.items():
            if succ := self.steps(o, letter):
                by_succ[succ] = by_succ.get(succ, 0) | cells
        return [(cells, succ) for succ, cells in by_succ.items()]

    def successors(self, node: int) -> list[int]:
        """The quotient nodes one step after a quotient node."""
        name, o = divmod(node, self.width)
        width = self.width
        block = self.blocks(o)[1].get(name)
        out: list[int] = []
        if block is None:  # a single cell: name its moves one by one
            around = self.around(name)
            for s in self.steps(o, self.letter_of[name]):
                table = self.blocks(s)[0]
                out += [table[q] * width + s for q in around]
            return out
        for s, cells in self.image({o: block}).items():
            table, masks = self.blocks(s)
            while cells:
                low = cells & -cells
                name = table[low.bit_length() - 1]
                out.append(name * width + s)
                cells &= ~masks.get(name, low)
        return out

    def layer(self, nodes) -> dict[int, int]:
        """The product nodes in some quotient nodes, as {o: cells}."""
        digits = defaultdict(lambda: bytearray(b"0" * self.size))  # "1" at each name
        for node in nodes:
            name, o = divmod(node, self.width)
            digits[o][name] = 49
        out = {}
        for o, names in digits.items():  # a block is named by its lowest cell
            cells = int(names[::-1], 2)
            out[o] = cells | sum(b for n, b in self.blocks(o)[1].items() if cells >> n & 1)
        return out

    def image(self, layer: dict[int, int]) -> dict[int, int]:
        """The nodes one step after a layer of nodes, both as {o: cells}."""
        out: dict[int, int] = {}
        for o, cells in layer.items():
            for mask, succ in self.moves(o):
                if part := cells & mask:
                    near = self.spread(part)
                    for s in succ:
                        out[s] = out[s] | near if s in out else near
        return out

    def walk(self, source, goal: dict[int, int], free: dict[int, int]):
        """A shortest non-empty walk of (position, o) nodes from source to
        a goal node, or None.

        ``free`` holds the cells open to the search, which closes what it
        enters.  A forward BFS over {o: cells} layers stops at the first
        layer holding a goal.  Going back, each layer keeps its nodes with
        a successor kept in the next, the goal exactly the remaining steps
        away.  ``step`` picks each next node; the source may be the goal,
        for a cycle.
        """
        position, o = source
        bit = 1 << position
        if not goal.get(o, 0) & bit:
            free[o] &= ~bit
        layers = [{o: bit}]
        while True:
            found, fresh = {}, {}
            for s, cells in self.image(layers[-1]).items():
                cells &= free.get(s, 0)
                if hit := cells & goal.get(s, 0):
                    found[s] = hit
                    cells ^= hit
                if cells:
                    fresh[s] = cells
                    free[s] ^= cells
            if found:
                break
            if not fresh:
                return None
            layers.append(fresh)
        kept = [found]
        for layer in reversed(layers[1:]):
            near = {s: self.spread(cells) for s, cells in kept[-1].items()}
            back = {}
            for o, cells in layer.items():
                before = 0
                for mask, succ in self.moves(o):
                    for s in succ:
                        if s in near:
                            before |= mask & near[s]
                if cells := cells & before:
                    back[o] = cells
            kept.append(back)
        walk = [source]
        for nxt in reversed(kept):
            walk.append(self.step(walk[-1], nxt))
        return walk

    def step(self, node, kept: dict[int, int]):
        """The successor of node in kept: waiting in place first, then the
        smallest (cell, q, c), which is (position, o) order."""
        p, o = node
        h = self.h
        return min(
            (q != p, q, s)
            for s in self.steps(o, self.letter_of[p]) if s in kept
            for q in (p - h, p - 1, p, p + 1, p + h) if kept[s] >> q & 1
        )[1:]


def plan(world: GridWorld, formula: Formula) -> Trajectory:
    """Find a shortest-prefix trajectory whose trace satisfies the formula.

    Raises UnsatisfiableFormulaError when the formula has no model at
    all and NoPlanError when it does but this world cannot realize one;
    labels edited in place into ones ``GridWorld`` would reject raise its
    ``ValueError``.  Among shortest plans, ties are broken toward waiting
    in place, then toward lexicographically smaller cells, so output is
    deterministic.

    The verdict comes from the memoised ``is_satisfiable``.  The goal's
    automaton is kept on the goal node (``formulas.kept``) and goes with
    it; ``ResourceLimitError`` is raised again on every call and keeps
    nothing.  One Tarjan pass over the product with each block of
    waiting-stable cells contracted (see ``_Product``) finds the
    components with an accepting cycle.  Layered searches over cell
    bitsets then close the loop at the first product node of one that the
    prefix reaches: a shortest cycle if it is accepting, else a shortest
    walk to an accepting node of its component and back.
    """
    if not is_satisfiable(formula).satisfiable:
        raise UnsatisfiableFormulaError(
            "the goal formula is unsatisfiable; no world can realize it"
        )

    product = _Product(world, kept(formula, "_automaton", build_automaton))
    comp_of, good = _tarjan_sccs(product.start, product.successors, product.accepting)
    source = product.source
    if good[comp_of[product.start]]:
        prefix_nodes = [source]
    else:
        good_cells = product.layer(n for n, c in comp_of.items() if good[c])
        everywhere = dict.fromkeys(range(product.width), product.open)
        prefix_nodes = product.walk(source, good_cells, everywhere)
    if prefix_nodes is None:
        raise NoPlanError(
            "the goal is satisfiable but no trajectory in this world meets it"
        )
    anchor = prefix_nodes[-1]
    position, o = anchor
    home = comp_of[product.blocks(o)[0][position] * product.width + o]
    inside = product.layer(n for n, c in comp_of.items() if c == home)
    here = {o: 1 << position}
    if product.accepting(o):
        cycle_nodes = product.walk(anchor, here, dict(inside))
    else:
        accepting = {s: cells for s, cells in inside.items() if product.accepting(s)}
        to_acc = product.walk(anchor, accepting, dict(inside))
        back = product.walk(to_acc[-1], here, dict(inside))
        cycle_nodes = to_acc + back[1:]
    # cycle_nodes runs anchor ... anchor; drop the closing repeat.
    assert cycle_nodes[0] == anchor and cycle_nodes[-1] == anchor
    loop_nodes = cycle_nodes[:-1]

    prefix_cells = tuple(product.cell(p) for p, _ in prefix_nodes[:-1])
    loop_cells = tuple(product.cell(p) for p, _ in loop_nodes)
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
