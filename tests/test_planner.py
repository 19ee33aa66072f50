import copy
import dataclasses
import gc
import pickle
import random
import weakref
from pathlib import Path

import pytest

from ltlkit import automata, planner
from ltlkit.automata import (
    ResourceLimitError,
    _tarjan_sccs,
    build_automaton,
    is_satisfiable,
)
from ltlkit.formulas import And, Atom, Finally, Formula, LassoWord, evaluate
from ltlkit.parsing import parse, print_formula
from ltlkit.planner import (
    BUILTIN_WORLDS,
    _Product,
    GridWorld,
    NoPlanError,
    PlanningError,
    Trajectory,
    UnsatisfiableFormulaError,
    WorldFormatError,
    builtin_world,
    load_world,
    parse_world,
    plan,
    render_path,
    validate_trajectory,
)

from helpers import random_formula

UNTIL_WORLD = "legend:\nr = red_room\ns = second_floor\ngrid:\nS.r\n..s\n"


def walk(world: GridWorld, prefix, loop) -> Trajectory:
    """Hand-build a trajectory, deriving the trace from the world."""
    return Trajectory(
        prefix_cells=tuple(prefix),
        loop_cells=tuple(loop),
        trace=LassoWord(
            tuple(world.label(c) for c in prefix),
            tuple(world.label(c) for c in loop),
        ),
    )


class TestWorldParsing:
    def test_demo_world(self):
        world = builtin_world("demo")
        assert (world.width, world.height) == (6, 6)
        assert world.start == (0, 0)
        assert world.labels == {
            (1, 1): frozenset({"purple_room"}),
            (4, 4): frozenset({"red_room"}),
        }
        assert world.blocked == frozenset()

    def test_builtin_names(self):
        assert BUILTIN_WORLDS == ("demo",)
        with pytest.raises(ValueError):
            builtin_world("atlantis")

    def test_load_world_reads_files(self, tmp_path):
        path = tmp_path / "tiny.world"
        path.write_text(UNTIL_WORLD, encoding="utf-8")
        world = load_world(path)
        assert world.labels[(2, 1)] == frozenset({"second_floor"})

    def test_file_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.world"
        path.write_bytes(b"grid:\nS.\n\xff\n")
        with pytest.raises(WorldFormatError, match="not UTF-8 text") as exc:
            load_world(path)
        assert exc.value.origin == str(path)
        assert exc.value.lineno == 3

    def test_blocked_cells_and_multi_label_legend(self):
        world = parse_world(
            "legend:\nA = alpha shared\ngrid:\nS#\n.A\n"
        )
        assert world.blocked == frozenset({(1, 0)})
        assert world.labels[(1, 1)] == frozenset({"alpha", "shared"})

    def test_start_legend_labels_the_start_cell(self):
        world = parse_world("legend:\nS = home\ngrid:\nS.\n")
        assert world.labels[(0, 0)] == frozenset({"home"})

    def test_comments_allowed_before_grid(self):
        world = parse_world(
            "# map header\nlegend:\n# about A\nA = alpha\ngrid:\nSA\n"
        )
        assert world.labels[(1, 0)] == frozenset({"alpha"})

    def test_grid_ends_at_blank_line(self):
        world = parse_world("legend:\nA = alpha\ngrid:\nSA\n\nleftover text\n")
        assert (world.width, world.height) == (2, 1)

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("legend:\nA = alpha\nA = beta\ngrid:\nSA\n", 3, "duplicate legend key"),
        ("legend:\nAB = alpha\ngrid:\nS.\n", 2, "single character"),
        ("legend:\n. = alpha\ngrid:\nS.\n", 2, "reserved"),
        ("legend:\nA alpha\ngrid:\nSA\n", 2, "legend entry needs"),
        ("legend:\nA =\ngrid:\nSA\n", 2, "no label names"),
        ("legend:\nA = 9lives\ngrid:\nSA\n", 2, "not a valid atom name"),
        ("legend:\ngrid:\nS.\n..Q\n", 4, "has width"),
        ("legend:\ngrid:\nSQ\n", 3, "unknown grid character 'Q'"),
        ("legend:\ngrid:\nSS\n", 3, "multiple start cells"),
        ("stray\nlegend:\ngrid:\nS\n", 1, "before legend"),
        ("legend:\nlegend:\ngrid:\nS\n", 2, "duplicate legend: section"),
    ])
    def test_malformed_worlds(self, text, lineno, fragment):
        with pytest.raises(WorldFormatError) as exc:
            parse_world(text, origin="bad.world")
        assert exc.value.lineno == lineno
        assert fragment in str(exc.value)
        assert "bad.world" in str(exc.value)

    def test_missing_start(self):
        with pytest.raises(WorldFormatError) as exc:
            parse_world("legend:\ngrid:\n..\n")
        assert "no start cell" in str(exc.value)

    def test_missing_grid(self):
        with pytest.raises(WorldFormatError) as exc:
            parse_world("legend:\nA = alpha\n")
        assert "no grid" in str(exc.value)


class TestGridWorld:
    @pytest.mark.parametrize("kwargs", [
        {"width": 0, "height": 1, "start": (0, 0)},
        {"width": 2, "height": 2, "start": (5, 0)},
        {"width": 2, "height": 2, "start": (0, 0), "blocked": frozenset({(0, 0)})},
        {"width": 2, "height": 2, "start": (0, 0),
         "labels": {(9, 9): frozenset({"a"})}},
        {"width": 2, "height": 2, "start": (0, 0),
         "labels": {(1, 1): frozenset({"not a name"})}},
        {"width": 2, "height": 2, "start": (0, 0),
         "blocked": frozenset({(1, 1)}), "labels": {(1, 1): frozenset({"a"})}},
        {"width": 2, "height": 2, "start": (0, 0), "blocked": frozenset({(2, 0)})},
    ])
    def test_invalid_worlds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridWorld(**kwargs)

    @pytest.mark.parametrize("names", [{"goal"}, ["goal"], ("goal", "goal")])
    def test_label_collections_are_frozen(self, names):
        world = GridWorld(2, 1, (0, 0), labels={(1, 0): names})
        assert world.labels == {(1, 0): frozenset({"goal"})}
        assert type(world.label((1, 0))) is frozenset
        trajectory = plan(world, parse("F(goal)"))
        assert trajectory.prefix_cells == ((0, 0), (1, 0))
        assert trajectory.trace.loop == (frozenset({"goal"}),)

    @pytest.mark.parametrize("kwargs,bad", [
        ({"start": [0, 0]}, "start [0, 0]"),
        ({"start": (0.0, 0)}, "start (0.0, 0)"),
        ({"start": (True, 0)}, "start (True, 0)"),
        ({"start": (0, 0), "blocked": [[1, 0]]}, "blocked cell [1, 0]"),
        ({"start": (0, 0), "labels": {(2,): {"a"}}}, "labeled cell (2,)"),
        ({"start": (0, 0), "glyphs": {(1, 0, 0): "x"}}, "glyph cell (1, 0, 0)"),
    ])
    def test_cells_must_be_int_pairs(self, kwargs, bad):
        with pytest.raises(ValueError) as info:
            GridWorld(3, 1, **kwargs)
        assert str(info.value) == f"{bad} is not an (x, y) pair of ints"

    @pytest.mark.parametrize("blocked", [[(1, 0)], iter([(1, 0)])])
    def test_blocked_is_frozen(self, blocked):
        world = GridWorld(3, 1, (0, 0), blocked=blocked)
        assert world.blocked == frozenset({(1, 0)})
        assert type(world.blocked) is frozenset

    def test_bare_string_label_rejected(self):
        with pytest.raises(ValueError, match="set of names"):
            GridWorld(2, 1, (0, 0), labels={(1, 0): "ab"})


class TestPlan:
    def test_demo_visits_purple_then_red(self):
        world = builtin_world("demo")
        trajectory = plan(world, parse("F(purple_room & F(red_room))"))
        assert trajectory.prefix_cells == (
            (0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 4), (3, 4), (4, 4),
        )
        assert trajectory.loop_cells == ((4, 4),)
        purple_at = trajectory.prefix_cells.index((1, 1))
        red_at = trajectory.prefix_cells.index((4, 4))
        assert purple_at < red_at
        assert evaluate(parse("F(purple_room & F(red_room))"), trajectory.trace)
        validate_trajectory(world, trajectory)

    def test_a_trajectory_that_fails_the_semantic_self_check_raises(self, monkeypatch):
        monkeypatch.setattr(planner, "evaluate", lambda formula, word: False)
        with pytest.raises(RuntimeError) as exc:
            plan(builtin_world("demo"), parse("F(red_room)"))
        assert str(exc.value) == (
            "internal error: planned trajectory failed the semantic self-check"
        )

    def test_satisfied_at_start_waits_forever(self):
        world = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        trajectory = plan(world, parse("a"))
        assert trajectory.prefix_cells == ((0, 0),)
        assert trajectory.loop_cells == ((0, 0),)

    def test_single_cell_world(self):
        world = parse_world("legend:\nS = a\ngrid:\nS\n")
        trajectory = plan(world, parse("G(a)"))
        assert trajectory.prefix_cells == ((0, 0),)
        assert trajectory.loop_cells == ((0, 0),)
        validate_trajectory(world, trajectory)

    def test_unreachable_label_is_no_plan(self):
        world = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        with pytest.raises(NoPlanError):
            plan(world, parse("F(b)"))

    def test_walled_off_label_is_no_plan(self):
        world = parse_world("legend:\nA = a\ngrid:\nS#A\n.#.\n")
        with pytest.raises(NoPlanError):
            plan(world, parse("F(a)"))

    def test_unsatisfiable_formula_reported_as_such(self):
        world = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        with pytest.raises(UnsatisfiableFormulaError):
            plan(world, parse("a & !a"))

    def test_avoidance_detour(self):
        world = parse_world("legend:\nH = hazard\nG = goal\ngrid:\nS.H.G\n.....\n")
        trajectory = plan(world, parse("F(goal) & G(!hazard)"))
        assert (2, 0) not in trajectory.prefix_cells
        assert (2, 0) not in trajectory.loop_cells
        assert trajectory.prefix_cells == (
            (0, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 0), (4, 0),
        )
        assert trajectory.loop_cells == ((4, 0),)

    def test_until_fixture(self):
        world = parse_world(UNTIL_WORLD)
        formula = parse("!red_room U second_floor")
        trajectory = plan(world, formula)
        assert trajectory.prefix_cells == ((0, 0), (0, 1), (1, 1), (2, 1))
        assert trajectory.loop_cells == ((2, 1),)
        assert evaluate(formula, trajectory.trace)

    def test_patrol_loop_covers_both_regions(self):
        world = parse_world("legend:\nA = alpha\nB = beta\ngrid:\nSA\n.B\n")
        formula = parse("G(F(alpha)) & G(F(beta))")
        trajectory = plan(world, formula)
        validate_trajectory(world, trajectory)
        assert evaluate(formula, trajectory.trace)
        assert (1, 0) in trajectory.loop_cells
        assert (1, 1) in trajectory.loop_cells

    def test_planning_is_deterministic(self):
        world = builtin_world("demo")
        formula = parse("F(purple_room) & F(red_room)")
        first = plan(world, formula)
        second = plan(world, formula)
        assert first == second

    def test_every_plan_passes_its_own_certificate(self):
        world = builtin_world("demo")
        for text in [
            "F(red_room)",
            "F(purple_room & F(red_room))",
            "G(!purple_room) & F(red_room)",
            "!red_room U purple_room",
            "G(F(purple_room)) & G(F(red_room))",
        ]:
            formula = parse(text)
            trajectory = plan(world, formula)
            assert evaluate(formula, trajectory.trace), text
            validate_trajectory(world, trajectory)

    def test_state_cap_propagates(self, monkeypatch):
        # Built from constructors (parse keeps a memo of what it parsed),
        # over atoms of this test only, so no other test has planned the
        # node and kept its automaton.
        goal = Finally(And(Atom("cap_a"), Finally(And(Atom("cap_b"), Finally(Atom("cap_a"))))))
        world = parse_world("legend:\na = cap_a\nb = cap_b\ngrid:\nS.a\n..b\n")
        monkeypatch.setattr(automata, "STATE_CAP", 2)
        with pytest.raises(ResourceLimitError, match="exceeded 2 states"):
            plan(world, goal)

    def test_waiting_closure(self):
        # Padding the loop with extra waits at its last cell never breaks
        # a valid trajectory (there is no next-step operator to offend).
        world = builtin_world("demo")
        formula = parse("F(purple_room & F(red_room))")
        trajectory = plan(world, formula)
        padded = walk(
            world,
            trajectory.prefix_cells,
            trajectory.loop_cells + (trajectory.loop_cells[-1],) * 3,
        )
        validate_trajectory(world, padded)
        assert evaluate(formula, padded.trace)


class TestCheckTrace:
    def test_false_when_leaving_a_globally_region(self):
        world = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        trajectory = walk(world, [(0, 0)], [(0, 1)])
        validate_trajectory(world, trajectory)
        assert evaluate(parse("a"), trajectory.trace)
        assert not evaluate(parse("G(a)"), trajectory.trace)

    def test_until_holds_on_avoiding_path(self):
        world = parse_world(UNTIL_WORLD)
        trajectory = walk(world, [(0, 0), (0, 1), (1, 1), (2, 1)], [(2, 1)])
        assert evaluate(parse("!red_room U second_floor"), trajectory.trace)

    def test_until_fails_when_crossing_the_avoided_cell(self):
        world = parse_world(UNTIL_WORLD)
        trajectory = walk(world, [(0, 0), (1, 0), (2, 0), (2, 1)], [(2, 1)])
        validate_trajectory(world, trajectory)
        assert not evaluate(parse("!red_room U second_floor"), trajectory.trace)


class TestTrajectoryValidation:
    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            Trajectory((), ((0, 0),), LassoWord((), (frozenset(),)))
        with pytest.raises(ValueError):
            Trajectory(((0, 0),), (), LassoWord((frozenset(),), (frozenset(),)))

    @pytest.mark.parametrize("prefix,loop,fragment", [
        ([(0, 0), (5, 5)], [(5, 5)], "out of bounds"),
        ([(0, 0), (1, 0)], [(1, 0)], "is blocked"),
        ([(0, 1)], [(0, 1)], "starts at"),
        ([(0, 0), (1, 1)], [(1, 1)], "illegal move"),
    ])
    def test_unwalkable_trajectories(self, prefix, loop, fragment):
        world = parse_world("legend:\ngrid:\nS#\n..\n")
        trajectory = walk(world, prefix, loop)
        with pytest.raises(ValueError) as exc:
            validate_trajectory(world, trajectory)
        assert fragment in str(exc.value)

    def test_loop_closure_checked(self):
        world = parse_world("legend:\ngrid:\nS..\n...\n")
        # (2, 0) does not close back to (0, 1).
        trajectory = walk(world, [(0, 0)], [(0, 1), (1, 1), (1, 0), (2, 0)])
        with pytest.raises(ValueError) as exc:
            validate_trajectory(world, trajectory)
        assert "illegal move" in str(exc.value)

    def test_trace_must_match_labels(self):
        world = parse_world("legend:\nA = a\ngrid:\nSA\n")
        trajectory = Trajectory(
            ((0, 0), (1, 0)),
            ((1, 0),),
            LassoWord((frozenset(), frozenset()), (frozenset(),)),
        )
        with pytest.raises(ValueError) as exc:
            validate_trajectory(world, trajectory)
        assert "does not match" in str(exc.value)


class TestRenderPath:
    def test_demo_rendering(self):
        world = builtin_world("demo")
        trajectory = plan(world, parse("F(purple_room & F(red_room))"))
        assert render_path(world, trajectory) == (
            "S.....\n"
            "**....\n"
            ".*....\n"
            ".*....\n"
            ".***o.\n"
            "......"
        )

    def test_off_path_labels_keep_their_glyphs(self):
        world = parse_world(UNTIL_WORLD)
        trajectory = plan(world, parse("!red_room U second_floor"))
        assert render_path(world, trajectory) == "S.r\n**o"

    def test_blocked_cells_rendered(self):
        world = parse_world("legend:\nA = a\ngrid:\nS#\n.A\n")
        trajectory = plan(world, parse("F(a)"))
        rendered = render_path(world, trajectory)
        assert rendered.splitlines()[0] == "S#"


GOLDEN_PLAN_OUTCOMES = Path(__file__).parent / "golden" / "plan_outcomes.txt"
OUTCOME_PAIRS = 400
DEMO_GOALS = (
    "F(red_room)",
    "F(purple_room & F(red_room))",
    "F(red_room & F(purple_room))",
    "F(purple_room) & F(red_room)",
    "G(!purple_room) & F(red_room)",
    "!red_room U purple_room",
    "!purple_room U red_room",
    "G(F(purple_room)) & G(F(red_room))",
    "G(F(purple_room & F(red_room)))",
    "F(G(red_room))",
    "G(purple_room | red_room)",
    "F(purple_room & red_room)",
    "red_room",
    "purple_room & !purple_room",
)


def random_world(rng: random.Random, low: int = 1, high: int = 6) -> GridWorld:
    """A world with sides from low to high, walls, and cells labeled from
    a, b, c."""
    width, height = rng.randint(low, high), rng.randint(low, high)
    cells = [(x, y) for x in range(width) for y in range(height)]
    start = rng.choice(cells)
    blocked = frozenset(c for c in cells if c != start and rng.random() < 0.2)
    labels = {}
    for cell in cells:
        if cell not in blocked and rng.random() < 0.4:
            labels[cell] = frozenset(n for n in "abc" if rng.random() < 0.5)
    return GridWorld(width, height, start, blocked, labels)


def show_world(world: GridWorld) -> str:
    """Rows joined by ``/``: ``#`` walls, ``S`` the start, else the label
    bitmask over a, b, c as one digit."""
    def glyph(cell):
        if cell in world.blocked:
            return "#"
        mask = sum(1 << i for i, n in enumerate("abc") if n in world.label(cell))
        return ("S" if cell == world.start else "") + str(mask)

    return "/".join(
        " ".join(glyph((x, y)) for x in range(world.width))
        for y in range(world.height)
    )


def show_outcome(world: GridWorld, formula) -> str:
    try:
        trajectory = plan(world, formula)
    except PlanningError as exc:
        return f"{type(exc).__name__}: {exc}"
    prefix, loop = (
        " ".join(f"{x},{y}" for x, y in cells)
        for cells in (trajectory.prefix_cells, trajectory.loop_cells)
    )
    return f"prefix {prefix}; loop {loop}"


def plan_outcomes_text() -> str:
    """One line per (world, goal) pair: the planned cells or the error."""
    lines = []
    demo = builtin_world("demo")
    for text in DEMO_GOALS:
        lines.append(f"demo | {text} -> {show_outcome(demo, parse(text))}")
    for world, formula in outcome_pairs():
        lines.append(
            f"{show_world(world)} | {print_formula(formula)} -> "
            f"{show_outcome(world, formula)}"
        )
    return "\n".join(lines) + "\n"


def outcome_pairs():
    """The random (world, goal) pairs of ``plan_outcomes_text``."""
    rng = random.Random(20241)
    for _ in range(OUTCOME_PAIRS):
        world = random_world(rng)
        yield world, random_formula(rng, 4, ("a", "b", "c"))


def test_plan_outcomes_match_golden():
    # Trajectories and errors on the demo goals and on random small
    # worlds, pinned byte for byte: prefix, loop, tie-breaks and messages.
    assert plan_outcomes_text() == GOLDEN_PLAN_OUTCOMES.read_text(encoding="utf-8")


GOLDEN_LARGE_PLAN_OUTCOMES = (
    Path(__file__).parent / "golden" / "plan_outcomes_large.txt"
)
LARGE_OUTCOME_PAIRS = 60
# The benchmark's four goal families: reach, ordered visit, patrol and
# avoid-until, with h the hazard.
FAMILY_GOALS = ("F(a)", "F(a & F(b))", "G(F(b)) & G(F(c))", "!h U c")


def pillar_world(rng: random.Random, n: int) -> GridWorld:
    """An n x n world walled on a fifth of its cells with two odd
    coordinates, so every open cell stays connected, and with n // 10
    cells each for a, b, c and h."""
    pillars = [(x, y) for y in range(1, n, 2) for x in range(1, n, 2)]
    blocked = frozenset(rng.sample(pillars, round(0.2 * n * n)))
    open_cells = [(x, y) for y in range(n) for x in range(n) if (x, y) not in blocked]
    per_label = n // 10
    start, *placed = rng.sample(open_cells, 1 + 4 * per_label)
    labels = {cell: frozenset("abch"[i // per_label]) for i, cell in enumerate(placed)}
    return GridWorld(n, n, start, blocked, labels)


def large_plan_outcomes_text() -> str:
    """Random goals on worlds from 8x8 to 16x16, where the search layers
    run deep, then the four goal families on one 20x20 pillar world."""
    lines = []
    rng = random.Random(20246)
    for _ in range(LARGE_OUTCOME_PAIRS):
        world = random_world(rng, 8, 16)
        formula = random_formula(rng, 4, ("a", "b", "c"))
        lines.append(
            f"{show_world(world)} | {print_formula(formula)} -> "
            f"{show_outcome(world, formula)}"
        )
    world = pillar_world(random.Random(20), 20)
    for text in FAMILY_GOALS:
        lines.append(f"pillars 20 | {text} -> {show_outcome(world, parse(text))}")
    return "\n".join(lines) + "\n"


def test_large_plan_outcomes_match_golden():
    # Trajectories on larger worlds, pinned byte for byte.
    assert large_plan_outcomes_text() == GOLDEN_LARGE_PLAN_OUTCOMES.read_text(
        encoding="utf-8"
    )


GOLDEN_STRESS_PLAN_OUTCOMES = (
    Path(__file__).parent / "golden" / "plan_outcomes_stress.txt"
)
STRESS_SIDE = 40


def open_field() -> GridWorld:
    """No walls; four single-cell targets a, b, c, d far apart."""
    labels = {(5, 5): {"a"}, (34, 8): {"b"}, (20, 33): {"c"}, (3, 36): {"d"}}
    return GridWorld(STRESS_SIDE, STRESS_SIDE, (20, 20), labels=labels)


def serpentine() -> GridWorld:
    """Even rows open, odd rows walled but for one cell at alternating
    ends: one corridor of 819 cells from a at (0, 0) to b at its far end."""
    n = STRESS_SIDE
    blocked = frozenset(
        (x, y) for y in range(1, n, 2) for x in range(n)
        if x != (n - 1 if y // 2 % 2 == 0 else 0)
    )
    return GridWorld(n, n, (0, 0), blocked, {(0, 0): {"a"}, (0, n - 2): {"b"}})


def checkerboard() -> GridWorld:
    """a on every cell with an even coordinate sum: no two a cells, and no
    two unlabeled cells, are 4-adjacent."""
    n = STRESS_SIDE
    labels = {(x, y): {"a"} for x in range(n) for y in range(n) if (x + y) % 2 == 0}
    return GridWorld(n, n, (0, 0), labels=labels)


def walled_off() -> GridWorld:
    """d is enclosed by four walls, so no trajectory ever reaches it."""
    blocked = frozenset({(30, 29), (29, 30), (31, 30), (30, 31)})
    return GridWorld(
        STRESS_SIDE, STRESS_SIDE, (0, 0), blocked, {(30, 30): {"d"}, (10, 10): {"a"}}
    )


STRESS_SHAPES = (
    ("open", open_field, "G(F(a)) & G(F(b)) & G(F(c))"),
    ("open", open_field, "G(F(a)) & G(F(b)) & G(F(c)) & G(F(d))"),
    ("open", open_field, "(!a U b) & (!b U c) & G(F(a))"),
    ("serpentine", serpentine, "F(b)"),
    ("serpentine", serpentine, "G(F(a)) & G(F(b))"),
    ("checkerboard", checkerboard, "G(F(a)) & G(F(!a))"),
    ("checkerboard", checkerboard, "F(a & F(!a & F(a & F(!a & F(a)))))"),
    ("walled off", walled_off, "F(a) & F(d)"),
)


def stress_plan_outcomes_text() -> str:
    """The planned cells or the error for each stress shape on 40x40."""
    return "".join(
        f"{name} {STRESS_SIDE} | {text} -> {show_outcome(make(), parse(text))}\n"
        for name, make, text in STRESS_SHAPES
    )


def test_stress_plan_outcomes_match_golden():
    # Long corridors, many-target patrols and single-cell label regions,
    # pinned byte for byte.
    assert stress_plan_outcomes_text() == GOLDEN_STRESS_PLAN_OUTCOMES.read_text(
        encoding="utf-8"
    )


def reference_good_nodes(world: GridWorld, aut) -> set:
    """The (cell, state, counter) nodes reachable from the start that lie in
    a component with an accepting cycle, from the explicit product.

    Built node by node over the world's moves and the automaton's
    transitions, decoded to sets of atom names, with its own counter
    degeneralization (counter c: sets 0..c-1 seen this round; c == k
    completes a round, which the next step resets), and split into
    components by Kosaraju's two passes.
    """
    k = len(aut.acceptance_sets)
    names = sorted(aut.alphabet)
    edges = {}
    for src, pos, neg, dst in aut.transitions:
        required = {a for j, a in enumerate(names) if pos >> j & 1}
        forbidden = {a for j, a in enumerate(names) if neg >> j & 1}
        edges.setdefault(src, []).append((required, forbidden, dst))

    def moves(cell):
        """Waiting plus the open 4-neighbours."""
        x, y = cell
        for c in (cell, (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if world.in_bounds(c) and c not in world.blocked:
                yield c

    def successors(node):
        cell, q, c = node
        letter = world.label(cell)
        base = 0 if c == k else c
        out = set()
        for required, forbidden, q2 in edges.get(q, ()):
            if required <= letter and not forbidden & letter:
                c2 = base
                while c2 < k and q2 in aut.acceptance_sets[c2]:
                    c2 += 1
                out.update((move, q2, c2) for move in moves(cell))
        return out

    start = (world.start, aut.initial, 0)
    succ = {start: successors(start)}
    finished = []
    stack = [(start, iter(succ[start]))]
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if nxt not in succ:
                succ[nxt] = successors(nxt)
                stack.append((nxt, iter(succ[nxt])))
                break
        else:
            stack.pop()
            finished.append(node)
    pred = {node: [] for node in succ}
    for node, targets in succ.items():
        for nxt in targets:
            pred[nxt].append(node)
    good, assigned = set(), set()
    for root in reversed(finished):
        if root in assigned:
            continue
        members, todo = [], [root]
        assigned.add(root)
        while todo:
            node = todo.pop()
            members.append(node)
            for prev in pred[node]:
                if prev not in assigned:
                    assigned.add(prev)
                    todo.append(prev)
        cyclic = len(members) > 1 or root in succ[root]
        if cyclic and any(c == k for _, _, c in members):
            good.update(members)
    return good


def planner_good_nodes(world: GridWorld, aut) -> set:
    """The same nodes from the planner's search over blocks of cells."""
    product = _Product(world, aut)
    comp_of, good = _tarjan_sccs(product.start, product.successors, product.accepting)
    k1 = len(aut.acceptance_sets) + 1
    out = set()
    for o, cells in product.layer(n for n, c in comp_of.items() if good[c]).items():
        q, c = divmod(o, k1)
        out.update(
            (product.cell(p), q, c) for p in range(cells.bit_length()) if cells >> p & 1
        )
    return out


def differential_cases():
    yield from outcome_pairs()
    for n in (20, 40):
        world = pillar_world(random.Random(n), n)
        for text in FAMILY_GOALS:
            yield world, parse(text)


def test_good_components_match_the_explicit_product():
    # Contracting blocks of waiting cells keeps exactly the product nodes
    # that lie in a component with an accepting cycle.
    checked = 0
    for world, formula in differential_cases():
        aut = build_automaton(formula)
        assert planner_good_nodes(world, aut) == reference_good_nodes(world, aut)
        checked += 1
    assert checked == OUTCOME_PAIRS + 8


def test_second_plan_of_a_goal_does_not_decide_it_again(monkeypatch):
    world = builtin_world("demo")
    formula = parse("F(purple_room) & G(F(red_room & !purple_room))")
    plan(world, formula)
    calls = []
    is_empty = automata.is_empty

    def counting_is_empty(aut):
        calls.append(aut)
        return is_empty(aut)

    monkeypatch.setattr(automata, "is_empty", counting_is_empty)
    assert plan(world, formula) == plan(world, formula)
    assert calls == []


def test_second_plan_of_a_goal_does_not_build_its_automaton_again(monkeypatch):
    world = builtin_world("demo")
    formula = parse("F(purple_room) & G(F(red_room & !purple_room))")
    first = plan(world, formula)
    calls = []

    def counting_build(f):
        calls.append(f)
        return build_automaton(f)

    monkeypatch.setattr(planner, "build_automaton", counting_build)
    assert plan(world, formula) == first
    assert calls == []


class TestKeptGoalAutomaton:
    """plan keeps the goal's automaton on the goal node, as ``formulas.kept``
    keeps a node's printed text."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the goal automata plan builds through its module global."""
        calls = []

        def counting_build(f):
            calls.append(f)
            return build_automaton(f)

        monkeypatch.setattr(planner, "build_automaton", counting_build)
        return calls

    def goal(self, tag: str) -> Formula:
        # Built from constructors (parse keeps a memo of what it parsed),
        # over atoms of this test only, so no other test holds the node.
        return Finally(And(Atom(f"kept_{tag}"), Finally(Atom("red_room"))))

    def world(self, tag: str) -> GridWorld:
        return parse_world(f"legend:\nk = kept_{tag}\nr = red_room\ngrid:\nS.k\n..r\n")

    def test_pickle_repr_and_asdict_do_not_change(self):
        goal, world = self.goal("pickle"), self.world("pickle")
        before = pickle.dumps(goal)
        shown, fields = repr(goal), dataclasses.asdict(goal)
        plan(world, goal)
        assert pickle.dumps(goal) == before
        assert repr(goal) == shown
        assert dataclasses.asdict(goal) == fields

    def test_cap_is_raised_on_every_call_and_keeps_nothing(self, builds, monkeypatch):
        goal, world = self.goal("cap"), self.world("cap")
        assert is_satisfiable(goal).satisfiable  # the verdict is remembered
        with monkeypatch.context() as lowered:
            lowered.setattr(automata, "STATE_CAP", 2)
            for _ in range(2):
                with pytest.raises(ResourceLimitError, match="exceeded 2 states"):
                    plan(world, goal)
        assert len(builds) == 2
        assert "_automaton" not in vars(goal)
        first = plan(world, goal)
        assert len(builds) == 3
        assert plan(world, goal) == first
        assert len(builds) == 3

    def test_a_dropped_goal_is_collected_with_its_automaton(self):
        goal, world = self.goal("dropped"), self.world("dropped")
        plan(world, goal)
        goal_ref = weakref.ref(goal)
        automaton_ref = weakref.ref(vars(goal)["_automaton"])
        del goal
        is_satisfiable.cache_clear()  # its key held the goal too
        gc.collect()
        assert goal_ref() is None
        assert automaton_ref() is None


def shared_world_groups():
    """(world, goals) for every world of the large and stress goldens, with
    the goals the golden plans on it."""
    rng = random.Random(20246)
    for _ in range(LARGE_OUTCOME_PAIRS):
        world = random_world(rng, 8, 16)
        yield world, [random_formula(rng, 4, ("a", "b", "c"))]
    yield pillar_world(random.Random(20), 20), [parse(t) for t in FAMILY_GOALS]
    for name, make in dict.fromkeys((n, m) for n, m, _ in STRESS_SHAPES):
        yield make(), [parse(t) for n, _, t in STRESS_SHAPES if n == name]


def test_goals_in_reverse_on_one_world_plan_as_on_fresh_worlds():
    # Whatever the world's grid memo holds from other goals, each goal
    # plans as it does on a world object of its own.
    for world, goals in shared_world_groups():
        shared = [show_outcome(world, f) for f in reversed(goals)]
        fresh = [show_outcome(dataclasses.replace(world), f) for f in goals]
        assert shared[::-1] == fresh


@pytest.fixture
def flood_fills(monkeypatch):
    """The stable sets ``_Grid._partition`` is asked for, on grids built
    after the fixture."""
    calls = []
    partition = planner._Grid._partition

    def counting(self, stable):
        calls.append(stable)
        return partition(self, stable)

    monkeypatch.setattr(planner._Grid, "_partition", counting)
    return calls


def test_a_repeated_goal_runs_no_flood_fill(flood_fills):
    world = builtin_world("demo")
    formula = parse("G(F(purple_room)) & G(F(red_room))")
    first = plan(world, formula)
    assert flood_fills
    flood_fills.clear()
    assert plan(world, formula) == first
    assert flood_fills == []


def test_goals_on_one_world_share_their_blocks(flood_fills):
    reach, ordered = parse("F(red_room)"), parse("F(purple_room & F(red_room))")
    world = builtin_world("demo")
    alone = plan(world, ordered)
    alone_fills = list(flood_fills)
    assert planner._grids[world].open in alone_fills  # every cell stable

    world = builtin_world("demo")
    plan(world, reach)
    flood_fills.clear()
    assert plan(world, ordered) == alone
    assert len(flood_fills) < len(alone_fills)


def test_a_replaced_world_gets_its_own_geometry():
    world = builtin_world("demo")
    formula = parse("F(red_room)")
    before = plan(world, formula)
    wall = before.prefix_cells[3]
    walled = dataclasses.replace(world, blocked=world.blocked | {wall})
    after = plan(walled, formula)
    assert wall not in after.prefix_cells + after.loop_cells
    fresh = GridWorld(world.width, world.height, world.start,
                      world.blocked | {wall}, world.labels)
    assert plan(fresh, formula) == after
    assert plan(world, formula) == before


def test_labels_are_read_on_every_plan():
    world = builtin_world("demo")
    formula = parse("F(red_room)")
    before = plan(world, formula)
    world.labels[(0, 2)] = frozenset({"red_room"})  # nearer the start
    after = plan(world, formula)
    assert after != before and after.loop_cells == ((0, 2),)
    fresh = GridWorld(world.width, world.height, world.start, labels=world.labels)
    assert plan(fresh, formula) == after


@pytest.mark.parametrize("cell, names", [
    ((10, 0), frozenset({"red_room"})),
    ((7, 3), frozenset({"red_room"})),
    ((5, 5), frozenset({"red_room"})),  # blocked below
    ((2, 2), "red_room"),
    ((2, 2), frozenset({"F"})),
    ((2, "2"), frozenset({"red_room"})),
], ids=["out-of-bounds-x", "out-of-bounds-xy", "blocked", "string", "bad-name", "bad-cell"])
def test_labels_edited_in_place_are_checked_as_at_construction(cell, names):
    world = dataclasses.replace(builtin_world("demo"), blocked=frozenset({(5, 5)}))
    world.labels[cell] = names
    with pytest.raises(ValueError) as built:
        GridWorld(world.width, world.height, world.start, world.blocked, world.labels)
    with pytest.raises(ValueError) as planned:
        plan(world, parse("F(red_room)"))
    assert str(planned.value) == str(built.value)


def test_a_world_takes_its_grid_with_it():
    world = builtin_world("demo")
    plan(world, parse("F(red_room)"))
    grid = planner._grids[world]
    del world
    gc.collect()
    assert all(g is not grid for g in planner._grids.values())


def test_a_world_keeps_at_most_its_bound_of_partitions():
    # Each G(!l) is stable everywhere but on the one cell labeled l.
    names = [f"l{i}" for i in range(planner.PARTITION_MEMO_SIZE + 8)]
    cells = [(x, y) for y in range(8) for x in range(8)][1:]
    world = GridWorld(8, 8, (0, 0), labels={
        cell: {name} for cell, name in zip(cells, names)
    })
    for name in names:
        plan(world, parse(f"G(!{name})"))
    info = planner._grids[world].partition.cache_info()
    assert info.misses == len(names)
    assert info.currsize == planner.PARTITION_MEMO_SIZE


def test_a_planned_world_stays_plain_data():
    world = builtin_world("demo")
    formula = parse("F(purple_room & F(red_room))")
    first = plan(world, formula)
    fields = {f.name for f in dataclasses.fields(world)}
    assert set(vars(world)) == fields
    for twin in (pickle.loads(pickle.dumps(world)), copy.deepcopy(world)):
        assert twin is not world and set(vars(twin)) == fields
        assert twin.labels == world.labels and twin.blocked == world.blocked
        assert plan(twin, formula) == first
