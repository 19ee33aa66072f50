import random
from pathlib import Path

import pytest

from ltlkit.automata import ResourceLimitError
from ltlkit.formulas import LassoWord
from ltlkit.parsing import parse, print_formula
from ltlkit.planner import (
    BUILTIN_WORLDS,
    GridWorld,
    NoPlanError,
    PlanningError,
    Trajectory,
    UnsatisfiableFormulaError,
    WorldFormatError,
    builtin_world,
    check_trace,
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
    def test_moves_are_sorted_and_include_waiting(self):
        world = parse_world("legend:\ngrid:\nS..\n...\n...\n")
        assert world.moves((1, 1)) == ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))

    def test_moves_respect_walls_and_bounds(self):
        world = parse_world("legend:\ngrid:\nS#\n..\n")
        assert world.moves((0, 0)) == ((0, 0), (0, 1))

    def test_propositions(self):
        world = parse_world(UNTIL_WORLD)
        assert world.propositions() == frozenset({"red_room", "second_floor"})

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
        assert check_trace(parse("F(purple_room & F(red_room))"), trajectory)
        validate_trajectory(world, trajectory)

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
        assert check_trace(formula, trajectory)

    def test_patrol_loop_covers_both_regions(self):
        world = parse_world("legend:\nA = alpha\nB = beta\ngrid:\nSA\n.B\n")
        formula = parse("G(F(alpha)) & G(F(beta))")
        trajectory = plan(world, formula)
        validate_trajectory(world, trajectory)
        assert check_trace(formula, trajectory)
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
            assert check_trace(formula, trajectory), text
            validate_trajectory(world, trajectory)

    def test_state_cap_propagates(self):
        world = builtin_world("demo")
        with pytest.raises(ResourceLimitError):
            plan(world, parse("F(purple_room & F(red_room))"), state_cap=2)

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
        assert check_trace(formula, padded)


class TestCheckTrace:
    def test_false_when_leaving_a_globally_region(self):
        world = parse_world("legend:\nS = a\ngrid:\nS.\n..\n")
        trajectory = walk(world, [(0, 0)], [(0, 1)])
        validate_trajectory(world, trajectory)
        assert check_trace(parse("a"), trajectory)
        assert not check_trace(parse("G(a)"), trajectory)

    def test_until_holds_on_avoiding_path(self):
        world = parse_world(UNTIL_WORLD)
        trajectory = walk(world, [(0, 0), (0, 1), (1, 1), (2, 1)], [(2, 1)])
        assert check_trace(parse("!red_room U second_floor"), trajectory)

    def test_until_fails_when_crossing_the_avoided_cell(self):
        world = parse_world(UNTIL_WORLD)
        trajectory = walk(world, [(0, 0), (1, 0), (2, 0), (2, 1)], [(2, 1)])
        validate_trajectory(world, trajectory)
        assert not check_trace(parse("!red_room U second_floor"), trajectory)


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
    rng = random.Random(20241)
    for _ in range(OUTCOME_PAIRS):
        world = random_world(rng)
        formula = random_formula(rng, 4, ("a", "b", "c"))
        lines.append(
            f"{show_world(world)} | {print_formula(formula)} -> "
            f"{show_outcome(world, formula)}"
        )
    return "\n".join(lines) + "\n"


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
