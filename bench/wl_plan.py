"""The ``plan`` workload: ``plan`` on seeded grid worlds.

Two worlds of each size (10x10, 20x20, 40x40), each with a fifth of its
cells walled and four propositions placed by the benchmark's own grid
search so that every goal is realisable: reach, ordered visit, a
``G(F(.))`` patrol and avoid-until.  Trajectories are checked with the
benchmark's own adjacency and a direct test per goal family.
"""

from __future__ import annotations

import random
import time
from collections import deque

from ltlkit import parsing, planner

import forms
from checks import require

SIZES = (10, 20, 40)
WORLDS_PER_SIZE = 2
WALL_SHARE = 0.2
NAMES = ("red_room", "blue_room", "green_room", "orange_room", "purple_room",
         "yellow_room", "hallway", "landing_pad", "charging_dock")
GLYPHS = ("a", "b", "c", "h")  # targets a, b, c and the hazard h


def neighbours(cell, n, walls):
    """Waiting plus the open 4-neighbours."""
    x, y = cell
    for c in ((x, y), (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
        if 0 <= c[0] < n and 0 <= c[1] < n and c not in walls:
            yield c


def reachable(start, n, walls, avoid=frozenset()):
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for c in neighbours(cell, n, walls):
            if c not in seen and c not in avoid:
                seen.add(c)
                queue.append(c)
    return seen


def make_world(rng, n):
    """A world whose every goal can be met.

    Walls stand only on cells with two odd coordinates, so every even row
    and column stays open and all open cells are connected: the product
    graph, and so the planner's work, has the same size for every seed.
    """
    pillars = [(x, y) for y in range(1, n, 2) for x in range(1, n, 2)]
    walls = set(rng.sample(pillars, round(WALL_SHARE * n * n)))
    open_cells = [(x, y) for y in range(n) for x in range(n) if (x, y) not in walls]
    per_label = max(1, n // 10)
    while True:
        start, *placed = rng.sample(open_cells, 1 + per_label * len(GLYPHS))
        by_glyph = {g: placed[i * per_label:(i + 1) * per_label] for i, g in enumerate(GLYPHS)}
        # Avoid-until needs a path to a target c that never enters h.
        safe = reachable(start, n, walls, avoid=frozenset(by_glyph["h"]))
        if any(c in safe for c in by_glyph["c"]):
            break
    names = rng.sample(NAMES, len(GLYPHS))
    label_of = {g: name for g, name in zip(GLYPHS, names)}
    rows = [["."] * n for _ in range(n)]
    for x, y in walls:
        rows[y][x] = "#"
    labels = {}
    for g, where in by_glyph.items():
        for x, y in where:
            rows[y][x] = g
            labels[(x, y)] = label_of[g]
    rows[start[1]][start[0]] = "S"
    text = "legend:\n" + "".join(f"{g} = {label_of[g]}\n" for g in GLYPHS)
    text += "grid:\n" + "".join("".join(r) + "\n" for r in rows)
    a, b, c, h = (forms.ap(label_of[g]) for g in GLYPHS)
    goals = [
        ("reach", (label_of["a"],), forms.ev(a)),
        ("ordered", (label_of["a"], label_of["b"]), forms.ev(forms.conj(a, forms.ev(b)))),
        ("patrol", (label_of["b"], label_of["c"]), forms.conj(forms.alw(forms.ev(b)), forms.alw(forms.ev(c)))),
        ("avoid_until", (label_of["h"], label_of["c"]), forms.until(forms.neg(h), c)),
    ]
    return {"n": n, "start": start, "walls": frozenset(walls), "labels": labels,
            "text": text, "goals": goals}


def generate(seed: int):
    rng = random.Random(f"plan:{seed}")
    return [make_world(rng, n) for n in SIZES for _ in range(WORLDS_PER_SIZE)]


class PlanWorkload:
    def __init__(self, seed: int, workdir):
        self.worlds = generate(seed)
        self.goals = [
            [parsing.parse(forms.infix(goal), "infix") for _, _, goal in w["goals"]]
            for w in self.worlds
        ]
        self.load()
        self.items_per_pass = sum(len(g) for g in self.goals)

    def load(self) -> None:
        self.grids = [planner.parse_world(w["text"]) for w in self.worlds]

    def run_pass(self):
        latencies = []
        trajectories = []
        for grid, goals in zip(self.grids, self.goals):
            for goal in goals:
                start = time.perf_counter()
                trajectory = planner.plan(grid, goal)
                latencies.append(time.perf_counter() - start)
                trajectories.append(trajectory)
        return latencies, trajectories

    def check(self, trajectories) -> None:
        require(len(trajectories) == self.items_per_pass, "one trajectory per goal")
        it = iter(trajectories)
        for world in self.worlds:
            for family, names, _ in world["goals"]:
                check_trajectory(world, family, names, next(it))



def check_trajectory(world: dict, family: str, names, trajectory) -> None:
    """Walkability by the benchmark's own grid, then the goal directly."""
    n, walls, labels = world["n"], world["walls"], world["labels"]
    prefix, loop = list(trajectory.prefix_cells), list(trajectory.loop_cells)
    require(prefix and loop, f"{family}: empty prefix or loop")
    require(prefix[0] == world["start"], f"{family}: starts at {prefix[0]}")
    walk = prefix + loop + [loop[0]]
    for a, b in zip(walk, walk[1:]):
        require(b in set(neighbours(a, n, walls)), f"{family}: illegal step {a} -> {b}")

    def has(cell, name):
        return labels.get(cell) == name

    if family == "reach":
        require(any(has(c, names[0]) for c in prefix + loop), "reach: target never visited")
    elif family == "ordered":
        seq = prefix + loop + loop
        first = next((i for i, c in enumerate(seq) if has(c, names[0])), None)
        require(first is not None and any(has(c, names[1]) for c in seq[first:]),
                "ordered: targets not visited in order")
    elif family == "patrol":
        require(any(has(c, names[0]) for c in loop) and any(has(c, names[1]) for c in loop),
                "patrol: loop misses a target")
    elif family == "avoid_until":
        seq = prefix + loop
        goal_at = next((i for i, c in enumerate(seq) if has(c, names[1])), None)
        require(goal_at is not None, "avoid_until: target never reached")
        require(not any(has(c, names[0]) for c in seq[:goal_at]),
                "avoid_until: hazard entered before the target")
    else:
        raise ValueError(f"unknown goal family {family!r}")
