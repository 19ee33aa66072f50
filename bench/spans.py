"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``TARGETS`` with a timing
wrapper, in its defining module and in every ``ltlkit`` module that
imported the name, and ``uninstall`` puts the originals back.  Spans are
kept in memory as ``[name, parent, start, end]`` and summarised or
written out after the run.  Model calls are timed by wrapping the
backend object instead, since backends are objects the caller passes in.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
from time import perf_counter

TARGETS = (
    ("automata", "build_automaton"),
    ("automata", "is_empty"),
    ("automata", "is_satisfiable"),
    ("automata", "equiv"),
    ("formulas", "to_nnf"),
    ("formulas", "evaluate"),
    ("srl", "tag"),
    ("prompts", "render"),
    ("prompts", "render_reprompt"),
    ("prompts", "extract_formula"),
    ("pipeline", "translate"),
    ("pipeline", "vote"),
    ("parsing", "parse"),
    ("parsing", "print_formula"),
    ("evaluation", "evaluate_dataset"),
    ("evaluation", "ground_formula"),
    ("evaluation", "load_dataset"),
    ("planner", "plan"),
)
COMPLETE = "gateway.complete"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._patched: list = []
        self._seen = {"sat": set(), "equiv": set()}
        self._hooks = {
            "automata.build_automaton": self._after_build,
            "automata.is_satisfiable": self._after_sat,
            "automata.equiv": self._after_equiv,
            "pipeline.vote": self._after_vote,
            "pipeline.translate": self._after_translate,
            "planner.plan": self._after_plan,
        }

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                # A recursive call through the patched module global.
                return fn(*args, **kwargs)
            # Work in translate's pool threads belongs to the span that
            # the calling thread is waiting in.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            span = [name, parent, 0.0, 0.0]
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(args, result, parent)
            return result

        return wrapper

    def _after_build(self, args, aut, parent) -> None:
        self._count("states", aut.n_states)
        self._count("edges", len(aut.transitions))

    def _after_sat(self, args, result, parent) -> None:
        self._count("sat.repeat", self._seen_before("sat", args[0]))

    def _after_equiv(self, args, result, parent) -> None:
        f, g = args[0], args[1]
        self._count("equiv.repeat", self._seen_before("equiv", (f, g)))
        self._count("equiv.shortcut", f == g)
        if result and parent is not None and parent[0] == "pipeline.vote":
            self._count("vote.merged")

    def _after_vote(self, args, outcome, parent) -> None:
        self._count("vote.candidates", len(args[0]))

    def _after_translate(self, args, result, parent) -> None:
        self._count("accepted", sum(1 for run in result.runs if not run.failed))

    def _after_plan(self, args, trajectory, parent) -> None:
        self._count("trajectory_cells",
                    len(trajectory.prefix_cells) + len(trajectory.loop_cells))

    def _seen_before(self, kind: str, key) -> int:
        with self._lock:
            seen = self._seen[kind]
            if key in seen:
                return 1
            seen.add(key)
            return 0

    def new_pass(self) -> None:
        """Repeats are counted within one pass over the corpus."""
        for seen in self._seen.values():
            seen.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self.new_pass()

    def backend(self, inner):
        """A backend that times each ``complete`` of ``inner``."""
        if hasattr(inner, "for_run"):
            return _TracedScriptedBackend(self, inner)
        return _TracedBackend(self, inner)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in TARGETS:
            defining = importlib.import_module(f"ltlkit.{module_name}")
            original = getattr(defining, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for name, module in list(sys.modules.items()):
                if name != "ltlkit" and not name.startswith("ltlkit."):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list:
        """Each span's duration minus the part its child spans cover.

        Children may overlap (runs in translate's pool), so the covered
        part is the union of their intervals.
        """
        children: dict = {}
        for s in self.spans:
            if s[1] is not None:
                children.setdefault(id(s[1]), []).append((s[2], s[3]))
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            covered, reach = 0.0, s[2]
            for start, end in sorted(children.get(id(s), ())):
                start, end = max(start, reach), min(end, s[3])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s[3] - s[2] - covered)
        return out

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, index.get(id(parent)), start, end]) + "\n")


class _TracedBackend:
    def __init__(self, tracer: Tracer, inner):
        self._complete = tracer.wrap(COMPLETE, inner.complete)

    def complete(self, prompt, config):
        return self._complete(prompt, config)


class _TracedScriptedBackend(_TracedBackend):
    def __init__(self, tracer: Tracer, inner):
        super().__init__(tracer, inner)
        self._tracer = tracer
        self._inner = inner

    def for_run(self, index):
        return _TracedBackend(self._tracer, self._inner.for_run(index))


def p95(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20)[18]
