"""The ``translate`` workload: one ``translate`` call at a time, mock backend.

Each prompt set gets the same twelve call shapes (``CALLS``); a seed picks
the atoms, the wording and the call order.  Every run of every call has
its own scripted completions, so the decision, the winner and each run's
retry count are known by construction.  No two calls share a goal
formula, and formulas stay small so that automaton work stays light.
"""

from __future__ import annotations

import random
import time

from ltlkit import gateway, pipeline, prompts

import domains
import forms
from checks import CheckError, require

# (shape, family of the goal formula, k, role annotation injected)
CALLS = (
    ("unanimous", "reach", 3, True),
    ("unanimous", "seq2", 3, False),
    ("unanimous", "until", 3, True),
    ("unanimous", "avoid", 3, False),
    ("single", "either", 1, True),
    ("majority_rewrite_first", "either", 3, False),
    ("majority_split", "avoid", 3, True),
    ("majority_of_five", "seq2", 5, False),
    ("fallback", "seq2", 5, True),
    ("rejections", "ordered2", 3, False),
    ("repeated_rejections", "seq3", 3, True),
    ("fallback", "until", 5, False),
)

# Distinct families for the all-distinct votes: no two are equivalent.
FALLBACK_FAMILIES = ("seq2", "avoid", "until", "either", "ordered2")


class _Unique:
    """Draws goal formulas that no other draw of the corpus is equivalent to.

    Within a family, distinct atom tuples give inequivalent formulas,
    except that ``either`` and ``patrol2`` are symmetric in their atoms.
    """

    SYMMETRIC = ("either", "patrol2")

    def __init__(self, rng):
        self.rng = rng
        self.used: set = set()

    def draw(self, family_name: str, phrases):
        family = domains.FAMILIES[family_name]
        for _ in range(1000):
            names = self.rng.sample(list(phrases), family.arity)
            key = (family_name, frozenset(names) if family_name in self.SYMMETRIC
                   else tuple(names))
            if key not in self.used:
                self.used.add(key)
                return names, family.build(names)
        raise CheckError(f"no unused {family_name} formula left")


def build_call(shape, family_name, k, unique: _Unique, phrases, syntax, rng):
    """Scripts for one call and the outcome they imply."""
    def draw(name):
        return unique.draw(name, phrases)

    names, goal = draw(family_name)
    family = domains.FAMILIES[family_name]
    rewrite = family.rewrite(names)
    rejected = [[] for _ in range(k)]
    scores = {}
    decision = "majority"
    if shape in ("unanimous", "single"):
        runs = [goal] * k
    elif shape == "majority_rewrite_first":
        runs = [rewrite, goal, draw(family_name)[1]]
    elif shape == "majority_split":
        runs = [goal, draw(family_name)[1], rewrite]
    elif shape == "majority_of_five":
        runs = [draw(family_name)[1], goal, rewrite, draw(family_name)[1], goal]
    elif shape == "fallback":
        runs = [goal] + [
            draw(f)[1] for f in FALLBACK_FAMILIES if f != family_name
        ][: k - 1]
        decision = "confidence_fallback"
        scores = forms.confidence_scores(runs)
    elif shape == "rejections":
        runs = [goal] * k
        rejected = [["no_ltl"], ["parse"], ["unsat"]]
    elif shape == "repeated_rejections":
        runs = [goal] * k
        rejected = [["unsat", "parse"], [], ["no_ltl", "unsat"]]
    else:
        raise ValueError(f"unknown call shape {shape!r}")

    if decision == "majority":
        cls = [f for f in runs if f in (goal, rewrite)]
        require(len(cls) * 2 > k, f"{shape}: no majority by construction")
        winner = cls[0]
    else:
        winner = forms.fallback_winner(runs)
    scripts = [
        [domains.rejected_text(r, f, syntax) for r in why]
        + [domains.completion_text(f, syntax)]
        for f, why in zip(runs, rejected)
    ]
    instruction = family.instruction(names, phrases, rng)
    return {
        "shape": shape,
        "instruction": instruction,
        "k": k,
        "runs": runs,
        "retries": [len(why) for why in rejected],
        "decision": decision,
        "winner": winner,
        "scores": scores,
        "scripts": scripts,
    }


def generate(seed: int):
    rng = random.Random(f"translate:{seed}")
    calls = []
    # One pool of used formulas: cleanup and pickplace share atom names.
    unique = _Unique(rng)
    for set_name, domain in domains.PROMPT_SETS.items():
        for shape, family_name, k, srl in CALLS:
            call = build_call(shape, family_name, k, unique, domain["phrases"],
                              domain["syntax"], rng)
            call.update(prompt_set=set_name, srl=srl)
            calls.append(call)
    rng.shuffle(calls)
    return calls


class TranslateWorkload:
    def __init__(self, seed: int, workdir):
        self.calls = generate(seed)
        bundles = {name: prompts.builtin_prompt_set(name) for name in domains.PROMPT_SETS}
        generation = gateway.GenerationConfig()
        self.jobs = [
            (
                call["instruction"],
                bundles[call["prompt_set"]],
                pipeline.PipelineConfig(
                    k=call["k"], inject_test_srl=call["srl"], generation=generation
                ),
                gateway.MockBackend(scripts=call["scripts"]),
            )
            for call in self.calls
        ]
        self.items_per_pass = len(self.jobs)

    def load(self) -> None:
        pass

    @staticmethod
    def wrap_backend(backend):
        return backend

    def run_pass(self):
        latencies = []
        results = []
        for instruction, bundle, config, backend in self.jobs:
            start = time.perf_counter()
            result = pipeline.translate(
                instruction, bundle, config, self.wrap_backend(backend)
            )
            latencies.append(time.perf_counter() - start)
            results.append(result)
        return latencies, results

    def check(self, results) -> None:
        require(len(results) == len(self.calls), "one result per call")
        for call, result in zip(self.calls, results):
            check_result(call, result)


def check_result(call: dict, result) -> None:
    """Compare one TranslationResult with the outcome its scripts imply."""
    where = call["instruction"]
    require(result.decision == call["decision"],
            f"{where}: decision {result.decision}, expected {call['decision']}")
    got = forms.from_package(result.final_formula)
    require(got == call["winner"],
            f"{where}: winner {forms.infix(got)}, expected {forms.infix(call['winner'])}")
    require(dict(result.confidence_scores) == call["scores"],
            f"{where}: confidence scores {dict(result.confidence_scores)}, "
            f"expected {call['scores']}")
    require(len(result.runs) == call["k"], f"{where}: {len(result.runs)} runs")
    for i, run in enumerate(result.runs):
        require(run.index == i and not run.failed, f"{where}: run {i} failed")
        require(run.retries_used == call["retries"][i],
                f"{where}: run {i} used {run.retries_used} retries, "
                f"expected {call['retries'][i]}")
        require(forms.from_package(run.formula) == call["runs"][i],
                f"{where}: run {i} formula differs from its script")
