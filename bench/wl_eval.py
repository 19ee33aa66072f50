"""The ``eval`` workload: ``evaluate_dataset`` over three replayed datasets.

One dataset per prompt set, with the same thirteen record shapes in each;
a seed picks the atoms, the wording and the record order.  Every
prediction is stored in a replay store and is either the gold formula
verbatim, a rewrite of it by a known identity, or a known-wrong formula,
so both accuracies and the failure list are known by construction.  Two
records per dataset store a rejected first completion and a fixed
completion for the re-prompt.
"""

from __future__ import annotations

import json
import random
import time

from ltlkit import evaluation, gateway, pipeline, prompts

import domains
import forms
from checks import CheckError, require

REPETITIONS = 3
K = 3

# (family, stored prediction, why the first completion is rejected)
RECORDS = (
    ("seq2", "verbatim", "no_ltl"),
    ("seq3", "rewrite", None),
    ("seq4", "wrong", None),
    ("seq5", "verbatim", None),
    ("patrol2", "rewrite", None),
    ("patrol3", "wrong", None),
    ("patrol4", "verbatim", None),
    ("ordered2", "verbatim", "parse"),
    ("ordered3", "rewrite", None),
    ("avoid", "rewrite", None),
    ("avoid2", "rewrite", None),
    ("either", "rewrite", None),
    ("until", "wrong", None),
)


def generate(seed: int, workdir):
    """Write the datasets and the replay store; return what to expect."""
    rng = random.Random(f"eval:{seed}")
    generation = gateway.GenerationConfig()
    store = gateway.ReplayStore(workdir / "replay.jsonl")
    plans = []
    for set_name, domain in domains.PROMPT_SETS.items():
        syntax = domain["syntax"]
        phrases = domain["phrases"]
        bundle = prompts.builtin_prompt_set(set_name)
        order = list(RECORDS)
        rng.shuffle(order)
        lines = [json.dumps({"aps": list(phrases)})]
        wrong = []
        for index, (family_name, kind, rejected) in enumerate(order):
            family = domains.FAMILIES[family_name]
            names = rng.sample(list(phrases), family.arity)
            gold = family.build(names)
            predicted = {
                "verbatim": gold,
                "rewrite": family.rewrite(names),
                "wrong": family.wrong(names),
            }[kind]
            if kind == "wrong":
                wrong.append(index)
            instruction = family.instruction(names, phrases, rng)
            lines.append(json.dumps({
                "instruction": instruction,
                "gold": forms.render(gold, syntax),
                "syntax": syntax,
                "grounding": {phrases[n].removeprefix("the "): n for n in names},
            }))
            test_bundle = bundle.with_test(instruction)
            base_prompt = prompts.render(test_bundle)
            answer = domains.completion_text(predicted, syntax)
            if rejected is None:
                store.put(base_prompt, generation, answer)
                continue
            bad = domains.rejected_text(rejected, predicted, syntax)
            try:
                prompts.extract_formula(bad, syntax)
            except ValueError as exc:
                reprompt = prompts.render_reprompt(test_bundle, bad, str(exc))
            else:
                raise CheckError(f"rejected completion was accepted: {bad!r}")
            store.put(base_prompt, generation, bad)
            store.put(reprompt, generation, answer)
        instructions = [json.loads(line).get("instruction") for line in lines[1:]]
        require(len(set(instructions)) == len(instructions),
                f"{set_name}: two records share an instruction")
        path = workdir / f"{set_name}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        n = len(order)
        verbatim = sum(1 for _, kind, _ in order if kind == "verbatim")
        plans.append({
            "prompt_set": set_name,
            "path": path,
            "wrong": wrong,
            "semantic": (n - len(wrong)) / n,
            "exact": verbatim / n,
        })
    return plans, workdir / "replay.jsonl"


class EvalWorkload:
    def __init__(self, seed: int, workdir):
        self.plans, self.store_path = generate(seed, workdir)
        self.config = pipeline.PipelineConfig(
            k=K, generation=gateway.GenerationConfig()
        )
        self.bundles = [prompts.builtin_prompt_set(p["prompt_set"]) for p in self.plans]
        self.load()
        self.items_per_pass = REPETITIONS * sum(len(d) for d in self.datasets)

    def load(self) -> None:
        self.datasets = [evaluation.load_dataset(p["path"]) for p in self.plans]
        self.backend = gateway.ReplayBackend(gateway.ReplayStore(self.store_path))

    @staticmethod
    def wrap_backend(backend):
        return backend

    def run_pass(self):
        start = time.perf_counter()
        backend = self.wrap_backend(self.backend)
        reports = [
            evaluation.evaluate_dataset(
                dataset, bundle, self.config, backend,
                repetitions=REPETITIONS, max_workers=1,
            )
            for dataset, bundle in zip(self.datasets, self.bundles)
        ]
        return [time.perf_counter() - start], reports

    def check(self, reports) -> None:
        require(len(reports) == len(self.plans), "one report per dataset")
        for plan, report in zip(self.plans, reports):
            check_report(plan, report, len(RECORDS))



def check_report(plan: dict, report, n_records: int) -> None:
    """Compare one EvalReport with the accuracies known by construction."""
    where = plan["prompt_set"]
    require(report.n_records == n_records, f"{where}: n_records {report.n_records}")
    require(report.repetitions == REPETITIONS, f"{where}: repetitions {report.repetitions}")
    require(abs(report.accuracy_semantic - plan["semantic"]) < 1e-9,
            f"{where}: semantic accuracy {report.accuracy_semantic}, "
            f"expected {plan['semantic']}")
    require(abs(report.accuracy_exact - plan["exact"]) < 1e-9,
            f"{where}: exact accuracy {report.accuracy_exact}, expected {plan['exact']}")
    expected = sorted((i, rep) for i in plan["wrong"] for rep in range(REPETITIONS))
    listed = sorted((f.record_index, f.repetition) for f in report.failures)
    require(listed == expected, f"{where}: failures {listed}, expected {expected}")
    kinds = {f.kind for f in report.failures}
    require(kinds <= {"wrong"}, f"{where}: failure kinds {sorted(kinds)}")
