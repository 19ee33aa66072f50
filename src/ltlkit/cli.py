"""Command-line front end.

One binary, eight subcommands::

    ltlkit translate "<instruction>"   natural language -> checked formula
    ltlkit check "<formula>"           parse + satisfiability gate
    ltlkit equiv "<f>" "<g>"           semantic equivalence verdict
    ltlkit sat "<formula>"             satisfiability verdict + witness
    ltlkit srl "<sentence>"            role-annotated sentence
    ltlkit prompt-render               few-shot prompt text
    ltlkit eval                        dataset accuracy report
    ltlkit plan "<formula>"            grid-world trajectory

Exit codes (documented, stable):

    0  success / positive verdict
    2  usage error (bad flags, missing backend configuration, unreadable
       mock script or replay store)
    3  negative verdict (UNSAT, NOT EQUIVALENT, rejected formula,
       unsatisfiable planning goal)
    4  input rejected: parse error (formula, world file, prompt set,
       lexicon) or a formula too large for the automaton state cap
    5  translation failed: every run exhausted its attempts
    6  translation failed: no majority and fallback disabled
    7  no trajectory realizes the goal in this world
    8  dataset schema error
    9  backend error (authentication, network, provider, replay miss)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_PARSE = 4
EXIT_ALL_RUNS_FAILED = 5
EXIT_NO_MAJORITY = 6
EXIT_NO_PLAN = 7
EXIT_DATASET = 8
EXIT_GATEWAY = 9

# The exit code of each error a command may raise.  Keys are "module.Class"
# names, so main maps an error without importing the module that defines
# it (each command imports what it uses when it runs); the first class in
# the raised type's MRO that is listed decides.
_EXIT_CODES = {
    "ltlkit.planner.UnsatisfiableFormulaError": EXIT_NEGATIVE,
    "ltlkit.parsing.ParseError": EXIT_PARSE,
    "ltlkit.planner.WorldFormatError": EXIT_PARSE,
    "ltlkit.prompts.PromptValidationError": EXIT_PARSE,
    "ltlkit.srl.LexiconError": EXIT_PARSE,
    "ltlkit.automata.ResourceLimitError": EXIT_PARSE,
    "ltlkit.pipeline.AllRunsFailedError": EXIT_ALL_RUNS_FAILED,
    "ltlkit.pipeline.NoMajorityError": EXIT_NO_MAJORITY,
    "ltlkit.planner.NoPlanError": EXIT_NO_PLAN,
    "ltlkit.evaluation.DatasetSchemaError": EXIT_DATASET,
    "ltlkit.gateway.GatewayError": EXIT_GATEWAY,
    "builtins.OSError": EXIT_USAGE,
    "builtins.KeyError": EXIT_USAGE,
    "builtins.ValueError": EXIT_USAGE,
}


class _UsageError(Exception):
    pass


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "structured":
        document = {"schema_version": SCHEMA_VERSION, "command": args.command}
        document.update(payload)
        print(json.dumps(document, sort_keys=True))
    else:
        print(text)


def _letters(letters) -> str:
    shown = ["{" + ", ".join(sorted(l)) + "}" for l in letters]
    return " ".join(shown) if shown else "(empty)"


def _load_bundle(name_or_path: str):
    from .prompts import BUILTIN_PROMPT_SETS, builtin_prompt_set, load_prompt_set
    if name_or_path in BUILTIN_PROMPT_SETS:
        return builtin_prompt_set(name_or_path)
    return load_prompt_set(name_or_path)


def _load_world_arg(name_or_path: str):
    from .planner import BUILTIN_WORLDS, builtin_world, load_world
    if name_or_path in BUILTIN_WORLDS:
        return builtin_world(name_or_path)
    return load_world(name_or_path)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_run_index(key: str) -> bool:
    return key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")


def _load_mock_script(path: str, k: int):
    from .gateway import MockBackend, _unique_keys
    try:
        data = json.loads(
            Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys
        )
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read mock script {path}: {exc}") from exc
    if isinstance(data, list):
        scripts = dict(enumerate(data))
    elif isinstance(data, dict):
        for key in data:
            if not _is_run_index(key):
                raise _UsageError(
                    f"mock script {path}: keys must be run indices 0, 1, ... "
                    f"written without sign or leading zeros, got {key!r}"
                )
        scripts = {int(key): entry for key, entry in data.items()}
    else:
        raise _UsageError(f"mock script {path}: expected a JSON list or object")
    # A list whose first entry is a string is one queue of completions;
    # any other list or object holds one list of completions per run.
    queue = isinstance(data, list) and (not data or isinstance(data[0], str))
    for index, entry in scripts.items():
        if not (isinstance(entry, str) if queue else _is_strings(entry)):
            raise _UsageError(
                f"mock script {path}: entry {index} is {entry!r}; expected a "
                "list of strings, a list of lists of strings, or an object "
                "whose values are lists of strings"
            )
    if not queue and scripts and max(scripts) >= k:
        raise _UsageError(
            f"mock script {path}: run index {max(scripts)} is not below --k {k}"
        )
    return MockBackend(queue=data) if queue else MockBackend(scripts=scripts)


def _build_backend(args):
    """Construct the completion backend the flags describe."""
    from . import gateway
    if args.backend == "mock":
        if not args.mock_script:
            raise _UsageError("--backend mock requires --mock-script")
        return _load_mock_script(args.mock_script, args.k)
    if args.backend == "replay":
        if not args.replay_store:
            raise _UsageError("--backend replay requires --replay-store")
        return gateway.ReplayBackend(gateway.ReplayStore(args.replay_store))
    # live
    endpoint = args.endpoint or os.environ.get(gateway.ENDPOINT_ENV, "")
    if not endpoint:
        raise _UsageError(
            f"--backend live requires --endpoint or {gateway.ENDPOINT_ENV}"
        )
    if not os.environ.get(gateway.API_KEY_ENV, ""):
        raise _UsageError(
            f"--backend live requires {gateway.API_KEY_ENV} to be set"
        )
    backend = gateway.HttpBackend(endpoint=endpoint)
    if args.record:
        if not args.replay_store:
            raise _UsageError("--record requires --replay-store")
        store = gateway.ReplayStore(args.replay_store)
        backend = gateway.RecordingBackend(backend, store)
    return backend


def _pipeline_config(args):
    from .gateway import config_from_env
    from .pipeline import PipelineConfig
    generation_kwargs = {
        "temperature": args.temperature,
        "max_new_tokens": args.max_tokens,
    }
    if args.model:
        generation_kwargs["model_name"] = args.model
    return PipelineConfig(
        k=args.k,
        max_retries_per_run=args.max_retries,
        inject_test_srl=args.inject_srl,
        on_no_majority=args.on_no_majority,
        generation=config_from_env(**generation_kwargs),
    )


def _add_backend_flags(sub, include_live: bool = True) -> None:
    choices = ["mock", "replay"] + (["live"] if include_live else [])
    sub.add_argument("--backend", choices=choices, default="replay")
    sub.add_argument("--mock-script", metavar="PATH",
                     help="JSON completions for --backend mock")
    sub.add_argument("--replay-store", metavar="PATH",
                     help="JSONL store for --backend replay (or --record)")
    if include_live:
        sub.add_argument("--endpoint", metavar="URL",
                         help="chat-completions URL (default: $LTLKIT_ENDPOINT)")
        sub.add_argument("--record", action="store_true",
                         help="persist live completions into --replay-store")


def _add_pipeline_flags(sub) -> None:
    sub.add_argument("--k", type=int, default=3, help="independent runs (odd)")
    sub.add_argument("--max-retries", type=int, default=5,
                     help="completion attempts per run")
    sub.add_argument("--temperature", type=float, default=0.2)
    sub.add_argument("--max-tokens", type=int, default=400)
    sub.add_argument("--model", help="model name (default: $LTLKIT_MODEL)")
    sub.add_argument("--inject-srl", action="store_true",
                     help="annotate the test instruction with roles")
    sub.add_argument("--on-no-majority",
                     choices=["confidence_fallback", "error"],
                     default="confidence_fallback")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlkit",
        description="Natural language to temporal logic, with a checked pipeline.",
        epilog="Exit codes: 0 ok, 2 usage, 3 negative verdict, 4 parse error, "
               "5 all runs failed, 6 no majority, 7 no plan, 8 dataset error, "
               "9 backend error.",
    )
    parser.add_argument("--version", action="version", version=f"ltlkit {__version__}")
    parser.add_argument("--format", choices=["text", "structured"], default="text",
                        help="structured prints one JSON document")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("translate", help="instruction -> checked formula")
    p.add_argument("specification")
    p.add_argument("--prompt-set", default="drone",
                   help="builtin name ('drone', 'cleanup', 'pickplace') or a file path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-run reasoning chains")
    _add_pipeline_flags(p)
    _add_backend_flags(p)

    p = subs.add_parser("check", help="run the parse + satisfiability gate")
    p.add_argument("formula")
    p.add_argument("--syntax", choices=["auto", "infix", "prefix"], default="auto")
    p.add_argument("--strict-grammar", action="store_true",
                   help="also require dataset-grammar form (negation on atoms only)")

    p = subs.add_parser("equiv", help="semantic equivalence of two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--syntax", choices=["auto", "infix", "prefix"], default="auto")

    p = subs.add_parser("sat", help="satisfiability verdict with witness")
    p.add_argument("formula")
    p.add_argument("--syntax", choices=["auto", "infix", "prefix"], default="auto")

    p = subs.add_parser("srl", help="annotate a sentence with semantic roles")
    p.add_argument("sentence")
    p.add_argument("--lexicon", metavar="PATH", help="alternative role lexicon")

    p = subs.add_parser("prompt-render", help="print a few-shot prompt")
    p.add_argument("--prompt-set", default="drone",
                   help="builtin name ('drone', 'cleanup', 'pickplace') or a file path")
    p.add_argument("--test", metavar="SPEC", default="",
                   help="fill the test slot with this instruction")
    p.add_argument("--inject-srl", action="store_true",
                   help="annotate the test instruction with roles")

    p = subs.add_parser("eval", help="score the pipeline on a dataset")
    p.add_argument("--dataset", required=True, metavar="PATH")
    p.add_argument("--prompt-set", default="drone")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--stats-only", action="store_true",
                   help="print dataset statistics without running the pipeline")
    _add_pipeline_flags(p)
    _add_backend_flags(p, include_live=False)

    p = subs.add_parser("plan", help="plan a grid trajectory for a goal")
    p.add_argument("formula")
    p.add_argument("--syntax", choices=["auto", "infix", "prefix"], default="auto")
    p.add_argument("--world", default="demo",
                   help="builtin name ('demo',) or a file path")

    return parser


def _cmd_translate(args) -> int:
    from .parsing import print_formula
    from .pipeline import translate
    backend = _build_backend(args)
    config = _pipeline_config(args)
    bundle = _load_bundle(args.prompt_set)
    result = translate(args.specification, bundle, config, backend)

    infix = print_formula(result.final_formula, "infix")
    prefix = print_formula(result.final_formula, "prefix")
    lines = []
    if not args.quiet:
        for run in result.runs:
            status = "failed" if run.failed else "ok"
            lines.append(
                f"--- run {run.index} ({status}, retries {run.retries_used}) ---"
            )
            lines.append(run.reasoning if not run.failed else f"error: {run.error}")
    lines.append(f"formula (infix):  {infix}")
    lines.append(f"formula (prefix): {prefix}")
    lines.append(f"decision: {result.decision}")
    if result.confidence_scores:
        for text, score in sorted(result.confidence_scores.items()):
            lines.append(f"confidence {score:.4f}  {text}")

    payload = result.to_dict()
    payload["final_formula_prefix"] = prefix
    if not args.quiet:
        payload["reasoning_chains"] = list(result.reasoning_chains)
    _emit(args, {"result": payload}, "\n".join(lines))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .automata import is_satisfiable
    from .formulas import conforms_to_dataset_grammar
    from .parsing import parse
    formula = parse(args.formula, syntax=args.syntax)
    if args.strict_grammar and not conforms_to_dataset_grammar(formula):
        _emit(args,
              {"verdict": "REJECTED",
               "reason": "negation applies to a non-atomic subformula"},
              "REJECTED: negation applies to a non-atomic subformula")
        return EXIT_NEGATIVE
    result = is_satisfiable(formula)
    if not result.satisfiable:
        _emit(args,
              {"verdict": "REJECTED", "reason": "unsatisfiable"},
              "REJECTED: the formula is unsatisfiable")
        return EXIT_NEGATIVE
    _emit(args, {"verdict": "OK"}, "OK")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from .automata import equiv
    from .parsing import parse
    left = parse(args.left, syntax=args.syntax)
    right = parse(args.right, syntax=args.syntax)
    verdict = equiv(left, right)
    _emit(args,
          {"verdict": "EQUIVALENT" if verdict else "NOT EQUIVALENT"},
          "EQUIVALENT" if verdict else "NOT EQUIVALENT")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_sat(args) -> int:
    from .automata import is_satisfiable
    from .parsing import parse
    formula = parse(args.formula, syntax=args.syntax)
    result = is_satisfiable(formula)
    if not result.satisfiable:
        _emit(args, {"verdict": "UNSAT"}, "UNSAT")
        return EXIT_NEGATIVE
    witness = result.witness
    payload = {
        "verdict": "SAT",
        "witness": {
            "prefix": [sorted(l) for l in witness.prefix],
            "loop": [sorted(l) for l in witness.loop],
        },
    }
    text = (
        "SAT\n"
        f"witness prefix: {_letters(witness.prefix)}\n"
        f"witness loop:   {_letters(witness.loop)}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_srl(args) -> int:
    from .srl import default_lexicon, load_lexicon, render_annotation, tag
    lexicon = load_lexicon(args.lexicon) if args.lexicon else default_lexicon()
    spans = tag(args.sentence, lexicon)
    annotated = render_annotation(args.sentence, spans)
    payload = {
        "annotated": annotated,
        "spans": [
            {"text": s.text, "role": s.role.value, "start": s.start, "end": s.end}
            for s in spans
        ],
    }
    _emit(args, payload, annotated)
    return EXIT_OK


def _cmd_prompt_render(args) -> int:
    from .prompts import render
    from .srl import default_lexicon, render_annotation, tag
    bundle = _load_bundle(args.prompt_set)
    if args.test:
        srl = None
        if args.inject_srl:
            lexicon = default_lexicon()
            srl = render_annotation(args.test, tag(args.test, lexicon))
        bundle = bundle.with_test(args.test, srl)
    text = render(bundle)
    _emit(args, {"prompt": text}, text.rstrip("\n"))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .evaluation import dataset_stats, evaluate_dataset, load_dataset
    dataset = load_dataset(args.dataset)
    stats = dataset_stats(dataset)
    if args.stats_only:
        text = "\n".join(f"{key}: {value}" for key, value in sorted(stats.items()))
        _emit(args, {"stats": stats}, text)
        return EXIT_OK
    backend = _build_backend(args)
    config = _pipeline_config(args)
    bundle = _load_bundle(args.prompt_set)
    report = evaluate_dataset(
        dataset, bundle, config, backend, repetitions=args.repetitions,
    )
    _emit(args, {"stats": stats, "report": report.to_dict()}, report.format_text())
    return EXIT_OK


def _cmd_plan(args) -> int:
    from .parsing import parse
    from .planner import plan, render_path
    world = _load_world_arg(args.world)
    formula = parse(args.formula, syntax=args.syntax)
    trajectory = plan(world, formula)
    payload = {
        "prefix_cells": [list(c) for c in trajectory.prefix_cells],
        "loop_cells": [list(c) for c in trajectory.loop_cells],
        "map": render_path(world, trajectory),
    }
    text = (
        "prefix: " + " ".join(f"({x},{y})" for x, y in trajectory.prefix_cells)
        + "\nloop:   " + " ".join(f"({x},{y})" for x, y in trajectory.loop_cells)
        + "\n" + render_path(world, trajectory)
    )
    _emit(args, payload, text)
    return EXIT_OK


_HANDLERS = {
    "translate": _cmd_translate,
    "check": _cmd_check,
    "equiv": _cmd_equiv,
    "sat": _cmd_sat,
    "srl": _cmd_srl,
    "prompt-render": _cmd_prompt_render,
    "eval": _cmd_eval,
    "plan": _cmd_plan,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        for cls in type(exc).__mro__:
            code = _EXIT_CODES.get(f"{cls.__module__}.{cls.__qualname__}")
            if code is not None:
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
