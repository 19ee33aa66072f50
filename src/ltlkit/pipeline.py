"""Instruction-to-formula translation with voting over independent runs.

One translation spawns ``k`` independent completion runs against the same
few-shot prompt.  Each run extracts a formula from the completion, checks
it with the parser and the automaton satisfiability gate, and re-prompts
with the checker's error message when the output is rejected.  The
surviving candidates then vote: a strict semantic-equivalence majority
wins outright, otherwise a token-overlap confidence score picks the
winner (or the translation fails, if configured that way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .automata import ResourceLimitError, equiv, is_satisfiable
from .formulas import Formula, atoms, operator_tokens
from .gateway import GatewayError, GenerationConfig
from .parsing import ParseError, print_formula
from .prompts import (
    ExtractionError,
    PromptBundle,
    extract_formula,
    render,
    render_reprompt,
)
from .srl import render_annotation, tag

DECISION_MAJORITY = "majority"
DECISION_CONFIDENCE = "confidence_fallback"

ON_NO_MAJORITY_MODES = ("confidence_fallback", "error")

# Threads one translation runs its k runs on; larger k queues the rest.
MAX_RUN_WORKERS = 8


class TranslationError(RuntimeError):
    """Base class for whole-translation failures."""


class AllRunsFailedError(TranslationError):
    """Every run exhausted its attempt budget without a valid formula."""

    def __init__(self, runs: tuple["TranslationRun", ...]):
        details = "; ".join(f"run {r.index}: {r.error}" for r in runs)
        super().__init__(f"all {len(runs)} runs failed ({details})")
        self.runs = runs


class NoMajorityError(TranslationError):
    """No equivalence class held a strict majority and fallback is disabled."""

    def __init__(self, confidence_scores: Mapping[str, float]):
        ranked = sorted(confidence_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        listing = ", ".join(f"{text} ({score:.3f})" for text, score in ranked)
        super().__init__(f"no majority among candidates: {listing}")
        self.confidence_scores = dict(confidence_scores)
        self.runs: tuple[TranslationRun, ...] = ()


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one translation."""

    k: int = 3
    max_retries_per_run: int = 5
    inject_test_srl: bool = False
    on_no_majority: str = "confidence_fallback"
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"k must be a positive odd number, got {self.k}")
        if self.max_retries_per_run < 1:
            raise ValueError("max_retries_per_run must be >= 1")
        if self.on_no_majority not in ON_NO_MAJORITY_MODES:
            raise ValueError(
                f"on_no_majority must be one of {ON_NO_MAJORITY_MODES}, "
                f"got {self.on_no_majority!r}"
            )


@dataclass(frozen=True)
class TranslationRun:
    """Outcome of a single completion run.

    ``transcripts`` holds every (prompt, completion text) exchange in
    order; a gateway error pairs the failing prompt with an empty string.
    ``retries_used`` counts re-prompts, ``len(transcripts) - 1``.
    ``failed`` (no formula) and ``reasoning`` are derived, not stored;
    ``error`` says why a failed run failed.
    """

    index: int
    formula: Formula | None
    retries_used: int
    error: str | None
    transcripts: tuple[tuple[str, str], ...]

    @property
    def failed(self) -> bool:
        return self.formula is None

    @property
    def reasoning(self) -> str:
        """The completion that produced the accepted formula, if any."""
        return "" if self.failed else self.transcripts[-1][1]


@dataclass(frozen=True)
class TranslationResult:
    """The voted formula and its runs; ``reasoning_chains`` is derived from the runs."""

    final_formula: Formula
    decision: str
    confidence_scores: Mapping[str, float]
    runs: tuple[TranslationRun, ...]

    @property
    def reasoning_chains(self) -> tuple[str, ...]:
        """Each successful run's accepted completion, in run order."""
        return tuple(r.reasoning for r in self.runs if not r.failed)

    def to_dict(self) -> dict:
        return {
            "final_formula": print_formula(self.final_formula, "infix"),
            "decision": self.decision,
            "confidence_scores": dict(self.confidence_scores),
            "runs": [
                {
                    "index": r.index,
                    "formula": (
                        None if r.formula is None
                        else print_formula(r.formula, "infix")
                    ),
                    "retries_used": r.retries_used,
                    "failed": r.failed,
                    "error": r.error,
                }
                for r in self.runs
            ],
        }


@dataclass(frozen=True)
class VoteOutcome:
    formula: Formula
    decision: str
    confidence_scores: Mapping[str, float]


def confidence_scores(formulas: Sequence[Formula]) -> dict[str, float]:
    """Token-overlap score per distinct candidate rendering.

    A candidate's tokens are its atom names plus its operator symbols,
    deduplicated.  Each token earns the fraction of candidates (with
    multiplicity) that contain it, and the score is the mean over the
    candidate's tokens.  Shared vocabulary therefore pulls a candidate
    up, idiosyncratic vocabulary pulls it down.
    """
    n = len(formulas)
    token_sets = [atoms(f) | operator_tokens(f) for f in formulas]
    counts: dict[str, int] = {}
    for tokens in token_sets:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    scores: dict[str, float] = {}
    for f, tokens in zip(formulas, token_sets):
        text = print_formula(f, "infix")
        if text in scores:
            continue
        scores[text] = sum(counts[t] for t in tokens) / (len(tokens) * n)
    return scores


def vote(formulas: Sequence[Formula], config: PipelineConfig) -> VoteOutcome:
    """Pick a winner among candidate formulas.

    Candidates are grouped into semantic-equivalence classes; a check
    that exceeds the automaton state cap counts as not equivalent, so an
    undecidable candidate forms a class of its own.  A class holding a
    strict majority of ``config.k`` wins and its first-collected member
    is returned verbatim.  Otherwise the
    confidence fallback scores every candidate and the best one wins,
    with ties broken toward the smallest rendering; in ``"error"`` mode
    the fallback raises NoMajorityError instead.
    """
    if not formulas:
        raise ValueError("vote() needs at least one candidate")

    classes: list[list[Formula]] = []
    for f in formulas:
        for cls in classes:
            try:
                same = equiv(f, cls[0])
            except ResourceLimitError:
                same = False  # undecided within the state cap: not merged
            if same:
                cls.append(f)
                break
        else:
            classes.append([f])

    for cls in classes:
        if len(cls) * 2 > config.k:
            return VoteOutcome(
                formula=cls[0],
                decision=DECISION_MAJORITY,
                confidence_scores={},
            )

    scores = confidence_scores(formulas)
    if config.on_no_majority == "error":
        raise NoMajorityError(scores)
    winner_text = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return VoteOutcome(
        formula=next(f for f in formulas if print_formula(f, "infix") == winner_text),
        decision=DECISION_CONFIDENCE,
        confidence_scores=scores,
    )


def _check_candidate(formula: Formula) -> None:
    """Raise ValueError if the formula fails the satisfiability gate."""
    try:
        result = is_satisfiable(formula)
    except ResourceLimitError as exc:
        raise ValueError(f"satisfiability check gave up: {exc}") from exc
    if not result.satisfiable:
        raise ValueError(
            "the formula is unsatisfiable: its automaton accepts no run"
        )


def _execute_run(
    run_index: int,
    backend,
    bundle: PromptBundle,
    base_prompt: str,
    config: PipelineConfig,
) -> TranslationRun:
    syntax = bundle.header.output_syntax
    transcripts: list[tuple[str, str]] = []
    prompt = base_prompt
    formula = error = None
    for _ in range(config.max_retries_per_run):
        try:
            completion = backend.complete(prompt, config.generation)
        except GatewayError as exc:
            transcripts.append((prompt, ""))
            error = f"gateway: {exc}"
            break
        transcripts.append((prompt, completion.text))
        try:
            candidate = extract_formula(completion.text, syntax)
            _check_candidate(candidate)
        except (ExtractionError, ParseError, ValueError) as exc:
            error = str(exc)
            prompt = render_reprompt(bundle, completion.text, error)
        else:
            formula, error = candidate, None
            break
    return TranslationRun(
        index=run_index,
        formula=formula,
        retries_used=len(transcripts) - 1,
        error=error,
        transcripts=tuple(transcripts),
    )


def _map_in_order(fn, items, workers: int, backend) -> tuple:
    """``fn`` over items, results in item order.

    Threads only overlap waiting, and a backend whose class sets
    ``in_memory = True`` (the mock and replay backends) never waits, so
    with it, or with at most one worker, every call runs on the calling
    thread, one after another.  Otherwise the calls go to a pool of
    ``workers`` threads.
    """
    if workers <= 1 or getattr(backend, "in_memory", False):
        return tuple(map(fn, items))
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return tuple(f.result() for f in futures)


def translate(
    specification: str,
    bundle_template: PromptBundle,
    config: PipelineConfig,
    backend,
) -> TranslationResult:
    """Translate one instruction into a checked formula.

    ``bundle_template`` must have an empty test slot; the specification
    (and, when ``config.inject_test_srl`` is set, its role annotation)
    is injected here.  ``backend`` is any object with
    ``complete(prompt, generation_config)``; backends may additionally
    offer ``for_run(index)`` to hand each run its own deterministic
    script.  The total completion calls are bounded by
    ``k * max_retries_per_run``.  With an in-memory backend the runs go
    one after another on the calling thread, in run order; any other
    backend's runs go to at most ``MAX_RUN_WORKERS`` threads (see
    ``_map_in_order``).  With ``config.inject_test_srl`` the
    specification is tagged with the packaged role lexicon.
    """
    if not specification.strip():
        raise ValueError("specification is empty")
    if bundle_template.test_specification:
        raise ValueError(
            "bundle_template already has a test specification; "
            "pass the bare few-shot bundle"
        )

    test_srl = None
    if config.inject_test_srl:
        test_srl = render_annotation(specification, tag(specification))
    bundle = bundle_template.with_test(specification, test_srl)
    base_prompt = render(bundle)

    def run_one(i: int) -> TranslationRun:
        run_backend = backend.for_run(i) if hasattr(backend, "for_run") else backend
        return _execute_run(i, run_backend, bundle, base_prompt, config)

    runs = _map_in_order(run_one, range(config.k), min(config.k, MAX_RUN_WORKERS), backend)

    candidates = [r.formula for r in runs if r.formula is not None]
    if not candidates:
        raise AllRunsFailedError(runs)

    try:
        outcome = vote(candidates, config)
    except NoMajorityError as exc:
        exc.runs = runs
        raise

    return TranslationResult(
        final_formula=outcome.formula,
        decision=outcome.decision,
        confidence_scores=outcome.confidence_scores,
        runs=runs,
    )
