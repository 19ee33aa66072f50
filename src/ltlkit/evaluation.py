"""Dataset loading and accuracy measurement for the translation pipeline.

Datasets are JSONL files, one record per line, optionally preceded by a
header object ``{"aps": [...]}`` naming the atomic propositions the
records may use.  A record looks like::

    {"instruction": "Go to the yellow room.",
     "gold": "F(yellow_room)",
     "syntax": "infix",
     "grounding": {"yellow room": "yellow_room"},
     "structure": "F(p)"}

``syntax`` (default ``"auto"``), ``grounding`` (default empty), and
``structure`` (default: the gold formula with atoms collapsed to ``p``)
are optional.  The headline metric is semantic accuracy: a prediction
counts as correct when its grounded formula is language-equivalent to
the gold formula, which exact string accuracy is reported alongside.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .automata import ResourceLimitError, equiv
from .formulas import Formula, atoms, is_valid_atom_name, map_atoms, structure
from .gateway import GatewayError, _unique_keys
from .parsing import SYNTAXES, ParseError, parse, print_formula
from .pipeline import PipelineConfig, TranslationError, _map_in_order, translate
from .prompts import PromptBundle

# Threads scoring records at once, whatever ``max_workers`` asks for.  Each
# record's translation has its own pool of at most
# ``pipeline.MAX_RUN_WORKERS``, so run threads never number more than the
# product of the two caps.  An in-memory backend starts neither pool.
MAX_RECORD_WORKERS = 8


class DatasetSchemaError(ValueError):
    """A dataset line is malformed; the message carries file and line."""

    def __init__(self, origin: str, lineno: int, message: str):
        super().__init__(f"{origin}:{lineno}: {message}")
        self.origin = origin
        self.lineno = lineno


@dataclass(frozen=True)
class DatasetRecord:
    instruction: str
    gold: Formula
    grounding: Mapping[str, str]
    structure_id: str

    @functools.cached_property
    def grounding_table(self) -> Mapping[str, str]:
        """The normalised lookup table of ``grounding``, built on first use
        and kept with the record, so every repetition of an evaluation
        reuses it.  A failed build is not kept and raises again."""
        return _grounding_table(self.grounding)


@dataclass(frozen=True)
class Dataset:
    records: tuple[DatasetRecord, ...]
    aps: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.records)


def _normalize_atom_text(text: str) -> str:
    return re.sub(r"\s+", "_", text.strip().lower())


class _GroundingTable(dict):
    """Normalised phrase and target text to target, ready for lookup.

    ``grounded`` holds each prediction grounded through the table so far,
    so a record's repetitions ground a recurring prediction once.
    """

    def __init__(self):
        super().__init__()
        self.grounded: dict[Formula, Formula] = {}


def _grounding_table(grounding: Mapping[str, str]) -> _GroundingTable:
    table = _GroundingTable()
    for phrase, ap in grounding.items():
        if not is_valid_atom_name(ap):
            raise ValueError(f"grounding target {ap!r} is not a valid atom name")
        table[_normalize_atom_text(phrase)] = ap
    for ap in grounding.values():
        table.setdefault(_normalize_atom_text(ap), ap)
    return table


def ground_formula(formula: Formula, grounding: Mapping[str, str]) -> Formula:
    """Rewrite atom names through a phrase-to-proposition table.

    Lookup is case-insensitive and treats spaces and underscores alike,
    so a model that answers with ``Yellow_Room`` still lands on the
    dataset's ``yellow_room``.  Atoms with no table entry pass through
    unchanged.  A record's ``grounding_table`` may stand in for its
    ``grounding``; it is used as it is, without being built again, and
    keeps each grounded formula, so a prediction that recurs for the
    record is returned as the same node without walking it again.  A
    plain mapping keeps nothing.
    """
    if not isinstance(grounding, _GroundingTable):
        return _ground(formula, _grounding_table(grounding))
    grounded = grounding.grounded.get(formula)
    if grounded is None:
        grounded = grounding.grounded[formula] = _ground(formula, grounding)
    return grounded


def _ground(formula: Formula, table: _GroundingTable) -> Formula:
    return map_atoms(formula, lambda name: table.get(_normalize_atom_text(name), name))


def _require(condition: bool, origin: str, lineno: int, message: str) -> None:
    if not condition:
        raise DatasetSchemaError(origin, lineno, message)


def _parse_record(obj: dict, origin: str, lineno: int) -> DatasetRecord:
    _require("instruction" in obj, origin, lineno, "missing key 'instruction'")
    _require("gold" in obj, origin, lineno, "missing key 'gold'")
    instruction = obj["instruction"]
    gold_source = obj["gold"]
    _require(
        isinstance(instruction, str) and bool(instruction.strip()),
        origin, lineno, "'instruction' must be a non-empty string",
    )
    _require(isinstance(gold_source, str), origin, lineno, "'gold' must be a string")

    syntax = obj.get("syntax", "auto")
    _require(
        syntax in SYNTAXES,
        origin, lineno, f"'syntax' must be one of {SYNTAXES}, got {syntax!r}",
    )

    grounding = obj.get("grounding", {})
    _require(
        isinstance(grounding, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in grounding.items()),
        origin, lineno, "'grounding' must map strings to strings",
    )
    for ap in grounding.values():
        _require(
            is_valid_atom_name(ap),
            origin, lineno, f"grounding target {ap!r} is not a valid atom name",
        )

    try:
        gold = parse(gold_source, syntax=syntax)
    except ParseError as exc:
        raise DatasetSchemaError(
            origin, lineno, f"gold formula does not parse: {exc}"
        ) from exc

    structure_id = obj.get("structure")
    if structure_id is None:
        structure_id = print_formula(structure(gold), "infix")
    _require(
        isinstance(structure_id, str) and bool(structure_id),
        origin, lineno, "'structure' must be a non-empty string",
    )

    unknown = set(obj) - {"instruction", "gold", "syntax", "grounding", "structure"}
    _require(not unknown, origin, lineno, f"unknown keys: {sorted(unknown)}")

    return DatasetRecord(
        instruction=instruction,
        gold=gold,
        grounding=dict(grounding),
        structure_id=structure_id,
    )


def load_dataset(path: str | Path) -> Dataset:
    """Read a JSONL dataset, validating every line.

    The first line may be a header object with an ``aps`` list; when it
    is present, every gold formula is checked to use only propositions
    from the header or from its own grounding targets.
    """
    path = Path(path)
    origin = str(path)
    records: list[DatasetRecord] = []
    aps: tuple[str, ...] | None = None

    # A byte that is not UTF-8 is read as a lone surrogate, which encode
    # rejects, so the error can name its line.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DatasetSchemaError(origin, lineno, "not UTF-8 text") from None
            try:
                obj = json.loads(line, object_pairs_hook=_unique_keys)
            except (ValueError, RecursionError) as exc:
                raise DatasetSchemaError(origin, lineno, f"not valid JSON: {exc}") from exc
            _require(isinstance(obj, dict), origin, lineno, "line is not a JSON object")

            if not records and aps is None and "aps" in obj and "instruction" not in obj:
                header_aps = obj["aps"]
                _require(
                    isinstance(header_aps, list)
                    and all(isinstance(a, str) for a in header_aps),
                    origin, lineno, "'aps' must be a list of strings",
                )
                for a in header_aps:
                    _require(
                        is_valid_atom_name(a),
                        origin, lineno, f"header proposition {a!r} is not a valid atom name",
                    )
                unknown = set(obj) - {"aps"}
                _require(not unknown, origin, lineno, f"unknown header keys: {sorted(unknown)}")
                aps = tuple(header_aps)
                continue

            record = _parse_record(obj, origin, lineno)
            if aps is not None:
                allowed = set(aps) | set(record.grounding.values())
                stray = atoms(record.gold) - allowed
                _require(
                    not stray,
                    origin, lineno,
                    f"gold formula uses propositions outside the header: {sorted(stray)}",
                )
            records.append(record)

    if not records:
        raise DatasetSchemaError(origin, 0, "dataset has no records")
    return Dataset(records=tuple(records), aps=aps)


def dataset_stats(dataset: Dataset) -> dict:
    """Summary counts for a loaded dataset."""
    structures = {r.structure_id for r in dataset.records}
    formulas = {r.gold for r in dataset.records}
    props: set[str] = set(dataset.aps or ())
    for r in dataset.records:
        props |= atoms(r.gold)
        props |= set(r.grounding.values())
    return {
        "records": len(dataset.records),
        "distinct_structures": len(structures),
        "distinct_formulas": len(formulas),
        "propositions": len(props),
    }


@dataclass(frozen=True)
class EvalFailure:
    record_index: int
    repetition: int
    instruction: str
    kind: str  # "wrong" or "error"
    detail: str


@dataclass(frozen=True)
class EvalReport:
    n_records: int
    repetitions: int
    accuracy_semantic: float
    accuracy_exact: float
    stddev_semantic: float
    per_repetition_semantic: tuple[float, ...]
    per_structure: Mapping[str, float]
    structure_counts: Mapping[str, int]
    failures: tuple[EvalFailure, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def format_text(self) -> str:
        lines = [
            f"records: {self.n_records}   repetitions: {self.repetitions}",
            f"semantic accuracy: {self.accuracy_semantic:.4f}"
            f" (stddev {self.stddev_semantic:.4f})",
            f"exact accuracy:    {self.accuracy_exact:.4f}",
            "per-structure semantic accuracy:",
        ]
        for sid in sorted(self.per_structure):
            lines.append(
                f"  {sid}: {self.per_structure[sid]:.4f}"
                f" ({self.structure_counts[sid]} records)"
            )
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            for f in self.failures:
                lines.append(
                    f"  record {f.record_index} rep {f.repetition}"
                    f" [{f.kind}] {f.instruction!r}: {f.detail}"
                )
        else:
            lines.append("failures: none")
        return "\n".join(lines)


def _score_one(
    record: DatasetRecord,
    bundle: PromptBundle,
    config: PipelineConfig,
    backend,
) -> tuple[bool, bool, str | None, Formula | None]:
    """Returns (semantic_ok, exact_ok, error_detail, grounded prediction).

    A prediction matches exactly when its tree is the gold's: nodes are
    interned, so equal trees are one object, and two trees are equal when
    they print alike, since printing is injective on surface formulas.
    """
    try:
        result = translate(record.instruction, bundle, config, backend)
    except (TranslationError, GatewayError) as exc:
        return False, False, f"{type(exc).__name__}: {exc}", None
    predicted = ground_formula(result.final_formula, record.grounding_table)
    exact_ok = predicted == record.gold
    try:
        return equiv(predicted, record.gold), exact_ok, None, predicted
    except ResourceLimitError as exc:
        return False, exact_ok, f"{type(exc).__name__}: {exc}", predicted


def evaluate_dataset(
    dataset: Dataset,
    bundle: PromptBundle,
    config: PipelineConfig,
    backend,
    repetitions: int = 3,
    max_workers: int = 1,
) -> EvalReport:
    """Run the translation pipeline over a dataset and score it.

    Every record is translated ``repetitions`` times; the headline
    accuracy is the mean over repetitions and the spread is the
    population standard deviation of the per-repetition accuracies.
    Pipeline failures (all runs failed, no majority, gateway errors) and
    grading checks that exceed the automaton state cap count as incorrect
    and are listed in the report as errors.  ``max_workers``
    parallelizes over records within a repetition, on at most
    ``MAX_RECORD_WORKERS`` threads; leave it at 1 for backends whose
    responses depend on call order.  With an in-memory backend (the mock
    and replay backends) records are scored one after another on the
    calling thread, in record order, whatever ``max_workers`` asks for.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    records = dataset.records

    sem_by_rep: list[float] = []
    exact_by_rep: list[float] = []
    per_structure_hits: dict[str, int] = {}
    failures: list[EvalFailure] = []

    for rep in range(repetitions):
        outcomes = _map_in_order(
            lambda r: _score_one(r, bundle, config, backend),
            records, min(max_workers, MAX_RECORD_WORKERS), backend,
        )

        sem_hits = 0
        exact_hits = 0
        for idx, (record, (sem, exact, error, predicted)) in enumerate(
            zip(records, outcomes)
        ):
            sem_hits += sem
            exact_hits += exact
            if sem:
                per_structure_hits[record.structure_id] = (
                    per_structure_hits.get(record.structure_id, 0) + 1
                )
            elif error is not None:
                failures.append(
                    EvalFailure(idx, rep, record.instruction, "error", error)
                )
            else:
                failures.append(
                    EvalFailure(
                        idx, rep, record.instruction, "wrong",
                        f"predicted {print_formula(predicted, 'infix')}, gold "
                        f"{print_formula(record.gold, 'infix')}",
                    )
                )
        sem_by_rep.append(sem_hits / len(records))
        exact_by_rep.append(exact_hits / len(records))

    structure_counts: dict[str, int] = {}
    for r in records:
        structure_counts[r.structure_id] = structure_counts.get(r.structure_id, 0) + 1
    per_structure = {
        sid: per_structure_hits.get(sid, 0) / (count * repetitions)
        for sid, count in structure_counts.items()
    }

    return EvalReport(
        n_records=len(records),
        repetitions=repetitions,
        accuracy_semantic=statistics.fmean(sem_by_rep),
        accuracy_exact=statistics.fmean(exact_by_rep),
        stddev_semantic=statistics.pstdev(sem_by_rep) if repetitions > 1 else 0.0,
        per_repetition_semantic=tuple(sem_by_rep),
        per_structure=per_structure,
        structure_counts=structure_counts,
        failures=tuple(failures),
    )
