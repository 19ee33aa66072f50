"""Few-shot prompt assembly with chain-of-thought worked examples.

A prompt is a header (task instruction, allowed atoms, allowed operators),
a fixed number of worked examples, and the test specification appended
last.  Each worked example walks through numbered subgoal
question/answer pairs and ends with an ``LTL:`` line and a ``FINISH``
line; completions are expected to follow the same shape, and
``extract_formula`` recovers the formula from them.

Rendering is deterministic down to the byte (LF newlines), so rendered
prompts can be frozen as golden files and reused as replay-store keys.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .formulas import OPERATOR_TOKENS, Formula, atoms, is_valid_atom_name, operator_tokens
from .parsing import ParseError, parse, print_formula

BUILTIN_PROMPT_SETS = ("drone", "cleanup", "pickplace")

FINISH = "FINISH"


class PromptValidationError(ValueError):
    """A bundle violates its own header constraints."""


class ExtractionError(ValueError):
    """No usable ``LTL:`` line in a completion."""


@dataclass(frozen=True)
class PromptHeader:
    instruction_text: str
    allowed_aps: tuple[str, ...]
    allowed_operators: tuple[str, ...]
    output_syntax: str  # "infix" or "prefix"


@dataclass(frozen=True)
class CoTExample:
    specification: str
    srl_annotation: str
    subgoals: tuple[tuple[str, str], ...]  # (question, answer) pairs
    final_ltl: Formula


@dataclass(frozen=True)
class PromptBundle:
    header: PromptHeader
    examples: tuple[CoTExample, ...]
    test_specification: str = ""
    test_srl: str | None = None
    shots: int = 6

    def with_test(self, specification: str, srl: str | None = None) -> "PromptBundle":
        return replace(self, test_specification=specification, test_srl=srl)


def validate_bundle(bundle: PromptBundle) -> None:
    header = bundle.header
    if header.output_syntax not in ("infix", "prefix"):
        raise PromptValidationError(
            f"output syntax must be infix or prefix, not {header.output_syntax!r}"
        )
    for ap in header.allowed_aps:
        if not is_valid_atom_name(ap):
            raise PromptValidationError(f"invalid atomic proposition name {ap!r}")
    bad_ops = set(header.allowed_operators) - OPERATOR_TOKENS
    if bad_ops:
        raise PromptValidationError(f"unknown operators in header: {sorted(bad_ops)}")
    if len(bundle.examples) != bundle.shots:
        raise PromptValidationError(
            f"bundle declares {bundle.shots} shots but has {len(bundle.examples)} examples"
        )
    for idx, ex in enumerate(bundle.examples, start=1):
        if not ex.subgoals:
            raise PromptValidationError(f"example {idx} has no subgoal steps")
        if any("\n" in part for qa in ex.subgoals for part in qa):
            raise PromptValidationError(f"example {idx} has a multi-line subgoal")
        try:
            ops = operator_tokens(ex.final_ltl)
        except ValueError as err:
            raise PromptValidationError(f"example {idx}: {err}") from err
        stray_ops = ops - set(header.allowed_operators)
        if stray_ops:
            raise PromptValidationError(
                f"example {idx} uses operators outside the header: {sorted(stray_ops)}"
            )
        stray_aps = atoms(ex.final_ltl) - set(header.allowed_aps)
        if stray_aps:
            raise PromptValidationError(
                f"example {idx} uses atoms outside the header: {sorted(stray_aps)}"
            )


def _example_block(ex: CoTExample, syntax: str) -> list[str]:
    lines = [f"Specification: {ex.specification}", f"SRL: {ex.srl_annotation}"]
    for n, (question, answer) in enumerate(ex.subgoals, start=1):
        lines.append(f"Subgoal {n}: {question}")
        lines.append(f"Answer {n}: {answer}")
    lines.append(f"LTL: {print_formula(ex.final_ltl, syntax)}")
    lines.append(FINISH)
    return lines


def render(bundle: PromptBundle) -> str:
    """Deterministic prompt text; the golden-file surface.

    With an empty test specification only the header and the worked
    examples are rendered, which is the form frozen as goldens; the
    pipeline fills the test slot before calling the model.
    """
    text = _render_body(bundle.header, bundle.examples, bundle.shots)
    if bundle.test_specification:
        test_lines = [f"Specification: {bundle.test_specification}"]
        if bundle.test_srl is not None:
            test_lines.append(f"SRL: {bundle.test_srl}")
        text += "\n\n" + "\n".join(test_lines)
    return text + "\n"


@functools.lru_cache(maxsize=32)
def _render_body(
    header: PromptHeader, examples: tuple[CoTExample, ...], shots: int
) -> str:
    """The validated header and worked examples, without the test slot.

    Every translation renders the same few bodies again with only the
    test slot changed, so each body is validated and rendered once.  An
    invalid bundle raises on every call: ``lru_cache`` stores no
    exceptions.
    """
    validate_bundle(PromptBundle(header=header, examples=examples, shots=shots))
    blocks = [
        "\n".join(
            [
                header.instruction_text,
                "Allowed atomic propositions: " + ", ".join(header.allowed_aps),
                "Allowed operators: " + ", ".join(header.allowed_operators),
            ]
        )
    ]
    for ex in examples:
        blocks.append("\n".join(_example_block(ex, header.output_syntax)))
    return "\n\n".join(blocks)


def render_reprompt(bundle: PromptBundle, failed_output: str, error_message: str) -> str:
    """The retry prompt: the original prompt plus a correction block.

    The original render is kept as an exact prefix so recorded completions
    for the base prompt stay valid.
    """
    correction = [
        "The previous attempt was rejected.",
        "Failed output:",
        failed_output.rstrip("\n"),
        f"Checker error: {error_message}",
        "Provide a corrected LTL formula for the specification above, "
        f"on a line starting with 'LTL:', then write {FINISH}.",
    ]
    return render(bundle) + "\n" + "\n".join(correction) + "\n"


_LTL_LINE = re.compile(r"^\s*ltl\s*:\s*(?P<formula>.*)$", re.IGNORECASE)


def extract_formula(completion: str, syntax: str) -> Formula:
    """Pull the final formula out of a model completion.

    Only text before the first ``FINISH`` line counts; within it, the last
    ``LTL:`` line wins.  Parse failures propagate with the offending line
    attached to the message.
    """
    candidate = None
    for line in completion.splitlines():
        if line.strip() == FINISH:
            break
        m = _LTL_LINE.match(line)
        if m:
            candidate = m.group("formula").strip()
    if not candidate:
        raise ExtractionError("completion contains no 'LTL:' line with a formula")
    try:
        return parse(candidate, syntax)
    except ParseError as err:
        err.args = (f"{err.args[0]} (in extracted line {candidate!r})",)
        raise


_KEYED = re.compile(r"^(?P<key>[a-z]+)\s*:\s*(?P<value>.*)$")


def load_prompt_set(path: str | Path) -> PromptBundle:
    """Load a prompt set from its sectioned text format.

    The format has one ``[header]`` section first, with ``instruction``,
    ``aps``, ``operators``, ``syntax`` and ``shots`` keys, then one
    ``[example]`` section per worked example with ``spec``, ``srl``,
    alternating ``q``/``a`` lines, and a final ``ltl`` line.  ``#`` at the
    start of a line comments it out.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PromptValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    return _parse_prompt_set(text, str(path))


def builtin_prompt_set(name: str) -> PromptBundle:
    """One of the prompt sets shipped with the package."""
    if name not in BUILTIN_PROMPT_SETS:
        raise ValueError(f"unknown prompt set {name!r}, have {BUILTIN_PROMPT_SETS}")
    data = resources.files("ltlkit").joinpath(f"data/prompts/{name}.prompts")
    return _parse_prompt_set(data.read_text("utf-8"), f"ltlkit/data/prompts/{name}.prompts")


def _parse_prompt_set(text: str, origin: str) -> PromptBundle:
    """Split the text into sections of ``(line, key, value)`` entries,
    then build the header from the first section and an example from each
    later one.  Errors are looked for in that order (an unrecognised line,
    a misplaced section, the header, then each example), so a file with
    several errors may name one that is not the first by line."""
    sections: list[tuple[int, str, list[tuple[int, str, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line[0] == "#":
            continue
        if line == "[header]" or line == "[example]":
            sections.append((lineno, line, []))
        elif (m := _KEYED.match(line)) and sections:
            sections[-1][2].append((lineno, m["key"], m["value"]))
        else:
            raise PromptValidationError(f"{origin}:{lineno}: unrecognised line {line!r}")
    for n, (lineno, name, _) in enumerate(sections):
        if (name == "[header]") != (n == 0):
            raise PromptValidationError(
                f"{origin}:{lineno}: misplaced {name}; the [header] comes first and once"
            )

    fields, lines, _ = _fields(
        sections[0][2] if sections else [], origin,
        ("instruction", "aps", "operators", "syntax", "shots"), "unknown header key",
    )
    for required in ("instruction", "aps", "operators", "syntax"):
        if required not in fields:
            raise PromptValidationError(f"{origin}: header is missing {required!r}")
    syntax = fields["syntax"]
    # The examples' formulas are read in it; with no example, validate_bundle
    # reports a bad one.
    if len(sections) > 1 and syntax not in ("infix", "prefix"):
        raise PromptValidationError(
            f"{origin}:{lines['syntax']}: header syntax must be infix or prefix, not {syntax!r}"
        )
    try:
        shots = int(fields.get("shots", "6"))
    except ValueError:
        raise PromptValidationError(
            f"{origin}:{lines['shots']}: shots must be an integer"
        ) from None
    aps, operators = (
        tuple(x.strip() for x in fields[key].split(",") if x.strip())
        for key in ("aps", "operators")
    )
    header = PromptHeader(fields["instruction"], aps, operators, syntax)
    examples = tuple(_example(origin, n, entries, syntax) for n, _, entries in sections[1:])
    bundle = PromptBundle(header=header, examples=examples, shots=shots)
    validate_bundle(bundle)
    return bundle


def _fields(entries: list, origin: str, keys: tuple, unknown: str) -> tuple[dict, dict, list]:
    """One section's keyed lines as a dict, the line of each, and its q/a values in order."""
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    steps: list[str] = []
    for lineno, key, value in entries:
        if key not in keys:
            raise PromptValidationError(f"{origin}:{lineno}: {unknown} {key!r}")
        if key == "q" or key == "a":
            if key == "q" and len(steps) % 2:
                raise PromptValidationError(f"{origin}:{lineno}: two questions without an answer")
            if key == "a" and not len(steps) % 2:
                raise PromptValidationError(f"{origin}:{lineno}: answer without a question")
            steps.append(value)
        elif key in fields:
            raise PromptValidationError(f"{origin}:{lineno}: duplicate {key!r} line")
        else:
            fields[key], lines[key] = value, lineno
    return fields, lines, steps


def _example(origin: str, start: int, entries: list, syntax: str) -> CoTExample:
    fields, _, steps = _fields(entries, origin, ("spec", "srl", "ltl", "q", "a"), "unknown key")
    if len(steps) % 2:
        raise PromptValidationError(f"{origin}:{start}: subgoal question without an answer")
    missing = [k for k in ("spec", "srl", "ltl") if k not in fields]
    if missing:
        raise PromptValidationError(f"{origin}:{start}: example is missing {', '.join(missing)}")
    try:
        final = parse(fields["ltl"], syntax)
    except ParseError as err:
        raise PromptValidationError(f"{origin}:{start}: bad ltl line: {err}") from err
    subgoals = tuple(zip(steps[::2], steps[1::2]))
    return CoTExample(fields["spec"], fields["srl"], subgoals, final)
