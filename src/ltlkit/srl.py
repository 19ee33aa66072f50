"""Lexicon-driven semantic role tagging for planning instructions.

This is a deliberately small, deterministic tagger: a lexicon of verbs
(each with the role its direct object receives), prepositions mapped to
roles, and temporal/negation marker phrases.  It exists to annotate
instructions for prompt construction, not to compete with a trained
labeller.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping


class Role(enum.Enum):
    """Thematic roles; the value is the lowercase bracket label."""

    AGENT = "agent"
    THEME = "theme"
    DESTINATION = "destination"
    SOURCE = "source"
    PATH = "path"
    LOCATION = "location"
    VERB = "verb"
    TEMPORAL_MARKER = "temporal"
    NEGATION_MARKER = "negation"


_ROLE_BY_NAME = {r.value: r for r in Role}


class LexiconError(ValueError):
    """Malformed lexicon file."""


class SpanOverlapError(ValueError):
    """Two role spans cover overlapping stretches of the instruction."""


@dataclass(frozen=True)
class RoleSpan:
    """A labelled stretch of the instruction; offsets are character based.

    ``entry`` names the lexicon entry that triggered the span, for verb
    and verb-like marker spans.
    """

    text: str
    role: Role
    start: int
    end: int
    entry: str | None = None


@dataclass(frozen=True)
class RoleLexicon:
    """A loaded lexicon; its mappings are read-only views."""

    verbs: Mapping[str, Role | None]
    prepositions: Mapping[str, Role]
    temporal: tuple[tuple[str, ...], ...]
    negation: tuple[tuple[str, ...], ...]


def load_lexicon(path: str | Path) -> RoleLexicon:
    """Load a lexicon from its line-oriented text format.

    Sections are introduced by ``[verbs]``, ``[prepositions]``,
    ``[temporal]`` and ``[negation]``.  A verb line is ``lemma role`` where
    role is a thematic role or ``-`` for verbs whose objects arrive via
    prepositions; a preposition line is ``word role``; marker lines are one
    phrase each and may contain spaces.  ``#`` starts a comment.
    """
    return _parse_lexicon(Path(path).read_text(encoding="utf-8"), str(path))


def _parse_lexicon(text: str, origin: str) -> RoleLexicon:
    verbs: dict[str, Role | None] = {}
    prepositions: dict[str, Role] = {}
    temporal: list[tuple[str, ...]] = []
    negation: list[tuple[str, ...]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("verbs", "prepositions", "temporal", "negation"):
                raise LexiconError(f"{origin}:{lineno}: unknown section {section!r}")
            continue
        if section is None:
            raise LexiconError(f"{origin}:{lineno}: entry before any section header")
        if section == "verbs":
            parts = line.split()
            if len(parts) != 2:
                raise LexiconError(f"{origin}:{lineno}: expected 'lemma role'")
            lemma, role_name = parts
            if role_name == "-":
                verbs[lemma.lower()] = None
            elif role_name in _ROLE_BY_NAME:
                verbs[lemma.lower()] = _ROLE_BY_NAME[role_name]
            else:
                raise LexiconError(f"{origin}:{lineno}: unknown role {role_name!r}")
        elif section == "prepositions":
            parts = line.split()
            if len(parts) != 2 or parts[1] not in _ROLE_BY_NAME:
                raise LexiconError(f"{origin}:{lineno}: expected 'word role'")
            prepositions[parts[0].lower()] = _ROLE_BY_NAME[parts[1]]
        elif section == "temporal":
            temporal.append(tuple(line.lower().split()))
        else:
            negation.append(tuple(line.lower().split()))
    return RoleLexicon(
        verbs=MappingProxyType(verbs),
        prepositions=MappingProxyType(prepositions),
        temporal=tuple(temporal),
        negation=tuple(negation),
    )


@functools.cache
def default_lexicon() -> RoleLexicon:
    """The lexicon shipped with the package, parsed once and shared."""
    data = resources.files("ltlkit").joinpath("data/lexicon.txt").read_text("utf-8")
    return _parse_lexicon(data, "ltlkit/data/lexicon.txt")


# Words that may precede the main verb without contributing a role.
_AUXILIARIES = frozenset(
    "must should shall will would can could may might please need needs "
    "do does did is are was were be been being has have had".split()
)

# Particles absorbed into the verb span, as in "pick up".
_PARTICLES = frozenset({"up", "down"})

_WORD_RE = re.compile(r"[A-Za-z_']+|[0-9]+|[,.;:]")


@dataclass
class _Tok:
    text: str
    start: int
    end: int
    lower: str = field(init=False)

    def __post_init__(self) -> None:
        self.lower = self.text.lower()


def _tokenize(text: str) -> list[_Tok]:
    return [_Tok(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text)]


def _lemma(word: str, lexicon: RoleLexicon) -> str | None:
    """Suffix-stripping lemmatisation against the verb lexicon."""
    w = word.lower()
    if w in lexicon.verbs:
        return w
    candidates = []
    if w.endswith("ing") and len(w) > 4:
        stem = w[:-3]
        candidates += [stem, stem + "e"]
        if len(stem) > 2 and stem[-1] == stem[-2]:
            candidates.append(stem[:-1])
    if w.endswith("ed") and len(w) > 3:
        stem = w[:-2]
        candidates += [stem, stem + "e", w[:-1]]
        if len(stem) > 2 and stem[-1] == stem[-2]:
            candidates.append(stem[:-1])
    if w.endswith("es") and len(w) > 3:
        candidates.append(w[:-2])
    if w.endswith("s") and len(w) > 2:
        candidates.append(w[:-1])
    for c in candidates:
        if c in lexicon.verbs:
            return c
    return None


def _marker_at(tokens: list[_Tok], i: int, phrases) -> int:
    """Length in tokens of the longest marker phrase starting at i, or 0."""
    best = 0
    for phrase in phrases:
        n = len(phrase)
        if len(tokens) - i >= n and tuple(t.lower for t in tokens[i : i + n]) == phrase:
            best = max(best, n)
    return best


def tag(instruction: str, lexicon: RoleLexicon | None = None) -> list[RoleSpan]:
    """Tag an instruction with thematic role spans, left to right.

    Rules, in priority order at each token: marker phrases (negation before
    temporal, longest match first), verbs from the lexicon (a word that is
    both a negation marker and a verb keeps the negation role but still
    assigns its verb frame), prepositions, and otherwise phrase words.  A
    phrase runs until punctuation, an auxiliary, a lexicon word, or an
    ``and`` that introduces a marker, verb or preposition; leading phrases
    before the first verb become the Agent.
    """
    if lexicon is None:
        lexicon = default_lexicon()
    tokens = _tokenize(instruction)
    spans: list[RoleSpan] = []

    def is_boundary(idx: int) -> bool:
        t = tokens[idx]
        if not t.text[0].isalpha():
            return True
        if t.lower in _AUXILIARIES or t.lower in lexicon.prepositions:
            return True
        if _marker_at(tokens, idx, lexicon.negation) or _marker_at(
            tokens, idx, lexicon.temporal
        ):
            return True
        if _lemma(t.text, lexicon) is not None:
            return True
        if t.lower == "and":
            j = idx + 1
            if j >= len(tokens) or is_boundary(j):
                return True
        return False

    def collect_phrase(start_idx: int) -> int:
        """Index one past the last token of the phrase starting here."""
        j = start_idx
        while j < len(tokens) and not is_boundary(j):
            j += 1
        return j

    def add_phrase(start_idx: int, role: Role, lead: _Tok | None = None) -> int:
        j = collect_phrase(start_idx)
        if j == start_idx:
            return start_idx
        first = lead if lead is not None else tokens[start_idx]
        last = tokens[j - 1]
        spans.append(
            RoleSpan(
                text=instruction[first.start : last.end],
                role=role,
                start=first.start,
                end=last.end,
            )
        )
        return j

    i = 0
    seen_verb = False
    # The Agent heuristic only applies when the instruction contains a
    # verb at all; "xyzzy" stays unannotated rather than becoming an
    # agent with nothing to act.
    has_verb = any(
        t.text[0].isalpha() and _lemma(t.text, lexicon) is not None
        for t in tokens
    )
    pending_frame: Role | None = None
    last_frame: Role | None = None
    while i < len(tokens):
        t = tokens[i]
        if not t.text[0].isalpha():
            i += 1
            continue
        neg_len = _marker_at(tokens, i, lexicon.negation)
        if neg_len:
            last = tokens[i + neg_len - 1]
            lemma = _lemma(t.text, lexicon) if neg_len == 1 else None
            spans.append(
                RoleSpan(
                    text=instruction[t.start : last.end],
                    role=Role.NEGATION_MARKER,
                    start=t.start,
                    end=last.end,
                    entry=lemma,
                )
            )
            if lemma is not None:
                seen_verb = True
                pending_frame = lexicon.verbs.get(lemma)
                last_frame = pending_frame
            else:
                # A bare marker negates the phrase that follows it.
                pending_frame = Role.THEME
            i += neg_len
            continue
        temp_len = _marker_at(tokens, i, lexicon.temporal)
        if temp_len:
            last = tokens[i + temp_len - 1]
            spans.append(
                RoleSpan(
                    text=instruction[t.start : last.end],
                    role=Role.TEMPORAL_MARKER,
                    start=t.start,
                    end=last.end,
                )
            )
            # "visit X, then Y": the phrase after the marker plays the
            # same role as the last verb's object.
            pending_frame = last_frame
            i += temp_len
            continue
        lemma = _lemma(t.text, lexicon)
        if lemma is not None:
            end_tok = t
            j = i + 1
            if j < len(tokens) and tokens[j].lower in _PARTICLES:
                end_tok = tokens[j]
                j += 1
            spans.append(
                RoleSpan(
                    text=instruction[t.start : end_tok.end],
                    role=Role.VERB,
                    start=t.start,
                    end=end_tok.end,
                    entry=lemma,
                )
            )
            seen_verb = True
            pending_frame = lexicon.verbs.get(lemma)
            last_frame = pending_frame
            i = j
            continue
        if t.lower in lexicon.prepositions:
            role = lexicon.prepositions[t.lower]
            j = add_phrase(i + 1, role, lead=t)
            if j == i + 1:
                i += 1  # a dangling preposition carries no span
            else:
                i = j
            pending_frame = None
            continue
        if t.lower in _AUXILIARIES or t.lower == "and":
            i += 1
            continue
        if pending_frame is not None:
            i = add_phrase(i, pending_frame)
            pending_frame = None
            continue
        if not seen_verb and has_verb:
            j = add_phrase(i, Role.AGENT)
            i = j if j > i else i + 1
            continue
        j = collect_phrase(i)
        i = j if j > i else i + 1
    return sorted(spans, key=lambda s: s.start)


def render_annotation(instruction: str, spans: list[RoleSpan]) -> str:
    """Insert `` [role]`` after each span, preserving all original text."""
    ordered = sorted(spans, key=lambda s: s.start)
    last_end = 0
    for s in ordered:
        if s.start < last_end:
            raise SpanOverlapError(
                f"span {s.text!r} at {s.start} overlaps an earlier span"
            )
        last_end = s.end
    out = []
    cursor = 0
    for s in ordered:
        out.append(instruction[cursor : s.end])
        out.append(f" [{s.role.value}]")
        cursor = s.end
    out.append(instruction[cursor:])
    return "".join(out)
