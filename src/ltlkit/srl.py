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
from dataclasses import dataclass
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

    @functools.cached_property
    def _marker_index(self) -> tuple[Mapping[str, tuple], Mapping[str, tuple]]:
        """The negation and the temporal phrases, each keyed by their first
        word, longest first; built on first use and kept with the lexicon."""
        return _index_by_first_word(self.negation), _index_by_first_word(self.temporal)


def _index_by_first_word(phrases: tuple[tuple[str, ...], ...]) -> Mapping[str, tuple]:
    index: dict[str, tuple] = {}
    for phrase in sorted(phrases, key=len, reverse=True):
        index[phrase[0]] = index.get(phrase[0], ()) + (phrase,)
    return MappingProxyType(index)


def load_lexicon(path: str | Path) -> RoleLexicon:
    """Load a lexicon from its line-oriented text format.

    Sections are introduced by ``[verbs]``, ``[prepositions]``,
    ``[temporal]`` and ``[negation]``.  A verb line is ``lemma role`` where
    role is a thematic role or ``-`` for verbs whose objects arrive via
    prepositions; a preposition line is ``word role``; marker lines are one
    phrase each and may contain spaces.  ``#`` starts a comment.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not UTF-8 text: {exc}") from exc
    return _parse_lexicon(text, str(path))


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
            if lemma.lower() in verbs:
                raise LexiconError(f"{origin}:{lineno}: verb {lemma!r} listed twice")
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
            if parts[0].lower() in prepositions:
                raise LexiconError(f"{origin}:{lineno}: preposition {parts[0]!r} listed twice")
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


def _lemma(w: str, lexicon: RoleLexicon) -> str | None:
    """Suffix-stripping lemmatisation of a lowercase word against the verb lexicon."""
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


def _marker_lengths(lowers: tuple[str, ...], index: Mapping[str, tuple]) -> list[int]:
    """Per token, the length of the longest marker phrase starting there, or 0."""
    lengths = [0] * len(lowers)
    for i, w in enumerate(lowers):
        for phrase in index.get(w, ()):
            if lowers[i : i + len(phrase)] == phrase:
                lengths[i] = len(phrase)
                break
    return lengths


def tag(instruction: str, lexicon: RoleLexicon | None = None) -> list[RoleSpan]:
    """Tag an instruction with thematic role spans, left to right.

    Rules, in priority order at each token: marker phrases (negation before
    temporal, longest match first), verbs from the lexicon (a word that is
    both a negation marker and a verb keeps the negation role but still
    assigns its verb frame), prepositions, and otherwise phrase words.  A
    phrase runs until punctuation, an auxiliary, a lexicon word, or an
    ``and`` that introduces a marker, verb or preposition; leading phrases
    before the first verb become the Agent.

    Each token's lemma, markers and boundary status are worked out once, in
    tables, so tagging is linear in the number of tokens.
    """
    if lexicon is None:
        lexicon = default_lexicon()
    found = list(_WORD_RE.finditer(instruction))
    starts = [m.start() for m in found]
    ends = [m.end() for m in found]
    lowers = tuple(m.group().lower() for m in found)
    n = len(lowers)
    lemmas = [_lemma(w, lexicon) if w[0].isalpha() else None for w in lowers]
    negation_index, temporal_index = lexicon._marker_index
    neg = _marker_lengths(lowers, negation_index)
    temp = _marker_lengths(lowers, temporal_index)
    # boundary[i]: a phrase stops before token i.  Filled right to left,
    # since an "and" is a boundary exactly when the token after it is.
    boundary = [True] * (n + 1)
    for i in range(n - 1, -1, -1):
        w = lowers[i]
        boundary[i] = (
            not w[0].isalpha()
            or w in _AUXILIARIES
            or w in lexicon.prepositions
            or neg[i] > 0
            or temp[i] > 0
            or lemmas[i] is not None
            or (w == "and" and boundary[i + 1])
        )
    spans: list[RoleSpan] = []

    def collect_phrase(j: int) -> int:
        """Index one past the last token of the phrase starting at j."""
        while not boundary[j]:
            j += 1
        return j

    def add_span(first: int, last: int, role: Role, entry: str | None = None) -> None:
        start, end = starts[first], ends[last]
        spans.append(RoleSpan(instruction[start:end], role, start, end, entry))

    i = 0
    seen_verb = False
    # The Agent heuristic only applies when the instruction contains a
    # verb at all; "xyzzy" stays unannotated rather than becoming an
    # agent with nothing to act.
    has_verb = any(lemma is not None for lemma in lemmas)
    pending_frame: Role | None = None
    last_frame: Role | None = None
    while i < n:
        w = lowers[i]
        if not w[0].isalpha():
            i += 1
            continue
        if neg[i]:
            lemma = lemmas[i] if neg[i] == 1 else None
            add_span(i, i + neg[i] - 1, Role.NEGATION_MARKER, lemma)
            if lemma is not None:
                seen_verb = True
                pending_frame = lexicon.verbs.get(lemma)
                last_frame = pending_frame
            else:
                # A bare marker negates the phrase that follows it.
                pending_frame = Role.THEME
            i += neg[i]
            continue
        if temp[i]:
            add_span(i, i + temp[i] - 1, Role.TEMPORAL_MARKER)
            # "visit X, then Y": the phrase after the marker plays the
            # same role as the last verb's object.
            pending_frame = last_frame
            i += temp[i]
            continue
        lemma = lemmas[i]
        if lemma is not None:
            j = i + 1
            if j < n and lowers[j] in _PARTICLES:
                j += 1
            add_span(i, j - 1, Role.VERB, lemma)
            seen_verb = True
            pending_frame = lexicon.verbs.get(lemma)
            last_frame = pending_frame
            i = j
            continue
        if w in lexicon.prepositions:
            j = collect_phrase(i + 1)
            if j > i + 1:  # a dangling preposition carries no span
                add_span(i, j - 1, lexicon.prepositions[w])
            i = j
            pending_frame = None
            continue
        if w in _AUXILIARIES or w == "and":
            i += 1
            continue
        # Token i is no boundary, so the phrase starting here is not empty.
        j = collect_phrase(i)
        if pending_frame is not None:
            add_span(i, j - 1, pending_frame)
            pending_frame = None
        elif not seen_verb and has_verb:
            add_span(i, j - 1, Role.AGENT)
        i = j
    return spans


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
