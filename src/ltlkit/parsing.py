"""Parsing and printing of the two surface syntaxes.

Infix syntax has precedence ``!`` (and the unary temporal operators) over
``U`` over ``&`` over ``|``, with ``U`` associating to the right and
parentheses overriding.  Prefix syntax is Polish notation with
space-separated tokens, e.g. ``F & | B Y F C``.

``X`` and ``R`` are recognised as operator names and rejected: the grammar
has no Next operator, and Release is internal to negation normal form.
"""

from __future__ import annotations

import functools
import re
from typing import Iterator, NamedTuple

from .formulas import And, Atom, Finally, Formula, Globally, Not, Or, Until, fold, kept

SYNTAXES = ("infix", "prefix", "auto")

# Operators and parentheses may enclose a token at most this many levels
# deep; deeper input is a ParseError at the token that crosses it.  The cap
# bounds the trees that outside text can produce.  The parsers recurse
# once per level, and the cap keeps them off the recursion limit; the
# automaton construction, though it does not recurse, grows about
# quadratically with depth.
MAX_NESTING = 256

# parse answers from a process-wide, least-recently-used table of this
# many (text, syntax) entries.  Texts longer than PARSE_MEMO_MAX_TEXT
# characters are parsed afresh every time, so one oversized completion
# cannot pin its tree in the table.
PARSE_MEMO_SIZE = 1024
PARSE_MEMO_MAX_TEXT = 512

_PREFIX_BINARY = {"&": And, "|": Or, "U": Until}
_UNARY = {"!": Not, "F": Finally, "G": Globally}

# Precedence levels, used by the infix parser and for minimal
# parenthesisation when printing.  The printer always wraps the operand of
# F and G in parentheses, which makes them self-delimiting.
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNTIL = 3
_LEVEL_NOT = 4
_LEVEL_TIGHT = 5

_INFIX_BINARY = {"|": (_LEVEL_OR, Or), "&": (_LEVEL_AND, And), "U": (_LEVEL_UNTIL, Until)}


class ParseError(ValueError):
    """Surface-syntax error, carrying a byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        detail = f"syntax error at byte {offset}: {message}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class UnknownOperatorError(ParseError):
    """An operator token outside the grammar, such as X or R."""

    def __init__(self, token: str, offset: int):
        ParseError.__init__(
            self, f"operator {token!r} is not part of the grammar", offset
        )
        self.token = token


class InternalOperatorError(ValueError):
    """Raised when printing a formula containing the internal Release node."""


class _Token(NamedTuple):
    kind: str  # "ident", "op", "lparen", "rparen", "end"
    text: str
    offset: int  # byte offset into the source


# One token after any whitespace; the group that matches names its kind.
# Atoms are ASCII-only, and F, G and U are operators only as whole words.
# "end" matches only at the end of the text; once _LEXICAL_ERROR has found
# nothing, some group matches at every position the parser reaches.
_TOKEN = re.compile(
    r"\s*(?:(?P<op>[&|!]|[FGU](?![A-Za-z0-9_]))|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<end>\Z))"
)

# The first character no token can start with, or a lone X or R.
_LEXICAL_ERROR = re.compile(
    r"[^\s()&|!A-Za-z0-9_]|(?<![A-Za-z0-9_])(?:[0-9]|[XR](?![A-Za-z0-9_]))"
)


def _tokenize(text: str) -> Iterator[_Token]:
    """The tokens of text, read on demand, ending with one "end" token.

    A lexical error anywhere in text is raised before the first token, so
    it wins over any syntax error the parser would meet earlier.
    """
    bad = _LEXICAL_ERROR.search(text)
    if bad is not None:
        c, off = bad.group(), len(text[: bad.start()].encode("utf-8"))
        if c in "XR":
            raise UnknownOperatorError(c, off)
        raise ParseError(f"unexpected character {c!r}", off)
    # text[:done] is off bytes long in UTF-8; each character is encoded once.
    pos = done = off = 0
    kind = None
    while kind != "end":
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        off += len(text[done:start].encode("utf-8"))
        done = start
        yield _Token(kind, m.group(kind), off)


def _too_deep(tok: _Token) -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_NESTING} levels", tok.offset)


class _InfixParser:
    """Precedence climbing over tokens read on demand, one token ahead.

    ``depth`` counts the operators and parentheses enclosing the current
    token.  A parse method entered at ``depth`` returns its formula with
    the formula's height h (parentheses included), and guarantees
    ``depth + h <= MAX_NESTING``.  Recursion follows the depth, so it
    stays bounded too.
    """

    def __init__(self, tokens: Iterator[_Token]):
        self.tokens = tokens
        self.lookahead = next(tokens)
        self.depth = 0

    def advance(self) -> _Token:
        tok = self.lookahead
        # Past the stream's "end" token, that token stays the lookahead.
        self.lookahead = next(self.tokens, tok)
        return tok

    def descend(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(tok)

    def parse(self) -> Formula:
        f, _ = self.parse_binary(_LEVEL_OR)
        tok = self.lookahead
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r} after a complete formula",
                tok.offset,
                frozenset({"'&'", "'|'", "'U'", "end of input"}),
            )
        return f

    def parse_binary(self, min_level: int) -> tuple[Formula, int]:
        """Operands joined by binary operators binding at least min_level.

        ``&`` and ``|`` associate to the left, ``U`` to the right.
        """
        f, height = self.parse_unary()
        while True:
            tok = self.lookahead
            op = _INFIX_BINARY.get(tok.text) if tok.kind == "op" else None
            if op is None or op[0] < min_level:
                return f, height
            level, ctor = op
            self.advance()
            self.descend(tok)
            right, right_height = self.parse_binary(
                level if ctor is Until else level + 1
            )
            self.depth -= 1
            height = 1 + max(height, right_height)
            if self.depth + height > MAX_NESTING:
                raise _too_deep(tok)
            f = ctor(f, right)

    def parse_unary(self) -> tuple[Formula, int]:
        tok = self.advance()
        ctor = _UNARY.get(tok.text) if tok.kind == "op" else None
        if ctor is not None:
            self.descend(tok)
            f, height = self.parse_unary()
            self.depth -= 1
            return ctor(f), height + 1
        if tok.kind == "ident":
            return Atom(tok.text), 0
        if tok.kind == "lparen":
            self.descend(tok)
            f, height = self.parse_binary(_LEVEL_OR)
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError(
                    f"unbalanced parenthesis, found {closing.text!r}",
                    closing.offset,
                    frozenset({"')'"}),
                )
            self.depth -= 1
            return f, height + 1
        raise ParseError(
            "end of input" if tok.kind == "end" else f"unexpected {tok.text!r}",
            tok.offset,
            frozenset({"atom", "'('", "'!'", "'F'", "'G'"}),
        )


def _parse_prefix(tokens: Iterator[_Token]) -> Formula:
    def parse_one(depth: int) -> Formula:
        """The formula starting at the next token, which sits at depth."""
        tok = next(tokens)
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "op":
            if depth == MAX_NESTING:
                raise _too_deep(tok)
            ctor = _UNARY.get(tok.text)
            if ctor is not None:
                return ctor(parse_one(depth + 1))
            binary = _PREFIX_BINARY[tok.text]
            left = parse_one(depth + 1)
            return binary(left, parse_one(depth + 1))
        raise ParseError(
            "end of input" if tok.kind == "end" else f"unexpected {tok.text!r}",
            tok.offset,
            frozenset({"atom", "operator"}),
        )

    f = parse_one(0)
    trailing = next(tokens)
    if trailing.kind != "end":
        raise ParseError(
            f"trailing token {trailing.text!r} after a complete formula",
            trailing.offset,
            frozenset({"end of input"}),
        )
    return f


def parse(text: str, syntax: str = "auto") -> Formula:
    """Parse a formula in the given surface syntax.

    With ``auto``, infix is tried first and prefix second; if both fail the
    infix error is reported.  Formulas are immutable, so a text parsed
    again returns the same tree from the memo (see ``PARSE_MEMO_SIZE``).
    Errors are raised afresh on every call and never stored.
    """
    if syntax not in SYNTAXES:
        raise ValueError(f"unknown syntax {syntax!r}, expected one of {SYNTAXES}")
    if len(text) > PARSE_MEMO_MAX_TEXT:
        return _parse(text, syntax)
    return _parse_memo(text, syntax)


def _parse(text: str, syntax: str) -> Formula:
    if syntax == "infix":
        return _InfixParser(_tokenize(text)).parse()
    if syntax == "prefix":
        return _parse_prefix(_tokenize(text))
    try:
        return _InfixParser(_tokenize(text)).parse()
    except ParseError as infix_error:
        try:
            return _parse_prefix(_tokenize(text))
        except ParseError:
            raise infix_error from None


# lru_cache stores no exceptions, so only successful parses are kept.
_parse_memo = functools.lru_cache(maxsize=PARSE_MEMO_SIZE)(_parse)


# Infix printing: each operator's template, its precedence level, and for
# each operand the lowest level it may have without parentheses.  The
# operand of a binary operator at the operator's own level is bare only on
# the side the operator groups to: the left for & and |, the right for U.
_INFIX = {
    Not: ("!%s", _LEVEL_NOT, (_LEVEL_NOT,)),
    Finally: ("F(%s)", _LEVEL_TIGHT, (_LEVEL_OR,)),
    Globally: ("G(%s)", _LEVEL_TIGHT, (_LEVEL_OR,)),
    Until: ("%s U %s", _LEVEL_UNTIL, (_LEVEL_UNTIL + 1, _LEVEL_UNTIL)),
    And: ("%s & %s", _LEVEL_AND, (_LEVEL_AND, _LEVEL_AND + 1)),
    Or: ("%s | %s", _LEVEL_OR, (_LEVEL_OR, _LEVEL_OR + 1)),
}

# Prefix printing: each operator's token, then its operands.
_PREFIX = {ctor: token + " %s" for token, ctor in _UNARY.items()}
_PREFIX.update({ctor: token + " %s %s" for token, ctor in _PREFIX_BINARY.items()})


def _infix(node: Formula, *kids: tuple[str, int]) -> tuple[str, int]:
    """The infix text of node and its level, from its children's."""
    if not kids:
        return node.name, _LEVEL_TIGHT
    spec = _INFIX.get(type(node))
    if spec is None:
        raise InternalOperatorError("Release has no surface syntax")
    template, level, bare = spec
    if len(kids) == 1:
        (text, kid_level), = kids
        return template % (text if kid_level >= bare[0] else f"({text})"), level
    (left, left_level), (right, right_level) = kids
    return template % (
        left if left_level >= bare[0] else f"({left})",
        right if right_level >= bare[1] else f"({right})",
    ), level


def _prefix(node: Formula, *kids: str) -> str:
    if not kids:
        return node.name
    template = _PREFIX.get(type(node))
    if template is None:
        raise InternalOperatorError("Release has no surface syntax")
    return template % kids


def print_formula(f: Formula, syntax: str = "infix") -> str:
    """Render f in the given surface syntax; inverse of parse.

    The text is kept on f after the first call, one per syntax.
    """
    if syntax == "infix":
        return kept(f, "_infix", _print_infix)
    if syntax == "prefix":
        return kept(f, "_prefix", _print_prefix)
    raise ValueError(f"unknown syntax {syntax!r}, expected 'infix' or 'prefix'")


def _print_infix(f: Formula) -> str:
    return fold(f, _infix)[0]


def _print_prefix(f: Formula) -> str:
    return fold(f, _prefix)
