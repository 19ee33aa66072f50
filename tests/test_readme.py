"""The README's Python examples run, and print what their comments say.

Each fenced ``python`` block of ``README.md`` is executed in a fresh
namespace.  A ``print(...)`` call whose line ends in a comment must print
exactly the comment's text as one line.
"""

import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

from ltlkit.gateway import MODEL_ENV

README = Path(__file__).resolve().parent.parent / "README.md"

BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def print_comments(source: str) -> dict[int, str]:
    """Line number to comment text, for each line that calls print."""
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    lines = source.splitlines()
    return {
        n: text for n, text in comments.items() if lines[n - 1].lstrip().startswith("print(")
    }


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_what_it_says(source, monkeypatch):
    monkeypatch.delenv(MODEL_ENV, raising=False)
    printed: list[tuple[int, str]] = []

    def recording_print(*args, **kwargs):
        buffer = io.StringIO()
        print(*args, file=buffer, **kwargs)
        printed.append((sys._getframe(1).f_lineno, buffer.getvalue()))

    namespace = {"__name__": "__readme__", "print": recording_print}
    exec(compile(source, "README.md", "exec"), namespace)

    expected = print_comments(source)
    by_line = dict(printed)
    assert set(expected) <= set(by_line), "a commented print did not run"
    for line, text in expected.items():
        assert by_line[line] == text + "\n", f"README block line {line}"

