"""Offline start-up does not load the HTTP stack.

``requests`` (and urllib3, charset_normalizer, ssl, ...) is imported only
when an ``HttpBackend`` is built, so ``import ltlkit`` and every offline
command stay free of it.  Each check runs in a fresh interpreter, since
the test process itself has long imported ``requests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlkit

HTTP_MODULES = ("requests", "urllib3")
SRC = str(Path(ltlkit.__file__).resolve().parent.parent)

OFFLINE_COMMANDS = [
    ["sat", "G(F(a)) & F(!a)"],
    ["equiv", "F(G(a))", "F(G(a)) & F(a)"],
    ["plan", "F(red_room)", "--world", "demo"],
    ["srl", "Enter blue room via red room"],
    ["prompt-render", "--prompt-set", "drone", "--test", "go to the red room",
     "--inject-srl"],
]


def loaded_http_modules(code: str) -> list:
    """Run code in a fresh interpreter; return the HTTP modules it loaded."""
    probe = (
        code + "\n"
        "import json, sys\n"
        f"print(json.dumps([n for n in {HTTP_MODULES!r} if n in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_import_leaves_the_http_stack_unloaded():
    assert loaded_http_modules("import ltlkit") == []


@pytest.mark.parametrize("argv", OFFLINE_COMMANDS, ids=lambda a: a[0])
def test_offline_command_leaves_the_http_stack_unloaded(argv):
    code = (
        "from ltlkit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    assert loaded_http_modules(code) == []


def test_building_a_live_backend_loads_requests():
    loaded = loaded_http_modules("import ltlkit\nltlkit.HttpBackend()")
    assert "requests" in loaded
