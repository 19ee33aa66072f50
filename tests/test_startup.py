"""Offline start-up loads neither the HTTP stack nor the thread pool, the
package loads a submodule only when one of its names is used, and a CLI
command loads only the submodules it runs.

``requests`` (and urllib3, charset_normalizer, ssl, ...) is imported only
when an ``HttpBackend`` is built, and ``concurrent.futures`` (with
``logging``) only where a pool is started, so ``import ltlkit`` and every
offline command stay free of both.  Each check runs in a fresh
interpreter, since the test process itself has long imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlkit

HTTP_MODULES = ("requests", "urllib3")
POOL_MODULES = ("concurrent.futures", "logging")
SRC = str(Path(ltlkit.__file__).resolve().parent.parent)

OFFLINE_COMMANDS = [
    ["sat", "G(F(a)) & F(!a)"],
    ["equiv", "F(G(a))", "F(G(a)) & F(a)"],
    ["plan", "F(red_room)", "--world", "demo"],
    ["srl", "Enter blue room via red room"],
    ["prompt-render", "--prompt-set", "drone", "--test", "go to the red room",
     "--inject-srl"],
]


def fresh_modules(code: str) -> set:
    """Run code in a fresh interpreter; return the modules loaded after it."""
    probe = code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(child.stdout.splitlines()[-1]))


def loaded_modules(code: str) -> list:
    """The HTTP and thread pool modules that code loads."""
    loaded = fresh_modules(code)
    return [n for n in HTTP_MODULES + POOL_MODULES if n in loaded]


def package_modules(code: str) -> list:
    """The ``ltlkit`` submodules that code loads."""
    return sorted(n for n in fresh_modules(code) if n.startswith("ltlkit."))


def test_import_leaves_the_http_stack_unloaded():
    assert loaded_modules("import ltlkit") == []


@pytest.mark.parametrize("argv", OFFLINE_COMMANDS, ids=lambda a: a[0])
def test_offline_command_leaves_the_http_stack_unloaded(argv):
    code = (
        "from ltlkit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    assert loaded_modules(code) == []


def test_building_a_live_backend_loads_requests():
    loaded = loaded_modules("import ltlkit\nltlkit.HttpBackend()")
    assert "requests" in loaded


def test_a_pooled_translation_loads_the_thread_pool():
    # A backend with only ``complete``, as a live one offers, is not in
    # memory, so translate's k = 3 runs go to a pool.
    code = (
        "import ltlkit\n"
        "class LiveLike:\n"
        "    def complete(self, prompt, generation):\n"
        "        return ltlkit.Completion(text='LTL: F(red_room)\\nFINISH')\n"
        "bundle = ltlkit.builtin_prompt_set('drone')\n"
        "config = ltlkit.PipelineConfig(k=3)\n"
        "result = ltlkit.translate('go to the red room', bundle, config, LiveLike())\n"
        "assert ltlkit.print_formula(result.final_formula) == 'F(red_room)'\n"
    )
    assert loaded_modules(code) == list(POOL_MODULES)


def test_import_loads_no_submodule():
    assert package_modules("import ltlkit") == []


def test_a_parse_loads_only_the_parser():
    code = "import ltlkit\nltlkit.parse('F(a)')"
    assert package_modules(code) == ["ltlkit.formulas", "ltlkit.parsing"]


def test_a_submodule_attribute_loads_that_submodule():
    code = "import ltlkit\nassert ltlkit.automata.STATE_CAP > 0"
    assert package_modules(code) == ["ltlkit.automata", "ltlkit.formulas"]


def test_the_planner_leaves_the_translation_stack_unloaded():
    loaded = package_modules("from ltlkit import planner")
    assert "ltlkit.planner" in loaded
    for name in ("pipeline", "gateway", "prompts", "srl", "evaluation"):
        assert f"ltlkit.{name}" not in loaded


@pytest.mark.parametrize("argv, modules", [
    (["sat", "G(F(a)) & F(!a)"], ["automata", "formulas", "parsing"]),
    (["equiv", "F(G(a))", "F(G(a)) & F(a)"], ["automata", "formulas", "parsing"]),
    (["check", "F(a)"], ["automata", "formulas", "parsing"]),
    (["srl", "Enter blue room via red room"], ["srl"]),
    (["plan", "F(red_room)", "--world", "demo"],
     ["automata", "formulas", "parsing", "planner"]),
], ids=["sat", "equiv", "check", "srl", "plan"])
def test_a_command_loads_only_its_own_modules(argv, modules):
    code = (
        "from ltlkit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
    )
    expected = sorted(f"ltlkit.{name}" for name in ["cli", *modules])
    assert package_modules(code) == expected
