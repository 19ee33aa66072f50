import argparse
import importlib
import json
from pathlib import Path

import pytest

from ltlkit import __version__
from ltlkit.cli import (
    EXIT_ALL_RUNS_FAILED,
    EXIT_DATASET,
    EXIT_GATEWAY,
    EXIT_NEGATIVE,
    EXIT_NO_MAJORITY,
    EXIT_NO_PLAN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    _EXIT_CODES,
    _build_backend,
    _build_parser,
    _pipeline_config,
    main,
)
from ltlkit import automata
from ltlkit.evaluation import load_dataset
from ltlkit.formulas import LassoWord, evaluate
from ltlkit.gateway import (
    ENDPOINT_ENV,
    AuthenticationError,
    HttpBackend,
    RecordingBackend,
    ReplayMissError,
    config_from_env,
)
from ltlkit.parsing import InternalOperatorError, UnknownOperatorError, parse
from ltlkit.pipeline import PipelineConfig
from ltlkit.planner import BUILTIN_WORLDS
from ltlkit.prompts import BUILTIN_PROMPT_SETS, ExtractionError, builtin_prompt_set

from helpers import build_replay_backend, completion_for

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

LABELED_START = "legend:\nS = a\ngrid:\nS.\n..\n"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("LTLKIT_API_KEY", "LTLKIT_ENDPOINT", "LTLKIT_MODEL"):
        monkeypatch.delenv(var, raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def script_file(tmp_path, data, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def structured(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "structured", *argv)
    assert err == ""
    return code, json.loads(out)


class TestVerdictCommands:
    def test_sat_contradiction(self, capsys):
        code, out, _ = run_cli(capsys, "sat", "a & !a")
        assert code == EXIT_NEGATIVE
        assert out == "UNSAT\n"

    def test_sat_prints_a_witness(self, capsys):
        code, out, _ = run_cli(capsys, "sat", "F(a)")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "SAT"
        assert lines[1].startswith("witness prefix: ")
        assert lines[2].startswith("witness loop:   ")

    def test_sat_structured_witness_is_sound(self, capsys):
        code, doc = structured(capsys, "sat", "F(a) & G(!b)")
        assert code == EXIT_OK
        assert doc["schema_version"] == 1
        assert doc["command"] == "sat"
        assert doc["verdict"] == "SAT"
        word = LassoWord(
            tuple(frozenset(l) for l in doc["witness"]["prefix"]),
            tuple(frozenset(l) for l in doc["witness"]["loop"]),
        )
        assert evaluate(parse("F(a) & G(!b)"), word)

    def test_equiv_duality(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "!(F(a))", "G(!a)")
        assert code == EXIT_OK
        assert out == "EQUIVALENT\n"

    def test_equiv_negative_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "F(a)", "G(a)")
        assert code == EXIT_NEGATIVE
        assert out == "NOT EQUIVALENT\n"

    def test_equiv_prefix_syntax(self, capsys):
        code, _, _ = run_cli(
            capsys, "equiv", "--syntax", "prefix", "F & a b", "F & b a"
        )
        assert code == EXIT_OK

    def test_check_accepts_satisfiable(self, capsys):
        code, out, _ = run_cli(capsys, "check", "F(red_room)")
        assert code == EXIT_OK
        assert out == "OK\n"

    def test_check_rejects_unsatisfiable(self, capsys):
        code, out, _ = run_cli(capsys, "check", "G(a) & F(!a)")
        assert code == EXIT_NEGATIVE
        assert out == "REJECTED: the formula is unsatisfiable\n"

    def test_check_strict_grammar(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--strict-grammar", "!(a U b)")
        assert code == EXIT_NEGATIVE
        assert "negation applies to a non-atomic subformula" in out
        code, out, _ = run_cli(capsys, "check", "!(a U b)")
        assert code == EXIT_OK

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "sat", "F(")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ")


class TestTranslate:
    def translate(self, capsys, tmp_path, script, *extra):
        path = script_file(tmp_path, script)
        return run_cli(
            capsys, "translate", "go to the red room",
            "--backend", "mock", "--mock-script", path, *extra,
        )

    def test_unanimous_majority(self, capsys, tmp_path):
        script = [completion_for("F(red_room)")] * 3
        code, out, _ = self.translate(capsys, tmp_path, script)
        assert code == EXIT_OK
        assert "--- run 0 (ok, retries 0) ---" in out
        assert "formula (infix):  F(red_room)" in out
        assert "formula (prefix): F red_room" in out
        assert "decision: majority" in out
        assert "confidence" not in out

    def test_quiet_hides_reasoning(self, capsys, tmp_path):
        script = [completion_for("F(red_room)")] * 3
        code, out, _ = self.translate(capsys, tmp_path, script, "--quiet")
        assert code == EXIT_OK
        assert "--- run" not in out
        assert "formula (infix):  F(red_room)" in out

    def test_retry_then_success(self, capsys, tmp_path):
        script = [
            ["no formula in this one", completion_for("F(red_room)")],
            [completion_for("F(red_room)")],
            [completion_for("F(red_room)")],
        ]
        code, out, _ = self.translate(capsys, tmp_path, script)
        assert code == EXIT_OK
        assert "--- run 0 (ok, retries 1) ---" in out

    def test_confidence_fallback_scores(self, capsys, tmp_path):
        script = [
            [completion_for("F(a)")],
            [completion_for("G(a)")],
            [completion_for("F(b)")],
        ]
        code, out, _ = self.translate(capsys, tmp_path, script)
        assert code == EXIT_OK
        assert "decision: confidence" in out
        assert "formula (infix):  F(a)" in out
        assert "confidence 0.6667  F(a)" in out
        assert "confidence 0.5000  F(b)" in out
        assert "confidence 0.5000  G(a)" in out

    def test_mapping_script_keys_are_run_indices(self, capsys, tmp_path):
        script = {
            "0": [completion_for("G(hallway)")],
            "1": [completion_for("G(hallway)")],
            "2": [completion_for("F(red_room)")],
        }
        code, out, _ = self.translate(capsys, tmp_path, script)
        assert code == EXIT_OK
        assert "formula (infix):  G(hallway)" in out

    def test_structured_document(self, capsys, tmp_path):
        path = script_file(tmp_path, [completion_for("F(red_room)")] * 3)
        code, doc = structured(
            capsys, "translate", "go to the red room",
            "--backend", "mock", "--mock-script", path,
        )
        assert code == EXIT_OK
        assert doc["command"] == "translate"
        result = doc["result"]
        assert result["final_formula"] == "F(red_room)"
        assert result["final_formula_prefix"] == "F red_room"
        assert result["decision"] == "majority"
        assert [r["retries_used"] for r in result["runs"]] == [0, 0, 0]
        assert len(result["reasoning_chains"]) == 3

    def test_structured_quiet_drops_chains(self, capsys, tmp_path):
        path = script_file(tmp_path, [completion_for("F(red_room)")] * 3)
        code, doc = structured(
            capsys, "translate", "go to the red room", "--quiet",
            "--backend", "mock", "--mock-script", path,
        )
        assert code == EXIT_OK
        assert "reasoning_chains" not in doc["result"]

    def test_all_runs_failed(self, capsys, tmp_path):
        script = [["nothing to extract"] * 5] * 3
        code, out, err = self.translate(capsys, tmp_path, script)
        assert code == EXIT_ALL_RUNS_FAILED
        assert out == ""
        assert err.startswith("error: ")

    def test_no_majority_error_mode(self, capsys, tmp_path):
        script = [
            [completion_for("F(a)")],
            [completion_for("G(a)")],
            [completion_for("F(b)")],
        ]
        code, _, err = self.translate(
            capsys, tmp_path, script, "--on-no-majority", "error"
        )
        assert code == EXIT_NO_MAJORITY
        assert "error: " in err

    def test_even_k_rejected(self, capsys, tmp_path):
        script = [completion_for("F(a)")] * 2
        code, _, err = self.translate(capsys, tmp_path, script, "--k", "2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_gateway_error_exit_code(self, capsys, monkeypatch, tmp_path):
        def explode(*args, **kwargs):
            raise AuthenticationError("credentials rejected")

        monkeypatch.setattr("ltlkit.pipeline.translate", explode)
        script = [completion_for("F(a)")] * 3
        code, _, err = self.translate(capsys, tmp_path, script)
        assert code == EXIT_GATEWAY
        assert "credentials rejected" in err


class TestBackendFlags:
    def test_mock_requires_script(self, capsys):
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "mock"
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")

    def test_replay_requires_store(self, capsys):
        code, _, err = run_cli(capsys, "translate", "x", "--backend", "replay")
        assert code == EXIT_USAGE
        assert "--replay-store" in err

    def test_live_requires_endpoint(self, capsys):
        code, _, err = run_cli(capsys, "translate", "x", "--backend", "live")
        assert code == EXIT_USAGE
        assert "LTLKIT_ENDPOINT" in err

    def test_live_requires_api_key(self, capsys, monkeypatch):
        monkeypatch.setenv("LTLKIT_ENDPOINT", "https://example.invalid/v1/chat")
        code, _, err = run_cli(capsys, "translate", "x", "--backend", "live")
        assert code == EXIT_USAGE
        assert "LTLKIT_API_KEY" in err

    def test_record_requires_store(self, capsys, monkeypatch):
        monkeypatch.setenv("LTLKIT_ENDPOINT", "https://example.invalid/v1/chat")
        monkeypatch.setenv("LTLKIT_API_KEY", "k-test")
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "live", "--record"
        )
        assert code == EXIT_USAGE
        assert "--record requires" in err

    def test_live_record_wraps_the_backend(self, monkeypatch, tmp_path):
        # Builds the backend only; no request is sent.
        monkeypatch.setenv("LTLKIT_ENDPOINT", "https://example.invalid/v1/chat")
        monkeypatch.setenv("LTLKIT_API_KEY", "k-test")
        path = tmp_path / "replay.jsonl"
        backend = _build_backend(_build_parser().parse_args([
            "translate", "x", "--backend", "live", "--record",
            "--replay-store", str(path),
        ]))
        assert isinstance(backend, RecordingBackend)
        assert isinstance(backend.inner, HttpBackend)
        assert backend.store.path == path
        assert not path.exists()

    def test_model_flag_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("LTLKIT_MODEL", "env-model")
        args = _build_parser().parse_args(["translate", "x", "--model", "flag-model"])
        assert _pipeline_config(args).generation.model_name == "flag-model"

    def test_unreadable_mock_script(self, capsys, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("not json", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "mock",
            "--mock-script", str(path),
        )
        assert code == EXIT_USAGE
        assert "cannot read mock script" in err

    def test_mock_script_bad_mapping_keys(self, capsys, tmp_path):
        path = script_file(tmp_path, {"zero": ["x"]})
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "mock",
            "--mock-script", str(path),
        )
        assert code == EXIT_USAGE
        assert "run indices" in err

    @pytest.mark.parametrize("keys, k, bad", [
        (["0", "00", "1", "2", "-1"], 3, "got '00'"),
        (["0", "1", "-1"], 3, "got '-1'"),
        (["0", "+1", "2"], 3, "got '+1'"),
        (["0", " 1", "2"], 3, "got ' 1'"),
        (["0", "1.0", "2"], 3, "got '1.0'"),
        (["0", "\uff11", "2"], 3, "got '\uff11'"),
        (["0", "1", "2", "1"], 3, "key '1' appears more than once"),
        (["0", "1", "2", "3"], 3, "run index 3 is not below --k 3"),
        (["0", "1", "2"], 1, "run index 2 is not below --k 1"),
    ], ids=["leading zero", "negative", "plus sign", "space", "decimal point",
            "fullwidth digit", "repeated", "index k", "index above k"])
    def test_mock_script_keys_must_be_run_indices_below_k(self, capsys, tmp_path, keys, k, bad):
        # Written by hand: json.dumps cannot repeat a key.
        entry = json.dumps([completion_for("F(red_room)")])
        path = tmp_path / "script.json"
        path.write_text(
            "{" + ", ".join(f"{json.dumps(key)}: {entry}" for key in keys) + "}",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "translate", "go to the red room", "--backend", "mock",
            "--mock-script", str(path), "--k", str(k),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and bad in err

    def test_mock_script_runs_beyond_k_rejected_in_a_list(self, capsys, tmp_path):
        path = script_file(tmp_path, [[completion_for("F(red_room)")]] * 3)
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "mock", "--mock-script", path,
            "--k", "1",
        )
        assert code == EXIT_USAGE
        assert "run index 2 is not below --k 1" in err

    def test_mock_script_wrong_shape(self, capsys, tmp_path):
        path = script_file(tmp_path, "just a string")
        code, _, err = run_cli(
            capsys, "translate", "x", "--backend", "mock",
            "--mock-script", str(path),
        )
        assert code == EXIT_USAGE
        assert "expected a JSON list or object" in err

    @pytest.mark.parametrize("script, bad", [
        ([3], "entry 0 is 3;"),
        ([completion_for("F(red_room)"), ["x"]], "entry 1 is ['x'];"),
        ([[completion_for("F(red_room)")], [3]], "entry 1 is [3];"),
        ({"0": completion_for("F(red_room)")},
         "entry 0 is 'LTL: F(red_room)\\nFINISH';"),
        ({str(i): completion_for("F(red_room)") for i in range(3)},
         "entry 0 is 'LTL: F(red_room)\\nFINISH';"),
        ({"0": ["x"], "1": [None]}, "entry 1 is [None];"),
    ], ids=["number in queue", "list in queue", "number in run",
            "string for one run", "string for every run", "null in run"])
    def test_mock_script_wrong_entry_types(self, capsys, tmp_path, script, bad):
        path = script_file(tmp_path, script)
        code, out, err = run_cli(
            capsys, "translate", "x", "--backend", "mock", "--mock-script", path,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage error: mock script {path}: {bad}")

    def test_exhausted_replay_store_fails_runs(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text("", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "translate", "go north",
            "--backend", "replay", "--replay-store", str(store),
        )
        assert code == EXIT_ALL_RUNS_FAILED
        assert "error: " in err

    def test_corrupt_replay_store(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text("{broken\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "translate", "go north",
            "--backend", "replay", "--replay-store", str(store),
        )
        assert code == EXIT_USAGE
        assert "bad replay record" in err

    def test_replay_record_with_a_list_for_key(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_text('{"key": [1], "text": "x"}\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "translate", "go north",
            "--backend", "replay", "--replay-store", str(store),
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {store}:1: bad replay record: ")


class TestSrlCommand:
    def test_annotated_sentence(self, capsys):
        code, out, _ = run_cli(capsys, "srl", "Enter blue room via red room")
        assert code == EXIT_OK
        assert out == "Enter [verb] blue room [destination] via red room [path]\n"

    def test_structured_spans(self, capsys):
        code, doc = structured(capsys, "srl", "go to the red room")
        assert code == EXIT_OK
        roles = [s["role"] for s in doc["spans"]]
        assert roles == ["verb", "destination"]
        assert doc["spans"][0]["start"] == 0

    def test_long_and_chain(self, capsys):
        sentence = "go to the " + "and " * 5000 + "room"
        code, doc = structured(capsys, "srl", sentence)
        assert code == EXIT_OK
        assert [(s["role"], s["end"]) for s in doc["spans"]] == [
            ("verb", 2), ("destination", len(sentence)),
        ]

    def test_custom_lexicon(self, capsys, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("[verbs]\nzorch theme\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "srl", "zorch the gadget", "--lexicon", str(path)
        )
        assert code == EXIT_OK
        assert "zorch [verb]" in out

    def test_malformed_lexicon(self, capsys, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("stray line\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "srl", "x", "--lexicon", str(path))
        assert code == EXIT_PARSE
        assert err.startswith("error: ")


class TestPromptRenderCommand:
    def test_builtin_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "prompt-render", "--prompt-set", "drone")
        assert code == EXIT_OK
        golden = (GOLDEN / "drone.prompt.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_test_slot(self, capsys):
        code, out, _ = run_cli(
            capsys, "prompt-render", "--test", "go to the red room"
        )
        assert code == EXIT_OK
        assert out.endswith("Specification: go to the red room\n")

    def test_inject_srl(self, capsys):
        code, out, _ = run_cli(
            capsys, "prompt-render", "--test", "go to the red room",
            "--inject-srl",
        )
        assert code == EXIT_OK
        assert out.endswith(
            "Specification: go to the red room\n"
            "SRL: go [verb] to the red room [destination]\n"
        )

    def test_missing_prompt_set_file(self, capsys):
        code, _, err = run_cli(
            capsys, "prompt-render", "--prompt-set", "no-such-set"
        )
        assert code == EXIT_USAGE
        assert "error: " in err

    def test_malformed_prompt_set_file(self, capsys, tmp_path):
        path = tmp_path / "bad.prompts"
        path.write_text("[header]\nshots: 1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "prompt-render", "--prompt-set", str(path)
        )
        assert code == EXIT_PARSE
        assert err.startswith("error: ")


class TestEvalCommand:
    ANSWERS = {
        "go to the red room": "!G(!Red_Room)",
        "enter the blue room via the red room": "F(red_room & F(blue_room))",
        "avoid the red room until reaching the second floor":
            "!red_room U second_floor",
        "always stay out of the hallway": "F(!hallway)",
    }

    def build_store(self, tmp_path) -> str:
        dataset = load_dataset(FIXTURES / "eval_demo.jsonl")
        store = tmp_path / "store.jsonl"
        config = PipelineConfig(
            generation=config_from_env(temperature=0.2, max_new_tokens=400)
        )
        build_replay_backend(
            dataset, builtin_prompt_set("drone"), config, self.ANSWERS, store
        )
        return str(store)

    def test_stats_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(FIXTURES / "eval_demo.jsonl"),
            "--stats-only",
        )
        assert code == EXIT_OK
        assert out == (
            "distinct_formulas: 4\n"
            "distinct_structures: 4\n"
            "propositions: 4\n"
            "records: 4\n"
        )

    def test_replayed_evaluation(self, capsys, tmp_path):
        store = self.build_store(tmp_path)
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(FIXTURES / "eval_demo.jsonl"),
            "--backend", "replay", "--replay-store", store,
            "--repetitions", "1",
        )
        assert code == EXIT_OK
        assert "semantic accuracy: 0.7500" in out
        assert "exact accuracy:    0.5000" in out

    def test_replayed_text_must_be_a_string(self, capsys, tmp_path):
        store = Path(self.build_store(tmp_path))
        records = [json.loads(l) for l in store.read_text().splitlines()]
        store.write_text(
            "".join(json.dumps({**r, "text": 3}) + "\n" for r in records),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(FIXTURES / "eval_demo.jsonl"),
            "--backend", "replay", "--replay-store", str(store),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {store}:1: bad replay record: ")

    def test_structured_report(self, capsys, tmp_path):
        store = self.build_store(tmp_path)
        code, doc = structured(
            capsys, "eval", "--dataset", str(FIXTURES / "eval_demo.jsonl"),
            "--backend", "replay", "--replay-store", store,
            "--repetitions", "1",
        )
        assert code == EXIT_OK
        assert doc["stats"]["records"] == 4
        assert doc["report"]["accuracy_semantic"] == 0.75

    def test_dataset_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"instruction": "x"}\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "eval", "--dataset", str(path), "--stats-only"
        )
        assert code == EXIT_DATASET
        assert err.startswith("error: ")

    def test_missing_dataset_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "eval", "--dataset", str(tmp_path / "nope.jsonl"),
            "--stats-only",
        )
        assert code == EXIT_USAGE


class TestPlanCommand:
    def test_demo_world_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "F(purple_room & F(red_room))"
        )
        assert code == EXIT_OK
        assert out == (
            "prefix: (0,0) (0,1) (1,1) (1,2) (1,3) (1,4) (2,4) (3,4) (4,4)\n"
            "loop:   (4,4)\n"
            "S.....\n"
            "**....\n"
            ".*....\n"
            ".*....\n"
            ".***o.\n"
            "......\n"
        )

    def test_structured_plan(self, capsys):
        code, doc = structured(capsys, "plan", "F(red_room)")
        assert code == EXIT_OK
        assert doc["prefix_cells"][0] == [0, 0]
        assert doc["loop_cells"] == [[4, 4]]
        assert doc["map"].count("\n") == 5

    def test_world_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.world"
        path.write_text(LABELED_START, encoding="utf-8")
        code, out, _ = run_cli(capsys, "plan", "G(a)", "--world", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "prefix: (0,0)"

    def test_unsatisfiable_goal(self, capsys, tmp_path):
        path = tmp_path / "tiny.world"
        path.write_text(LABELED_START, encoding="utf-8")
        code, _, err = run_cli(
            capsys, "plan", "a & !a", "--world", str(path)
        )
        assert code == EXIT_NEGATIVE
        assert "unsatisfiable" in err

    def test_unrealizable_goal(self, capsys, tmp_path):
        path = tmp_path / "tiny.world"
        path.write_text(LABELED_START, encoding="utf-8")
        code, _, err = run_cli(capsys, "plan", "F(b)", "--world", str(path))
        assert code == EXIT_NO_PLAN
        assert "no trajectory" in err

    def test_malformed_world_file(self, capsys, tmp_path):
        path = tmp_path / "bad.world"
        path.write_text("legend:\ngrid:\nSQ\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "plan", "F(a)", "--world", str(path))
        assert code == EXIT_PARSE
        assert "unknown grid character" in err

    def test_unknown_world_name(self, capsys):
        code, _, err = run_cli(capsys, "plan", "F(a)", "--world", "mars")
        assert code == EXIT_USAGE


class TestParserFrontend:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"ltlkit {__version__}"

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sat", "F(a)", "--frobnicate"])
        assert exc.value.code == 2

    def test_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Exit codes:" in out
        assert "7 no plan" in out

    def test_structured_documents_are_single_line_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "structured", "check", "F(a)")
        assert code == EXIT_OK
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc == {"schema_version": 1, "command": "check", "verdict": "OK"}

    @pytest.mark.parametrize("command, option, expected", [
        ("translate", "--prompt-set",
         f"builtin name {BUILTIN_PROMPT_SETS} or a file path"),
        ("prompt-render", "--prompt-set",
         f"builtin name {BUILTIN_PROMPT_SETS} or a file path"),
        ("plan", "--world", f"builtin name {BUILTIN_WORLDS} or a file path"),
        ("translate", "--endpoint",
         f"chat-completions URL (default: ${ENDPOINT_ENV})"),
    ], ids=["translate prompt set", "prompt-render prompt set", "world",
            "endpoint"])
    def test_help_names_the_defining_modules_values(self, command, option,
                                                    expected):
        # The help is written out so that the parser loads no command's
        # modules; this keeps it equal to the constants it names.
        parser = _build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        helps = [a.help for a in subs.choices[command]._actions
                 if option in a.option_strings]
        assert helps == [expected]


class TestExitCodes:
    def test_state_cap_overflow(self, capsys, monkeypatch):
        monkeypatch.setattr(automata, "STATE_CAP", 2)
        automata.is_satisfiable.cache_clear()  # another test may have decided it
        code, out, err = run_cli(capsys, "sat", "G(F(a)) & G(F(b))")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "error: automaton construction exceeded 2 states\n"

    def test_every_key_names_an_exception_class(self):
        for key, code in _EXIT_CODES.items():
            module, _, name = key.rpartition(".")
            cls = getattr(importlib.import_module(module), name)
            assert issubclass(cls, Exception)
            assert f"{cls.__module__}.{cls.__qualname__}" == key
            assert code in (EXIT_USAGE, EXIT_NEGATIVE, EXIT_PARSE,
                            EXIT_ALL_RUNS_FAILED, EXIT_NO_MAJORITY,
                            EXIT_NO_PLAN, EXIT_DATASET, EXIT_GATEWAY)

    @pytest.mark.parametrize("error, expected", [
        (UnknownOperatorError("X", 0), EXIT_PARSE),
        (ReplayMissError("no stored completion"), EXIT_GATEWAY),
        (ExtractionError("no formula"), EXIT_USAGE),
        (InternalOperatorError("release node"), EXIT_USAGE),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_unlisted_subclass_takes_its_nearest_listed_base(
        self, capsys, monkeypatch, error, expected
    ):
        def explode(formula):
            raise error

        monkeypatch.setattr("ltlkit.automata.is_satisfiable", explode)
        code, out, err = run_cli(capsys, "sat", "F(a)")
        assert code == expected
        assert out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("argv, expected, message", [
        (["eval", "--dataset", "{path}", "--stats-only"], EXIT_DATASET,
         "error: {path}:1: not valid JSON: "),
        (["translate", "x", "--backend", "mock", "--mock-script", "{path}"], EXIT_USAGE,
         "usage error: cannot read mock script {path}: "),
        (["translate", "x", "--backend", "replay", "--replay-store", "{path}"], EXIT_USAGE,
         "error: {path}:1: bad replay record: "),
    ], ids=["dataset", "mock script", "replay store"])
    def test_deeply_nested_json(self, capsys, tmp_path, argv, expected, message):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000 + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert (code, out) == (expected, "")
        assert err.startswith(message.format(path=path))

    @pytest.mark.parametrize("argv, expected", [
        (["plan", "F(a)", "--world", "{path}"], EXIT_PARSE),
        (["prompt-render", "--prompt-set", "{path}"], EXIT_PARSE),
        (["srl", "go north", "--lexicon", "{path}"], EXIT_PARSE),
        (["eval", "--dataset", "{path}", "--stats-only"], EXIT_DATASET),
    ], ids=["world", "prompt set", "lexicon", "dataset"])
    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\u00e9\n".encode("latin-1"))
        code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert (code, out) == (expected, "")
        assert err.startswith(f"error: {path}:")
        assert "not UTF-8 text" in err

    @pytest.mark.parametrize("argv, expected, text, message", [
        (["prompt-render", "--prompt-set", "{path}"], EXIT_PARSE,
         "[header]\ninstruction: T.\naps: a\naps: b\n", "{path}:4: duplicate 'aps' line"),
        (["srl", "go north", "--lexicon", "{path}"], EXIT_PARSE,
         "[verbs]\ngo destination\ngo -\n", "{path}:3: verb 'go' listed twice"),
        (["eval", "--dataset", "{path}", "--stats-only"], EXIT_DATASET,
         '{"instruction": "go to a", "gold": "F(a)", "gold": "G(b)"}\n',
         "{path}:1: not valid JSON: key 'gold' appears more than once"),
    ], ids=["prompt set", "lexicon", "dataset"])
    def test_repeated_key_is_named(self, capsys, tmp_path, argv, expected, text, message):
        path = tmp_path / "repeated.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert (code, out, err) == (expected, "", f"error: {message.format(path=path)}\n")

    def test_unlisted_error_propagates(self, monkeypatch):
        def explode(formula):
            raise RuntimeError("internal error")

        monkeypatch.setattr("ltlkit.automata.is_satisfiable", explode)
        with pytest.raises(RuntimeError, match="internal error"):
            main(["sat", "F(a)"])
