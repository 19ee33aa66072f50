import concurrent.futures
import dataclasses
import json
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from ltlkit import evaluation, pipeline
from ltlkit.automata import ResourceLimitError
from ltlkit.evaluation import (
    Dataset,
    DatasetSchemaError,
    EvalReport,
    dataset_stats,
    evaluate_dataset,
    ground_formula,
    load_dataset,
)
from ltlkit.formulas import And, Atom, Finally, Globally, Not, Or, Release, Until, map_atoms
from ltlkit.gateway import MockBackend
from ltlkit.parsing import parse, print_formula
from ltlkit.pipeline import PipelineConfig
from ltlkit.prompts import CoTExample, PromptBundle, PromptHeader

from helpers import build_replay_backend, completion_for

FIXTURE = Path(__file__).parent / "fixtures" / "eval_demo.jsonl"

# One replayed completion per fixture instruction: three gold-equivalent
# answers (the first one a non-exact variant) and one wrong answer.
FIXTURE_ANSWERS = {
    "go to the red room": "!G(!Red_Room)",
    "enter the blue room via the red room": "F(red_room & F(blue_room))",
    "avoid the red room until reaching the second floor": "!red_room U second_floor",
    "always stay out of the hallway": "F(!hallway)",
}


def eval_bundle() -> PromptBundle:
    header = PromptHeader(
        instruction_text="Translate the specification into an LTL formula.",
        allowed_aps=("a", "b"),
        allowed_operators=("F", "G", "U", "&", "|", "!"),
        output_syntax="infix",
    )
    example = CoTExample(
        specification="go to a",
        srl_annotation="go [verb] to a [destination]",
        subgoals=(("What must eventually hold?", "a"),),
        final_ltl=Finally(Atom("a")),
    )
    return PromptBundle(header=header, examples=(example,), shots=1)


class CompleteOnly:
    """Only ``complete``, as a live backend offers, so the work goes to the
    thread pools rather than inline on the calling thread."""

    def __init__(self, backend):
        self.complete = backend.complete


def fixture_report(tmp_path, repetitions=1, max_workers=1, live=False) -> EvalReport:
    dataset = load_dataset(FIXTURE)
    bundle = eval_bundle()
    config = PipelineConfig()
    backend = build_replay_backend(
        dataset, bundle, config, FIXTURE_ANSWERS, tmp_path / "replay.jsonl"
    )
    if live:
        backend = CompleteOnly(backend)
    return evaluate_dataset(
        dataset, bundle, config, backend,
        repetitions=repetitions, max_workers=max_workers,
    )


class TestLoadDataset:
    def test_fixture_loads(self):
        dataset = load_dataset(FIXTURE)
        assert len(dataset) == len(dataset.records) == 4
        assert dataset.aps == ("red_room", "blue_room", "second_floor", "hallway")

    def test_gold_formulas_are_parsed(self):
        dataset = load_dataset(FIXTURE)
        until_record = dataset.records[2]
        assert until_record.gold == Until(
            Not(Atom("red_room")), Atom("second_floor")
        )

    def test_structure_ids_default_to_shape(self):
        dataset = load_dataset(FIXTURE)
        assert [r.structure_id for r in dataset.records] == [
            "F(p)", "F(p & F(p))", "!p U p", "G(!p)",
        ]

    def test_explicit_structure_id_respected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({
                "instruction": "go to a",
                "gold": "F(a)",
                "structure": "reach-one",
            }) + "\n",
            encoding="utf-8",
        )
        assert load_dataset(path).records[0].structure_id == "reach-one"

    def test_prefix_syntax_records(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "x", "gold": "F & a b", "syntax": "prefix"})
            + "\n",
            encoding="utf-8",
        )
        record = load_dataset(path).records[0]
        assert record.gold == Finally(And(Atom("a"), Atom("b")))

    @pytest.mark.parametrize("line,lineno,fragment", [
        ("not json at all", 1, "not valid JSON"),
        pytest.param("[" * 200_000 + "]" * 200_000, 1, "not valid JSON",
                     id="deeply nested"),
        ('["a", "list"]', 1, "not a JSON object"),
        ('{"gold": "F(a)"}', 1, "missing key 'instruction'"),
        ('{"instruction": "x"}', 1, "missing key 'gold'"),
        ('{"instruction": "", "gold": "F(a)"}', 1, "non-empty string"),
        ('{"instruction": "x", "gold": "F(a &"}', 1, "does not parse"),
        ('{"instruction": "x", "gold": "F(a)", "syntax": "polish"}', 1, "'syntax'"),
        ('{"instruction": "x", "gold": "F(a)", "extra": 1}', 1, "unknown keys"),
        ('{"instruction": "x", "gold": "F(a)", "grounding": {"p": "2bad"}}', 1,
         "not a valid atom name"),
        ('{"instruction": "x", "gold": "F(a)", "grounding": {"p": 3}}', 1,
         "must map strings to strings"),
        pytest.param('{"instruction": "x", "gold": "F(a)", "gold": "G(b)"}', 1,
                     "key 'gold' appears more than once", id="repeated key"),
        pytest.param('{"instruction": "x", "gold": "F(a)", "grounding": {"p": "a", "p": "b"}}',
                     1, "key 'p' appears more than once", id="repeated grounding phrase"),
    ])
    def test_schema_errors_carry_line_numbers(self, tmp_path, line, lineno, fragment):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DatasetSchemaError) as exc:
            load_dataset(path)
        assert exc.value.lineno == lineno
        assert fragment in str(exc.value)
        assert str(path) in str(exc.value)

    def test_error_on_second_line_reported_there(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "x", "gold": "F(a)"}) + "\n"
            + "broken\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetSchemaError) as exc:
            load_dataset(path)
        assert exc.value.lineno == 2

    def test_line_that_is_not_utf8_is_a_schema_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"instruction": "x", "gold": "F(a)"}).encode()
        path.write_bytes(good + b"\n\n" + good.replace(b"x", b"\xff") + b"\n")
        with pytest.raises(DatasetSchemaError) as exc:
            load_dataset(path)
        assert exc.value.lineno == 3
        assert str(exc.value) == f"{path}:3: not UTF-8 text"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DatasetSchemaError) as exc:
            load_dataset(path)
        assert "no records" in str(exc.value)

    def test_header_constrains_gold_atoms(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"aps": ["a"]}) + "\n"
            + json.dumps({"instruction": "x", "gold": "F(zeppelin)"}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetSchemaError) as exc:
            load_dataset(path)
        assert "outside the header" in str(exc.value)
        assert exc.value.lineno == 2

    def test_grounding_targets_extend_the_header(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"aps": ["a"]}) + "\n"
            + json.dumps({
                "instruction": "x",
                "gold": "F(zeppelin)",
                "grounding": {"the airship": "zeppelin"},
            }) + "\n",
            encoding="utf-8",
        )
        assert len(load_dataset(path).records) == 1

    def test_headerless_dataset_has_no_ap_universe(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "x", "gold": "F(anything)"}) + "\n",
            encoding="utf-8",
        )
        assert load_dataset(path).aps is None


class TestGroundFormula:
    def test_phrase_lookup_normalizes_case_and_spaces(self):
        grounded = ground_formula(
            parse("F(Yellow_Room)"), {"yellow room": "yroom"}
        )
        assert grounded == Finally(Atom("yroom"))

    def test_target_names_map_to_themselves(self):
        grounded = ground_formula(parse("F(Red_Room)"), {"red room": "red_room"})
        assert grounded == Finally(Atom("red_room"))

    def test_unknown_atoms_pass_through(self):
        f = parse("F(mystery)")
        assert ground_formula(f, {"red room": "red_room"}) == f

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            ground_formula(parse("F(a)"), {"a thing": "not a name"})

    def test_record_builds_its_table_once(self):
        record = load_dataset(FIXTURE).records[0]
        record = dataclasses.replace(record, grounding={"Red Room": "r1"})
        table = record.grounding_table
        assert table == {"red_room": "r1", "r1": "r1"}
        assert record.grounding_table is table
        f = parse("F(red_room) & G(!R1)")
        assert ground_formula(f, table) == ground_formula(f, record.grounding)

    def test_record_with_invalid_target_raises_on_every_use(self):
        # A failed build is never kept, so a record made without
        # load_dataset's checks raises each time its table is asked for.
        record = dataclasses.replace(
            load_dataset(FIXTURE).records[0], grounding={"a thing": "not a name"}
        )
        for _ in range(3):
            with pytest.raises(ValueError, match="not a valid atom name"):
                record.grounding_table

    @pytest.fixture
    def walks(self, monkeypatch):
        """The formulas ground_formula walks, in order."""
        walked = []
        monkeypatch.setattr(
            evaluation, "map_atoms", lambda f, rename: walked.append(f) or map_atoms(f, rename)
        )
        return walked

    def test_record_table_keeps_each_grounded_prediction(self, walks):
        records = load_dataset(FIXTURE).records
        red = dataclasses.replace(records[0], grounding={"Red Room": "r1"})
        blue = dataclasses.replace(records[1], grounding={"Red Room": "r2"})
        f = parse("F(Red_Room) & G(!hallway)")
        first = ground_formula(f, red.grounding_table)
        assert first == parse("F(r1) & G(!hallway)")
        assert ground_formula(f, red.grounding_table) is first
        assert walks == [f]
        assert ground_formula(f, blue.grounding_table) == parse("F(r2) & G(!hallway)")
        assert ground_formula(f, red.grounding_table) is first
        assert walks == [f, f]

    def test_plain_mapping_keeps_nothing(self, walks):
        f = parse("F(Red_Room)")
        grounding = {"red room": "r1"}
        for _ in range(2):
            assert ground_formula(f, grounding) == Finally(Atom("r1"))
        assert walks == [f, f]
        assert grounding == {"red room": "r1"}

    def test_later_entries_win_like_a_dict(self):
        grounding = {"Red Room": "r1", "red_room": "r2"}
        assert ground_formula(parse("F(red_room)"), grounding) == Finally(Atom("r2"))
        assert ground_formula(parse("F(r1)"), grounding) == Finally(Atom("r1"))

    def test_every_connective_is_traversed(self):
        f = Release(
            Or(And(Not(Atom("A")), Finally(Atom("B"))), Globally(Atom("C"))),
            Until(Atom("A"), Atom("B")),
        )
        grounded = ground_formula(f, {"a": "x", "b": "y", "c": "z"})
        assert grounded == Release(
            Or(And(Not(Atom("x")), Finally(Atom("y"))), Globally(Atom("z"))),
            Until(Atom("x"), Atom("y")),
        )


class TestDatasetStats:
    def test_fixture_stats(self):
        stats = dataset_stats(load_dataset(FIXTURE))
        assert stats == {
            "records": 4,
            "distinct_structures": 4,
            "distinct_formulas": 4,
            "propositions": 4,
        }

    def test_duplicate_structures_counted_once(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [
            json.dumps({"instruction": "x1", "gold": "F(a)"}),
            json.dumps({"instruction": "x2", "gold": "F(b)"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = dataset_stats(load_dataset(path))
        assert stats["distinct_structures"] == 1
        assert stats["distinct_formulas"] == 2


class TestEvaluateDataset:
    def test_fixture_arithmetic(self, tmp_path):
        report = fixture_report(tmp_path)
        assert report.n_records == 4
        assert report.accuracy_semantic == 0.75
        assert report.accuracy_exact == 0.5
        assert report.accuracy_exact <= report.accuracy_semantic
        assert report.stddev_semantic == 0.0
        assert report.per_repetition_semantic == (0.75,)
        assert report.per_structure == {
            "F(p)": 1.0,
            "F(p & F(p))": 1.0,
            "!p U p": 1.0,
            "G(!p)": 0.0,
        }
        assert report.structure_counts == {
            "F(p)": 1, "F(p & F(p))": 1, "!p U p": 1, "G(!p)": 1,
        }

    def test_wrong_answer_is_listed_with_detail(self, tmp_path):
        report = fixture_report(tmp_path)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == "wrong"
        assert failure.instruction == "always stay out of the hallway"
        assert "predicted F(!hallway)" in failure.detail
        assert "gold G(!hallway)" in failure.detail

    def test_deterministic_across_repetitions(self, tmp_path):
        report = fixture_report(tmp_path, repetitions=3)
        assert report.per_repetition_semantic == (0.75, 0.75, 0.75)
        assert report.stddev_semantic == 0.0
        assert report.per_structure["G(!p)"] == 0.0
        assert len(report.failures) == 3

    def test_parallel_scoring_matches_serial(self, tmp_path):
        serial = fixture_report(tmp_path / "s")
        parallel = fixture_report(tmp_path / "p", max_workers=3, live=True)
        assert serial.to_dict() == parallel.to_dict()

    def test_nesting_variant_scored_incorrect(self, tmp_path):
        # The classic miss: F(a & F(b)) offered where the gold splits the
        # obligations into F(a) & F(b).
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "do a and b", "gold": "F(a) & F(b)"}) + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        bundle = eval_bundle()
        config = PipelineConfig()
        backend = build_replay_backend(
            dataset, bundle, config,
            {"do a and b": "F(a & F(b))"},
            tmp_path / "replay.jsonl",
        )
        report = evaluate_dataset(dataset, bundle, config, backend, repetitions=1)
        assert report.accuracy_semantic == 0.0
        assert report.failures[0].kind == "wrong"

    def test_pipeline_errors_scored_incorrect(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "go to a", "gold": "F(a)"}) + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        config = PipelineConfig(k=1, max_retries_per_run=2)
        backend = MockBackend(queue=["never a formula", "still nothing"])
        report = evaluate_dataset(
            dataset, eval_bundle(), config, backend, repetitions=1
        )
        assert report.accuracy_semantic == 0.0
        assert report.failures[0].kind == "error"
        assert "AllRunsFailedError" in report.failures[0].detail

    def test_gateway_errors_scored_incorrect(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "go to a", "gold": "F(a)"}) + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        # Script only run 0 of three: the missing scripts surface as a
        # gateway error that must not abort the evaluation.
        backend = MockBackend(scripts={0: [completion_for("F(a)")]})
        report = evaluate_dataset(
            dataset, eval_bundle(), PipelineConfig(), backend, repetitions=1
        )
        assert report.accuracy_semantic == 0.0
        assert report.failures[0].kind == "error"
        assert "ScriptExhaustedError" in report.failures[0].detail

    def test_deeply_nested_completion_does_not_abort(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "go to the red room", "gold": "F(red_room)"})
            + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        backend = MockBackend(
            queue=["LTL: " + "!" * 3000 + "red_room", completion_for("F(red_room)")]
        )
        report = evaluate_dataset(
            dataset, eval_bundle(), PipelineConfig(k=1), backend, repetitions=1
        )
        assert report.accuracy_semantic == 1.0

    def test_grading_over_the_state_cap_is_an_error(self, tmp_path, monkeypatch):
        def capped_equiv(f, g):
            raise ResourceLimitError(10)

        monkeypatch.setattr(evaluation, "equiv", capped_equiv)
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "go to a", "gold": "F(a)"}) + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        backend = MockBackend(queue=[completion_for("!G(!a)")])
        report = evaluate_dataset(
            dataset, eval_bundle(), PipelineConfig(k=1), backend, repetitions=1
        )
        assert report.accuracy_semantic == 0.0
        (failure,) = report.failures
        assert failure.kind == "error"
        assert failure.detail.startswith("ResourceLimitError: ")

    def test_repetitions_must_be_positive(self, tmp_path):
        dataset = Dataset(records=load_dataset(FIXTURE).records)
        with pytest.raises(ValueError):
            evaluate_dataset(
                dataset, eval_bundle(), PipelineConfig(),
                MockBackend(queue=[]), repetitions=0,
            )


class TestThreadBounds:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replaces the thread pool both modules import when they start one
        with a pool that records its ``max_workers`` and runs every job
        inline when submitted."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        return sizes

    def run(self, tmp_path, k, max_workers, live=True):
        dataset = load_dataset(FIXTURE)
        bundle = eval_bundle()
        config = PipelineConfig(k=k)
        backend = build_replay_backend(
            dataset, bundle, config, FIXTURE_ANSWERS, tmp_path / "replay.jsonl"
        )
        return evaluate_dataset(
            dataset, bundle, config, CompleteOnly(backend) if live else backend,
            repetitions=1, max_workers=max_workers,
        )

    def test_huge_requests_are_capped(self, tmp_path, pool_sizes):
        report = self.run(tmp_path, k=101, max_workers=10_000)
        # One record pool, then one run pool per record's translation.
        assert pool_sizes == (
            [evaluation.MAX_RECORD_WORKERS] + [pipeline.MAX_RUN_WORKERS] * 4
        )
        assert report.per_repetition_semantic == (0.75,)

    def test_small_requests_keep_their_size(self, tmp_path, pool_sizes):
        assert pipeline.MAX_RUN_WORKERS >= 5 and evaluation.MAX_RECORD_WORKERS >= 3
        report = self.run(tmp_path, k=5, max_workers=3)
        assert pool_sizes == [3] + [5] * 4
        assert report.per_repetition_semantic == (0.75,)

    def test_in_memory_backend_starts_no_pool(self, tmp_path, pool_sizes):
        report = self.run(tmp_path, k=5, max_workers=3, live=False)
        assert pool_sizes == []
        assert report.per_repetition_semantic == (0.75,)

    def test_queue_mode_mock_answers_records_in_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            "".join(
                json.dumps({"instruction": f"go to {ap}", "gold": f"F({ap})"}) + "\n"
                for ap in ("a", "b", "c")
            ),
            encoding="utf-8",
        )
        threads = set()

        class ThreadNoting(MockBackend):
            def complete(self, prompt, config):
                threads.add(threading.get_ident())
                return super().complete(prompt, config)

        backend = ThreadNoting(queue=[completion_for(f"F({ap})") for ap in "abc"])
        report = evaluate_dataset(
            load_dataset(path), eval_bundle(), PipelineConfig(k=1), backend,
            repetitions=1, max_workers=3,
        )
        assert threads == {threading.get_ident()}
        assert report.accuracy_semantic == 1.0
        assert report.failures == ()


class TestReportRendering:
    def test_to_dict_is_json_serializable(self, tmp_path):
        report = fixture_report(tmp_path)
        encoded = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(encoded)["accuracy_semantic"] == 0.75

    def test_format_text_mentions_the_headline_numbers(self, tmp_path):
        text = fixture_report(tmp_path).format_text()
        assert "records: 4   repetitions: 1" in text
        assert "semantic accuracy: 0.7500 (stddev 0.0000)" in text
        assert "exact accuracy:    0.5000" in text
        assert "G(!p): 0.0000 (1 records)" in text
        assert "[wrong]" in text

    def test_format_text_without_failures(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"instruction": "go to a", "gold": "F(a)"}) + "\n",
            encoding="utf-8",
        )
        dataset = load_dataset(path)
        bundle = eval_bundle()
        config = PipelineConfig()
        backend = build_replay_backend(
            dataset, bundle, config, {"go to a": "F(a)"},
            tmp_path / "replay.jsonl",
        )
        report = evaluate_dataset(dataset, bundle, config, backend, repetitions=1)
        assert "failures: none" in report.format_text()
        assert print_formula(dataset.records[0].gold) == "F(a)"
