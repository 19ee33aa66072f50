import dataclasses
import hashlib
import json

import pytest
import requests

from ltlkit.gateway import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    MODEL_ENV,
    REPLAY_KEY_MEMO_MAX_PROMPT,
    AuthenticationError,
    Completion,
    GatewayError,
    GenerationConfig,
    HttpBackend,
    MockBackend,
    NetworkError,
    ProviderError,
    RecordingBackend,
    ReplayBackend,
    ReplayMissError,
    ReplayStore,
    ScriptExhaustedError,
    _replay_key_memo,
    config_from_env,
)


class FakeResponse:
    def __init__(self, status_code, body=None, raw=None):
        self.status_code = status_code
        self._body = body
        self._raw = raw

    def json(self):
        if self._body is None:
            raise ValueError(f"not json: {self._raw!r}")
        return self._body


def chat_body(text, finish="stop", **extra):
    body = {"choices": [{"message": {"content": text}, "finish_reason": finish}]}
    body.update(extra)
    return body


class PostRecorder:
    """Stands in for requests.post; serves canned responses in order."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def env(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k-test")
    monkeypatch.setenv(ENDPOINT_ENV, "https://mirror.invalid/v1/chat/completions")
    monkeypatch.delenv(MODEL_ENV, raising=False)
    return monkeypatch


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert config.model_name == "default"
        assert config.temperature == 0.2
        assert config.stop_sequences == ("FINISH",)

    @pytest.mark.parametrize("kwargs", [
        {"model_name": ""},
        {"temperature": -0.1},
        {"temperature": 2.5},
        {"max_new_tokens": 0},
        {"request_timeout": 0},
        {"max_network_retries": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)

    def test_stop_sequences_coerced_to_tuple(self):
        config = GenerationConfig(stop_sequences=["FINISH", "END"])
        assert config.stop_sequences == ("FINISH", "END")

    def test_fingerprint_ignores_transport_fields(self):
        base = GenerationConfig()
        assert base.fingerprint() == GenerationConfig(
            request_timeout=5.0, max_network_retries=0
        ).fingerprint()

    @pytest.mark.parametrize("kwargs", [
        {"model_name": "other"},
        {"temperature": 0.7},
        {"max_new_tokens": 100},
        {"stop_sequences": ("DONE",)},
    ])
    def test_fingerprint_tracks_generation_fields(self, kwargs):
        assert GenerationConfig().fingerprint() != GenerationConfig(
            **kwargs
        ).fingerprint()

    def test_replay_keys_are_pinned(self):
        # Digests of recorded stores: a change here orphans every store.
        config = GenerationConfig(model_name="m")
        pinned = "62f2d55e274eb06a260ccd07601ac8c28fc175443287b4c3b80ce7f2e82ee2f8"
        assert config.fingerprint() == pinned
        assert config.fingerprint() == pinned
        assert ReplayStore.key_for("Translate: go to the red room.", config) == (
            "557d7bcd41fa82ed0cfea90635db770694998c3a3bf71d1642b5c75642361507"
        )

    def test_replay_key_is_sha256_of_fingerprint_and_prompt(self):
        # The key is memoised; the memo must hand back the digest a direct
        # computation gives, every time, so stores on disk stay valid.
        config = GenerationConfig(model_name="m")
        for prompt in ("p", "Translate: go to the red room.", "é\nq" * 300):
            material = config.fingerprint() + "\n" + prompt
            expected = hashlib.sha256(material.encode("utf-8")).hexdigest()
            assert ReplayStore.key_for(prompt, config) == expected
            assert ReplayStore.key_for(prompt, config) == expected

    def test_over_length_prompt_is_hashed_but_not_stored(self):
        config = GenerationConfig(model_name="m")
        prompt = "x" * (REPLAY_KEY_MEMO_MAX_PROMPT + 1)
        material = config.fingerprint() + "\n" + prompt
        expected = hashlib.sha256(material.encode("utf-8")).hexdigest()
        before = _replay_key_memo.cache_info()
        assert ReplayStore.key_for(prompt, config) == expected
        assert ReplayStore.key_for(prompt, config) == expected
        after = _replay_key_memo.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize
        )

    def test_replaced_config_gets_its_own_fingerprint(self):
        config = GenerationConfig(model_name="m")
        config.fingerprint()
        hotter = dataclasses.replace(config, temperature=0.7)
        assert hotter.fingerprint() != config.fingerprint()
        assert hotter.fingerprint() == GenerationConfig(
            model_name="m", temperature=0.7
        ).fingerprint()
        assert hotter == GenerationConfig(model_name="m", temperature=0.7)

    def test_config_from_env_reads_model(self, monkeypatch):
        monkeypatch.setenv(MODEL_ENV, "pinned-model")
        assert config_from_env().model_name == "pinned-model"
        assert config_from_env(model_name="x").model_name == "x"
        monkeypatch.delenv(MODEL_ENV)
        assert config_from_env().model_name == "default"


class TestHttpBackend:
    def test_successful_request(self, env):
        post = PostRecorder(
            [FakeResponse(200, chat_body("LTL: F(a)\nFINISH", model="m", id="r1"))]
        )
        backend = HttpBackend(post_fn=post)
        config = GenerationConfig(temperature=0.5)
        completion = backend.complete("the prompt", config)

        assert completion.text == "LTL: F(a)\nFINISH"
        assert completion.finish_reason == "stop"
        assert completion.latency_s >= 0.0
        assert completion.provider_metadata == {"model": "m", "id": "r1"}

        sent = post.requests[0]
        assert sent["url"] == "https://mirror.invalid/v1/chat/completions"
        assert sent["json"] == {
            "model": "default",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.5,
            "max_tokens": 400,
            "stop": ["FINISH"],
        }
        assert sent["headers"]["Authorization"] == "Bearer k-test"
        assert sent["timeout"] == 60.0

    def test_missing_key_fails_before_any_request(self, env):
        env.delenv(API_KEY_ENV)
        post = PostRecorder([])
        with pytest.raises(AuthenticationError):
            HttpBackend(post_fn=post).complete("p", GenerationConfig())
        assert post.requests == []

    def test_missing_endpoint(self, env):
        env.delenv(ENDPOINT_ENV)
        with pytest.raises(GatewayError) as exc:
            HttpBackend(post_fn=PostRecorder([])).complete("p", GenerationConfig())
        assert "no endpoint configured" in str(exc.value)

    def test_explicit_endpoint_beats_env(self, env):
        post = PostRecorder([FakeResponse(200, chat_body("x"))])
        HttpBackend(endpoint="https://direct.invalid/v1", post_fn=post).complete(
            "p", GenerationConfig()
        )
        assert post.requests[0]["url"] == "https://direct.invalid/v1"

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_rejection_is_not_retried(self, env, status):
        post = PostRecorder([FakeResponse(status)])
        sleeps = []
        backend = HttpBackend(post_fn=post, sleep_fn=sleeps.append)
        with pytest.raises(AuthenticationError):
            backend.complete("p", GenerationConfig())
        assert len(post.requests) == 1
        assert sleeps == []

    def test_429_retried_then_succeeds(self, env):
        post = PostRecorder([FakeResponse(429), FakeResponse(200, chat_body("ok"))])
        sleeps = []
        backend = HttpBackend(post_fn=post, sleep_fn=sleeps.append)
        completion = backend.complete("p", GenerationConfig())
        assert completion.text == "ok"
        assert len(post.requests) == 2
        assert sleeps == [0.5]

    def test_5xx_exhausts_retry_budget(self, env):
        post = PostRecorder([FakeResponse(503)] * 4)
        sleeps = []
        backend = HttpBackend(post_fn=post, sleep_fn=sleeps.append)
        with pytest.raises(ProviderError) as exc:
            backend.complete("p", GenerationConfig(max_network_retries=3))
        assert exc.value.status == 503
        assert len(post.requests) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_other_4xx_fails_immediately(self, env):
        post = PostRecorder([FakeResponse(404)])
        with pytest.raises(ProviderError) as exc:
            HttpBackend(post_fn=post).complete("p", GenerationConfig())
        assert exc.value.status == 404
        assert len(post.requests) == 1

    def test_connection_failures_become_network_error(self, env):
        post = PostRecorder([requests.ConnectionError("boom")] * 2)
        backend = HttpBackend(post_fn=post, sleep_fn=lambda s: None)
        with pytest.raises(NetworkError):
            backend.complete("p", GenerationConfig(max_network_retries=1))
        assert len(post.requests) == 2

    def test_zero_retries_means_one_attempt(self, env):
        post = PostRecorder([requests.ConnectionError("boom")])
        backend = HttpBackend(post_fn=post, sleep_fn=lambda s: None)
        with pytest.raises(NetworkError):
            backend.complete("p", GenerationConfig(max_network_retries=0))
        assert len(post.requests) == 1

    def test_default_post_is_requests_post(self, env):
        post = PostRecorder([FakeResponse(200, chat_body("LTL: F(a)"))])
        env.setattr(requests, "post", post)
        completion = HttpBackend().complete("the prompt", GenerationConfig())
        assert completion.text == "LTL: F(a)"
        assert len(post.requests) == 1
        assert post.requests[0]["json"]["messages"][0]["content"] == "the prompt"

    def test_default_post_connection_failures_become_network_error(self, env):
        post = PostRecorder([requests.ConnectionError("boom")] * 3)
        env.setattr(requests, "post", post)
        backend = HttpBackend(sleep_fn=lambda s: None)
        with pytest.raises(NetworkError):
            backend.complete("p", GenerationConfig(max_network_retries=2))
        assert len(post.requests) == 3

    @pytest.mark.parametrize("body,raw", [
        (None, "<html>gateway timeout</html>"),
        ({"choices": []}, None),
        ({"choices": [{"message": {}}]}, None),
        ({"choices": [{"message": {"content": 17}}]}, None),
    ])
    def test_malformed_bodies(self, env, body, raw):
        post = PostRecorder([FakeResponse(200, body, raw=raw)])
        with pytest.raises(ProviderError) as exc:
            HttpBackend(post_fn=post).complete("p", GenerationConfig())
        assert "malformed response body" in str(exc.value)

    def test_missing_finish_reason_defaults_to_stop(self, env):
        body = {"choices": [{"message": {"content": "x"}, "finish_reason": None}]}
        post = PostRecorder([FakeResponse(200, body)])
        completion = HttpBackend(post_fn=post).complete("p", GenerationConfig())
        assert completion.finish_reason == "stop"


class TestMockBackend:
    def test_queue_mode_serves_in_order_and_logs_prompts(self):
        backend = MockBackend(queue=["one", Completion(text="two", finish_reason="length")])
        config = GenerationConfig()
        assert backend.complete("p1", config).text == "one"
        second = backend.complete("p2", config)
        assert (second.text, second.finish_reason) == ("two", "length")
        assert backend.calls == ["p1", "p2"]

    def test_queue_exhaustion(self):
        backend = MockBackend(queue=["only"])
        backend.complete("p", GenerationConfig())
        with pytest.raises(ScriptExhaustedError):
            backend.complete("p", GenerationConfig())

    def test_exception_entries_are_raised(self):
        backend = MockBackend(queue=[ProviderError("scripted failure", status=500)])
        with pytest.raises(ProviderError):
            backend.complete("p", GenerationConfig())

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            MockBackend()
        with pytest.raises(ValueError):
            MockBackend(queue=[], scripts=[[]])

    def test_script_mode_isolates_runs(self):
        backend = MockBackend(scripts=[["a0", "a1"], ["b0"]])
        config = GenerationConfig()
        run0, run1 = backend.for_run(0), backend.for_run(1)
        assert run1.complete("p", config).text == "b0"
        assert run0.complete("p", config).text == "a0"
        assert run0.complete("p", config).text == "a1"
        with pytest.raises(ScriptExhaustedError) as exc:
            run0.complete("p", config)
        assert "run 0" in str(exc.value)

    def test_script_mode_accepts_a_mapping(self):
        backend = MockBackend(scripts={2: ["late"]})
        assert backend.for_run(2).complete("p", GenerationConfig()).text == "late"
        with pytest.raises(ScriptExhaustedError):
            backend.for_run(0)

    def test_script_mode_rejects_direct_complete(self):
        backend = MockBackend(scripts=[["a"]])
        with pytest.raises(ScriptExhaustedError):
            backend.complete("p", GenerationConfig())

    def test_queue_mode_for_run_returns_self(self):
        backend = MockBackend(queue=["a"])
        assert backend.for_run(0) is backend

    def test_exhaustion_messages(self):
        config = GenerationConfig()
        queued = MockBackend(queue=["only"])
        queued.complete("p1", config)
        with pytest.raises(ScriptExhaustedError) as exc:
            queued.complete("p2", config)
        assert str(exc.value) == "mock completion queue is empty"
        assert queued.calls == ["p1", "p2"]
        run = MockBackend(scripts={3: ["only"]}).for_run(3)
        run.complete("p", config)
        with pytest.raises(ScriptExhaustedError) as exc:
            run.complete("p", config)
        assert str(exc.value) == "run 3: script exhausted after 1 completions"

    @pytest.mark.parametrize("backend", [
        MockBackend(queue=[42]),
        MockBackend(scripts=[[42]]).for_run(0),
    ], ids=["queue", "script"])
    def test_unsupported_entry(self, backend):
        with pytest.raises(TypeError) as exc:
            backend.complete("p", GenerationConfig())
        assert str(exc.value) == "unsupported scripted entry: 42"


class TestReplayStore:
    def test_round_trip(self, tmp_path):
        store = ReplayStore(tmp_path / "replay.jsonl")
        config = GenerationConfig()
        assert store.get("p", config) is None
        store.put("p", config, "LTL: F(a)\nFINISH")
        completion = store.get("p", config)
        assert completion.text == "LTL: F(a)\nFINISH"
        assert completion.provider_metadata == {"replayed": True}

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p", config, "answer")
        reloaded = ReplayStore(path)
        assert len(reloaded) == 1
        assert reloaded.get("p", config).text == "answer"

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        store = ReplayStore(path)
        store.put("p", config, "first")
        store.put("p", config, "second")
        assert store.get("p", config).text == "second"
        assert ReplayStore(path).get("p", config).text == "second"
        assert len(path.read_text().splitlines()) == 2

    def test_key_distinguishes_prompt_and_config(self):
        config = GenerationConfig()
        assert ReplayStore.key_for("p", config) != ReplayStore.key_for("q", config)
        assert ReplayStore.key_for("p", config) != ReplayStore.key_for(
            "p", GenerationConfig(temperature=0.9)
        )
        assert ReplayStore.key_for("p", config) == ReplayStore.key_for(
            "p", GenerationConfig(request_timeout=1.0)
        )

    def test_bad_record_reports_line_number(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        good = json.dumps({"key": "k", "text": "t"})
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            ReplayStore(path)
        assert f"{path}:2" in str(exc.value)

    DEEP = "[" * 200_000 + "]" * 200_000

    def test_deeply_nested_record_reports_line_number(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        good = json.dumps({"key": "k", "text": "t"})
        path.write_text(good + "\n" + self.DEEP + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad replay record") as exc:
            ReplayStore(path)
        assert f"{path}:2" in str(exc.value)

    def test_deeply_nested_torn_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p1", config, "t1")
        with path.open("a", encoding="utf-8") as fh:
            fh.write(self.DEEP)
        store = ReplayStore(path)
        assert len(store) == 1
        store.put("p2", config, "t2")
        assert len(ReplayStore(path)) == 2

    def test_torn_last_line_is_skipped_and_overwritten(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        store = ReplayStore(path)
        store.put("p1", config, "t1")
        store.put("p2", config, "t2")
        half = json.dumps({"key": "k3", "text": "t3"})
        with path.open("a", encoding="utf-8") as fh:
            fh.write(half[: len(half) // 2])
        torn = ReplayStore(path)
        assert len(torn) == 2
        assert torn.get("p2", config).text == "t2"
        torn.put("p4", config, "t4")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert all(json.loads(line) for line in lines)
        assert ReplayStore(path).get("p4", config).text == "t4"

    def test_last_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p1", config, "t1")
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
        store = ReplayStore(path)
        assert store.get("p1", config).text == "t1"
        store.put("p2", config, "t2")
        reloaded = ReplayStore(path)
        assert len(reloaded) == 2

    @pytest.mark.parametrize("record", [
        {"key": [1], "text": "x"},
        {"key": "k", "text": 3},
        {"key": "k", "text": "x", "finish_reason": None},
    ], ids=["list key", "number text", "null finish reason"])
    def test_record_fields_must_be_strings(self, tmp_path, record):
        path = tmp_path / "replay.jsonl"
        good = json.dumps({"key": "k0", "text": "t0"})
        path.write_text(good + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad replay record") as exc:
            ReplayStore(path)
        assert f"{path}:2" in str(exc.value)

    def test_torn_last_line_of_the_wrong_type_is_skipped(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p1", config, "t1")
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": "k2", "text": 3}))
        store = ReplayStore(path)
        assert len(store) == 1
        store.put("p3", config, "t3")
        reloaded = ReplayStore(path)
        assert len(reloaded) == 2
        assert reloaded.get("p3", config).text == "t3"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p1", config, "t1")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n   \n")
        ReplayStore(path).put("p2", config, "t2")
        store = ReplayStore(path)
        assert len(store) == 2
        assert store.get("p2", config).text == "t2"

    def test_record_missing_text_field(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(json.dumps({"key": "k"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            ReplayStore(path)
        assert f"{path}:1" in str(exc.value)


class TestReplayBackend:
    def test_serves_recorded_completion(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        config = GenerationConfig()
        ReplayStore(path).put("p", config, "stored", finish_reason="length")
        backend = ReplayBackend(path)
        completion = backend.complete("p", config)
        assert (completion.text, completion.finish_reason) == ("stored", "length")

    def test_miss_raises_with_key_and_prompt_head(self, tmp_path):
        backend = ReplayBackend(ReplayStore(tmp_path / "replay.jsonl"))
        with pytest.raises(ReplayMissError) as exc:
            backend.complete("line one\nline two", GenerationConfig())
        message = str(exc.value)
        assert "no recorded completion" in message
        assert "line one\\nline two" in message


class TestRecording:
    def test_recording_backend_persists_inner_traffic(self, tmp_path):
        store = ReplayStore(tmp_path / "replay.jsonl")
        inner = MockBackend(queue=["live answer"])
        config = GenerationConfig()
        completion = RecordingBackend(inner, store).complete("p", config)
        assert completion.text == "live answer"
        assert store.get("p", config).text == "live answer"
        assert ReplayBackend(store).complete("p", config).text == "live answer"
