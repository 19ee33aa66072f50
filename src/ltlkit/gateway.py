"""Text-completion backends: live HTTP, scripted mocks, and replay stores.

Every backend exposes ``complete(prompt, config) -> Completion``.  The live
backend talks to an OpenAI-style chat-completions endpoint; the mock and
replay backends exist so the rest of the package can be exercised offline
and deterministically.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "LTLKIT_API_KEY"
ENDPOINT_ENV = "LTLKIT_ENDPOINT"
MODEL_ENV = "LTLKIT_MODEL"

# Where the model is told to stop: the ``FINISH`` line that ends every worked
# example and that ``extract_formula`` cuts the completion at
# (``prompts.FINISH``).
STOP_SEQUENCES = ("FINISH",)


class GatewayError(RuntimeError):
    """Base class for completion-backend failures."""


class AuthenticationError(GatewayError):
    """Missing or rejected credentials; never retried."""


class ProviderError(GatewayError):
    """The endpoint answered with a non-success status or malformed body."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class NetworkError(GatewayError):
    """The endpoint could not be reached after the configured retries."""


class ScriptExhaustedError(GatewayError):
    """A mock backend ran out of scripted completions."""


class ReplayMissError(GatewayError):
    """A replay backend has no stored completion for the requested prompt."""


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding and transport settings for a completion request."""

    model_name: str = "default"
    temperature: float = 0.2
    max_new_tokens: int = 400
    request_timeout: float = 60.0
    max_network_retries: int = 3

    def __post_init__(self) -> None:
        if not self.model_name:
            raise ValueError("model_name must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_network_retries < 0:
            raise ValueError("max_network_retries must be >= 0")

    def fingerprint(self) -> str:
        """Hash of the fields that influence what the model generates.

        Transport settings (timeout, retry count) are deliberately left
        out: two requests that differ only in those should hit the same
        replay-store entry.  The config is frozen, so the digest is
        computed on the first call and kept on the instance.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is not None:
            return digest
        payload = json.dumps(
            {
                "model": self.model_name,
                "temperature": self.temperature,
                "max_new_tokens": self.max_new_tokens,
                "stop_sequences": list(STOP_SEQUENCES),
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest


@dataclass(frozen=True)
class Completion:
    """One model response."""

    text: str
    finish_reason: str = "stop"
    latency_s: float = 0.0
    provider_metadata: Mapping[str, object] = field(default_factory=dict)


def config_from_env(**overrides) -> GenerationConfig:
    """Build a GenerationConfig, taking the model name from the environment."""
    model = os.environ.get(MODEL_ENV)
    if model and "model_name" not in overrides:
        overrides["model_name"] = model
    return GenerationConfig(**overrides)


class HttpBackend:
    """Chat-completions client for an OpenAI-compatible endpoint.

    The API key is read from the environment (``LTLKIT_API_KEY``) at
    request time; it is never accepted as a constructor argument so that
    it cannot end up in configs or logs.  ``post_fn`` and ``sleep_fn``
    exist for tests.

    ``requests`` is imported here, when a live backend is built, rather
    than with the package: offline commands never load the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        post_fn: Callable[..., requests.Response] | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        import requests

        self._endpoint = endpoint
        self._post = post_fn if post_fn is not None else requests.post
        self._network_error = requests.RequestException
        self._sleep = sleep_fn

    def _resolve_endpoint(self) -> str:
        endpoint = self._endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise GatewayError(
                f"no endpoint configured; pass one or set {ENDPOINT_ENV}"
            )
        return endpoint

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        endpoint = self._resolve_endpoint()
        api_key = os.environ.get(API_KEY_ENV, "")
        if not api_key:
            raise AuthenticationError(
                f"{API_KEY_ENV} is not set; refusing to send a request"
            )
        payload = {
            "model": config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_new_tokens,
            "stop": list(STOP_SEQUENCES),
        }
        headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }

        last_error: GatewayError | None = None
        for attempt in range(config.max_network_retries + 1):
            if attempt:
                self._sleep(0.5 * 2 ** (attempt - 1))
            started = time.monotonic()
            try:
                response = self._post(
                    endpoint,
                    json=payload,
                    headers=headers,
                    timeout=config.request_timeout,
                )
            except self._network_error as exc:
                last_error = NetworkError(f"request failed: {exc}")
                continue
            latency = time.monotonic() - started

            status = response.status_code
            if status in (401, 403):
                raise AuthenticationError(
                    f"endpoint rejected credentials (HTTP {status})"
                )
            if status == 429 or status >= 500:
                last_error = ProviderError(
                    f"endpoint returned HTTP {status}", status=status
                )
                continue
            if status != 200:
                raise ProviderError(
                    f"endpoint returned HTTP {status}", status=status
                )
            return self._parse_body(response, latency)

        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse_body(response: requests.Response, latency: float) -> Completion:
        try:
            body = response.json()
            choice = body["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason") or "stop"
        except (ValueError, LookupError, TypeError) as exc:
            raise ProviderError(f"malformed response body: {exc}") from exc
        if not isinstance(text, str):
            raise ProviderError("malformed response body: content is not text")
        metadata = {
            k: body[k] for k in ("model", "id", "usage") if k in body
        }
        return Completion(
            text=text,
            finish_reason=str(finish),
            latency_s=latency,
            provider_metadata=metadata,
        )


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is an error, where
    ``json`` would keep the last value silently.  Mock scripts and dataset
    lines are read with it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears more than once")
        obj[key] = value
    return obj


class _ScriptCursor:
    """Serves scripted completions in order: one run's script, or, when
    ``run_index`` is None, a mock backend's shared queue."""

    def __init__(self, entries: Sequence, run_index: int | None):
        self._entries = list(entries)
        self._run_index = run_index
        self._pos = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        with self._lock:
            if self._pos >= len(self._entries):
                raise ScriptExhaustedError(
                    "mock completion queue is empty" if self._run_index is None
                    else f"run {self._run_index}: script exhausted after "
                    f"{self._pos} completions"
                )
            entry = self._entries[self._pos]
            self._pos += 1
        if isinstance(entry, BaseException):
            raise entry
        if isinstance(entry, str):
            return Completion(text=entry)
        if not isinstance(entry, Completion):
            raise TypeError(f"unsupported scripted entry: {entry!r}")
        return entry


class MockBackend:
    """Scripted backend for tests.

    Two modes: a shared FIFO ``queue`` consumed across all calls, or
    ``scripts`` (one entry list per run index) consumed through
    :meth:`for_run`, so what a run gets does not depend on the order
    the runs are served in; either way a ``_ScriptCursor`` serves them.
    Entries may be strings, Completions, or exception instances (raised
    when reached).  ``calls`` logs every queue-mode prompt.
    """

    # Answers from memory, so translate runs its k runs inline.
    in_memory = True

    def __init__(
        self,
        queue: Sequence | None = None,
        scripts: Mapping[int, Sequence] | Sequence[Sequence] | None = None,
    ):
        if (queue is None) == (scripts is None):
            raise ValueError("provide exactly one of queue= or scripts=")
        self._queue = _ScriptCursor(queue, None) if queue is not None else None
        if scripts is None:
            self._scripts = None
        elif isinstance(scripts, Mapping):
            self._scripts = dict(scripts)
        else:
            self._scripts = dict(enumerate(scripts))
        self.calls: list[str] = []

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        if self._queue is None:
            raise ScriptExhaustedError(
                "this backend is script-mode; use for_run(run_index)"
            )
        self.calls.append(prompt)
        return self._queue.complete(prompt, config)

    def for_run(self, run_index: int):
        if self._scripts is None:
            return self
        try:
            entries = self._scripts[run_index]
        except KeyError:
            raise ScriptExhaustedError(
                f"no script registered for run {run_index}"
            ) from None
        return _ScriptCursor(entries, run_index)


# key_for answers from a least-recently-used table of this many
# (fingerprint, prompt) entries, so the k runs of one translation hash
# their shared prompt once.  Prompts longer than REPLAY_KEY_MEMO_MAX_PROMPT
# characters are hashed afresh every time and never stored, so an
# oversized instruction cannot pin its prompt in the table.
REPLAY_KEY_MEMO_SIZE = 256
REPLAY_KEY_MEMO_MAX_PROMPT = 8192


def _replay_key(fingerprint: str, prompt: str) -> str:
    material = fingerprint + "\n" + prompt
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


_replay_key_memo = functools.lru_cache(maxsize=REPLAY_KEY_MEMO_SIZE)(_replay_key)


class ReplayStore:
    """Append-only JSONL store of recorded completions.

    Keys hash the generation fingerprint together with the prompt, so a
    store can hold traffic for several configs at once.  When the file
    contains several records with the same key the last one wins, which
    makes re-recording a session as simple as appending to the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[str, str]] = {}
        # Set when the file does not end in a newline: the size to cut it
        # back to, and what to write before the next record.
        self._repair: tuple[int, str] | None = None
        if self.path.exists():
            self._load()

    @staticmethod
    def key_for(prompt: str, config: GenerationConfig) -> str:
        if len(prompt) > REPLAY_KEY_MEMO_MAX_PROMPT:
            return _replay_key(config.fingerprint(), prompt)
        return _replay_key_memo(config.fingerprint(), prompt)

    def _load(self) -> None:
        """Read every record; a malformed line raises with its line number.

        The one exception is a malformed final line with no newline, the
        trace of an append cut short: it is skipped, and the next ``put``
        overwrites it.
        """
        size = 0
        raw = b"\n"
        with self.path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                start, size = size, size + len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    text = record["text"]
                    finish = record.get("finish_reason", "stop")
                    if not all(isinstance(v, str) for v in (key, text, finish)):
                        raise TypeError("key, text and finish_reason must be strings")
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    if not raw.endswith(b"\n"):
                        self._repair = (start, "")
                        return
                    raise ValueError(
                        f"{self.path}:{lineno}: bad replay record: {exc}"
                    ) from exc
                self._entries[key] = (text, finish)
        if not raw.endswith(b"\n"):
            self._repair = (size, "\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, prompt: str, config: GenerationConfig) -> Completion | None:
        entry = self._entries.get(self.key_for(prompt, config))
        if entry is None:
            return None
        text, finish = entry
        return Completion(
            text=text,
            finish_reason=finish,
            provider_metadata={"replayed": True},
        )

    def put(
        self,
        prompt: str,
        config: GenerationConfig,
        text: str,
        finish_reason: str = "stop",
    ) -> None:
        key = self.key_for(prompt, config)
        record = {
            "key": key,
            "model": config.model_name,
            "temperature": config.temperature,
            "max_new_tokens": config.max_new_tokens,
            "stop_sequences": list(STOP_SEQUENCES),
            "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "text": text,
            "finish_reason": finish_reason,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                if self._repair is not None:
                    size, separator = self._repair
                    fh.truncate(size)
                    line = separator + line
                    self._repair = None
                fh.write(line + "\n")
            self._entries[key] = (text, finish_reason)


class ReplayBackend:
    """Serves completions from a ReplayStore; misses raise ReplayMissError."""

    # Answers from memory, so translate runs its k runs inline.
    in_memory = True

    def __init__(self, store: ReplayStore | str | Path):
        self.store = store if isinstance(store, ReplayStore) else ReplayStore(store)

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        completion = self.store.get(prompt, config)
        if completion is None:
            key = ReplayStore.key_for(prompt, config)
            raise ReplayMissError(
                f"no recorded completion for key {key[:16]}... "
                f"(prompt starts: {prompt[:80]!r})"
            )
        return completion


class RecordingBackend:
    """Wraps a live backend and persists every completion to a store."""

    def __init__(self, inner, store: ReplayStore):
        self.inner = inner
        self.store = store

    def complete(self, prompt: str, config: GenerationConfig) -> Completion:
        completion = self.inner.complete(prompt, config)
        self.store.put(prompt, config, completion.text, completion.finish_reason)
        return completion
