"""Chat-completion gateway with http, mock, and replay backends.

All prompting stages talk to one interface: build a ChatExchange, call
LlmGateway.complete(), get an LlmOutcome. The http backend speaks the common
chat-completions JSON wire shape with retry and a sliding-window rate
limit; the mock backend answers from a substring rule table.

Any backend with a cache_path reads through that response cache, keyed by a
canonical request hash, so pipelines re-run byte-identically with zero
network calls. On a miss http and mock answer, and with record=True append
the answer, so a resumed recording pays only for misses; replay has no live
fallback and raises ReplayMissError. Without a cache, http still answers a
request it has sent before from memory. An http request that gets no answer
raises TransportError, and nothing is kept for it.

A gateway reads its cache file once, line by line: the one pass builds the
request-hash index and the sorted-line SHA-256 that a run's configuration
digest records (LlmGateway.cache_sha256). Of each record it decodes only
the response; the request stays undecoded bytes.

A stage that prompts once per item fans its calls out through
LlmGateway.map: over http up to MAX_IN_FLIGHT requests run at once, with
results in input order; mock and replay answer without waiting on
anything, so they run one call at a time.

Replay and mock runs never load the http stack (urllib, http.client, ssl,
socket) or the thread pool: the http transport and the http fan-out import
them on first use, so a run that sends nothing starts without them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Iterable, Literal, NamedTuple, TypeVar

from .corpus import _AtLeastOne, _Bound, _check_fields, _Positive, _read_json, _typed

log = logging.getLogger(__name__)

# Markers that identify a moderation block in an error body.
_POLICY_MARKERS = ("content_policy", "content_filter", "content management policy", "moderation")

DEFAULT_REFUSAL_PHRASES = ("i cannot", "i can't", "i am sorry", "i'm sorry")

Transport = Callable[[str, dict, dict, float], tuple[int, object]]

# Requests one http fan-out keeps in flight. requests_per_minute stays the
# throttle: throughput is about min(MAX_IN_FLIGHT / latency, rpm / 60).
MAX_IN_FLIGHT = 8

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


class ReplayMissError(LookupError):
    """A replay lookup found no recorded response for the request hash."""

    def __init__(self, digest: str):
        super().__init__(f"no recorded response for request hash {digest}")
        self.digest = digest


class TransportError(RuntimeError):
    """An http request got no answer: retries ran out, or its status or body is not retried."""


class TokenUsage(NamedTuple):
    prompt: int
    completion: int


@dataclass(frozen=True)
class ChatExchange:
    """System message, demonstration turns, and the final user query.

    turns alternate user/assistant starting with user, i.e. demonstrations
    come in complete pairs.
    """

    system: str
    turns: tuple[tuple[str, str], ...] = ()
    query: str = ""

    def __post_init__(self) -> None:
        for i, (role, _content) in enumerate(self.turns):
            expected = "user" if i % 2 == 0 else "assistant"
            if role != expected:
                raise ValueError(f"turn {i} must have role {expected!r}, got {role!r}")
        if len(self.turns) % 2 != 0:
            raise ValueError("demonstration turns must come in complete user/assistant pairs")

    def messages(self) -> list[dict[str, str]]:
        """Wire-shape messages array: system, demonstrations, query."""
        msgs = [{"role": "system", "content": self.system}]
        msgs.extend({"role": role, "content": content} for role, content in self.turns)
        msgs.append({"role": "user", "content": self.query})
        return msgs


@dataclass
class BackendConfig:
    """How to reach (or fake) the model; each field is checked against its
    annotation, bound included, on construction, so mock_rules is a list of
    [substring, reply] string pairs. kind selects the backend: "http" for a live
    endpoint, "mock" for the scripted rule table, "replay" for the response
    cache alone. With a cache_path every backend serves recorded responses
    first; record=True makes http and mock append each answer to a miss to
    cache_path, which it then requires (replay cannot record). Mock rules
    are not part of the request hash, so a cache recorded under other rules
    keeps serving their answers.
    """

    kind: Literal["http", "mock", "replay"] = "mock"
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model_name: str = "mock-model"
    max_tokens: _AtLeastOne = 256
    temperature: float = 0.0
    max_retries: Annotated[int, _Bound(0)] = 2
    requests_per_minute: _AtLeastOne = 60
    cache_path: str | None = None
    record: bool = False
    api_key_env: str = "OPENAI_API_KEY"
    timeout: _Positive = 30.0
    mock_rules: tuple[tuple[str, str], ...] = ()
    mock_default: str = "[]"
    refusal_phrases: tuple[str, ...] = DEFAULT_REFUSAL_PHRASES

    def __post_init__(self) -> None:
        _check_fields(self)
        # Named by their paths in a run's config, whose backend this is.
        if self.kind == "replay" and not self.cache_path:
            raise ValueError("backend.kind 'replay' requires backend.cache_path")
        if self.kind == "replay" and self.record:
            # A replay answers only from the cache, so it has nothing to record.
            raise ValueError("backend.kind 'replay' rules out backend.record")
        if self.record and not self.cache_path:
            raise ValueError("backend.record requires backend.cache_path")


@dataclass
class LlmOutcome:
    """The model's answer to one request: "ok" with its reply, which may be
    empty or not parse (the caller's judgement), or "refused" for a
    moderation block. A request that gets no answer raises TransportError.
    """

    status: Literal["ok", "refused"]
    text: str = ""
    token_usage: TokenUsage = TokenUsage(0, 0)


def canonical_request_hash(exchange: ChatExchange, model_name: str) -> str:
    """Stable hex digest of (system, turns, query, model) across runs and platforms:
    the SHA-256 of their sorted-key, compact, ASCII-only JSON object."""
    head = f'{{"model":{json.dumps(model_name)},"query":{json.dumps(exchange.query)}'
    digest = hashlib.sha256(head.encode("ascii"))
    digest.update(_shared_tail(exchange.system, exchange.turns))
    return digest.hexdigest()


@functools.lru_cache(maxsize=16)
def _shared_tail(system: str, turns: tuple[tuple[str, str], ...]) -> bytes:
    """The `,"system":...,"turns":[...]}` tail of the hash blob, encoded; a
    stage's prompts share it."""
    payload = {"system": system, "turns": [[role, content] for role, content in turns]}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return ("," + blob[1:]).encode("ascii")


def _approx_tokens(text: str) -> int:
    return len(text.split())


def _usage_estimate(exchange: ChatExchange, reply: str) -> TokenUsage:
    prompt = sum(_approx_tokens(m["content"]) for m in exchange.messages())
    return TokenUsage(prompt=prompt, completion=_approx_tokens(reply))


class RateLimiter:
    """Sliding-window limiter: at most `per_minute` acquisitions per 60 s.

    Clock and sleep are injectable so tests can drive it deterministically.
    """

    def __init__(self, per_minute: int, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.per_minute = per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            self._sleep(max(wait, 0.0))


def _urllib_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, object]:
    """Default POST transport. Returns (status_code, parsed body or text)."""
    # Imported here, not at module level: replay and mock runs never send.
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read().decode("utf-8", errors="replace")
            status = response.status
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        status = exc.code
    try:
        return status, json.loads(body)
    except json.JSONDecodeError:
        return status, body


class LlmGateway:
    """One configured backend plus its rate limiter, cache, and usage totals.

    Safe for concurrent complete() calls: the limiter, the cache, and the
    usage counters serialize internally. A run shares one gateway across
    its stages, so one limiter gates every request of the run and the
    cache file is read once. map() fans calls out over http.
    """

    def __init__(self, cfg: BackendConfig, transport: Transport | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.cfg = cfg
        self.transport = transport or _urllib_transport
        self._sleep = sleep
        self._limiter = RateLimiter(cfg.requests_per_minute, clock=clock, sleep=sleep)
        self._cache_lock = threading.Lock()
        self._usage_lock = threading.Lock()
        self._cache: _Cache | None = None
        self.total_usage = TokenUsage(0, 0)

    # -- public API ---------------------------------------------------------

    def complete(self, exchange: ChatExchange) -> LlmOutcome:
        if self.cfg.cache_path or self.cfg.kind == "http":
            outcome = self._complete_through_cache(exchange)
        else:
            outcome = self._complete_mock(exchange)
        with self._usage_lock:
            self.total_usage = TokenUsage(
                self.total_usage.prompt + outcome.token_usage.prompt,
                self.total_usage.completion + outcome.token_usage.completion,
            )
        return outcome

    def cache_sha256(self) -> str | None:
        """SHA-256 of the sorted SHA-256s of the cache file's nonblank lines,
        which a run's configuration digest records; None without a cache
        file, or when recording, since then the cache is output. Taken in the
        pass that indexes the cache, so a run reads its cache once."""
        return self._loaded_cache().sha256

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> list[_Result]:
        """[fn(item) for item in items], with calls overlapping over http.

        Over http at most MAX_IN_FLIGHT calls run at once, started in input
        order; the results come back in input order. Once a call raises, no
        further call starts, and the exception of the earliest item that
        raised propagates. Other backends call fn one item at a time.
        """
        if self.cfg.kind != "http":
            return [fn(item) for item in items]
        # Imported here, not at module level: replay and mock runs never fan out.
        from concurrent.futures import ThreadPoolExecutor

        failed = threading.Event()

        def call(item: _Item) -> _Result | None:
            # Items start in input order, so one skipped here comes after
            # the item that raised, and its result is never read.
            if failed.is_set():
                return None
            try:
                return fn(item)
            except BaseException:
                failed.set()
                raise

        pool = ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT, thread_name_prefix="llm")
        try:
            futures = [pool.submit(call, item) for item in items]
            return [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)

    # -- mock ---------------------------------------------------------------

    def _complete_mock(self, exchange: ChatExchange) -> LlmOutcome:
        query = exchange.query.lower()
        reply = self.cfg.mock_default
        for needle, scripted in self.cfg.mock_rules:
            if needle.lower() in query:
                reply = scripted
                break
        if self._is_refusal_text(reply):
            return LlmOutcome("refused", reply, _usage_estimate(exchange, reply))
        return LlmOutcome("ok", reply, _usage_estimate(exchange, reply))

    # -- response cache -----------------------------------------------------

    def _complete_through_cache(self, exchange: ChatExchange) -> LlmOutcome:
        digest = canonical_request_hash(exchange, self.cfg.model_name)
        cache = self._loaded_cache()
        if cache.error is not None:
            raise cache.error
        with self._cache_lock:
            response = cache.index.get(digest)
        if response is not None:
            usage = response.get("usage", {})
            tokens = TokenUsage(usage.get("prompt", 0), usage.get("completion", 0))
            return LlmOutcome(response["status"], response["text"], tokens)
        if self.cfg.kind == "replay":
            raise ReplayMissError(digest)
        ask = self._complete_mock if self.cfg.kind == "mock" else self._complete_http
        outcome = ask(exchange)
        self._keep(digest, exchange, outcome)
        return outcome

    def _loaded_cache(self) -> _Cache:
        """The cache as the first call found it; that call reads the file."""
        with self._cache_lock:
            if self._cache is None:
                self._cache = _read_cache(self.cfg.cache_path, self.cfg.record)
            return self._cache

    def _keep(self, digest: str, exchange: ChatExchange, outcome: LlmOutcome) -> None:
        """Add one answer to the index and, when recording, to the cache file,
        under one lock, so the index serves the answer a later replay will."""
        usage = {"prompt": outcome.token_usage.prompt, "completion": outcome.token_usage.completion}
        response = {"status": outcome.status, "text": outcome.text, "usage": usage}
        with self._cache_lock:
            if self.cfg.record and self.cfg.cache_path:
                turns = [[role, content] for role, content in exchange.turns]
                request = {"system": exchange.system, "turns": turns, "query": exchange.query}
                entry = {"hash": digest, "model": self.cfg.model_name, "request": request,
                         "response": response}
                with open(self.cfg.cache_path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(entry, sort_keys=True, ensure_ascii=True) + "\n")
            self._cache.index[digest] = response

    # -- http ---------------------------------------------------------------

    def _is_refusal_text(self, text: str) -> bool:
        lowered = text.strip().lower()
        return any(lowered.startswith(phrase) for phrase in self.cfg.refusal_phrases)

    @staticmethod
    def _is_policy_block(body: object) -> bool:
        blob = json.dumps(body).lower() if isinstance(body, (dict, list)) else str(body).lower()
        return any(marker in blob for marker in _POLICY_MARKERS)

    def _complete_http(self, exchange: ChatExchange) -> LlmOutcome:
        payload = {
            "model": self.cfg.model_name,
            "messages": exchange.messages(),
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = self.cfg.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                self._sleep(min(2.0 ** attempt, 30.0))
            self._limiter.acquire()
            try:
                status, body = self.transport(
                    self.cfg.endpoint, payload, headers, self.cfg.timeout
                )
            except Exception as exc:  # transport-level failure: retryable
                last_error = f"transport failure: {exc}"
                log.warning("completion attempt %d failed: %s", attempt + 1, last_error)
                continue
            if status == 200:
                return self._parse_http_success(exchange, body)
            if status in (400, 403) and self._is_policy_block(body):
                return LlmOutcome("refused", "", TokenUsage(0, 0))
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                log.warning("completion attempt %d got %s, retrying", attempt + 1, last_error)
                continue
            raise TransportError(f"HTTP {status}, a status that is not retried")
        raise TransportError(f"no answer after {attempts} attempt(s), the last: {last_error}")

    def _parse_http_success(self, exchange: ChatExchange, body: object) -> LlmOutcome:
        try:
            text = body["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise TransportError("HTTP 200 with a body that holds no completion")
        usage = body.get("usage")
        try:
            tokens = TokenUsage(
                int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))
            )
        except (AttributeError, TypeError, ValueError, OverflowError):
            tokens = TokenUsage(0, 0)  # no usable counts: estimated below
        if not tokens.prompt and not tokens.completion:
            tokens = _usage_estimate(exchange, text)
        return LlmOutcome("refused" if self._is_refusal_text(text) else "ok", text, tokens)


class _Cache(NamedTuple):
    """What one pass over a cache file found: the responses by request hash,
    the hash of its lines (None when recording), and the error of its first
    malformed record, which every call through the cache raises."""

    index: dict[str, dict]
    sha256: str | None
    error: Exception | None


# A record as LlmGateway._keep writes it starts with its 64-digit hex hash
# and ends with its response: json.dumps sorts the keys.
_HASH_KEY = b'"hash": '
_RECORD_HEAD = b"{" + _HASH_KEY + b'"'
_HASH_END = len(_RECORD_HEAD) + 64
_RESPONSE_KEY = b'"response": '


def _read_cache(path: str | None, record: bool) -> _Cache:
    """Read a cache file in one pass, line by line: index it by request hash,
    the last record of a hash winning, and, unless recording, hash it for
    LlmGateway.cache_sha256.

    A recording gateway opens the file to write as well, making it if missing,
    so a path it cannot write raises OSError before any request is sent.
    A record counts once its newline is on disk: an unterminated last line,
    cut short by a crash mid-write, is skipped (and hashed all the same), and
    a recording gateway cuts it so its first append starts a line of its
    own. A malformed line stops the indexing, not the hashing: its error, named
    by file and line, is kept, so it surfaces in the stage that first asks it.
    """
    index: dict[str, dict] = {}
    if not path:
        return _Cache(index, None, None)
    if record:
        f = open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")
    else:
        try:
            f = open(path, "rb")
        except FileNotFoundError:
            return _Cache(index, None, None)
    line_hashes: list[bytes] = []
    error = None
    with f:
        complete_bytes = 0
        for line in f:
            blank = line.isspace()
            terminated = line.endswith(b"\n")
            if not (record or blank):
                line_hashes.append(hashlib.sha256(line[:-1] if terminated else line).digest())
            if not terminated:
                log.warning("skipping torn last line of response cache %s", path)
                if record:
                    f.truncate(complete_bytes)
                break
            complete_bytes += len(line)
            if blank or error is not None:
                continue
            try:
                digest, response = _parse_record(line)
            # Not JSON, or not an object with a hash and a response.
            except (ValueError, KeyError, TypeError) as exc:
                with open(path, "rb") as g:  # so the loop keeps no line number
                    lineno = g.read(complete_bytes).count(b"\n")
                error = ValueError(f"{path}:{lineno}: not a cache record ({exc})")
            else:
                # The request is not kept: a run shares its gateway, so the
                # index lives as long as the run does.
                index[digest] = response
    sha256 = None if record else hashlib.sha256(b"".join(sorted(line_hashes))).hexdigest()
    return _Cache(index, sha256, error)


def _parse_record(line: bytes) -> tuple[str, dict]:
    """(request hash, response) of one terminated cache line.

    A line as _keep writes it, with one hash key, is not decoded whole: the
    hash sits at a fixed offset, and the response is the value after the
    first `"response": `. JSON escapes every `"` inside a string (RFC 8259
    section 7), so those bytes are a key; keys are sorted and the request
    holds none, so it is the top-level one, taken when its value runs to
    the record's closing brace. (The last one may be nested in a key after
    response, and a cut record can end in that key's brace.) Other lines,
    such as one with a key after response or a torn record that a later
    append continued, are decoded whole and raise if malformed. The
    request's bytes go unchecked.
    """
    if (
        line.startswith(_RECORD_HEAD)
        and line[_HASH_END : _HASH_END + 3] == b'", '
        and line[len(_RECORD_HEAD) : _HASH_END].isalnum()
        and line.endswith(b"}\n")
        and line.count(_HASH_KEY) == 1
    ):
        start = line.find(_RESPONSE_KEY, _HASH_END) + len(_RESPONSE_KEY)
        if start > _HASH_END:
            try:
                response = json.loads(line[start:-2])
            except ValueError:
                pass  # more after the response: the whole line decides
            else:
                return line[len(_RECORD_HEAD) : _HASH_END].decode("ascii"), response
    entry = json.loads(line)
    return entry["hash"], entry["response"]


def load_mock_rules(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Read a mock rule table: a JSON list of [substring, reply] pairs, or an
    object with that list under "rules"; else a ValueError naming the file."""
    data = _read_json(path, object)
    key = "rules" if isinstance(data, dict) and "rules" in data else "mock_rules"
    rules = data["rules"] if key == "rules" else data
    return _typed(rules, tuple[tuple[str, str], ...], f"{path}: {key}")
