"""Gateway behavior: wire shape, hashing, mock, replay, retry, rate limit."""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memetopics.llm import (
    BackendConfig,
    ChatExchange,
    LlmGateway,
    LlmOutcome,
    RateLimiter,
    ReplayMissError,
    TransportError,
    _read_cache,
    _usage_estimate,
    canonical_request_hash,
    load_mock_rules,
)

from cache_oracle import json_loads_index, sorted_lines_sha256
from conftest import chat_body, mock_backend


def exchange(query="hello", turns=()):
    return ChatExchange(system="be helpful", turns=turns, query=query)


DEMO_TURNS = (
    ("user", "first question"),
    ("assistant", "first answer"),
    ("user", "second question"),
    ("assistant", "second answer"),
)


class CountingTransport:
    """Scripted transport that records every call it receives."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append(payload)
        if not self.responses:
            raise AssertionError("transport called more times than scripted")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class EchoTransport:
    """Transport that answers every query with a list naming it."""

    def __init__(self):
        self.queries = []

    def __call__(self, url, payload, headers, timeout):
        query = payload["messages"][-1]["content"]
        self.queries.append(query)
        return 200, chat_body(f"['{query}']", 12, 3)


# -- exchange shape -----------------------------------------------------------


def test_turns_must_alternate_starting_with_user():
    with pytest.raises(ValueError):
        ChatExchange(system="s", turns=(("assistant", "a"),), query="q")
    with pytest.raises(ValueError):
        ChatExchange(system="s", turns=(("user", "u"),), query="q")  # incomplete pair


def test_messages_wire_shape():
    ex = exchange(query="q", turns=DEMO_TURNS[:2])
    messages = ex.messages()
    assert [m["role"] for m in messages] == ["system", "user", "assistant", "user"]
    assert messages[-1]["content"] == "q"


# -- canonical hash -----------------------------------------------------------


def test_hash_deterministic():
    assert canonical_request_hash(exchange(), "m") == canonical_request_hash(exchange(), "m")


def test_hash_changes_on_any_edit():
    base = canonical_request_hash(exchange("query text"), "m")
    assert canonical_request_hash(exchange("query texT"), "m") != base
    assert canonical_request_hash(exchange("query text"), "m2") != base


def test_hash_covers_demonstration_order():
    reordered = DEMO_TURNS[2:] + DEMO_TURNS[:2]
    a = canonical_request_hash(exchange(turns=DEMO_TURNS), "m")
    b = canonical_request_hash(exchange(turns=reordered), "m")
    assert a != b


def json_dumps_request_hash(exchange: ChatExchange, model_name: str) -> str:
    """The request hash as first defined: SHA-256 of one sorted-key json.dumps
    of the whole request. Every recorded cache is keyed by it."""
    payload = {
        "model": model_name,
        "system": exchange.system,
        "turns": [[role, content] for role, content in exchange.turns],
        "query": exchange.query,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_hash_of_a_fixed_exchange_is_pinned():
    pinned = ChatExchange(
        system="Tag the meme.",
        turns=(("user", 'Caption: a cat "naps"\n'), ("assistant", "['Cats']")),
        query="Caption: caf\u00e9 \u2603 back\\slash\ttab \x00",
    )
    expected = "0923e0280867d86fd430cc9e20d12fce2dc3165e1532e2d5eb36ffc0d0da4c83"
    assert canonical_request_hash(pinned, "gpt-3.5-turbo") == expected


# Non-ASCII text, quotes, backslashes and control characters, which JSON
# must escape, mixed with any other character.
tricky_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters())
)


@settings(max_examples=200, deadline=None)
@given(
    model=tricky_text,
    system=st.sampled_from(["be helpful", 'say "no"']) | tricky_text,
    pairs=st.lists(st.tuples(tricky_text, tricky_text), max_size=3),
    query=tricky_text,
)
def test_hash_equals_the_json_dumps_form(model, system, pairs, query):
    turns = tuple(turn for q, a in pairs for turn in (("user", q), ("assistant", a)))
    ex = ChatExchange(system=system, turns=turns, query=query)
    assert canonical_request_hash(ex, model) == json_dumps_request_hash(ex, model)


# -- mock backend -------------------------------------------------------------


def test_mock_rule_matches_substring():
    cfg = mock_backend(rules=[("obama", "['Politics']")], default="['Other']")
    outcome = LlmGateway(cfg).complete(exchange("a photo of obama outside"))
    assert outcome.status == "ok"
    assert outcome.text == "['Politics']"


def test_mock_is_pure_function_of_exchange():
    cfg = mock_backend(rules=[("x", "['X']")], default="['D']")
    first = LlmGateway(cfg).complete(exchange("about x"))
    second = LlmGateway(cfg).complete(exchange("about x"))
    assert (first.status, first.text, first.token_usage) == (
        second.status,
        second.text,
        second.token_usage,
    )


def test_mock_first_matching_rule_wins():
    cfg = mock_backend(rules=[("spec", "['First']"), ("s", "['Second']")])
    assert LlmGateway(cfg).complete(exchange("specific")).text == "['First']"


def test_mock_scripted_refusal_detected():
    cfg = mock_backend(rules=[("nasty", "I cannot help with that request.")])
    outcome = LlmGateway(cfg).complete(exchange("something nasty here"))
    assert outcome.status == "refused"


def test_mock_counts_tokens():
    cfg = mock_backend(default="['A', 'B']")
    outcome = LlmGateway(cfg).complete(exchange("three word query"))
    assert outcome.token_usage.prompt > 0
    assert outcome.token_usage.completion == 2


# -- record / replay ----------------------------------------------------------


def test_record_then_replay_roundtrip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    recording = mock_backend(
        rules=[("alpha", "['One']")], cache_path=str(cache), record=True
    )
    recorded = LlmGateway(recording).complete(exchange("query alpha"))

    replaying = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    replayed = LlmGateway(replaying).complete(exchange("query alpha"))
    assert replayed.status == recorded.status
    assert replayed.text == recorded.text
    assert replayed.token_usage == recorded.token_usage


def test_replay_makes_zero_network_calls(tmp_path):
    cache = tmp_path / "cache.jsonl"
    recording = mock_backend(default="['R']", cache_path=str(cache), record=True)
    LlmGateway(recording).complete(exchange("anything"))
    transport = CountingTransport([])
    cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    outcome = LlmGateway(cfg, transport=transport).complete(exchange("anything"))
    assert outcome.text == "['R']"
    assert transport.calls == []


def test_replay_miss_names_hash(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("", encoding="utf-8")
    cfg = BackendConfig(kind="replay", model_name="m", cache_path=str(cache))
    ex = exchange("never recorded")
    with pytest.raises(ReplayMissError) as err:
        LlmGateway(cfg).complete(ex)
    assert canonical_request_hash(ex, "m") in str(err.value)


def test_cache_entry_shape(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = mock_backend(default="['Z']", cache_path=str(cache), record=True)
    LlmGateway(cfg).complete(exchange("shape check", turns=DEMO_TURNS[:2]))
    entry = json.loads(cache.read_text().splitlines()[0])
    # No timestamp: equal answers recorded at different times are equal lines.
    assert set(entry) == {"hash", "model", "request", "response"}
    assert entry["request"]["query"] == "shape check"
    assert entry["response"]["status"] == "ok"


def test_recorded_refusal_replays_as_refusal(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = mock_backend(
        rules=[("bad", "I cannot help with that.")], cache_path=str(cache), record=True
    )
    LlmGateway(cfg).complete(exchange("bad thing"))
    replay_cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    assert LlmGateway(replay_cfg).complete(exchange("bad thing")).status == "refused"


def test_transport_error_is_not_recorded(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = http_cfg(cache_path=str(cache), record=True)
    failing = LlmGateway(cfg, transport=CountingTransport([(404, "nope")]), sleep=lambda s: None)
    with pytest.raises(TransportError, match="HTTP 404"):
        failing.complete(exchange("flaky"))
    assert cache.read_text() == ""
    answering = CountingTransport([(200, chat_body("['Later']", 12, 3))])
    LlmGateway(cfg, transport=answering, sleep=lambda s: None).complete(exchange("flaky"))

    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    assert [e["response"]["status"] for e in entries] == ["ok"]
    replay_cfg = BackendConfig(kind="replay", model_name="test-model", cache_path=str(cache))
    assert LlmGateway(replay_cfg).complete(exchange("flaky")).text == "['Later']"


def recorded_cache(tmp_path, *queries):
    cache = tmp_path / "cache.jsonl"
    cfg = mock_backend(default="['R']", cache_path=str(cache), record=True)
    for query in queries:
        LlmGateway(cfg).complete(exchange(query))
    return cache


def test_replay_skips_torn_last_line(tmp_path, caplog):
    cache = recorded_cache(tmp_path, "kept", "torn")
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text(lines[0] + lines[1][: len(lines[1]) // 2], encoding="utf-8")
    cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    gateway = LlmGateway(cfg)
    with caplog.at_level("WARNING", logger="memetopics.llm"):
        assert gateway.complete(exchange("kept")).text == "['R']"
    assert "torn last line" in caplog.text
    with pytest.raises(ReplayMissError):
        gateway.complete(exchange("torn"))


def test_replay_rejects_malformed_middle_line(tmp_path):
    cache = recorded_cache(tmp_path, "first", "second")
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text(lines[0][:20] + "\n" + lines[1], encoding="utf-8")
    cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    gateway = LlmGateway(cfg)
    # A run hashes its cache before any stage; the error surfaces in the
    # stage that first asks the cache, and in every later call.
    assert gateway.cache_sha256() == sorted_lines_sha256(cache)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(str(cache))}:1: not a cache record"):
            gateway.complete(exchange("second"))


def test_recording_cuts_torn_last_line(tmp_path, caplog):
    cache = recorded_cache(tmp_path, "kept", "torn")
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text(lines[0] + lines[1][: len(lines[1]) // 2], encoding="utf-8")
    with caplog.at_level("WARNING", logger="memetopics.llm"):
        recorded_cache(tmp_path, "resumed")
    assert "torn last line" in caplog.text
    cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    gateway = LlmGateway(cfg)
    assert gateway.complete(exchange("kept")).text == "['R']"
    assert gateway.complete(exchange("resumed")).text == "['R']"
    with pytest.raises(ReplayMissError):
        gateway.complete(exchange("torn"))


def test_unterminated_last_record_is_skipped_then_cut(tmp_path, caplog):
    # A record counts once its newline is on disk, even if the rest parses.
    cache = recorded_cache(tmp_path, "kept", "unterminated")
    cache.write_bytes(cache.read_bytes()[:-1])
    cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    gateway = LlmGateway(cfg)
    with caplog.at_level("WARNING", logger="memetopics.llm"):
        with pytest.raises(ReplayMissError):
            gateway.complete(exchange("unterminated"))
    assert "torn last line" in caplog.text
    assert gateway.complete(exchange("kept")).text == "['R']"

    recorded_cache(tmp_path, "resumed")
    lines = cache.read_text().splitlines(keepends=True)
    assert [json.loads(line)["request"]["query"] for line in lines] == ["kept", "resumed"]
    assert all(line.endswith("\n") for line in lines)


def test_recording_over_a_cache_pays_only_for_misses(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = http_cfg(cache_path=str(cache), record=True)
    first = EchoTransport()
    gateway = LlmGateway(cfg, transport=first, sleep=lambda s: None)
    for query in ("a", "b"):
        gateway.complete(exchange(query))

    resumed = EchoTransport()
    gateway = LlmGateway(cfg, transport=resumed, sleep=lambda s: None)
    queries = ["a", "c", "b", "d", "c"]
    assert [gateway.complete(exchange(q)).text for q in queries] == [f"['{q}']" for q in queries]
    assert resumed.queries == ["c", "d"]
    hashes = [json.loads(line)["hash"] for line in cache.read_text().splitlines()]
    assert sorted(hashes) == sorted(canonical_request_hash(exchange(q), "test-model") for q in "abcd")
    assert gateway.total_usage == (5 * 12, 5 * 3)  # hits count their recorded usage


def test_http_reads_a_cache_it_does_not_record_into(tmp_path):
    cache = recorded_cache(tmp_path, "known")
    before = cache.read_bytes()
    transport = EchoTransport()
    cfg = http_cfg(model_name="mock-model", cache_path=str(cache))
    gateway = LlmGateway(cfg, transport=transport, sleep=lambda s: None)
    assert gateway.complete(exchange("known")).text == "['R']"
    assert gateway.complete(exchange("new")).text == "['new']"
    assert transport.queries == ["new"]
    assert cache.read_bytes() == before


def record(cache, queries):
    """Record each query through one gateway; each answer names its query."""
    rules = [(query, f"['{query}']") for query in queries]
    gateway = LlmGateway(mock_backend(rules=rules, cache_path=str(cache), record=True))
    for query in queries:
        gateway.complete(exchange(query))


@settings(max_examples=60, deadline=None)
@given(before=st.integers(1, 4), after=st.integers(0, 3), point=st.integers(0, 9999))
def test_recording_resumes_after_a_cut_at_any_byte(before, after, point):
    first = [f"first{i}" for i in range(before)]
    resumed = [f"resumed{i}" for i in range(after)]
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache.jsonl"
        record(cache, first)
        recorded = cache.read_bytes()
        # point picks a relative offset, so it reaches any byte of a short cache.
        cut = point * (len(recorded) + 1) // 10000
        cache.write_bytes(recorded[:cut])
        record(cache, resumed)

        lines = recorded.splitlines(keepends=True)
        ends = [sum(len(line) for line in lines[: i + 1]) for i in range(len(lines))]
        complete = [query for query, end in zip(first, ends) if end <= cut]
        gateway = LlmGateway(
            BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
        )
        for query in complete + resumed:
            assert gateway.complete(exchange(query)).text == f"['{query}']"
        for query in first[len(complete) :]:
            with pytest.raises(ReplayMissError):
                gateway.complete(exchange(query))


# Cache record texts: any characters, with the bytes the one-pass reader
# looks for (a record head, the response key, a closing brace), escapes
# and non-ASCII drawn often.
RECORD_TEXT = st.lists(
    st.one_of(
        st.sampled_from(['"response": ', '"hash": ', '{"hash": "', "}", '"', "\\", "\n"]),
        st.sampled_from(["\u00e9", "\u2028", "\u4e2d", "\U0001f600"]),
        st.characters(codec="utf-8"),
    ),
    max_size=6,
).map("".join)
RECORD_HASHES = [hashlib.sha256(bytes([i])).hexdigest() for i in range(3)]
RECORD_FIELDS = st.fixed_dictionaries(
    {
        # Mostly the hex hashes the gateway writes, repeated so that a later
        # record of a hash replaces an earlier one.
        "hash": st.one_of(st.sampled_from(RECORD_HASHES), RECORD_TEXT),
        "model": RECORD_TEXT,
        "request": st.fixed_dictionaries(
            {"query": RECORD_TEXT, "system": RECORD_TEXT, "turns": st.lists(
                st.lists(RECORD_TEXT, min_size=2, max_size=2), max_size=2)}
        ),
        # A number too, whose every prefix is a number.
        "response": st.one_of(
            st.fixed_dictionaries(
                {"status": st.sampled_from(["ok", "refused"]), "text": RECORD_TEXT,
                 "usage": st.fixed_dictionaries({"prompt": st.integers(0, 99),
                                                 "completion": st.integers(0, 99)})}
            ),
            st.integers(100, 10**6),
        ),
    }
)
# Keys that sort before "hash", between it and "response", and after it,
# some holding a "response" or "hash" key of their own; half the records
# have none, as the gateway writes them.
EXTRA_FIELDS = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {},
        optional={
            "aaa": RECORD_TEXT,
            "meta": st.fixed_dictionaries({"hash": RECORD_TEXT}),
            "timestamp": st.floats(allow_nan=False),
            "zzz": st.fixed_dictionaries({"response": RECORD_TEXT}),
        },
    ),
)
CACHE_RECORDS = st.builds(lambda fields, extra: {**fields, **extra}, RECORD_FIELDS, EXTRA_FIELDS)
# How a line reaches the file: whole, cut short with its newline written
# anyway, or cut short with the next line appended onto it (a torn record
# that a later append continued; on the last line, a torn tail). A cut
# keeps a share of the line's bytes or drops a few from its end.
CACHE_LINES = st.lists(
    st.tuples(
        st.one_of(CACHE_RECORDS, st.sampled_from(["", "  ", "\t"])),
        st.booleans(),
        st.sampled_from(["whole", "whole", "cut", "torn"]),
        st.one_of(st.floats(0, 1, exclude_max=True), st.integers(1, 8)),
    ),
    min_size=1,
    max_size=8,
)


def cache_record(response, **extra):
    request = {"query": 'q "response": 1}', "system": "s", "turns": []}
    record = {"hash": RECORD_HASHES[0], "model": "m", "request": request, "response": response}
    return {**record, **extra}


@settings(max_examples=150, deadline=None)
@given(lines=CACHE_LINES)
# A torn record that the next one continued, a cut that leaves a number,
# a key after the response, and one whose cut leaves it the closing brace.
@example(lines=[(cache_record("a"), True, "torn", 0.6), (cache_record(7), True, "whole", 0)])
@example(lines=[(cache_record(123456), True, "cut", 2)])
@example(lines=[(cache_record("b", zzz={"response": 2}), False, "whole", 0)])
@example(lines=[(cache_record(100, zzz={"response": ""}), False, "cut", 1)])
def test_one_pass_cache_read_equals_the_json_loads_index_and_the_sorted_lines_hash(lines):
    blob = b""
    for record, ensure_ascii, damage, cut in lines:
        if not isinstance(record, str):
            record = json.dumps(record, sort_keys=True, ensure_ascii=ensure_ascii)
        line = record.encode("utf-8")
        if damage != "whole":
            line = line[: max(len(line) - cut, 0) if isinstance(cut, int) else int(cut * len(line))]
        blob += line if damage == "torn" else line + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(blob)
        cache = _read_cache(str(path), record=False)
        try:
            expected = json_loads_index(path)
        except Exception as exc:
            assert type(cache.error) is type(exc) and str(cache.error) == str(exc)
        else:
            assert cache.error is None
            assert cache.index == expected
        assert cache.sha256 == sorted_lines_sha256(path)
        assert _read_cache(str(path), record=True).sha256 is None


# Reply and query text: any characters, with the ones JSON and the cache's
# line framing escape (quotes, backslashes, newlines, non-ASCII) drawn often.
WIRE_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("'\"\\\n\r\u00e9\u2028\u4e2d\U0001f600"), st.characters()),
    max_size=40,
)
POLICY_BODY = {"error": {"code": "content_policy_violation", "message": "blocked"}}


@settings(max_examples=150, deadline=None)
@example(query="q", text=" \n", kind="empty", prompt_tokens=0, completion_tokens=0)
@given(
    query=WIRE_TEXT,
    text=WIRE_TEXT,
    kind=st.sampled_from(
        ["ok", "empty", "refusal", "policy", "http_error", "malformed", "transport_raise"]
    ),
    prompt_tokens=st.integers(0, 10_000),
    completion_tokens=st.integers(0, 10_000),
)
def test_http_record_then_replay_roundtrip_property(
    query, text, kind, prompt_tokens, completion_tokens
):
    if kind == "ok":
        text = "['" + text + "']"  # nonempty and no refusal phrase
    elif kind == "empty":
        text = "".join(filter(str.isspace, text))  # an answer, though no topic parses from it
    elif kind == "refusal":
        text = "I'm sorry, " + text
    response = {
        "ok": (200, chat_body(text, prompt_tokens, completion_tokens)),
        "empty": (200, chat_body(text, prompt_tokens, completion_tokens)),
        "refusal": (200, chat_body(text, prompt_tokens, completion_tokens)),
        "policy": (400, POLICY_BODY),
        "http_error": (404, text),
        "malformed": (200, {"choices": []}),
        "transport_raise": OSError(text),
    }[kind]
    ex = exchange(query, turns=DEMO_TURNS[:2])
    with tempfile.TemporaryDirectory() as tmp:
        cache = str(Path(tmp) / "cache.jsonl")
        cfg = http_cfg(cache_path=cache, record=True, max_retries=0)
        recording = LlmGateway(cfg, transport=CountingTransport([response]), sleep=lambda s: None)
        replaying = LlmGateway(
            BackendConfig(kind="replay", model_name="test-model", cache_path=cache)
        )
        if kind in ("http_error", "malformed", "transport_raise"):
            with pytest.raises(TransportError):
                recording.complete(ex)
            with pytest.raises(ReplayMissError):
                replaying.complete(ex)
            return
        recorded = recording.complete(ex)
        assert recorded.status == ("refused" if kind in ("refusal", "policy") else "ok")
        assert kind == "policy" or recorded.text == text
        replayed = replaying.complete(ex)
        assert isinstance(replayed, LlmOutcome)
        assert replayed == recorded


# -- http backend -------------------------------------------------------------


def http_cfg(**kwargs):
    kwargs.setdefault("kind", "http")
    kwargs.setdefault("model_name", "test-model")
    kwargs.setdefault("max_retries", 2)
    return BackendConfig(**kwargs)


def test_http_success_parses_text_and_usage():
    transport = CountingTransport([(200, chat_body("['Sports']", 12, 3))])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    outcome = gateway.complete(exchange("a query"))
    assert outcome.status == "ok"
    assert outcome.text == "['Sports']"
    assert outcome.token_usage == (12, 3)
    payload = transport.calls[0]
    assert payload["model"] == "test-model"
    assert payload["messages"][0]["role"] == "system"
    assert payload["temperature"] == 0.0


def test_http_policy_block_is_refused():
    body = {"error": {"code": "content_policy_violation", "message": "blocked"}}
    transport = CountingTransport([(400, body)])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    assert gateway.complete(exchange("profanity")).status == "refused"


def test_http_refusal_phrase_in_text():
    transport = CountingTransport([(200, chat_body("I'm sorry, I can't describe that.", 12, 3))])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    assert gateway.complete(exchange("q")).status == "refused"


def test_http_retries_then_succeeds():
    transport = CountingTransport([(503, "busy"), (200, chat_body("ok text", 12, 3))])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    outcome = gateway.complete(exchange("q"))
    assert outcome.status == "ok"
    assert len(transport.calls) == 2


def test_http_exhausted_retries_is_transport_error():
    transport = CountingTransport([(500, "x"), (500, "x"), (500, "x")])
    gateway = LlmGateway(http_cfg(max_retries=2), transport=transport, sleep=lambda s: None)
    with pytest.raises(TransportError) as raised:
        gateway.complete(exchange("q"))
    assert str(raised.value) == "no answer after 3 attempt(s), the last: HTTP 500"
    assert len(transport.calls) == 3  # initial try + 2 retries


def test_http_transport_exception_is_retried():
    transport = CountingTransport([OSError("boom"), (200, chat_body("fine", 12, 3))])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    assert gateway.complete(exchange("q")).status == "ok"


def test_http_answers_a_repeated_request_from_memory():
    transport = CountingTransport(
        [(200, chat_body("['Cats']", 12, 3)), (200, chat_body("['Dogs']", 12, 3))]
    )
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    texts = [gateway.complete(exchange(q)).text for q in ("cat", "dog", "cat", "dog")]
    assert texts == ["['Cats']", "['Dogs']", "['Cats']", "['Dogs']"]
    assert len(transport.calls) == 2
    assert gateway.total_usage == (4 * 12, 4 * 3)  # a repeat counts its first answer's usage


def test_http_asks_again_after_a_transport_error():
    transport = CountingTransport([(404, "nope"), (200, chat_body("['Cats']", 12, 3))])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    with pytest.raises(TransportError):
        gateway.complete(exchange("cat"))
    assert gateway.complete(exchange("cat")).text == "['Cats']"
    assert len(transport.calls) == 2


def test_http_non_retryable_client_error():
    # A 400 or 403 is a refusal only with a policy-error body.
    for status, body in [(401, {"error": "bad key"}), (404, "nope"), (400, {"error": "bad"}),
                         (403, "forbidden")]:
        transport = CountingTransport([(status, body)])
        gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
        with pytest.raises(TransportError, match=f"^HTTP {status}, a status that is not retried$"):
            gateway.complete(exchange("q"))
        assert len(transport.calls) == 1


@pytest.mark.parametrize(
    "usage",
    [None, "12", {"prompt_tokens": "n/a"}, {"prompt_tokens": 5, "completion_tokens": [1]}],
)
def test_http_unusable_usage_falls_back_to_the_estimate(usage):
    body = chat_body("['Sports']", 12, 3)
    body["usage"] = usage
    transport = CountingTransport([(200, body)])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    ex = exchange("q")
    outcome = gateway.complete(ex)
    assert outcome == LlmOutcome("ok", "['Sports']", _usage_estimate(ex, "['Sports']"))
    assert gateway.total_usage == outcome.token_usage


@pytest.mark.parametrize("content", [["Sports"], {"text": "['Sports']"}, 7])
def test_http_non_string_content_is_a_malformed_body(content):
    body = chat_body("unused", 12, 3)
    body["choices"][0]["message"]["content"] = content
    transport = CountingTransport([(200, body)])
    gateway = LlmGateway(http_cfg(), transport=transport, sleep=lambda s: None)
    with pytest.raises(TransportError, match="^HTTP 200 with a body that holds no completion$"):
        gateway.complete(exchange("q"))
    assert len(transport.calls) == 1

def test_gateway_accumulates_usage():
    cfg = mock_backend(default="['A']")
    gateway = LlmGateway(cfg)
    gateway.complete(exchange("one two"))
    gateway.complete(exchange("three"))
    assert gateway.total_usage.completion == 2  # one token per reply


# -- rate limiter -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_rate_limiter_bounds_any_60s_window():
    clock = FakeClock()
    limiter = RateLimiter(per_minute=5, clock=clock.time, sleep=clock.sleep)
    stamps = []
    for _ in range(12):
        limiter.acquire()
        stamps.append(clock.now)
        clock.now += 1.0  # one request per simulated second
    for i, start in enumerate(stamps):
        in_window = [t for t in stamps if start <= t < start + 60.0]
        assert len(in_window) <= 5
    assert clock.sleeps  # the limiter had to wait at least once


def test_rate_limiter_no_wait_under_limit():
    clock = FakeClock()
    limiter = RateLimiter(per_minute=100, clock=clock.time, sleep=clock.sleep)
    for _ in range(10):
        limiter.acquire()
    assert clock.sleeps == []


def test_http_calls_pass_through_limiter():
    clock = FakeClock()
    transport = CountingTransport([(200, chat_body(f"reply {i}", 12, 3)) for i in range(4)])
    cfg = http_cfg(requests_per_minute=2)
    gateway = LlmGateway(cfg, transport=transport, clock=clock.time, sleep=clock.sleep)
    for i in range(4):
        gateway.complete(exchange(f"q{i}"))  # distinct: a repeat is answered from memory
    assert len(transport.calls) == 4
    assert clock.sleeps  # third and fourth call had to wait for the window


# -- rules file ---------------------------------------------------------------


def test_load_mock_rules_list_and_object(tmp_path):
    as_list = tmp_path / "rules1.json"
    as_list.write_text(json.dumps([["a", "['A']"]]), encoding="utf-8")
    assert BackendConfig(mock_rules=load_mock_rules(as_list)).mock_rules == (("a", "['A']"),)

    as_object = tmp_path / "rules2.json"
    as_object.write_text(json.dumps({"rules": [["b", "['B']"]]}), encoding="utf-8")
    assert BackendConfig(mock_rules=load_mock_rules(as_object)).mock_rules == (("b", "['B']"),)
