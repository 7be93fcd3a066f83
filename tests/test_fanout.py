"""LlmGateway.map: concurrent http stages give the sequential result."""

import re
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics import llm
from memetopics.collapse import CollapseState
from memetopics.corpus import Corpus
from memetopics.generation import Demonstration, DemonstrationSet, build_generation_prompt
from memetopics.generation import generate_topics
from memetopics.llm import MAX_IN_FLIGHT, BackendConfig, ChatExchange, LlmGateway, PromptPrefix
from memetopics.llm import TransportError
from memetopics.llm import _read_cache, canonical_request_hash
from memetopics.pipeline import RunConfig, stage_represent

from conftest import chat_body, corpus_from_tokens, mock_backend

OUTCOMES = ("ok", "refusal", "policy", "flaky", "malformed")
VOCAB = ("cat", "dog", "vote", "tax", "goal", "ball", "rain", "sun")
DEMOS = DemonstrationSet(items=(Demonstration("a cat", "meow", ("Cats",)),))
POLICY_BODY = {"error": {"code": "content_policy_violation", "message": "blocked"}}
_TOPIC = re.compile(r"^Topic : '(topic\d+)'$", re.MULTILINE)
_CAPTION = re.compile(r"Caption: (doc\d+)")
_WORDS = re.compile(r"^Words : (.+)$", re.MULTILINE)


class ScriptedServer:
    """Thread-safe http transport. Each request is answered by the script
    entry of the document or topic its query names: an outcome and a delay
    in milliseconds. A flaky entry fails with 503 on its first call."""

    def __init__(self, script):
        self.script = script
        self.calls = Counter()
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        query = payload["messages"][-1]["content"]
        topic = _TOPIC.search(query)
        tag = topic.group(1) if topic else _CAPTION.search(query).group(1)
        outcome, delay_ms = self.script[tag]
        with self._lock:
            first = not self.calls[tag]
            self.calls[tag] += 1
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            time.sleep(delay_ms / 1000)
        finally:
            with self._lock:
                self.active -= 1
        tokens = 10 + int(tag[-1])
        if outcome == "refusal":
            return 200, chat_body("I cannot help with that.", tokens, 3)
        if outcome == "policy":
            return 400, POLICY_BODY
        if outcome == "flaky" and first:
            return 503, "unavailable"
        if outcome == "malformed":
            return 200, {"choices": []}
        if topic:
            # Three candidates, reversed, and one word from no list.
            listed = _WORDS.search(query).group(1).split(", ")
            picks = [item.split(". ", 1)[1] for item in listed[:3]][::-1] + ["zzinvented"]
            return 200, chat_body(repr(picks), tokens, len(picks))
        return 200, chat_body(f"['Label {tag}']", tokens, 3)

    def total_calls(self):
        with self._lock:
            return sum(self.calls.values())


def http_gateway(script, **kwargs):
    cfg = BackendConfig(
        kind="http", model_name="test-model", max_retries=1, requests_per_minute=1_000_000,
        **kwargs,
    )
    return LlmGateway(cfg, transport=ScriptedServer(script), sleep=lambda s: None)


def run_stages(corpus, topics, script, outdir, **backend):
    """Generate, then represent the given topics, through one gateway. Returns
    what each stage returned and the usage after it, up to the message of the
    TransportError a stage raised; and the transport."""
    gateway = http_gateway(script, **backend)
    cfg = RunConfig(corpus_path="unused", collapse_method="pbm", representation_method="llm")
    done = []
    try:
        done += [generate_topics(corpus, DEMOS, gateway), gateway.total_usage]
        reps, _ = stage_represent(cfg, outdir, corpus, CollapseState(topics=topics), gateway)
        done += [reps, gateway.total_usage]
    except TransportError as exc:
        done.append(str(exc))
    return done, gateway.transport


entry = st.tuples(st.sampled_from(OUTCOMES), st.integers(0, 3))


@settings(max_examples=25, deadline=None)
@given(
    docs=st.lists(
        st.tuples(entry, st.integers(0, 3), st.lists(st.sampled_from(VOCAB), max_size=4)),
        min_size=1, max_size=14,
    ),
    topic_entries=st.lists(entry, min_size=4, max_size=4),
)
def test_concurrent_stages_equal_a_sequential_run(docs, topic_entries):
    corpus = corpus_from_tokens(
        [(f"doc{i}", [f"doc{i}", *words]) for i, (_, _, words) in enumerate(docs)]
    )
    script = {f"doc{i}": doc_entry for i, (doc_entry, _, _) in enumerate(docs)}
    script.update({f"topic{j}": topic_entry for j, topic_entry in enumerate(topic_entries)})
    topics = {}
    for i, (_, topic, _) in enumerate(docs):
        topics.setdefault(f"topic{topic}", set()).add(f"doc{i}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cache = tmp / "cache.jsonl"
        concurrent, _ = run_stages(corpus, topics, script, tmp, cache_path=str(cache), record=True)
        with mock.patch.object(llm, "MAX_IN_FLIGHT", 1):
            sequential, server = run_stages(corpus, topics, script, tmp)
        # A malformed body raises, in both runs for the same stage.
        assert concurrent == sequential
        assert server.max_active == 1

        # Only answers are kept, each as a fresh run gets it; a run that
        # finished kept one for every document.
        index = _read_cache(str(cache), record=False).index
        kept = Corpus([doc for doc in corpus.documents if canonical_request_hash(
            build_generation_prompt(doc, DEMOS), "test-model") in index])
        assert all(script[doc.id][0] != "malformed" for doc in kept.documents)
        replay = BackendConfig(kind="replay", model_name="test-model", cache_path=str(cache))
        expected = generate_topics(kept, DEMOS, http_gateway(script))
        assert generate_topics(kept, DEMOS, replay) == expected
        if len(concurrent) > 1:
            assert expected == concurrent[0]


def test_concurrent_recording_over_a_filled_cache_pays_only_for_misses(tmp_path):
    script = {f"doc{i}": ("ok", 5) for i in range(24)}
    corpus = corpus_from_tokens([(f"doc{i}", [f"doc{i}", "cat"]) for i in range(24)])
    cache = tmp_path / "cache.jsonl"
    filled = Corpus([doc for doc in corpus.documents if int(doc.id[3:]) % 3 == 0])
    generate_topics(filled, DEMOS, http_gateway(script, cache_path=str(cache), record=True))

    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if "a" not in mode:
            reads.append(file)
        return open(file, mode, *args, **kwargs)

    gateway = http_gateway(script, cache_path=str(cache), record=True)
    with mock.patch.object(llm, "open", counting_open, create=True):
        assignments = generate_topics(corpus, DEMOS, gateway)
    misses = {doc.id for doc in corpus.documents} - {doc.id for doc in filled.documents}
    assert gateway.transport.calls == Counter(dict.fromkeys(misses, 1))
    assert len(reads) == 1

    replay = BackendConfig(kind="replay", model_name="test-model", cache_path=str(cache))
    assert generate_topics(corpus, DEMOS, replay) == assignments
    assert len(cache.read_text().splitlines()) == len(corpus.documents)


def test_a_raising_call_stops_new_calls_and_the_earliest_item_raises():
    # Item 5 answers slowly, so item 9 fails first; 5 must still be raised.
    script = {f"doc{i}": ("ok", 100 if i == 5 else 5) for i in range(60)}
    gateway = http_gateway(script)
    calls_at_failure = []

    def fn(i):
        gateway.complete(ChatExchange(PromptPrefix("s"), f"Caption: doc{i}"))
        if i in (5, 9, 30):
            calls_at_failure.append(gateway.transport.total_calls())
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as raised:
        gateway.map(fn, range(60))
    assert raised.value.args == (5,)
    assert gateway.transport.total_calls() - calls_at_failure[0] <= MAX_IN_FLIGHT


def test_http_calls_overlap_up_to_the_limit():
    script = {f"doc{i}": ("ok", 20) for i in range(24)}
    gateway = http_gateway(script)
    corpus = corpus_from_tokens([(f"doc{i}", [f"doc{i}", "cat"]) for i in range(24)])
    assignments = generate_topics(corpus, DEMOS, gateway)
    assert [a.doc_id for a in assignments] == [f"doc{i}" for i in range(24)]
    assert 2 <= gateway.transport.max_active <= MAX_IN_FLIGHT


def test_mock_backend_maps_on_the_calling_thread():
    gateway = LlmGateway(mock_backend(default="['Z']"))
    threads = gateway.map(lambda _: threading.current_thread(), range(3))
    assert threads == [threading.current_thread()] * 3
