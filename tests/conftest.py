"""Shared helpers: corpus builders and scripted backends."""

from __future__ import annotations

import copy
import json
import threading
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from memetopics.corpus import Corpus, MemeDocument
from memetopics.llm import BackendConfig, ChatExchange, LlmGateway, PromptPrefix
from memetopics.llm import canonical_request_hash
from memetopics.llm import load_mock_rules

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def corpus_from_tokens(pairs: list[tuple[str, list[str]]]) -> Corpus:
    """Build an already-processed corpus straight from (id, tokens) pairs."""
    return Corpus(
        [
            MemeDocument(id=doc_id, caption=" ".join(tokens), overlay_text="", tokens=tuple(tokens))
            for doc_id, tokens in pairs
        ]
    )


def mock_backend(rules=(), default="[]", **kwargs) -> BackendConfig:
    return BackendConfig(
        kind="mock",
        model_name="mock-model",
        mock_rules=tuple((needle, reply) for needle, reply in rules),
        mock_default=default,
        **kwargs,
    )


def run_digest(cfg) -> str:
    """cfg.config_digest as a run takes it: over the input hashes that a
    gateway of its own reads."""
    return cfg.config_digest(cfg.input_hashes(LlmGateway(cfg.backend)))


def chat_body(text: str, prompt_tokens: int, completion_tokens: int) -> dict:
    """A chat-completions reply body: one assistant message, and its token usage."""
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class RuleServer:
    """http transport answering as the fixture's mock rule table does, and
    recording the request hash of every request it receives. fault, when
    given, is called with the request's number (from 1), its ChatExchange
    and its attempt (from 1); a reply it returns, or an exception it
    returns, which is raised, replaces the rule table's answer."""

    def __init__(self, fault=None):
        self.rules = load_mock_rules(FIXTURES_DIR / "mock_rules.json")
        self.fault = fault
        self.hashes = []
        self._lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        system, *turns, query = (m["content"] for m in payload["messages"])
        pairs = tuple(zip(("user", "assistant") * len(turns), turns))
        exchange = ChatExchange(PromptPrefix(system, pairs), query)
        digest = canonical_request_hash(exchange, payload["model"])
        with self._lock:
            self.hashes.append(digest)
            number, attempt = len(self.hashes), self.hashes.count(digest)
        faulty = self.fault(number, exchange, attempt) if self.fault else None
        if isinstance(faulty, Exception):
            raise faulty
        if faulty is not None:
            return faulty
        reply = next((r for needle, r in self.rules if needle.lower() in query.lower()), "[]")
        return 200, {"choices": [{"message": {"content": reply}}]}


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")
    return path


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


# -- one node of a JSON value swapped or deleted ------------------------------

DELETE = object()
SWAPS = [None, True, 3, 0.5, "x", [], {}, DELETE]


def json_nodes(value, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_nodes(child, (*path, key))


def mutated(value, path, new):
    """value with the node at path replaced by new, or deleted."""
    if not path:
        return new
    value = copy.deepcopy(value)
    parent = reduce(getitem, path[:-1], value)
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value
