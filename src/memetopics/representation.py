"""Ten-word topic representations, from weights alone or via the model.

The direct route takes the ten heaviest c-TF-IDF words of a topic. The
prompted route shows the model the topic's top 100 weighted words and asks
it to pick the ten most related; any word it returns from outside that
candidate list is dropped (the model is told not to invent words, but
nothing enforces it), and the representation is backfilled from the weight
ranking so it stays full length. Refusals and unparseable replies fall
back to the direct route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .ctfidf import CtfidfTable, top_words
from .generation import TopicParseError, _spelled_as, _unique_labels
from .generation import format_topic_list, parse_topic_list
from .llm import ChatExchange, LlmGateway, PromptPrefix

_Method = Literal["ctfidf", "llm"]  # the routes to a representation, a run's representation_method

REPRESENTATION_SIZE = 10
CANDIDATE_POOL_SIZE = 100

WORDRANK_SYSTEM = (
    "You are designated as an AI assistant that given a list of words and a "
    "topic, determines the top 10 words related to the topic, without providing "
    "any words that are not included in the above list of words."
)

WORDRANK_QUESTION = "Given the above topic, list the top 10 words related to the topic."

WORDRANK_DEMO_TOPIC = "technology"
WORDRANK_DEMO_WORDS = (
    "singapore",
    "tracetogether",
    "computer",
    "robot",
    "google",
    "iphone",
    "airpods",
    "internet",
    "video",
    "tiktok",
    "phone",
    "app",
    "online",
    "wifi",
    "digital",
    "message",
)
WORDRANK_DEMO_ANSWER = (
    "computer",
    "robot",
    "google",
    "iphone",
    "airpods",
    "internet",
    "tracetogether",
    "video",
    "tiktok",
    "message",
)


@dataclass
class TopicRepresentation:
    """The ranked words standing for one topic.

    backfilled counts words restored from the weight ranking after the
    hallucination filter; dropped counts the filtered-out words. fallback
    marks representations that reverted to the direct route entirely.
    """

    topic: str
    words: list[str]
    method: _Method
    backfilled: int = 0
    dropped: int = 0
    fallback: bool = False


def represent_ctfidf(table: CtfidfTable, topic: str) -> TopicRepresentation:
    """Top ten weighted words of the class; fewer if the class is smaller."""
    words = top_words(table, topic, REPRESENTATION_SIZE)
    return TopicRepresentation(topic=topic, words=words, method="ctfidf")


def _render_wordrank(topic: str, words: Sequence[str]) -> str:
    numbered = ", ".join(f"{i}. {w}" for i, w in enumerate(words, start=1))
    return f"Topic : '{topic}'\nWords : {numbered}\n\n{WORDRANK_QUESTION}"


_WORDRANK_PREFIX = PromptPrefix(WORDRANK_SYSTEM, (
    ("user", _render_wordrank(WORDRANK_DEMO_TOPIC, WORDRANK_DEMO_WORDS)),
    ("assistant", format_topic_list(WORDRANK_DEMO_ANSWER)),
))


def build_wordrank_prompt(topic: str, candidates: Sequence[str]) -> ChatExchange:
    """Word-ranking prompt: the topic, its numbered candidate words (most
    heavily weighted first), and the fixed question, after one worked
    example."""
    if not 1 <= len(candidates) <= CANDIDATE_POOL_SIZE:
        raise ValueError(f"candidate list must hold 1..{CANDIDATE_POOL_SIZE} words")
    return ChatExchange(_WORDRANK_PREFIX, _render_wordrank(topic, candidates))


def represent_llm(topic: str, table: CtfidfTable, gateway: LlmGateway) -> TopicRepresentation:
    """Ask the model for the topic's ten most related candidate words.

    A replied word is the first candidate it equals by the one label rule
    (generation._spelled_as); out-of-list words are dropped and counted,
    and shortfalls are backfilled from the weight ranking, skipping the
    words already kept by the same rule. A refusal or unparseable reply
    returns the direct representation with fallback=True.
    """
    candidates = top_words(table, topic, CANDIDATE_POOL_SIZE)

    def fallback() -> TopicRepresentation:
        rep = represent_ctfidf(table, topic)
        rep.fallback = True
        return rep

    if not candidates:  # degenerate cluster: every member document is empty
        return fallback()
    outcome = gateway.complete(build_wordrank_prompt(topic, candidates))
    if outcome.status != "ok":
        return fallback()
    try:
        replied = parse_topic_list(outcome.text)
    except TopicParseError:
        return fallback()

    picked = [word for word in _spelled_as(replied, candidates) if word is not None]
    # The first ten picks, then the weight ranking's words, without repeats.
    kept = _unique_labels(picked[:REPRESENTATION_SIZE] + candidates)[:REPRESENTATION_SIZE]
    backfilled = len(kept) - min(len(picked), REPRESENTATION_SIZE)
    dropped = len(replied) - len(picked)
    return TopicRepresentation(topic, kept, "llm", backfilled=backfilled, dropped=dropped)
