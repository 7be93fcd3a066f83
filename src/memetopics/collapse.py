"""Collapse the generated topic set down to K topics, two ways.

Prompt matching walks the frequency-sorted topic list from the rare end,
asking the model which of the (at most M) most frequent topics subsumes
the current one; topics the model cannot place land in Miscellaneous.
Word similarity matching instead repeatedly merges the pair of topics
whose top-20 weighted words overlap the most, normalized by the smaller
word count:

    similarity(a, b) = |words(a) & words(b)| / min(|words(a)|, |words(b)|)

Both run until exactly K non-reserved topics remain; the reserved
Miscellaneous/Inappropriate clusters never merge and never count toward K.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus
from .ctfidf import TopicWordSet, ctfidf_from_clusters, top_words
from .generation import (
    INAPPROPRIATE,
    MISCELLANEOUS,
    RESERVED_LABELS,
    TopicAssignment,
    TopicParseError,
    format_topic_list,
    parse_topic_list,
)
from .llm import BackendConfig, ChatExchange, LlmGateway, as_gateway

log = logging.getLogger(__name__)

COLLAPSE_SYSTEM = (
    "You are designated as an AI assistant that determine the most appropriate "
    "overarching topic from a given list of topics that best corresponds to a "
    "current topic. Specifically, you are required to identify the most fitting "
    "topic from the provided list that is associated with the given topic, "
    "without providing any topics that are not included in the given list of "
    "topics."
)

COLLAPSE_QUESTION = (
    "What is the most suitable topic from the given topics that corresponds to "
    "the current topic?"
)

# One worked example pairs an unseen label with its obvious parent.
COLLAPSE_DEMO_CANDIDATES = (
    "Military",
    "Politics",
    "Education",
    "Sports",
    "Entertainment",
    "Healthcare",
)
COLLAPSE_DEMO_CURRENT = "War"
COLLAPSE_DEMO_ANSWER = "Military"

DEFAULT_WINDOW = 40
TOP_WORDS_FOR_SIMILARITY = 20


@dataclass
class CollapseState:
    """Mutable clustering state shared by both collapse algorithms.

    topics maps each live label to its member doc ids; misc/inappropriate
    hold the reserved clusters. merge_log records (source, target, method)
    in execution order and replays to the current state.
    """

    topics: dict[str, set[str]]
    misc: set[str] = field(default_factory=set)
    inappropriate: set[str] = field(default_factory=set)
    merge_log: list[tuple[str, str, str]] = field(default_factory=list)
    k_target: int = 1
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if self.k_target < 1:
            raise ValueError("k_target must be >= 1")
        if self.window < 2:
            raise ValueError("window must be >= 2")
        keys = [label.casefold() for label in self.topics]
        if len(set(keys)) != len(keys):
            raise ValueError("topic labels must be unique case-insensitively")
        for key in keys:
            if key in RESERVED_LABELS:
                raise ValueError(f"{key!r} is a reserved cluster name, not a topic")

    @property
    def freq(self) -> dict[str, int]:
        return {label: len(ids) for label, ids in self.topics.items()}

    def non_reserved_count(self) -> int:
        return len(self.topics)

    def clusters(self) -> dict[str, set[str]]:
        """All clusters including the reserved ones (when non-empty)."""
        out: dict[str, set[str]] = {label: set(ids) for label, ids in self.topics.items()}
        if self.misc:
            out[MISCELLANEOUS] = set(self.misc)
        if self.inappropriate:
            out[INAPPROPRIATE] = set(self.inappropriate)
        return out

    def copy(self) -> "CollapseState":
        return CollapseState(
            topics={label: set(ids) for label, ids in self.topics.items()},
            misc=set(self.misc),
            inappropriate=set(self.inappropriate),
            merge_log=list(self.merge_log),
            k_target=self.k_target,
            window=self.window,
        )

    @classmethod
    def from_assignments(
        cls,
        assignments: Iterable[TopicAssignment],
        k_target: int,
        window: int = DEFAULT_WINDOW,
    ) -> "CollapseState":
        """Seed the state from generation output. Labels that differ only in
        case are folded together, keeping the first-seen casing."""
        canonical: dict[str, str] = {}
        topics: dict[str, set[str]] = {}
        misc: set[str] = set()
        inappropriate: set[str] = set()
        for assignment in assignments:
            if assignment.provenance == "miscellaneous":
                misc.add(assignment.doc_id)
                continue
            if assignment.provenance == "inappropriate":
                inappropriate.add(assignment.doc_id)
                continue
            for label in assignment.topics:
                key = label.casefold()
                label = canonical.setdefault(key, label)
                topics.setdefault(label, set()).add(assignment.doc_id)
        return cls(
            topics=topics,
            misc=misc,
            inappropriate=inappropriate,
            k_target=k_target,
            window=window,
        )


def _frequency_order(state: CollapseState) -> list[str]:
    """Labels sorted by descending frequency, ties alphabetical."""
    return sorted(state.topics, key=lambda label: (-len(state.topics[label]), label))


def build_collapse_prompt(candidates: Sequence[str], current: str) -> ChatExchange:
    """Merge prompt: numbered candidate topics, the current topic, and the
    fixed question, preceded by one demonstration pair."""
    if not candidates:
        raise ValueError("candidate list must not be empty")
    if any(current.casefold() == c.casefold() for c in candidates):
        raise ValueError(f"current topic {current!r} must not appear in the candidate list")

    def render(topic_list: Sequence[str], topic: str) -> str:
        numbered = "\n".join(f"{i}. {label}" for i, label in enumerate(topic_list, start=1))
        return f"Topics:\n{numbered}\n\nCurrent topic : {topic}\n\n{COLLAPSE_QUESTION}"

    turns = (
        ("user", render(COLLAPSE_DEMO_CANDIDATES, COLLAPSE_DEMO_CURRENT)),
        ("assistant", format_topic_list([COLLAPSE_DEMO_ANSWER])),
    )
    return ChatExchange(
        system=COLLAPSE_SYSTEM, turns=turns, query=render(candidates, current)
    )


def collapse_pbm(state: CollapseState, backend: BackendConfig | LlmGateway) -> CollapseState:
    """Prompt-matched collapse.

    Each cycle takes the currently least frequent topic and asks the model
    to place it among the top-min(M, n-1) topics by frequency. A reply that
    names a candidate merges the topic there; a refusal, unparseable reply,
    or out-of-list answer routes the topic's documents to Miscellaneous.
    Frequencies are recomputed after every step.
    """
    state = state.copy()
    if state.non_reserved_count() < state.k_target:
        log.warning(
            "collapse is a no-op: %d topics is fewer than K=%d",
            state.non_reserved_count(),
            state.k_target,
        )
        return state
    gateway = as_gateway(backend)
    while state.non_reserved_count() > state.k_target:
        order = _frequency_order(state)
        current = order[-1]
        candidates = order[:-1][: state.window]
        outcome = gateway.complete(build_collapse_prompt(candidates, current))
        target = None
        if outcome.status == "ok":
            try:
                labels = parse_topic_list(outcome.text)
            except TopicParseError:
                labels = []
            if labels:
                wanted = labels[0].casefold()
                target = next((c for c in candidates if c.casefold() == wanted), None)
        if target is None:
            state.misc |= state.topics.pop(current)
            state.merge_log.append((current, MISCELLANEOUS, "pbm"))
        else:
            state.topics[target] |= state.topics.pop(current)
            state.merge_log.append((current, target, "pbm"))
    return state


def _similarity(shared: int, size_a: int, size_b: int) -> float:
    return shared / min(size_a, size_b)


def topic_similarity(a: TopicWordSet, b: TopicWordSet) -> float:
    """Shared-word fraction of two topic word sets, in [0, 1]."""
    if not a.words or not b.words:
        raise ValueError("topic similarity is undefined for an empty word set")
    set_a, set_b = set(a.words), set(b.words)
    return _similarity(len(set_a & set_b), len(set_a), len(set_b))


def _most_similar_pair(word_sets: dict[str, set[str]]) -> tuple[str, str] | None:
    """The (a, b) pair, a < b, of highest similarity; ties go to the smallest
    pair. Only pairs sharing a word are scored, found through a word ->
    labels index; None when no two topics share a word."""
    holders: dict[str, list[str]] = {}
    for label in sorted(word_sets):
        for word in word_sets[label]:
            holders.setdefault(word, []).append(label)
    shared: Counter[tuple[str, str]] = Counter()
    for labels in holders.values():
        if len(labels) > 1:
            shared.update(combinations(labels, 2))
    best_sim = 0.0
    best_pair: tuple[str, str] | None = None
    for pair, count in shared.items():
        sim = _similarity(count, len(word_sets[pair[0]]), len(word_sets[pair[1]]))
        if sim > best_sim or (sim == best_sim and pair < best_pair):
            best_sim = sim
            best_pair = pair
    return best_pair


def _merge_orientation(state: CollapseState, a: str, b: str) -> tuple[str, str]:
    """(source, target): the lower-frequency topic folds into the higher;
    on a tie the alphabetically smaller label survives."""
    freq_a, freq_b = len(state.topics[a]), len(state.topics[b])
    if freq_a > freq_b or (freq_a == freq_b and a < b):
        return b, a
    return a, b


def collapse_wsm(
    state: CollapseState,
    corpus: Corpus,
    top_n_words: int = TOP_WORDS_FOR_SIMILARITY,
) -> CollapseState:
    """Word-similarity collapse.

    Builds the c-TF-IDF table once and updates it in place after every
    merge (CtfidfTable.merge), then re-ranks every topic's top words, since
    the class count moves every weight. Each step merges the pair of
    highest similarity, ties going to the lexicographically smallest pair,
    and the collapse stops at K topics. Nothing is routed to Miscellaneous
    here; if no pair shares any word, the two least frequent topics merge
    and the step is logged as a zero-similarity merge.
    """
    state = state.copy()
    if state.non_reserved_count() < state.k_target:
        log.warning(
            "collapse is a no-op: %d topics is fewer than K=%d",
            state.non_reserved_count(),
            state.k_target,
        )
    if state.non_reserved_count() <= state.k_target:
        return state
    table = ctfidf_from_clusters(state.topics, corpus)
    while True:
        word_sets = {
            label: set(top_words(table, label, top_n_words).words) for label in state.topics
        }
        best_pair = _most_similar_pair(word_sets)
        if best_pair is None:
            order = _frequency_order(state)
            source, target = _merge_orientation(state, order[-1], order[-2])
            method = "wsm-zero"
        else:
            source, target = _merge_orientation(state, *best_pair)
            method = "wsm"
        state.topics[target] |= state.topics.pop(source)
        state.merge_log.append((source, target, method))
        if state.non_reserved_count() == state.k_target:
            return state
        table.merge(source, target, state.topics[target], corpus)


def save_merge_log(state: CollapseState, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for source, target, method in state.merge_log:
            record = {"source": source, "target": target, "method": method}
            f.write(json.dumps(record, sort_keys=True, ensure_ascii=True) + "\n")


def save_clusters(state: CollapseState, path: str | Path) -> None:
    """Final clustering as JSON {topic: [doc ids]}, ids sorted for stability."""
    payload = {label: sorted(ids) for label, ids in state.clusters().items()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, ensure_ascii=True, indent=2)
        f.write("\n")


def load_clusters(path: str | Path) -> dict[str, set[str]]:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    return {label: set(ids) for label, ids in payload.items()}
