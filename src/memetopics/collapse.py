"""Collapse the generated topic set down to K topics, two ways.

Prompt matching walks the frequency-sorted topic list from the rare end,
asking the model which of the (at most M) most frequent topics subsumes
the current one; topics the model cannot place land in Miscellaneous.
Word similarity matching instead repeatedly merges the pair of topics
whose top-20 weighted words overlap the most, normalized by the smaller
word count:

    similarity(a, b) = |words(a) & words(b)| / min(|words(a)|, |words(b)|)

Both take K as an argument and run until exactly K non-reserved topics
remain; the reserved Miscellaneous/Inappropriate clusters never merge and
never count toward K. Neither merge order depends on K, so a state
collapsed to K continues to any K' < K as a fresh collapse to K' would.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Annotated, Iterable, Sequence

from .corpus import Corpus, _AtLeastOne, _Bound, _typed
from .ctfidf import _grouped, ctfidf_from_clusters, idf, top_words
from .generation import (
    INAPPROPRIATE,
    MISCELLANEOUS,
    TopicAssignment,
    TopicParseError,
    _spelled_as,
    format_topic_list,
    parse_topic_list,
)
from .llm import ChatExchange, LlmGateway, PromptPrefix

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
_Window = Annotated[int, _Bound(2)]  # M: the most candidates one prompt-matching step offers
TOP_WORDS_FOR_SIMILARITY = 20
# Relative slack between a weight and the bound it must beat before wsm
# trusts a top set at lower class counts without checking it again.
_WEIGHT_MARGIN = 1e-9


@dataclass
class CollapseState:
    """Mutable clustering state shared by both collapse algorithms.

    topics maps each live label to its member doc ids; misc/inappropriate
    hold the reserved clusters. merge_log records (source, target, method)
    in execution order; merge is the one step a collapse takes, so the log
    replays to the current state from from_assignments of the assignments. The
    state does not know K: each collapse takes it, so one state continues to any smaller K.
    """

    topics: dict[str, set[str]]
    misc: set[str] = field(default_factory=set)
    inappropriate: set[str] = field(default_factory=set)
    merge_log: list[tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for label in filter(None, _spelled_as((MISCELLANEOUS, INAPPROPRIATE), self.topics)):
            raise ValueError(f"{label!r} is a reserved cluster name, not a topic")
        for label, first in zip(self.topics, _spelled_as(self.topics, self.topics)):
            if first != label:
                raise ValueError(f"topics {first!r} and {label!r} are the same label")

    def clusters(self) -> dict[str, list[str]]:
        """clusters.json: every cluster, the reserved ones when non-empty, its ids sorted."""
        reserved = {MISCELLANEOUS: self.misc, INAPPROPRIATE: self.inappropriate}
        out = {label: sorted(ids) for label, ids in self.topics.items()}
        return out | {label: sorted(ids) for label, ids in reserved.items() if ids}

    def merge(self, source: str, target: str, method: str) -> None:
        """Move live topic source's documents into target, another live topic
        or Miscellaneous, and log the step; a ValueError refuses any other."""
        if source not in self.topics:
            raise ValueError(f"merge source {source!r} is not a live topic")
        if target == source:
            raise ValueError(f"topic {source!r} cannot merge into itself")
        into = self.misc if target == MISCELLANEOUS else self.topics.get(target)
        if into is None:
            raise ValueError(f"merge target {target!r} is neither a live topic nor {MISCELLANEOUS}")
        into.update(self.topics.pop(source))
        self.merge_log.append((source, target, method))

    def copy(self) -> "CollapseState":
        return CollapseState(
            topics={label: set(ids) for label, ids in self.topics.items()},
            misc=set(self.misc),
            inappropriate=set(self.inappropriate),
            merge_log=list(self.merge_log),
        )

    @classmethod
    def from_assignments(cls, assignments: Iterable[TopicAssignment]) -> "CollapseState":
        """Seed the state from generation output. Each label joins the topic of
        the first label that is the same label (generation._spelled_as)."""
        assignments = list(assignments)
        placed = [(a.doc_id, label)  # each label of a generated assignment, with its document
                  for a in assignments if a.provenance == "generated" for label in a.topics]
        labels = [label for _, label in placed]
        topics: dict[str, set[str]] = {}
        for (doc_id, _), label in zip(placed, _spelled_as(labels, labels)):
            topics.setdefault(label, set()).add(doc_id)
        misc, inappropriate = ({a.doc_id for a in assignments if a.provenance == p}
                               for p in ("miscellaneous", "inappropriate"))
        return cls(topics, misc, inappropriate)


def _copy_to_collapse(state: CollapseState, k: int) -> CollapseState:
    """A copy of state to collapse to k >= 1 topics; warns when the state
    holds fewer than k, so that the collapse leaves it as it is."""
    _typed(k, _AtLeastOne, "k")
    if len(state.topics) < k:
        log.warning("collapse is a no-op: %d topics is fewer than K=%d", len(state.topics), k)
    return state.copy()


def _frequency_order(state: CollapseState) -> list[str]:
    """Labels sorted by descending frequency, ties alphabetical."""
    return sorted(state.topics, key=lambda label: (-len(state.topics[label]), label))


def _render_collapse(topic_list: Sequence[str], topic: str) -> str:
    numbered = "\n".join(f"{i}. {label}" for i, label in enumerate(topic_list, start=1))
    return f"Topics:\n{numbered}\n\nCurrent topic : {topic}\n\n{COLLAPSE_QUESTION}"


_COLLAPSE_PREFIX = PromptPrefix(COLLAPSE_SYSTEM, (
    ("user", _render_collapse(COLLAPSE_DEMO_CANDIDATES, COLLAPSE_DEMO_CURRENT)),
    ("assistant", format_topic_list([COLLAPSE_DEMO_ANSWER])),
))


def build_collapse_prompt(candidates: Sequence[str], current: str) -> ChatExchange:
    """Merge prompt: numbered candidate topics, the current topic, and the
    fixed question, preceded by one demonstration pair."""
    if not candidates:
        raise ValueError("candidate list must not be empty")
    if _spelled_as([current], candidates)[0] is not None:
        raise ValueError(f"current topic {current!r} must not appear in the candidate list")
    return ChatExchange(_COLLAPSE_PREFIX, _render_collapse(candidates, current))


def collapse_pbm(
    state: CollapseState, k: int, gateway: LlmGateway, window: int = DEFAULT_WINDOW
) -> CollapseState:
    """Prompt-matched collapse to k topics.

    Each cycle takes the currently least frequent topic and asks the model
    to place it among the top-min(window, n-1) topics by frequency. A reply
    that names a candidate merges the topic there; a refusal, unparseable
    reply, or out-of-list answer routes the topic's documents to
    Miscellaneous. Frequencies are recomputed after every step.
    """
    _typed(window, _Window, "window")
    state = _copy_to_collapse(state, k)
    while len(state.topics) > k:
        order = _frequency_order(state)
        current = order[-1]
        candidates = order[:-1][:window]
        outcome = gateway.complete(build_collapse_prompt(candidates, current))
        target = None
        if outcome.status == "ok":
            with contextlib.suppress(TopicParseError):
                target = _spelled_as(parse_topic_list(outcome.text)[:1], candidates)[0]
        state.merge(current, MISCELLANEOUS if target is None else target, "pbm")
    return state


def _similarity(shared: int, size_a: int, size_b: int) -> float:
    return shared / min(size_a, size_b)


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


class _WordSimilarityIndex:
    """What collapse_wsm keeps across merges, so that a merge costs what it
    changed rather than a rebuild of the c-TF-IDF table and every top set.

    Per class: the c-TF-IDF table, kept current as classes merge. Its df
    groups order each class's words by weight whatever the class count C
    is, so the class's top-n set, top_words of the table, is a prefix of
    every group; `kept` counts the top words of each group. `holds_to` is
    the lowest class count down to which the top set is known to stay the
    top set, while the class's groups do not change.

    Across classes: which classes hold each word (`holders`) and have it
    in their top set (`top_holders`), the shared top-word count of every
    pair that shares one, and a heap of (-similarity, a, b) entries, checked
    against those counts when they reach the front.
    """

    def __init__(self, topics: dict[str, set[str]], corpus: Corpus):
        self.table = ctfidf_from_clusters(topics, corpus)
        self.corpus = corpus
        self.holders: dict[str, list[str]] = {}
        for label, counts in self.table.class_tf.items():
            for word in counts:
                self.holders.setdefault(word, []).append(label)
        self.kept: dict[str, Counter[int]] = {}
        self.top: dict[str, set[str]] = {}
        self.top_holders: dict[str, list[str]] = {}
        self.shared: dict[tuple[str, str], int] = {}
        self.heap: list[tuple[float, str, str]] = []
        self.holds_to: dict[str, int] = {}
        for label in self.table.classes:
            self._set_top(label, self._recut(label))
            self.holds_to[label] = self._holds_down_to(label)

    def best_pair(self) -> tuple[str, str] | None:
        """The (a, b) pair, a < b, of highest similarity; ties go to the
        smallest pair. None when no two topics share a top word."""
        heap, shared, top = self.heap, self.shared, self.top
        while heap:
            neg_sim, a, b = heap[0]
            count = shared.get((a, b))
            if count is not None and -neg_sim == _similarity(count, len(top[a]), len(top[b])):
                return a, b
            heapq.heappop(heap)
        return None

    def merge(self, source: str, target: str, both_docs: set[str]) -> None:
        """Fold class `source` into `target`; both_docs are the documents
        the two classes held in common, which the merged class counts once.

        The merged class is regrouped and re-cut. A word both classes held
        loses one df, so it moves down a group in every other class that
        holds it (_move says whether that class must be checked or re-cut).
        Any other class is checked only once C falls below its holds_to,
        and re-cut only if the check fails.
        """
        self._set_top(source, set())
        del self.top[source], self.kept[source], self.holds_to[source]
        table = self.table
        table.classes.remove(source)
        del table.groups[source]
        table.num_classes -= 1
        source_tf = table.class_tf.pop(source)
        merged = table.class_tf[target]
        check, recut = set(), {target}
        for word, count in source_tf.items():
            holders = self.holders[word]
            holders.remove(source)
            if word in merged:
                old_df = table.df[word]
                table.df[word] = old_df - 1
                for label in holders:
                    if label != target:
                        outcome = self._move(label, word, old_df)
                        if outcome is not None:
                            (recut if outcome == "recut" else check).add(label)
                merged[word] += count
            else:
                holders.append(target)
                merged[word] = count
        for doc_id in both_docs:
            for token in self.corpus.document(doc_id).tokens:
                merged[token] -= 1
        table.groups[target] = _grouped(merged, table.df)

        for label in table.classes:
            if label in recut:
                holds_to = None
            elif label in check or table.num_classes < self.holds_to[label]:
                holds_to = self._holds_down_to(label)
            else:
                continue
            if holds_to is None:
                self._set_top(label, self._recut(label))
                holds_to = self._holds_down_to(label)
            self.holds_to[label] = holds_to

    def _move(self, label: str, word: str, old_df: int) -> str | None:
        """Move word from the class's old_df group to its old_df - 1 group,
        where it weighs more than it did.

        "recut" when the top set stopped being a prefix of that group;
        "check" when a left-out word became the group's first left-out
        word, which the class's last check did not weigh. None otherwise:
        every group's first left-out word stays or gets lighter, and its
        last kept word stays or gets heavier. A kept word that becomes the
        last kept one still outranks the words it passed over in its old
        group at any class count: its tf is at least theirs, on equal tf
        its word sorts first, and its idf is now the larger.
        """
        tf, groups, kept = self.table.class_tf[label], self.table.groups[label], self.kept[label]
        group = groups[old_df]
        group.remove(word)
        if not group:
            del groups[old_df]
        group = groups.setdefault(old_df - 1, [])
        rank = lambda w: (-tf[w], w)  # noqa: E731
        at = bisect.bisect_left(group, rank(word), key=rank)
        group.insert(at, word)
        k = kept[old_df - 1]
        if word in self.top[label]:
            kept[old_df] -= 1
            kept[old_df - 1] = k + 1
            return "recut" if at > k else None
        if at < k:
            return "recut"
        return "check" if at == k else None

    def _holds_down_to(self, label: str) -> int | None:
        """None if the class's top set is not its top set at the current
        class count. Otherwise the lowest class count down to which it
        provably stays so, while the class's groups are unchanged.

        At the current count the worst kept word must beat the best
        left-out word, ties broken by word. As the count falls, a group's
        order holds, and a word of higher df only falls further behind one
        of lower df (their idf ratio grows). So each group's last kept word
        is safe while it outweighs today's weight of every first left-out
        word of lower df, since every weight falls with the count. A
        relative margin keeps rounding out of the bound.
        """
        tf, kept, num_classes = self.table.class_tf[label], self.kept[label], self.table.num_classes
        worst_kept = best_left = None
        tails: list[tuple[int, int, float]] = []
        heads: dict[int, float] = {}
        for n, group in self.table.groups[label].items():
            k, factor = kept[n], idf(n, num_classes)
            if k:
                word = group[k - 1]
                weight = tf[word] * factor
                tails.append((tf[word], n, weight))
                if worst_kept is None or (-weight, word) > worst_kept:
                    worst_kept = (-weight, word)
            if k < len(group):
                word = group[k]
                weight = heads[n] = tf[word] * factor
                if best_left is None or (-weight, word) < best_left:
                    best_left = (-weight, word)
        if worst_kept is None or best_left is None:
            return 0
        if not worst_kept < best_left:
            return None
        lowest = 0
        for count, n, weight in tails:
            rivals = [
                head
                for m, head in heads.items()
                if m < n or (m > n and head * (1.0 + _WEIGHT_MARGIN) >= weight)
            ]
            if not rivals:
                continue
            bound = max(rivals) * (1.0 + _WEIGHT_MARGIN)
            # The smallest class count c at which count * idf(n, c) > bound.
            c = max(n, math.ceil((1 + n) * math.expm1(bound / count)) - 1)
            while c <= num_classes and count * idf(n, c) <= bound:
                c += 1
            lowest = max(lowest, c)
        return lowest

    def _recut(self, label: str) -> set[str]:
        """The class's top-n words, n = TOP_WORDS_FOR_SIMILARITY, and how many each group keeps."""
        top = set(top_words(self.table, label, TOP_WORDS_FOR_SIMILARITY))
        self.kept[label] = Counter(self.table.df[word] for word in top)
        return top

    def _set_top(self, label: str, words: set[str]) -> None:
        """Record the class's top set and bring the pair counts up to it."""
        old = self.top.get(label)
        self.top[label] = words
        if old == words:
            return
        old = old or set()
        changed: set[tuple[str, str]] = set()
        shared = self.shared
        for word in old - words:
            holders = self.top_holders[word]
            holders.remove(label)
            for other in holders:
                pair = _pair(label, other)
                shared[pair] -= 1
                if not shared[pair]:
                    del shared[pair]
                changed.add(pair)
            if not holders:
                del self.top_holders[word]
        for word in words - old:
            holders = self.top_holders.setdefault(word, [])
            for other in holders:
                pair = _pair(label, other)
                shared[pair] = shared.get(pair, 0) + 1
                changed.add(pair)
            holders.append(label)
        if len(words) != len(old):
            # The similarity of every pair of this class moved with its size.
            for word in words:
                changed.update(_pair(label, other) for other in self.top_holders[word])
            changed.discard((label, label))
        for pair in changed:
            count = shared.get(pair)
            if count:
                a, b = pair
                sim = _similarity(count, len(self.top[a]), len(self.top[b]))
                heapq.heappush(self.heap, (-sim, a, b))


def _merge_orientation(state: CollapseState, a: str, b: str) -> tuple[str, str]:
    """(source, target): the lower-frequency topic folds into the higher;
    on a tie the alphabetically smaller label survives."""
    freq_a, freq_b = len(state.topics[a]), len(state.topics[b])
    if freq_a > freq_b or (freq_a == freq_b and a < b):
        return b, a
    return a, b


def collapse_wsm(state: CollapseState, k: int, corpus: Corpus) -> CollapseState:
    """Word-similarity collapse to k topics.

    Each step merges the pair of highest similarity, ties going to the
    lexicographically smallest pair, and the collapse stops at K topics.
    Nothing is routed to Miscellaneous here; if no pair shares any word,
    the two least frequent topics merge and the step is logged as a
    zero-similarity merge.

    The c-TF-IDF table is built once. After that each merge recomputes
    only what it changed (_WordSimilarityIndex): the merged class's counts
    and top words, the df of the words both merged classes held, and the
    shared-word counts of pairs whose top sets changed. A merge lowers the
    class count C, which moves every weight, but within a class words of
    equal df keep their order, so a top set can change only where two df
    groups meet. Another class is re-cut only when a df move broke its
    top set's prefix of a group, or when a check of its group edges under
    the new C fails; that check runs only when a df move put a new word
    on an edge, or when C falls below the count the class's last check
    vouched for.
    """
    state = _copy_to_collapse(state, k)
    if len(state.topics) <= k:
        return state
    index = _WordSimilarityIndex(state.topics, corpus)
    while True:
        best_pair = index.best_pair()
        if best_pair is None:
            order = _frequency_order(state)
            source, target = _merge_orientation(state, order[-1], order[-2])
            method = "wsm-zero"
        else:
            source, target = _merge_orientation(state, *best_pair)
            method = "wsm"
        both_docs = state.topics[source] & state.topics[target]
        state.merge(source, target, method)
        if len(state.topics) == k:
            return state
        index.merge(source, target, both_docs)
