"""Reference word-similarity collapse for differential tests.

This is the original collapse_wsm: it rebuilds the whole c-TF-IDF table and
scores every topic pair on every merge. It is slow but plainly follows the
definition, so the incremental collapse in memetopics.collapse must match
it merge for merge.
"""

from __future__ import annotations

import logging

from memetopics.collapse import (
    TOP_WORDS_FOR_SIMILARITY,
    CollapseState,
    _frequency_order,
    _merge_orientation,
)
from memetopics.corpus import Corpus
from memetopics.ctfidf import ctfidf_from_clusters, top_words

from topic_helpers import topic_similarity

log = logging.getLogger(__name__)


def collapse_wsm(
    state: CollapseState,
    k: int,
    corpus: Corpus,
    top_n_words: int = TOP_WORDS_FOR_SIMILARITY,
) -> CollapseState:
    """Word-similarity collapse to k topics.

    Re-derives the c-TF-IDF table after every merge (merging changes the
    class documents, hence the word sets), merges the highest-similarity
    pair, and stops at K topics. Nothing is routed to Miscellaneous here;
    if no pair shares any word, the two least frequent topics merge and the
    step is logged as a zero-similarity merge.
    """
    state = state.copy()
    if len(state.topics) < k:
        log.warning("collapse is a no-op: %d topics is fewer than K=%d", len(state.topics), k)
        return state
    while len(state.topics) > k:
        table = ctfidf_from_clusters(state.topics, corpus)
        word_sets = {label: top_words(table, label, top_n_words) for label in state.topics}
        labels = sorted(state.topics)
        best_sim = 0.0
        best_pair: tuple[str, str] | None = None
        for i, label_a in enumerate(labels):
            if not word_sets[label_a]:
                continue
            for label_b in labels[i + 1 :]:
                if not word_sets[label_b]:
                    continue
                sim = topic_similarity(word_sets[label_a], word_sets[label_b])
                # Iteration order makes ties resolve to the smallest pair.
                if sim > best_sim:
                    best_sim = sim
                    best_pair = (label_a, label_b)
        if best_pair is None:
            order = _frequency_order(state)
            source, target = _merge_orientation(state, order[-1], order[-2])
            method = "wsm-zero"
        else:
            source, target = _merge_orientation(state, *best_pair)
            method = "wsm"
        state.topics[target] |= state.topics.pop(source)
        state.merge_log.append((source, target, method))
    return state
