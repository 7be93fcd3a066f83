"""Reference word-similarity collapse for differential tests.

This is the original collapse_wsm: it weighs every word of every topic by
brute force (topic_helpers.direct_weights, no code shared with
memetopics.ctfidf), ranks each topic's words by a full sort and scores
every topic pair on every merge. It is slow but plainly follows the
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

from topic_helpers import direct_top_words, direct_weights, topic_similarity

log = logging.getLogger(__name__)


def collapse_wsm(
    state: CollapseState,
    k: int,
    corpus: Corpus,
    top_n_words: int = TOP_WORDS_FOR_SIMILARITY,
) -> CollapseState:
    """Word-similarity collapse to k topics.

    Re-derives every c-TF-IDF weight after every merge (merging changes the
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
        weights = direct_weights(state.topics, corpus)
        word_sets = {label: direct_top_words(weights[label], top_n_words) for label in state.topics}
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
