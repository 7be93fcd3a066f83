"""The incremental word-similarity collapse against the full-rebuild oracle.

Generated states use a tiny vocabulary, so weight and similarity ties are
common; documents may sit in several topics or carry no tokens, topics may
share no word at all (zero-similarity merges), and K may reach or exceed
the number of topics. Those states never hold more than 20 words in a
class, so seeded ladder states, large enough that top-20 sets must be
re-cut as classes merge, are checked against the oracle too.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memetopics import collapse as collapse_mod
from memetopics.collapse import (
    TOP_WORDS_FOR_SIMILARITY as TOP_N,
    CollapseState,
    _WordSimilarityIndex,
    collapse_wsm,
)
from memetopics.ctfidf import ctfidf_from_clusters

import wsm_oracle
from conftest import corpus_from_tokens
from topic_helpers import direct_top_words, direct_weights

# Mixed case, so the byte order of labels differs from their casefolded order.
LABELS = ("Alpha", "beta", "Gamma", "delta", "Eps", "zeta", "Eta", "theta", "Iota", "kappa")
WORDS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")


@st.composite
def collapse_inputs(draw):
    """(doc tokens, topic -> member docs, K, top-n words)."""
    vocab = WORDS[: draw(st.integers(2, len(WORDS)))]
    docs = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=6), min_size=1, max_size=12))
    doc_ids = [f"d{i}" for i in range(len(docs))]
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=len(LABELS), unique=True))
    topics = {
        label: draw(st.sets(st.sampled_from(doc_ids), min_size=1, max_size=4)) for label in labels
    }
    k = draw(st.integers(1, len(labels) + 2))
    top_n = draw(st.sampled_from((1, 2, 3, 20)))
    return docs, topics, k, top_n


def collapse_top_n(state, k, corpus, top_n):
    """collapse_wsm over top-n word sets: small n re-cuts top sets often."""
    with mock.patch.object(collapse_mod, "TOP_WORDS_FOR_SIMILARITY", top_n):
        return collapse_wsm(state, k, corpus)


def build(docs, topics):
    corpus = corpus_from_tokens([(f"d{i}", tokens) for i, tokens in enumerate(docs)])
    state = CollapseState(topics={label: set(ids) for label, ids in topics.items()})
    return corpus, state


@settings(max_examples=200, deadline=None)
@given(collapse_inputs())
# Two topics with disjoint words and one document with no tokens at all.
@example(([["a", "b"], ["c"], [], ["a"]], {"Alpha": {"d0"}, "beta": {"d1", "d2"}, "Gamma": {"d3"}},
          1, 20))
# K above the number of topics: a no-op.
@example(([["a"], ["a"]], {"Alpha": {"d0"}, "beta": {"d1"}}, 3, 20))
def test_incremental_wsm_matches_full_rebuild(inputs):
    docs, topics, k, top_n = inputs
    corpus, state = build(docs, topics)
    expected = wsm_oracle.collapse_wsm(state, k, corpus, top_n)
    actual = collapse_top_n(state, k, corpus, top_n)
    assert actual.merge_log == expected.merge_log
    assert actual.topics == expected.topics
    # A collapse continued from a larger K's result ends where a fresh one does.
    larger = collapse_top_n(state, k + 1, corpus, top_n)
    continued = collapse_top_n(larger, k, corpus, top_n)
    assert continued.merge_log == expected.merge_log
    assert continued.topics == expected.topics


@settings(max_examples=100, deadline=None)
@given(collapse_inputs(), st.data())
def test_index_merges_keep_fresh_top_sets(inputs, data):
    docs, topics, _, top_n = inputs
    assume(len(topics) >= 2)
    corpus, _ = build(docs, topics)
    live = {label: set(ids) for label, ids in topics.items()}
    with mock.patch.object(collapse_mod, "TOP_WORDS_FOR_SIMILARITY", top_n):
        index = _WordSimilarityIndex(live, corpus)
        while len(live) > 1:
            source, target = data.draw(st.permutations(sorted(live)))[:2]
            both_docs = live[source] & live[target]
            live[target] |= live.pop(source)
            index.merge(source, target, both_docs)
            assert_index_is_fresh(index, live, corpus, top_n)


def assert_index_is_fresh(index, live, corpus, top_n):
    """The index holds the table a fresh build over the live topics gives,
    df groups and classes included, and each class's brute-force top set."""
    assert index.table == ctfidf_from_clusters(live, corpus)
    weights = direct_weights(live, corpus)
    for label in live:
        assert index.top[label] == set(direct_top_words(weights[label], top_n))


def ladder_state(seed):
    """A seeded state shaped like a real collapse input: 40-60 topics of
    Zipf sizes in families that share words, a few hundred words, small
    term counts (so many df and weight ties) and classes past 20 words,
    so top sets must be re-cut as the class count falls."""
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(rng.randint(250, 400))]
    num_topics = rng.randint(40, 60)
    families = [rng.sample(vocab, 5) for _ in range(num_topics // 6)]
    docs, topics = [], {}
    for rank in range(num_topics):
        pool = rng.choice(families) + rng.sample(vocab, rng.randint(10, 30))
        members = set()
        for _ in range(max(1, round(40 / (rank + 1)))):
            members.add(f"d{len(docs)}")
            docs.append([rng.choice(pool) for _ in range(rng.randint(2, 8))])
        topics[f"T{rank:02d}"] = members
    # A few documents carry a second label.
    for label in rng.sample(sorted(topics), 8):
        topics[label].add(f"d{rng.randrange(len(docs))}")
    return docs, topics


@pytest.mark.parametrize("seed", range(4))
def test_ladder_states_match_full_rebuild(seed):
    docs, topics = ladder_state(seed)
    corpus, state = build(docs, topics)
    table = ctfidf_from_clusters(topics, corpus)
    assert max(len(counts) for counts in table.class_tf.values()) > TOP_N
    expected = {
        k: wsm_oracle.collapse_wsm(state, k, corpus, TOP_N) for k in (1, 12)
    }
    # Top sets along the whole trajectory, not only the merges they decide.
    live = {label: set(ids) for label, ids in topics.items()}
    index = _WordSimilarityIndex(live, corpus)
    for source, target, _ in expected[1].merge_log[:-1]:
        both_docs = live[source] & live[target]
        live[target] |= live.pop(source)
        index.merge(source, target, both_docs)
        assert_index_is_fresh(index, live, corpus, TOP_N)
    for k, want in expected.items():
        actual = collapse_wsm(state, k, corpus)
        assert actual.merge_log == want.merge_log
        assert actual.topics == want.topics
        larger = collapse_wsm(state, k + 9, corpus)
        continued = collapse_wsm(larger, k, corpus)
        assert continued.merge_log == want.merge_log
        assert continued.topics == want.topics
