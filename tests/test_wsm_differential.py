"""The incremental word-similarity collapse against the full-rebuild oracle.

Generated states use a tiny vocabulary, so weight and similarity ties are
common; documents may sit in several topics or carry no tokens, topics may
share no word at all (zero-similarity merges), and K may reach or exceed
the number of topics.
"""

import dataclasses

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memetopics.collapse import CollapseState, collapse_wsm
from memetopics.ctfidf import ctfidf_from_clusters

import wsm_oracle
from conftest import corpus_from_tokens

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


def build(docs, topics, k):
    corpus = corpus_from_tokens([(f"d{i}", tokens) for i, tokens in enumerate(docs)])
    state = CollapseState(topics={label: set(ids) for label, ids in topics.items()}, k_target=k)
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
    corpus, state = build(docs, topics, k)
    expected = wsm_oracle.collapse_wsm(state, corpus, top_n)
    actual = collapse_wsm(state, corpus, top_n)
    assert actual.merge_log == expected.merge_log
    assert actual.topics == expected.topics
    # A collapse continued from a larger K's result ends where a fresh one does.
    larger = collapse_wsm(dataclasses.replace(state, k_target=k + 1), corpus, top_n)
    continued = collapse_wsm(dataclasses.replace(larger, k_target=k), corpus, top_n)
    assert continued.merge_log == expected.merge_log
    assert continued.topics == expected.topics


@settings(max_examples=100, deadline=None)
@given(collapse_inputs(), st.data())
def test_table_merge_equals_fresh_build(inputs, data):
    docs, topics, _, _ = inputs
    assume(len(topics) >= 2)
    corpus, _ = build(docs, topics, 1)
    source, target = data.draw(st.permutations(sorted(topics)))[:2]
    table = ctfidf_from_clusters(topics, corpus)
    merged = {label: ids for label, ids in topics.items() if label != source}
    merged[target] = topics[source] | topics[target]
    table.merge(source, target, merged[target], corpus)
    fresh = ctfidf_from_clusters(merged, corpus)
    assert table.classes == fresh.classes
    assert table.class_tf == fresh.class_tf
    assert table.df == fresh.df
    assert table.num_classes == fresh.num_classes
    assert table.weights == fresh.weights
