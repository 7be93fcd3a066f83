"""Postings-based co-occurrence and coherence against the eager-table oracle.

Generated corpora use a tiny vocabulary, so words repeat within documents,
documents may hold no token at all, and topic words may be absent from the
corpus or listed by several topics.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics import evaluation
from memetopics.corpus import cooccurrence_counts
from memetopics.evaluation import coherence, npmi_pair
from memetopics.representation import TopicRepresentation

import cooccurrence_oracle
from conftest import corpus_from_tokens

VOCAB = ("a", "b", "c", "d", "e", "f", "g")
ABSENT = ("ghost", "zz")


@st.composite
def corpora(draw):
    docs = draw(st.lists(st.lists(st.sampled_from(VOCAB), max_size=6), min_size=1, max_size=15))
    return corpus_from_tokens([(f"d{i}", tokens) for i, tokens in enumerate(docs)])


topic_words = st.lists(st.sampled_from(VOCAB + ABSENT), min_size=2, max_size=6, unique=True)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), topics=st.lists(topic_words, min_size=1, max_size=5))
def test_coherence_equals_the_oracle_and_stays_in_bounds(corpus, topics):
    reps = [TopicRepresentation(f"t{i}", words, "ctfidf") for i, words in enumerate(topics)]
    report = coherence(reps, corpus)
    oracle_counts = cooccurrence_oracle.cooccurrence_counts
    with mock.patch.object(evaluation, "cooccurrence_counts", oracle_counts):
        oracle = coherence(reps, corpus)
    assert report.per_topic == oracle.per_topic
    assert report.mean_npmi == oracle.mean_npmi
    assert all(-1.0 <= value <= 1.0 for value in report.per_topic.values())
    pairs = [(w1, w2) for words in topics for w1 in words for w2 in words]
    assert all(-1.0 <= npmi_pair(w1, w2, corpus) <= 1.0 for w1, w2 in pairs)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), wanted=st.lists(st.sampled_from(VOCAB + ABSENT), max_size=6))
def test_counts_and_pairs_equal_the_oracle(corpus, wanted):
    counts = cooccurrence_counts(corpus, wanted)
    oracle = cooccurrence_oracle.cooccurrence_counts(corpus, wanted)
    assert counts.total_docs == oracle.total_docs == corpus.total_docs
    assert counts.doc_count == oracle.doc_count
    # Every word, wanted or not, in the corpus or absent, and every pair,
    # including a word with itself.
    for w1 in VOCAB + ABSENT:
        assert counts.count(w1) == oracle.count(w1)
        for w2 in VOCAB + ABSENT:
            assert counts.pair(w1, w2) == oracle.pair(w1, w2)
