"""Class-based TF-IDF weights checked against an independent evaluation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics.ctfidf import ctfidf_from_clusters, idf, top_words
from memetopics.generation import TopicAssignment

from conftest import corpus_from_tokens
from topic_helpers import build_ctfidf, direct_top_words, direct_weights

LOG2 = math.log(2.0)


def weight(table, cls, word):
    """A word's weight in a class, read off the table by the module's formula."""
    return table.class_tf[cls][word] * idf(table.df[word], table.num_classes)


def random_clustered_corpus(rng, max_classes=5, max_words=30):
    vocab = [f"w{i}" for i in range(rng.randint(3, max_words))]
    num_classes = rng.randint(1, max_classes)
    docs = []
    clusters = {}
    doc_n = 0
    for c in range(num_classes):
        label = f"class{c}"
        clusters[label] = set()
        for _ in range(rng.randint(1, 4)):
            doc_id = f"d{doc_n}"
            doc_n += 1
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            docs.append((doc_id, tokens))
            clusters[label].add(doc_id)
    return clusters, corpus_from_tokens(docs)


def assert_tables_match(table, expected, rel_tol=1e-12):
    assert sorted(table.classes) == sorted(expected)
    for cls in expected:
        assert set(table.class_tf[cls]) == set(expected[cls])
        for word, value in expected[cls].items():
            assert weight(table, cls, word) == pytest.approx(value, rel=rel_tol)


# -- hand-evaluated weights ---------------------------------------------------


def test_single_class_weight_is_tf_log2():
    corpus = corpus_from_tokens([("d1", ["x", "x", "x", "y"])])
    table = ctfidf_from_clusters({"only": {"d1"}}, corpus)
    # C=1 and x present in the class: weight = tf * ln(1 + 2/2) = tf * ln 2
    assert weight(table, "only", "x") == pytest.approx(3 * LOG2, rel=1e-12)
    assert weight(table, "only", "y") == pytest.approx(1 * LOG2, rel=1e-12)


def test_absent_word_has_no_weight():
    corpus = corpus_from_tokens([("d1", ["x"]), ("d2", ["y"])])
    table = ctfidf_from_clusters({"a": {"d1"}, "b": {"d2"}}, corpus)
    assert all("y" not in group for group in table.groups["a"].values())
    assert table.class_tf["a"].get("y", 0) == 0


def test_word_in_all_three_classes():
    corpus = corpus_from_tokens(
        [("d1", ["x", "x"]), ("d2", ["x", "z"]), ("d3", ["x"])]
    )
    table = ctfidf_from_clusters({"a": {"d1"}, "b": {"d2"}, "c": {"d3"}}, corpus)
    # C=3, df(x)=3, tf=2 in class a: weight = 2 * ln(1 + 4/4) = 2 ln 2
    assert weight(table, "a", "x") == pytest.approx(2 * LOG2, rel=1e-12)
    assert weight(table, "a", "x") == pytest.approx(1.3863, abs=1e-4)


def test_matches_direct_evaluation_on_random_corpora():
    rng = random.Random(42)
    for _ in range(10):
        clusters, corpus = random_clustered_corpus(rng)
        pruned = {c: ids for c, ids in clusters.items()}
        table = ctfidf_from_clusters(pruned, corpus)
        assert_tables_match(table, direct_weights(pruned, corpus))


# -- structural properties ----------------------------------------------------


def test_weight_proportional_to_tf():
    corpus = corpus_from_tokens([("d1", ["x"] * 5), ("d2", ["x"] * 2)])
    table = ctfidf_from_clusters({"a": {"d1"}, "b": {"d2"}}, corpus)
    ratio = weight(table, "a", "x") / weight(table, "b", "x")
    assert ratio == pytest.approx(5 / 2, rel=1e-12)


def test_idf_factor_shared_across_classes():
    corpus = corpus_from_tokens([("d1", ["x", "x", "x"]), ("d2", ["x"])])
    table = ctfidf_from_clusters({"a": {"d1"}, "b": {"d2"}}, corpus)
    idf_a = weight(table, "a", "x") / table.class_tf["a"]["x"]
    idf_b = weight(table, "b", "x") / table.class_tf["b"]["x"]
    assert idf_a == pytest.approx(idf_b, rel=1e-15)


def test_zero_classes_is_an_error():
    corpus = corpus_from_tokens([("d1", ["x"])])
    with pytest.raises(ValueError):
        ctfidf_from_clusters({}, corpus)


def test_multi_topic_document_counts_fully_in_each_class():
    corpus = corpus_from_tokens([("d1", ["x", "y"]), ("d2", ["z"])])
    table = ctfidf_from_clusters({"a": {"d1", "d2"}, "b": {"d1"}}, corpus)
    assert table.class_tf["a"]["x"] == 1
    assert table.class_tf["b"]["x"] == 1


def test_build_from_assignments_skips_failures_and_reserved():
    corpus = corpus_from_tokens([("d1", ["x"]), ("d2", ["y"]), ("d3", ["z"])])
    assignments = [
        TopicAssignment("d1", ("Sports",), "generated"),
        TopicAssignment("d2", (), "miscellaneous"),
        TopicAssignment("d3", ("Sports", "News"), "generated"),
    ]
    table = build_ctfidf(assignments, corpus)
    assert table.classes == ["News", "Sports"]
    assert table.class_tf["Sports"] == {"x": 1, "z": 1}


# -- ranked word selection ----------------------------------------------------


def test_top_words_capped_by_availability():
    corpus = corpus_from_tokens([("d1", list("abcdefg"))])
    table = ctfidf_from_clusters({"a": {"d1"}}, corpus)
    assert len(top_words(table, "a", 20)) == 7


def test_top_words_tie_breaks_lexicographically():
    corpus = corpus_from_tokens([("d1", ["beta", "alpha", "gamma", "gamma"])])
    table = ctfidf_from_clusters({"a": {"d1"}}, corpus)
    assert top_words(table, "a", 3) == ["gamma", "alpha", "beta"]


def test_top_words_exactly_k_on_large_class():
    tokens = [f"w{i:03d}" for i in range(100) for _ in range(i + 1)]
    corpus = corpus_from_tokens([("d1", tokens)])
    table = ctfidf_from_clusters({"a": {"d1"}}, corpus)
    ranked = top_words(table, "a", 10)
    assert len(ranked) == 10
    assert ranked[0] == "w099"  # heaviest word first


def test_top_words_unknown_topic_names_label():
    corpus = corpus_from_tokens([("d1", ["x"])])
    table = ctfidf_from_clusters({"a": {"d1"}}, corpus)
    with pytest.raises(KeyError, match="ghost"):
        top_words(table, "ghost", 5)


def test_ranking_consistent_with_weights():
    rng = random.Random(3)
    clusters, corpus = random_clustered_corpus(rng)
    table = ctfidf_from_clusters(clusters, corpus)
    for cls in table.classes:
        ranked = top_words(table, cls, 30)
        weights = [weight(table, cls, w) for w in ranked]
        assert weights == sorted(weights, reverse=True)


@st.composite
def clustered_corpora(draw):
    """(clusters, corpus, k): a vocabulary of at most four words, so that
    weights tie, documents that may carry no tokens, and k from 1 to past
    the vocabulary."""
    vocab = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    docs = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=5), min_size=1, max_size=8))
    doc_ids = [f"d{i}" for i in range(len(docs))]
    clusters = {
        f"class{c}": draw(st.sets(st.sampled_from(doc_ids), min_size=1, max_size=4))
        for c in range(draw(st.integers(1, 5)))
    }
    k = draw(st.integers(1, len(vocab) + 2))
    return clusters, corpus_from_tokens(list(zip(doc_ids, docs))), k


@settings(max_examples=200, deadline=None)
@given(clustered_corpora())
def test_top_words_equal_the_brute_force_ranking(drawn):
    clusters, corpus, k = drawn
    table = ctfidf_from_clusters(clusters, corpus)
    expected = direct_weights(clusters, corpus)
    for cls in table.classes:
        assert top_words(table, cls, k) == direct_top_words(expected[cls], k)
