"""NPMI coherence and diversity, checked against a brute-force counter."""

import math
import random
from unittest import mock

import pytest

from memetopics import evaluation
from memetopics.evaluation import coherence, diversity, npmi_pair
from memetopics.representation import TopicRepresentation

from conftest import corpus_from_tokens


# -- independent oracle -------------------------------------------------------


def brute_force_npmi(w1, w2, corpus, epsilon):
    """Direct per-document loops, separate from the library's counting."""
    n = len(corpus.documents)
    c1 = c2 = c12 = 0
    for doc in corpus.documents:
        has1 = w1 in doc.tokens
        has2 = w2 in doc.tokens
        c1 += has1
        c2 += has2
        c12 += has1 and has2
    p1, p2, p12 = c1 / n, c2 / n, c12 / n
    value = math.log((p12 + epsilon) / (p1 * p2 + epsilon)) / -math.log(p12 + epsilon)
    return max(-1.0, min(1.0, value))


def brute_force_coherence(reps, corpus, epsilon):
    per_topic = {}
    for rep in reps:
        scores = []
        for i in range(len(rep.words)):
            for j in range(i + 1, len(rep.words)):
                scores.append(brute_force_npmi(rep.words[i], rep.words[j], corpus, epsilon))
        per_topic[rep.topic] = sum(scores) / len(scores)
    return per_topic, sum(per_topic.values()) / len(per_topic)


def rep(topic, words):
    return TopicRepresentation(topic=topic, words=list(words), method="ctfidf")


def random_corpus(rng, max_docs=50, max_vocab=100):
    vocab = [f"w{i}" for i in range(rng.randint(4, max_vocab))]
    docs = [
        (f"d{i}", [rng.choice(vocab) for _ in range(rng.randint(1, 15))])
        for i in range(rng.randint(3, max_docs))
    ]
    return corpus_from_tokens(docs), vocab


# -- pairwise NPMI ------------------------------------------------------------


def test_self_pair_in_half_the_docs_is_near_one():
    corpus = corpus_from_tokens(
        [("d1", ["w"]), ("d2", ["w"]), ("d3", ["q"]), ("d4", ["q"])]
    )
    assert npmi_pair("w", "w", corpus) == pytest.approx(1.0, abs=1e-5)


def test_independent_words_score_near_zero():
    # P(a)=P(b)=1/2, P(a,b)=1/4 = P(a)P(b): statistically independent.
    corpus = corpus_from_tokens(
        [("d1", ["a", "b"]), ("d2", ["a"]), ("d3", ["b"]), ("d4", ["c"])]
    )
    assert npmi_pair("a", "b", corpus) == pytest.approx(0.0, abs=1e-4)


def test_never_cooccurring_words_strongly_negative():
    docs = [(f"a{i}", ["a"]) for i in range(5)] + [(f"b{i}", ["b"]) for i in range(4)]
    docs.append(("empty", ["z"]))
    corpus = corpus_from_tokens(docs)
    value = npmi_pair("a", "b", corpus, epsilon=1e-6)
    oracle = brute_force_npmi("a", "b", corpus, 1e-6)
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value < -0.85  # effectively the anticorrelated extreme under smoothing


def test_npmi_symmetric():
    rng = random.Random(2)
    corpus, vocab = random_corpus(rng)
    for _ in range(20):
        w1, w2 = rng.choice(vocab), rng.choice(vocab)
        assert npmi_pair(w1, w2, corpus) == npmi_pair(w2, w1, corpus)


def test_npmi_bounded():
    rng = random.Random(3)
    for _ in range(5):
        corpus, vocab = random_corpus(rng, max_docs=20, max_vocab=10)
        for _ in range(30):
            value = npmi_pair(rng.choice(vocab), rng.choice(vocab), corpus)
            assert -1.0 <= value <= 1.0


def test_npmi_matches_oracle_on_random_corpora():
    rng = random.Random(4)
    for _ in range(10):
        corpus, vocab = random_corpus(rng, max_docs=30, max_vocab=20)
        for _ in range(15):
            w1, w2 = rng.choice(vocab), rng.choice(vocab)
            assert npmi_pair(w1, w2, corpus) == pytest.approx(
                brute_force_npmi(w1, w2, corpus, 1e-6), abs=1e-12
            )


def test_absent_words_behave_as_zero_counts():
    corpus = corpus_from_tokens([("d1", ["x"]), ("d2", ["x"])])
    value = npmi_pair("ghost", "x", corpus)
    assert -1.0 <= value <= 1.0


def test_unrelated_document_changes_value_only_through_n():
    corpus_small = corpus_from_tokens([("d1", ["a", "b"]), ("d2", ["a"]), ("d3", ["b"])])
    corpus_big = corpus_from_tokens(
        [("d1", ["a", "b"]), ("d2", ["a"]), ("d3", ["b"]), ("d4", ["zz"])]
    )
    assert npmi_pair("a", "b", corpus_big) == pytest.approx(
        brute_force_npmi("a", "b", corpus_big, 1e-6), abs=1e-12
    )
    assert npmi_pair("a", "b", corpus_big) != npmi_pair("a", "b", corpus_small)


def test_epsilon_must_be_positive():
    corpus = corpus_from_tokens([("d1", ["x"])])
    with pytest.raises(ValueError, match=r"^epsilon must be > 0, not 0\.0$"):
        npmi_pair("x", "x", corpus, epsilon=0.0)
    with pytest.raises(ValueError, match=r"^epsilon must be > 0, not -1$"):
        coherence([rep("t", ["x", "y"])], corpus, epsilon=-1)


# -- coherence ----------------------------------------------------------------


def test_perfectly_cooccurring_topic_words_near_one():
    words = [f"t{i}" for i in range(10)]
    docs = [(f"d{i}", list(words)) for i in range(5)]
    docs += [(f"e{i}", ["other"]) for i in range(5)]  # words cover half the docs
    corpus = corpus_from_tokens(docs)
    report = coherence([rep("topic", words)], corpus)
    assert report.mean_npmi == pytest.approx(1.0, abs=1e-4)
    assert report.k == 1
    assert report.words_per_topic == 10


def test_mutually_exclusive_words_strongly_negative():
    # Six documents, each word alone in two of them; brute force is the oracle.
    words = ["a", "b", "c"]
    docs = [(f"{w}{i}", [w]) for w in words for i in range(2)]
    corpus = corpus_from_tokens(docs)
    reps = [rep("topic", words)]
    report = coherence(reps, corpus)
    _, oracle_mean = brute_force_coherence(reps, corpus, 1e-6)
    assert report.mean_npmi == pytest.approx(oracle_mean, abs=1e-12)
    assert report.mean_npmi < -0.5


def test_coherence_matches_oracle_on_random_corpora():
    rng = random.Random(6)
    for _ in range(5):
        corpus, vocab = random_corpus(rng, max_docs=40, max_vocab=30)
        reps = [
            rep(f"topic{t}", rng.sample(vocab, min(len(vocab), rng.randint(2, 10))))
            for t in range(rng.randint(1, 4))
        ]
        report = coherence(reps, corpus)
        per_topic, mean = brute_force_coherence(reps, corpus, 1e-6)
        assert report.mean_npmi == pytest.approx(mean, abs=1e-9)
        for topic, value in per_topic.items():
            assert report.per_topic[topic] == pytest.approx(value, abs=1e-9)


def test_coherence_mean_is_arithmetic_mean():
    corpus = corpus_from_tokens([("d1", ["a", "b"]), ("d2", ["c"]), ("d3", ["a", "c"])])
    report = coherence([rep("t1", ["a", "b"]), rep("t2", ["a", "c"])], corpus)
    values = list(report.per_topic.values())
    assert report.mean_npmi == pytest.approx(sum(values) / len(values), abs=1e-15)


def test_coherence_adds_left_to_right_on_every_python():
    # Before, the builtin sum made 1.0 of ten 0.1s from Python 3.12 on, and the
    # fixture reports read other bytes there.
    corpus = corpus_from_tokens([("d1", ["a", "b"])])
    reps = [rep(f"t{i}", ["a", "b"]) for i in range(10)]
    with mock.patch.object(evaluation, "_npmi", lambda *args: 0.1):
        report = coherence(reps, corpus)
    assert report.mean_npmi == 0.09999999999999999


def test_short_representation_excluded_and_reported():
    corpus = corpus_from_tokens([("d1", ["a", "b"])])
    reps = [rep("usable", ["a", "b"]), rep("stub", ["a"])]
    report = coherence(reps, corpus)
    assert report.excluded == ["stub"]
    assert "stub" not in report.per_topic
    assert report.k == 1


def test_reserved_clusters_excluded_by_default():
    corpus = corpus_from_tokens([("d1", ["a", "b", "x", "y"])])
    reps = [rep("Real", ["a", "b"]), rep("Miscellaneous", ["x", "y"])]
    report = coherence(reps, corpus)
    assert list(report.per_topic) == ["Real"]


def test_excluded_topics_are_sorted_when_the_report_is_built():
    corpus = corpus_from_tokens([("d1", ["a", "b"])])
    reps = [rep("zeta", ["a"]), rep("usable", ["a", "b"]), rep("Alpha", []), rep("beta", ["b"])]
    assert coherence(reps, corpus).excluded == ["Alpha", "beta", "zeta"]


def test_an_empty_corpus_is_refused_alike_by_npmi_pair_and_coherence():
    # Before, coherence divided by the corpus size and raised ZeroDivisionError.
    empty = corpus_from_tokens([])
    with pytest.raises(ValueError, match="^corpus is empty$"):
        npmi_pair("a", "b", empty)
    with pytest.raises(ValueError, match="^corpus is empty$"):
        coherence([rep("t", ["a", "b"])], empty)


def test_coherence_counts_through_the_module_global():
    # A wrapper set on evaluation.cooccurrence_counts (as a tracer sets one) sees the call.
    corpus = corpus_from_tokens([("d1", ["a", "b"]), ("d2", ["a"])])
    with mock.patch.object(evaluation, "cooccurrence_counts",
                           wraps=evaluation.cooccurrence_counts) as counted:
        coherence([rep("t", ["a", "b"])], corpus)
    assert counted.call_count == 1


def test_coherence_needs_a_usable_representation():
    corpus = corpus_from_tokens([("d1", ["a"])])
    with pytest.raises(ValueError):
        coherence([rep("stub", ["a"])], corpus)


def test_report_declares_estimator_and_epsilon():
    corpus = corpus_from_tokens([("d1", ["a", "b"])])
    report = coherence([rep("t", ["a", "b"])], corpus, epsilon=1e-6)
    assert report.epsilon == 1e-6
    assert report.estimator == "boolean-document"
    assert report.epsilon_placement == "ratio-terms-and-normalizer"


# -- diversity ----------------------------------------------------------------


def test_diversity_fully_disjoint_is_exactly_one():
    reps = [rep(f"t{t}", [f"w{t}_{i}" for i in range(10)]) for t in range(4)]
    assert diversity(reps) == 1.0


def test_diversity_identical_lists_is_one_over_k():
    words = [f"w{i}" for i in range(10)]
    reps = [rep(f"t{t}", words) for t in range(5)]
    assert diversity(reps) == 0.2


def test_diversity_permutation_invariant():
    rng = random.Random(8)
    pool = [f"w{i}" for i in range(30)]
    reps = [rep(f"t{t}", rng.sample(pool, 10)) for t in range(4)]
    baseline = diversity(reps)
    for _ in range(100):
        shuffled = [rep(r.topic, rng.sample(r.words, len(r.words))) for r in reps]
        rng.shuffle(shuffled)
        assert diversity(shuffled) == baseline


def test_diversity_requires_input():
    with pytest.raises(ValueError):
        diversity([])
