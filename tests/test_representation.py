"""Ten-word representations: direct, prompted, filtered, backfilled."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memetopics import representation
from memetopics.collapse import CollapseState
from memetopics.ctfidf import ctfidf_from_clusters, top_words
from memetopics.generation import format_topic_list, parse_topic_list
from memetopics.llm import LlmGateway
from memetopics.pipeline import RunConfig, _load_artifact, stage_represent
from memetopics.representation import build_wordrank_prompt, represent_ctfidf, represent_llm

import represent_oracle
from conftest import corpus_from_tokens, mock_backend


def table_with_words(words_with_counts):
    """One-class table whose ranking follows the given (word, tf) pairs."""
    tokens = [w for w, n in words_with_counts for _ in range(n)]
    corpus = corpus_from_tokens([("d1", tokens)])
    return ctfidf_from_clusters({"topic": {"d1"}}, corpus)


def descending(n):
    # w000 heaviest, then w001, ...
    return [(f"w{i:03d}", n - i) for i in range(n)]


# -- direct representation ----------------------------------------------------


def test_ctfidf_representation_is_exactly_ten():
    table = table_with_words(descending(30))
    rep = represent_ctfidf(table, "topic")
    assert rep.words == [f"w{i:03d}" for i in range(10)]
    assert rep.method == "ctfidf"
    assert rep.backfilled == 0


def test_ctfidf_representation_small_class_no_padding():
    table = table_with_words(descending(6))
    rep = represent_ctfidf(table, "topic")
    assert len(rep.words) == 6


def test_ctfidf_representation_unknown_topic():
    table = table_with_words(descending(3))
    with pytest.raises(KeyError):
        represent_ctfidf(table, "nope")


# -- prompt construction ------------------------------------------------------


def test_wordrank_prompt_demo_includes_listed_answer_word():
    ex = build_wordrank_prompt("sports", ["ball", "goal"])
    demo_user, demo_answer = ex.prefix.turns
    assert "tracetogether" in demo_user[1]
    assert "tracetogether" in demo_answer[1]
    assert "Topic : 'technology'" in demo_user[1]
    # The prefix is built once, with the module, and shared by every word-ranking prompt.
    assert build_wordrank_prompt("music", ["song"]).prefix is ex.prefix


def test_wordrank_prompt_enumerates_hundred_candidates():
    candidates = [f"w{i:03d}" for i in range(100)]
    ex = build_wordrank_prompt("big", candidates)
    assert "1. w000" in ex.query
    assert "100. w099" in ex.query


def test_wordrank_prompt_short_list():
    candidates = [f"w{i}" for i in range(15)]
    ex = build_wordrank_prompt("small", candidates)
    assert "15. w14" in ex.query
    assert "16." not in ex.query


def test_wordrank_prompt_bounds():
    with pytest.raises(ValueError):
        build_wordrank_prompt("t", [])
    with pytest.raises(ValueError):
        build_wordrank_prompt("t", [f"w{i}" for i in range(101)])


# -- prompted representation --------------------------------------------------


def test_llm_representation_happy_path():
    table = table_with_words(descending(40))
    wanted = [f"w{i:03d}" for i in range(20, 30)]
    cfg = mock_backend(default=format_topic_list(wanted))
    rep = represent_llm("topic", table, LlmGateway(cfg))
    assert rep.words == wanted
    assert (rep.method, rep.backfilled, rep.dropped, rep.fallback) == ("llm", 0, 0, False)


def test_llm_representation_filters_and_backfills():
    table = table_with_words(descending(40))
    reply = format_topic_list(
        [f"w{i:03d}" for i in range(8)] + ["hallucinated", "invented"]
    )
    cfg = mock_backend(default=reply)
    rep = represent_llm("topic", table, LlmGateway(cfg))
    # 8 kept + 2 backfilled from the ranking (w008, w009 are next unused)
    assert rep.words == [f"w{i:03d}" for i in range(10)]
    assert rep.backfilled == 2
    assert rep.dropped == 2
    assert rep.method == "llm"


def test_llm_representation_refusal_falls_back():
    table = table_with_words(descending(15))
    cfg = mock_backend(default="I cannot rank these words.")
    rep = represent_llm("topic", table, LlmGateway(cfg))
    assert rep.words == [f"w{i:03d}" for i in range(10)]
    assert rep.method == "ctfidf"
    assert rep.fallback is True


def test_llm_representation_prose_falls_back():
    table = table_with_words(descending(15))
    cfg = mock_backend(default="here are some words I like")
    rep = represent_llm("topic", table, LlmGateway(cfg))
    assert rep.method == "ctfidf"
    assert rep.fallback is True


def test_llm_representation_caps_long_replies_at_ten():
    table = table_with_words(descending(40))
    reply = format_topic_list([f"w{i:03d}" for i in range(15)])
    rep = represent_llm("topic", table, LlmGateway(mock_backend(default=reply)))
    assert len(rep.words) == 10


def test_llm_representation_dedupes_reply():
    table = table_with_words(descending(12))
    reply = format_topic_list(["w000", "W000", "w001"])
    rep = represent_llm("topic", table, LlmGateway(mock_backend(default=reply)))
    assert rep.words[:2] == ["w000", "w001"]
    assert len(rep.words) == len(set(rep.words)) == 10


def test_llm_representation_reads_a_replied_word_as_its_first_candidate():
    # Before, a replied word was its last candidate by the label rule: CAT.
    gateway = LlmGateway(mock_backend(default="['cat']"))
    with mock.patch.object(representation, "top_words", return_value=["Cat", "CAT"]):
        rep = represent_llm("topic", None, gateway)
    assert (rep.words, rep.backfilled, rep.dropped) == (["Cat"], 0, 0)


def test_llm_words_always_from_candidate_list():
    table = table_with_words(descending(25))
    candidates = set(top_words(table, "topic", 100))
    reply = format_topic_list(["alien", "w003", "w001", "other"])
    rep = represent_llm("topic", table, LlmGateway(mock_backend(default=reply)))
    assert set(rep.words) <= candidates


def test_llm_small_class_backfill_stops_at_class_size():
    table = table_with_words(descending(6))
    rep = represent_llm(
        "topic", table, LlmGateway(mock_backend(default=format_topic_list(["w000"])))
    )
    assert len(rep.words) == 6  # min(10, distinct words available)


def test_llm_representation_empty_class_falls_back_without_prompting():
    corpus = corpus_from_tokens([("d1", []), ("d2", ["x"])])
    table = ctfidf_from_clusters({"empty": {"d1"}, "full": {"d2"}}, corpus)
    rep = represent_llm("empty", table, LlmGateway(mock_backend(default="['x']")))
    assert rep.words == []
    assert rep.fallback is True


# Short words over letters whose case folding collides (c/C) or changes a
# word's length (İ folds to i plus a dot, ß and SS both fold to ss).
WORDS = st.text(alphabet="cCaAtTİißsS", min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(
    candidates=st.lists(WORDS, min_size=1, max_size=25, unique=True),
    replies=st.lists(WORDS, min_size=1, max_size=25),
)
@example(candidates=["Cat", "CAT", "straße", "STRASSE", "İstanbul", "dog"],
         replies=["cat", "strasse", "istanbul", "mouse", "CAT", "i̇stanbul"])
@example(candidates=[f"w{i}" for i in range(30)], replies=[f"W{i}" for i in range(12, 0, -1)])
def test_llm_pick_and_backfill_matches_the_original_loop(candidates, replies):
    reply = format_topic_list(replies)
    gateway = LlmGateway(mock_backend(default=reply))
    with mock.patch.object(representation, "top_words", return_value=candidates):
        rep = represent_llm("topic", None, gateway)
    expected = represent_oracle.pick_and_backfill(parse_topic_list(reply), candidates)
    assert (rep.words, rep.backfilled, rep.dropped) == expected
    assert (rep.method, rep.fallback) == ("llm", False)


def test_representations_roundtrip(tmp_path):
    # The run directory's writer and reader keep topic, words, method and
    # backfill count; drops and fallbacks live in the manifest summary.
    tokens = [w for w, n in descending(12) for _ in range(n)]
    corpus = corpus_from_tokens([("d1", tokens), ("d2", ["x", "y"])])
    state = CollapseState(topics={"topic": {"d1"}, "other": {"d2"}})
    backend = mock_backend(default=format_topic_list(["w003", "invented", "x"]))
    for method in ("ctfidf", "llm"):
        outdir = tmp_path / method
        outdir.mkdir()
        cfg = RunConfig(corpus_path="unused", representation_method=method, backend=backend)
        reps, _ = stage_represent(cfg, outdir, corpus, state, LlmGateway(backend))
        if method == "llm":
            assert reps[1].backfilled > 0
        fields = [(rep.topic, rep.words, rep.method, rep.backfilled) for rep in reps]
        # The reader checks the topics against those of the state the run loads with them.
        loaded = _load_artifact(outdir, "representations", {"state": state})
        assert [(rep.topic, rep.words, rep.method, rep.backfilled) for rep in loaded] == fields
