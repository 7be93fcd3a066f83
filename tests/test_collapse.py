"""Collapse algorithms: prompt matching, word-overlap merging, invariants."""

import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memetopics.collapse import (
    CollapseState,
    build_collapse_prompt,
    collapse_pbm,
    collapse_wsm,
)
from memetopics.generation import MISCELLANEOUS, TopicAssignment, _unique_labels
from memetopics.llm import BackendConfig, LlmGateway

from conftest import corpus_from_tokens, mock_backend
from topic_helpers import topic_similarity


def state_from(topic_docs, misc=(), inappropriate=()):
    return CollapseState(
        topics={label: set(ids) for label, ids in topic_docs.items()},
        misc=set(misc),
        inappropriate=set(inappropriate),
    )


def doc_multiset(state):
    counts = Counter()
    for ids in state.clusters().values():
        counts.update(ids)
    return counts


# -- prompt construction ------------------------------------------------------


def test_collapse_prompt_demo_pair():
    ex = build_collapse_prompt(["Military", "Healthcare"], "Skirmish")
    demo_user, demo_answer = ex.prefix.turns
    assert demo_user[1].startswith("Topics:\n1. Military")
    assert "Current topic : War" in demo_user[1]
    assert demo_answer == ("assistant", "['Military']")
    assert "without providing any topics that are not included" in ex.prefix.system
    # The prefix is built once, with the module, and shared by every merge prompt.
    assert build_collapse_prompt(["Sports"], "Football").prefix is ex.prefix


def test_collapse_prompt_single_candidate():
    ex = build_collapse_prompt(["Politics"], "Election")
    assert "1. Politics" in ex.query
    assert "Current topic : Election" in ex.query
    assert ex.query.endswith("corresponds to the current topic?")


def test_collapse_prompt_enumerates_all_candidates_in_order():
    candidates = [f"T{i:02d}" for i in range(40)]
    ex = build_collapse_prompt(candidates, "Other")
    for i, label in enumerate(candidates, start=1):
        assert f"{i}. {label}\n" in ex.query + "\n"


def test_collapse_prompt_rejects_current_in_candidates():
    with pytest.raises(ValueError):
        build_collapse_prompt(["War", "Politics"], "war")


# -- prompt-matched collapse --------------------------------------------------


def test_pbm_single_merge_trace():
    state = state_from({"Military": {f"m{i}" for i in range(10)}, "War": {"w1", "w2"}})
    cfg = mock_backend(default="['Military']")
    result = collapse_pbm(state, 1, LlmGateway(cfg))
    assert set(result.topics) == {"Military"}
    assert result.topics["Military"] >= {"w1", "w2"}
    assert result.merge_log == [("War", "Military", "pbm")]


def test_pbm_out_of_list_reply_goes_to_miscellaneous():
    state = state_from({"Military": {"m1", "m2"}, "X": {"x1"}})
    cfg = mock_backend(rules=[("current topic : x", "['Banana']")], default="['Military']")
    result = collapse_pbm(state, 1, LlmGateway(cfg))
    assert result.misc == {"x1"}
    assert result.merge_log == [("X", "Miscellaneous", "pbm")]


def test_pbm_refusal_goes_to_miscellaneous():
    state = state_from({"A": {"a1", "a2"}, "B": {"b1"}})
    cfg = mock_backend(rules=[("current topic : b", "I cannot choose a topic here.")])
    result = collapse_pbm(state, 1, LlmGateway(cfg))
    assert result.misc == {"b1"}


def test_pbm_already_at_k_is_fixed_point():
    state = state_from({"A": {"a"}, "B": {"b"}})
    result = collapse_pbm(state, 2, LlmGateway(mock_backend(default="['A']")))
    assert result.topics == state.topics
    assert result.merge_log == []


def test_pbm_fewer_than_k_warns_and_noops(caplog):
    state = state_from({"A": {"a"}})
    with caplog.at_level("WARNING"):
        result = collapse_pbm(state, 5, LlmGateway(mock_backend(default="['A']")))
    assert result.topics == state.topics
    assert any("no-op" in record.message for record in caplog.records)


def test_pbm_least_frequent_first_and_window_cap():
    # Frequencies: A=4, B=3, C=2, D=1. With window 2 the candidate list for
    # D must be [A, B] only; a reply naming C is therefore out-of-list.
    state = state_from(
        {"A": set("a1 a2 a3 a4".split()), "B": set("b1 b2 b3".split()),
         "C": {"c1", "c2"}, "D": {"d1"}}
    )
    cfg = mock_backend(rules=[("current topic : d", "['C']")], default="['A']")
    result = collapse_pbm(state, 3, LlmGateway(cfg), window=2)
    assert result.merge_log == [("D", "Miscellaneous", "pbm")]
    assert result.misc == {"d1"}


def test_pbm_recomputes_ordering_after_each_merge():
    # B starts above C, but after B merges into A the least frequent is C.
    state = state_from({"A": {"a1", "a2", "a3"}, "B": {"b1"}, "C": {"c1", "c2"}})
    cfg = mock_backend(default="['A']")
    result = collapse_pbm(state, 1, LlmGateway(cfg))
    assert result.merge_log == [("B", "A", "pbm"), ("C", "A", "pbm")]
    assert result.topics["A"] == {"a1", "a2", "a3", "b1", "c1", "c2"}


def test_pbm_case_insensitive_reply_matching():
    state = state_from({"Military": {"m1", "m2"}, "War": {"w1"}})
    cfg = mock_backend(default="['military']")
    result = collapse_pbm(state, 1, LlmGateway(cfg))
    assert set(result.topics) == {"Military"}


def test_pbm_conserves_documents():
    state = state_from({f"T{i}": {f"d{i}a", f"d{i}b"} for i in range(6)}, misc={"misc1"})
    before = doc_multiset(state)
    cfg = mock_backend(rules=[("current topic : t5", "['Nonsense']")], default="['T0']")
    result = collapse_pbm(state, 2, LlmGateway(cfg))
    assert doc_multiset(result) == before
    assert len(result.topics) == 2


def test_pbm_deterministic_across_runs():
    def run():
        state = state_from({"A": set("a1 a2 a3".split()), "B": {"b1", "b2"}, "C": {"c1"}})
        cfg = mock_backend(rules=[("current topic : c", "['Zzz']")], default="['A']")
        return collapse_pbm(state, 1, LlmGateway(cfg)).merge_log

    logs = {tuple(run()) for _ in range(5)}
    assert len(logs) == 1


_CANDIDATE_LINE = re.compile(r"^\d+\. (.+)$", re.MULTILINE)
PBM_LABELS = ("Cats", "dogs", "Politics", "sports", "Space Travel", "war", "Music", "food")
REPLY_KINDS = ("candidate", "out_of_list", "prose", "empty_list", "refusal")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pbm_terminates_and_conserves_for_any_reply_script(data):
    labels = data.draw(st.lists(st.sampled_from(PBM_LABELS), min_size=1, unique=True))
    docs = [f"d{i}" for i in range(10)]
    topics = {label: data.draw(st.sets(st.sampled_from(docs), min_size=1, max_size=3))
              for label in labels}
    k = data.draw(st.integers(1, len(labels)))
    window = data.draw(st.integers(2, 5))
    state = state_from(topics, misc={"m0"}, inappropriate={"x0"})
    expected_targets = []

    def transport(url, payload, headers, timeout):
        query = payload["messages"][-1]["content"]
        candidates = _CANDIDATE_LINE.findall(query)
        kind = data.draw(st.sampled_from(REPLY_KINDS))
        target = MISCELLANEOUS
        if kind == "candidate":
            target = data.draw(st.sampled_from(candidates))
            cases = data.draw(st.lists(st.booleans(), min_size=len(target), max_size=len(target)))
            named = "".join(c.upper() if up else c.lower() for c, up in zip(target, cases))
            text = repr([named])
        else:
            text = {
                "out_of_list": "['Not A Listed Topic']",
                "prose": "This meme is mostly about everyday life.",
                "empty_list": "[]",
                "refusal": "I cannot help with that.",
            }[kind]
        expected_targets.append(target)
        body = {"choices": [{"message": {"content": text}}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1}}
        return 200, body

    cfg = BackendConfig(kind="http", model_name="mock-model", requests_per_minute=1_000_000)
    gateway = LlmGateway(cfg, transport=transport, sleep=lambda s: None)
    result = collapse_pbm(state, k, gateway, window=window)
    assert len(result.topics) == k
    assert len(result.merge_log) == len(labels) - k
    assert [target for _, target, _ in result.merge_log] == expected_targets
    # Every document ends in a topic, Miscellaneous or Inappropriate.
    placed = set().union(*result.clusters().values())
    assert placed == set().union(*topics.values(), {"m0", "x0"})


PBM_REPLIES = st.one_of(
    st.sampled_from(PBM_LABELS).map(lambda label: repr([label.upper()])),
    st.sampled_from(
        ["['Not A Listed Topic']", "This meme is mostly about everyday life.", "[]",
         "I cannot help with that."]
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_continued_pbm_collapse_is_the_direct_one(data):
    # What a sweep relies on: collapsing to K, then on to K' < K, asks the
    # same questions in the same order as collapsing to K' at once.
    labels = data.draw(st.lists(st.sampled_from(PBM_LABELS), min_size=2, unique=True))
    docs = [f"d{i}" for i in range(10)]
    topics = {label: data.draw(st.sets(st.sampled_from(docs), min_size=1, max_size=3))
              for label in labels}
    state = state_from(topics, misc={"m0"}, inappropriate={"x0"})
    rules = [(f"current topic : {label}", data.draw(PBM_REPLIES)) for label in labels]
    gateway = LlmGateway(mock_backend(rules=rules, default=data.draw(PBM_REPLIES)))
    k = data.draw(st.integers(2, len(labels) + 1))
    k_less = data.draw(st.integers(1, k - 1))
    window = data.draw(st.integers(2, 5))
    direct = collapse_pbm(state, k_less, gateway, window)
    continued = collapse_pbm(collapse_pbm(state, k, gateway, window), k_less, gateway, window)
    assert continued.merge_log == direct.merge_log
    assert continued.topics == direct.topics
    assert continued.misc == direct.misc
    assert len(continued.topics) == min(k_less, len(labels))
    placed = set().union(*continued.clusters().values())
    assert placed == set().union(*topics.values(), {"m0", "x0"})


# -- word similarity ----------------------------------------------------------


def test_similarity_identical_sets():
    a = [f"w{i}" for i in range(20)]
    b = [f"w{i}" for i in range(20)]
    assert topic_similarity(a, b) == 1.0


def test_similarity_disjoint_sets():
    assert topic_similarity(["x", "y"], ["p", "q"]) == 0.0


def test_similarity_normalizes_by_smaller_count():
    a = [f"w{i}" for i in range(20)]
    b = [f"w{i}" for i in range(5)] + ["p", "q", "r", "s", "t"]
    assert topic_similarity(a, b) == 0.5


def test_similarity_symmetric_and_bounded():
    rng = random.Random(5)
    pool = [f"w{i}" for i in range(30)]
    for _ in range(200):
        a = rng.sample(pool, rng.randint(1, 20))
        b = rng.sample(pool, rng.randint(1, 20))
        sim = topic_similarity(a, b)
        assert 0.0 <= sim <= 1.0
        assert sim == topic_similarity(b, a)


def test_similarity_empty_set_is_error():
    with pytest.raises(ValueError):
        topic_similarity([], ["x"])


# -- word-similarity collapse -------------------------------------------------


def test_wsm_merges_the_only_overlapping_pair():
    corpus = corpus_from_tokens(
        [
            ("d1", ["shared", "alpha"]),
            ("d2", ["shared", "beta"]),
            ("d3", ["gamma", "delta"]),
        ]
    )
    state = state_from({"A": {"d1"}, "B": {"d2"}, "C": {"d3"}})
    result = collapse_wsm(state, 2, corpus)
    assert len(result.topics) == 2
    assert result.merge_log[0][2] == "wsm"
    assert {result.merge_log[0][0], result.merge_log[0][1]} == {"A", "B"}
    assert "C" in result.topics


def test_wsm_fixed_point_at_k():
    corpus = corpus_from_tokens([("d1", ["x"]), ("d2", ["y"])])
    state = state_from({"A": {"d1"}, "B": {"d2"}})
    result = collapse_wsm(state, 2, corpus)
    assert result.topics == state.topics
    assert result.merge_log == []


def test_wsm_tie_resolves_to_smallest_pair():
    corpus = corpus_from_tokens(
        [
            ("a1", ["common", "alpha"]),
            ("b1", ["common", "beta"]),
            ("b2", ["common", "beta"]),
            ("c1", ["shared", "gamma"]),
            ("d1", ["shared", "delta"]),
            ("d2", ["shared", "delta"]),
        ]
    )
    state = state_from({"A": {"a1"}, "B": {"b1", "b2"}, "C": {"c1"}, "D": {"d1", "d2"}})
    result = collapse_wsm(state, 3, corpus)
    # sim(A,B) == sim(C,D); (A,B) is the lexicographically smaller pair, and
    # the lower-frequency side (A) folds into B.
    assert result.merge_log == [("A", "B", "wsm")]


def test_wsm_merged_label_is_higher_frequency_member():
    corpus = corpus_from_tokens(
        [("d1", ["x", "y"]), ("d2", ["x", "z"]), ("d3", ["x", "z"])]
    )
    state = state_from({"Small": {"d1"}, "Large": {"d2", "d3"}})
    result = collapse_wsm(state, 1, corpus)
    assert set(result.topics) == {"Large"}
    assert result.merge_log == [("Small", "Large", "wsm")]


def test_wsm_zero_similarity_fallback():
    corpus = corpus_from_tokens([("d1", ["x"]), ("d2", ["y"]), ("d3", ["z"]), ("d4", ["z"])])
    state = state_from({"A": {"d1"}, "B": {"d2"}, "C": {"d3", "d4"}})
    result = collapse_wsm(state, 2, corpus)
    assert len(result.topics) == 2
    source, target, method = result.merge_log[0]
    assert method == "wsm-zero"
    # the two least frequent topics (A and B, both 1 doc) merge
    assert {source, target} == {"A", "B"}


def test_wsm_never_routes_to_miscellaneous():
    corpus = corpus_from_tokens([(f"d{i}", [f"w{i}"]) for i in range(5)])
    state = state_from({f"T{i}": {f"d{i}"} for i in range(5)}, misc={"m0"})
    result = collapse_wsm(state, 1, corpus)
    assert result.misc == {"m0"}
    assert len(result.topics) == 1


def test_wsm_conserves_documents_and_terminates_in_n_minus_k_steps():
    rng = random.Random(9)
    vocab = [f"v{i}" for i in range(8)]
    docs = [(f"d{i}", [rng.choice(vocab) for _ in range(4)]) for i in range(24)]
    corpus = corpus_from_tokens(docs)
    topics = {}
    for i, (doc_id, _tokens) in enumerate(docs):
        topics.setdefault(f"T{i % 12}", set()).add(doc_id)
    state = state_from(topics)
    before = doc_multiset(state)
    result = collapse_wsm(state, 4, corpus)
    assert len(result.topics) == 4
    assert len(result.merge_log) == 12 - 4
    assert doc_multiset(result) == before


# -- state construction -------------------------------------------------------


def test_from_assignments_routes_and_folds_case():
    assignments = [
        TopicAssignment("d1", ("Politics",), "generated"),
        TopicAssignment("d2", ("politics", "War"), "generated"),
        TopicAssignment("d3", (), "miscellaneous"),
        TopicAssignment("d4", (), "inappropriate"),
    ]
    state = CollapseState.from_assignments(assignments)
    assert set(state.topics) == {"Politics", "War"}
    assert state.topics["Politics"] == {"d1", "d2"}
    assert state.misc == {"d3"}
    assert state.inappropriate == {"d4"}
    assert {label: len(ids) for label, ids in state.topics.items()} == {"Politics": 2, "War": 1}


# Short labels over letters whose case folding collides (c/C) or changes a
# label's length (İ folds to i plus a dot, ß and SS both fold to ss).
LABELS = st.text(alphabet="cCaAtTİißsS", min_size=1, max_size=3)
ASSIGNMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("generated"), st.lists(LABELS, min_size=1, max_size=4)),
        st.tuples(st.sampled_from(["miscellaneous", "inappropriate"]), st.just([])),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(drawn=ASSIGNMENTS)
def test_from_assignments_folds_labels_by_the_one_rule(drawn):
    assignments = [TopicAssignment(f"d{i}", tuple(labels), provenance)
                   for i, (provenance, labels) in enumerate(drawn)]
    state = CollapseState.from_assignments(assignments)
    generated = [a for a in assignments if a.provenance == "generated"]
    assert list(state.topics) == _unique_labels(label for a in generated for label in a.topics)
    by_key = {label.casefold(): ids for label, ids in state.topics.items()}
    for a in generated:
        for label in a.topics:
            assert a.doc_id in by_key[label.casefold()]
    assert state.misc == {a.doc_id for a in assignments if a.provenance == "miscellaneous"}
    assert state.inappropriate == {a.doc_id for a in assignments if a.provenance == "inappropriate"}
    placed = set().union(*state.clusters().values())
    assert placed == {a.doc_id for a in assignments}
    assert sum(map(len, state.topics.values())) == sum(
        len({label.casefold() for label in a.topics}) for a in generated
    )


@settings(max_examples=300, deadline=None)
@given(candidates=st.lists(LABELS, min_size=1, max_size=8), current=LABELS)
@example(candidates=["Politics", "STRASSE"], current="straße")
def test_collapse_prompt_refuses_a_current_topic_that_is_a_candidate(candidates, current):
    if current.casefold() in {c.casefold() for c in candidates}:
        with pytest.raises(ValueError, match="must not appear in the candidate list"):
            build_collapse_prompt(candidates, current)
    else:
        assert f"Current topic : {current}\n" in build_collapse_prompt(candidates, current).query


def test_clusters_include_reserved():
    # What clusters.json holds: each cluster's ids sorted, a reserved one only when non-empty.
    state = state_from({"B": {"b", "a"}, "A": {"c"}}, misc={"n", "m"}, inappropriate={"i"})
    assert state.clusters() == {"B": ["a", "b"], "A": ["c"], "Miscellaneous": ["m", "n"],
                                "Inappropriate": ["i"]}
    assert state_from({"A": {"a"}}, misc={"m"}).clusters() == {"A": ["a"], "Miscellaneous": ["m"]}


def test_state_validation():
    # Each refusal names the labels as written, not their casefold.
    with pytest.raises(ValueError, match="topics 'A' and 'a' are the same label"):
        state_from({"A": {"a"}, "a": {"b"}})
    with pytest.raises(ValueError, match="topics 'straße' and 'STRASSE' are the same label"):
        state_from({"War": {"w"}, "straße": {"a"}, "STRASSE": {"b"}})
    for reserved in ("miscellaneous", "Miscellaneous", "INAPPROPRIATE"):
        with pytest.raises(ValueError, match=f"^'{reserved}' is a reserved cluster name"):
            state_from({"A": {"a"}, reserved: {"b"}})


# K and the window are arguments of the collapse, which checks them against the
# annotations of the settings that give them: each call, on a one-topic state,
# its gateway and corpus, and its ValueError.
REFUSED_ARGUMENTS = {
    "pbm k 0": (lambda state, gateway, _: collapse_pbm(state, 0, gateway), "k must be >= 1, not 0"),
    "wsm k 0": (lambda state, _, corpus: collapse_wsm(state, 0, corpus), "k must be >= 1, not 0"),
    # A bool is no integer; True once collapsed to K = 1.
    "wsm k True": (lambda state, _, corpus: collapse_wsm(state, True, corpus),
                   "k must be an integer, not True"),
    "pbm window 1": (lambda state, gateway, _: collapse_pbm(state, 1, gateway, window=1),
                     "window must be >= 2, not 1"),
}


@pytest.mark.parametrize("call, message", REFUSED_ARGUMENTS.values(), ids=list(REFUSED_ARGUMENTS))
def test_a_bad_collapse_argument_is_refused_naming_it(call, message):
    state = state_from({"A": {"a"}})
    gateway = LlmGateway(mock_backend(default="['A']"))
    with pytest.raises(ValueError) as refused:
        call(state, gateway, corpus_from_tokens([("a", ["x"])]))
    assert str(refused.value) == message


# The one step of a collapse, on a state of topics A and B with a document in
# Miscellaneous: each step it refuses, and its ValueError.
REFUSED_MERGES = {
    "source not live": (("Z", "A"), "merge source 'Z' is not a live topic"),
    "source Miscellaneous": (("Miscellaneous", "A"),
                             "merge source 'Miscellaneous' is not a live topic"),
    "target not live": (("A", "Z"), "merge target 'Z' is neither a live topic nor Miscellaneous"),
    "target spelled otherwise": (("A", "b"),
                                 "merge target 'b' is neither a live topic nor Miscellaneous"),
    "target the source": (("A", "A"), "topic 'A' cannot merge into itself"),
}


@pytest.mark.parametrize("step, message", REFUSED_MERGES.values(), ids=list(REFUSED_MERGES))
def test_a_merge_step_is_refused_unless_a_live_topic_folds_into_another_or_misc(step, message):
    state = state_from({"A": {"a"}, "B": {"b"}}, misc={"m"})
    before = state.copy()
    with pytest.raises(ValueError) as refused:
        state.merge(*step, "wsm")
    assert str(refused.value) == message
    assert state == before


def test_a_merge_step_moves_the_documents_and_logs_the_step():
    state = state_from({"A": {"a"}, "B": {"b", "x"}, "C": {"c", "x"}})
    state.merge("B", "C", "wsm")
    state.merge("A", "Miscellaneous", "pbm")
    assert (state.topics, state.misc) == ({"C": {"b", "c", "x"}}, {"a"})
    assert state.merge_log == [("B", "C", "wsm"), ("A", "Miscellaneous", "pbm")]
