"""Prompt construction, reply parsing, and failure routing for generation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memetopics.corpus import Corpus, MemeDocument
from memetopics.generation import (
    Demonstration,
    DemonstrationSet,
    TopicParseError,
    build_generation_prompt,
    format_topic_list,
    generate_topics,
    parse_topic_list,
    provenance_counts,
)
from memetopics.llm import BackendConfig, LlmGateway
from memetopics.pipeline import RunConfig, _load_artifact, stage_generate

from conftest import mock_backend


def make_demos(n):
    items = tuple(
        Demonstration(caption=f"caption {i}", overlay_text=f"text {i}", topics=(f"Topic{i}",))
        for i in range(n)
    )
    return DemonstrationSet(items=items)


def make_corpus(n, prefix="m"):
    docs = [
        MemeDocument(id=f"{prefix}{i}", caption=f"photo {i}", overlay_text=f"says thing {i}")
        for i in range(n)
    ]
    return Corpus(documents=docs)


DOC = MemeDocument(id="d1", caption="a man at a desk", overlay_text="mondays, am i right")


# -- prompt construction ------------------------------------------------------


def test_eight_demos_give_sixteen_turns_plus_query():
    demos = make_demos(8)
    ex = build_generation_prompt(DOC, demos)
    assert len(ex.prefix.turns) == 16
    assert ex.query.startswith("Please list the high-level topics")
    # The prefix is built once per set and shared.
    other = MemeDocument(id="d2", caption="a dog", overlay_text="woof")
    assert build_generation_prompt(other, demos).prefix is ex.prefix


def test_single_demo_structure():
    ex = build_generation_prompt(DOC, make_demos(1))
    assert len(ex.prefix.turns) == 2
    assert ex.prefix.turns[0][0] == "user"
    assert ex.prefix.turns[1] == ("assistant", "['Topic0']")


def test_prompt_layout_carries_caption_text_and_topics_lines():
    ex = build_generation_prompt(DOC, make_demos(1))
    assert "Meme's Image Caption: a man at a desk" in ex.query
    assert "Meme's Superimposed Text: mondays, am i right" in ex.query
    assert ex.query.rstrip().endswith("Topics:")
    assert "unique topics solely" in ex.prefix.system


def test_empty_overlay_still_renders():
    doc = MemeDocument(id="d", caption="just a picture", overlay_text="")
    ex = build_generation_prompt(doc, make_demos(1))
    assert "Meme's Superimposed Text: \n" in ex.query + "\n"


def test_default_demonstrations_bundle():
    demos = DemonstrationSet.default()
    assert len(demos.items) == 8
    assert len(demos.take(2).items) == 2
    with pytest.raises(ValueError):
        demos.take(0)
    with pytest.raises(ValueError):
        demos.take(9)


def test_a_demonstration_set_is_never_empty(tmp_path):
    with pytest.raises(ValueError, match="at least one demonstration"):
        DemonstrationSet(items=())
    path = tmp_path / "demos.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match="at least one demonstration"):
        DemonstrationSet.from_file(path)


def test_demonstrations_from_file(tmp_path):
    path = tmp_path / "demos.json"
    path.write_text(
        '[{"caption": "c", "text": "t", "topics": ["A"]}]',
        encoding="utf-8",
    )
    assert DemonstrationSet.from_file(path).items[0].topics == ("A",)


def test_demonstration_topics_must_be_a_list_not_a_string(tmp_path):
    # tuple("Politics") would teach the reply ['P', 'o', 'l', ...].
    path = tmp_path / "demos.json"
    path.write_text('[{"caption": "c", "text": "t", "topics": "Politics"}]', encoding="utf-8")
    with pytest.raises(ValueError, match="topics must be a list"):
        DemonstrationSet.from_file(path)


# -- reply parsing ------------------------------------------------------------


def test_parse_single_label():
    assert parse_topic_list("['Military']") == ["Military"]


def test_parse_empty_list_fails():
    with pytest.raises(TopicParseError):
        parse_topic_list("[]")


def test_parse_dedupes_case_insensitively_keeping_first():
    assert parse_topic_list("['politics', 'Politics', 'War']") == ["politics", "War"]


def test_parse_tolerates_quotes_and_whitespace():
    assert parse_topic_list('[ "A" ,  \'B\' ]') == ["A", "B"]
    assert parse_topic_list("The topics are: ['A', 'B'].") == ["A", "B"]


def test_parse_prose_fails():
    with pytest.raises(TopicParseError):
        parse_topic_list("This meme is about politics and war.")


def test_parse_unmatched_bracket_fails():
    with pytest.raises(TopicParseError):
        parse_topic_list("['Politics'")


def test_parse_blank_labels_fail():
    with pytest.raises(TopicParseError):
        parse_topic_list("['', '  ']")


def test_parse_keeps_apostrophes_inside_labels():
    assert parse_topic_list("['Children's Rights', 'Women's Day']") == [
        "Children's Rights",
        "Women's Day",
    ]
    assert parse_topic_list("['Children's Rights']") == ["Children's Rights"]
    assert parse_topic_list("['a'u', 'u'b']") == ["a'u", "u'b"]


def test_parse_backslash_escapes_quotes_and_backslashes_only():
    assert parse_topic_list(r"['Children\'s Rights']") == ["Children's Rights"]
    assert parse_topic_list(r'["He said \"hi\""]') == ['He said "hi']  # edge quotes trimmed
    assert parse_topic_list(r"['a\\b']") == ["a\\b"]
    assert parse_topic_list(r"['caf\u00e9']") == ["caf\\u00e9"]


def test_format_topic_list_roundtrips():
    rendered = format_topic_list(["Politics", "Financial Crisis"])
    assert rendered == "['Politics', 'Financial Crisis']"
    assert parse_topic_list(rendered) == ["Politics", "Financial Crisis"]


# Long runs of the characters a parser might nest or backtrack on.
HOSTILE_REPLIES = (
    "['a'" + "+'a'" * 3000 + "]",
    "[" + "-" * 3000 + "1]",
    "[" + "-" * 10000 + "1]",
    "['" + "\\" * 5000 + "x'y]",
)


HOSTILE_IDS = ["concat", "unary-3000", "unary-10000", "backslashes-5000"]


@pytest.mark.parametrize("reply", HOSTILE_REPLIES, ids=HOSTILE_IDS)
def test_parse_deeply_nested_reply_raises_only_parse_error(reply):
    try:
        labels = parse_topic_list(reply)
    except TopicParseError:
        return
    assert labels and all(labels)


@pytest.mark.parametrize("reply", HOSTILE_REPLIES, ids=HOSTILE_IDS)
def test_deeply_nested_reply_costs_one_document_not_the_stage(reply):
    corpus = make_corpus(3)
    cfg = mock_backend(rules=[("thing 1", reply)], default="['Humor']")
    assignments = generate_topics(corpus, make_demos(1), cfg)
    assert [a.doc_id for a in assignments] == ["m0", "m1", "m2"]
    assert [a.topics for a in assignments][::2] == [("Humor",), ("Humor",)]


# Replies are drawn from text weighted toward the characters the parser
# treats specially, so brackets, quotes and commas meet often.
REPLY_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("[]'\",\\ \n\t"), st.characters()), max_size=60
)
EDGE_CHARS = "'\""


@settings(max_examples=200, deadline=None)
@given(reply=st.one_of(REPLY_TEXT, st.lists(REPLY_TEXT, max_size=4).map(str)))
@example(reply="[\"'\\\" 'a\"]")  # label '" 'a: quote, space, quote on its left
@example(reply="['a'u', 'u'b']")  # no label may join two quoted strings
@example(reply="['a' 'b']")
def test_parse_any_text_gives_clean_unique_labels_or_parse_error(reply):
    try:
        labels = parse_topic_list(reply)
    except TopicParseError:
        return
    assert labels
    for label in labels:
        assert label
        assert not (label[0].isspace() or label[0] in EDGE_CHARS)
        assert not (label[-1].isspace() or label[-1] in EDGE_CHARS)
        # Only an escape can make a label that is not part of the reply.
        assert "\\" in reply or label in reply
    assert len({label.casefold() for label in labels}) == len(labels)


PLAIN_LABEL = st.text(alphabet=st.characters(blacklist_characters="'\"\\"), max_size=12)
WORD = st.text(alphabet=st.characters(categories=("L", "N")), min_size=1, max_size=6)
# An apostrophe inside a word, as in "Children's Rights".
APOSTROPHE_LABEL = st.builds(
    lambda head, tail, rest: f"{head}'{tail}{rest}",
    WORD,
    WORD,
    st.sampled_from(["", " Rights", " Day"]),
)


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.one_of(PLAIN_LABEL, APOSTROPHE_LABEL), min_size=1, max_size=6))
@example(labels=["Children's Rights", "Women's Day"])
def test_parse_inverts_format_up_to_trimming_and_dedup(labels):
    expected: list[str] = []
    seen: set[str] = set()
    for label in labels:
        cleaned = label.strip()
        if cleaned and cleaned.casefold() not in seen:
            seen.add(cleaned.casefold())
            expected.append(cleaned)
    rendered = format_topic_list(labels)
    if not expected:
        with pytest.raises(TopicParseError):
            parse_topic_list(rendered)
    else:
        assert parse_topic_list(rendered) == expected


# -- generation routing -------------------------------------------------------


def test_all_docs_generated_with_scripted_backend():
    corpus = make_corpus(5)
    cfg = mock_backend(default="['Politics']")
    assignments = generate_topics(corpus, make_demos(2), cfg)
    assert len(assignments) == 5
    assert all(a.provenance == "generated" for a in assignments)
    assert all(a.topics == ("Politics",) for a in assignments)


def test_refused_doc_routes_to_inappropriate_others_unaffected():
    corpus = make_corpus(4)
    cfg = mock_backend(
        rules=[("thing 2", "I cannot discuss this meme.")], default="['Humor']"
    )
    assignments = generate_topics(corpus, make_demos(1), cfg)
    by_id = {a.doc_id: a for a in assignments}
    assert by_id["m2"].provenance == "inappropriate"
    assert by_id["m2"].topics == ()
    assert all(by_id[f"m{i}"].provenance == "generated" for i in (0, 1, 3))


def test_prose_reply_routes_to_miscellaneous():
    corpus = make_corpus(3)
    cfg = mock_backend(rules=[("thing 1", "no list here, sorry")], default="['Humor']")
    assignments = generate_topics(corpus, make_demos(1), cfg)
    by_id = {a.doc_id: a for a in assignments}
    assert by_id["m1"].provenance == "miscellaneous"
    assert provenance_counts(assignments) == {
        "generated": 2,
        "miscellaneous": 1,
        "inappropriate": 0,
    }


def test_no_document_lost():
    corpus = make_corpus(20)
    cfg = mock_backend(
        rules=[("thing 3", "[]"), ("thing 7", "I cannot do that")], default="['X']"
    )
    assignments = generate_topics(corpus, make_demos(1), cfg)
    assert len(assignments) == corpus.total_docs
    assert [a.doc_id for a in assignments] == [d.id for d in corpus.documents]


def test_reserved_label_collision_is_rewritten():
    corpus = make_corpus(1)
    cfg = mock_backend(default="['Miscellaneous', 'Inappropriate', 'Sports']")
    assignments = generate_topics(corpus, make_demos(1), cfg)
    assert assignments[0].topics == ("Miscellaneous (generated)", "Sports")
    assert assignments[0].provenance == "generated"


def test_replay_reproduces_assignments(tmp_path):
    corpus = make_corpus(6)
    cache = tmp_path / "cache.jsonl"
    recording = mock_backend(
        rules=[("thing 4", "not a list")], default="['Cats']",
        cache_path=str(cache), record=True,
    )
    first = generate_topics(corpus, make_demos(2), recording)

    replay_cfg = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(cache))
    second = generate_topics(corpus, make_demos(2), replay_cfg)
    assert first == second


def test_assignments_roundtrip_file(tmp_path):
    # The run directory's writer and reader give back what generation made,
    # failure buckets included.
    backend = mock_backend(
        rules=[("thing 1", "not a list"), ("thing 2", "I cannot help with that.")],
        default="['A', 'B']",
    )
    cfg = RunConfig(corpus_path="unused", num_demonstrations=1, backend=backend)
    corpus = make_corpus(4)
    assignments, _ = stage_generate(cfg, tmp_path, corpus, LlmGateway(backend))
    assert {a.provenance for a in assignments} == {"generated", "miscellaneous", "inappropriate"}
    assert _load_artifact(tmp_path, "assignments", {"corpus": corpus}) == assignments


def test_gateway_instance_accepted_directly():
    corpus = make_corpus(2)
    gateway = LlmGateway(mock_backend(default="['Z']"))
    assignments = generate_topics(corpus, make_demos(1), gateway)
    assert gateway.total_usage.prompt > 0
    assert len(assignments) == 2
