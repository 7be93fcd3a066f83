"""Corpus loading, preprocessing, and statistics."""

import json
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics.corpus import (
    URL_PREFIXES,
    USERNAME_PREFIX,
    Corpus,
    CorpusFormatError,
    PreprocessConfig,
    cooccurrence_counts,
    default_stopwords,
    load_corpus,
    load_processed,
    load_stopwords,
    preprocess,
    save_processed,
    top_frequent_words,
)

from conftest import corpus_from_tokens, write_jsonl


@pytest.fixture
def std_cfg():
    return PreprocessConfig(stopwords=default_stopwords())


def test_load_jsonl_counts_records(tmp_path):
    path = write_jsonl(
        tmp_path / "memes.jsonl",
        [
            {"id": "a", "caption": "one", "text": "x"},
            {"id": "b", "caption": "two", "text": "y"},
            {"id": "c", "caption": "three", "text": "z"},
        ],
    )
    corpus = load_corpus(path)
    assert corpus.total_docs == 3
    assert [d.id for d in corpus.documents] == ["a", "b", "c"]
    assert corpus.documents[0].tokens == ()


def test_load_missing_field_names_line(tmp_path):
    path = write_jsonl(
        tmp_path / "memes.jsonl",
        [
            {"id": "a", "caption": "fine", "text": "ok"},
            {"id": "b", "caption": "broken"},
        ],
    )
    with pytest.raises(CorpusFormatError, match=r":2.*'text'"):
        load_corpus(path)


def test_load_duplicate_id_names_id(tmp_path):
    path = write_jsonl(
        tmp_path / "memes.jsonl",
        [
            {"id": "dup", "caption": "one", "text": "x"},
            {"id": "dup", "caption": "two", "text": "y"},
        ],
    )
    with pytest.raises(CorpusFormatError, match="'dup'"):
        load_corpus(path)


def test_load_invalid_json_names_line(tmp_path):
    path = tmp_path / "memes.jsonl"
    path.write_text('{"id": "a", "caption": "c", "text": "t"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=":2"):
        load_corpus(path)


def test_an_integer_id_reads_as_its_digits_and_then_collides_with_them(tmp_path):
    records = [{"id": 7, "caption": "one", "text": "x"}, {"id": "8", "caption": "two", "text": ""}]
    corpus = load_corpus(write_jsonl(tmp_path / "memes.jsonl", records))
    assert [d.id for d in corpus.documents] == ["7", "8"]
    records.append({"id": "7", "caption": "three", "text": "z"})
    with pytest.raises(CorpusFormatError, match=r"memes\.jsonl:3: duplicate .*'7'.*line 1"):
        load_corpus(write_jsonl(tmp_path / "memes.jsonl", records))


@pytest.mark.parametrize("bad_id", [True, False, 1.5, "", None, ["a"]])
def test_an_id_that_is_no_string_or_integer_is_refused_naming_the_line(tmp_path, bad_id):
    # true is not an integer, though Python's bool is an int.
    records = [{"id": "a", "caption": "one", "text": "x"}, {"id": bad_id, "caption": "", "text": ""}]
    with pytest.raises(CorpusFormatError, match=r"memes\.jsonl:2: missing or invalid 'id'"):
        load_corpus(write_jsonl(tmp_path / "memes.jsonl", records))


def test_blank_lines_of_a_jsonl_corpus_are_skipped(tmp_path):
    path = tmp_path / "memes.jsonl"
    record = '{"id": "%s", "caption": "c", "text": "t"}\n'
    path.write_text("\n" + record % "a" + "  \n\t\n" + record % "b" + "\n", encoding="utf-8")
    assert [d.id for d in load_corpus(path).documents] == ["a", "b"]
    path.write_text(record % "a" + "\nnot json\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"memes\.jsonl:3: invalid JSON"):
        load_corpus(path)  # a skipped line still counts


def test_an_unsupported_corpus_format_is_refused(tmp_path):
    path = write_jsonl(tmp_path / "memes.xml", [{"id": "a", "caption": "c", "text": "t"}])
    with pytest.raises(ValueError, match="unsupported corpus format 'xml'"):
        load_corpus(path, format="xml")


def test_load_full_scale_corpus(tmp_path):
    # Size matching the largest corpus this pipeline targets at desk scale.
    records = [{"id": f"m{i:04d}", "caption": f"cap {i}", "text": f"txt {i}"} for i in range(2513)]
    corpus = load_corpus(write_jsonl(tmp_path / "big.jsonl", records))
    assert corpus.total_docs == 2513


def test_load_csv(tmp_path):
    path = tmp_path / "memes.csv"
    path.write_text('id,caption,text\na,"a cat","hello there"\nb,"a dog","bye"\n', encoding="utf-8")
    corpus = load_corpus(path, format="csv")
    assert corpus.total_docs == 2
    assert corpus.documents[1].caption == "a dog"


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "memes.csv"
    path.write_text("id,caption\na,oops\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="header"):
        load_corpus(path, format="csv")


def test_preprocess_filters_urls_usernames_stopwords(std_cfg):
    corpus = Corpus(
        documents=[
            _doc("m1", caption="a cat", overlay="visit http://x.co @bob NOW!!"),
        ]
    )
    processed = preprocess(corpus, std_cfg)
    # Hand-applied rules: "a" and "now" are stopwords, the URL and the
    # username are dropped, punctuation is stripped.
    assert list(processed.documents[0].tokens) == ["cat", "visit"]


def test_preprocess_all_stopword_doc_retained(std_cfg):
    corpus = Corpus(documents=[_doc("m1", caption="the of and", overlay="a an")])
    processed = preprocess(corpus, std_cfg)
    assert processed.documents[0].tokens == ()
    assert processed.total_docs == 1


def test_preprocess_blocklist_removed_everywhere(std_cfg):
    cfg = PreprocessConfig(
        stopwords=std_cfg.stopwords, extra_blocklist=frozenset({"meme"})
    )
    corpus = Corpus(
        documents=[
            _doc("m1", caption="funny meme cat", overlay="meme time"),
            _doc("m2", caption="another meme", overlay="dog"),
        ]
    )
    processed = preprocess(corpus, cfg)
    assert "meme" not in processed.doc_freq
    assert processed.doc_freq["cat"] == 1


def test_preprocess_idempotent(std_cfg):
    corpus = Corpus(
        documents=[_doc("m1", caption="The Cat!", overlay="visit www.x.co @y zebra...")]
    )
    once = preprocess(corpus, std_cfg)
    twice = preprocess(once, std_cfg)
    assert [d.tokens for d in once.documents] == [d.tokens for d in twice.documents]
    assert once.doc_freq == twice.doc_freq


def test_preprocess_deterministic_bytes(tmp_path, std_cfg):
    records = [
        {"id": "a", "caption": "A cat naps", "text": "zzz @cat http://nap.io"},
        {"id": "b", "caption": "dogs BARK", "text": "loud!!"},
    ]
    path = write_jsonl(tmp_path / "memes.jsonl", records)
    out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    save_processed(preprocess(load_corpus(path), std_cfg), out1)
    save_processed(preprocess(load_corpus(path), std_cfg), out2)
    assert out1.read_bytes() == out2.read_bytes()
    reloaded = load_processed(out1)
    assert reloaded.doc_freq == preprocess(load_corpus(path), std_cfg).doc_freq


def test_load_processed_names_a_bad_line(tmp_path):
    path = tmp_path / "corpus_processed.jsonl"
    save_processed(corpus_from_tokens([("a", ["cat"]), ("b", ["dog"])]), path)
    path.write_text(path.read_text(encoding="utf-8") + "[1]\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"corpus_processed\.jsonl:3: record must be"):
        load_processed(path)


@pytest.mark.parametrize(
    "record, missing",
    [
        # tokens has a default, but save_processed writes it, so it is required.
        ('{"id": "c", "caption": "c", "text": ""}', "tokens"),
        ('{"id": "c", "text": "", "tokens": []}', "caption"),
    ],
    ids=["tokens", "caption"],
)
def test_load_processed_names_the_line_and_key_a_record_lacks(tmp_path, record, missing):
    path = tmp_path / "corpus_processed.jsonl"
    save_processed(corpus_from_tokens([("a", ["cat"]), ("b", ["dog"])]), path)
    path.write_text(path.read_text(encoding="utf-8") + record + "\n", encoding="utf-8")
    error = rf"missing key corpus_processed\.jsonl:3: {missing}$"
    with pytest.raises(CorpusFormatError, match=error):
        load_processed(path)


def test_load_processed_names_the_file_holding_a_duplicate_id(tmp_path):
    path = tmp_path / "corpus_processed.jsonl"
    save_processed(corpus_from_tokens([("a", ["cat"])]), path)
    path.write_text(path.read_text(encoding="utf-8") * 2, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"^corpus_processed\.jsonl: duplicate document"):
        load_processed(path)


def test_preprocess_never_invents_tokens(std_cfg):
    rng = random.Random(7)
    alphabet = "abc DEF.gh @u http://z,, ..!? www.q 123"
    for _ in range(25):
        caption = " ".join(rng.choice(alphabet.split()) for _ in range(rng.randint(0, 8)))
        overlay = " ".join(rng.choice(alphabet.split()) for _ in range(rng.randint(0, 8)))
        corpus = Corpus(documents=[_doc("m", caption=caption, overlay=overlay)])
        processed = preprocess(corpus, std_cfg)
        lowered = f"{caption} {overlay}".lower()
        for token in processed.documents[0].tokens:
            assert token in lowered


def per_character_tokenize(text, cfg):
    """tokenize as first written: every word's edges are scanned for
    punctuation one character at a time, whatever they hold."""
    tokens = []
    for raw in text.split():
        word = raw.lower() if cfg.lowercase else raw
        if word.startswith(URL_PREFIXES) or word.startswith(USERNAME_PREFIX):
            continue
        start, end = 0, len(word)
        while start < end and unicodedata.category(word[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(word[end - 1]).startswith("P"):
            end -= 1
        word = word[start:end]
        if len(word) < cfg.min_token_len:
            continue
        if word in cfg.stopwords or word in cfg.extra_blocklist:
            continue
        tokens.append(word)
    return tokens


# Words, punctuation (ASCII and not), URL and username prefixes, letters
# that change length or context when lowered, and any other character.
meme_text = st.lists(
    st.one_of(
        st.sampled_from(["cat", "The", "and", "A1", "ΣΑΣ", "İx", "www.", "http://", "@"]),
        st.sampled_from(list(".,!?'\"()-_¿«»…—#%&*/:;") + [" ", "\u00a0", "\n", "\t"]),
        st.characters(),
    )
).map("".join)
preprocess_cfgs = st.builds(
    PreprocessConfig,
    stopwords=st.sampled_from([frozenset(), frozenset({"the", "and", "a"})]),
    extra_blocklist=st.sampled_from([frozenset(), frozenset({"cat"})]),
    min_token_len=st.integers(1, 3),
    lowercase=st.booleans(),
)


def tokenize(text, cfg):
    """The tokens preprocess gives a one-document corpus whose caption is
    text and whose overlay is empty."""
    return list(preprocess(Corpus([_doc("m", text, "")]), cfg).documents[0].tokens)


@settings(max_examples=300, deadline=None)
@given(text=meme_text, cfg=preprocess_cfgs)
def test_tokenize_equals_the_per_character_version(text, cfg):
    assert tokenize(text, cfg) == per_character_tokenize(text, cfg)


@settings(max_examples=200, deadline=None)
@given(
    # Each word with its case swapped too, so words differ only in case.
    words=st.lists(meme_text, min_size=1, max_size=4).map(
        lambda words: words + [word.swapcase() for word in words]
    ),
    picks=st.lists(st.tuples(*[st.lists(st.integers(0, 7), max_size=8)] * 2), max_size=6),
    cfg=preprocess_cfgs,
)
def test_preprocess_over_shared_words_equals_the_per_character_version(words, picks, cfg):
    # preprocess cleans each distinct word once per call; documents built
    # from one small word pool repeat words within and across documents.
    def text(pick):
        return " ".join(words[i % len(words)] for i in pick)

    docs = [_doc(f"m{i}", text(cap), text(overlay)) for i, (cap, overlay) in enumerate(picks)]
    processed = preprocess(Corpus(docs), cfg)
    expected = [tuple(per_character_tokenize(doc.raw_text, cfg)) for doc in docs]
    assert [doc.tokens for doc in processed.documents] == expected


@settings(max_examples=300, deadline=None)
@given(text=meme_text, cfg=preprocess_cfgs)
def test_tokenize_never_invents_tokens(text, cfg):
    words = iter(word.lower() if cfg.lowercase else word for word in text.split())
    for token in tokenize(text, cfg):
        # Each token is cut from a later word than the one before it.
        assert any(token in word for word in words)
        assert len(token) >= cfg.min_token_len
        assert token not in cfg.stopwords and token not in cfg.extra_blocklist


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.tuples(meme_text, meme_text), max_size=5), cfg=preprocess_cfgs)
def test_preprocess_is_idempotent(texts, cfg):
    corpus = Corpus([_doc(f"m{i}", caption, overlay) for i, (caption, overlay) in enumerate(texts)])
    once = preprocess(corpus, cfg)
    twice = preprocess(once, cfg)
    assert once.documents == twice.documents
    assert once.doc_freq == twice.doc_freq
    assert [doc.id for doc in once.documents] == [doc.id for doc in corpus.documents]


def test_preprocess_min_token_len():
    cfg = PreprocessConfig(min_token_len=3)
    corpus = Corpus(documents=[_doc("m", caption="an ox runs far", overlay="")])
    processed = preprocess(corpus, cfg)
    assert list(processed.documents[0].tokens) == ["runs", "far"]


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("alpha\n\nbeta\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"alpha", "beta"})


def test_top_frequent_words_orders_by_doc_freq():
    corpus = corpus_from_tokens(
        [(f"d{i}", ["army"]) for i in range(10)] + [(f"c{i}", ["cat"]) for i in range(3)]
    )
    assert top_frequent_words(corpus, 2) == [("army", 10), ("cat", 3)]


def test_top_frequent_words_degenerate_k():
    corpus = corpus_from_tokens([("d", ["x"])])
    assert top_frequent_words(corpus, 0) == []


def test_top_frequent_words_tie_breaks_lexicographically():
    pairs = [(f"d{i}", ["beta", "alpha"]) for i in range(5)]
    corpus = corpus_from_tokens(pairs)
    assert top_frequent_words(corpus, 2) == [("alpha", 5), ("beta", 5)]


def test_top_frequent_words_k_beyond_vocab():
    corpus = corpus_from_tokens([("d", ["x", "y"])])
    assert len(top_frequent_words(corpus, 99)) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="ab", min_size=1, max_size=2), max_size=6), max_size=8))
def test_doc_freq_is_a_per_document_recount(token_lists):
    corpus = corpus_from_tokens([(f"d{i}", tokens) for i, tokens in enumerate(token_lists)])
    assert "doc_freq" not in vars(corpus)  # counted when first read
    words = set().union(*token_lists)
    assert corpus.doc_freq == {word: sum(word in tokens for tokens in token_lists) for word in words}


def test_cooccurrence_saturated_word():
    corpus = corpus_from_tokens([("a", ["w", "q"]), ("b", ["w"]), ("c", ["w", "z"])])
    counts = cooccurrence_counts(corpus, ["w"])
    assert counts.count("w") == corpus.total_docs


def test_cooccurrence_disjoint_pair():
    corpus = corpus_from_tokens([("a", ["x"]), ("b", ["y"])])
    counts = cooccurrence_counts(corpus, ["x", "y"])
    assert counts.pair("x", "y") == 0


def test_cooccurrence_brute_force_example():
    corpus = corpus_from_tokens([("1", ["a", "b"]), ("2", ["a"]), ("3", ["b"]), ("4", ["a", "b"])])
    counts = cooccurrence_counts(corpus, ["a", "b"])
    assert counts.pair("a", "b") == 2
    assert counts.count("a") == 3
    assert counts.count("b") == 3
    assert counts.pair("b", "a") == 2  # symmetric


def test_cooccurrence_absent_word_counts_zero():
    corpus = corpus_from_tokens([("a", ["x"])])
    counts = cooccurrence_counts(corpus, ["x", "ghost"])
    assert counts.count("ghost") == 0
    assert counts.pair("x", "ghost") == 0


def test_cooccurrence_bounded_by_unigrams():
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(12)]
    for trial in range(10):
        pairs = [
            (f"d{i}", rng.sample(vocab, rng.randint(0, 6))) for i in range(rng.randint(1, 20))
        ]
        corpus = corpus_from_tokens(pairs)
        counts = cooccurrence_counts(corpus, vocab)
        for i, w1 in enumerate(vocab):
            for w2 in vocab[i + 1 :]:
                assert counts.pair(w1, w2) <= min(counts.count(w1), counts.count(w2))


def test_duplicate_ids_rejected_at_corpus_level():
    with pytest.raises(CorpusFormatError):
        Corpus(documents=[_doc("same", caption="x", overlay=""), _doc("same", caption="y", overlay="")])


def test_processed_roundtrip_preserves_json_record_shape(tmp_path, std_cfg):
    corpus = Corpus(documents=[_doc("m1", caption="brave cat", overlay="naps hard")])
    processed = preprocess(corpus, std_cfg)
    out = tmp_path / "processed.jsonl"
    save_processed(processed, out)
    record = json.loads(out.read_text().splitlines()[0])
    assert set(record) == {"id", "caption", "text", "tokens"}


def _doc(doc_id, caption, overlay):
    from memetopics.corpus import MemeDocument

    return MemeDocument(id=doc_id, caption=caption, overlay_text=overlay)
