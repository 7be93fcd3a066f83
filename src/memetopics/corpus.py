"""Meme corpus ingestion, text preprocessing, and corpus statistics.

A meme arrives flattened to text: an image caption from a captioning model
plus the text superimposed on the image. This module loads those records
from JSONL or CSV, cleans them into token lists, and exposes the counts
that the weighting and evaluation stages consume: document frequencies,
counted once per corpus when first read, and co-occurrences of a chosen
word set, counted from postings built in one pass over the documents.
It also holds the package's one run-file codec, JSON reader, type-and-bound rule and record rule.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import unicodedata
from collections import Counter, namedtuple
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Iterable, Literal, Mapping, Union
from typing import get_args, get_origin, get_type_hints

URL_PREFIXES = ("http://", "https://", "www.")
USERNAME_PREFIX = "@"
_TEXT = {"text": "overlay_text"}  # a record's key for a meme's superimposed text, and its field


class CorpusFormatError(ValueError):
    """Raised when an input record cannot be parsed into a MemeDocument."""


_LISTS = {tuple: (list, tuple), list: (list, tuple), frozenset: (list, tuple, set, frozenset)}
_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
          dict: "a JSON object", list: "a JSON list"}


# Annotated[X, _Bound(low)] admits an X whose value, or length, is at least low (above if strict).
_Bound = namedtuple("_Bound", "low strict", defaults=[False])
_AtLeastOne = Annotated[int, _Bound(1)]
_Positive = Annotated[float, _Bound(0, strict=True)]


def _typed(value: object, hint: object, where: str):
    """value checked against the annotation hint (str; bool; int, never a bool; float, an int
    kept as is; X | None; Literal; a class; tuple[X, ...], tuple[str, str], list[X] or
    frozenset[str], made so from a list, never a string; dict[K, V]; Annotated[X, _Bound(low)],
    an X whose value or length is at least low), else a ValueError naming where."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:  # an X, then its bound
        checked, (low, strict) = _typed(value, args[0], where), args[1]
        size = len(checked) if (sized := isinstance(checked, tuple | list | frozenset)) else checked
        if size > low or size == low and not strict:
            return checked
        if sized:
            raise ValueError(f"{where} must hold at least {low}, not {value!r}")
        raise ValueError(f"{where} must be >{'' if strict else '='} {low}, not {value!r}")
    if origin is Literal:
        if value in args:
            return value
        raise ValueError(f"{where} must be one of {', '.join(map(repr, args))}, not {value!r}")
    if origin in (Union, UnionType):  # X | None
        return None if value is None and NoneType in args else _typed(value, args[0], where)
    if origin is dict:
        return {_typed(key, args[0], f"{where}: key"): _typed(item, args[1], f"{where}[{key!r}]")
                for key, item in _typed(value, dict, where).items()}
    if origin in _LISTS:
        if isinstance(value, str) or not isinstance(value, _LISTS[origin]):
            shown = f"the string {value!r}" if isinstance(value, str) else repr(value)
            raise ValueError(f"{where} must be a list, not {shown}")
        if origin is tuple and args[-1] is not Ellipsis and len(value) != len(args):
            raise ValueError(f"{where} must hold {len(args)} items, not {value!r}")
        if args[0] is not str:
            return origin(_typed(item, args[0], f"{where}[{i}]") for i, item in enumerate(value))
        for i, item in enumerate(value):  # one flat scan
            if not isinstance(item, str):
                raise ValueError(f"{where}[{i}] must be a string, not {item!r}")
        return origin(value)
    kinds = (int, float) if hint is float else hint
    if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
        return value
    raise ValueError(f"{where} must be {_KINDS.get(hint, f'a {hint.__name__}')}, not {value!r}")


_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))  # bounds kept


def _check_fields(obj: object) -> None:
    """Run each field of the dataclass obj through _typed, naming the field."""
    hints = _hints(type(obj))
    for f in fields(obj):
        object.__setattr__(obj, f.name, _typed(getattr(obj, f.name), hints[f.name], f.name))


def _record(cls: type, data: object, where: str, renamed: Mapping[str, str] | None = None,
            required: Iterable[str] = ()):
    """The dataclass cls built from the JSON object data, renamed mapping a key to the field it
    fills; a key is required if its field has no default or required names it (a reader of a
    file the program wrote requires every key the writer writes). An unknown or missing key, or
    a value _typed refuses, is a ValueError naming it after where, which ends in a separator."""
    data = _typed(data, dict, where.rstrip(": .") or "record")
    keys = {f.name: f.name for f in fields(cls)} | {v: k for k, v in (renamed or {}).items()}
    need = {keys[f.name] for f in fields(cls) if f.default is f.default_factory is MISSING}
    bad = sorted(data.keys() - keys.values()) or sorted(need.union(required) - data.keys())
    if bad:
        raise ValueError(f"{'unknown' if bad[0] in data else 'missing'} key {where}{bad[0]}")
    hints = _hints(cls)
    return cls(**{f: _typed(data[k], hints[f], where + k) for f, k in keys.items() if k in data})


@dataclass(frozen=True)
class MemeDocument:
    """One meme flattened to text, with tokens filled in by preprocess()."""

    id: str
    caption: str
    overlay_text: str
    tokens: tuple[str, ...] = ()

    @property
    def raw_text(self) -> str:
        """Caption followed by superimposed text, the order tokens derive from."""
        return f"{self.caption} {self.overlay_text}"


@dataclass(frozen=True)
class PreprocessConfig:
    """Cleaning rules: stopwords, a manual blocklist, and token length floor.

    The blocklist holds words removed after reviewing the most frequent
    terms of a corpus; keeping it in config makes that manual step
    reproducible.
    """

    stopwords: frozenset[str] = frozenset()
    extra_blocklist: frozenset[str] = frozenset()
    min_token_len: _AtLeastOne = 1
    lowercase: bool = True

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass
class Corpus:
    """A collection of meme documents plus the statistics derived from them.

    total_docs is counted on construction. doc_freq, the number of
    documents holding each token, is counted the first time it is read,
    since a run never reads it; a corpus not yet preprocessed has no
    tokens, so its doc_freq is empty.
    """

    documents: list[MemeDocument]
    total_docs: int = field(init=False)

    def __post_init__(self) -> None:
        self._index = {doc.id: doc for doc in self.documents}
        if len(self._index) != len(self.documents):
            raise CorpusFormatError("duplicate document ids in corpus")
        self.total_docs = len(self.documents)

    @functools.cached_property
    def doc_freq(self) -> dict[str, int]:
        doc_freq: Counter[str] = Counter()
        for doc in self.documents:
            doc_freq.update(set(doc.tokens))
        return dict(doc_freq)

    def document(self, doc_id: str) -> MemeDocument:
        try:
            return self._index[doc_id]
        except KeyError:
            raise KeyError(f"unknown document id {doc_id!r}") from None


def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list, read by load_stopwords."""
    with resources.as_file(resources.files("memetopics.data") / "stopwords.txt") as path:
        return load_stopwords(path)


@contextlib.contextmanager
def _decoding(path: str | Path):
    """Reraise a UnicodeDecodeError of reading path as a ValueError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list file: one word per line, UTF-8 (a leading byte
    order mark skipped), blanks ignored."""
    with open(path, encoding="utf-8-sig") as f, _decoding(path):
        return frozenset(line.strip() for line in f if line.strip())


def _require_str(record: Mapping, key: str, where: str) -> str:
    if key not in record:
        raise CorpusFormatError(f"{where}: missing field {key!r}")
    value = record[key]
    if not isinstance(value, str):
        raise CorpusFormatError(f"{where}: field {key!r} must be a string")
    return value


def load_corpus(path: str | Path, format: str = "jsonl") -> Corpus:
    """Load meme records into an unprocessed Corpus.

    Records carry {"id", "caption", "text"} where "text" is the superimposed
    text. Duplicate ids and malformed records raise CorpusFormatError naming
    the offending line.
    """
    path = Path(path)
    if format == "jsonl":
        records = _read_jsonl(path)
    elif format == "csv":
        records = _read_csv(path)
    else:
        raise ValueError(f"unsupported corpus format {format!r}")

    documents: list[MemeDocument] = []
    seen: dict[str, int] = {}
    for lineno, record in records:
        where = f"{path.name}:{lineno}"
        raw_id = record.get("id")
        if type(raw_id) is int:  # a JSON integer, never true or false
            raw_id = str(raw_id)
        if not isinstance(raw_id, str) or not raw_id:
            raise CorpusFormatError(f"{where}: missing or invalid 'id'")
        if raw_id in seen:
            raise CorpusFormatError(
                f"{where}: duplicate document id {raw_id!r} (first seen at line {seen[raw_id]})"
            )
        seen[raw_id] = lineno
        caption = _require_str(record, "caption", where)
        overlay = _require_str(record, "text", where)
        documents.append(MemeDocument(id=raw_id, caption=caption, overlay_text=overlay))
    return Corpus(documents=documents)


def _read_json(path: str | Path, kind: type = dict):
    """The JSON value in path, a kind (dict, list or object), else a ValueError naming it."""
    with open(path, encoding="utf-8") as f, _decoding(path):
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, kind):
        raise ValueError(f"{path}: must hold {_KINDS[kind]}, not {type(data).__name__}")
    return data


def _read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """The (line number, record) pairs of a JSONL file, blank lines skipped;
    a line that is not a JSON object raises a ValueError naming it."""
    name = Path(path).name
    rows = []
    with open(path, encoding="utf-8") as f, _decoding(path):
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{name}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{name}:{lineno}: record must be a JSON object")
            rows.append((lineno, record))
    return rows


def _write_file(path: str | Path, chunks: Iterable[str]) -> None:
    """Write chunks beside path, then rename over it, so a write that fails midway leaves the
    old file whole: the one writer of every run file. Newlines go out untranslated."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str | Path, payload: dict) -> None:
    """Write payload as one indented object, keys sorted, text ASCII-escaped, newline-ended."""
    _write_file(path, [json.dumps(payload, sort_keys=True, ensure_ascii=True, indent=2), "\n"])


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write records one compact line each, keys sorted, text ASCII-escaped."""
    _write_file(path, (json.dumps(r, sort_keys=True, ensure_ascii=True) + "\n" for r in records))


def _read_csv(path: Path) -> list[tuple[int, dict]]:
    rows = []
    with open(path, encoding="utf-8-sig", newline="") as f, _decoding(path):  # Excel writes a BOM
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not {"id", "caption", "text"} <= set(reader.fieldnames):
            raise CorpusFormatError(f"{path.name}:1: CSV header must include id, caption, text")
        for record in reader:
            rows.append((reader.line_num, dict(record)))
    return rows


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _tokenize(text: str, cfg: PreprocessConfig, memo: dict[str, str]) -> list[str]:
    """Split on whitespace, drop URLs/usernames, strip edge punctuation,
    filter; every token is a substring of the case-folded input. Each
    distinct word is cleaned once: memo maps each word seen under cfg to its
    token, "" for a word that is dropped."""
    tokens = []
    for raw in text.split():
        word = memo.get(raw)
        if word is None:
            word = memo[raw] = _clean(raw, cfg)
        if word:
            tokens.append(word)
    return tokens


def _clean(raw: str, cfg: PreprocessConfig) -> str:
    """The token one whitespace-split word becomes, "" if it is dropped."""
    word = raw.lower() if cfg.lowercase else raw
    if word.startswith(URL_PREFIXES) or word.startswith(USERNAME_PREFIX):
        return ""
    # No alphanumeric character is punctuation: such edges need no scan.
    if not (word[0].isalnum() and word[-1].isalnum()):
        start, end = 0, len(word)
        while start < end and _is_punct(word[start]):
            start += 1
        while end > start and _is_punct(word[end - 1]):
            end -= 1
        word = word[start:end]
    if len(word) < cfg.min_token_len:
        return ""
    if word in cfg.stopwords or word in cfg.extra_blocklist:
        return ""
    return word


def preprocess(corpus: Corpus, cfg: PreprocessConfig) -> Corpus:
    """Populate tokens for every document.

    Documents whose tokens come out empty are retained: they can still be
    assigned topics from their raw text. Idempotent, and deterministic for
    a fixed input corpus and config. Memes repeat their words, so each
    distinct word is cleaned once per call.
    """
    memo: dict[str, str] = {}
    return Corpus(
        [
            MemeDocument(
                doc.id, doc.caption, doc.overlay_text, tuple(_tokenize(doc.raw_text, cfg, memo))
            )
            for doc in corpus.documents
        ]
    )


def top_frequent_words(corpus: Corpus, k: int) -> list[tuple[str, int]]:
    """Top k words by document frequency, ties broken lexicographically.

    Supports the manual review of the most frequent terms that feeds the
    extra_blocklist. k larger than the vocabulary returns the full ranking.
    """
    ranked = sorted(corpus.doc_freq.items(), key=lambda item: (-item[1], item[0]))
    return ranked[: max(k, 0)]


@dataclass
class Cooccurrence:
    """Document-level unigram and pairwise co-occurrence counts of a word set.

    postings maps each wanted word to the positions of the documents holding
    it; a pair count intersects two postings when asked for, so a caller pays
    only for the pairs it needs. Words outside the set count 0.
    """

    postings: dict[str, set[int]]
    total_docs: int

    @property
    def doc_count(self) -> dict[str, int]:
        return {word: len(ids) for word, ids in self.postings.items()}

    def count(self, word: str) -> int:
        return len(self.postings.get(word, ()))

    def pair(self, w1: str, w2: str) -> int:
        return len(self.postings.get(w1, frozenset()) & self.postings.get(w2, frozenset()))


def cooccurrence_counts(corpus: Corpus, words: Iterable[str]) -> Cooccurrence:
    """Count, for each word and word pair, how many documents contain them.

    Membership is per-document boolean (a word counts once per document no
    matter how often it repeats). Words absent from the corpus get count 0.
    """
    wanted = set(words)
    postings: dict[str, set[int]] = {word: set() for word in wanted}
    for idx, doc in enumerate(corpus.documents):
        for word in wanted.intersection(doc.tokens):
            postings[word].add(idx)
    return Cooccurrence(postings, corpus.total_docs)


def save_processed(corpus: Corpus, path: str | Path) -> None:
    """Write a processed corpus as JSONL, one record per document."""
    records = (
        {"id": doc.id, "caption": doc.caption, "text": doc.overlay_text, "tokens": doc.tokens}
        for doc in corpus.documents
    )
    _write_jsonl(path, records)


def load_processed(path: str | Path) -> Corpus:
    """Read a corpus written by save_processed, every key it writes required;
    a CorpusFormatError names the file."""
    name = Path(path).name
    rows = _read_jsonl(path)
    try:
        docs = [_record(MemeDocument, r, f"{name}:{n}: ", _TEXT, ["tokens"]) for n, r in rows]
        return Corpus(docs)
    except ValueError as exc:  # Corpus refuses a duplicate id without naming the file
        message = f"{name}: {exc}" if type(exc) is CorpusFormatError else str(exc)
        raise CorpusFormatError(message) from None
