"""Per-meme topic generation: prompt construction, reply parsing, routing.

Each meme's caption and superimposed text go into a few-shot prompt whose
demonstrations teach the reply format (a bracketed quoted list of topic
labels). Replies that cannot be parsed route the meme to the reserved
Miscellaneous cluster; moderation refusals route it to Inappropriate. No
document is ever dropped. Two labels are the same when their casefold() is
equal, a rule that only _spelled_as and _unique_labels apply: for
parse_topic_list, generate_topics, CollapseState, build_collapse_prompt,
collapse_pbm, represent_llm, coherence and the read-back of assignments.jsonl.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Annotated, Iterable, Literal, Sequence, get_args

from .corpus import _TEXT, Corpus, MemeDocument, _Bound, _check_fields, _hints, _read_json, _record
from .llm import BackendConfig, ChatExchange, LlmGateway

MISCELLANEOUS = "Miscellaneous"
INAPPROPRIATE = "Inappropriate"
# An LLM reply naming a reserved cluster is rewritten so failure buckets
# stay distinguishable from genuine labels.
RESERVED_COLLISION_LABEL = "Miscellaneous (generated)"

GENERATION_SYSTEM = (
    "You are designated as an assistant that identify and extract high-level "
    "topics from memes. You should avoid giving specific details and provide "
    "unique topics solely."
)

GENERATION_USER_TEMPLATE = (
    "Please list the high-level topics in the following meme using its image "
    "caption and superimposed text.\n"
    "Meme's Image Caption: {caption}\n"
    "Meme's Superimposed Text: {text}\n"
    "Topics:"
)

# A quoted label ends at the first unescaped quote of its kind that optional
# whitespace and then a comma or the end of the list follow, so an apostrophe
# inside a label (as in 'Children's Rights') stays in it. A backslash escapes
# the next character; no character matches both alternatives (an escape pair,
# or anything but a backslash), so a run of backslashes costs linear time.
_QUOTED = re.compile(
    r"'((?:\\.|[^\\])*?)'(?=\s*(?:,|\Z))|\"((?:\\.|[^\\])*?)\"(?=\s*(?:,|\Z))", re.DOTALL
)
_ESCAPED = re.compile(r"\\(['\"\\])")


class TopicParseError(ValueError):
    """The reply did not contain a usable topic list."""


@dataclass(frozen=True)
class Demonstration:
    caption: str
    overlay_text: str
    topics: Annotated[tuple[str, ...], _Bound(1)]

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class DemonstrationSet:
    """Ordered in-context examples, at least one; all of them are prepended
    to every prompt."""

    items: tuple[Demonstration, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a demonstration set needs at least one demonstration")

    @cached_property
    def turns(self) -> tuple[tuple[str, str], ...]:
        """The demonstrations as user/assistant turns, built once and shared
        by every prompt."""
        turns: list[tuple[str, str]] = []
        for demo in self.items:
            query = GENERATION_USER_TEMPLATE.format(caption=demo.caption, text=demo.overlay_text)
            turns.append(("user", query))
            turns.append(("assistant", format_topic_list(demo.topics)))
        return tuple(turns)

    def take(self, n: int) -> "DemonstrationSet":
        """First n demonstrations, for ablations over the demonstration count."""
        if not 1 <= n <= len(self.items):
            raise ValueError(f"cannot take {n} demonstrations from a set of {len(self.items)}")
        return DemonstrationSet(items=self.items[:n])

    @classmethod
    def from_file(cls, path: str | Path) -> "DemonstrationSet":
        """A JSON list of {"caption", "text", "topics"} records; errors name the file."""
        records = enumerate(_read_json(path, list))
        try:
            return cls(tuple(_record(Demonstration, r, f"[{i}].", _TEXT) for i, r in records))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "DemonstrationSet":
        """The bundled demonstration file (8 examples), read by from_file."""
        with resources.as_file(resources.files("memetopics.data") / "demonstrations.json") as path:
            return cls.from_file(path)


@dataclass(frozen=True)
class TopicAssignment:
    """Topic labels for one document, or the failure bucket it landed in."""

    doc_id: str
    topics: tuple[str, ...]
    provenance: Literal["generated", "miscellaneous", "inappropriate"]


def format_topic_list(topics: Sequence[str]) -> str:
    """Render labels the way demonstrations show them: ['A', 'B']."""
    quoted = ", ".join(f"'{t}'" for t in topics)
    return f"[{quoted}]"


def build_generation_prompt(doc: MemeDocument, demos: DemonstrationSet) -> ChatExchange:
    """Few-shot exchange for one meme: system rules, the demonstration pairs,
    then the meme's own caption/text as the final user turn."""
    query = GENERATION_USER_TEMPLATE.format(caption=doc.caption, text=doc.overlay_text)
    return ChatExchange(system=GENERATION_SYSTEM, turns=demos.turns, query=query)


def _trim(label: str) -> str:
    """The label without the whitespace and quote characters around it, in
    any interleaving."""
    start, end = 0, len(label)
    while start < end and (label[start].isspace() or label[start] in "'\""):
        start += 1
    while end > start and (label[end - 1].isspace() or label[end - 1] in "'\""):
        end -= 1
    return label[start:end]


def _spelled_as(labels: Iterable[str], known: Iterable[str]) -> list[str | None]:
    """Each label as the first of known that is the same label (equal casefold()), else None."""
    first: dict[str, str] = {}
    for label in known:
        first.setdefault(label.casefold(), label)
    return [first.get(label.casefold()) for label in labels]


def _unique_labels(labels: Iterable[str]) -> list[str]:
    """The labels without repeats by the rule of _spelled_as, each as first written."""
    first: dict[str, str] = {}
    for label in labels:
        first.setdefault(label.casefold(), label)
    return list(first.values())


def parse_topic_list(reply: str) -> list[str]:
    """Parse a bracketed quoted list of labels out of a model reply.

    The list runs from the first '[' to the last ']', prose around it
    ignored. Its labels are its quoted strings in either quote style (see
    _QUOTED), or its comma-separated parts when nothing is quoted. In a
    quoted label \\', \\" and \\\\ read as ', " and \\; other backslashes stay.
    Labels are trimmed of whitespace and quotes, and repeats go by the one
    label rule (_unique_labels), so a reply without a backslash contains
    every label it gives. Raises TopicParseError for prose without a list,
    an empty list, or unmatched brackets.
    """
    start = reply.find("[")
    end = reply.rfind("]")
    if start == -1 or end < start:
        raise TopicParseError("reply contains no bracketed list")
    inner = reply[start + 1 : end]
    quoted = _QUOTED.findall(inner)
    if quoted:
        labels = [_ESCAPED.sub(r"\1", a or b) for a, b in quoted]
    else:
        labels = inner.split(",")
    out = _unique_labels(filter(None, map(_trim, labels)))
    if not out:
        raise TopicParseError("reply parsed to an empty topic list")
    return out


def generate_topics(
    corpus: Corpus,
    demos: DemonstrationSet,
    backend: BackendConfig | LlmGateway,
) -> list[TopicAssignment]:
    """Prompt once per document and route every outcome.

    Refusals become Inappropriate, transport failures and unparseable
    replies become Miscellaneous, everything else carries its parsed
    labels, a reserved one renamed RESERVED_COLLISION_LABEL and repeats then
    removed. The result has exactly one assignment per document, in corpus
    order. The prompts go out through gateway.map, so over http several
    are in flight at once; the result is the same as one at a time.
    """
    # A config gets a gateway of its own. Outside the tests only
    # _record_cache in perfbench/run.py still passes one; once it builds
    # LlmGateway(cfg.backend) itself, this branch goes.
    gateway = backend if isinstance(backend, LlmGateway) else LlmGateway(backend)

    def assign(doc: MemeDocument) -> TopicAssignment:
        outcome = gateway.complete(build_generation_prompt(doc, demos))
        if outcome.status == "refused":
            return TopicAssignment(doc.id, (), "inappropriate")
        if outcome.status != "ok":
            return TopicAssignment(doc.id, (), "miscellaneous")
        try:
            labels = parse_topic_list(outcome.text)
        except TopicParseError:
            return TopicAssignment(doc.id, (), "miscellaneous")
        reserved = _spelled_as(labels, (MISCELLANEOUS, INAPPROPRIATE))
        labels = [RESERVED_COLLISION_LABEL if r else label for label, r in zip(labels, reserved)]
        return TopicAssignment(doc.id, tuple(_unique_labels(labels)), "generated")

    return gateway.map(assign, corpus.documents)


def provenance_counts(assignments: Iterable[TopicAssignment]) -> dict[str, int]:
    counts = Counter(a.provenance for a in assignments)
    return {key: counts.get(key, 0) for key in get_args(_hints(TopicAssignment)["provenance"])}
