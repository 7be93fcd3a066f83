"""Class-based TF-IDF over topic clusters.

Each topic's member documents are concatenated into one class document;
a word's weight in a class is its within-class frequency scaled by an
inverse class-frequency factor:

    weight(x, c) = tf(x, c) * ln(1 + (1 + C) / (1 + df(x)))

where tf(x, c) counts occurrences of word x in class c's concatenated
tokens, df(x) is the number of classes containing x, and C is the number
of classes. Tables are built from explicit topic -> member-doc-id
clusters. A table stores no weights: it groups each class's words by df,
each group in (-tf, word) order. Words of equal df share their idf, so
that is their weight order whatever C is, and top_words ranks a class by
merging its groups. It is the one ranking rule: both topic representation
strategies read it, and the word similarity collapse keeps one table
current across its merges and re-cuts its top sets with it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Corpus


@dataclass
class CtfidfTable:
    """Per-class term frequencies, class document frequencies, and each
    class's words grouped by df, every group in (-tf, word) order."""

    classes: list[str]
    class_tf: dict[str, dict[str, int]]
    df: dict[str, int]
    num_classes: int
    groups: dict[str, dict[int, list[str]]]


def _class_counts(doc_ids: Iterable[str], corpus: Corpus) -> dict[str, int]:
    """Term counts of one class document: its members' tokens, concatenated."""
    counts: Counter[str] = Counter()
    for doc_id in doc_ids:
        counts.update(corpus.document(doc_id).tokens)
    return dict(counts)


def idf(df: int, num_classes: int) -> float:
    """The inverse class-frequency factor of the module docstring; a word's
    weight in a class is its tf times this."""
    return math.log(1.0 + (1.0 + num_classes) / (1.0 + df))


def _grouped(tf: Mapping[str, int], df: Mapping[str, int]) -> dict[int, list[str]]:
    """A class's words by df, each group in (-tf, word) order."""
    groups: dict[int, list[str]] = {}
    for word in sorted(tf, key=lambda w: (-tf[w], w)):
        groups.setdefault(df[word], []).append(word)
    return groups


def ctfidf_from_clusters(clusters: Mapping[str, Iterable[str]], corpus: Corpus) -> CtfidfTable:
    """Build the table from explicit topic -> member-doc-id clusters.

    A document appearing in several clusters contributes its full token
    list to each of them.
    """
    if not clusters:
        raise ValueError("c-TF-IDF needs at least one class")
    classes = sorted(clusters)
    class_tf = {cls: _class_counts(clusters[cls], corpus) for cls in classes}

    df: Counter[str] = Counter()
    for cls in classes:
        df.update(class_tf[cls].keys())

    groups = {cls: _grouped(class_tf[cls], df) for cls in classes}
    return CtfidfTable(classes, class_tf, dict(df), len(classes), groups)


def top_words(table: CtfidfTable, topic: str, k: int) -> list[str]:
    """The k heaviest words of a class; ties go to the alphabetically
    smaller word, and classes with fewer than k distinct words return all
    of them. Each df group is already in weight order, since idf > 0, so a
    k-way merge of the group fronts weighs only the words it passes."""
    if topic not in table.groups:
        raise KeyError(f"unknown topic {topic!r}")
    tf, groups = table.class_tf[topic], table.groups[topic]
    factor = {n: idf(n, table.num_classes) for n in groups}
    fronts = [(-(tf[group[0]] * factor[n]), group[0], n, 0) for n, group in groups.items()]
    heapq.heapify(fronts)
    ranked: list[str] = []
    while fronts and len(ranked) < k:
        _, word, n, i = heapq.heappop(fronts)
        ranked.append(word)
        group = groups[n]
        if i + 1 < len(group):
            nxt = group[i + 1]
            heapq.heappush(fronts, (-(tf[nxt] * factor[n]), nxt, n, i + 1))
    return ranked
