"""Class-based TF-IDF over topic clusters.

Each topic's member documents are concatenated into one class document;
a word's weight in a class is its within-class frequency scaled by an
inverse class-frequency factor:

    weight(x, c) = tf(x, c) * ln(1 + (1 + C) / (1 + df(x)))

where tf(x, c) counts occurrences of word x in class c's concatenated
tokens, df(x) is the number of classes containing x, and C is the number
of classes. Tables are built from explicit topic -> member-doc-id
clusters. Both topic representation strategies read from this table. The
word similarity collapse builds it once to seed its own per-merge state
and weighs words with the same idf() afterwards.
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
    """Per-class term frequencies, class document frequencies, and weights."""

    classes: list[str]
    class_tf: dict[str, dict[str, int]]
    df: dict[str, int]
    num_classes: int
    weights: dict[str, dict[str, float]]


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


def _weigh(
    class_tf: Mapping[str, Mapping[str, int]], df: Mapping[str, int], num_classes: int
) -> dict[str, dict[str, float]]:
    """The weight formula of the module docstring, for every (class, word)."""
    factor = {word: idf(n, num_classes) for word, n in df.items()}
    return {
        cls: {word: tf * factor[word] for word, tf in counts.items()}
        for cls, counts in class_tf.items()
    }


def ctfidf_from_clusters(clusters: Mapping[str, Iterable[str]], corpus: Corpus) -> CtfidfTable:
    """Build the weight table from explicit topic -> member-doc-id clusters.

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

    num_classes = len(classes)
    return CtfidfTable(
        classes=classes,
        class_tf=class_tf,
        df=dict(df),
        num_classes=num_classes,
        weights=_weigh(class_tf, df, num_classes),
    )


def top_words(table: CtfidfTable, topic: str, k: int) -> list[str]:
    """The k heaviest words of a class; ties go to the alphabetically
    smaller word, and classes with fewer than k distinct words return all
    of them."""
    if topic not in table.weights:
        raise KeyError(f"unknown topic {topic!r}")
    ranked = heapq.nsmallest(k, table.weights[topic].items(), key=lambda item: (-item[1], item[0]))
    return [word for word, _ in ranked]
