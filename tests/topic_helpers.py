"""Test-side helpers over the c-TF-IDF table and the wsm similarity.

build_ctfidf weighs generation output directly, direct_weights and
direct_top_words weigh and rank class words by brute force, sharing no
code with memetopics.ctfidf, and topic_similarity scores two word lists
with the formula collapse_wsm uses, so oracles and pinned values can be
written against plain lists.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from memetopics.collapse import _similarity
from memetopics.corpus import Corpus
from memetopics.ctfidf import CtfidfTable, ctfidf_from_clusters
from memetopics.generation import INAPPROPRIATE, MISCELLANEOUS, TopicAssignment, _spelled_as


def build_ctfidf(assignments: Iterable[TopicAssignment], corpus: Corpus) -> CtfidfTable:
    """Group generated assignments into clusters and weight them.

    The Miscellaneous/Inappropriate failure buckets are not topics and stay
    out of the class set.
    """
    clusters: dict[str, set[str]] = {}
    for assignment in assignments:
        if assignment.provenance != "generated":
            continue
        reserved = _spelled_as(assignment.topics, (MISCELLANEOUS, INAPPROPRIATE))
        for label, r in zip(assignment.topics, reserved):
            if r is None:
                clusters.setdefault(label, set()).add(assignment.doc_id)
    return ctfidf_from_clusters(clusters, corpus)


def direct_weights(
    clusters: Mapping[str, Iterable[str]], corpus: Corpus
) -> dict[str, dict[str, float]]:
    """Independent brute-force weighting: list concatenation and .count(),
    no shared code with the implementation."""
    classes = sorted(clusters)
    num_classes = len(classes)
    tokens_by_id = {doc.id: list(doc.tokens) for doc in corpus.documents}
    class_docs = {}
    for cls in classes:
        merged = []
        for doc_id in sorted(clusters[cls]):
            merged.extend(tokens_by_id[doc_id])
        class_docs[cls] = merged
    vocab = sorted({w for toks in class_docs.values() for w in toks})
    df = {w: sum(1 for cls in classes if w in class_docs[cls]) for w in vocab}
    return {
        cls: {
            w: class_docs[cls].count(w) * math.log(1 + (1 + num_classes) / (1 + df[w]))
            for w in set(class_docs[cls])
        }
        for cls in classes
    }


def direct_top_words(weights: Mapping[str, float], k: int) -> list[str]:
    """The k heaviest words of one class of direct_weights, by a full sort
    on (-weight, word)."""
    return sorted(weights, key=lambda word: (-weights[word], word))[:k]


def topic_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Shared-word fraction of two topic word lists, in [0, 1]."""
    if not a or not b:
        raise ValueError("topic similarity is undefined for an empty word set")
    set_a, set_b = set(a), set(b)
    return _similarity(len(set_a & set_b), len(set_a), len(set_b))
