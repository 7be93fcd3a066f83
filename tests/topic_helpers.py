"""Test-side helpers over the c-TF-IDF table and the wsm similarity.

build_ctfidf weighs generation output directly, and topic_similarity
scores two word lists with the formula collapse_wsm uses, so oracles and
pinned values can be written against plain lists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def topic_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Shared-word fraction of two topic word lists, in [0, 1]."""
    if not a or not b:
        raise ValueError("topic similarity is undefined for an empty word set")
    set_a, set_b = set(a), set(b)
    return _similarity(len(set_a & set_b), len(set_a), len(set_b))
