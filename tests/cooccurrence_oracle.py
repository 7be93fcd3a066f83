"""Reference co-occurrence counting for differential tests.

This is the original cooccurrence_counts: it tests every wanted word
against every document and then intersects every pair of wanted words into
an eager pair table. It is slow but plainly follows the definition, so the
postings-based counts in memetopics.corpus must match it, and coherence
computed from either must be equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from memetopics.corpus import Corpus


@dataclass
class Cooccurrence:
    """Document-level unigram and pairwise co-occurrence counts."""

    doc_count: dict[str, int]
    pair_doc_count: dict[tuple[str, str], int]
    total_docs: int

    def count(self, word: str) -> int:
        return self.doc_count.get(word, 0)

    def pair(self, w1: str, w2: str) -> int:
        if w1 == w2:
            return self.count(w1)
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        return self.pair_doc_count.get(key, 0)


def cooccurrence_counts(corpus: Corpus, words: Iterable[str]) -> Cooccurrence:
    """Count, for each word and word pair, how many documents contain them.

    Membership is per-document boolean (a word counts once per document no
    matter how often it repeats). Words absent from the corpus get count 0.
    """
    wanted = sorted(set(words))
    postings: dict[str, set[int]] = {w: set() for w in wanted}
    for idx, doc in enumerate(corpus.documents):
        token_set = set(doc.tokens)
        for w in wanted:
            if w in token_set:
                postings[w].add(idx)
    doc_count = {w: len(ids) for w, ids in postings.items()}
    pair_doc_count: dict[tuple[str, str], int] = {}
    for i, w1 in enumerate(wanted):
        for w2 in wanted[i + 1 :]:
            pair_doc_count[(w1, w2)] = len(postings[w1] & postings[w2])
    return Cooccurrence(
        doc_count=doc_count, pair_doc_count=pair_doc_count, total_docs=corpus.total_docs
    )
