"""Topic quality metrics: NPMI coherence and representation diversity.

Coherence scores each topic by the mean normalized pointwise mutual
information over all unordered pairs of its representation words, with
probabilities estimated from document-level boolean co-occurrence in the
reference corpus (the preprocessed memes themselves):

    npmi(x, y) = ln((P(x,y) + e) / (P(x) * P(y) + e)) / -ln(P(x,y) + e)

clamped to [-1, 1], with smoothing constant e keeping the logarithms
finite. Diversity is the fraction of distinct words across all topic
representations. Reserved failure clusters are excluded from both metrics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .corpus import Cooccurrence, Corpus, _Positive, _typed, cooccurrence_counts
from .generation import INAPPROPRIATE, MISCELLANEOUS, _spelled_as
from .representation import TopicRepresentation

DEFAULT_EPSILON = 1e-6


@dataclass
class CoherenceReport:
    """Per-topic and aggregate coherence plus diversity for one topic set, and how it was
    estimated: report.json's keys, beside the run's config_digest."""

    per_topic: dict[str, float]
    mean_npmi: float
    diversity: float
    epsilon: float
    k: int
    words_per_topic: int
    excluded: list[str]
    estimator: Literal["boolean-document"]
    epsilon_placement: Literal["ratio-terms-and-normalizer"]


def _npmi(counts: Cooccurrence, w1: str, w2: str, epsilon: float) -> float:
    total = counts.total_docs
    if total == 0:  # the one check npmi_pair and coherence share
        raise ValueError("corpus is empty")
    p1 = counts.count(w1) / total
    p2 = counts.count(w2) / total
    p12 = counts.pair(w1, w2) / total
    numerator = math.log((p12 + epsilon) / (p1 * p2 + epsilon))
    denominator = -math.log(p12 + epsilon)
    if denominator == 0.0:
        return 0.0
    value = numerator / denominator
    return max(-1.0, min(1.0, value)) + 0.0


def npmi_pair(w1: str, w2: str, corpus: Corpus, epsilon: float = DEFAULT_EPSILON) -> float:
    """NPMI of one word pair against the corpus, in [-1, 1].

    Absent words simply contribute zero counts; the smoothing constant
    keeps the result finite.
    """
    _typed(epsilon, _Positive, "epsilon")
    return _npmi(cooccurrence_counts(corpus, [w1, w2]), w1, w2, epsilon)


def coherence(
    reps: Sequence[TopicRepresentation],
    corpus: Corpus,
    epsilon: float = DEFAULT_EPSILON,
) -> CoherenceReport:
    """Score a set of topic representations against the corpus.

    Per-topic value: mean NPMI over all unordered word pairs (45 pairs for
    a ten-word representation). Representations with fewer than two words
    cannot form a pair; they are skipped and listed in the report. Reserved
    failure clusters never count.
    """
    _typed(epsilon, _Positive, "epsilon")
    reserved = _spelled_as([rep.topic for rep in reps], (MISCELLANEOUS, INAPPROPRIATE))
    included = [rep for rep, r in zip(reps, reserved) if r is None]
    usable = [rep for rep in included if len(rep.words) >= 2]
    excluded = [rep.topic for rep in included if len(rep.words) < 2]
    if not usable:
        raise ValueError("no representation has the two words needed for coherence")

    vocabulary = {word for rep in usable for word in rep.words}
    counts = cooccurrence_counts(corpus, vocabulary)

    per_topic: dict[str, float] = {}
    for rep in usable:
        values = [_npmi(counts, w1, w2, epsilon) for w1, w2 in itertools.combinations(rep.words, 2)]
        per_topic[rep.topic] = _mean(values)

    return CoherenceReport(
        per_topic=per_topic,
        mean_npmi=_mean(per_topic.values()),
        diversity=diversity(included),
        epsilon=epsilon,
        k=len(per_topic),
        words_per_topic=max(len(rep.words) for rep in usable),
        excluded=sorted(excluded),
        estimator="boolean-document",
        epsilon_placement="ratio-terms-and-normalizer",
    )


def _mean(values: Iterable[float]) -> float:
    """The mean of values, added left to right: the builtin sum adds floats with
    compensation since Python 3.12, so a report's bytes would depend on the Python."""
    total, count = 0.0, 0
    for value in values:
        total += value
        count += 1
    return total / count


def diversity(reps: Sequence[TopicRepresentation]) -> float:
    """Distinct words across all representations over total words listed."""
    if not reps:
        raise ValueError("diversity needs at least one representation")
    total = sum(len(rep.words) for rep in reps)
    if total == 0:
        raise ValueError("diversity needs at least one representation word")
    distinct = {word for rep in reps for word in rep.words}
    return len(distinct) / total
