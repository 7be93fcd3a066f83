"""Unsupervised topic modeling for multimodal meme corpora.

Memes arrive as (image caption, superimposed text) records. A
chat-completion model proposes per-meme topics, overlapping topics are
collapsed to K clusters by prompt matching or word-overlap merging,
each topic gets a ten-word representation, and the result is scored
with NPMI coherence and topic diversity.
"""

from .collapse import (
    CollapseState,
    build_collapse_prompt,
    collapse_pbm,
    collapse_wsm,
    topic_similarity,
)
from .corpus import (
    Corpus,
    CorpusFormatError,
    MemeDocument,
    PreprocessConfig,
    cooccurrence_counts,
    default_stopwords,
    load_corpus,
    load_stopwords,
    preprocess,
    top_frequent_words,
)
from .ctfidf import CtfidfTable, TopicWordSet, build_ctfidf, ctfidf_from_clusters, top_words
from .evaluation import CoherenceReport, coherence, diversity, npmi_pair
from .generation import (
    Demonstration,
    DemonstrationSet,
    TopicAssignment,
    TopicParseError,
    build_generation_prompt,
    generate_topics,
    parse_topic_list,
)
from .llm import (
    BackendConfig,
    ChatExchange,
    LlmGateway,
    LlmOutcome,
    ReplayMissError,
    TokenUsage,
    canonical_request_hash,
)
from .pipeline import RunConfig, run_pipeline, sweep
from .representation import (
    TopicRepresentation,
    build_wordrank_prompt,
    represent_ctfidf,
    represent_llm,
)

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "ChatExchange",
    "CoherenceReport",
    "CollapseState",
    "Corpus",
    "CorpusFormatError",
    "CtfidfTable",
    "Demonstration",
    "DemonstrationSet",
    "LlmGateway",
    "LlmOutcome",
    "MemeDocument",
    "PreprocessConfig",
    "ReplayMissError",
    "RunConfig",
    "TokenUsage",
    "TopicAssignment",
    "TopicParseError",
    "TopicRepresentation",
    "TopicWordSet",
    "build_collapse_prompt",
    "build_ctfidf",
    "build_generation_prompt",
    "build_wordrank_prompt",
    "canonical_request_hash",
    "coherence",
    "collapse_pbm",
    "collapse_wsm",
    "cooccurrence_counts",
    "ctfidf_from_clusters",
    "default_stopwords",
    "diversity",
    "generate_topics",
    "load_corpus",
    "load_stopwords",
    "npmi_pair",
    "parse_topic_list",
    "preprocess",
    "represent_ctfidf",
    "represent_llm",
    "run_pipeline",
    "sweep",
    "top_frequent_words",
    "top_words",
    "topic_similarity",
]
