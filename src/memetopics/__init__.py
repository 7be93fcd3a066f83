"""Unsupervised topic modeling for multimodal meme corpora.

Memes arrive as (image caption, superimposed text) records. A
chat-completion model proposes per-meme topics, overlapping topics are
collapsed to K clusters by prompt matching or word-overlap merging,
each topic gets a ten-word representation, and the result is scored
with NPMI coherence and topic diversity.
"""

from .collapse import CollapseState, collapse_pbm, collapse_wsm
from .corpus import (
    Corpus,
    MemeDocument,
    PreprocessConfig,
    cooccurrence_counts,
    default_stopwords,
    load_corpus,
    preprocess,
    top_frequent_words,
)
from .ctfidf import ctfidf_from_clusters, top_words
from .evaluation import coherence, npmi_pair
from .generation import DemonstrationSet, build_generation_prompt, generate_topics, parse_topic_list
from .llm import BackendConfig, LlmGateway
from .pipeline import RunConfig, run_pipeline, sweep
from .representation import represent_ctfidf, represent_llm

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "CollapseState",
    "Corpus",
    "DemonstrationSet",
    "LlmGateway",
    "MemeDocument",
    "PreprocessConfig",
    "RunConfig",
    "build_generation_prompt",
    "coherence",
    "collapse_pbm",
    "collapse_wsm",
    "cooccurrence_counts",
    "ctfidf_from_clusters",
    "default_stopwords",
    "generate_topics",
    "load_corpus",
    "npmi_pair",
    "parse_topic_list",
    "preprocess",
    "represent_ctfidf",
    "represent_llm",
    "run_pipeline",
    "sweep",
    "top_frequent_words",
    "top_words",
]
