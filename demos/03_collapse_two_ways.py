"""Collapse the fixture's ten generated topics to five, both ways.

Replays the recorded responses for the prompt-matched route, then runs the
word-similarity route on the same assignments, and prints both merge logs
side by side.

Usage: python demos/03_collapse_two_ways.py
"""

from pathlib import Path

from memetopics import (
    BackendConfig,
    CollapseState,
    DemonstrationSet,
    LlmGateway,
    PreprocessConfig,
    collapse_pbm,
    collapse_wsm,
    default_stopwords,
    generate_topics,
    load_corpus,
    preprocess,
)

FIXTURES = Path(__file__).parent.parent / "tests" / "fixtures"

corpus = preprocess(
    load_corpus(FIXTURES / "memes50.jsonl"),
    PreprocessConfig(stopwords=default_stopwords()),
)
replay = LlmGateway(
    BackendConfig(
        kind="replay", model_name="mock-model", cache_path=str(FIXTURES / "replay_cache.jsonl")
    )
)
assignments = generate_topics(corpus, DemonstrationSet.default(), replay)

# The state holds no K: each collapse takes it, here 5.
state = CollapseState.from_assignments(assignments)
print(f"generated topics ({len(state.topics)}):")
for label, ids in sorted(state.topics.items(), key=lambda kv: -len(kv[1])):
    print(f"  {label:<15} {len(ids)} memes")

print()
print("=" * 60)
print("Prompt-matched collapse (asks the model where each topic goes)")
print("=" * 60)
pbm = collapse_pbm(state, 5, replay)
for source, target, method in pbm.merge_log:
    print(f"  {source:<15} -> {target}")
print("final:", {label: len(ids) for label, ids in sorted(pbm.topics.items())})
print("miscellaneous docs:", sorted(pbm.misc))

print()
print("=" * 60)
print("Word-similarity collapse (merges the highest-overlap pair)")
print("=" * 60)
wsm = collapse_wsm(state, 5, corpus)
for source, target, method in wsm.merge_log:
    marker = "  (zero-similarity fallback)" if method == "wsm-zero" else ""
    print(f"  {source:<15} -> {target}{marker}")
print("final:", {label: len(ids) for label, ids in sorted(wsm.topics.items())})
print("miscellaneous docs:", sorted(wsm.misc), "(this route never adds any)")
