"""From clusters to ten-word representations to metrics.

Builds the class-based TF-IDF table over the fixture's collapsed topics,
derives representations directly and via the replayed model, then scores
both sets with NPMI coherence and diversity.

Usage: python demos/04_represent_and_score.py
"""

from pathlib import Path

from memetopics import (
    BackendConfig,
    CollapseState,
    DemonstrationSet,
    LlmGateway,
    PreprocessConfig,
    coherence,
    collapse_pbm,
    ctfidf_from_clusters,
    default_stopwords,
    generate_topics,
    load_corpus,
    npmi_pair,
    preprocess,
    represent_ctfidf,
    represent_llm,
    top_words,
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
state = collapse_pbm(CollapseState.from_assignments(assignments), 5, replay)

print("=" * 60)
print("1. Class-based TF-IDF over the five collapsed topics")
print("=" * 60)
table = ctfidf_from_clusters(state.topics, corpus)
for topic in table.classes:
    ranked = top_words(table, topic, 5)
    print(f"  {topic:<15} top words: {', '.join(ranked)}")

print()
print("=" * 60)
print("2. Representations, direct and prompted")
print("=" * 60)
direct = [represent_ctfidf(table, topic) for topic in table.classes]
prompted = [represent_llm(topic, table, replay) for topic in table.classes]
for d, p in zip(direct, prompted):
    print(f"  {d.topic}:")
    print(f"    weight-ranked: {d.words}")
    print(f"    model-picked:  {p.words}  (backfilled={p.backfilled}, dropped={p.dropped})")

print()
print("=" * 60)
print("3. Scoring")
print("=" * 60)
print(f"  npmi(trump, president) = {npmi_pair('trump', 'president', corpus):+.4f}")
print(f"  npmi(trump, platoon)   = {npmi_pair('trump', 'platoon', corpus):+.4f}")
for name, reps in [("weight-ranked", direct), ("model-picked", prompted)]:
    report = coherence(reps, corpus)
    print(
        f"  {name:<14} mean NPMI = {report.mean_npmi:+.4f}   "
        f"diversity = {report.diversity:.2f}   (K={report.k})"
    )
