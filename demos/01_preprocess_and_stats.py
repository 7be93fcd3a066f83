"""Walk through corpus ingestion and the statistics everything else uses.

Loads the bundled 50-meme fixture, cleans it with the default stopword
list, and inspects token output, frequency ranking, and document-level
co-occurrence counts.

Usage: python demos/01_preprocess_and_stats.py
"""

from pathlib import Path

from memetopics import (
    PreprocessConfig,
    cooccurrence_counts,
    default_stopwords,
    load_corpus,
    preprocess,
    top_frequent_words,
)

FIXTURES = Path(__file__).parent.parent / "tests" / "fixtures"

print("=" * 60)
print("1. Load raw records")
print("=" * 60)
corpus = load_corpus(FIXTURES / "memes50.jsonl")
print(f"documents: {corpus.total_docs}")
doc = corpus.documents[0]
print(f"first record: id={doc.id}")
print(f"  caption: {doc.caption}")
print(f"  text:    {doc.overlay_text}")
print(f"  tokens before preprocessing: {doc.tokens}")

print()
print("=" * 60)
print("2. Preprocess")
print("=" * 60)
cfg = PreprocessConfig(stopwords=default_stopwords())
processed = preprocess(corpus, cfg)
doc = processed.documents[0]
print(f"  tokens after preprocessing:  {list(doc.tokens)}")
print(f"vocabulary size: {len(processed.doc_freq)}")

# URLs, @usernames, and punctuation-only tokens disappear too:
from memetopics import Corpus, MemeDocument

noisy = Corpus(
    documents=[
        MemeDocument(id="x", caption="a cat", overlay_text="visit http://x.co @bob NOW!!")
    ]
)
print("noisy input  ->", list(preprocess(noisy, cfg).documents[0].tokens))

print()
print("=" * 60)
print("3. Frequency review (feeds the manual blocklist)")
print("=" * 60)
for word, count in top_frequent_words(processed, 10):
    print(f"  {word:<12} in {count} docs")

print()
print("=" * 60)
print("4. Co-occurrence counts (the raw material for NPMI)")
print("=" * 60)
counts = cooccurrence_counts(processed, ["trump", "president", "army"])
print(f"  docs with 'trump':               {counts.count('trump')}")
print(f"  docs with 'president':           {counts.count('president')}")
print(f"  docs with both:                  {counts.pair('trump', 'president')}")
print(f"  docs with 'trump' and 'army':    {counts.pair('trump', 'army')}")
