"""Show the topic-generation prompt and the failure routing.

Builds the few-shot exchange for one meme, prints it in wire order, then
runs generation over a small corpus against a scripted mock backend that
refuses one document and returns prose for another.

Usage: python demos/02_generate_with_mock.py
"""

from memetopics import (
    BackendConfig,
    Corpus,
    DemonstrationSet,
    LlmGateway,
    MemeDocument,
    build_generation_prompt,
    generate_topics,
    parse_topic_list,
)

print("=" * 60)
print("1. The few-shot prompt")
print("=" * 60)
demos = DemonstrationSet.default().take(2)
doc = MemeDocument(
    id="m1",
    caption="a soldier tying his boots at dawn",
    overlay_text="day one of basic training: everything hurts",
)
exchange = build_generation_prompt(doc, demos)
for message in exchange.messages():
    print(f"--- {message['role']} ---")
    print(message["content"])
    print()

print("=" * 60)
print("2. Parsing replies")
print("=" * 60)
for reply in ["['Military']", "['politics', 'Politics', 'War']", "no list here"]:
    try:
        print(f"  {reply!r:45} -> {parse_topic_list(reply)}")
    except Exception as exc:
        print(f"  {reply!r:45} -> parse failure ({exc})")

print()
print("=" * 60)
print("3. Routing failures")
print("=" * 60)
corpus = Corpus(
    documents=[
        MemeDocument(id="ok1", caption="a marching band", overlay_text="tuba time"),
        MemeDocument(id="bad", caption="something crude", overlay_text="offensive stuff"),
        MemeDocument(id="odd", caption="static noise", overlay_text="???"),
    ]
)
gateway = LlmGateway(
    BackendConfig(
        kind="mock",
        mock_rules=(
            ("offensive", "I cannot describe this meme."),
            ("static", "hmm, that is hard to say"),
        ),
        mock_default="['Music', 'Humor']",
    )
)
for assignment in generate_topics(corpus, demos, gateway):
    print(f"  {assignment.doc_id}: provenance={assignment.provenance} topics={list(assignment.topics)}")
