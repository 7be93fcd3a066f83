"""Seeded synthetic inputs for the pipeline benchmark.

One seed fixes everything a workload feeds the program: the meme corpus,
the mock rule table (bulk-mock), the script the fake chat server answers
from (wsm-replay, pbm-live-sweep) and the provenance each document must
end up with. The same seed gives byte-identical files; another seed gives
other words, labels and documents of the same shape, so the amount of
work (documents, topics, failure counts, merges) stays the same across
seeds and only the content moves.

Topics come in families that share a few words, so the word-similarity
collapse finds real overlap and the prompt collapse has an obvious parent
to name. Topic sizes follow a Zipf law, which leaves the long tail of
one- and two-document labels that the collapse has to fold away.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from fake_server import INVENTED_WORDS, OUT_OF_LIST_REPLY, PROSE_REPLY, query_key, render_labels

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
# Keywords carry a prefix no generated word can contain, so a mock rule
# needle matches only the documents it was written for.
KEYWORD_PREFIX = "qx"

REFUSAL_REPLY = "I'm sorry, I cannot help with this meme."
EMPTY_REPLY = "[]"

OWN_WORDS = 8
FAMILY_WORDS = 5
NOISE_WORDS = 600


@dataclass(frozen=True)
class Shape:
    """How large a workload is; the seed decides only the content."""

    docs: int
    topics: int
    families: int
    zipf: float
    # Shares of documents scripted to fail, per failure route.
    policy_share: float
    refusal_share: float
    prose_share: float
    empty_share: float
    second_label_share: float
    # Whether the fake server answers this workload's prompts.
    served: bool = True


SHAPES = {
    "full": {
        "wsm-replay": Shape(1200, 130, 26, 1.0, 0.03, 0.01, 0.03, 0.01, 0.15),
        "pbm-live-sweep": Shape(400, 73, 15, 1.0, 0.03, 0.01, 0.03, 0.01, 0.15),
        "bulk-mock": Shape(25000, 40, 8, 0.8, 0.0, 0.02, 0.02, 0.02, 0.0, served=False),
    },
    "smoke": {
        "wsm-replay": Shape(120, 20, 5, 1.0, 0.03, 0.01, 0.03, 0.01, 0.15),
        "pbm-live-sweep": Shape(60, 12, 4, 1.0, 0.05, 0.02, 0.05, 0.02, 0.15),
        "bulk-mock": Shape(400, 10, 3, 0.8, 0.0, 0.02, 0.02, 0.02, 0.0, served=False),
    },
}


def zipf_sizes(total: int, n: int, s: float) -> list[int]:
    """n sizes >= 1 summing to total, proportional to 1 / rank**s."""
    weights = [1.0 / (i + 1) ** s for i in range(n)]
    scale = (total - n) / sum(weights)
    sizes = [1 + int(w * scale) for w in weights]
    for i in range(total - sum(sizes)):
        sizes[i % n] += 1
    return sizes


class _Words:
    """Distinct pseudo-words drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            syllables = self.rng.choice((2, 2, 3))
            word = "".join(
                self.rng.choice(CONSONANTS) + self.rng.choice(VOWELS) for _ in range(syllables)
            )
            if word not in self.used:
                self.used.add(word)
                return word

    def many(self, n: int) -> list[str]:
        return [self.fresh() for _ in range(n)]


@dataclass
class Topic:
    label: str
    family: int
    words: list[str]
    keyword: str


def build(workload: str, seed: int, size: str = "full") -> dict:
    """Every input of one workload as plain data (see write())."""
    from memetopics import DemonstrationSet, MemeDocument, build_generation_prompt

    shape = SHAPES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    words = _Words(rng)

    family_words = [words.many(FAMILY_WORDS) for _ in range(shape.families)]
    noise = words.many(NOISE_WORDS)
    topics: list[Topic] = []
    for i in range(shape.topics):
        topics.append(
            Topic(
                label=f"{words.fresh().capitalize()} {words.fresh().capitalize()}",
                family=i % shape.families,
                words=words.many(OWN_WORDS),
                keyword=KEYWORD_PREFIX + words.fresh(),
            )
        )
    heads = {}
    for topic in topics:
        heads.setdefault(topic.family, topic)

    n = shape.docs
    fail_counts = {
        "policy": round(n * shape.policy_share),
        "refusal": round(n * shape.refusal_share),
        "prose": round(n * shape.prose_share),
        "empty": round(n * shape.empty_share),
    }
    failing = sum(fail_counts.values())
    sizes = zipf_sizes(n - failing, shape.topics, shape.zipf)
    plan: list[tuple[str, Topic | None]] = []
    for topic, count in zip(topics, sizes):
        plan += [("labels", topic)] * count
    for route, count in fail_counts.items():
        plan += [(route, None)] * count
    rng.shuffle(plan)

    failure_keywords = {route: KEYWORD_PREFIX + words.fresh() for route in fail_counts}
    demos = DemonstrationSet.default()
    corpus: list[dict] = []
    provenance: dict[str, str] = {}
    script: dict[str, str] = {}
    for idx, (route, topic) in enumerate(plan):
        doc_id = f"d{idx:06d}"
        source = topic or rng.choice(topics)
        own = rng.choices(source.words, k=4)
        fam = rng.choices(family_words[source.family], k=2)
        extra = rng.choices(noise, k=2)
        keyword = source.keyword if topic else failure_keywords[route]
        caption = f"a {own[0]} with the {fam[0]} and {extra[0]}"
        text = f"{keyword} {own[1]} {own[2]} when the {fam[1]} {own[3]} {extra[1]}"
        corpus.append({"id": doc_id, "caption": caption, "text": text})

        if topic is None:
            reply = {
                "policy": "!policy",
                "refusal": REFUSAL_REPLY,
                "prose": PROSE_REPLY,
                "empty": EMPTY_REPLY,
            }[route]
            provenance[doc_id] = (
                "inappropriate" if route in ("policy", "refusal") else "miscellaneous"
            )
        else:
            doc_labels = [topic.label]
            if rng.random() < shape.second_label_share:
                kin = [t for t in topics if t.family == topic.family and t is not topic]
                if kin:
                    doc_labels.append(rng.choice(kin).label)
            reply = render_labels(doc_labels)
            provenance[doc_id] = "generated"
        if shape.served:
            document = MemeDocument(id=doc_id, caption=caption, overlay_text=text)
            script[query_key(build_generation_prompt(document, demos).query)] = reply

    # Failure routes go to topics at fixed size ranks, so every seed fails
    # the same share of requests on topics of the same sizes.
    collapse_routes = [
        {3: "policy", 11: "prose", 19: "out_of_list"}.get(i % 25, "parent")
        for i in range(len(topics))
    ]
    wordrank_routes = [
        {5: "policy", 13: "prose"}.get(i % 25, "invented" if i % 3 == 0 else "pick")
        for i in range(len(topics))
    ]

    # bulk-mock's rule table: representation rules first (their queries list
    # corpus words, keywords included), then collapse rules, then keywords.
    # Every needle carries its closing delimiter so no label matches a longer
    # one that starts with it.
    rules: list[list[str]] = []
    for topic in topics:
        picks = topic.words + list(INVENTED_WORDS)
        rules.append([f"topic : '{topic.label.lower()}'", render_labels(picks)])
    for topic in topics:
        parent = heads[topic.family]
        answer = render_labels([parent.label]) if parent is not topic else OUT_OF_LIST_REPLY
        rules.append([f"current topic : {topic.label.lower()}\n", answer])
    rules.append([failure_keywords["refusal"], REFUSAL_REPLY])
    rules.append([failure_keywords["prose"], PROSE_REPLY])
    for topic in topics:
        rules.append([topic.keyword, render_labels([topic.label])])

    return {
        "corpus": corpus,
        "rules": {"rules": rules},
        "server_script": {
            "generation": script,
            "parents": {t.label: heads[t.family].label for t in topics},
            "families": {t.label: t.family for t in topics},
            "collapse_routes": {t.label: route for t, route in zip(topics, collapse_routes)},
            "wordrank_routes": {t.label: route for t, route in zip(topics, wordrank_routes)},
        },
        "expected": {"provenance": provenance},
    }


def write(workload: str, seed: int, directory: Path, size: str = "full") -> dict[str, Path]:
    """Write one workload's inputs into directory and return their paths."""
    data = build(workload, seed, size)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": directory / "corpus.jsonl",
        "rules": directory / "rules.json",
        "server_script": directory / "server_script.json",
        "expected": directory / "expected.json",
    }
    with open(paths["corpus"], "w", encoding="utf-8") as f:
        for record in data["corpus"]:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    for key in ("rules", "server_script", "expected"):
        with open(paths[key], "w", encoding="utf-8") as f:
            json.dump(data[key], f, sort_keys=True, indent=1)
            f.write("\n")
    return paths
