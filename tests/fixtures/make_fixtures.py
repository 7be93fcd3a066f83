"""Regenerate the bundled test fixtures.

Builds a deterministic 50-meme corpus with ten known topic groups, a mock
rule table that scripts every model reply the pipeline will ask for, and a
recorded response cache produced by actually running the prompt-matched
pipeline against the mock backend. The word-similarity variant is then
replayed from that cache as a coverage check. Last, five fixture runs are
made in a temporary directory and the SHA-256 of every file they write goes
to golden_runs.json, which tests/test_golden_runs.py checks.

Run from the repository root after changing prompt construction or the
fixture design:

    python tests/fixtures/make_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from memetopics.generation import format_topic_list
from memetopics.llm import BackendConfig, load_mock_rules
from memetopics.pipeline import RunConfig, run_pipeline, sweep

FIXTURES = Path(__file__).parent

CORPUS_FILE = FIXTURES / "memes50.jsonl"
RULES_FILE = FIXTURES / "mock_rules.json"
CACHE_FILE = FIXTURES / "replay_cache.jsonl"
GOLDEN_FILE = FIXTURES / "golden_runs.json"

K = 5
WINDOW = 40
SWEEP_K = (3, 5, 8)

# (label, doc count, rule keyword, theme vocabulary). Keywords are unique to
# their group and appear in every document of the group; satellite groups
# share two bridge words with their parent so the word-similarity collapse
# finds the same structure the scripted prompt collapse does.
GROUPS = [
    ("Politics", 12, "parliament",
     ["trump", "president", "democrats", "republican", "election", "senate",
      "parliament", "minister", "policy", "campaign", "vote", "debate"]),
    ("Military", 9, "platoon",
     ["army", "soldier", "platoon", "uniform", "barracks", "sergeant",
      "drill", "camo", "recruit", "rifle", "march", "salute"]),
    ("Health", 7, "quarantine",
     ["quarantine", "mask", "hospital", "virus", "lockdown", "cases",
      "symptoms", "doctor", "ward", "fever", "nurse", "clinic"]),
    ("Technology", 6, "smartphone",
     ["smartphone", "computer", "internet", "software", "app", "coding",
      "screen", "battery", "wifi", "update", "device", "laptop"]),
    ("Relationships", 5, "girlfriend",
     ["girlfriend", "boyfriend", "marriage", "dating", "love", "couple",
      "anniversary", "breakup", "crush", "wedding", "romance", "partner"]),
    ("War", 3, "trenches",
     ["trenches", "battlefield", "artillery", "ceasefire", "soldier", "rifle"]),
    ("Elections", 3, "ballot",
     ["ballot", "voters", "polling", "recount", "vote", "campaign"]),
    ("Vaccines", 2, "booster",
     ["booster", "jab", "dose", "syringe", "doctor", "clinic"]),
    ("Gadgets", 2, "gizmo",
     ["gizmo", "drone", "headset", "charger", "screen", "battery"]),
    ("Zorp Lore", 1, "zorp", ["zorp", "blorbo", "snazzle"]),
]

# Scripted merge decisions: satellites into parents, nonsense to nowhere.
COLLAPSE_REPLIES = [
    ("current topic : zorp lore", format_topic_list(["Quantum Plumbing"])),
    ("current topic : vaccines", format_topic_list(["Health"])),
    ("current topic : gadgets", format_topic_list(["Technology"])),
    ("current topic : war", format_topic_list(["Military"])),
    ("current topic : elections", format_topic_list(["Politics"])),
]

# Ten words per final topic, all drawn from the merged cluster vocabulary.
REPRESENTATION_REPLIES = [
    ("topic : 'politics'", format_topic_list(
        ["trump", "president", "democrats", "republican", "election",
         "senate", "vote", "campaign", "ballot", "minister"])),
    ("topic : 'military'", format_topic_list(
        ["army", "soldier", "platoon", "uniform", "sergeant", "recruit",
         "trenches", "artillery", "rifle", "drill"])),
    ("topic : 'health'", format_topic_list(
        ["quarantine", "mask", "hospital", "virus", "lockdown", "doctor",
         "booster", "dose", "fever", "clinic"])),
    ("topic : 'technology'", format_topic_list(
        ["smartphone", "computer", "internet", "software", "app", "battery",
         "drone", "headset", "screen", "wifi"])),
    ("topic : 'relationships'", format_topic_list(
        ["girlfriend", "boyfriend", "marriage", "dating", "love", "couple",
         "anniversary", "wedding", "breakup", "crush"])),
]


def build_documents() -> list[dict]:
    records = []
    doc_n = 0
    for label, count, keyword, vocab in GROUPS:
        size = len(vocab)
        for j in range(count):
            doc_n += 1
            w = lambda offset: vocab[(j + offset) % size]
            if label == "Politics":
                caption = f"trump and president about the {w(0)} {w(1)}"
            else:
                caption = f"a {w(0)} with the {w(1)}"
            overlay = f"{keyword} {w(2)} {w(3)} when the {w(4)} again"
            records.append({"id": f"m{doc_n:03d}", "caption": caption, "text": overlay})
    assert doc_n == 50, f"fixture should hold 50 docs, built {doc_n}"
    return records


def build_rules() -> list[list[str]]:
    """First match wins, so the most specific needles come first:
    representation queries, then collapse queries, then per-group keywords."""
    rules = [list(rule) for rule in REPRESENTATION_REPLIES]
    rules += [list(rule) for rule in COLLAPSE_REPLIES]
    rules += [[keyword, format_topic_list([label])] for label, _, keyword, _ in GROUPS]
    return rules


def fixture_config(kind: str, outdir: str, collapse: str, representation: str) -> RunConfig:
    backend = BackendConfig(
        kind=kind,
        model_name="mock-model",
        mock_rules=load_mock_rules(RULES_FILE),
        mock_default="[]",
        cache_path=str(CACHE_FILE),
        record=(kind == "mock"),
    )
    return RunConfig(
        corpus_path=str(CORPUS_FILE),
        backend=backend,
        collapse_method=collapse,
        representation_method=representation,
        k=K,
        window=WINDOW,
        output_dir=outdir,
    )


def golden_runs(workdir: Path) -> dict[str, str]:
    """SHA-256 of every file the five golden runs write, keyed by its path
    relative to workdir.

    The fixture inputs are copied into workdir and each run names them and
    its output directory relative to it, so the path strings in the
    manifests, and with them the digests, do not depend on where workdir is.
    The runs: pbm+llm at K and wsm+ctfidf at K=3 replayed from the cache, a
    pbm+llm sweep over SWEEP_K answered by the mock rules, a wsm+ctfidf
    sweep over SWEEP_K replayed, and wsm+llm at K answered by the mock rules.
    """
    for path in (CORPUS_FILE, RULES_FILE, CACHE_FILE):
        shutil.copyfile(path, workdir / path.name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        replay = BackendConfig(kind="replay", model_name="mock-model", cache_path=CACHE_FILE.name)
        mock = BackendConfig(
            kind="mock", model_name="mock-model", mock_rules=load_mock_rules(RULES_FILE.name)
        )

        def config(name, backend, collapse, representation, k=K) -> RunConfig:
            return RunConfig(
                corpus_path=CORPUS_FILE.name,
                backend=backend,
                collapse_method=collapse,
                representation_method=representation,
                k=k,
                window=WINDOW,
                output_dir=f"runs/{name}",
            )

        run_pipeline(config("pbm-llm", replay, "pbm", "llm"))
        run_pipeline(config("wsm-ctfidf-k3", replay, "wsm", "ctfidf", k=3))
        sweep(config("pbm-llm-sweep", mock, "pbm", "llm"), SWEEP_K)
        sweep(config("wsm-ctfidf-sweep", replay, "wsm", "ctfidf"), SWEEP_K)
        run_pipeline(config("wsm-llm-mock", mock, "wsm", "llm"))
        return {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("runs").rglob("*"))
            if path.is_file()
        }
    finally:
        os.chdir(cwd)


def main() -> int:
    with open(CORPUS_FILE, "w", encoding="utf-8") as f:
        for record in build_documents():
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_FILE}")

    with open(RULES_FILE, "w", encoding="utf-8") as f:
        json.dump({"rules": build_rules()}, f, indent=2)
        f.write("\n")
    print(f"wrote {RULES_FILE}")

    if CACHE_FILE.exists():
        CACHE_FILE.unlink()

    with tempfile.TemporaryDirectory() as tmp:
        outdir = run_pipeline(fixture_config("mock", f"{tmp}/pbm", "pbm", "llm"))
        manifest = json.loads((outdir / "manifest.json").read_text())
        clusters = json.loads((outdir / "clusters.json").read_text())
        print(f"recorded cache: {CACHE_FILE}")
        print("pbm topics:", sorted(t for t in clusters if t not in ("Miscellaneous",)))
        print("pbm misc docs:", len(clusters.get("Miscellaneous", [])))
        print("pbm metrics:", manifest["metrics"])

        expected = {"Politics", "Military", "Health", "Technology", "Relationships"}
        got = {t for t in clusters if t != "Miscellaneous"}
        assert got == expected, f"unexpected final topics: {got}"
        assert len(clusters.get("Miscellaneous", [])) == 1

        # The word-similarity variant only prompts during generation; it must
        # replay entirely from the cache just recorded.
        outdir = run_pipeline(fixture_config("replay", f"{tmp}/wsm", "wsm", "ctfidf"))
        manifest = json.loads((outdir / "manifest.json").read_text())
        print("wsm metrics:", manifest["metrics"])

    entries = [json.loads(line) for line in CACHE_FILE.read_text().splitlines() if line.strip()]
    print(f"cache entries: {len(entries)}")

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_runs(Path(tmp))
    with open(GOLDEN_FILE, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_FILE}: {len(digests)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
