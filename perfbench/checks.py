"""Output checks behind the benchmark's correctness verdict.

check_run() reads one run's artifacts and returns the ids of the documents
whose outcome is wrong, with a line per problem. A document fails when it
is not assigned exactly once, when its provenance differs from the one the
workload scripted, when a collapse leaves it out of every cluster
(Miscellaneous and Inappropriate included), or when it belongs to a topic
whose representation holds a word none of the topic's documents contain.
An NPMI outside [-1, 1] fails every document.

outputs_digest() hashes every artifact of a run, so runs of one seed can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PROCESSED = "corpus_processed.jsonl"


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def outputs_digest(outdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(outdir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_run(outdir: Path, expected: dict[str, str], k_values: list[int],
              sweep: bool) -> tuple[set[str], list[str]]:
    """(failed document ids, problems) for one run or sweep directory."""
    failed: set[str] = set()
    problems: list[str] = []
    all_ids = set(expected)

    seen: dict[str, int] = {}
    for record in _jsonl(outdir / "assignments.jsonl"):
        doc_id = record["doc_id"]
        seen[doc_id] = seen.get(doc_id, 0) + 1
        if expected.get(doc_id) != record["provenance"]:
            failed.add(doc_id)
            problems.append(f"{doc_id}: provenance {record['provenance']}, "
                            f"scripted {expected.get(doc_id)}")
    for doc_id in all_ids:
        if seen.get(doc_id) != 1:
            failed.add(doc_id)
            problems.append(f"{doc_id}: assigned {seen.get(doc_id, 0)} times")

    tokens = {r["id"]: set(r["tokens"]) for r in _jsonl(outdir / PROCESSED)}
    point_dirs = [outdir / f"k_{k}" for k in k_values] if sweep else [outdir]
    for point in point_dirs:
        clusters = _json(point / "clusters.json")
        covered = set().union(*clusters.values()) if clusters else set()
        for doc_id in all_ids - covered:
            failed.add(doc_id)
            problems.append(f"{point.name}: {doc_id} is in no cluster")
        for topic, entry in _json(point / "representations.json").items():
            members = clusters.get(topic, [])
            words = set().union(*(tokens[d] for d in members)) if members else set()
            invented = [w for w in entry["words"] if w not in words]
            if invented:
                failed.update(members)
                problems.append(f"{point.name}: {topic!r} represented by foreign words {invented}")
        report = _json(point / "report.json")
        values = [report["mean_npmi"], *report["per_topic"].values()]
        if any(not -1.0 <= v <= 1.0 for v in values):
            failed.update(all_ids)
            problems.append(f"{point.name}: NPMI outside [-1, 1]")
    return failed, problems


def quality(outdir: Path, sweep: bool) -> tuple[float, float]:
    """(mean NPMI, diversity) of a run; a sweep averages its K rows."""
    if not sweep:
        report = _json(outdir / "report.json")
        return report["mean_npmi"], report["diversity"]
    rows = _json(outdir / "sweep_manifest.json")["rows"]
    return (sum(r["mean_npmi"] for r in rows) / len(rows),
            sum(r["diversity"] for r in rows) / len(rows))
