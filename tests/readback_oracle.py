"""Reference check of the run files a lone stage reads back: problem(files, stage)
restates plainly what pipeline.load_run requires before a lone stage continues a
run, so that a property test can hold the stage to it both ways: it may neither
refuse what these rules accept nor accept what they refuse. The collapsed state
is checked by a replay of its own: the merge log's steps taken on the assignments
must give clusters.json.
"""

from collections import Counter

STAGES = ("preprocess", "generate", "collapse", "represent", "evaluate")
RESERVED = ("Miscellaneous", "Inappropriate")
# What each record a writer writes holds: a reader requires each key but those
# marked "?", which a representation's writer leaves out, and refuses any other.
# A representation's own topic key is ignored: the file's key names the topic.
CORPUS_LINE = {"id": str, "caption": str, "text": str, "tokens": [str]}
ASSIGNMENT = {"doc_id": str, "topics": [str],
              "provenance": ("generated", "miscellaneous", "inappropriate")}
REPRESENTATION = {"words": [str], "method": ("ctfidf", "llm"), "backfilled": int,
                  "dropped?": int, "fallback?": bool, "topic?": object}
USAGE = {"prompt": int, "completion": int}
MERGE = {"source": str, "target": str, "method": ("pbm", "wsm", "wsm-zero")}


def fits(value, kind) -> bool:
    """Whether value is of kind: object (anything), a type (exactly that type), a tuple
    (one of its values), [kind] (a list of kind) or a dict (a record, as above)."""
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        return type(value) is list and all(fits(item, kind[0]) for item in value)
    if isinstance(kind, dict):
        kinds = {key.rstrip("?"): each for key, each in kind.items()}
        required = {key for key in kind if not key.endswith("?")}
        return (type(value) is dict and required <= value.keys() <= kinds.keys()
                and all(fits(item, kinds[key]) for key, item in value.items()))
    return kind is object or type(value) is kind


def _reserved(labels) -> bool:
    return any(label.casefold() in ("miscellaneous", "inappropriate") for label in labels)


def replay(assignments, merges) -> dict | None:
    """clusters.json as a collapse that took the steps merges writes it for assignments, or
    None for a step it cannot take. Each generated label joins the first label equal to it
    but for case; each routed document sits in its reserved cluster. A step moves a topic's
    documents into another topic or Miscellaneous, and the topic is gone."""
    topics, first = {}, {}
    reserved = {label: set() for label in RESERVED}
    for a in assignments:
        if a["provenance"] != "generated":
            reserved[a["provenance"].capitalize()].add(a["doc_id"])
        for label in a["topics"]:
            topics.setdefault(first.setdefault(label.casefold(), label), set()).add(a["doc_id"])
    for step in merges:
        source, target = step["source"], step["target"]
        into = reserved["Miscellaneous"] if target == "Miscellaneous" else topics.get(target)
        if source not in topics or target == source or into is None:
            return None
        into.update(topics.pop(source))
    return {label: sorted(ids) for label, ids in {**topics, **reserved}.items() if ids}


def problem(files: dict, stage: str) -> str | None:
    """The first rule a lone `stage` finds broken in files, or None when it must run.
    files maps each file's name to its JSON value, a JSONL file's to the list of its
    lines' values, and a file holding no JSON to None."""
    manifest = files["manifest.json"]
    if type(manifest) is not dict or not fits(manifest.get("stages_completed"), [STAGES]):
        return "stages_completed is not a list of stages"
    before = list(STAGES[: STAGES.index(stage)])
    if manifest["stages_completed"][: len(before)] != before:
        return f"stages_completed does not begin with every stage before {stage}"
    usage = manifest.get("token_usage")
    if type(usage) is not dict or not all(s in STAGES and fits(u, USAGE) for s, u in usage.items()):
        return "token_usage is not prompt and completion integers by stage"
    corpus = files["corpus_processed.jsonl"]
    if not fits(corpus, [CORPUS_LINE]) or len({d["id"] for d in corpus}) < len(corpus):
        return "the corpus lines are not those of a corpus save_processed wrote"
    ids = [doc["id"] for doc in corpus]

    if stage in ("collapse", "represent", "evaluate"):
        assignments = files["assignments.jsonl"]
        if not fits(assignments, [ASSIGNMENT]):
            return "an assignment line is not one generate writes"
        for a in assignments:
            if _reserved(a["topics"]) or (a["provenance"] == "generated") != bool(a["topics"]):
                return "an assignment names a reserved label, or has topics exactly when routed"
        if Counter(a["doc_id"] for a in assignments) != Counter(ids):
            return "the assignments do not place each document once"

    if stage in ("represent", "evaluate"):
        if not fits(files["merge_log.jsonl"], [MERGE]):
            return "a merge-log line is not one collapse writes"
        clusters = replay(assignments, files["merge_log.jsonl"])
        if clusters is None:
            return "a merge-log step is not one a collapse can take"
        if files["clusters.json"] != clusters:
            return "clusters.json is not the merge log replayed on the assignments"
        topics = [label for label in clusters if label not in RESERVED]

    if stage == "evaluate":
        reps = files["representations.json"]
        if type(reps) is not dict or not all(fits(r, REPRESENTATION) for r in reps.values()):
            return "a representation is not one represent writes"
        if reps.keys() != set(topics):
            return "the representations are not one per topic of the clusters"
    return None
