"""End-to-end orchestration: staged runs, manifests and K sweeps.

A run executes preprocess -> generate -> collapse -> represent -> evaluate.
One table, _FLOW, says what each stage reads, the artifact it makes, the
files it writes and the manifest entries it sets. Each stage writes its
artifact into the run directory, so a run can be inspected and replayed, and
hands it to the next stage in memory. This module owns the run directory;
every file in it is read and written through corpus.py's run-file codec. One
driver, _run_stages, runs the stages for run_pipeline, run_stage and sweep:
it alone writes the manifest, and a run from stage s first clears what the
last run of s and of every later stage left (from preprocess, a sweep's
output too). One function, _run, serves run_pipeline, run_stage and a
sweep's root: it makes the run's LlmGateway, shared by every prompting stage
and the source of the cache's hash, and reads back through load_run, the one
reader of a run directory, only what a lone stage needs. Each file has its one
check in _load_artifact, against the artifacts its stage read: the collapsed
state is the merge log replayed on the assignments by the step collapse takes,
and clusters.json must be its clusters. Every fresh manifest, a sweep K's
included, starts from _fresh_manifest. The manifest carries no timestamps, so
identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import Annotated, Iterable, Literal, NamedTuple, Sequence

from . import corpus as corpus_mod
from .collapse import DEFAULT_WINDOW, CollapseState, _Window, collapse_pbm, collapse_wsm
from .corpus import Corpus, PreprocessConfig, _AtLeastOne, _Bound, _check_fields, _Positive
from .corpus import _read_json, _read_jsonl, _record, _typed, _write_file, _write_json, _write_jsonl
from .ctfidf import ctfidf_from_clusters
from .evaluation import DEFAULT_EPSILON, coherence
from .generation import (
    INAPPROPRIATE,
    MISCELLANEOUS,
    DemonstrationSet,
    TopicAssignment,
    _spelled_as,
    generate_topics,
    provenance_counts,
)
from .llm import BackendConfig, LlmGateway, TokenUsage, load_mock_rules
from .representation import TopicRepresentation, _Method, represent_ctfidf, represent_llm

log = logging.getLogger(__name__)

PROCESSED_CORPUS_FILE = "corpus_processed.jsonl"
ASSIGNMENTS_FILE = "assignments.jsonl"
CLUSTERS_FILE = "clusters.json"
MERGE_LOG_FILE = "merge_log.jsonl"
REPRESENTATIONS_FILE = "representations.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"
_SWEEP_CSV_FILE = "sweep.csv"
_SWEEP_MANIFEST_FILE = "sweep_manifest.json"

# Left out of config_digest: where the files live and how the backend
# reaches the model. Any other field, one added later too, is digested.
_LOCATION_KEYS = frozenset({"corpus_path", "stopwords_path", "demonstrations_path", "output_dir"})
_BACKEND_LOCATION_KEYS = frozenset(
    "endpoint api_key_env timeout max_retries requests_per_minute cache_path record".split()
)


class _Stage(NamedTuple):
    reads: tuple[str, ...]  # the artifacts it reads, by argument name
    makes: str  # the artifact it makes
    files: tuple[str, ...]  # the files it writes into the run directory
    entries: tuple[str, ...]  # the manifest entries it sets


# A stage that reads the gateway has its token usage recorded in the manifest.
_FLOW = {
    "preprocess": _Stage((), "corpus", (PROCESSED_CORPUS_FILE,), ()),
    "generate": _Stage(
        ("corpus", "gateway"), "assignments",
        (ASSIGNMENTS_FILE,), ("generation_summary", "failure_counts"),
    ),
    "collapse": _Stage(
        ("corpus", "assignments", "gateway"), "state",
        (CLUSTERS_FILE, MERGE_LOG_FILE), ("collapse_summary",),
    ),
    "represent": _Stage(
        ("corpus", "state", "gateway"), "representations",
        (REPRESENTATIONS_FILE,), ("representation_summary",),
    ),
    "evaluate": _Stage(
        ("corpus", "representations", "input_hashes"), "report",
        (REPORT_FILE,), ("metrics",),
    ),
}
STAGES = tuple(_FLOW)


# A merge-log line and report.json (CoherenceReport.to_dict() and a digest), every key required.
_Merge = make_dataclass("_Merge", [("source", str), ("target", str),
                                   ("method", Literal["pbm", "wsm", "wsm-zero"])])
_Report = make_dataclass("_Report", [
    ("mean_npmi", float), ("diversity", float), ("epsilon", float), ("k", int),
    ("words_per_topic", int), ("per_topic", dict), ("excluded", list[str]),
    ("estimator", str), ("epsilon_placement", str), ("config_digest", str)])


# A run directory read back by load_run: its manifest and its artifacts by name.
Run = NamedTuple("Run", [("manifest", dict), ("artifacts", dict)])


class PipelineStageError(RuntimeError):
    """A stage failed; earlier artifacts are preserved on disk."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything a run needs, loadable from one JSON file; each field is
    checked against its annotation, bound too, on construction (corpus._typed).
    The method combinations of the reference setups are labeled "pbm" (prompt
    collapse + prompted representation) and "wsm" (word similarity collapse
    + weight-ranked representation); anything else is "custom".
    """

    corpus_path: str
    corpus_format: Literal["jsonl", "csv"] = "jsonl"
    stopwords_path: str | None = None
    extra_blocklist: tuple[str, ...] = ()
    min_token_len: _AtLeastOne = 1
    lowercase: bool = True
    demonstrations_path: str | None = None
    num_demonstrations: _AtLeastOne = 8
    backend: BackendConfig = field(default_factory=BackendConfig)
    collapse_method: Literal["pbm", "wsm"] = "wsm"
    k: _AtLeastOne = 10
    window: _Window = DEFAULT_WINDOW
    representation_method: _Method = "ctfidf"
    epsilon: _Positive = DEFAULT_EPSILON
    output_dir: str = "run_output"

    def __post_init__(self) -> None:
        _check_fields(self)

    def variant(self) -> str:
        if self.collapse_method == "pbm" and self.representation_method == "llm":
            return "pbm"
        if self.collapse_method == "wsm" and self.representation_method == "ctfidf":
            return "wsm"
        return "custom"

    def preprocess_config(self) -> PreprocessConfig:
        path = self.stopwords_path
        stopwords = corpus_mod.load_stopwords(path) if path else corpus_mod.default_stopwords()
        return PreprocessConfig(
            stopwords=stopwords,
            extra_blocklist=self.extra_blocklist,
            min_token_len=self.min_token_len,
            lowercase=self.lowercase,
        )

    def demonstrations(self) -> DemonstrationSet:
        path = self.demonstrations_path
        try:
            demos = DemonstrationSet.from_file(path) if path else DemonstrationSet.default()
        except OSError as exc:
            raise ValueError(f"demonstrations_path: {exc}") from None
        if self.num_demonstrations > len(demos.items):
            raise ValueError(f"num_demonstrations is {self.num_demonstrations}, but "
                             f"{path or 'the bundled set'} holds {len(demos.items)}")
        return demos.take(self.num_demonstrations)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config of a JSON object whose backend may name mock_rules_path,
        the file mock_rules is loaded from; a bad key or value is named (corpus._record)."""
        backend = dict(_typed(data.get("backend", {}), dict, "backend"))
        path = _typed(backend.pop("mock_rules_path", None), str | None, "backend.mock_rules_path")
        if path:
            try:
                backend["mock_rules"] = load_mock_rules(path)
            except OSError as exc:
                raise ValueError(f"backend.mock_rules_path: {exc}") from None
        backend = _record(BackendConfig, backend, "backend.")
        return _record(cls, {**data, "backend": backend}, "")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(_read_json(path))

    def input_hashes(self, gateway: LlmGateway) -> dict:
        """SHA-256 of every input file by role, None for a role without one. A
        replay cache is hashed line by line, in sorted order, since the order
        of its entries does not matter; a cache being recorded into is output.
        The cache's hash comes from gateway, the run's, which takes it in the
        pass that indexes the cache, so a run reads its cache once."""
        optional = {"stopwords": self.stopwords_path, "demonstrations": self.demonstrations_path}
        hashes = {role: _file_sha256(path) if path else None for role, path in optional.items()}
        hashes["corpus"] = _file_sha256(self.corpus_path)
        hashes["cache"] = gateway.cache_sha256()
        return hashes

    def config_digest(self, input_hashes: dict) -> str:
        """Content-addressed digest: every configuration value but the
        _LOCATION_KEYS and _BACKEND_LOCATION_KEYS, plus input_hashes(), so
        equal digests mean re-runnable equal runs wherever the files live. A
        run passes in the input_hashes() it took once, so it reads its input
        files once however many digests it writes."""
        data = self.to_dict()
        backend = {k: v for k, v in data.pop("backend").items() if k not in _BACKEND_LOCATION_KEYS}
        payload = {k: v for k, v in data.items() if k not in _LOCATION_KEYS}
        # The blocklist is a set of words: its order does not matter.
        payload.update(backend=backend, extra_blocklist=sorted(self.extra_blocklist))
        payload["inputs"] = input_hashes
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- stages ------------------------------------------------------------------
#
# Each stage takes what it reads as arguments, writes the artifact it makes
# into outdir, and returns (artifact, manifest entries).


def stage_preprocess(cfg: RunConfig, outdir: Path) -> tuple[Corpus, dict]:
    raw = corpus_mod.load_corpus(cfg.corpus_path, cfg.corpus_format)
    processed = corpus_mod.preprocess(raw, cfg.preprocess_config())
    corpus_mod.save_processed(processed, outdir / PROCESSED_CORPUS_FILE)
    return processed, {}


def stage_generate(
    cfg: RunConfig, outdir: Path, corpus: Corpus, gateway: LlmGateway
) -> tuple[list[TopicAssignment], dict]:
    assignments = generate_topics(corpus, cfg.demonstrations(), gateway)
    # vars gives the fields as dataclasses.asdict would, without its deep copy of each value.
    _write_jsonl(outdir / ASSIGNMENTS_FILE, map(vars, assignments))
    routing = provenance_counts(assignments)
    # A meme can carry several labels, so both counts are reported.
    summary = {
        "documents": len(assignments),
        "labels_assigned": sum(len(a.topics) for a in assignments),
        "provenance": routing,
    }
    entries = {"generation_summary": summary, "failure_counts": routing}
    return assignments, entries


def stage_collapse(
    cfg: RunConfig,
    outdir: Path,
    corpus: Corpus,
    assignments: list[TopicAssignment],
    gateway: LlmGateway,
    start: CollapseState | None = None,
) -> tuple[CollapseState, dict]:
    """Collapse the generated topics to cfg.k and write the clusters and
    the merge log.

    start, when given, is the same assignments' state already collapsed to
    a larger K; the collapse continues from it, since neither method's
    merge order depends on K. Without it the state is built from
    assignments.
    """
    state = start if start is not None else CollapseState.from_assignments(assignments)
    if cfg.collapse_method == "pbm":
        state = collapse_pbm(state, cfg.k, gateway, cfg.window)
    else:
        state = collapse_wsm(state, cfg.k, corpus)
    _write_json(outdir / CLUSTERS_FILE, state.clusters())
    _write_jsonl(outdir / MERGE_LOG_FILE, (dataclasses.asdict(_Merge(*m)) for m in state.merge_log))
    targets = [target for _, target, _ in state.merge_log]
    summary = {
        "method": cfg.collapse_method,
        "merges": sum(target != MISCELLANEOUS for target in targets),
        "misc_routed_topics": targets.count(MISCELLANEOUS),
        "misc_routed_docs": len(state.misc) - provenance_counts(assignments)["miscellaneous"],
        "zero_similarity_merges": sum(method == "wsm-zero" for _, _, method in state.merge_log),
        "final_topics": len(state.topics),
    }
    return state, {"collapse_summary": summary}


def stage_represent(
    cfg: RunConfig, outdir: Path, corpus: Corpus, state: CollapseState, gateway: LlmGateway
) -> tuple[list[TopicRepresentation], dict]:
    """Represent every topic of the collapsed state; the reserved clusters
    are not topics. The word-rank prompts go out through gateway.map."""
    table = ctfidf_from_clusters(state.topics, corpus)
    if cfg.representation_method == "llm":
        reps = gateway.map(lambda topic: represent_llm(topic, table, gateway), sorted(state.topics))
    else:
        reps = [represent_ctfidf(table, topic) for topic in sorted(state.topics)]
    entries = {
        rep.topic: {"words": rep.words, "method": rep.method, "backfilled": rep.backfilled}
        for rep in reps
    }
    _write_json(outdir / REPRESENTATIONS_FILE, entries)
    summary = {
        "method": cfg.representation_method,
        "backfilled_words": sum(rep.backfilled for rep in reps),
        "dropped_words": sum(rep.dropped for rep in reps),
        "llm_fallback_topics": sorted(rep.topic for rep in reps if rep.fallback),
    }
    return reps, {"representation_summary": summary}


def stage_evaluate(
    cfg: RunConfig,
    outdir: Path,
    corpus: Corpus,
    representations: list[TopicRepresentation],
    input_hashes: dict,
) -> tuple[dict, dict]:
    report = coherence(representations, corpus, epsilon=cfg.epsilon).to_dict()
    report["config_digest"] = cfg.config_digest(input_hashes)
    _write_json(outdir / REPORT_FILE, report)
    metrics = {"mean_npmi": report["mean_npmi"], "diversity": report["diversity"]}
    return report, {"metrics": metrics}


# -- orchestration -----------------------------------------------------------


def _run_stages(
    cfg: RunConfig, outdir: Path, stages: Sequence[str], artifacts: dict, manifest: dict
) -> dict:
    """Run `stages`, consecutive entries of STAGES, in order in outdir,
    handing each what it reads from `artifacts` and adding the artifact it
    makes, then return `artifacts`.

    The only writer of manifest.json and the only code that deletes from
    a run directory. A run from stage s supersedes the last run of s and
    of every later stage: before `manifest` is first written their files
    go, and so do their manifest entries, stages_completed and token_usage
    included, and any earlier failed_stage and error. A run from preprocess
    also supersedes a sweep in outdir: sweep.csv, sweep_manifest.json and
    every k_<digits> subdirectory go. After each stage the manifest gains
    the stage in stages_completed, its entries and, for a stage that reads
    the gateway, its token usage. When a stage raises,
    everything written so far stays on disk, the manifest names the failed
    stage and the error, and PipelineStageError propagates.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    superseded = STAGES[STAGES.index(stages[0]) :]
    for name in superseded:
        for file in _FLOW[name].files:
            (outdir / file).unlink(missing_ok=True)
    if stages[0] == "preprocess":
        for file in (_SWEEP_CSV_FILE, _SWEEP_MANIFEST_FILE):
            (outdir / file).unlink(missing_ok=True)
        for path in outdir.iterdir():
            if re.fullmatch(r"k_[0-9]+", path.name) and path.is_dir() and not path.is_symlink():
                shutil.rmtree(path)
    stale = {"failed_stage", "error"}.union(*(_FLOW[name].entries for name in superseded))
    manifest = {key: value for key, value in manifest.items() if key not in stale}
    done = manifest.get("stages_completed", [])
    manifest["stages_completed"] = [name for name in done if name not in superseded]
    spent = manifest.get("token_usage", {})
    manifest["token_usage"] = {name: spent[name] for name in spent if name not in superseded}
    _write_json(outdir / MANIFEST_FILE, manifest)
    for stage in stages:
        inputs = {name: artifacts[name] for name in _FLOW[stage].reads}
        if stage == "collapse":
            # A sweep continues the collapse of the previous, larger K.
            inputs["start"] = artifacts.get("state")
        # Looked up at call time, so a wrapper set on the module sees the call.
        stage_fn = globals()[f"stage_{stage}"]
        gateway = inputs.get("gateway")
        before = gateway.total_usage if gateway is not None else None
        try:
            artifact, entries = stage_fn(cfg, outdir, **inputs)
        except Exception as exc:
            manifest.update(failed_stage=stage, error=str(exc))
            _write_json(outdir / MANIFEST_FILE, manifest)
            raise PipelineStageError(stage, exc) from exc
        artifacts[_FLOW[stage].makes] = artifact
        manifest["stages_completed"].append(stage)
        if gateway is not None:
            after = gateway.total_usage
            usage = TokenUsage(after.prompt - before.prompt, after.completion - before.completion)
            manifest["token_usage"][stage] = usage._asdict()
        manifest.update(entries)
        _write_json(outdir / MANIFEST_FILE, manifest)
    return artifacts


def _load_artifact(outdir: Path, name: str, read: dict):
    """The artifact `name`, or the manifest, as the run wrote it into outdir, checked against
    read, which holds the artifacts its stage read. The one check of a file read back, refusing
    with a ValueError naming the file: an assignment with topics exactly when not routed;
    assignments that leave out a document of the corpus or place another id; a merge-log line
    or a report without every key its writer writes; a merge-log step that CollapseState.merge
    refuses, the log replayed from CollapseState.from_assignments as collapse took its steps;
    a clusters.json other than the replayed state's clusters(); representations without one
    entry per topic of the state."""
    if name == "corpus":
        return corpus_mod.load_processed(outdir / PROCESSED_CORPUS_FILE)
    if name == "assignments":
        assignments = []
        for n, row in _read_jsonl(outdir / ASSIGNMENTS_FILE):
            assignments.append(a := _record(TopicAssignment, row, f"{ASSIGNMENTS_FILE}:{n}: "))
            for label in filter(None, _spelled_as((MISCELLANEOUS, INAPPROPRIATE), a.topics)):
                raise ValueError(f"{ASSIGNMENTS_FILE}:{n}: {label!r} is a reserved cluster name")
            if (routed := a.provenance in ("miscellaneous", "inappropriate")) == bool(a.topics):
                must = "empty" if routed else "given"
                raise ValueError(f"{ASSIGNMENTS_FILE}:{n}: document {a.doc_id!r} is {a.provenance},"
                                 f" so its topics must be {must}, not {list(a.topics)}")
        _check_placed(read["corpus"], ASSIGNMENTS_FILE, (a.doc_id for a in assignments))
        return assignments
    if name == "state":
        state = CollapseState.from_assignments(read["assignments"])
        for n, row in _read_jsonl(outdir / MERGE_LOG_FILE):
            step = dataclasses.astuple(_record(_Merge, row, f"{MERGE_LOG_FILE}:{n}: "))
            try:
                state.merge(*step)
            except ValueError as exc:  # a step the run could not have taken
                raise ValueError(f"{MERGE_LOG_FILE}:{n}: {exc}") from None
        clusters, replayed = _read_json(outdir / CLUSTERS_FILE), state.clusters()
        for label in [*clusters, *replayed]:  # the file's labels first, as it holds them
            if label not in clusters or label not in replayed or clusters[label] != replayed[label]:
                raise ValueError(f"{CLUSTERS_FILE} differs at cluster {label!r} from the replay "
                                 f"of {MERGE_LOG_FILE} on {ASSIGNMENTS_FILE}")
        return state
    if name == "manifest":  # the two entries _run_stages continues, each key required
        manifest = _read_json(outdir / MANIFEST_FILE)
        where = f"{MANIFEST_FILE}: stages_completed"
        _typed(manifest.get("stages_completed"), list[Literal[STAGES]], where)
        where = f"{MANIFEST_FILE}: token_usage"
        for stage, spent in _typed(manifest.get("token_usage"), dict, where).items():
            _typed(stage, Literal[STAGES], f"{where}: key")
            if sorted(_typed(spent, dict, f"{where}: {stage}")) != sorted(TokenUsage._fields):
                raise ValueError(f"{where}: {stage} must hold prompt and completion, not {spent}")
            for key in TokenUsage._fields:
                _typed(spent[key], int, f"{where}: {stage}: {key}")
        return manifest
    if name == "report":
        report = _read_json(outdir / REPORT_FILE)
        _record(_Report, report, f"{REPORT_FILE}: ")
        return report
    reps = []  # the representations
    for topic, entry in sorted(_read_json(outdir / REPRESENTATIONS_FILE).items()):
        where = f"{REPRESENTATIONS_FILE}: topic {topic!r}"
        entry = {**_typed(entry, dict, where), "topic": topic}  # the file's key names the topic
        reps.append(_record(TopicRepresentation, entry, f"{where}: ", required=["backfilled"]))
    if odd := sorted({rep.topic for rep in reps} ^ read["state"].topics.keys()):
        raise ValueError(f"{REPRESENTATIONS_FILE} and {CLUSTERS_FILE} must hold the same "
                         f"topics, but only one of them holds {odd[0]!r}")
    return reps


def load_run(outdir: str | Path, names: Iterable[str] | None = None) -> Run:
    """The run in outdir read back: its manifest, then the artifacts `names` (by default
    those of its stages_completed), each once through _load_artifact in the order of _FLOW
    and after the artifacts its stage read (the gateway and input hashes are made, not
    loaded), against which it is checked. Refused naming manifest.json unless
    stages_completed begins with every stage up to the last that makes one of them."""
    outdir = Path(outdir)
    manifest = _load_artifact(outdir, "manifest", {})
    done = manifest["stages_completed"]
    order = [_FLOW[stage].makes for stage in STAGES]
    wanted = {_FLOW[stage].makes for stage in done} if names is None else set(names)
    for stage in reversed(STAGES):  # latest first, so what a read artifact reads is read too
        if _FLOW[stage].makes in wanted:
            wanted.update(name for name in _FLOW[stage].reads if name in order)
    last = max(map(order.index, wanted), default=-1)
    for n, stage in enumerate(STAGES[: last + 1]):
        if done[n : n + 1] != [stage]:
            raise ValueError(f"{MANIFEST_FILE}: stages_completed is {done}, so {stage!r} "
                             f"must complete before {order[last]!r} loads")
    artifacts: dict = {}
    for name in filter(wanted.__contains__, order):
        artifacts[name] = _load_artifact(outdir, name, artifacts)
    return Run(manifest, artifacts)


def _check_placed(corpus: Corpus, file: str, doc_ids: Iterable[str]) -> None:
    """doc_ids, the documents a file read back places, hold each document of corpus exactly
    once and no other id, else a ValueError names file and the first id that breaks it."""
    surplus = Counter(doc_ids)
    surplus.subtract(doc.id for doc in corpus.documents)
    for doc_id, n in surplus.items():
        if n:
            how = "nowhere, though" if n < 0 else "more often than"
            raise ValueError(f"{file} places document {doc_id!r} {how} "
                             f"{PROCESSED_CORPUS_FILE} holds it")


def _run(cfg: RunConfig, stages: Sequence[str]) -> dict:
    """Run `stages` in cfg.output_dir with one gateway and return the artifacts. A run
    from preprocess starts a fresh manifest; any other first loads the manifest it continues
    and what the stages read and do not make through load_run, before anything is deleted.
    Inputs are hashed only for a fresh manifest or evaluate."""
    outdir = Path(cfg.output_dir)
    fresh = stages[0] == "preprocess"
    made = {_FLOW[stage].makes for stage in stages}
    reads = {name for stage in stages for name in _FLOW[stage].reads} - made
    manifest, artifacts = Run({}, {}) if fresh else load_run(
        outdir, reads - {"gateway", "input_hashes"})  # each made here, not loaded
    artifacts["gateway"] = gateway = LlmGateway(cfg.backend)
    if fresh or "input_hashes" in reads:
        # The cache's hash comes from the gateway, so the run reads its cache once.
        artifacts["input_hashes"] = cfg.input_hashes(gateway)
    if fresh:
        manifest = _fresh_manifest(cfg, artifacts["input_hashes"])
    return _run_stages(cfg, outdir, stages, artifacts, manifest)


def _fresh_manifest(cfg: RunConfig, input_hashes: dict) -> dict:
    """The manifest a run from preprocess, or a sweep's K, starts with."""
    digest = cfg.config_digest(input_hashes)
    return {"variant": cfg.variant(), "config": cfg.to_dict(), "config_digest": digest}


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute every stage in order under a fresh manifest, superseding
    every stage file an earlier run left in the directory.

    On a stage failure, everything written so far stays on disk, the
    manifest marks the failed stage, and PipelineStageError propagates.
    """
    _run(cfg, STAGES)
    return Path(cfg.output_dir)


def run_stage(cfg: RunConfig, stage: str):
    """Run one stage on the artifacts earlier stages left in cfg.output_dir
    and return the artifact it makes. preprocess starts a fresh manifest;
    every later stage continues the one on disk, and is refused before any
    file changes unless every stage before it completed. Like any run, the stage
    supersedes its own last run and every later stage's, so the five
    stages run one at a time leave the files and manifest of run_pipeline.
    """
    return _run(cfg, (stage,))[_FLOW[stage].makes]


def _check_k_values(k_values: Sequence[int]) -> list[int]:
    """k_values as a list of at least one K, each checked by RunConfig.k's
    annotation and given once: the check of sweep's K list, which the CLI shares."""
    k_values = _typed(k_values, Annotated[list[_AtLeastOne], _Bound(1)], "k_values")
    if len(set(k_values)) < len(k_values):
        raise ValueError(f"k_values must give each K once, not {k_values}")
    return k_values


def sweep(cfg: RunConfig, k_values: Sequence[int]) -> list[dict]:
    """One evaluation per K, reusing a single generation pass and a single
    collapse trajectory.

    Preprocessing and generation are K-independent, so they run once, as a
    run of cfg through _run in the sweep root. Each K gets a subdirectory
    for the collapse, representation and evaluation stages, which read the
    root's corpus and assignments in memory, and a fresh manifest of cfg at
    that K, so its config_digest is run_pipeline's at that K. The merge
    order does not depend on K either, so the K values run in descending
    order and each collapse continues from the last K whose collapse
    succeeded. Emits sweep.csv with one row per successful K, in the order
    given; failures are recorded and the sweep goes on. Each K is given once.
    """
    _check_k_values(k_values)
    root = Path(cfg.output_dir)
    artifacts = _run(cfg, STAGES[:2])
    done: dict[int, dict] = {}
    errors: dict[str, str] = {}
    for k in sorted(k_values, reverse=True):
        sub_cfg = dataclasses.replace(cfg, k=k, output_dir=str(root / f"k_{k}"))
        manifest = _fresh_manifest(sub_cfg, artifacts["input_hashes"])
        try:
            _run_stages(sub_cfg, Path(sub_cfg.output_dir), STAGES[2:], artifacts, manifest)
        except PipelineStageError as exc:
            log.warning("sweep point K=%d failed: %s", k, exc.cause)
            errors[str(k)] = str(exc.cause)
        else:
            report = artifacts["report"]
            done[k] = {"k": k, "mean_npmi": report["mean_npmi"], "diversity": report["diversity"]}
    rows = [done[k] for k in k_values if k in done]

    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=["k", "mean_npmi", "diversity"])
    writer.writeheader()
    writer.writerows(rows)
    _write_file(root / _SWEEP_CSV_FILE, [table.getvalue()])
    _write_json(root / _SWEEP_MANIFEST_FILE, {"rows": rows, "errors": errors})
    return rows
