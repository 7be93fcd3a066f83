"""End-to-end orchestration with staged on-disk artifacts.

A run executes preprocess -> generate -> collapse -> represent -> evaluate,
writing each stage's output into the run directory so the expensive
prompting stages are resumable and replayable. The manifest records the
configuration digest, token usage, failure routing counts, a merge-log
summary, and the final metrics; it carries no timestamps, so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import collapse as collapse_mod
from . import corpus as corpus_mod
from . import generation as generation_mod
from . import representation as representation_mod
from .collapse import CollapseState, collapse_pbm, collapse_wsm
from .corpus import Corpus, PreprocessConfig, default_stopwords, load_stopwords
from .ctfidf import ctfidf_from_clusters
from .evaluation import DEFAULT_EPSILON, coherence
from .generation import (
    DemonstrationSet,
    generate_topics,
    provenance_counts,
)
from .llm import BackendConfig, LlmGateway, TokenUsage, load_mock_rules
from .representation import TopicRepresentation, represent_ctfidf, represent_llm

log = logging.getLogger(__name__)

STAGES = ("preprocess", "generate", "collapse", "represent", "evaluate")

PROCESSED_CORPUS_FILE = "corpus_processed.jsonl"
ASSIGNMENTS_FILE = "assignments.jsonl"
CLUSTERS_FILE = "clusters.json"
MERGE_LOG_FILE = "merge_log.jsonl"
REPRESENTATIONS_FILE = "representations.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"


class PipelineStageError(RuntimeError):
    """A stage failed; earlier artifacts are preserved on disk."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything a run needs, loadable from one JSON file.

    The two method combinations matching the reference setups are labeled
    "pbm" (prompt collapse + prompted representation) and "wsm" (word
    similarity collapse + weight-ranked representation); anything else is
    "custom".
    """

    corpus_path: str
    corpus_format: str = "jsonl"
    stopwords_path: str | None = None
    extra_blocklist: tuple[str, ...] = ()
    min_token_len: int = 1
    lowercase: bool = True
    demonstrations_path: str | None = None
    num_demonstrations: int = 8
    backend: BackendConfig = field(default_factory=BackendConfig)
    collapse_method: str = "wsm"
    k: int = 10
    window: int = 40
    representation_method: str = "ctfidf"
    epsilon: float = DEFAULT_EPSILON
    output_dir: str = "run_output"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.collapse_method not in ("pbm", "wsm"):
            raise ValueError(f"unknown collapse method {self.collapse_method!r}")
        if self.representation_method not in ("ctfidf", "llm"):
            raise ValueError(f"unknown representation method {self.representation_method!r}")

    def variant(self) -> str:
        if self.collapse_method == "pbm" and self.representation_method == "llm":
            return "pbm"
        if self.collapse_method == "wsm" and self.representation_method == "ctfidf":
            return "wsm"
        return "custom"

    def preprocess_config(self) -> PreprocessConfig:
        stopwords = (
            load_stopwords(self.stopwords_path) if self.stopwords_path else default_stopwords()
        )
        return PreprocessConfig(
            stopwords=stopwords,
            extra_blocklist=frozenset(self.extra_blocklist),
            min_token_len=self.min_token_len,
            lowercase=self.lowercase,
        )

    def demonstrations(self) -> DemonstrationSet:
        demos = (
            DemonstrationSet.from_file(self.demonstrations_path)
            if self.demonstrations_path
            else DemonstrationSet.default()
        )
        return demos.take(self.num_demonstrations)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["backend"] = dataclasses.asdict(self.backend)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        backend_data = dict(data.pop("backend", {}))
        rules_path = backend_data.pop("mock_rules_path", None)
        if rules_path:
            backend_data["mock_rules"] = load_mock_rules(rules_path)
        for key in ("mock_rules", "refusal_phrases"):
            if key in backend_data:
                value = backend_data[key]
                backend_data[key] = tuple(
                    tuple(item) if isinstance(item, list) else item for item in value
                )
        data["backend"] = BackendConfig(**backend_data)
        if "extra_blocklist" in data:
            data["extra_blocklist"] = tuple(data["extra_blocklist"])
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def config_digest(self) -> str:
        """Content-addressed digest: configuration values plus the SHA-256 of
        every input file, so equal digests mean re-runnable equal runs
        regardless of where the files live."""
        backend = self.backend
        payload = {
            "corpus_format": self.corpus_format,
            "extra_blocklist": sorted(self.extra_blocklist),
            "min_token_len": self.min_token_len,
            "lowercase": self.lowercase,
            "num_demonstrations": self.num_demonstrations,
            "collapse_method": self.collapse_method,
            "k": self.k,
            "window": self.window,
            "representation_method": self.representation_method,
            "epsilon": self.epsilon,
            "backend": {
                "kind": backend.kind,
                "model_name": backend.model_name,
                "max_tokens": backend.max_tokens,
                "temperature": backend.temperature,
                "mock_rules": [list(rule) for rule in backend.mock_rules],
                "mock_default": backend.mock_default,
                "refusal_phrases": list(backend.refusal_phrases),
            },
            "inputs": {
                "corpus": _file_sha256(self.corpus_path),
                "stopwords": _file_sha256(self.stopwords_path) if self.stopwords_path else None,
                "demonstrations": (
                    _file_sha256(self.demonstrations_path) if self.demonstrations_path else None
                ),
                "cache": (
                    _file_sha256(backend.cache_path)
                    if backend.cache_path and not backend.record and Path(backend.cache_path).exists()
                    else None
                ),
            },
        }
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, ensure_ascii=True, indent=2)
        f.write("\n")


def _update_manifest(outdir: Path, updates: dict) -> dict:
    path = outdir / MANIFEST_FILE
    manifest: dict = {}
    if path.exists():
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    manifest.update(updates)
    _write_json(path, manifest)
    return manifest


def _usage_dict(usage: TokenUsage) -> dict:
    return {"prompt": usage.prompt, "completion": usage.completion}


# -- stages ------------------------------------------------------------------


def stage_preprocess(cfg: RunConfig, outdir: Path) -> Corpus:
    raw = corpus_mod.load_corpus(cfg.corpus_path, cfg.corpus_format)
    processed = corpus_mod.preprocess(raw, cfg.preprocess_config())
    corpus_mod.save_processed(processed, outdir / PROCESSED_CORPUS_FILE)
    return processed


def stage_generate(cfg: RunConfig, outdir: Path) -> tuple[list, TokenUsage]:
    corpus = corpus_mod.load_processed(outdir / PROCESSED_CORPUS_FILE)
    gateway = LlmGateway(cfg.backend)
    assignments = generate_topics(corpus, cfg.demonstrations(), gateway)
    generation_mod.save_assignments(assignments, outdir / ASSIGNMENTS_FILE)
    # A meme can carry several labels, so both counts are reported.
    _update_manifest(
        outdir,
        {
            "generation_summary": {
                "documents": len(assignments),
                "labels_assigned": sum(len(a.topics) for a in assignments),
                "provenance": provenance_counts(assignments),
            }
        },
    )
    return assignments, gateway.total_usage


def stage_collapse(
    cfg: RunConfig, outdir: Path, start: CollapseState | None = None
) -> tuple[CollapseState, TokenUsage]:
    """Collapse the generated topics to cfg.k and write the clusters, the
    merge log and the collapse summary.

    start, when given, is the same assignments' state already collapsed to
    a larger K; the collapse continues from it, since neither method's
    merge order depends on K.
    """
    assignments = generation_mod.load_assignments(outdir / ASSIGNMENTS_FILE)
    state = CollapseState.from_assignments(assignments, k_target=cfg.k, window=cfg.window)
    misc_before = len(state.misc)
    if start is not None:
        state = dataclasses.replace(start, k_target=cfg.k)
    if cfg.collapse_method == "pbm":
        gateway = LlmGateway(cfg.backend)
        state = collapse_pbm(state, gateway)
        usage = gateway.total_usage
    else:
        corpus = corpus_mod.load_processed(outdir / PROCESSED_CORPUS_FILE)
        state = collapse_wsm(state, corpus)
        usage = TokenUsage(0, 0)
    collapse_mod.save_clusters(state, outdir / CLUSTERS_FILE)
    collapse_mod.save_merge_log(state, outdir / MERGE_LOG_FILE)
    _update_manifest(
        outdir,
        {
            "collapse_summary": {
                "method": cfg.collapse_method,
                "merges": sum(
                    1 for _, target, _ in state.merge_log if target != generation_mod.MISCELLANEOUS
                ),
                "misc_routed_topics": sum(
                    1 for _, target, _ in state.merge_log if target == generation_mod.MISCELLANEOUS
                ),
                "misc_routed_docs": len(state.misc) - misc_before,
                "zero_similarity_merges": sum(
                    1 for _, _, method in state.merge_log if method == "wsm-zero"
                ),
                "final_topics": state.non_reserved_count(),
            }
        },
    )
    return state, usage


def stage_represent(cfg: RunConfig, outdir: Path) -> tuple[list[TopicRepresentation], TokenUsage]:
    clusters = collapse_mod.load_clusters(outdir / CLUSTERS_FILE)
    corpus = corpus_mod.load_processed(outdir / PROCESSED_CORPUS_FILE)
    topic_clusters = {
        label: ids
        for label, ids in clusters.items()
        if label.casefold() not in generation_mod.RESERVED_LABELS
    }
    table = ctfidf_from_clusters(topic_clusters, corpus)
    reps: list[TopicRepresentation] = []
    usage = TokenUsage(0, 0)
    if cfg.representation_method == "llm":
        gateway = LlmGateway(cfg.backend)
        for topic in sorted(topic_clusters):
            reps.append(represent_llm(topic, table, gateway))
        usage = gateway.total_usage
    else:
        for topic in sorted(topic_clusters):
            reps.append(represent_ctfidf(table, topic))
    representation_mod.save_representations(reps, outdir / REPRESENTATIONS_FILE)
    fallbacks = sorted(rep.topic for rep in reps if rep.fallback)
    _update_manifest(
        outdir,
        {
            "representation_summary": {
                "method": cfg.representation_method,
                "backfilled_words": sum(rep.backfilled for rep in reps),
                "dropped_words": sum(rep.dropped for rep in reps),
                "llm_fallback_topics": fallbacks,
            }
        },
    )
    return reps, usage


def stage_evaluate(cfg: RunConfig, outdir: Path) -> dict:
    corpus = corpus_mod.load_processed(outdir / PROCESSED_CORPUS_FILE)
    reps = representation_mod.load_representations(outdir / REPRESENTATIONS_FILE)
    report = coherence(reps, corpus, epsilon=cfg.epsilon)
    payload = report.to_dict()
    payload["config_digest"] = cfg.config_digest()
    _write_json(outdir / REPORT_FILE, payload)
    return payload


# -- orchestration -----------------------------------------------------------


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute every stage in order and assemble the manifest.

    On a stage failure, everything written so far stays on disk, the
    manifest marks the failed stage, and PipelineStageError propagates.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "variant": cfg.variant(),
        "config": cfg.to_dict(),
        "config_digest": cfg.config_digest(),
        "stages_completed": [],
        "token_usage": {},
    }
    # A fresh run replaces any manifest left over in the directory.
    _write_json(outdir / MANIFEST_FILE, manifest)

    stage_fns = {
        "preprocess": lambda: stage_preprocess(cfg, outdir),
        "generate": lambda: stage_generate(cfg, outdir),
        "collapse": lambda: stage_collapse(cfg, outdir),
        "represent": lambda: stage_represent(cfg, outdir),
        "evaluate": lambda: stage_evaluate(cfg, outdir),
    }
    for stage in STAGES:
        try:
            result = stage_fns[stage]()
        except Exception as exc:
            _update_manifest(outdir, {"failed_stage": stage, "error": str(exc)})
            raise PipelineStageError(stage, exc) from exc
        manifest["stages_completed"].append(stage)
        if stage == "generate":
            assignments, usage = result
            manifest["token_usage"]["generate"] = _usage_dict(usage)
            manifest["failure_counts"] = provenance_counts(assignments)
        elif stage == "collapse":
            _, usage = result
            manifest["token_usage"]["collapse"] = _usage_dict(usage)
        elif stage == "represent":
            _, usage = result
            manifest["token_usage"]["represent"] = _usage_dict(usage)
        elif stage == "evaluate":
            manifest["metrics"] = {
                "mean_npmi": result["mean_npmi"],
                "diversity": result["diversity"],
            }
        _update_manifest(
            outdir,
            {
                "stages_completed": manifest["stages_completed"],
                "token_usage": manifest["token_usage"],
                **(
                    {"failure_counts": manifest["failure_counts"]}
                    if "failure_counts" in manifest
                    else {}
                ),
                **({"metrics": manifest["metrics"]} if "metrics" in manifest else {}),
            },
        )
    return outdir


def sweep(cfg: RunConfig, k_values: Sequence[int]) -> list[dict]:
    """One evaluation per K, reusing a single generation pass and a single
    collapse trajectory.

    Preprocessing and generation are K-independent, so they run once in
    the sweep root; each K gets its own subdirectory for the collapse,
    representation, and evaluation stages. The merge order does not depend
    on K either, so the K values run in descending order and each collapse
    continues from the previous K's state. Emits sweep.csv with one row per
    successful K, in the order given; failures are recorded and the sweep
    continues.
    """
    if not k_values:
        raise ValueError("k_values must not be empty")
    root = Path(cfg.output_dir)
    sub_cfgs = {k: dataclasses.replace(cfg, k=k, output_dir=str(root / f"k_{k}")) for k in k_values}
    root.mkdir(parents=True, exist_ok=True)
    stage_preprocess(cfg, root)
    stage_generate(cfg, root)

    reports: dict[int, dict] = {}
    errors: dict[str, str] = {}
    state: CollapseState | None = None
    for k in sorted(sub_cfgs, reverse=True):
        sub_cfg = sub_cfgs[k]
        subdir = Path(sub_cfg.output_dir)
        subdir.mkdir(exist_ok=True)
        for name in (PROCESSED_CORPUS_FILE, ASSIGNMENTS_FILE):
            shutil.copyfile(root / name, subdir / name)
        try:
            state, _ = stage_collapse(sub_cfg, subdir, start=state)
            stage_represent(sub_cfg, subdir)
            reports[k] = stage_evaluate(sub_cfg, subdir)
        except Exception as exc:
            log.warning("sweep point K=%d failed: %s", k, exc)
            errors[str(k)] = str(exc)
    rows = [
        {"k": k, "mean_npmi": reports[k]["mean_npmi"], "diversity": reports[k]["diversity"]}
        for k in k_values
        if k in reports
    ]

    with open(root / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["k", "mean_npmi", "diversity"])
        writer.writeheader()
        writer.writerows(rows)
    _write_json(root / "sweep_manifest.json", {"rows": rows, "errors": errors})
    return rows
