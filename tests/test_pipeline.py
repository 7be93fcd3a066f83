"""Staged pipeline runs, manifests, sweeps, and the command line."""

import builtins
import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics import (
    collapse_pbm,
    ctfidf_from_clusters,
    generate_topics,
    load_corpus,
    preprocess,
    represent_llm,
)
from memetopics import corpus as corpus_mod
from memetopics import llm as llm_mod
from memetopics import pipeline as pipeline_mod
from memetopics.cli import build_parser, config_from_args, main
from memetopics.collapse import COLLAPSE_QUESTION, CollapseState
from memetopics.corpus import _hints
from memetopics.generation import TopicAssignment
from memetopics.llm import BackendConfig, LlmGateway, load_mock_rules
from memetopics.pipeline import (
    STAGES,
    PipelineStageError,
    RunConfig,
    _load_artifact,
    load_run,
    run_pipeline,
    run_stage,
    sweep,
)

import readback_oracle
from conftest import (
    DELETE, FIXTURES_DIR, SWAPS, RuleServer, json_nodes, mock_backend, mutated, run_digest,
    write_jsonl,
)


def tiny_corpus(tmp_path):
    """Eight docs over two clean topic groups."""
    records = []
    for i in range(4):
        records.append(
            {"id": f"cat{i}", "caption": f"a cat picture {i}", "text": "whiskers purring naps"}
        )
    for i in range(4):
        records.append(
            {"id": f"car{i}", "caption": f"a car photo {i}", "text": "engine wheels driving"}
        )
    return write_jsonl(tmp_path / "tiny.jsonl", records)


def tiny_config(tmp_path, outdir="out", **kwargs):
    backend = kwargs.pop(
        "backend",
        BackendConfig(
            kind="mock",
            model_name="mock-model",
            mock_rules=(("whiskers", "['Cats']"), ("engine", "['Cars']")),
            mock_default="[]",
        ),
    )
    defaults = dict(
        corpus_path=str(tiny_corpus(tmp_path)),
        backend=backend,
        collapse_method="wsm",
        representation_method="ctfidf",
        k=2,
        output_dir=str(tmp_path / outdir),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def fixture_config(tmp_path, outdir, **kwargs):
    backend = BackendConfig(
        kind="replay",
        model_name="mock-model",
        cache_path=str(FIXTURES_DIR / "replay_cache.jsonl"),
    )
    defaults = dict(
        corpus_path=str(FIXTURES_DIR / "memes50.jsonl"),
        backend=backend,
        collapse_method="pbm",
        representation_method="llm",
        k=5,
        output_dir=str(tmp_path / outdir),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# -- full pipeline ------------------------------------------------------------


def test_run_pipeline_writes_all_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    outdir = run_pipeline(cfg)
    for name in (
        "corpus_processed.jsonl",
        "assignments.jsonl",
        "clusters.json",
        "merge_log.jsonl",
        "representations.json",
        "report.json",
        "manifest.json",
    ):
        assert (outdir / name).exists(), name
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages_completed"] == [
        "preprocess", "generate", "collapse", "represent", "evaluate",
    ]
    assert manifest["failure_counts"] == {
        "generated": 8, "miscellaneous": 0, "inappropriate": 0,
    }
    assert 0.0 <= manifest["metrics"]["diversity"] <= 1.0
    assert manifest["token_usage"]["generate"]["prompt"] > 0


def test_run_pipeline_deterministic(tmp_path):
    # Same config run twice: manifests byte-identical. Reports are also
    # location-independent, so they match even across output directories.
    cfg = tiny_config(tmp_path, outdir="run1")
    outdir = run_pipeline(cfg)
    manifest_first = (outdir / "manifest.json").read_bytes()
    run_pipeline(cfg)
    assert (outdir / "manifest.json").read_bytes() == manifest_first

    other = run_pipeline(tiny_config(tmp_path, outdir="run2"))
    assert (outdir / "report.json").read_bytes() == (other / "report.json").read_bytes()


def test_report_carries_config_digest(tmp_path):
    cfg = tiny_config(tmp_path)
    outdir = run_pipeline(cfg)
    report = json.loads((outdir / "report.json").read_text())
    assert report["config_digest"] == run_digest(cfg)
    assert report["epsilon"] == 1e-6


def test_failed_stage_preserves_artifacts_and_marks_manifest(tmp_path):
    missing_cache = tmp_path / "missing.jsonl"
    cfg = tiny_config(
        tmp_path,
        backend=BackendConfig(
            kind="replay", model_name="mock-model", cache_path=str(missing_cache)
        ),
    )
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "generate"
    outdir = tmp_path / "out"
    assert (outdir / "corpus_processed.jsonl").exists()  # earlier stage kept
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["failed_stage"] == "generate"


def test_a_failed_rerun_leaves_no_file_of_the_earlier_run(tmp_path):
    # A run from preprocess supersedes every stage of the run before it, so
    # a re-run that fails in generate keeps only what it wrote itself.
    cfg = fixture_config(tmp_path, "out")
    outdir = run_pipeline(cfg)
    missing = BackendConfig(
        kind="replay", model_name="mock-model", cache_path=str(tmp_path / "missing.jsonl")
    )
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(dataclasses.replace(cfg, backend=missing))
    assert err.value.stage == "generate"
    assert sorted(p.name for p in outdir.iterdir()) == ["corpus_processed.jsonl", "manifest.json"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages_completed"] == ["preprocess"]
    assert manifest["failed_stage"] == "generate"
    assert not {"generation_summary", "collapse_summary", "metrics"} & set(manifest)


# Writes a small run file through the corpus writer named in argv[2] (a
# JSONL file holds the record as its one line), then rewrites it with more
# than a file size limit 64 bytes above it allows, SIGXFSZ ignored so the
# write fails with EFBIG; prints that errno.
REWRITE_OVER_THE_SIZE_LIMIT = """
import resource, signal, sys
from pathlib import Path
from memetopics import corpus

path, writer = Path(sys.argv[1]), getattr(corpus, sys.argv[2])
write = lambda record: writer(path, [record] if path.suffix == ".jsonl" else record)
write({"stages_completed": ["preprocess"]})
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (path.stat().st_size + 64, hard))
try:
    write({"stages_completed": ["preprocess"], "pad": "x" * 200})
except OSError as exc:
    print(exc.errno)
"""


@pytest.mark.parametrize(
    "name, writer", [("manifest.json", "_write_json"), ("assignments.jsonl", "_write_jsonl")]
)
def test_a_failed_rewrite_leaves_the_old_json_file_whole(tmp_path, name, writer):
    # Before, the JSONL writer wrote in place, and the failed rewrite left a torn file.
    # The size limit covers every file the child writes, so its stdout is a pipe.
    path = tmp_path / name
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", REWRITE_OVER_THE_SIZE_LIMIT, str(path), writer],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(errno.EFBIG)]
    # Either file holds one JSON object.
    assert json.loads(path.read_text(encoding="utf-8")) == {"stages_completed": ["preprocess"]}
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("method,representation", [("pbm", "llm"), ("wsm", "ctfidf")])
def test_the_stage_table_names_every_file_a_run_writes(tmp_path, method, representation):
    cfg = fixture_config(
        tmp_path, "out", collapse_method=method, representation_method=representation
    )
    outdir = run_pipeline(cfg)
    files = {"manifest.json"}.union(*(stage.files for stage in pipeline_mod._FLOW.values()))
    assert sorted(p.name for p in outdir.iterdir()) == sorted(files)


def test_variant_labels():
    base = dict(corpus_path="x.jsonl")
    assert RunConfig(**base, collapse_method="pbm", representation_method="llm").variant() == "pbm"
    assert RunConfig(**base, collapse_method="wsm", representation_method="ctfidf").variant() == "wsm"
    assert RunConfig(**base, collapse_method="wsm", representation_method="llm").variant() == "custom"


def test_config_digest_tracks_input_content(tmp_path):
    cfg = tiny_config(tmp_path)
    digest = run_digest(cfg)
    assert digest == run_digest(cfg)  # stable
    with open(cfg.corpus_path, "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "extra", "caption": "x", "text": "y"}) + "\n")
    assert run_digest(cfg) != digest


def test_config_digest_ignores_cache_line_order(tmp_path):
    lines = (FIXTURES_DIR / "replay_cache.jsonl").read_text(encoding="utf-8").splitlines()
    cache = tmp_path / "cache.jsonl"
    cfg = fixture_config(tmp_path, "out")
    cfg.backend.cache_path = str(cache)

    def digest(entries):
        cache.write_text("".join(line + "\n" for line in entries), encoding="utf-8")
        return run_digest(cfg)

    recorded = digest(lines)
    assert digest(lines[::-1]) == recorded
    changed = json.loads(lines[0])
    changed["response"]["text"] += " "
    assert digest([json.dumps(changed, sort_keys=True)] + lines[1:]) != recorded


# Another valid value for every RunConfig field but backend, and for every
# BackendConfig field.
OTHER_RUN_VALUES = {
    "corpus_path": "elsewhere.jsonl",
    "corpus_format": "csv",
    "stopwords_path": "stop.txt",
    "extra_blocklist": ("zzz",),
    "min_token_len": 2,
    "lowercase": False,
    "demonstrations_path": "demos.json",
    "num_demonstrations": 3,
    "collapse_method": "pbm",
    "k": 11,
    "window": 41,
    "representation_method": "llm",
    "epsilon": 0.5,
    "output_dir": "elsewhere",
}
OTHER_BACKEND_VALUES = {
    "kind": "http",
    "endpoint": "http://localhost:1/v1/chat/completions",
    "model_name": "other-model",
    "max_tokens": 7,
    "temperature": 0.7,
    "max_retries": 5,
    "requests_per_minute": 7,
    "cache_path": "other.jsonl",
    "record": True,
    "api_key_env": "OTHER_KEY",
    "timeout": 2.0,
    "mock_rules": (("cat", "['Cats']"),),
    "mock_default": "['Other']",
    "refusal_phrases": ("nope",),
}


def test_config_digest_moves_with_every_field_but_the_location_ones():
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(OTHER_RUN_VALUES) == run_fields - {"backend"}
    assert set(OTHER_BACKEND_VALUES) == {f.name for f in dataclasses.fields(BackendConfig)}
    assert pipeline_mod._LOCATION_KEYS < set(OTHER_RUN_VALUES)
    assert pipeline_mod._BACKEND_LOCATION_KEYS < set(OTHER_BACKEND_VALUES)
    hashes = {"corpus": "c", "stopwords": None, "demonstrations": None, "cache": None}
    base = RunConfig(corpus_path="memes.jsonl", backend=BackendConfig(cache_path="cache.jsonl"))
    digest = base.config_digest(hashes)
    for name, value in OTHER_RUN_VALUES.items():
        assert getattr(base, name) != value, name
        moved = dataclasses.replace(base, **{name: value}).config_digest(hashes) != digest
        assert moved == (name not in pipeline_mod._LOCATION_KEYS), name
    for name, value in OTHER_BACKEND_VALUES.items():
        assert getattr(base.backend, name) != value, name
        backend = dataclasses.replace(base.backend, **{name: value})
        moved = dataclasses.replace(base, backend=backend).config_digest(hashes) != digest
        assert moved == (name not in pipeline_mod._BACKEND_LOCATION_KEYS), name


def test_config_digest_ignores_blocklist_order():
    hashes = {"corpus": "c", "stopwords": None, "demonstrations": None, "cache": None}
    forward = RunConfig(corpus_path="memes.jsonl", extra_blocklist=("a", "b"))
    backward = dataclasses.replace(forward, extra_blocklist=("b", "a"))
    assert forward.config_digest(hashes) == backward.config_digest(hashes)


def test_one_gateway_per_run_sweep_and_stage(tmp_path, monkeypatch):
    # One gateway, hence one rate limiter and one replay index, per call.
    built = []
    init = LlmGateway.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LlmGateway, "__init__", counting_init)
    run_pipeline(fixture_config(tmp_path, "run"))
    assert len(built) == 1
    sweep(fixture_config(tmp_path, "sweep"), [3, 5])
    assert len(built) == 2
    run_stage(fixture_config(tmp_path, "run"), "represent")
    assert len(built) == 3


def count_opens(monkeypatch, path):
    """The list that every later open of path appends to."""
    opened = []
    real_open = io.open
    target = os.path.abspath(path)

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == target:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return opened


def test_a_replay_run_sweep_and_stage_open_the_cache_once(tmp_path, monkeypatch):
    # One pass over the cache serves both the replay index and the cache's
    # hash in the configuration digest.
    opened = count_opens(monkeypatch, FIXTURES_DIR / "replay_cache.jsonl")
    run_pipeline(fixture_config(tmp_path, "run"))
    assert len(opened) == 1
    sweep(fixture_config(tmp_path, "sweep"), [3, 5])
    assert len(opened) == 2
    cfg = fixture_config(tmp_path, "staged")
    run_stage(cfg, "preprocess")  # a fresh manifest: the digest hashes the cache
    assert len(opened) == 3
    run_stage(cfg, "generate")
    assert len(opened) == 4
    (tmp_path / "staged" / "manifest.json").unlink()
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        run_stage(cfg, "generate")  # refused before the cache is read
    assert len(opened) == 4


def test_the_library_flow_on_one_gateway_reads_the_cache_once_behind_one_limiter(
    tmp_path, monkeypatch
):
    # generate, a pbm collapse to K=5 and one represent_llm per topic, all
    # given the one gateway, as the README's library quickstart calls them.
    opened = count_opens(monkeypatch, FIXTURES_DIR / "replay_cache.jsonl")
    limiters = []

    class CountingLimiter(llm_mod.RateLimiter):
        def __init__(self, *args, **kwargs):
            limiters.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(llm_mod, "RateLimiter", CountingLimiter)
    cfg = fixture_config(tmp_path, "out")
    gateway = LlmGateway(cfg.backend)
    corpus = preprocess(load_corpus(cfg.corpus_path), cfg.preprocess_config())
    assignments = generate_topics(corpus, cfg.demonstrations(), gateway)
    state = collapse_pbm(CollapseState.from_assignments(assignments), 5, gateway)
    table = ctfidf_from_clusters(state.topics, corpus)
    reps = [represent_llm(topic, table, gateway) for topic in sorted(state.topics)]
    assert [rep.method for rep in reps] == ["llm"] * 5
    assert len(opened) == 1
    assert len(limiters) == 1


def test_a_lone_stage_hashes_the_input_files_only_for_a_fresh_manifest_or_evaluate(
    tmp_path, monkeypatch
):
    cfg = fixture_config(tmp_path, "out")
    outdir = run_pipeline(cfg)
    opened = count_opens(monkeypatch, FIXTURES_DIR / "memes50.jsonl")
    for stage in ("collapse", "represent"):
        run_stage(cfg, stage)
    assert opened == []  # both continue the manifest and read the corpus back
    run_stage(cfg, "evaluate")  # the report's digest hashes the inputs
    assert len(opened) == 1


def test_a_malformed_cache_line_fails_the_generate_stage(tmp_path):
    lines = (FIXTURES_DIR / "replay_cache.jsonl").read_text(encoding="utf-8").splitlines(True)
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(lines[:5] + [lines[5][:40] + "\n"] + lines[6:]), encoding="utf-8")
    cfg = fixture_config(tmp_path, "out")
    cfg.backend.cache_path = str(cache)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "generate"
    assert str(err.value.cause).startswith(f"{cache}:6: not a cache record (")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "generate"
    assert manifest["stages_completed"] == ["preprocess"]
    assert manifest["config_digest"] == run_digest(cfg)


def test_config_roundtrip_through_json(tmp_path):
    cfg = tiny_config(tmp_path, k=3, collapse_method="pbm", representation_method="llm")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    loaded = RunConfig.from_file(path)
    assert loaded == cfg


def test_config_loads_mock_rules_from_file(tmp_path):
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(json.dumps([["cat", "['Cats']"]]), encoding="utf-8")
    cfg = RunConfig.from_dict(
        {
            "corpus_path": "whatever.jsonl",
            "backend": {"kind": "mock", "mock_rules_path": str(rules_path)},
        }
    )
    assert cfg.backend.mock_rules == (("cat", "['Cats']"),)


def test_run_directory_is_self_describing(tmp_path):
    # The config recorded in the manifest re-executes to identical bytes.
    outdir = run_pipeline(fixture_config(tmp_path, "original"))
    manifest = json.loads((outdir / "manifest.json").read_text())
    recovered = RunConfig.from_dict(manifest["config"])
    rerun = run_pipeline(
        RunConfig.from_dict({**recovered.to_dict(), "output_dir": str(tmp_path / "rerun")})
    )
    assert (outdir / "report.json").read_bytes() == (rerun / "report.json").read_bytes()


def test_fixture_politics_representation_headed_by_dominant_terms(tmp_path):
    # Qualitative check on the bundled fixture: the politics cluster's
    # weight-ranked words start with its highest-frequency names.
    outdir = run_pipeline(
        fixture_config(tmp_path, "out", collapse_method="wsm", representation_method="ctfidf")
    )
    reps = json.loads((outdir / "representations.json").read_text())
    head = reps["Politics"]["words"][:3]
    assert "trump" in head
    assert "president" in head
    report = json.loads((outdir / "report.json").read_text())
    assert report["diversity"] == 1.0  # five well-separated topics


# -- staged execution ---------------------------------------------------------


def test_stages_chain_individually(tmp_path):
    cfg = tiny_config(tmp_path)
    manifest_path = tmp_path / "out" / "manifest.json"
    run_stage(cfg, "preprocess")
    assignments = run_stage(cfg, "generate")
    assert len(assignments) == 8
    assert json.loads(manifest_path.read_text())["token_usage"]["generate"]["prompt"] > 0
    state = run_stage(cfg, "collapse")
    assert len(state.topics) == 2
    reps = run_stage(cfg, "represent")
    assert len(reps) == 2
    report = run_stage(cfg, "evaluate")
    assert report == load_run(cfg.output_dir, ["report"]).artifacts["report"]
    # One stage at a time leaves the manifest of a whole run.
    staged = manifest_path.read_bytes()
    run_pipeline(cfg)
    assert manifest_path.read_bytes() == staged


def run_dir_bytes(outdir):
    return {
        str(path.relative_to(outdir)): path.read_bytes()
        for path in sorted(outdir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("method,representation,k", [("pbm", "llm", 5), ("wsm", "ctfidf", 3)])
def test_lone_stages_write_the_files_of_a_run(tmp_path, method, representation, k):
    # Each lone stage reads back what the one before wrote, so every reader
    # must rebuild exactly what the stage handed on in memory. The second
    # pass uses the same directory, since the manifest records output_dir.
    cfg = fixture_config(
        tmp_path, "out", collapse_method=method, representation_method=representation, k=k
    )
    outdir = run_pipeline(cfg)
    whole = run_dir_bytes(outdir)
    assert len(whole) == 7
    shutil.rmtree(outdir)
    for stage in STAGES:
        run_stage(cfg, stage)
    assert run_dir_bytes(outdir) == whole


@pytest.fixture(scope="module")
def whole_runs(tmp_path_factory):
    """The directories of whole fixture replay runs a lone stage starts from, by
    name: "pbm" (K=5) and "wsm" (K=3)."""
    root = tmp_path_factory.mktemp("whole")
    wsm = fixture_config(root, "wsm", collapse_method="wsm", representation_method="ctfidf", k=3)
    return {"pbm": run_pipeline(fixture_config(root, "pbm")), "wsm": run_pipeline(wsm)}


# A step: a lone stage, deleting manifest.json, or dropping a stage from stages_completed.
LONE_STEPS = [*STAGES, "delete manifest", *(("drop", stage) for stage in STAGES)]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.sampled_from(LONE_STEPS), max_size=8))
def test_a_lone_stage_runs_only_after_every_stage_before_it(whole_runs, steps):
    whole = whole_runs["wsm"]
    outdir = whole.with_name("run")
    shutil.rmtree(outdir, ignore_errors=True)
    shutil.copytree(whole, outdir)
    cfg = fixture_config(whole.parent, "run", collapse_method="wsm",
                         representation_method="ctfidf", k=3)
    manifest_path = outdir / "manifest.json"
    for step in steps:
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
        if step == "delete manifest":
            manifest_path.unlink(missing_ok=True)
            continue
        if step[0] == "drop":
            if manifest is not None and step[1] in manifest["stages_completed"]:
                manifest["stages_completed"].remove(step[1])
                manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            continue
        earlier = list(STAGES[: STAGES.index(step)])
        done = manifest["stages_completed"] if manifest is not None else []
        before = run_dir_bytes(outdir)
        if step != "preprocess" and done[: len(earlier)] != earlier:
            with pytest.raises((ValueError, FileNotFoundError), match="manifest.json"):
                run_stage(cfg, step)
            assert run_dir_bytes(outdir) == before
            continue
        run_stage(cfg, step)
        completed = json.loads(manifest_path.read_text())["stages_completed"]
        assert completed == [*earlier, step]
        files = {"manifest.json"}.union(*(pipeline_mod._FLOW[name].files for name in completed))
        assert {path.name for path in outdir.iterdir()} == files


def test_running_a_stage_again_drops_it_and_later_stages_from_the_manifest(tmp_path):
    cfg = tiny_config(tmp_path)
    run_pipeline(cfg)
    run_stage(cfg, "generate")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages_completed"] == ["preprocess", "generate"]
    assert sorted(manifest["token_usage"]) == ["generate"]


def test_running_an_earlier_stage_again_drops_the_later_stages_outputs(tmp_path):
    cfg = fixture_config(tmp_path, "out")
    outdir = run_pipeline(cfg)
    whole = run_dir_bytes(outdir)
    run_stage(cfg, "generate")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert not {"collapse_summary", "representation_summary", "metrics"} & set(manifest)
    assert manifest["generation_summary"]["documents"] == 50
    files = sorted(path.name for path in outdir.iterdir())
    assert files == ["assignments.jsonl", "corpus_processed.jsonl", "manifest.json"]
    for stage in STAGES[2:]:
        run_stage(cfg, stage)
    assert run_dir_bytes(outdir) == whole


# The mock's replies, each to the documents holding one word of VOCAB: labels,
# some the same label in another case, a reserved label, a refusal and no list.
VOCAB = ("cat", "dog", "vote", "tax", "goal")
REPLIES = ("['Cats']", "['cats', 'Pets']", "['Politics', 'Money']", "['Miscellaneous']",
           "I cannot help with that.", "no list")
DOCS = st.lists(st.lists(st.sampled_from(VOCAB), max_size=3), max_size=8)
SCRIPTS = st.lists(st.sampled_from(REPLIES), min_size=len(VOCAB), max_size=len(VOCAB))
# What each artifact a run writes keeps in its files.
WRITTEN = {
    "corpus": lambda corpus: corpus.documents,
    "assignments": lambda assignments: assignments,
    "state": lambda state: (state.topics, state.misc, state.inappropriate, state.merge_log),
    "representations": lambda reps: [(r.topic, r.words, r.method, r.backfilled) for r in reps],
    "report": lambda report: report,
}


def drawn_config(tmp, docs, replies, methods, k, outdir="run"):
    """A run of the mock over drawn documents, each reply given to the documents
    holding one word of VOCAB. Document 0 holds no word of VOCAB, so the mock's
    default gives it a topic, and two words of each document's own make every
    topic two words long."""
    records = [{"id": f"d{i}", "caption": f"d{i}x d{i}y", "text": " ".join(words)}
               for i, words in enumerate([[], *docs])]
    return RunConfig(corpus_path=str(write_jsonl(Path(tmp) / "memes.jsonl", records)),
                     backend=mock_backend(tuple(zip(VOCAB, replies)), default="['Other']"),
                     collapse_method=methods[0], representation_method=methods[1], k=k,
                     output_dir=str(Path(tmp) / outdir))


@settings(max_examples=40, deadline=None)
@given(docs=DOCS, replies=SCRIPTS, k=st.integers(1, 3),
       methods=st.sampled_from([("wsm", "ctfidf"), ("pbm", "llm"), ("wsm", "llm")]))
def test_each_artifact_a_run_writes_reads_back_equal_to_the_one_it_made(docs, replies, methods, k):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = drawn_config(tmp, docs, replies, methods, k)
        made = pipeline_mod._run(cfg, STAGES)
        read = load_run(cfg.output_dir).artifacts
        assert read.keys() == WRITTEN.keys()
        for name, kept in WRITTEN.items():
            assert kept(read[name]) == kept(made[name]), name


def replayed(assignments, merge_log):
    """The state the steps of merge_log, each a CollapseState.merge, make of assignments."""
    state = CollapseState.from_assignments(assignments)
    for step in merge_log:
        state.merge(*step)
    return state


@settings(max_examples=25, deadline=None)
@given(docs=DOCS, replies=SCRIPTS, method=st.sampled_from(["pbm", "wsm"]),
       k_values=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
def test_the_merge_log_read_back_replays_the_assignments_to_the_state_read_back(
    docs, replies, method, k_values
):
    # A run at the first K, and a sweep over them all: each of its K directories
    # holds the state of the root's assignments, collapsed from the K before it, so
    # it loads against the root's artifacts: its merge log replays them to its clusters.
    methods = (method, "llm" if method == "pbm" else "ctfidf")
    with tempfile.TemporaryDirectory() as tmp:
        run = load_run(run_pipeline(drawn_config(tmp, docs, replies, methods, k_values[0])))
        sweep(drawn_config(tmp, docs, replies, methods, 1, "sweep"), k_values)
        root = load_run(Path(tmp) / "sweep").artifacts
        assert root["assignments"] == run.artifacts["assignments"]
        states = {k: _load_artifact(Path(tmp, "sweep", f"k_{k}"), "state", root) for k in k_values}
        # The sweep's state at the first K is the run's, though collapsed from a larger K.
        assert WRITTEN["state"](states[k_values[0]]) == WRITTEN["state"](run.artifacts["state"])


def test_a_run_never_counts_document_frequencies(tmp_path):
    cfg = fixture_config(tmp_path, "out")
    assert "doc_freq" not in vars(run_stage(cfg, "preprocess"))
    assert "doc_freq" not in vars(pipeline_mod._run(cfg, STAGES)["corpus"])


def test_stage_collapse_records_summary(tmp_path):
    cfg = fixture_config(tmp_path, "out")
    for stage in ("preprocess", "generate", "collapse"):
        run_stage(cfg, stage)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    summary = manifest["collapse_summary"]
    assert summary["final_topics"] == 5
    assert summary["merges"] == 4
    assert summary["misc_routed_topics"] == 1
    assert summary["misc_routed_docs"] == 1


def test_lone_stage_failure_is_marked_until_the_stage_runs_again(tmp_path):
    cfg = tiny_config(tmp_path)
    run_stage(cfg, "preprocess")
    run_stage(cfg, "generate")
    missing = BackendConfig(kind="replay", model_name="m", cache_path=str(tmp_path / "none"))
    with pytest.raises(PipelineStageError):
        run_stage(dataclasses.replace(cfg, collapse_method="pbm", k=1, backend=missing), "collapse")
    manifest_path = tmp_path / "out" / "manifest.json"
    assert json.loads(manifest_path.read_text())["failed_stage"] == "collapse"
    run_stage(cfg, "collapse")
    manifest = json.loads(manifest_path.read_text())
    assert "failed_stage" not in manifest and "error" not in manifest
    assert manifest["stages_completed"] == ["preprocess", "generate", "collapse"]


def test_run_and_sweep_read_no_artifact_back(tmp_path, monkeypatch):
    # Stages hand their artifacts on in memory; only run_stage reads them.
    def read_back(*args, **kwargs):
        raise AssertionError("artifact read back from disk")

    for module, name in (
        (corpus_mod, "load_processed"),
        (pipeline_mod, "_read_json"),
        (pipeline_mod, "_read_jsonl"),
    ):
        monkeypatch.setattr(module, name, read_back)
    run_pipeline(fixture_config(tmp_path, "run"))
    cfg = fixture_config(tmp_path, "sweep", collapse_method="wsm", representation_method="ctfidf")
    assert [row["k"] for row in sweep(cfg, [3, 5])] == [3, 5]
    assert json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())["errors"] == {}


# -- sweep --------------------------------------------------------------------


def test_sweep_single_k(tmp_path):
    cfg = tiny_config(tmp_path, outdir="sweep")
    rows = sweep(cfg, [2])
    assert len(rows) == 1
    assert rows[0]["k"] == 2


def test_sweep_rows_and_csv(tmp_path):
    cfg = fixture_config(tmp_path, "sweep", collapse_method="wsm", representation_method="ctfidf")
    rows = sweep(cfg, [3, 5])
    assert [row["k"] for row in rows] == [3, 5]
    for row in rows:
        assert 0.0 <= row["diversity"] <= 1.0
        assert -1.0 <= row["mean_npmi"] <= 1.0
    csv_text = (tmp_path / "sweep" / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "k,mean_npmi,diversity"
    assert len(csv_text.splitlines()) == 3


def test_sweep_shares_one_generation_pass(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = tiny_config(
        tmp_path,
        outdir="sweep",
        backend=BackendConfig(
            kind="mock",
            model_name="mock-model",
            mock_rules=(("whiskers", "['Cats']"), ("engine", "['Cars']")),
            mock_default="[]",
            cache_path=str(cache),
            record=True,
        ),
    )
    sweep(cfg, [1, 2])
    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    generation_queries = [e for e in entries if "high-level topics" in e["request"]["query"]]
    assert len(generation_queries) == 8  # one per document, not per K


def test_sweep_continues_past_failures(tmp_path):
    cfg = tiny_config(tmp_path, outdir="sweep")
    rows = sweep(cfg, [2, 99])  # K=99 exceeds available topics -> no-op collapse still works
    assert [row["k"] for row in rows] == [2, 99]
    errors = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())["errors"]
    assert errors == {}


SWEEP_ARTIFACTS = ("clusters.json", "merge_log.jsonl", "representations.json", "report.json")


def recording_fixture_config(tmp_path, outdir, cache, **kwargs):
    """The bundled fixture on the scripted mock backend, recording into cache."""
    backend = BackendConfig(
        kind="mock",
        model_name="mock-model",
        mock_rules=load_mock_rules(FIXTURES_DIR / "mock_rules.json"),
        mock_default="[]",
        cache_path=str(cache),
        record=True,
    )
    return fixture_config(tmp_path, outdir, backend=backend, **kwargs)


def collapse_entries(cache):
    entries = [json.loads(line) for line in cache.read_text().splitlines()]
    return [e for e in entries if COLLAPSE_QUESTION in e["request"]["query"]]


def cache_without(cache, entry, path):
    """A copy of cache at path, less every record of entry's hash."""
    path.write_text(
        "".join(
            line + "\n"
            for line in cache.read_text().splitlines()
            if json.loads(line)["hash"] != entry["hash"]
        )
    )
    return path


def topics_before_collapse(outdir):
    assignments = load_run(outdir, ["assignments"]).artifacts["assignments"]
    return len(CollapseState.from_assignments(assignments).topics)


@pytest.mark.parametrize("method,representation", [("pbm", "llm"), ("wsm", "ctfidf")])
def test_sweep_points_match_single_runs(tmp_path, method, representation):
    cache = tmp_path / "sweep_cache.jsonl"
    cfg = recording_fixture_config(
        tmp_path, "sweep", cache, collapse_method=method, representation_method=representation
    )
    sweep(cfg, [3, 5, 8])
    root = tmp_path / "sweep"
    for k in (3, 5, 8):
        single = run_pipeline(
            recording_fixture_config(
                tmp_path,
                f"single_{k}",
                tmp_path / f"single_{k}.jsonl",
                collapse_method=method,
                representation_method=representation,
                k=k,
            )
        )
        for name in SWEEP_ARTIFACTS:
            assert (root / f"k_{k}" / name).read_bytes() == (single / name).read_bytes(), (k, name)
        # Each K's manifest is the single run's but for the stages it did not
        # run and the prompts its continued collapse did not pay for.
        point = json.loads((root / f"k_{k}" / "manifest.json").read_text())
        alone = json.loads((single / "manifest.json").read_text())
        same = ("variant", "config_digest", "collapse_summary", "representation_summary", "metrics")
        assert {key: point[key] for key in same} == {key: alone[key] for key in same}, k
        sub_cfg = dataclasses.replace(cfg, k=k, output_dir=str(root / f"k_{k}"))
        assert point["config"] == json.loads(json.dumps(sub_cfg.to_dict())), k
    if method == "pbm":
        # One trajectory down to min(K), not one collapse per K.
        assert len(collapse_entries(cache)) == topics_before_collapse(root) - 3


def test_sweep_replay_miss_fails_the_same_points_as_single_runs(tmp_path):
    recorded = tmp_path / "recorded.jsonl"
    sweep(recording_fixture_config(tmp_path, "recording", recorded), [3, 5, 8])
    # Drop the first merge past K=8, so K=8 succeeds and K=5, K=3 miss.
    missing = collapse_entries(recorded)[topics_before_collapse(tmp_path / "recording") - 8]
    trimmed = cache_without(recorded, missing, tmp_path / "trimmed.jsonl")
    backend = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(trimmed))
    cfg = fixture_config(tmp_path, "sweep", backend=backend)

    rows = sweep(cfg, [3, 8, 5])
    expected = {}
    for k in (3, 8, 5):
        try:
            run_pipeline(dataclasses.replace(cfg, k=k, output_dir=str(tmp_path / f"single_{k}")))
        except PipelineStageError as exc:
            assert exc.stage == "collapse"
            expected[str(k)] = str(exc.cause)
    errors = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())["errors"]
    assert sorted(expected) == ["3", "5"]
    assert errors == expected
    assert [row["k"] for row in rows] == [8]

    # The root keeps the K-independent artifacts; each K directory only its own.
    root = tmp_path / "sweep"
    assert sorted(p.name for p in root.iterdir()) == [
        "assignments.jsonl", "corpus_processed.jsonl", "k_3", "k_5", "k_8",
        "manifest.json", "sweep.csv", "sweep_manifest.json",
    ]
    assert sorted(p.name for p in (root / "k_8").iterdir()) == sorted(
        SWEEP_ARTIFACTS + ("manifest.json",)
    )
    manifest = json.loads((root / "k_8" / "manifest.json").read_text())
    assert manifest["stages_completed"] == ["collapse", "represent", "evaluate"]
    for k in ("3", "5"):
        assert [p.name for p in (root / f"k_{k}").iterdir()] == ["manifest.json"]
        manifest = json.loads((root / f"k_{k}" / "manifest.json").read_text())
        assert (manifest["failed_stage"], manifest["error"]) == ("collapse", expected[k])


def test_a_failed_sweep_point_keeps_no_file_of_an_earlier_sweep(tmp_path):
    recorded = tmp_path / "recorded.jsonl"
    cfg = recording_fixture_config(tmp_path, "sweep", recorded)
    sweep(cfg, [3, 5, 8])
    root = tmp_path / "sweep"
    # Without the first merge every K's collapse misses in the cache.
    missing = collapse_entries(recorded)[0]
    trimmed = cache_without(recorded, missing, tmp_path / "trimmed.jsonl")
    backend = BackendConfig(kind="replay", model_name="mock-model", cache_path=str(trimmed))
    assert sweep(dataclasses.replace(cfg, backend=backend), [3, 5, 8]) == []
    errors = json.loads((root / "sweep_manifest.json").read_text())["errors"]
    assert sorted(errors) == ["3", "5", "8"]
    for k in (3, 5, 8):
        assert [p.name for p in (root / f"k_{k}").iterdir()] == ["manifest.json"]
        manifest = json.loads((root / f"k_{k}" / "manifest.json").read_text())
        assert manifest["stages_completed"] == []
        assert manifest["failed_stage"] == "collapse"
        assert "collapse_summary" not in manifest


def test_a_run_from_preprocess_keeps_no_output_of_an_earlier_sweep(tmp_path):
    cfg = fixture_config(tmp_path, "sweep", collapse_method="wsm", representation_method="ctfidf")
    root = tmp_path / "sweep"
    # Named like sweep output but not sweep output, so it stays.
    root.mkdir()
    for name in ("k_notes", "k_5.txt", "notes.txt"):
        (root / name).write_text("mine\n", encoding="utf-8")
    sweep(cfg, [3, 5, 8])
    assert sorted(p.name for p in root.glob("k_*") if p.is_dir()) == ["k_3", "k_5", "k_8"]
    sweep(cfg, [3, 8])
    assert sorted(p.name for p in root.glob("k_*") if p.is_dir()) == ["k_3", "k_8"]
    run_pipeline(cfg)
    written = {name for stage in pipeline_mod._FLOW.values() for name in stage.files}
    mine = {"k_notes", "k_5.txt", "notes.txt"}
    assert {p.name for p in root.iterdir()} == written | mine | {"manifest.json"}


def test_http_sweep_without_a_cache_sends_each_request_once(tmp_path, monkeypatch):
    server = RuleServer()
    monkeypatch.setattr(llm_mod, "_urllib_transport", server)
    asked = []
    complete = LlmGateway.complete

    def counting_complete(self, exchange):
        asked.append(exchange)
        return complete(self, exchange)

    monkeypatch.setattr(LlmGateway, "complete", counting_complete)
    backend = BackendConfig(kind="http", model_name="mock-model", requests_per_minute=1_000_000)
    rows = sweep(fixture_config(tmp_path, "sweep", backend=backend), [3, 5, 8])
    assert [row["k"] for row in rows] == [3, 5, 8]
    assert len(server.hashes) == len(set(server.hashes))
    # Some word-rank requests repeat across K; those were answered from memory.
    assert len(asked) > len(server.hashes)


def test_sweep_rows_follow_the_given_order(tmp_path):
    cfg = tiny_config(tmp_path, outdir="sweep")
    assert [row["k"] for row in sweep(cfg, [1, 3, 2])] == [1, 3, 2]


def test_sweep_rejects_bad_k_before_any_work(tmp_path):
    cfg = tiny_config(tmp_path, outdir="sweep")
    with pytest.raises(ValueError):
        sweep(cfg, [2, 0])
    assert not (tmp_path / "sweep").exists()


def test_sweep_checks_each_k_by_the_k_annotation_before_any_work(tmp_path):
    # Before, these passed a `>= 1` check: preprocess and generate ran, and
    # only the collapse at K = 2.0 was refused.
    cfg = tiny_config(tmp_path, outdir="sweep")
    for k_values, message in [([True, 2.0], "k_values[0] must be an integer, not True"),
                              ([5, 2.0], "k_values[1] must be an integer, not 2.0")]:
        with pytest.raises(ValueError) as refused:
            sweep(cfg, k_values)
        assert str(refused.value) == message
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_a_repeated_k_before_any_work(tmp_path):
    # A repeated K would run once and be reported twice.
    cfg = tiny_config(tmp_path, outdir="sweep")
    with pytest.raises(ValueError, match="each K once"):
        sweep(cfg, [5, 3, 5])
    assert not (tmp_path / "sweep").exists()


def test_sweep_requires_k_values(tmp_path):
    with pytest.raises(ValueError):
        sweep(tiny_config(tmp_path), [])


# -- command line -------------------------------------------------------------


def test_cli_run_exit_zero(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_stage_sequence(tmp_path):
    cfg = tiny_config(tmp_path, outdir="staged")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    for command in ("preprocess", "generate", "collapse", "represent", "evaluate"):
        assert main([command, "--config", str(config_path)]) == 0
    assert (tmp_path / "staged" / "report.json").exists()


def run_edited(whole: Path, outdir: Path, stage: str, file: str, text: str | bytes | None):
    """Copy the run directory whole to outdir, give its file the text (bytes as they are, None
    deletes it) and run `memetopics <stage>` there: the exit code, stderr, and every byte of
    outdir before."""
    shutil.rmtree(outdir, ignore_errors=True)
    shutil.copytree(whole, outdir)
    if text is None:
        (outdir / file).unlink()
    elif isinstance(text, bytes):
        (outdir / file).write_bytes(text)
    else:
        (outdir / file).write_text(text, encoding="utf-8")
    config = json.loads((whole / "manifest.json").read_text(encoding="utf-8"))["config"]
    config_path = outdir.with_suffix(".json")
    config_path.write_text(json.dumps({**config, "output_dir": str(outdir)}), encoding="utf-8")
    before = run_dir_bytes(outdir)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([stage, "--config", str(config_path)])
    return code, err.getvalue(), before


def assert_refused(outdir, stage, file, code, err, before, named=("",)):
    """A lone stage refused what it read back: exit 1; stderr `error in <stage>: `, then
    named[0], naming file and every fragment of named ({run} is outdir); no traceback; and
    every byte of outdir as before, since nothing is superseded before each file passed."""
    named = [fragment.format(run=outdir) for fragment in named]
    assert code == 1, err
    assert err.startswith(f"error in {stage}: {named[0]}"), err
    assert file in err and all(fragment in err for fragment in named), err
    assert "Traceback" not in err
    assert run_dir_bytes(outdir) == before


# Edits of a run file's text: by its lines, each with its newline, or by its JSON value.
def lines_edit(edit):
    return lambda text: "".join(edit(text.splitlines(keepends=True)))


def value_edit(edit):
    return lambda text: json.dumps(edit(json.loads(text)))


def first_line_as(edit):
    """An edit of a JSONL file's first line, by its JSON value."""
    return lines_edit(lambda lines: [json.dumps(edit(json.loads(lines[0]))) + "\n", *lines[1:]])


def first_line(**values):
    return first_line_as(lambda record: {**record, **values})


def not_utf8(text):
    """The text's bytes with one that no UTF-8 text holds, 0xff, in its middle."""
    data = text.encode("utf-8")
    return data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :]


def appended(record):
    return lines_edit(lambda lines: [*lines, json.dumps(record) + "\n"])


def each_entry(edit):
    return value_edit(lambda value: {key: edit(entry) for key, entry in value.items()})


def renamed(value, path, key):
    """value with the object key at the end of path renamed key, in its place."""
    parent = reduce(getitem, path[:-1], value)
    return mutated(value, path[:-1], {key if k == path[-1] else k: v for k, v in parent.items()})


def _lose_generate(manifest):
    manifest["stages_completed"].remove("generate")
    del manifest["token_usage"]["generate"]
    return manifest


REPLAY_DIFFERS = ("clusters.json differs at cluster %r from the replay of merge_log.jsonl on "
                  "assignments.jsonl")
NO_MANIFEST = (lambda _: None, ("[Errno 2] No such file or directory", "{run}/manifest.json"))
# Single corruptions of whole fixture runs, by (run, file, stage): for each case, an
# edit of the file's text (to bytes, or to None, which deletes it) and what the stage's
# refusal names, the first fragment right after "error in <stage>: " and {run} standing
# for the run directory, or None for an edit the stage accepts. A file that no stage
# reads back has stage None: load_run refuses it, its message starting with the first
# fragment. Before these checks, each case of the assignments, the clusters, the
# representations against the clusters and the manifest ran to exit 0 or failed naming
# no file, most after deleting files, and load_run took each case of the report.
CORRUPTIONS = {
    ("pbm", "assignments.jsonl", "collapse"): {
        "line cut short": (
            lines_edit(lambda ls: [*ls[:6], ls[6][: len(ls[6]) // 2] + "\n", *ls[7:]]),
            ("assignments.jsonl:7: invalid JSON",),
        ),
        "bogus provenance": (first_line(provenance="bogus"), ("assignments.jsonl", "'bogus'")),
        "generated without a topic": (first_line(provenance="generated", topics=[]),
                                      ("assignments.jsonl", "'m001'")),
        "deleted line": (
            lines_edit(lambda ls: ls[1:]),
            ("assignments.jsonl places document 'm001' nowhere, though corpus_processed.jsonl "
             "holds it",),
        ),
        "repeated line": (lines_edit(lambda ls: [*ls, ls[0]]), ("assignments.jsonl", "'m001'")),
        "foreign id": (first_line(doc_id="zzz"), ("assignments.jsonl", "'zzz'")),
        "integer id": (first_line(doc_id=3),
                       ("assignments.jsonl", "doc_id must be a string, not 3")),
        "reserved label": (first_line(provenance="generated", topics=["War", "Miscellaneous"]),
                           ("assignments.jsonl", ":1: 'Miscellaneous' is a reserved cluster name")),
        "routed with a topic": (first_line(provenance="miscellaneous", topics=["Zebra Crossings"]),
                                ("assignments.jsonl", ":1: document 'm001' is miscellaneous")),
        "line lacking topics": (appended({"doc_id": "x", "provenance": "generated"}),
                                ("missing key assignments.jsonl:51: topics",)),
        "line with an unknown key": (appended({"doc_id": "x", "id": "x"}),
                                     ("unknown key assignments.jsonl:51: id",)),
        "topics a string": (first_line(topics="Cats"),
                            ("assignments.jsonl:1: topics", "must be a list, not the string")),
        "not UTF-8": (not_utf8, ("{run}/assignments.jsonl: 'utf-8' codec can't decode byte 0xff",)),
    },
    ("pbm", "manifest.json", "collapse"): {
        "not JSON": (lambda _: "{", ("{run}/manifest.json: invalid JSON",)),
        "a list": (lambda _: "[]", ("{run}/manifest.json: must hold a JSON object",)),
    },
    ("wsm", "manifest.json", "collapse"): {
        "deleted": NO_MANIFEST,
        "stages_completed not a list": (value_edit(lambda m: {**m, "stages_completed": 5}),
                                        ("manifest.json: stages_completed",)),
    },
    ("wsm", "manifest.json", "generate"): {"deleted": NO_MANIFEST},
    ("pbm", "corpus_processed.jsonl", "generate"): {
        "line lacking caption": (appended({"id": "x", "text": ""}),
                                 ("missing key corpus_processed.jsonl:51: caption",)),
        # tokens has a default, but save_processed writes it, so a reader requires it.
        "line lacking tokens": (appended({"id": "x", "caption": "", "text": ""}),
                                ("missing key corpus_processed.jsonl:51: tokens",)),
        "tokens a string": (first_line(tokens="meme"),
                            ("corpus_processed.jsonl:1: tokens", "must be a list, not the string")),
    },
    # clusters.json must be the clusters of the merge log replayed on the assignments.
    ("wsm", "clusters.json", "represent"): {
        "deleted id": (
            value_edit(lambda c: {**c, "Military": [i for i in c["Military"] if i != "m013"]}),
            (REPLAY_DIFFERS % "Military",),
        ),
        "foreign id": (value_edit(lambda c: {**c, "Politics": [*c["Politics"], "zzz"]}),
                       (REPLAY_DIFFERS % "Politics",)),
        "reserved label": (value_edit(lambda c: renamed(c, ("Politics",), "miscellaneous")),
                           (REPLAY_DIFFERS % "miscellaneous",)),
        "labels equal but for case": (
            value_edit(lambda c: renamed(c, ("Technology",), "politics")),
            (REPLAY_DIFFERS % "politics",),
        ),
        "document moved": (
            value_edit(lambda c: {"Military": [i for i in c["Military"] if i != "m047"],
                                  "Politics": sorted([*c["Politics"], "m047"]),
                                  "Technology": c["Technology"]}),
            (REPLAY_DIFFERS % "Military",),
        ),
        "not UTF-8": (not_utf8, ("{run}/clusters.json: 'utf-8' codec can't decode byte 0xff",)),
        "cluster of null ids": (value_edit(lambda c: {**c, "Sports": None}),
                                (REPLAY_DIFFERS % "Sports",)),
    },
    ("pbm", "clusters.json", "represent"): {
        "ids a string": (value_edit(lambda c: {**c, min(c): "m001"}),
                         (REPLAY_DIFFERS % "Health",)),
        "not JSON": (lambda _: "{", ("{run}/clusters.json: invalid JSON",)),
        "a list": (lambda _: "[]", ("{run}/clusters.json: must hold a JSON object",)),
    },
    ("wsm", "manifest.json", "represent"): {
        "deleted": NO_MANIFEST,
        "token_usage not an object": (value_edit(lambda m: {**m, "token_usage": [1]}),
                                      ("manifest.json: token_usage",)),
        # A stage's entry may go, but from stages_completed for a stage before the one that runs.
        "evaluate lost from stages_completed": (
            value_edit(lambda m: {**m, "stages_completed": m["stages_completed"][:-1]}), None),
        "generate lost from token_usage": (value_edit(lambda m: {**m, "token_usage": {
            s: u for s, u in m["token_usage"].items() if s != "generate"}}), None),
    },
    # A deleted topic left report.json with k 4.
    ("pbm", "representations.json", "evaluate"): {
        "deleted topic": (value_edit(lambda r: {t: e for t, e in r.items() if t != "Health"}),
                          ("representations.json", "'Health'", "clusters.json")),
        "invented topic": (value_edit(lambda r: {**r, "Sports": r["Health"]}),
                           ("representations.json", "'Sports'", "clusters.json")),
        "reserved topic": (value_edit(lambda r: {**r, "Miscellaneous": r["Health"]}),
                           ("representations.json", "'Miscellaneous'", "clusters.json")),
        # backfilled has a default, but the represent stage writes it, so a reader requires it.
        "entries lacking backfilled": (
            each_entry(lambda e: {"words": e["words"], "method": "llm"}),
            ("missing key representations.json: topic ", ": backfilled"),
        ),
        "entry lacking method": (
            value_edit(lambda r: {**r, min(r): {"words": ["a", "b"], "backfilled": 0}}),
            ("missing key representations.json: topic ", ": method"),
        ),
        "words a string": (value_edit(lambda r: {**r, min(r): {**r[min(r)], "words": "meme"}}),
                           ("representations.json", "must be a list, not the string")),
        "not JSON": (lambda _: "{", ("{run}/representations.json: invalid JSON",)),
        "a list": (lambda _: "[]", ("{run}/representations.json: must hold a JSON object",)),
        # The entry's key in the file names its topic, whatever the entry holds.
        "topic keys inside": (each_entry(lambda e: {**e, "topic": "Miscellaneous"}), None),
    },
    ("wsm", "merge_log.jsonl", "represent"): {
        "deleted": (lambda _: None,
                    ("[Errno 2] No such file or directory", "{run}/merge_log.jsonl")),
        "bogus method": (first_line(method="bogus"), (
            "merge_log.jsonl:1: method must be one of 'pbm', 'wsm', 'wsm-zero', not 'bogus'",)),
        "line without target": (
            first_line_as(lambda m: {key: m[key] for key in ("source", "method")}),
            ("missing key merge_log.jsonl:1: target",)),
        "line cut short": (
            lines_edit(lambda ls: [*ls[:2], ls[2][: len(ls[2]) // 2] + "\n", *ls[3:]]),
            ("merge_log.jsonl:3: invalid JSON",),
        ),
        # Each step is the one collapse took, replayed on the assignments to clusters.json.
        "target not a topic": (first_line(target="x"), (
            "merge_log.jsonl:1: merge target 'x' is neither a live topic nor Miscellaneous",)),
        "line deleted": (lines_edit(lambda ls: ls[1:]), (REPLAY_DIFFERS % "Politics",)),
    },
    ("wsm", "merge_log.jsonl", "evaluate"): {
        # Health, the last source, folds into Politics, another live topic, not Military.
        "target another live topic": (
            lines_edit(lambda ls: [*ls[:-1], ls[-1].replace('"Military"', '"Politics"')]),
            (REPLAY_DIFFERS % "Military",),
        ),
    },
    ("pbm", "clusters.json", "evaluate"): {
        "document deleted": (value_edit(lambda c: {**c, "Health": c["Health"][1:]}),
                             (REPLAY_DIFFERS % "Health",)),
    },
    ("wsm", "manifest.json", "evaluate"): {
        "deleted": NO_MANIFEST,
        "stages_completed naming no stage": (value_edit(lambda m: {**m, "stages_completed": [1]}),
                                             ("manifest.json: stages_completed",)),
        "generate lost from stages_completed and token_usage": (value_edit(_lose_generate), (
            "manifest.json: stages_completed is ['preprocess', 'collapse', 'represent',"
            " 'evaluate'], so 'generate' must complete before 'representations' loads",)),
    },
    # report.json holds a CoherenceReport's fields and the run's config_digest.
    ("pbm", "report.json", None): {
        "per-topic value a string": (
            value_edit(lambda r: {**r, "per_topic": {**r["per_topic"], "Health": "high"}}),
            ("report.json: per_topic['Health'] must be a number, not 'high'",)),
        "another estimator": (value_edit(lambda r: {**r, "estimator": "anything"}), (
            "report.json: estimator must be one of 'boolean-document', not 'anything'",)),
        "config_digest deleted": (
            value_edit(lambda r: {k: v for k, v in r.items() if k != "config_digest"}),
            ("report.json: config_digest must be a string, not None",)),
        "excluded a string": (value_edit(lambda r: {**r, "excluded": "Health"}),
                              ("report.json: excluded must be a list, not the string 'Health'",)),
        # JSON writes a whole-number float with its point, but a number is a number.
        "per-topic value an integer": (
            value_edit(lambda r: {**r, "per_topic": {**r["per_topic"], "Health": 0}}), None),
    },
}


@pytest.mark.parametrize(
    "run, file, stage, edit, named",
    [pytest.param(*key, *row, id=f"{key[2]}: {key[1]} {case}")
     for key, rows in CORRUPTIONS.items() if key[2] for case, row in rows.items()],
)
def test_a_lone_stage_refuses_a_run_file_it_cannot_trust(
    whole_runs, tmp_path, run, file, stage, edit, named
):
    whole, outdir = whole_runs[run], tmp_path / "run"
    text = edit((whole / file).read_text(encoding="utf-8"))
    code, err, before = run_edited(whole, outdir, stage, file, text)
    if named is not None:
        assert_refused(outdir, stage, file, code, err, before, named)
        return
    assert code == 0, err
    for name in pipeline_mod._FLOW[stage].files:  # written as the whole run wrote it
        assert (outdir / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize(
    "run, file, edit, named",
    [pytest.param(run, file, *row, id=f"load_run: {file} {case}")
     for (run, file, stage), rows in CORRUPTIONS.items() if stage is None
     for case, row in rows.items()],
)
def test_load_run_refuses_a_run_file_no_stage_reads_back(whole_runs, tmp_path, run, file, edit,
                                                        named):
    outdir = tmp_path / "run"
    shutil.copytree(whole_runs[run], outdir)
    (outdir / file).write_text(edit((outdir / file).read_text(encoding="utf-8")), encoding="utf-8")
    if named is None:
        assert load_run(outdir).artifacts.keys() == set(WRITTEN)
        return
    with pytest.raises(ValueError) as refused:
        load_run(outdir)
    message = str(refused.value)
    assert message.startswith(named[0]) and all(fragment in message for fragment in named)


# Each file a lone stage reads back, and the stage that reads it.
READ_BACKS = {
    "assignments.jsonl": "collapse",
    "clusters.json": "represent",
    "corpus_processed.jsonl": "collapse",
    "manifest.json": "collapse",
    "merge_log.jsonl": "represent",
    "representations.json": "evaluate",
}
DUPLICATE = object()
PROVENANCES = get_args(_hints(TopicAssignment)["provenance"])


def _read_back(path: Path):
    """A JSON file's value, or a JSONL file's records as a list, one per line."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_bad_node_or_line_read_back_is_refused_naming_its_file(whole_runs, data):
    # Each edit is judged by readback_oracle: the stage must refuse it exactly when
    # the oracle does. A wsm collapse prompts for nothing, so no edit misses a reply.
    whole = whole_runs["wsm"]
    name = data.draw(st.sampled_from(sorted(READ_BACKS)))
    stage = READ_BACKS[name]
    originals = {file: _read_back(whole / file) for file in READ_BACKS}
    original = originals[name]
    jsonl = name.endswith(".jsonl")
    paths = [p for p in json_nodes(original) if p or not jsonl]
    # Most manifest nodes sit under entries no stage reads, so half the manifest
    # draws lose an item of one of the two a continued run reads.
    lost = name == "manifest.json" and data.draw(st.booleans())
    if lost:
        paths = [p for p in paths if len(p) == 2 and p[0] in ("stages_completed", "token_usage")]
    path = data.draw(st.sampled_from(paths))
    node = reduce(getitem, path, original)
    # Every node can be deleted or swapped for one of another type, an object's key
    # renamed, and a line duplicated; an assignment's provenance can be swapped for
    # another, and its topics for ["x"].
    swaps = [new for new in SWAPS if new is DELETE or type(new) is not type(node)]
    parent = reduce(getitem, path[:-1], original)
    if path and isinstance(parent, dict):
        keys = ("x", "miscellaneous", max(parent).upper())
        swaps += [("rename", key) for key in keys if key not in parent]
    if jsonl and len(path) == 1:
        swaps.append(DUPLICATE)
    if path[1:] == ("provenance",):
        swaps += [provenance for provenance in PROVENANCES if provenance != node]
    if path[1:] == ("topics",):
        swaps.append(["x"])
    new = DELETE if lost else data.draw(st.sampled_from(swaps))
    if new is DUPLICATE:
        value = [*original[: path[0] + 1], *original[path[0] :]]
    elif isinstance(new, tuple):
        value = renamed(original, path, new[1])
    else:
        value = mutated(original, path, new)
    if jsonl:
        text = "".join(json.dumps(record) + "\n" for record in value)
    else:
        text = "" if value is DELETE else json.dumps(value)
    outdir = whole.with_name("edited")
    code, err, before = run_edited(whole, outdir, stage, name, text)
    reason = readback_oracle.problem(
        {**originals, name: None if value is DELETE else value}, stage
    )
    assert code == (0 if reason is None else 1), (name, path, new, reason, err)
    if reason is not None:
        assert_refused(outdir, stage, name, code, err, before)
        return
    ids = {line["id"] for line in originals["corpus_processed.jsonl"]}
    if stage in ("collapse", "represent"):
        clusters = json.loads((outdir / "clusters.json").read_text(encoding="utf-8"))
        assert set().union(*clusters.values()) == ids
    if stage == "collapse":  # the merge log replays the assignments read back to the clusters
        loaded = load_run(outdir).artifacts
        state = loaded["state"]
        assert replayed(loaded["assignments"], state.merge_log) == state, (path, new)


# Every file a run writes, each of which load_run reads back.
RUN_FILES = sorted({"manifest.json"}.union(*(s.files for s in pipeline_mod._FLOW.values())))


@pytest.mark.parametrize("file", RUN_FILES)
def test_every_file_a_run_writes_has_a_reader(whole_runs, tmp_path, file):
    # Fails as soon as a stage writes a file that no reader reads.
    outdir = tmp_path / "run"
    shutil.copytree(whole_runs["pbm"], outdir)
    (outdir / file).unlink()
    with pytest.raises(FileNotFoundError, match=f"/{file}'$"):
        load_run(outdir)


def test_a_report_short_of_a_key_its_writer_writes_is_refused_naming_it(whole_runs, tmp_path):
    outdir = tmp_path / "run"
    shutil.copytree(whole_runs["pbm"], outdir)
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    del report["mean_npmi"]
    (outdir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ValueError, match="^missing key report.json: mean_npmi$"):
        load_run(outdir)


@pytest.mark.parametrize("names,message", [
    ("state", "names must be a list, not the string 'state'"),
    (["state", "bogus"], "names[1] must be one of 'corpus', 'assignments', 'state', "
                         "'representations', 'report', not 'bogus'"),
    (["gateway"], "names[0] must be one of 'corpus', "),
])
def test_load_run_refuses_names_that_are_not_a_list_of_artifacts(whole_runs, names, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_run(whole_runs["pbm"], names)


def test_cli_sweep(tmp_path):
    cfg = tiny_config(tmp_path, outdir="sweep")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert main(["sweep", "--config", str(config_path), "--k-values", "1,2"]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_cli_sweep_with_a_failed_k_exits_one_and_writes_its_files(tmp_path, capsys):
    # The fixture cache holds the prompt collapse of window 5, so window 3 misses.
    cfg = fixture_config(tmp_path, "sweep", window=3)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert main(["sweep", "--config", str(config_path), "--k-values", "3,5"]) == 1
    out, err = capsys.readouterr()
    root = tmp_path / "sweep"
    assert "sweep complete: 0 of 2 K values succeeded" in out
    manifest = root / "sweep_manifest.json"
    assert f"error: sweep failed at K = [3, 5]; the errors are in {manifest}" in err
    assert (root / "sweep.csv").read_text(encoding="utf-8").split() == ["k,mean_npmi,diversity"]
    written = json.loads(manifest.read_text(encoding="utf-8"))
    assert written["rows"] == [] and sorted(written["errors"]) == ["3", "5"]


def test_cli_flag_overrides(tmp_path):
    corpus = tiny_corpus(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(
        json.dumps([["whiskers", "['Cats']"], ["engine", "['Cars']"]]), encoding="utf-8"
    )
    code = main(
        [
            "run",
            "--corpus", str(corpus),
            "--backend-kind", "mock",
            "--mock-rules", str(rules),
            "--collapse-method", "wsm",
            "--representation", "ctfidf",
            "--k", "2",
            "--out", str(tmp_path / "cli_out"),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
    assert manifest["config"]["k"] == 2


# A valid config file; each flag below changes one of its keys.
FILE_CONFIG = {
    "corpus_path": "memes.jsonl",
    "num_demonstrations": 1,
    "backend": {"kind": "mock", "model_name": "mock-model", "cache_path": "cache.jsonl"},
}


@pytest.mark.parametrize(
    "flag, value, key, expected",
    [
        ("--corpus", "other.jsonl", "corpus_path", "other.jsonl"),
        ("--format", "csv", "corpus_format", "csv"),
        ("--stopwords", "stop.txt", "stopwords_path", "stop.txt"),
        ("--blocklist", "lol, meme,", "extra_blocklist", ("lol", "meme")),
        ("--min-token-len", "3", "min_token_len", 3),
        ("--demos", "demos.json", "demonstrations_path", "demos.json"),
        ("--num-demos", "2", "num_demonstrations", 2),
        ("--backend-kind", "http", "backend.kind", "http"),
        ("--endpoint", "http://localhost:1/v1", "backend.endpoint", "http://localhost:1/v1"),
        ("--model", "other-model", "backend.model_name", "other-model"),
        ("--max-tokens", "64", "backend.max_tokens", 64),
        ("--temperature", "0.5", "backend.temperature", 0.5),
        ("--rpm", "120", "backend.requests_per_minute", 120),
        ("--cache", "other.jsonl", "backend.cache_path", "other.jsonl"),
        ("--record", None, "backend.record", True),
        (
            "--mock-rules",
            str(FIXTURES_DIR / "mock_rules.json"),
            "backend.mock_rules",
            BackendConfig(mock_rules=load_mock_rules(FIXTURES_DIR / "mock_rules.json")).mock_rules,
        ),
        ("--mock-default", "['Other']", "backend.mock_default", "['Other']"),
        ("--collapse-method", "pbm", "collapse_method", "pbm"),
        ("--k", "7", "k", 7),
        ("--window", "9", "window", 9),
        ("--representation", "llm", "representation_method", "llm"),
        ("--epsilon", "0.5", "epsilon", 0.5),
        ("--out", "elsewhere", "output_dir", "elsewhere"),
    ],
)
def test_cli_flag_sets_the_key_it_names_over_the_config_file(
    tmp_path, monkeypatch, flag, value, key, expected
):
    monkeypatch.chdir(tmp_path)
    demos = [{"caption": "a cat", "text": "naps", "topics": ["Cats"]}]
    (tmp_path / "demos.json").write_text(json.dumps(demos), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps(FILE_CONFIG), encoding="utf-8")
    argv = ["run", "--config", "run.json", flag] + ([] if value is None else [value])
    cfg = config_from_args(build_parser().parse_args(argv))
    want = RunConfig.from_dict(FILE_CONFIG).to_dict()
    section, _, name = key.rpartition(".")
    (want[section] if section else want)[name] = expected
    assert cfg.to_dict() == want


def test_cli_flag_overrides_an_out_of_range_file_value(tmp_path):
    data = tiny_config(tmp_path).to_dict()
    data["k"] = 0
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--k", "3"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["k"] == 3


def test_a_second_recording_run_pays_nothing_and_writes_the_same_manifest(tmp_path):
    cache, outdir = tmp_path / "cache.jsonl", tmp_path / "run"
    argv = [
        "run",
        "--corpus", str(FIXTURES_DIR / "memes50.jsonl"),
        "--backend-kind", "mock",
        "--mock-rules", str(FIXTURES_DIR / "mock_rules.json"),
        "--cache", str(cache),
        "--record",
        "--collapse-method", "pbm",
        "--representation", "llm",
        "--k", "5",
        "--out", str(outdir),
    ]
    assert main(argv) == 0
    recorded, manifest = cache.read_bytes(), (outdir / "manifest.json").read_bytes()
    assert recorded
    assert main(argv) == 0
    assert cache.read_bytes() == recorded
    assert (outdir / "manifest.json").read_bytes() == manifest


def test_cli_stage_failure_exit_one(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path,
        backend=BackendConfig(
            kind="replay", model_name="m", cache_path=str(tmp_path / "missing.jsonl")
        ),
    )
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 1
    assert "failed" in capsys.readouterr().err


def first_response_as(edit):
    """An edit of a cache file's first response, by its JSON value."""
    return first_line_as(lambda record: {**record, "response": edit(record["response"])})


NOT_A_RECORD = "stage 'generate' failed: cache.jsonl:1: not a cache record ("
# The fixture replay run in a directory holding its inputs; a later flag wins.
INPUTS_RUN = ["run", "--corpus", "memes.jsonl", "--backend-kind", "replay", "--model", "mock-model",
              "--cache", "cache.jsonl", "--collapse-method", "wsm", "--k", "3", "--out", "run"]
# Input files a run cannot read, by case: the flags that name the file, the file, the edit
# of its text to the bytes it holds, and what the error names right after "error: ".
UNREADABLE_INPUTS = {
    "corpus not UTF-8": ([], "memes.jsonl", not_utf8,
                         "stage 'preprocess' failed: memes.jsonl: 'utf-8' codec can't decode"),
    "CSV corpus not UTF-8": (
        ["--corpus", "memes.csv", "--format", "csv"], "memes.csv",
        lambda _: b"id,caption,text\na,\xff,t\n",
        "stage 'preprocess' failed: memes.csv: 'utf-8' codec can't decode",
    ),
    "stopwords not UTF-8": (["--stopwords", "stop.txt"], "stop.txt", lambda _: b"the\n\xff\n",
                            "stage 'preprocess' failed: stop.txt: 'utf-8' codec can't decode"),
    "cache line cut short": (
        [], "cache.jsonl",
        lines_edit(lambda ls: [*ls[:5], ls[5][:40] + "\n", *ls[6:]]),
        "stage 'generate' failed: cache.jsonl:6: not a cache record (",
    ),
    # The first cache line's response no outcome: before, the first ran to exit 0 with a
    # meme labelled, the next four failed naming no file, and the last ran to exit 0.
    "cache response a transport error": (
        [], "cache.jsonl", first_response_as(lambda r: {**r, "status": "transport_error"}),
        NOT_A_RECORD),
    "cache response without status": (
        [], "cache.jsonl", first_response_as(lambda r: {"text": r["text"], "usage": r["usage"]}),
        NOT_A_RECORD),
    "cache response text a number": (
        [], "cache.jsonl", first_response_as(lambda r: {**r, "text": 3}), NOT_A_RECORD),
    "cache response usage null": (
        [], "cache.jsonl", first_response_as(lambda r: {**r, "usage": None}), NOT_A_RECORD),
    "cache response usage not counted": (
        [], "cache.jsonl",
        first_response_as(lambda r: {**r, "usage": {"prompt": "many", "completion": 1}}),
        NOT_A_RECORD),
    "cache response with another key": (
        [], "cache.jsonl", first_response_as(lambda r: {**r, "error": "HTTP 503"}),
        NOT_A_RECORD),
    # The first cache line's hash not 64 lowercase hex digits: before, each loaded under a
    # key no request has, and the replay failed naming the request's hash, not the line.
    "cache hash a number": ([], "cache.jsonl", first_line(hash=5), NOT_A_RECORD),
    "cache hash in upper case": (
        [], "cache.jsonl", first_line_as(lambda r: {**r, "hash": r["hash"].upper()}),
        NOT_A_RECORD),
    "cache hash a digit short": (
        [], "cache.jsonl", first_line_as(lambda r: {**r, "hash": r["hash"][:63]}), NOT_A_RECORD),
}


@pytest.mark.parametrize(
    "flags, file, edit, named",
    [pytest.param(*row, id=case) for case, row in UNREADABLE_INPUTS.items()],
)
def test_a_run_names_an_input_file_it_cannot_read(
    tmp_path, monkeypatch, capsys, flags, file, edit, named
):
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(FIXTURES_DIR / "memes50.jsonl", "memes.jsonl")
    shutil.copyfile(FIXTURES_DIR / "replay_cache.jsonl", "cache.jsonl")
    path = Path(file)
    data = edit(path.read_text(encoding="utf-8") if path.exists() else "")
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    before = path.read_bytes()
    assert main([*INPUTS_RUN, *flags]) == 1
    err = capsys.readouterr().err
    assert f"error: {named}" in err, err
    assert "Traceback" not in err
    assert path.read_bytes() == before


words = st.text(max_size=6)
list_or_tuple = st.sampled_from([list, tuple])


@st.composite
def run_configs(draw):
    """RunConfigs whose list fields are drawn as lists or as tuples."""
    as_seq = draw(list_or_tuple)
    rules = draw(st.lists(st.tuples(words, words), max_size=3))
    backend = BackendConfig(
        kind=draw(st.sampled_from(["mock", "http"])),
        mock_rules=as_seq(draw(list_or_tuple)(rule) for rule in rules),
        refusal_phrases=draw(list_or_tuple)(draw(st.lists(words, max_size=3))),
    )
    return RunConfig(
        corpus_path="memes.jsonl",
        extra_blocklist=as_seq(draw(st.lists(words, max_size=4))),
        k=draw(st.integers(1, 50)),
        collapse_method=draw(st.sampled_from(["pbm", "wsm"])),
        backend=backend,
    )


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs())
def test_a_config_read_back_from_json_equals_the_one_written(cfg):
    hashes = {"corpus": "c", "stopwords": None, "demonstrations": None, "cache": None}
    loaded = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert loaded == cfg
    assert loaded.config_digest(hashes) == cfg.config_digest(hashes)


def test_fixture_rules_file_loads(tmp_path):
    rules = load_mock_rules(FIXTURES_DIR / "mock_rules.json")
    assert any("parliament" == needle for needle, _ in rules)
