"""A request that gets no answer fails its stage, and nothing is recorded
for it: a run either finishes on the model's answers, so its cache replays
it, or fails naming the stage, and a re-run over its cache pays only for
the requests it still lacks."""

import dataclasses
import json
import tempfile
import zlib
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from memetopics import llm as llm_mod
from memetopics.cli import main
from memetopics.collapse import COLLAPSE_SYSTEM
from memetopics.generation import GENERATION_SYSTEM
from memetopics.llm import BackendConfig, LlmGateway, TransportError, _read_cache
from memetopics.pipeline import PipelineStageError, RunConfig, run_pipeline
from memetopics.representation import WORDRANK_SYSTEM

from conftest import FIXTURES_DIR, RuleServer, chat_body

# The fixture pbm run, which prompts in generate, collapse and represent.
FIXTURE_RUN = {
    "corpus_path": str(FIXTURES_DIR / "memes50.jsonl"),
    "collapse_method": "pbm",
    "representation_method": "llm",
    "k": 5,
}
POLICY_BODY = {"error": {"code": "content_policy_violation", "message": "blocked"}}


def artifacts(outdir: Path) -> dict:
    """Every file a run wrote but its manifest, with report.json read
    without its config_digest, which digests the backend kind."""
    files = {path.name: path.read_bytes() for path in outdir.iterdir()}
    del files["manifest.json"]
    report = json.loads(files.pop("report.json"))
    del report["config_digest"]
    return {**files, "report.json": report}


def run_cli(tmp_path: Path, name: str, backend: dict) -> int:
    """`memetopics run` of the fixture pbm run over backend, in tmp_path / name."""
    config = tmp_path / f"{name}.json"
    data = {**FIXTURE_RUN, "backend": backend, "output_dir": str(tmp_path / name)}
    config.write_text(json.dumps(data), encoding="utf-8")
    return main(["run", "--config", str(config)])


def test_a_request_without_an_answer_fails_generate_and_a_rerun_pays_only_for_misses(
    tmp_path, monkeypatch, capsys
):
    # With max_retries 0 the 7th request's 503 is its last attempt.
    server = RuleServer(lambda number, exchange, attempt: (503, "busy") if number == 7 else None)
    monkeypatch.setattr(llm_mod, "_urllib_transport", server)
    cache = tmp_path / "cache.jsonl"
    live = {"kind": "http", "model_name": "mock-model", "requests_per_minute": 1_000_000,
            "max_retries": 0, "cache_path": str(cache), "record": True}

    assert run_cli(tmp_path, "live", live) == 1
    err = capsys.readouterr().err
    assert "stage 'generate' failed: no answer after 1 attempt(s), the last: HTTP 503" in err
    manifest = json.loads((tmp_path / "live" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["failed_stage"], manifest["stages_completed"]) == ("generate", ["preprocess"])
    assert not (tmp_path / "live" / "assignments.jsonl").exists()
    # Every answer that came back is kept, those of calls in flight too.
    unanswered = server.hashes[6]
    kept = set(_read_cache(str(cache), record=False).index)
    assert kept == set(server.hashes) - {unanswered}

    server.fault = None
    sent_before = len(server.hashes)
    assert run_cli(tmp_path, "live", live) == 0
    resent = server.hashes[sent_before:]
    assert unanswered in resent
    assert len(resent) == len(set(resent)) and not kept & set(resent)
    assert len(cache.read_text(encoding="utf-8").splitlines()) == len(kept) + len(resent)

    replay = {"kind": "replay", "model_name": "mock-model", "cache_path": str(cache)}
    assert run_cli(tmp_path, "replay", replay) == 0
    assert artifacts(tmp_path / "replay") == artifacts(tmp_path / "live")


# What a scripted request gets instead of the rule table's answer. A 503 and
# a raised OSError come on its first attempt only, so max_retries decides
# whether the request is answered.
FAULTS = {
    "empty": lambda: (200, chat_body("", 5, 0)),
    "refusal": lambda: (200, chat_body("I cannot help with that.", 5, 5)),
    "policy": lambda: (400, POLICY_BODY),
    "503": lambda: (503, "busy"),
    "401": lambda: (401, {"error": {"message": "invalid api key"}}),
    "malformed": lambda: (200, {"choices": []}),
    "oserror": lambda: OSError("connection reset"),
}
FIRST_ATTEMPT_ONLY = ("503", "oserror")
# A fault is drawn for a stage's system message and a slot: it comes to each
# request of that stage whose query's CRC-32 is the slot modulo SLOTS. The
# run sends 50 generation prompts and a few collapse and word-rank prompts,
# so a fault drawn for any stage often comes to some request.
SYSTEMS = (GENERATION_SYSTEM, COLLAPSE_SYSTEM, WORDRANK_SYSTEM)
SLOTS = 4


@settings(max_examples=50, deadline=None)
@given(
    faults=st.dictionaries(st.tuples(st.sampled_from(SYSTEMS), st.integers(0, SLOTS - 1)),
                           st.sampled_from(sorted(FAULTS)), max_size=3),
    max_retries=st.integers(0, 1),
)
def test_a_run_that_finishes_replays_from_its_cache_and_one_that_fails_names_its_stage(
    faults, max_retries
):
    def fault(number, exchange, attempt):
        kind = faults.get((exchange.prefix.system, zlib.crc32(exchange.query.encode()) % SLOTS))
        if kind is None or kind in FIRST_ATTEMPT_ONLY and attempt > 1:
            return None
        return FAULTS[kind]()

    server = RuleServer(fault)
    init = LlmGateway.__init__

    def scripted_init(self, cfg):
        init(self, cfg, transport=server, sleep=lambda seconds: None)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(LlmGateway, "__init__", scripted_init):
        root, cache = Path(tmp), str(Path(tmp) / "cache.jsonl")
        backend = BackendConfig(kind="http", model_name="mock-model", max_retries=max_retries,
                                requests_per_minute=1_000_000, cache_path=cache, record=True)
        cfg = RunConfig(**FIXTURE_RUN, backend=backend, output_dir=str(root / "live"))
        try:
            run_pipeline(cfg)
        except PipelineStageError as exc:
            assert isinstance(exc.cause, TransportError)
            manifest = json.loads((root / "live" / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["failed_stage"] == exc.stage
            loaded = _read_cache(cache, record=False)
            assert loaded.error is None
            assert {outcome.status for outcome in loaded.index.values()} <= {"ok", "refused"}
        else:
            replay = BackendConfig(kind="replay", model_name="mock-model", cache_path=cache)
            run_pipeline(dataclasses.replace(cfg, backend=replay, output_dir=str(root / "replay")))
            assert artifacts(root / "replay") == artifacts(root / "live")
