"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS|FAIL` line so the
suite reads as a checklist under `pytest -s tests/test_acceptance.py`.
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from memetopics.collapse import CollapseState, collapse_pbm, collapse_wsm
from memetopics.ctfidf import idf
from memetopics.evaluation import coherence, diversity, npmi_pair
from memetopics.generation import TopicAssignment, generate_topics, DemonstrationSet
from memetopics.llm import BackendConfig, LlmGateway, load_mock_rules
from memetopics.pipeline import RunConfig, run_pipeline
from memetopics.representation import TopicRepresentation

from conftest import FIXTURES_DIR, corpus_from_tokens, mock_backend, run_digest, write_jsonl

from test_evaluation import brute_force_coherence
from topic_helpers import build_ctfidf, direct_weights, topic_similarity


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def fixture_replay_config(outdir, collapse="pbm", representation="llm", **kwargs):
    backend = BackendConfig(
        kind="replay",
        model_name="mock-model",
        cache_path=str(FIXTURES_DIR / "replay_cache.jsonl"),
    )
    defaults = dict(
        corpus_path=str(FIXTURES_DIR / "memes50.jsonl"),
        backend=backend,
        collapse_method=collapse,
        representation_method=representation,
        k=5,
        output_dir=str(outdir),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_class_weighting_matches_brute_force():
    """10 randomized small corpora, 1e-12 relative agreement, under 1 s."""
    with criterion("class-weighting oracle"):
        rng = random.Random(20240501)
        start = time.perf_counter()
        for trial in range(10):
            vocab = [f"w{i}" for i in range(rng.randint(3, 30))]
            num_classes = rng.randint(1, 5)
            docs, assignments = [], []
            doc_n = 0
            for c in range(num_classes):
                for _ in range(rng.randint(1, 4)):
                    doc_id = f"d{doc_n}"
                    doc_n += 1
                    docs.append((doc_id, [rng.choice(vocab) for _ in range(rng.randint(1, 12))]))
                    assignments.append(TopicAssignment(doc_id, (f"class{c}",), "generated"))
            corpus = corpus_from_tokens(docs)
            table = build_ctfidf(assignments, corpus)
            clusters = {f"class{c}": {a.doc_id for a in assignments if a.topics == (f"class{c}",)}
                        for c in range(num_classes)}
            expected = direct_weights(clusters, corpus)
            for cls, words in expected.items():
                for word, value in words.items():
                    got = table.class_tf[cls][word] * idf(table.df[word], table.num_classes)
                    assert math.isclose(got, value, rel_tol=1e-12), (trial, cls, word)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_set_overlap_similarity_properties():
    """Symmetry, bounds, the three pinned values, 1000 random pairs, under 1 s."""
    with criterion("set-overlap similarity properties"):
        start = time.perf_counter()
        twenty = [f"w{i}" for i in range(20)]

        assert topic_similarity(twenty, twenty) == 1.0
        assert topic_similarity(twenty, [f"x{i}" for i in range(20)]) == 0.0
        ten = twenty[:5] + [f"y{i}" for i in range(5)]  # 10 words, 5 shared with twenty
        assert topic_similarity(twenty, ten) == 0.5

        rng = random.Random(77)
        pool = [f"p{i}" for i in range(40)]
        for _ in range(1000):
            a = rng.sample(pool, rng.randint(1, 20))
            b = rng.sample(pool, rng.randint(1, 20))
            sim_ab, sim_ba = topic_similarity(a, b), topic_similarity(b, a)
            assert sim_ab == sim_ba
            assert 0.0 <= sim_ab <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_npmi_coherence_matches_brute_force():
    """20 random corpora, 1e-9 absolute agreement, values in [-1, 1], under 5 s."""
    with criterion("npmi coherence oracle"):
        rng = random.Random(99)
        start = time.perf_counter()
        for _ in range(20):
            vocab = [f"w{i}" for i in range(rng.randint(5, 100))]
            docs = [
                (f"d{i}", [rng.choice(vocab) for _ in range(rng.randint(1, 15))])
                for i in range(rng.randint(3, 50))
            ]
            corpus = corpus_from_tokens(docs)
            reps = [
                TopicRepresentation(
                    topic=f"t{t}",
                    words=rng.sample(vocab, min(len(vocab), rng.randint(2, 10))),
                    method="ctfidf",
                )
                for t in range(rng.randint(1, 4))
            ]
            report = coherence(reps, corpus)
            per_topic, mean = brute_force_coherence(reps, corpus, 1e-6)
            assert abs(report.mean_npmi - mean) < 1e-9
            for topic, value in per_topic.items():
                assert abs(report.per_topic[topic] - value) < 1e-9
                assert -1.0 <= report.per_topic[topic] <= 1.0
            for w1 in reps[0].words[:3]:
                for w2 in reps[0].words[:3]:
                    assert -1.0 <= npmi_pair(w1, w2, corpus) <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_diversity_values_and_invariance():
    """Exact pinned values and permutation invariance over 100 shuffles, under 1 s."""
    with criterion("diversity exact values"):
        start = time.perf_counter()
        disjoint = [
            TopicRepresentation(f"t{t}", [f"w{t}_{i}" for i in range(10)], "ctfidf")
            for t in range(5)
        ]
        assert diversity(disjoint) == 1.0

        words = [f"w{i}" for i in range(10)]
        identical = [TopicRepresentation(f"t{t}", list(words), "ctfidf") for t in range(5)]
        assert diversity(identical) == 0.2  # 10 unique words over 50 listed

        rng = random.Random(123)
        pool = [f"p{i}" for i in range(40)]
        reps = [TopicRepresentation(f"t{t}", rng.sample(pool, 10), "ctfidf") for t in range(4)]
        baseline = diversity(reps)
        for _ in range(100):
            shuffled = [
                TopicRepresentation(r.topic, rng.sample(r.words, 10), "ctfidf") for r in reps
            ]
            rng.shuffle(shuffled)
            assert diversity(shuffled) == baseline
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _multiset(state):
    counts = Counter()
    for ids in state.clusters().values():
        counts.update(ids)
    return counts


def _pbm_scenario(n):
    """n topics: a dominant hub, one unmergeable stray, n-2 fillers."""
    topics = {"hub": {f"hub{j}" for j in range(50)}, "zzz": {"stray0"}}
    for i in range(n - 2):
        topics[f"t{i:02d}"] = {f"t{i}d{j}" for j in range(1 + i % 3)}
    state = CollapseState(topics=topics, misc={"pregen0"})
    cfg = mock_backend(
        rules=[("current topic : zzz", "['banana']")], default="['hub']"
    )
    return state, cfg


def _wsm_scenario(rng, n):
    """Families of five topics share a vocabulary; cross-family overlap is zero."""
    docs, topics = [], {}
    doc_n = 0
    for i in range(n):
        label = f"t{i:02d}"
        family = i // 5
        words = [f"fam{family}w{j}" for j in range(4)]
        topics[label] = set()
        for _ in range(1 + i % 2):
            doc_id = f"d{doc_n}"
            doc_n += 1
            docs.append((doc_id, [rng.choice(words) for _ in range(5)]))
            topics[label].add(doc_id)
    return CollapseState(topics=topics), corpus_from_tokens(docs)


def test_collapse_terminates_and_conserves():
    """Both algorithms, n in {10,25,60} down to K in {3,5,10}, under 10 s."""
    with criterion("collapse termination and conservation"):
        start = time.perf_counter()
        rng = random.Random(55)
        for n, k in [(10, 3), (25, 5), (60, 10)]:
            state, cfg = _pbm_scenario(n)
            before = _multiset(state)
            result = collapse_pbm(state, k, LlmGateway(cfg))
            assert len(result.topics) == k
            misc_routings = sum(
                1 for _, target, _ in result.merge_log if target == "Miscellaneous"
            )
            merges = len(result.merge_log) - misc_routings
            assert merges == (n - k) - misc_routings
            assert misc_routings == 1  # the scripted stray
            assert _multiset(result) == before

            state, corpus = _wsm_scenario(rng, n)
            before = _multiset(state)
            result = collapse_wsm(state, k, corpus)
            assert len(result.topics) == k
            assert len(result.merge_log) == n - k
            assert _multiset(result) == before
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_pbm_routing_outcomes():
    """In-list, out-of-list, and refusal replies: merge, Misc, Misc; 5 repeats."""
    with criterion("prompt-collapse routing"):
        def run_once():
            state = CollapseState(
                topics={
                    "Big": {f"b{j}" for j in range(6)},
                    "mergeme": {"m1"},
                    "oddball": {"o1", "o2"},
                    "refused": {"r1", "r2", "r3"},
                }
            )
            cfg = mock_backend(
                rules=[
                    ("current topic : mergeme", "['Big']"),
                    ("current topic : oddball", "['Unlisted Topic']"),
                    ("current topic : refused", "I cannot pick a topic for this."),
                ],
                default="['Big']",
            )
            return collapse_pbm(state, 1, LlmGateway(cfg))

        first = run_once()
        log = {source: target for source, target, _ in first.merge_log}
        assert log["mergeme"] == "Big"
        assert log["oddball"] == "Miscellaneous"
        assert log["refused"] == "Miscellaneous"
        assert first.misc == {"o1", "o2", "r1", "r2", "r3"}
        for _ in range(4):
            repeat = run_once()
            assert repeat.merge_log == first.merge_log
            assert repeat.topics == first.topics


def test_generation_routing_counts(tmp_path):
    """20 docs: 2 refusals, 3 prose replies; 15/3/2 routing, nothing lost."""
    with criterion("generation failure routing"):
        records = [
            {"id": f"m{i:02d}", "caption": f"scene {i}", "text": f"marker{i:02d} text"}
            for i in range(20)
        ]
        path = write_jsonl(tmp_path / "memes20.jsonl", records)
        from memetopics.corpus import load_corpus

        corpus = load_corpus(path)
        rules = [
            ("marker00", "I cannot describe this meme."),
            ("marker07", "I cannot describe this meme."),
            ("marker03", "plain prose, no list"),
            ("marker11", "plain prose, no list"),
            ("marker19", "plain prose, no list"),
        ]
        cfg = mock_backend(rules=rules, default="['Everyday Life']")
        assignments = generate_topics(corpus, DemonstrationSet.default(), cfg)
        counts = Counter(a.provenance for a in assignments)
        assert counts["generated"] == 15
        assert counts["miscellaneous"] == 3
        assert counts["inappropriate"] == 2
        assert sum(counts.values()) == 20


def test_end_to_end_replay_byte_identical(tmp_path):
    """Bundled 50-doc fixture replays to byte-identical reports, under 30 s."""
    with criterion("end-to-end replay determinism"):
        start = time.perf_counter()
        cfg_a = fixture_replay_config(tmp_path / "run_a")
        cfg_b = fixture_replay_config(tmp_path / "run_b")
        out_a = run_pipeline(cfg_a)
        out_b = run_pipeline(cfg_b)
        report_a = (out_a / "report.json").read_bytes()
        report_b = (out_b / "report.json").read_bytes()
        assert report_a == report_b
        assert run_digest(cfg_a) == run_digest(cfg_b)
        assert json.loads(report_a)["config_digest"] == run_digest(cfg_a)

        # The other variant replays from the same cache.
        out_c = run_pipeline(
            fixture_replay_config(tmp_path / "run_c", collapse="wsm", representation="ctfidf")
        )
        assert (out_c / "report.json").exists()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_demonstration_count_stability(tmp_path):
    """n in {2,4,6,8} demos: token counts move, NPMI spread stays within 0.05."""
    with criterion("demonstration-count stability"):
        backend = BackendConfig(
            kind="mock",
            model_name="mock-model",
            mock_rules=load_mock_rules(FIXTURES_DIR / "mock_rules.json"),
            mock_default="[]",
        )
        token_totals, npmi_values = [], []
        for n in (2, 4, 6, 8):
            cfg = RunConfig(
                corpus_path=str(FIXTURES_DIR / "memes50.jsonl"),
                backend=backend,
                collapse_method="wsm",
                representation_method="ctfidf",
                k=5,
                num_demonstrations=n,
                output_dir=str(tmp_path / f"demos_{n}"),
            )
            outdir = run_pipeline(cfg)
            manifest = json.loads((outdir / "manifest.json").read_text())
            token_totals.append(manifest["token_usage"]["generate"]["prompt"])
            npmi_values.append(manifest["metrics"]["mean_npmi"])
        assert token_totals == sorted(token_totals)
        assert len(set(token_totals)) == 4  # more demonstrations, more prompt tokens
        assert max(npmi_values) - min(npmi_values) <= 0.05


def test_misc_fraction_guard(tmp_path):
    """Collapse routes at most 2% of the fixture corpus to Miscellaneous."""
    with criterion("miscellaneous-fraction guard"):
        outdir = run_pipeline(fixture_replay_config(tmp_path / "run"))
        manifest = json.loads((outdir / "manifest.json").read_text())
        routed = manifest["collapse_summary"]["misc_routed_docs"]
        total = manifest["failure_counts"]["generated"] + manifest["failure_counts"][
            "miscellaneous"
        ] + manifest["failure_counts"]["inappropriate"]
        assert total == 50
        assert routed / total <= 0.02
