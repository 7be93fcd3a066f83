"""Spans and counters recorded around the program's public functions.

install() replaces each public function of the memetopics modules at the
name its caller looks it up by (a module attribute or a class method) with
a wrapper that records a span: id, parent span id, name, start and end.
The first part of a span name is its layer. Hooks read the returned values
for the counters the pipeline does not report, such as merges or
refusals. Spans stay in memory until the run ends and are then written to
a trace file; summarize() turns that file into per-layer metrics.

Nothing here changes what the program computes: every wrapper returns the
wrapped function's result or re-raises its exception unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter[str] = Counter()
        # (span id, query key) of every completion sent over http, to pair
        # each call with the fake server's record of the same request.
        self.http_calls: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count(f"{name}.raised:{type(exc).__name__}")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(tracer, span_id, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "http_calls": self.http_calls}, f
            )


# -- hooks: counters read from what the wrapped function returned -------------


def _on_preprocess(tracer, span_id, args, corpus):
    tracer.count("corpus.tokens", sum(len(doc.tokens) for doc in corpus.documents))


def _on_cooccurrence(tracer, span_id, args, counts):
    tracer.count("evaluation.vocab_words", len(counts.doc_count))


def _on_complete(tracer, span_id, args, outcome):
    gateway, exchange = args
    kind = gateway.cfg.kind
    if kind == "http":
        key = hashlib.sha1(exchange.query.encode("utf-8")).hexdigest()
        with tracer._lock:
            tracer.http_calls.append((span_id, key))
    elif kind == "replay":
        tracer.count("llm.replay_hits")
    if outcome.status == "refused":
        tracer.count("llm.refused")
    elif outcome.status == "transport_error":
        tracer.count("llm.transport_errors")


def _on_generate(tracer, span_id, args, assignments):
    routes = Counter(a.provenance for a in assignments)
    tracer.count("generation.docs", len(assignments))
    tracer.count("generation.miscellaneous", routes["miscellaneous"])
    tracer.count("generation.inappropriate", routes["inappropriate"])


def _on_collapse(tracer, span_id, args, state):
    for _source, target, method in state.merge_log:
        if target == "Miscellaneous":
            tracer.count("collapse.misc_routed_topics")
        else:
            tracer.count("collapse.merges")
        if method == "wsm-zero":
            tracer.count("collapse.zero_similarity_merges")


def _on_represent(tracer, span_id, args, rep):
    tracer.count("representation.fallbacks", int(rep.fallback))
    tracer.count("representation.dropped_words", rep.dropped)
    tracer.count("representation.backfilled_words", rep.backfilled)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the memetopics modules."""
    from memetopics import collapse, corpus, evaluation, generation, llm, pipeline, representation

    targets = [
        (pipeline, "stage_preprocess", "pipeline.preprocess", None),
        (pipeline, "stage_generate", "pipeline.generate", None),
        (pipeline, "stage_collapse", "pipeline.collapse", None),
        (pipeline, "stage_represent", "pipeline.represent", None),
        (pipeline, "stage_evaluate", "pipeline.evaluate", None),
        (corpus, "load_corpus", "corpus.load_corpus", None),
        (corpus, "preprocess", "corpus.preprocess", _on_preprocess),
        (corpus, "save_processed", "corpus.save_processed", None),
        (corpus, "load_processed", "corpus.load_processed", None),
        (evaluation, "cooccurrence_counts", "corpus.cooccurrence", _on_cooccurrence),
        (llm.LlmGateway, "__init__", "llm.gateway", None),
        (llm.LlmGateway, "complete", "llm.complete", _on_complete),
        (llm.RateLimiter, "acquire", "llm.limiter_wait", None),
        (pipeline, "generate_topics", "generation.topics", _on_generate),
        (generation, "parse_topic_list", "generation.parse", None),
        (collapse, "parse_topic_list", "generation.parse", None),
        (representation, "parse_topic_list", "generation.parse", None),
        (pipeline, "ctfidf_from_clusters", "ctfidf.build", None),
        (collapse, "ctfidf_from_clusters", "ctfidf.build", None),
        (collapse, "top_words", "ctfidf.top_words", None),
        (representation, "top_words", "ctfidf.top_words", None),
        (pipeline, "collapse_pbm", "collapse.run", _on_collapse),
        (pipeline, "collapse_wsm", "collapse.run", _on_collapse),
        (pipeline, "represent_llm", "representation.represent", _on_represent),
        (pipeline, "represent_ctfidf", "representation.represent", _on_represent),
        (pipeline, "coherence", "evaluation.coherence", None),
    ]
    for owner, attr, name, hook in targets:
        setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, hook))


# -- summary: per-layer metrics from a trace file and the server log ----------

LAYERS = ("corpus", "llm", "generation", "ctfidf", "collapse", "representation", "evaluation")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def _max_overlap(intervals: list[tuple[float, float]]) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    best = level = 0
    for _, step in events:
        level += step
        best = max(best, level)
    return best


def summarize(trace: dict, server_records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Self time of a span is its duration minus the durations of the spans
    directly beneath it; a layer's self time sums its spans' self times.
    pipeline.io_s is the pipeline layer's self time (artifact and manifest
    I/O around the layer calls) and trace.unattributed_s the root span's.
    """
    spans = [tuple(s) for s in trace["spans"]]
    counters = Counter(trace["counters"])
    child_time: dict[int, float] = defaultdict(float)
    by_id = {}
    for span_id, parent, name, start, end in spans:
        child_time[parent] += end - start
        by_id[span_id] = (parent, name)

    total: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    complete: dict[int, tuple[float, float]] = {}
    under: Counter[str] = Counter()
    for span_id, parent, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".")[0]] += end - start - child_time[span_id]
        if name == "llm.complete":
            complete[span_id] = (start, end)
            ancestor = parent
            while ancestor:
                parent_of, ancestor_name = by_id[ancestor]
                if ancestor_name in ("collapse.run", "representation.represent"):
                    under[ancestor_name.split(".")[0]] += 1
                    break
                ancestor = parent_of

    # Pair each http completion with the server's record of its request.
    service = defaultdict(list)
    for record in server_records:
        service[record["key"]].append(record["service_s"])
    complete_ms = {span_id: (end - start) * 1000 for span_id, (start, end) in complete.items()}
    overhead = []
    paired = set()
    for span_id, key in trace["http_calls"]:
        if service[key]:
            overhead.append(complete_ms[span_id] - service[key].pop(0) * 1000)
            paired.add(span_id)
    overhead += [ms for span_id, ms in complete_ms.items() if span_id not in paired]

    m = {
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.preprocess_s": total["corpus.preprocess"],
        "corpus.save_processed_s": total["corpus.save_processed"],
        "corpus.load_processed_s": total["corpus.load_processed"],
        "corpus.load_processed_calls": calls["corpus.load_processed"],
        "corpus.cooccurrence_s": total["corpus.cooccurrence"],
        "corpus.tokens": counters["corpus.tokens"],
        "llm.complete_calls": calls["llm.complete"],
        "llm.complete_s": total["llm.complete"],
        "llm.complete_p50_ms": _percentile(list(complete_ms.values()), 0.50),
        "llm.complete_p99_ms": _percentile(list(complete_ms.values()), 0.99),
        "llm.server_s": sum(r["service_s"] for r in server_records),
        "llm.client_overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "llm.limiter_wait_s": total["llm.limiter_wait"],
        "llm.attempts": len(server_records),
        "llm.retries": max(0, len(server_records) - len(trace["http_calls"])),
        "llm.refused": counters["llm.refused"],
        "llm.transport_errors": counters["llm.transport_errors"],
        "llm.replay_hits": counters["llm.replay_hits"],
        "llm.replay_misses": counters["llm.complete.raised:ReplayMissError"],
        "llm.gateways": calls["llm.gateway"],
        "llm.max_inflight": _max_overlap(list(complete.values())),
        "llm.billed_tokens": sum(r["prompt_tokens"] + r["completion_tokens"]
                                 for r in server_records),
        "generation.topics_s": total["generation.topics"],
        "generation.docs": counters["generation.docs"],
        "generation.miscellaneous": counters["generation.miscellaneous"],
        "generation.inappropriate": counters["generation.inappropriate"],
        "generation.parse_calls": calls["generation.parse"],
        "ctfidf.build_calls": calls["ctfidf.build"],
        "ctfidf.build_s": total["ctfidf.build"],
        "ctfidf.top_words_calls": calls["ctfidf.top_words"],
        "ctfidf.top_words_s": total["ctfidf.top_words"],
        "collapse.s": total["collapse.run"],
        "collapse.runs": calls["collapse.run"],
        "collapse.merges": counters["collapse.merges"],
        "collapse.misc_routed_topics": counters["collapse.misc_routed_topics"],
        "collapse.zero_similarity_merges": counters["collapse.zero_similarity_merges"],
        "collapse.llm_calls": under["collapse"],
        "representation.s": total["representation.represent"],
        "representation.llm_calls": under["representation"],
        "representation.fallbacks": counters["representation.fallbacks"],
        "representation.dropped_words": counters["representation.dropped_words"],
        "representation.backfilled_words": counters["representation.backfilled_words"],
        "evaluation.coherence_s": total["evaluation.coherence"],
        "evaluation.vocab_words": counters["evaluation.vocab_words"],
        "pipeline.io_s": layer_self["pipeline"],
        "trace.unattributed_s": layer_self["run"],
    }
    for stage in ("preprocess", "generate", "collapse", "represent", "evaluate"):
        m[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
