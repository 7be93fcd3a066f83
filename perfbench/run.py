"""Pipeline benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wsm-replay --seed 1 --seconds 55 --trace 0

Each workload's inputs are generated from --seed (workloads.py). The
benchmark then runs the program's public entry point (run_pipeline or
sweep) again and again, each time in a fresh interpreter (child.py), until
--seconds have passed, and checks every run's outputs (checks.py). LLM
stages that go over http talk to fake_server.py, started here in its own
process.

With --trace 0 it prints the end-to-end metrics, each the median over the
runs. With --trace 1 it alternates untraced runs with runs traced by
layertrace.py and prints the per-layer metrics, the median over the traced
runs, plus the tracing overhead. Human-readable lines come first; the last
line of standard output is one JSON object:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

where attempted counts documents over all runs and failed those whose
outcome a check rejected (every document of a run that raised or whose
artifacts differ from the first run's).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
# At least this many runs per invocation, however short --seconds is:
# untraced runs, or untraced + traced runs with --trace 1.
MIN_RUNS = {False: 3, True: 4}
LOCALHOST = "127.0.0.1,localhost"


@dataclass(frozen=True)
class Plan:
    """How the program is run on a workload."""

    call: str  # run | sweep
    k_values: dict[str, list[int]]  # per size
    collapse: str
    representation: str
    backend: str  # replay | http | mock
    latency_ms: float = 0.0
    # Layers whose time the workload is built to be dominated by.
    focus: tuple[str, ...] = ()


PLANS = {
    "wsm-replay": Plan("run", {"full": [20], "smoke": [5]}, "wsm", "ctfidf", "replay",
                       focus=("collapse.self_s", "ctfidf.self_s")),
    "pbm-live-sweep": Plan("sweep", {"full": [10, 20, 40], "smoke": [4, 8]}, "pbm", "llm",
                           "http", latency_ms=10.0, focus=("llm.complete_s",)),
    "bulk-mock": Plan("run", {"full": [20], "smoke": [5]}, "pbm", "llm", "mock",
                      focus=("corpus.self_s", "generation.self_s", "evaluation.self_s",
                             "pipeline.io_s")),
}

END_TO_END = {
    "run_s": "s",
    "docs_per_s": "docs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "mean_npmi": "score",
    "diversity": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("share"):
        return "ratio"
    return "count"


class FakeServer:
    """The fake chat-completions server, as a child process."""

    def __init__(self, script: Path, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fake_server.py"), "--script", str(script),
             "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            port = int(self.proc.stdout.readline())
        except ValueError:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError("fake server did not start") from None
        self.base = f"http://127.0.0.1:{port}"
        self.endpoint = f"{self.base}/v1/chat/completions"

    def log(self) -> list[dict]:
        with urllib.request.urlopen(f"{self.base}/log", timeout=30) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                request = urllib.request.Request(f"{self.base}/shutdown", data=b"", method="POST")
                urllib.request.urlopen(request, timeout=5).close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Run:
    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    requests: int
    tokens: int
    failed: int
    digest: str
    traced: bool
    mean_npmi: float = 0.0
    diversity: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, size: str):
        self.name = workload
        self.plan = PLANS[workload]
        self.k_values = self.plan.k_values[size]
        self.seed = seed
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.server: FakeServer | None = None
        # The program's http transport honours proxy variables; the fake
        # server is local.
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = LOCALHOST
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = workloads.write(workload, seed, self.dir / "inputs", size)
        with open(self.inputs["expected"], encoding="utf-8") as f:
            self.expected = json.load(f)["provenance"]
        self.docs = len(self.expected)
        self.first_digest: str | None = None

    def __enter__(self) -> "Bench":
        try:
            self._set_up()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation still works there
            pass

    def _config(self, backend: dict) -> dict:
        return {
            "corpus_path": "inputs/corpus.jsonl",
            "backend": {"model_name": "fake-model", "requests_per_minute": 1_000_000,
                        "api_key_env": "PERFBENCH_NO_KEY", **backend},
            "collapse_method": self.plan.collapse,
            "representation_method": self.plan.representation,
            "k": self.k_values[0],
            "output_dir": "out",
        }

    def _set_up(self) -> None:
        compileall.compile_dir(str(SRC / "memetopics"), quiet=1)
        plan = self.plan
        if plan.backend in ("http", "replay"):
            self.server = FakeServer(self.inputs["server_script"], plan.latency_ms)
        if plan.backend == "http":
            backend = {"kind": "http", "endpoint": self.server.endpoint,
                       "cache_path": "cache.jsonl", "record": True}
        elif plan.backend == "replay":
            backend = {"kind": "replay", "cache_path": "inputs/cache.jsonl"}
            self._record_cache()
            self.server.close()
            self.server = None
        else:
            backend = {"kind": "mock", "mock_rules_path": "inputs/rules.json",
                       "mock_default": "[]"}
        with open(self.dir / "run.json", "w", encoding="utf-8") as f:
            json.dump(self._config(backend), f, indent=1)

    def _record_cache(self) -> None:
        """Record the replay cache through the program's own http path."""
        from memetopics import RunConfig, generate_topics, load_corpus

        data = self._config({"kind": "http", "endpoint": self.server.endpoint, "record": True,
                             "cache_path": str(self.dir / "inputs" / "cache.jsonl")})
        data["corpus_path"] = str(self.inputs["corpus"])
        cfg = RunConfig.from_dict(data)
        generate_topics(load_corpus(cfg.corpus_path), cfg.demonstrations(), cfg.backend)

    def run_once(self, traced: bool, index: int = 0) -> Run:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        (self.dir / "cache.jsonl").unlink(missing_ok=True)
        for name in ("result.json", "trace.json"):
            (self.dir / name).unlink(missing_ok=True)
        logged = len(self.server.log()) if self.server else 0

        cmd = [sys.executable, str(BENCH / "child.py"), "--config", "run.json",
               "--call", self.plan.call, "--k-values", ",".join(map(str, self.k_values)),
               "--result", "result.json", "--src", str(SRC)]
        if traced:
            cmd += ["--trace-file", "trace.json"]
        # The hash seed changes set and dict layouts, hence the speed of a run
        # (not its outputs); the n-th run of every invocation gets the same one.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(index))
        with open(self.dir / "child.log", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=self.dir, env=env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)

        records = self.server.log()[logged:] if self.server else []
        try:
            with open(self.dir / "result.json", encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = {"setup_s": 0.0, "run_s": 0.0, "cpu_s": 0.0, "error": "no result"}
        run = Run(
            setup_s=result["setup_s"], run_s=result["run_s"], cpu_s=result["cpu_s"],
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            requests=len(records),
            tokens=sum(r["prompt_tokens"] + r["completion_tokens"] for r in records),
            failed=self.docs, digest="", traced=traced,
        )
        if result["error"] or proc.returncode != 0:
            tail = (self.dir / "child.log").read_text(encoding="utf-8")[-2000:]
            print(f"[{self.name}] run raised: {result['error']}\n{tail}", file=sys.stderr)
            return run

        sweep = self.plan.call == "sweep"
        try:
            failed, problems = checks.check_run(out, self.expected, self.k_values, sweep)
            run.mean_npmi, run.diversity = checks.quality(out, sweep)
        except (OSError, KeyError, ValueError) as exc:
            failed, problems = set(self.expected), [f"unreadable outputs: {exc!r}"]
        run.digest = checks.outputs_digest(out)
        if self.first_digest is None:
            self.first_digest = run.digest
        elif run.digest != self.first_digest:
            failed, problems = set(self.expected), problems + ["outputs differ from the first run"]
        run.failed = len(failed)
        for problem in problems[:5]:
            print(f"[{self.name}] check failed: {problem}", file=sys.stderr)

        if traced:
            with open(self.dir / "trace.json", encoding="utf-8") as f:
                run.layers = layertrace.summarize(json.load(f), records)
            cache = self.dir / "cache.jsonl"
            run.layers["llm.cache_bytes_written"] = cache.stat().st_size if cache.exists() else 0
            run.layers["pipeline.bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file()
            )
        return run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool) -> list[Run]:
    """Run until --seconds have passed. A run that would end more than half
    a run past the deadline is not started, so every invocation measures
    close to --seconds, whatever the length of one run."""
    runs: list[Run] = []
    deadline = time.monotonic() + seconds
    lengths: list[float] = []
    while True:
        started = time.monotonic()
        runs.append(bench.run_once(traced=trace and len(runs) % 2 == 1, index=len(runs)))
        lengths.append(time.monotonic() - started)
        left = deadline - time.monotonic()
        if len(runs) >= MIN_RUNS[trace] and left < statistics.median(lengths) / 2:
            return runs


def summarize(bench: Bench, runs: list[Run], trace: bool) -> tuple[dict, dict]:
    """(metrics for the JSON line, metrics only printed), each name -> (value, unit)."""
    plain = [r for r in runs if not r.traced]
    run_s = _median([r.run_s for r in plain])
    failed = sum(r.failed for r in runs)
    # Printed only, never in the JSON: zero by construction on some workloads
    # (llm_requests, llm_tokens) or on correct code (failed_share).
    printed = {
        "llm_requests": (_median([r.requests for r in plain]), "count"),
        "llm_tokens": (_median([r.tokens for r in plain]), "count"),
        "failed_share": (failed / (bench.docs * len(runs)), "ratio"),
    }
    if not trace:
        values = {
            "run_s": run_s,
            "docs_per_s": _median([bench.docs / r.run_s for r in plain if r.run_s]),
            "cpu_s": _median([r.cpu_s for r in plain]),
            "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
            "setup_s": _median([r.setup_s for r in plain]),
            "mean_npmi": _median([r.mean_npmi for r in plain]),
            "diversity": _median([r.diversity for r in plain]),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}, printed

    traced = [r for r in runs if r.layers]
    if not traced:
        return {}, printed
    layers = {name: _median([r.layers[name] for r in traced]) for name in traced[0].layers}
    traced_run_s = _median([r.run_s for r in traced])
    layers["trace.overhead_share"] = traced_run_s / run_s - 1 if run_s else 0.0
    focus = sum(layers[name] for name in bench.plan.focus)
    layers["trace.focus_share"] = focus / traced_run_s if traced_run_s else 0.0
    printed["trace.traced_run_s"] = (traced_run_s, "s")
    printed["trace.untraced_run_s"] = (run_s, "s")
    return {name: (value, layer_unit(name)) for name, value in sorted(layers.items())}, printed


def report(bench: Bench, runs: list[Run], trace: bool) -> dict:
    metrics, printed = summarize(bench, runs, trace)
    plain = [r for r in runs if not r.traced]
    attempted = bench.docs * len(runs)
    failed = sum(r.failed for r in runs)
    print(f"== {bench.name} seed={bench.seed} docs={bench.docs} K={bench.k_values} "
          f"runs={len(plain)} untraced + {len(runs) - len(plain)} traced; "
          f"values are medians over those runs")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"  output check: {verdict} ({failed} of {attempted} documents failed; "
          f"artifacts byte-identical across runs: {len({r.digest for r in runs}) == 1})")
    if "trace.focus_share" in metrics:
        share = metrics["trace.focus_share"][0]
        print(f"  layer split: {'+'.join(bench.plan.focus)} = {share:.1%} of traced run_s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="memetopics pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*PLANS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "memetopics" / "__init__.py").is_file():
        print(f"no memetopics sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(PLANS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        with Bench(name, args.seed, args.size) as bench:
            runs = measure(bench, args.seconds, bool(args.trace))
            results.append(report(bench, runs, bool(args.trace)))
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
