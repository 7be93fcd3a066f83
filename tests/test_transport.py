"""The urllib transport against a local http server, and which runs load the
http stack at all.

The server is a stdlib ThreadingHTTPServer on 127.0.0.1, so no network is
needed; NO_PROXY keeps urllib from routing the requests through a proxy
named in the environment.
"""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from memetopics.cli import main
from memetopics.llm import MAX_IN_FLIGHT, BackendConfig, ChatExchange, LlmGateway, PromptPrefix
from memetopics.llm import TokenUsage
from memetopics.llm import TransportError

from conftest import FIXTURES_DIR, chat_body

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# The modules a run that sends nothing must never load.
NETWORK_MODULES = ("urllib.request", "http.client", "ssl", "concurrent.futures")

NO_PROXY = "127.0.0.1,localhost"


class ChatHandler(BaseHTTPRequestHandler):
    """Answers each POST with server.respond(payload) -> (status, body), where
    a bytes body is sent as is and anything else as JSON."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests.append(payload)
        status, body = self.server.respond(payload)
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def echo_query(payload):
    """A topic list holding the request's query, so replies show their order."""
    return 200, chat_body(f"['{payload['messages'][-1]['content']}']", 5, 2)


class ChatServer(ThreadingHTTPServer):
    """Serves respond on a fresh port of 127.0.0.1, keeping every request."""

    daemon_threads = True
    # Above socketserver's 5, so MAX_IN_FLIGHT connects at once are all
    # queued; an overflowing backlog costs a 1 s SYN retransmit.
    request_queue_size = 4 * MAX_IN_FLIGHT

    def __init__(self, respond):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.respond = respond
        self.requests = []
        self.lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


@pytest.fixture
def chat_server(monkeypatch):
    """start(respond) starts a ChatServer and returns it; every server started
    is shut down after the test."""
    monkeypatch.setenv("NO_PROXY", NO_PROXY)
    monkeypatch.setenv("no_proxy", NO_PROXY)
    servers = []

    def start(respond):
        server = ChatServer(respond)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def http_gateway(url, sleeps=None, **kwargs):
    cfg = BackendConfig(kind="http", endpoint=url, model_name="test-model",
                        requests_per_minute=1_000_000, timeout=10.0, **kwargs)
    sleep = sleeps.append if sleeps is not None else (lambda seconds: None)
    return LlmGateway(cfg, sleep=sleep)


def exchange(query):
    return ChatExchange(PromptPrefix("sys"), query)


# -- the real transport -------------------------------------------------------


def test_ok_reply_carries_the_server_usage(chat_server):
    server = chat_server(lambda payload: (200, chat_body("['Sports']", 40, 3)))
    outcome = http_gateway(server.url).complete(exchange("a query"))
    assert (outcome.status, outcome.text) == ("ok", "['Sports']")
    assert outcome.token_usage == TokenUsage(40, 3)
    assert server.requests[0]["model"] == "test-model"
    assert server.requests[0]["messages"][-1] == {"role": "user", "content": "a query"}


def test_policy_block_in_an_error_status_is_refused(chat_server):
    body = {"error": {"code": "content_policy_violation", "message": "blocked"}}
    server = chat_server(lambda payload: (400, body))
    assert http_gateway(server.url).complete(exchange("profanity")).status == "refused"
    assert len(server.requests) == 1


def test_server_error_is_retried_once_then_answers(chat_server):
    replies = iter([(503, {"error": "busy"}), (200, chat_body("['Cats']", 4, 1))])
    server = chat_server(lambda payload: next(replies))
    sleeps = []
    outcome = http_gateway(server.url, sleeps=sleeps).complete(exchange("cat"))
    assert (outcome.status, outcome.text) == ("ok", "['Cats']")
    assert len(server.requests) == 2
    assert sleeps == [2.0]


def test_ok_status_without_a_json_body_is_a_transport_error(chat_server):
    server = chat_server(lambda payload: (200, b"<html>not json</html>"))
    with pytest.raises(TransportError, match="^HTTP 200 with a body that holds no completion$"):
        http_gateway(server.url).complete(exchange("q"))
    assert len(server.requests) == 1


def test_a_wrong_api_key_fails_generate_naming_the_401_within_one_round_of_requests(
    tmp_path, chat_server, capsys
):
    # Before, all 50 generation requests went out, every meme landed in
    # Miscellaneous, and represent failed without naming the 401.
    server = chat_server(lambda payload: (401, {"error": {"message": "Incorrect API key"}}))
    out = tmp_path / "run"
    code = main(["run", "--corpus", str(FIXTURES_DIR / "memes50.jsonl"),
                 "--backend-kind", "http", "--endpoint", server.url, "--model", "test-model",
                 "--rpm", "1000000", "--collapse-method", "pbm", "--representation", "llm",
                 "--out", str(out)])
    assert code == 1
    assert "error: stage 'generate' failed: HTTP 401" in capsys.readouterr().err
    assert 1 <= len(server.requests) <= MAX_IN_FLIGHT
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] == "generate"
    assert not (out / "assignments.jsonl").exists()


def test_a_recording_run_that_cannot_keep_an_answer_sends_nothing(tmp_path, chat_server, capsys):
    # Before, generate paid for up to MAX_IN_FLIGHT requests, and the first
    # append to the cache in a missing directory lost every answer.
    server = chat_server(echo_query)
    cache = tmp_path / "missing" / "dir" / "cache.jsonl"
    code = main(["run", "--corpus", str(FIXTURES_DIR / "memes50.jsonl"),
                 "--backend-kind", "http", "--endpoint", server.url, "--model", "test-model",
                 "--rpm", "1000000", "--cache", str(cache), "--record",
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert server.requests == []
    assert f"No such file or directory: '{cache}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no run directory, and no cache directory made


# -- which runs load the http stack -------------------------------------------


# Runs the bundled fixture three ways (run_pipeline, a sweep, the CLI) with
# the backend named in argv[1], then prints which NETWORK_MODULES are loaded.
OFFLINE_RUNS = """
import dataclasses, json, sys
from memetopics.cli import main
from memetopics.llm import BackendConfig, load_mock_rules
from memetopics.pipeline import RunConfig, run_pipeline, sweep

kind, fixtures, modules = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
corpus, cache, rules = (f"{fixtures}/{name}" for name in
                        ("memes50.jsonl", "replay_cache.jsonl", "mock_rules.json"))
if kind == "replay":
    backend = BackendConfig(kind="replay", model_name="mock-model", cache_path=cache)
    backend_flags = ["--cache", cache]
else:
    backend = BackendConfig(kind="mock", model_name="mock-model", mock_rules=load_mock_rules(rules))
    backend_flags = ["--mock-rules", rules]
cfg = RunConfig(corpus_path=corpus, backend=backend, collapse_method="pbm",
                representation_method="llm", k=5, output_dir="run")
run_pipeline(cfg)
sweep(dataclasses.replace(cfg, output_dir="sweep"), [3, 5])
code = main(["run", "--corpus", corpus, "--backend-kind", kind, "--model", "mock-model",
             *backend_flags, "--collapse-method", "wsm", "--representation", "ctfidf",
             "--k", "3", "--out", "cli"])
assert code == 0, code
print(json.dumps([name for name in modules if name in sys.modules]))
"""

# One LlmGateway.map over http in a fresh interpreter: its MAX_IN_FLIGHT
# workers reach the deferred imports at once. Prints the reply texts and
# which NETWORK_MODULES are loaded.
HTTP_MAP = """
import json, sys
from memetopics.llm import BackendConfig, ChatExchange, LlmGateway, PromptPrefix

url, n, modules = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
gateway = LlmGateway(BackendConfig(kind="http", endpoint=url, model_name="test-model",
                                   requests_per_minute=1_000_000, timeout=10.0))
outcomes = gateway.map(gateway.complete, [ChatExchange(PromptPrefix("sys"), f"q{i}")
                                          for i in range(n)])
print(json.dumps({"texts": [o.text for o in outcomes],
                  "loaded": [name for name in modules if name in sys.modules]}))
"""


def run_fresh(script, cwd, *args):
    """Run script in a fresh interpreter that imports memetopics from the
    source tree; returns its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), NO_PROXY=NO_PROXY, no_proxy=NO_PROXY)
    done = subprocess.run(
        [sys.executable, "-c", script, *args, json.dumps(NETWORK_MODULES)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("kind", ["replay", "mock"])
def test_runs_that_send_nothing_never_load_the_http_stack(tmp_path, kind):
    assert run_fresh(OFFLINE_RUNS, tmp_path, kind, str(FIXTURES_DIR)) == []
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert (tmp_path / "cli" / "manifest.json").exists()


def test_first_http_fan_out_loads_the_http_stack_and_keeps_input_order(tmp_path, chat_server):
    assert MAX_IN_FLIGHT < 16
    server = chat_server(echo_query)
    result = run_fresh(HTTP_MAP, tmp_path, server.url, "16")
    assert result["texts"] == [f"['q{i}']" for i in range(16)]
    assert result["loaded"] == list(NETWORK_MODULES)
    assert len(server.requests) == 16
