"""Fake chat-completions server for the pipeline benchmark.

A stdlib HTTP server, run as its own process, that answers the standard
chat-completions request shape after a fixed injected latency. Every reply
is a pure function of the request and the workload's script (which carries
the seed), so the program's real http path runs with no network and its
outputs stay byte-identical from run to run.

- Generation queries are looked up in the script by the hash of the query.
- Collapse queries are answered with the current topic's scripted parent
  when it is among the candidates, else with another candidate of its
  family, else with the first candidate.
- Word-rank queries are answered with ten of the twelve first candidates.

The script routes a fixed set of topics to a content-policy 400,
unparseable prose, an out-of-list answer or invented words instead, so
every failure route of the program runs. Usage is billed as
whitespace word counts; refusals by status code bill nothing.

At most one request per CPU is served at once. The server logs one
record per request (query key, service time, billed tokens), readable at
GET /log; POST /shutdown stops it. It prints its port on the first line of
standard output once it listens.

    python3 perfbench/fake_server.py --script server_script.json --latency-ms 10
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_CANDIDATE = re.compile(r"^\d+\. (.+)$", re.MULTILINE)
_CURRENT = re.compile(r"^Current topic : (.+)$", re.MULTILINE)
_WORDRANK_TOPIC = re.compile(r"^Topic : '(.+)'$", re.MULTILINE)
_WORDRANK_WORDS = re.compile(r"^Words : (.+)$", re.MULTILINE)

POLICY_BODY = {
    "error": {
        "code": "content_policy_violation",
        "message": "The prompt was blocked by the content_policy filter.",
    }
}
PROSE_REPLY = "I think it could belong to several of these."
OUT_OF_LIST_REPLY = "['Quantum Plumbing']"
# Words no generated corpus contains.
INVENTED_WORDS = ("wugwug", "blicket")


def words(text: str) -> int:
    return len(text.split())


def render_labels(labels: list[str]) -> str:
    """A reply in the demonstrations' format: ['A', 'B']."""
    return "[" + ", ".join(f"'{label}'" for label in labels) + "]"


def query_key(text: str) -> str:
    """Key under which the script holds the reply to a user query."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class Script:
    """Reply policy for one workload and seed."""

    def __init__(self, data: dict):
        self.generation: dict[str, str] = data["generation"]
        self.parents: dict[str, str] = data["parents"]
        self.families: dict[str, int] = data["families"]
        self.collapse_routes: dict[str, str] = data["collapse_routes"]
        self.wordrank_routes: dict[str, str] = data["wordrank_routes"]

    def reply(self, query: str) -> str | None:
        """Reply text for a query, or None for a content-policy refusal."""
        scripted = self.generation.get(query_key(query))
        if scripted is not None:
            return None if scripted == "!policy" else scripted
        current = _CURRENT.search(query)
        if current:
            head = query[: current.start()]
            return self._collapse(current.group(1), _CANDIDATE.findall(head))
        topic = _WORDRANK_TOPIC.search(query)
        listed = _WORDRANK_WORDS.search(query)
        if topic and listed:
            candidates = [w.split(". ", 1)[1] for w in listed.group(1).split(", ")]
            return self._wordrank(topic.group(1), candidates)
        return PROSE_REPLY

    def _collapse(self, current: str, candidates: list[str]) -> str | None:
        route = self.collapse_routes.get(current, "parent")
        if route == "policy":
            return None
        if route == "prose":
            return PROSE_REPLY
        if route == "out_of_list" or not candidates:
            return OUT_OF_LIST_REPLY
        parent = self.parents.get(current)
        if parent in candidates:
            return render_labels([parent])
        family = self.families.get(current)
        kin = [c for c in candidates if self.families.get(c) == family]
        return render_labels([kin[0] if kin else candidates[0]])

    def _wordrank(self, topic: str, candidates: list[str]) -> str | None:
        route = self.wordrank_routes.get(topic, "pick")
        if route == "policy":
            return None
        if route == "prose":
            return PROSE_REPLY
        # The twelve heaviest candidates but the third and the eighth.
        picks = [word for i, word in enumerate(candidates[:12]) if i not in (2, 7)]
        if route == "invented":
            picks = picks[: len(picks) - len(INVENTED_WORDS)] + list(INVENTED_WORDS)
        return render_labels(picks)


class FakeChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, script: Script, latency_s: float, concurrency: int):
        super().__init__(address, Handler)
        self.script = script
        self.latency_s = latency_s
        self.slots = threading.BoundedSemaphore(concurrency)
        self.log_lock = threading.Lock()
        self.records: list[dict] = []


class Handler(BaseHTTPRequestHandler):
    server: FakeChatServer

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/log":
            self._send(404, {"error": "not found"})
            return
        with self.server.log_lock:
            records = list(self.server.records)
        self._send(200, records)

    def do_POST(self):
        if self.path == "/shutdown":
            self._send(200, {"ok": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        with self.server.slots:
            start = time.perf_counter()
            request = json.loads(raw)
            messages = request["messages"]
            query = messages[-1]["content"]
            time.sleep(self.server.latency_s)
            text = self.server.script.reply(query)
            if text is None:
                status, payload, usage = 400, POLICY_BODY, (0, 0)
            else:
                usage = (sum(words(m["content"]) for m in messages), words(text))
                status = 200
                payload = {
                    "id": "chatcmpl-fake",
                    "object": "chat.completion",
                    "model": request.get("model", ""),
                    "choices": [
                        {"index": 0, "message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}
                    ],
                    "usage": {"prompt_tokens": usage[0], "completion_tokens": usage[1],
                              "total_tokens": usage[0] + usage[1]},
                }
            self._send(status, payload)
            service_s = time.perf_counter() - start
        with self.server.log_lock:
            self.server.records.append(
                {
                    "key": query_key(query),
                    "status": status,
                    "service_s": service_s,
                    "prompt_tokens": usage[0],
                    "completion_tokens": usage[1],
                }
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True, help="server_script.json of the workload")
    parser.add_argument("--latency-ms", type=float, default=10.0)
    args = parser.parse_args(argv)
    with open(args.script, encoding="utf-8") as f:
        script = Script(json.load(f))
    server = FakeChatServer(
        ("127.0.0.1", 0), script, args.latency_ms / 1000.0, os.cpu_count() or 1
    )
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
