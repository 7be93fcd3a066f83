"""Reference cache readers for differential tests.

These are the original two reads of a response cache: the gateway's index,
which decoded every record whole with json.loads, and the configuration
digest's hash of the file's sorted lines, which read the file a second
time. They are slow but plainly follow the definitions, so the one-pass
reader in memetopics.llm must build the same index, raise the same error,
and take the same hash. The index is keyed by hashes that request_hash()
below spells out the rule for, and holds each response as the outcome that
outcome() does.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from memetopics.llm import LlmOutcome, TokenUsage


def outcome(response: object) -> LlmOutcome:
    """The response rule, one check at a time, each failure a ValueError: an
    object with the keys status, text and usage and no other; a status of
    "ok" or "refused"; a string text; and a usage object with the keys
    prompt and completion and no other, each an integer but not a bool."""
    if not isinstance(response, dict) or sorted(response) != ["status", "text", "usage"]:
        raise ValueError(f"response must hold status, text and usage, not {response!r}")
    status, text, usage = response["status"], response["text"], response["usage"]
    if status not in ("ok", "refused"):
        raise ValueError(f"response: status must be one of 'ok', 'refused', not {status!r}")
    if not isinstance(text, str):
        raise ValueError(f"response: text must be a string, not {text!r}")
    if not isinstance(usage, dict):
        raise ValueError(f"response: usage must be a JSON object, not {usage!r}")
    if sorted(usage) != ["completion", "prompt"]:
        raise ValueError(f"response: usage must hold prompt and completion, not {usage}")
    for key in ("prompt", "completion"):
        if isinstance(usage[key], bool) or not isinstance(usage[key], int):
            raise ValueError(f"response: usage: {key} must be an integer, not {usage[key]!r}")
    return LlmOutcome(status, text, TokenUsage(usage["prompt"], usage["completion"]))


def request_hash(value: object) -> str:
    """The hash rule: a string of 64 lowercase hex digits, else a ValueError."""
    if not isinstance(value, str) or re.fullmatch("[0-9a-f]{64}", value) is None:
        raise ValueError(f"hash must be 64 lowercase hex digits, not {value!r}")
    return value


def json_loads_index(path: str | Path) -> dict[str, LlmOutcome]:
    """Every terminated nonblank line decoded whole, its hash checked by
    request_hash() and its response by outcome(), the last record of a hash
    winning; a malformed line raises a ValueError naming the file and the line."""
    index: dict[str, LlmOutcome] = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.endswith(b"\n"):
                break
            if line.strip():
                try:
                    entry = json.loads(line)
                    digest = request_hash(entry["hash"])
                    index[digest] = outcome(entry["response"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: not a cache record ({exc})") from None
    return index


def sorted_lines_sha256(path: str | Path) -> str:
    """SHA-256 of the sorted SHA-256s of a file's nonblank lines, read one at a time."""
    with open(path, "rb") as f:
        lines = sorted(hashlib.sha256(line.rstrip(b"\n")).digest() for line in f if line.strip())
    return hashlib.sha256(b"".join(lines)).hexdigest()
