"""Reference cache readers for differential tests.

These are the original two reads of a response cache: the gateway's index,
which decoded every record whole with json.loads, and the configuration
digest's hash of the file's sorted lines, which read the file a second
time. They are slow but plainly follow the definitions, so the one-pass
reader in memetopics.llm must build the same index, raise the same error,
and take the same hash.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def json_loads_index(path: str | Path) -> dict[str, dict]:
    """Every terminated nonblank line decoded whole, the last record of a
    hash winning; a malformed line raises a ValueError naming the file and
    the line."""
    index: dict[str, dict] = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.endswith(b"\n"):
                break
            if line.strip():
                try:
                    entry = json.loads(line)
                    index[entry["hash"]] = entry["response"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: not a cache record ({exc})") from None
    return index


def sorted_lines_sha256(path: str | Path) -> str:
    """SHA-256 of the sorted SHA-256s of a file's nonblank lines, read one at a time."""
    with open(path, "rb") as f:
        lines = sorted(hashlib.sha256(line.rstrip(b"\n")).digest() for line in f if line.strip())
    return hashlib.sha256(b"".join(lines)).hexdigest()
