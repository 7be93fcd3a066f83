"""Reference pick-and-backfill for differential tests of represent_llm.

This is the original loop of representation.represent_llm, kept verbatim
apart from taking the parsed reply and the candidates as arguments, and
from mapping a replied word to the first candidate of its casefold rather
than the last: it maps each replied word to its candidate, drops and counts
the rest, caps the picks at ten and backfills from the weight ranking. The
rewritten represent_llm must return the same words and counts.
"""

from __future__ import annotations

from memetopics.representation import REPRESENTATION_SIZE


def pick_and_backfill(replied: list[str], candidates: list[str]) -> tuple[list[str], int, int]:
    """(words, backfilled, dropped) for a reply parsed by parse_topic_list."""
    by_key = {word.casefold(): word for word in reversed(candidates)}
    kept: list[str] = []
    seen: set[str] = set()
    dropped = 0
    for word in replied:  # unique case-insensitively, as parse_topic_list returns them
        key = word.casefold()
        if key in by_key:
            kept.append(by_key[key])
            seen.add(key)
        else:
            dropped += 1
    kept = kept[:REPRESENTATION_SIZE]

    backfilled = 0
    if len(kept) < REPRESENTATION_SIZE:
        for word in candidates:
            if len(kept) == REPRESENTATION_SIZE:
                break
            if word.casefold() not in seen:
                kept.append(word)
                seen.add(word.casefold())
                backfilled += 1
    return kept, backfilled, dropped
