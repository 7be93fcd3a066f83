"""The package exports exactly what its documented callers import.

The callers are the README, the demos and the benchmark. Every name they
import from `memetopics` must be in `__all__`, and `__all__` must hold
nothing else; every other name is imported from its own module, for
example `memetopics.llm.ReplayMissError`.
"""

import importlib.util
import re
from pathlib import Path

import memetopics

ROOT = Path(__file__).parent.parent
CALLERS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))

_IMPORT = re.compile(r"from memetopics import (?:\(([^)]*)\)|([^\n]*))")


def imported_names() -> set[str]:
    """Names imported from the package by its callers, submodules left out."""
    names = set()
    for path in CALLERS:
        for match in _IMPORT.finditer(path.read_text(encoding="utf-8")):
            for item in (match.group(1) or match.group(2)).split(","):
                name = item.split("#")[0].split(" as ")[0].strip()
                if name and importlib.util.find_spec(f"memetopics.{name}") is None:
                    names.add(name)
    return names


def test_all_equals_what_callers_import():
    assert imported_names() == set(memetopics.__all__)
    assert len(memetopics.__all__) == len(set(memetopics.__all__))


def test_every_exported_name_resolves():
    for name in memetopics.__all__:
        assert getattr(memetopics, name) is not None, name


def test_no_name_outside_all_is_re_exported():
    public = {name for name in vars(memetopics) if not name.startswith("_")}
    submodules = {name for name in public if importlib.util.find_spec(f"memetopics.{name}")}
    assert public - submodules == set(memetopics.__all__)


def test_test_only_helpers_are_gone_from_the_package():
    from memetopics import collapse, ctfidf

    assert not hasattr(ctfidf, "build_ctfidf")
    assert not hasattr(ctfidf, "TopicWordSet")
    assert not hasattr(collapse, "topic_similarity")
