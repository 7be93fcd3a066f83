"""The fixture runs write exactly the files recorded in golden_runs.json.

Every other byte-identity check compares two runs of the same code. This
one compares against digests recorded once, so a change that moves every
output alike (a reply parser change, say) shows. The runs are made in fresh
interpreters at hash seeds 1 and 2, and once in the test process under its
own seed. golden_runs.json is the one place the fixture outputs are pinned:
after an intended output change, regenerate it with
`python tests/fixtures/make_fixtures.py`.
"""

import json
import os
import runpy
import subprocess
import sys

import pytest

from memetopics.pipeline import _load_artifact, load_run

from conftest import FIXTURES_DIR

SRC_DIR = FIXTURES_DIR.parent.parent / "src"

# Runs the golden runs in a fresh interpreter, so the hash seed is the one given.
SCRIPT = """
import json, sys
from pathlib import Path
from make_fixtures import golden_runs
digests = golden_runs(Path(sys.argv[1]))
Path(sys.argv[2]).write_text(json.dumps(digests), encoding="utf-8")
"""


def assert_golden(got: dict) -> None:
    expected = json.loads((FIXTURES_DIR / "golden_runs.json").read_text(encoding="utf-8"))
    assert sorted(got) == sorted(expected)
    assert [path for path in sorted(expected) if got[path] != expected[path]] == []


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_fixture_runs_match_golden_digests(tmp_path, hash_seed):
    workdir = tmp_path / "work"
    workdir.mkdir()
    out = tmp_path / "digests.json"
    paths = [str(SRC_DIR), str(FIXTURES_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    subprocess.run([sys.executable, "-c", SCRIPT, str(workdir), str(out)], env=env, check=True)
    assert_golden(json.loads(out.read_text(encoding="utf-8")))


def test_fixture_runs_match_golden_digests_under_this_hash_seed(tmp_path):
    assert_golden(runpy.run_path(str(FIXTURES_DIR / "make_fixtures.py"))["golden_runs"](tmp_path))
    # Each golden run reads back whole, and each K of a sweep reads back against its root,
    # so every merge log, pbm's routes to Miscellaneous too, replays to its clusters.json.
    for run in sorted((tmp_path / "runs").iterdir()):
        artifacts = load_run(run).artifacts
        ks = sorted(run.glob("k_*"))
        assert len(artifacts) == (2 if ks else 5), run.name
        for k in ks:
            for name in ("state", "representations", "report"):
                artifacts[name] = _load_artifact(k, name, artifacts)


def test_make_fixtures_names_each_path_whose_digest_moved():
    moved_digests = runpy.run_path(str(FIXTURES_DIR / "make_fixtures.py"))["moved_digests"]
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert moved_digests(old, new) == ["moved: b", "removed: c", "added: d"]
    assert moved_digests(old, dict(old)) == []
