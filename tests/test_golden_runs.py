"""The fixture runs write exactly the files recorded in golden_runs.json.

Every other byte-identity check compares two runs of the same code. This
one compares against digests recorded once, so a change that moves every
output alike (a reply parser change, say) shows. After an intended output
change, regenerate the digests with `python tests/fixtures/make_fixtures.py`.
"""

import json
import os
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_fixture_runs_match_golden_digests(tmp_path, hash_seed):
    workdir = tmp_path / "work"
    workdir.mkdir()
    out = tmp_path / "digests.json"
    paths = [str(SRC_DIR), str(FIXTURES_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    subprocess.run([sys.executable, "-c", SCRIPT, str(workdir), str(out)], env=env, check=True)

    got = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads((FIXTURES_DIR / "golden_runs.json").read_text(encoding="utf-8"))
    assert sorted(got) == sorted(expected)
    assert [path for path in sorted(expected) if got[path] != expected[path]] == []
