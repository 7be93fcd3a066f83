"""Every setting takes the JSON type of its annotation, checked by one rule.

A bad value in a config file, a demonstrations file or a mock-rules file
ends `memetopics run` with exit 2 before any directory is made, naming the
key and the file it came from. No number or boolean is opened as a path.
A record a lone stage reads back goes through the same rule; its tests are
in test_pipeline.py, beside the other read-back checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Literal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memetopics
from memetopics import BackendConfig, RunConfig
from memetopics.cli import build_parser, config_from_args, main
from memetopics.corpus import _hints, _typed

from conftest import DELETE, FIXTURES_DIR, SWAPS, json_nodes, mutated

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
BUNDLED_DEMOS = Path(memetopics.__file__).parent / "data" / "demonstrations.json"


def replay_config(**values) -> dict:
    """The fixture replay run as a config file's JSON, a dotted key setting
    a backend key; its output directory is relative."""
    data = {
        "corpus_path": str(FIXTURES_DIR / "memes50.jsonl"),
        "backend": {
            "kind": "replay",
            "model_name": "mock-model",
            "cache_path": str(FIXTURES_DIR / "replay_cache.jsonl"),
        },
        "collapse_method": "pbm",
        "representation_method": "llm",
        "k": 5,
        "output_dir": "run",
    }
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (data[section] if section else data)[name] = value
    return data


# Each value is read from a config file: (key, value, what the error says).
BAD_VALUES = [
    ("corpus_path", None, "corpus_path must be a string, not None"),
    ("corpus_path", ["memes.jsonl"], "corpus_path must be a string"),
    ("corpus_path", 1.5, "corpus_path must be a string, not 1.5"),
    ("output_dir", 3, "output_dir must be a string, not 3"),
    ("output_dir", None, "output_dir must be a string, not None"),
    ("k", True, "k must be an integer, not True"),
    ("lowercase", "no", "lowercase must be true or false, not 'no'"),
    ("backend.model_name", 5, "backend.model_name must be a string, not 5"),
    ("corpus_format", "xml", "corpus_format must be one of 'jsonl', 'csv', not 'xml'"),
    ("backend", "mock", "backend must be a JSON object, not 'mock'"),
    ("backend.bogus", 1, "unknown key backend.bogus"),
    ("backend.mock_rules", [["parliament", "['Politics']"], "xy"],
     "backend.mock_rules[1] must be a list, not the string 'xy'"),
    ("bogus", 1, "unknown key bogus"),
]


@pytest.mark.parametrize("key, value, message", BAD_VALUES)
def test_a_config_value_of_the_wrong_type_is_a_usage_error_naming_key_and_file(
    tmp_path, monkeypatch, capsys, key, value, message
):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(replay_config(**{key: value})), encoding="utf-8")
    assert main(["run", "--config", "cfg.json"]) == 2
    assert f"configuration error: cfg.json: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_a_config_without_corpus_path_names_the_missing_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = replay_config()
    del data["corpus_path"]
    Path("cfg.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", "--config", "cfg.json"]) == 2
    assert "configuration error: cfg.json: missing key corpus_path" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


# A number or boolean taken for a path would be opened as a file descriptor
# of the process, so these run the CLI in a child process of their own.
PATH_VALUES = [
    ("corpus_path", True, "corpus_path must be a string, not True"),
    ("stopwords_path", 5, "stopwords_path must be a string, not 5"),
    ("backend.mock_rules_path", 7, "backend.mock_rules_path must be a string, not 7"),
]


@pytest.mark.parametrize("key, value, message", PATH_VALUES)
def test_a_number_for_a_path_is_a_usage_error_and_opens_nothing(tmp_path, key, value, message):
    data = replay_config(**{key: value})
    if key.startswith("backend."):
        data["backend"] = {"kind": "mock", "mock_rules_path": value}
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "memetopics.cli", "run", "--config", "cfg.json"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert f"configuration error: cfg.json: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("key", ["demonstrations_path", "backend.mock_rules_path"])
def test_a_missing_input_file_is_a_usage_error_naming_key_and_file(
    tmp_path, monkeypatch, capsys, key
):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(replay_config(**{key: "x"})), encoding="utf-8")
    assert main(["run", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cfg.json: {key}: [Errno 2] No such file" in err, err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def _flag_run(tmp_path, *flags) -> list[str]:
    return [
        "run",
        "--corpus", str(FIXTURES_DIR / "memes50.jsonl"),
        "--backend-kind", "replay",
        "--model", "mock-model",
        "--cache", str(FIXTURES_DIR / "replay_cache.jsonl"),
        "--out", str(tmp_path / "run"),
        *flags,
    ]


# Each input file holds the wrong shape: (flag, contents, what the error says).
BAD_FILES = {
    "demos object": ("--demos", {"a": 1}, "must hold a JSON list, not dict"),
    "demo without text": (
        "--demos",
        [{"caption": "c", "topics": ["Cats"]}],
        "missing key [0].text",
    ),
    "demo with no topic": (
        "--demos", [{"caption": "c", "text": "t", "topics": []}], "topics must hold at least one"
    ),
    "too few demos": (
        "--demos",
        [{"caption": "c", "text": "t", "topics": ["Cats"]}],
        "num_demonstrations is 8, but",
    ),
    "rules without rules": ("--mock-rules", {"rule": []}, "mock_rules must be a list"),
    "rule of three": ("--mock-rules", [["a", "b", "c"]], "mock_rules[0] must hold 2 items"),
    "rules not JSON": ("--mock-rules", None, "invalid JSON"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_a_demos_or_rules_file_of_the_wrong_shape_is_named(tmp_path, capsys, case):
    flag, contents, message = BAD_FILES[case]
    path = tmp_path / "input.json"
    path.write_text("{" if contents is None else json.dumps(contents), encoding="utf-8")
    backend = ["--backend-kind", "mock"] if flag == "--mock-rules" else []
    assert main(_flag_run(tmp_path, flag, str(path), *backend)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(path) in err and message in err, err
    assert not (tmp_path / "run").exists()


def test_an_integer_epsilon_is_kept_as_is_so_its_digest_does_not_move(tmp_path, monkeypatch):
    cfg = RunConfig.from_dict({"corpus_path": "memes.jsonl", "epsilon": 1})
    assert type(cfg.epsilon) is int
    hashes = {"corpus": "c", "stopwords": None, "demonstrations": None, "cache": None}
    # The digest the configuration had before its fields were type-checked.
    expected = "522f707f4f7560680f638f7f9d2a577f89c930c9fbbac2b0d2860715a33e9d1d"
    assert cfg.config_digest(hashes) == expected
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(replay_config(epsilon=1)), encoding="utf-8")
    assert main(["run", "--config", "cfg.json"]) == 0


@pytest.mark.parametrize(
    "value, hint, expected",
    [
        (3, int, 3),
        (False, bool, False),
        (2, float, 2),
        (0.5, float, 0.5),
        (None, str | None, None),
        ("a", str | None, "a"),
        ("csv", Literal["jsonl", "csv"], "csv"),
        (["a"], tuple[str, ...], ("a",)),
        (("a", "b"), tuple[str, str], ("a", "b")),
        ({"a"}, frozenset[str], frozenset({"a"})),
        ([["a", "b"]], tuple[tuple[str, str], ...], (("a", "b"),)),
        (BackendConfig(), BackendConfig, BackendConfig()),
    ],
)
def test_typed_passes_a_value_of_its_annotation(value, hint, expected):
    out = _typed(value, hint, "key")
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize(
    "value, hint",
    [
        (True, int),
        (True, float),
        ("1", int),
        (1, str),
        (1, bool),
        (None, str),
        (3, str | None),
        ("xml", Literal["jsonl", "csv"]),
        ("ab", tuple[str, ...]),
        ({"a": "b"}, tuple[str, ...]),
        (["a", 1], tuple[str, ...]),
        (["a"], tuple[str, str]),
        ("a", frozenset[str]),
        (["ab"], tuple[tuple[str, str], ...]),
        ({"kind": "mock"}, BackendConfig),
    ],
)
def test_typed_refuses_any_other_naming_the_key(value, hint):
    with pytest.raises(ValueError, match=r"^key\b"):
        _typed(value, hint, "key")


# -- one mutated node in any input file ----------------------------------------

@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The three input files of a mock fixture run, by name: the config,
    the bundled demonstrations and the fixture mock rules."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {name: root / f"{name}.json" for name in ("config", "demos", "rules")}
    backend = BackendConfig(kind="mock", model_name="mock-model", refusal_phrases=("i cannot",))
    cfg = RunConfig(
        corpus_path=str(FIXTURES_DIR / "memes50.jsonl"),
        extra_blocklist=("lol",),
        demonstrations_path=str(paths["demos"]),
        backend=backend,
        output_dir=str(root / "run"),
    )
    config = json.loads(json.dumps(cfg.to_dict()))
    del config["backend"]["mock_rules"]
    config["backend"]["mock_rules_path"] = str(paths["rules"])
    originals = {
        "config": config,
        "demos": json.loads(BUNDLED_DEMOS.read_text(encoding="utf-8")),
        "rules": json.loads((FIXTURES_DIR / "mock_rules.json").read_text(encoding="utf-8")),
    }
    return paths, originals


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_bad_node_in_any_input_file_is_refused_naming_it(input_files, data):
    paths, originals = input_files
    name = data.draw(st.sampled_from(sorted(paths)))
    path = data.draw(st.sampled_from(list(json_nodes(originals[name]))))
    new = data.draw(st.sampled_from(SWAPS))
    for each, original in originals.items():
        value = mutated(original, path, new) if each == name else original
        text = "" if value is DELETE else json.dumps(value)
        paths[each].write_text(text, encoding="utf-8")
    args = build_parser().parse_args(["run", "--config", str(paths["config"])])
    try:
        cfg = config_from_args(args)
    except (ValueError, OSError, LookupError) as exc:
        message = str(exc)
        if isinstance(exc, OSError):
            # A path that names no file is the file named: the path itself.
            assert exc.filename is not None, message
            return
        assert paths[name].name in message, message
        keys = [key for key in path if isinstance(key, str)]
        if keys:
            assert keys[-1] in message, message
    else:
        for obj in (cfg, cfg.backend):
            for key, hint in _hints(type(obj)).items():
                _typed(getattr(obj, key), hint, key)
