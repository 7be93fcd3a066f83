"""Every setting takes the JSON type, and the range, of its annotation,
checked by one rule, and every bad setting is refused before anything is
made, named by its key path.

USAGE_ERRORS holds one row per refusal of the command line: its argv, the
input files it writes, and what the error names. Its one runner checks the
whole usage-error contract of each: exit 2, nothing on stdout, stderr
`configuration error: ` and the row's fragments (the file a bad value came
from, and the key or flag it names), no traceback, and no file or directory
made. REFUSED_SETTINGS holds one row per refusal of a settings constructor
or `from_dict`, each a ValueError holding the row's fragments. No number or
boolean is opened as a path. A record a lone stage reads back goes through
the same type rule; its refusals are `CORRUPTIONS` in test_pipeline.py. The
README's "Exit status" paragraph names every bounded setting.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Annotated, Literal, get_origin

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memetopics
from memetopics import BackendConfig, RunConfig
from memetopics.cli import build_parser, config_from_args, main
from memetopics.corpus import PreprocessConfig, _AtLeastOne, _Bound, _hints, _Positive, _typed
from memetopics.generation import Demonstration, DemonstrationSet
from memetopics.llm import load_mock_rules

from conftest import DELETE, FIXTURES_DIR, SWAPS, json_nodes, mutated

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
BUNDLED_DEMOS = Path(memetopics.__file__).parent / "data" / "demonstrations.json"

# The fixture replay run, as a config file's JSON and as flags; its output
# directory is relative.
REPLAY_CONFIG = {
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
REPLAY_FLAGS = [
    "--corpus", REPLAY_CONFIG["corpus_path"],
    "--backend-kind", "replay",
    "--model", "mock-model",
    "--cache", REPLAY_CONFIG["backend"]["cache_path"],
    "--collapse-method", "pbm",
    "--representation", "llm",
    "--k", "5",
    "--out", "run",
]
RUN, SWEEP = ["run", *REPLAY_FLAGS], ["sweep", *REPLAY_FLAGS]
CONFIG_RUN = ["run", "--config", "cfg.json"]


def cfg_json(path, value) -> dict:
    """The input files of CONFIG_RUN: cfg.json, the replay config with the
    node at path set to value (or deleted, for DELETE)."""
    return {"cfg.json": mutated(REPLAY_CONFIG, path, value)}


# Each refusal of the command line: its argv, run in a directory holding only
# the files given (a string or bytes are written as they are, anything else as its JSON), and
# what the error names, the first fragment right after "configuration error: ".
USAGE_ERRORS = {
    "no config or corpus": (["run"], {}, ("either --config or --corpus is required",)),
    "config not JSON": (CONFIG_RUN, {"cfg.json": "{"}, ("cfg.json: invalid JSON",)),
    "config a list": (CONFIG_RUN, {"cfg.json": []}, ("cfg.json: must hold a JSON object",)),
    "config without corpus_path": (
        CONFIG_RUN, cfg_json(("corpus_path",), DELETE), ("cfg.json: missing key corpus_path",)
    ),
    # A value of the wrong type, named with its key and file.
    "corpus_path None": (CONFIG_RUN, cfg_json(("corpus_path",), None),
                         ("cfg.json: corpus_path must be a string, not None",)),
    "corpus_path a list": (CONFIG_RUN, cfg_json(("corpus_path",), ["memes.jsonl"]),
                           ("cfg.json: corpus_path must be a string",)),
    "corpus_path 1.5": (CONFIG_RUN, cfg_json(("corpus_path",), 1.5),
                        ("cfg.json: corpus_path must be a string, not 1.5",)),
    "output_dir 3": (CONFIG_RUN, cfg_json(("output_dir",), 3),
                     ("cfg.json: output_dir must be a string, not 3",)),
    "output_dir None": (CONFIG_RUN, cfg_json(("output_dir",), None),
                        ("cfg.json: output_dir must be a string, not None",)),
    "k true": (CONFIG_RUN, cfg_json(("k",), True), ("cfg.json: k must be an integer, not True",)),
    "lowercase 'no'": (CONFIG_RUN, cfg_json(("lowercase",), "no"),
                       ("cfg.json: lowercase must be true or false, not 'no'",)),
    "backend.model_name 5": (CONFIG_RUN, cfg_json(("backend", "model_name"), 5),
                             ("cfg.json: backend.model_name must be a string, not 5",)),
    "corpus_format 'xml'": (CONFIG_RUN, cfg_json(("corpus_format",), "xml"),
                            ("cfg.json: corpus_format must be one of 'jsonl', 'csv', not 'xml'",)),
    "backend 'mock'": (CONFIG_RUN, cfg_json(("backend",), "mock"),
                       ("cfg.json: backend must be a JSON object, not 'mock'",)),
    "backend.bogus": (CONFIG_RUN, cfg_json(("backend", "bogus"), 1),
                      ("cfg.json: unknown key backend.bogus",)),
    "backend.mock_rules with a string": (
        CONFIG_RUN, cfg_json(("backend", "mock_rules"), [["parliament", "['Politics']"], "xy"]),
        ("cfg.json: backend.mock_rules[1] must be a list, not the string 'xy'",),
    ),
    "bogus": (CONFIG_RUN, cfg_json(("bogus",), 1), ("cfg.json: unknown key bogus",)),
    # tuple() of a string is its characters: "lol,meme" would block "l", "o", ...
    "extra_blocklist a string": (
        CONFIG_RUN, cfg_json(("extra_blocklist",), "lol,meme"),
        ("cfg.json: extra_blocklist must be a list, not the string 'lol,meme'",),
    ),
    "demonstrations with a string for topics": (
        CONFIG_RUN,
        {**cfg_json(("demonstrations_path",), "demos.json"),
         "demos.json": [{"caption": "c", "text": "t", "topics": "Cats"}]},
        ("cfg.json: demos.json: [0].topics must be a list, not the string 'Cats'",),
    ),
    # An input file the config names that is not there.
    "demonstrations_path missing": (
        CONFIG_RUN, cfg_json(("demonstrations_path",), "x"),
        ("cfg.json: demonstrations_path: [Errno 2] No such file",),
    ),
    "backend.mock_rules_path missing": (
        CONFIG_RUN, cfg_json(("backend", "mock_rules_path"), "x"),
        ("cfg.json: backend.mock_rules_path: [Errno 2] No such file",),
    ),
    # A value out of range, named by its whole path.
    "backend.timeout -1": (CONFIG_RUN, cfg_json(("backend", "timeout"), -1),
                           ("cfg.json: backend.timeout must be > 0, not -1",)),
    # Settings that cannot go together, each named by its whole path.
    "backend.record with replay": (
        CONFIG_RUN, cfg_json(("backend", "record"), True),
        ("cfg.json: backend.kind 'replay' rules out backend.record",),
    ),
    "backend.cache_path missing with replay": (
        CONFIG_RUN, cfg_json(("backend", "cache_path"), DELETE),
        ("cfg.json: backend.kind 'replay' requires backend.cache_path",),
    ),
    "backend.record without backend.cache_path": (
        CONFIG_RUN, {"cfg.json": {**REPLAY_CONFIG, "backend": {"kind": "mock", "record": True}}},
        ("cfg.json: backend.record requires backend.cache_path",),
    ),
    # A flag's value out of range, or settings that cannot go together.
    "--epsilon 0": ([*RUN, "--epsilon", "0"], {}, ("epsilon must be > 0",)),
    "--window 1": ([*RUN, "--window", "1"], {}, ("window must be >= 2",)),
    "--rpm 0": ([*RUN, "--rpm", "0"], {}, ("backend.requests_per_minute must be >= 1, not 0",)),
    "--max-tokens 0": ([*RUN, "--max-tokens", "0"], {},
                       ("backend.max_tokens must be >= 1, not 0",)),
    "--num-demos 0": ([*RUN, "--num-demos", "0"], {}, ("num_demonstrations must be >= 1",)),
    "--min-token-len 0": ([*RUN, "--min-token-len", "0"], {}, ("min_token_len must be >= 1",)),
    # The fixture run takes its demonstrations from the bundled set of 8.
    "--num-demos 9": ([*RUN, "--num-demos", "9"], {},
                      ("num_demonstrations is 9, but the bundled set holds 8",)),
    # A recording replay would hash its cache as output, so replays over
    # different caches would share a config digest.
    "replay --record": ([*RUN, "--record"], {},
                        ("backend.kind 'replay' rules out backend.record",)),
    # Recording with nowhere to record to would drop every paid answer.
    "--record without --cache": (
        ["run", "--corpus", REPLAY_CONFIG["corpus_path"], "--backend-kind", "mock",
         "--mock-rules", str(FIXTURES_DIR / "mock_rules.json"), "--record", "--out", "run"],
        {},
        ("backend.record requires backend.cache_path",),
    ),
    "--k-values 0,5": ([*SWEEP, "--k-values", "0,5"], {},
                       ("--k-values '0,5': k_values[0] must be >= 1, not 0",)),
    "--k-values x": ([*SWEEP, "--k-values", "x"], {},
                     ("--k-values 'x': ", "invalid literal for int()")),
    "--k-values ,": ([*SWEEP, "--k-values", ","], {},
                     ("--k-values ',': k_values must hold at least 1, not []",)),
    "--k-values 5,3,5": ([*SWEEP, "--k-values", "5,3,5"], {},
                         ("--k-values '5,3,5': k_values must give each K once, not [5, 3, 5]",)),
    # A demonstrations or mock-rules file of the wrong shape, named.
    "demos object": ([*RUN, "--demos", "input.json"], {"input.json": {"a": 1}},
                        ("input.json: must hold a JSON list, not dict",)),
    "demos not UTF-8": (
        [*RUN, "--demos", "input.json"], {"input.json": b'[{"caption": "\xff"}]'},
        ("input.json: 'utf-8' codec can't decode byte 0xff",),
    ),
    "demo without text": (
        [*RUN, "--demos", "input.json"], {"input.json": [{"caption": "c", "topics": ["Cats"]}]},
        ("input.json: missing key [0].text",),
    ),
    "demo with no topic": (
        [*RUN, "--demos", "input.json"],
        {"input.json": [{"caption": "c", "text": "t", "topics": []}]},
        ("input.json: [0].topics must hold at least 1, not []",),
    ),
    "second demo with no topic": (
        [*RUN, "--demos", "input.json", "--num-demos", "2"],
        {"input.json": [{"caption": "c", "text": "t", "topics": ["Cats"]},
                        {"caption": "d", "text": "u", "topics": []}]},
        ("input.json: [1].topics must hold at least 1, not []",),
    ),
    "too few demos": (
        [*RUN, "--demos", "input.json"],
        {"input.json": [{"caption": "c", "text": "t", "topics": ["Cats"]}]},
        ("num_demonstrations is 8, but input.json holds 1",),
    ),
    "rules without rules": (
        [*RUN, "--mock-rules", "input.json", "--backend-kind", "mock"],
        {"input.json": {"rule": []}},
        ("input.json: mock_rules must be a list",),
    ),
    "rule of three": (
        [*RUN, "--mock-rules", "input.json", "--backend-kind", "mock"],
        {"input.json": [["a", "b", "c"]]},
        ("input.json: mock_rules[0] must hold 2 items",),
    ),
    # A list under "rules" is named by that key.
    "rules key with a number": (
        [*RUN, "--mock-rules", "rules.json", "--backend-kind", "mock"],
        {"rules.json": {"rules": [["a", 3]]}},
        ("rules.json: rules[0][1] must be a string, not 3",),
    ),
    "rules not JSON": ([*RUN, "--mock-rules", "input.json", "--backend-kind", "mock"],
                       {"input.json": "{"}, ("input.json: invalid JSON",)),
}


@pytest.mark.parametrize(
    "argv, files, named", [pytest.param(*row, id=case) for case, row in USAGE_ERRORS.items()]
)
def test_a_bad_setting_is_a_usage_error_before_anything_is_made(
    tmp_path, monkeypatch, capsys, argv, files, named
):
    monkeypatch.chdir(tmp_path)
    for name, contents in files.items():
        if isinstance(contents, bytes):
            Path(name).write_bytes(contents)
            continue
        text = contents if isinstance(contents, str) else json.dumps(contents)
        Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"configuration error: {named[0]}"), err
    assert all(fragment in err for fragment in named), err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == sorted(files)


def written(name: str, value) -> Path:
    """A file of the working directory holding value's JSON."""
    path = Path(name)
    path.write_text(json.dumps(value), encoding="utf-8")
    return path


def run_config(**values) -> RunConfig:
    return RunConfig(corpus_path="memes.jsonl", **values)


def from_dict(**values) -> RunConfig:
    return RunConfig.from_dict({"corpus_path": "memes.jsonl", **values})


# Each refusal of a settings constructor or from_dict, run in an empty working
# directory: what builds it, and what its ValueError names.
REFUSED_SETTINGS = {
    "k 0": (lambda: run_config(k=0), ("k must be >= 1",)),
    "window 1": (lambda: run_config(window=1), ("window must be >= 2",)),
    "epsilon 0": (lambda: run_config(epsilon=0.0), ("epsilon must be > 0",)),
    "epsilon -1e-6": (lambda: run_config(epsilon=-1e-6), ("epsilon must be > 0",)),
    "num_demonstrations 0": (lambda: run_config(num_demonstrations=0),
                             ("num_demonstrations must be >= 1",)),
    "min_token_len 0": (lambda: run_config(min_token_len=0), ("min_token_len must be >= 1",)),
    "requests_per_minute 0": (lambda: BackendConfig(requests_per_minute=0),
                              ("requests_per_minute must be >= 1",)),
    # from_dict checks a backend key's bound with its path, as it checks its type.
    "from_dict requests_per_minute 0": (lambda: from_dict(backend={"requests_per_minute": 0}),
                                        ("backend.requests_per_minute must be >= 1, not 0",)),
    "Demonstration with no topic": (lambda: Demonstration("c", "t", []),
                                    ("topics must hold at least 1, not []",)),
    # A request with either fails at every call, far from the setting.
    "timeout 0": (lambda: BackendConfig(timeout=0), ("timeout must be > 0",)),
    "max_tokens 0": (lambda: BackendConfig(max_tokens=0), ("max_tokens must be >= 1",)),
    "replay without a cache": (lambda: BackendConfig(kind="replay"),
                               ("backend.kind 'replay' requires backend.cache_path",)),
    # Without a cache_path the answers a recording paid for would be lost.
    "mock record without a cache": (lambda: BackendConfig(kind="mock", record=True),
                                    ("backend.record requires backend.cache_path",)),
    "http record without a cache": (lambda: BackendConfig(kind="http", record=True),
                                    ("backend.record requires backend.cache_path",)),
    "replay record": (lambda: BackendConfig(kind="replay", cache_path="cache.jsonl", record=True),
                      ("backend.kind 'replay' rules out backend.record",)),
    # tuple() and set() of a string are its characters, and membership in one
    # is a substring test: each string below would be read wrongly, the
    # phrase "i" making "I think ['Politics']" a refusal.
    "BackendConfig.refusal_phrases a string": (
        lambda: BackendConfig(refusal_phrases="i cannot"),
        ("refusal_phrases must be a list, not the string",),
    ),
    "from_dict refusal_phrases a string": (
        lambda: from_dict(backend={"refusal_phrases": "i cannot"}),
        ("refusal_phrases must be a list, not the string",),
    ),
    "from_dict mock_rules a string": (lambda: from_dict(backend={"mock_rules": "whiskers"}),
                                      ("mock_rules must be a list, not the string",)),
    "from_dict mock rule a string": (
        lambda: from_dict(backend={"mock_rules": [["a", "b"], "xy"]}),
        ("mock_rules[1] must be a list, not the string",),
    ),
    "load_mock_rules rule a string": (
        lambda: BackendConfig(mock_rules=load_mock_rules(
            written("rules.json", [["whiskers", "['Cats']"], "ab"]))),
        ("mock_rules[1] must be a list, not the string",),
    ),
    "RunConfig.extra_blocklist a string": (
        lambda: run_config(extra_blocklist="lol"),
        ("extra_blocklist must be a list, not the string",),
    ),
    "from_dict extra_blocklist a string": (
        lambda: from_dict(extra_blocklist="lol,meme"),
        ("extra_blocklist must be a list, not the string",),
    ),
    "PreprocessConfig.stopwords a string": (lambda: PreprocessConfig(stopwords="the"),
                                            ("stopwords must be a list, not the string",)),
    "PreprocessConfig.extra_blocklist a string": (
        lambda: PreprocessConfig(extra_blocklist="lol"),
        ("extra_blocklist must be a list, not the string",),
    ),
    "Demonstration.topics a string": (lambda: Demonstration("c", "t", "Cats"),
                                      ("topics must be a list, not the string",)),
    "demonstrations file topics a string": (
        lambda: DemonstrationSet.from_file(
            written("demos.json", [{"caption": "c", "text": "t", "topics": "Cats"}])),
        ("topics must be a list, not the string",),
    ),
    # The pair length is checked by the type rule, which counts items.
    "mock rule of three": (lambda: BackendConfig(mock_rules=[["a", "b", "c"]]),
                           ("mock_rules[0] must hold 2 items",)),
    "mock rule of one": (lambda: BackendConfig(mock_rules=[["a"]]),
                         ("mock_rules[0] must hold 2 items",)),
    "mock rule with a number": (lambda: BackendConfig(mock_rules=[["a", 3]]),
                                ("mock_rules[0][1] must be a string, not 3",)),
    "mock rules an object": (lambda: BackendConfig(mock_rules={"a": "b"}),
                             ("mock_rules must be a list",)),
}


@pytest.mark.parametrize(
    "build, named", [pytest.param(*row, id=case) for case, row in REFUSED_SETTINGS.items()]
)
def test_a_bad_setting_is_refused_naming_it(tmp_path, monkeypatch, build, named):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as refused:
        build()
    assert all(fragment in str(refused.value) for fragment in named), refused.value


# A number or boolean taken for a path would be opened as a file descriptor
# of the process, so these run the CLI in a child process of their own.
PATH_VALUES = [
    ("corpus_path", True, "corpus_path must be a string, not True"),
    ("stopwords_path", 5, "stopwords_path must be a string, not 5"),
    ("backend.mock_rules_path", 7, "backend.mock_rules_path must be a string, not 7"),
]


@pytest.mark.parametrize("key, value, message", PATH_VALUES)
def test_a_number_for_a_path_is_a_usage_error_and_opens_nothing(tmp_path, key, value, message):
    data = mutated(REPLAY_CONFIG, tuple(key.split(".")), value)
    if key.startswith("backend."):
        data["backend"] = {"kind": "mock", "mock_rules_path": value}
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "memetopics.cli", *CONFIG_RUN],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"configuration error: cfg.json: {message}"), done.stderr
    assert "Traceback" not in done.stderr
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_the_readme_names_every_bound():
    text = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
    status = next(par for par in text.split("\n\n") if par.startswith("Exit status"))
    bounded = [key for key, hint in _hints(RunConfig).items() if get_origin(hint) is Annotated]
    bounded += [f"backend.{key}" for key, hint in _hints(BackendConfig).items()
                if get_origin(hint) is Annotated]
    assert {"k", "backend.timeout"} <= set(bounded)
    assert [key for key in bounded if f"`{key}`" not in status] == []


def test_an_integer_epsilon_is_kept_as_is_so_its_digest_does_not_move(tmp_path, monkeypatch):
    cfg = RunConfig.from_dict({"corpus_path": "memes.jsonl", "epsilon": 1})
    assert type(cfg.epsilon) is int
    hashes = {"corpus": "c", "stopwords": None, "demonstrations": None, "cache": None}
    # The digest the configuration had before its fields were type-checked.
    expected = "522f707f4f7560680f638f7f9d2a577f89c930c9fbbac2b0d2860715a33e9d1d"
    assert cfg.config_digest(hashes) == expected
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({**REPLAY_CONFIG, "epsilon": 1}), encoding="utf-8")
    assert main(CONFIG_RUN) == 0


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
        (1, _AtLeastOne, 1),
        (0, Annotated[int, _Bound(0)], 0),
        (1e-9, _Positive, 1e-9),
        (["a"], Annotated[tuple[str, ...], _Bound(1)], ("a",)),
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
        (0, _AtLeastOne),
        (True, _AtLeastOne),
        (-1, Annotated[int, _Bound(0)]),
        (0, _Positive),
        (-1e-9, _Positive),
        ([], Annotated[tuple[str, ...], _Bound(1)]),
        ([1], Annotated[tuple[str, ...], _Bound(1)]),
    ],
)
def test_typed_refuses_any_other_naming_the_key(value, hint):
    with pytest.raises(ValueError, match=r"^key\b"):
        _typed(value, hint, "key")


# -- one mutated node in any input file ----------------------------------------

def input_originals(root: Path) -> dict:
    """The three input files of a mock fixture run as JSON values, by name:
    the config, which names the other two under root, the bundled
    demonstrations and the fixture mock rules."""
    backend = BackendConfig(kind="mock", model_name="mock-model", refusal_phrases=("i cannot",))
    cfg = RunConfig(
        corpus_path=str(FIXTURES_DIR / "memes50.jsonl"),
        extra_blocklist=("lol",),
        demonstrations_path=str(root / "demos.json"),
        backend=backend,
        output_dir=str(root / "run"),
    )
    config = json.loads(json.dumps(cfg.to_dict()))
    del config["backend"]["mock_rules"]
    config["backend"]["mock_rules_path"] = str(root / "rules.json")
    return {
        "config": config,
        "demos": json.loads(BUNDLED_DEMOS.read_text(encoding="utf-8")),
        "rules": json.loads((FIXTURES_DIR / "mock_rules.json").read_text(encoding="utf-8")),
    }


# The path of every node of each input file, which does not depend on root.
INPUT_NODES = {name: list(json_nodes(value)) for name, value in input_originals(Path()).items()}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The paths of the three input files, by name, and their JSON values."""
    root = tmp_path_factory.mktemp("inputs")
    return {name: root / f"{name}.json" for name in INPUT_NODES}, input_originals(root)


def spelled(path) -> str:
    """A node's path as _record names it: keys joined by dots, [i] for a list index."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@settings(max_examples=300, deadline=None)
@example(node=("config", ("backend", "timeout")), new=-1)
@example(node=("demos", (1, "topics")), new=[])
@example(node=("config", ("backend", "record")), new=True)
@given(
    node=st.sampled_from(sorted(INPUT_NODES)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(INPUT_NODES[name]))),
    new=st.sampled_from([*SWAPS, 0, -1]),
)
def test_one_bad_node_in_any_input_file_is_refused_naming_it(input_files, node, new):
    paths, originals = input_files
    name, path = node
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
        if new is DELETE and path and isinstance(path[-1], int):
            path = path[:-1]  # a list item deleted: the list is refused
        assert spelled(path) in message, message
    else:
        for obj in (cfg, cfg.backend):
            for key, hint in _hints(type(obj)).items():
                _typed(getattr(obj, key), hint, key)
