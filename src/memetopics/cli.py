"""Command line entry points for the topic modeling pipeline.

Subcommands mirror the pipeline stages (preprocess, generate, collapse,
represent, evaluate) plus `run` for the whole chain and `sweep` for a
series of K values. Configuration comes from a JSON file (--config) with
individual flags overriding it.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import get_args

from .corpus import _hints, _read_json, _typed
from .llm import BackendConfig
from .pipeline import PipelineStageError, RunConfig, _check_k_values
from .pipeline import run_pipeline, run_stage, sweep

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memetopics",
        description="Topic modeling over meme corpora via chat-completion prompting.",
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        # Each dest is the RunConfig or BackendConfig key it sets, choices its Literal values.
        add = p.add_argument
        add("--config", help="JSON run configuration file")
        add("--corpus", dest="corpus_path", help="corpus file path")
        add("--format", dest="corpus_format", help="corpus file format",
            choices=get_args(_hints(RunConfig)["corpus_format"]))
        add("--stopwords", dest="stopwords_path", help="stopword list file (one word per line)")
        add(
            "--blocklist",
            dest="extra_blocklist",
            type=lambda text: tuple(w.strip() for w in text.split(",") if w.strip()),
            help="comma-separated extra blocklist words",
        )
        add("--min-token-len", type=int, help="minimum token length")
        add("--demos", dest="demonstrations_path", help="demonstrations JSON file")
        add("--num-demos", dest="num_demonstrations", type=int, help="demonstrations per prompt")
        add("--backend-kind", dest="kind", choices=get_args(_hints(BackendConfig)["kind"]))
        add("--endpoint", help="chat-completions endpoint URL")
        add("--model", dest="model_name", help="model name")
        add("--max-tokens", type=int)
        add("--temperature", type=float)
        add("--rpm", dest="requests_per_minute", type=int, help="requests per minute")
        add(
            "--cache",
            dest="cache_path",
            help="response cache path; any backend serves its hits first",
        )
        add(
            "--record", action="store_true", default=None, help="record the answers to cache misses"
        )
        add("--mock-rules", dest="mock_rules_path", help="mock rule table JSON file")
        add("--mock-default", help="mock reply when no rule matches")
        add("--collapse-method", choices=get_args(_hints(RunConfig)["collapse_method"]))
        add("--k", type=int, help="target number of topics")
        add("--window", type=int, help="candidate window size for prompt matching")
        add("--representation", dest="representation_method",
            choices=get_args(_hints(RunConfig)["representation_method"]))
        add("--epsilon", type=float, help="NPMI smoothing constant")
        add("--out", dest="output_dir", help="output directory")

    for name, help_text in [
        ("preprocess", "load and clean the corpus"),
        ("generate", "prompt for per-meme topics"),
        ("collapse", "reduce topics to K clusters"),
        ("represent", "emit ten-word topic representations"),
        ("evaluate", "score representations with NPMI and diversity"),
        ("run", "execute the full pipeline"),
    ]:
        add_common(sub.add_parser(name, help=help_text))

    sweep_parser = sub.add_parser("sweep", help="run the pipeline across several K values")
    add_common(sweep_parser)
    sweep_parser.add_argument(
        "--k-values", required=True, help="comma-separated K values, e.g. 10,20,30"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's JSON (or none) with every given flag written over
    the key it names, validated once by RunConfig.from_dict, so a flag can
    repair the file value it overrides; an error names the file. The
    demonstrations are built here too, so a bad set or count fails before
    any stage runs."""
    if args.config:
        data = _read_json(args.config)
    elif args.corpus_path:
        data = {}
    else:
        raise ValueError("either --config or --corpus is required")
    flags = {key: value for key, value in vars(args).items() if value is not None}
    data.update((key, flags[key]) for key in flags.keys() & _hints(RunConfig).keys())
    # mock_rules_path is the key RunConfig.from_dict loads mock_rules from.
    backend_keys = _hints(BackendConfig).keys() | {"mock_rules_path"}
    backend = {key: flags[key] for key in flags.keys() & backend_keys}
    try:
        data["backend"] = {**_typed(data.get("backend", {}), dict, "backend"), **backend}
        cfg = RunConfig.from_dict(data)
        cfg.demonstrations()
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}" if args.config else str(exc)) from None
    return cfg


def _parse_k_values(text: str) -> list[int]:
    """The K list of `sweep --k-values`: comma-separated integers sweep accepts."""
    try:
        return _check_k_values([int(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ValueError(f"--k-values {text!r}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = config_from_args(args)
        if args.command == "sweep":
            k_values = _parse_k_values(args.k_values)
    except (OSError, ValueError, LookupError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(cfg.output_dir)
    try:
        if args.command == "run":
            run_pipeline(cfg)
            print(f"run complete: {outdir / 'manifest.json'}")
        elif args.command == "sweep":
            rows = sweep(cfg, k_values)
            print(f"sweep complete: {len(rows)} of {len(k_values)} K values succeeded")
            print(f"results: {outdir / 'sweep.csv'}")
            failed = set(k_values) - {row["k"] for row in rows}
            if failed:
                print(f"error: sweep failed at K = {sorted(failed)}; the errors are in "
                      f"{outdir / 'sweep_manifest.json'}", file=sys.stderr)
                return 1
        else:
            run_stage(cfg, args.command)
            print(f"{args.command} complete: artifacts in {outdir}")
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, LookupError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
