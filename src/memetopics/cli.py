"""Command line entry points for the topic modeling pipeline.

Subcommands mirror the pipeline stages (preprocess, generate, collapse,
represent, evaluate) plus `run` for the whole chain and `sweep` for a
series of K values. Configuration comes from a JSON file (--config) with
individual flags overriding it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .llm import load_mock_rules
from .pipeline import PipelineStageError, RunConfig, run_pipeline, run_stage, sweep

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memetopics",
        description="Topic modeling over meme corpora via chat-completion prompting.",
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--corpus", help="corpus file path")
        p.add_argument("--format", choices=["jsonl", "csv"], help="corpus file format")
        p.add_argument("--stopwords", help="stopword list file (one word per line)")
        p.add_argument("--blocklist", help="comma-separated extra blocklist words")
        p.add_argument("--min-token-len", type=int, help="minimum token length")
        p.add_argument("--demos", help="demonstrations JSON file")
        p.add_argument("--num-demos", type=int, help="demonstrations per prompt")
        p.add_argument("--backend-kind", choices=["http", "mock", "replay"])
        p.add_argument("--endpoint", help="chat-completions endpoint URL")
        p.add_argument("--model", help="model name")
        p.add_argument("--max-tokens", type=int)
        p.add_argument("--temperature", type=float)
        p.add_argument("--rpm", type=int, help="requests per minute")
        p.add_argument("--cache", help="response cache path; any backend serves its hits first")
        p.add_argument("--record", action="store_true", help="record the answers to cache misses")
        p.add_argument("--mock-rules", help="mock rule table JSON file")
        p.add_argument("--mock-default", help="mock reply when no rule matches")
        p.add_argument("--collapse-method", choices=["pbm", "wsm"])
        p.add_argument("--k", type=int, help="target number of topics")
        p.add_argument("--window", type=int, help="candidate window size for prompt matching")
        p.add_argument("--representation", choices=["ctfidf", "llm"])
        p.add_argument("--epsilon", type=float, help="NPMI smoothing constant")
        p.add_argument("--out", help="output directory")

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
    if args.config:
        cfg = RunConfig.from_file(args.config)
    elif args.corpus:
        cfg = RunConfig(corpus_path=args.corpus)
    else:
        raise ValueError("either --config or --corpus is required")

    overrides = {}
    for flag, field_name in [
        ("corpus", "corpus_path"),
        ("format", "corpus_format"),
        ("stopwords", "stopwords_path"),
        ("min_token_len", "min_token_len"),
        ("demos", "demonstrations_path"),
        ("num_demos", "num_demonstrations"),
        ("collapse_method", "collapse_method"),
        ("k", "k"),
        ("window", "window"),
        ("representation", "representation_method"),
        ("epsilon", "epsilon"),
        ("out", "output_dir"),
    ]:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    if args.blocklist:
        overrides["extra_blocklist"] = tuple(
            w.strip() for w in args.blocklist.split(",") if w.strip()
        )

    backend_overrides = {}
    for flag, field_name in [
        ("backend_kind", "kind"),
        ("endpoint", "endpoint"),
        ("model", "model_name"),
        ("max_tokens", "max_tokens"),
        ("temperature", "temperature"),
        ("rpm", "requests_per_minute"),
        ("cache", "cache_path"),
        ("mock_default", "mock_default"),
    ]:
        value = getattr(args, flag, None)
        if value is not None:
            backend_overrides[field_name] = value
    if getattr(args, "record", False):
        backend_overrides["record"] = True
    if getattr(args, "mock_rules", None):
        backend_overrides["mock_rules"] = load_mock_rules(args.mock_rules)
    if backend_overrides:
        overrides["backend"] = dataclasses.replace(cfg.backend, **backend_overrides)

    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _parse_k_values(text: str) -> list[int]:
    """The K list of `sweep --k-values`: comma-separated integers, at least
    one, each >= 1."""
    try:
        k_values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--k-values must be comma-separated integers, got {text!r}") from None
    if not k_values:
        raise ValueError("--k-values must name at least one K")
    if min(k_values) < 1:
        raise ValueError(f"--k-values: every K must be >= 1, got {min(k_values)}")
    return k_values


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
    except (OSError, ValueError, TypeError) as exc:
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
        else:
            run_stage(cfg, args.command)
            print(f"{args.command} complete: artifacts in {outdir}")
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, LookupError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
