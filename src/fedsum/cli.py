"""Command-line entry point.

Subcommands:

* ``run`` — generate a synthetic fleet, execute the full federated
  pipeline over the task horizon, and write releases, events, reach,
  and evaluation artifacts.
* ``sweep`` — fix one window of data and grid over mechanism variants,
  privacy budgets, and noise seeds; write per-cell and summary tables.
* ``validate-query`` — parse and validate a split query, printing its
  canonical form.

Exit codes: 0 success, 1 query/validation failure, 2 bad configuration
or usage, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import ConfigError, ExperimentConfig, parse_config, read_config_data
from .dp import resolve_mechanism
from .outputs import write_run_outputs, write_sweep_outputs
from .query import (
    DEFAULT_TRIPS_STREAM,
    ParseError,
    QueryValidationError,
    parse_and_validate,
    pretty_print,
)
from .server import MissingApprovalError, RetrospectiveQueryError, TaskConfig
from .sim import run_simulation
from .sweep import SweepRow, run_epsilon_sweep, summarize_sweep
from .synth import generate_corpus
from .windows import round_down_window

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_experiment(args: argparse.Namespace) -> ExperimentConfig:
    """Load the experiment file (if any) with CLI overrides applied.

    Overrides land in the raw mapping before validation, so dependent
    defaults — the corpus seed follows the run seed unless pinned in the
    file — stay consistent.
    """
    data = read_config_data(args.config) if args.config is not None else {}
    run = data.get("run") or {}
    if getattr(args, "seed", None) is not None:
        run = {**run, "seed": args.seed}
    if getattr(args, "out", None) is not None:
        run = {**run, "out": args.out}
    if run:
        data = {**data, "run": run}
    return parse_config(data)


def _build_task(config: ExperimentConfig, corpus) -> TaskConfig:
    """Calibrate the mechanism on the first window and pin the task."""
    first = round_down_window(config.corpus.start_time, config.task.alignment)
    proxy = corpus.device_histograms(first)
    resolved = resolve_mechanism(config.mechanism, proxy, corpus.schema)
    return TaskConfig(
        query_id=config.task.query_id,
        query_text=config.task.query_text,
        window_alignment=config.task.alignment,
        first_window_start=first.start,
        num_windows=config.task.num_windows,
        grace_period=config.task.grace_period,
        min_contributions=config.task.min_contributions,
        mechanism=resolved,
        submitted_by=config.task.submitted_by,
        approved_by=config.task.approved_by,
    )


def _swap_into_place(tmp_dir: str, out_dir: str, sentinel: str) -> None:
    """Atomically replace ``out_dir`` with the freshly written tree.

    An existing directory is replaced only when it is empty or carries
    the sentinel file proving it came from a previous run of the same
    command; anything else is refused rather than deleted.
    """
    if os.path.lexists(out_dir):
        if not os.path.isdir(out_dir):
            raise ConfigError(f"output path {out_dir!r} is not a directory")
        if os.listdir(out_dir) and not os.path.exists(
            os.path.join(out_dir, sentinel)
        ):
            raise ConfigError(
                f"refusing to overwrite {out_dir!r}: not a previous output "
                f"directory (no {sentinel})"
            )
        shutil.rmtree(out_dir)
    os.rename(tmp_dir, out_dir)


def _write_atomically(out_dir: str, sentinel: str, write) -> None:
    """Run ``write(tmp_dir)``; publish on success, remove partials on failure."""
    parent = os.path.dirname(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    tmp_dir = os.path.abspath(out_dir).rstrip(os.sep) + ".partial"
    if os.path.lexists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    try:
        write(tmp_dir)
        _swap_into_place(tmp_dir, out_dir, sentinel)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_experiment(args)
    corpus = generate_corpus(config.corpus)
    task = _build_task(config, corpus)
    result = run_simulation(
        corpus,
        task,
        config.fleet,
        seed=config.seed,
        noise_seed=config.mechanism_seed,
    )
    summaries = {}
    _write_atomically(
        config.out_dir,
        "run_summary.json",
        lambda tmp: summaries.update(
            write_run_outputs(
                result, corpus.schema, tmp, config.snapshot(), task.mechanism
            )
        ),
    )
    for window_id in sorted(summaries["windows"]):
        status = summaries["windows"][window_id]
        uploads = summaries["uploads_per_window"][window_id]
        print(f"{window_id}: {status} ({uploads} devices uploaded)")
    print(f"artifacts written to {config.out_dir}")
    return EXIT_OK


def _sweep_variant_worker(
    config: ExperimentConfig, variant: str
) -> list[SweepRow]:
    """Run one variant's full (epsilon, seed) grid; used by --jobs."""
    corpus = generate_corpus(config.corpus)
    window = round_down_window(config.corpus.start_time, config.task.alignment)
    sweep = dataclasses.replace(config.sweep, variants=(variant,))
    return run_epsilon_sweep(corpus, window, sweep)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_experiment(args)
    if args.variants:
        requested = tuple(v.strip() for v in args.variants.split(",") if v.strip())
        config = dataclasses.replace(
            config, sweep=dataclasses.replace(config.sweep, variants=requested)
        )
    variants = config.sweep.variants
    if args.jobs > 1 and len(variants) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(variants))) as pool:
            futures = [
                pool.submit(_sweep_variant_worker, config, v) for v in variants
            ]
            rows: list[SweepRow] = []
            for future in futures:  # submission order == configured order
                rows.extend(future.result())
    else:
        corpus = generate_corpus(config.corpus)
        window = round_down_window(
            config.corpus.start_time, config.task.alignment
        )
        rows = run_epsilon_sweep(corpus, window, config.sweep)
    summary = summarize_sweep(rows)
    out_dir = os.path.join(config.out_dir, "sweep")
    _write_atomically(
        out_dir,
        "results.csv",
        lambda tmp: write_sweep_outputs(rows, summary, tmp, config.snapshot()),
    )
    for entry in summary:
        eps = entry["epsilon"]
        eps_text = "inf" if math.isinf(eps) else f"{eps:g}"
        print(
            f"{entry['variant']} eps={eps_text} {entry['metric']}: "
            f"mean WRE {entry['mean']:.6g} ± {entry['std']:.3g} "
            f"({entry['num_seeds']} seeds)"
        )
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_validate_query(args: argparse.Namespace) -> int:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        text = args.query
    try:
        spec = parse_and_validate(text, DEFAULT_TRIPS_STREAM)
    except (ParseError, QueryValidationError) as exc:
        print(f"invalid query [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(pretty_print(spec), end="")
    if args.json:
        print(
            json.dumps(
                {
                    "client_keys": list(spec.client_key_columns),
                    "metrics": list(spec.metric_columns),
                    "server_keys": list(spec.server_key_columns),
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsum",
        description="Federated group-by-sum simulation with windowed "
        "differential privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline once")
    run.add_argument("--config", help="YAML experiment file")
    run.add_argument("--seed", type=int, help="override run seed")
    run.add_argument("--out", help="override output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid over variants/budgets/seeds")
    sweep.add_argument("--config", help="YAML experiment file")
    sweep.add_argument("--seed", type=int, help="override run seed")
    sweep.add_argument("--out", help="override output directory")
    sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel workers across variants"
    )
    sweep.add_argument(
        "--variants",
        help="comma-separated variant subset (default: all configured)",
    )
    sweep.set_defaults(func=cmd_sweep)

    vq = sub.add_parser("validate-query", help="check a split query")
    group = vq.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="file containing the query text")
    group.add_argument("--query", help="query text inline")
    vq.add_argument(
        "--json", action="store_true", help="also print a JSON summary"
    )
    vq.set_defaults(func=cmd_validate_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RetrospectiveQueryError, MissingApprovalError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, QueryValidationError) as exc:
        print(f"invalid query [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 — map any failure to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
