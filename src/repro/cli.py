"""Command-line interface: ``python -m repro <command> ...``.

The CLI wraps the most common library workflows so the benchmark can be
driven without writing Python:

* ``python -m repro datasets`` — list the 45-dataset registry (plus the
  recommendation and text extensions),
* ``python -m repro preprocessors`` — list the default and extension
  preprocessors,
* ``python -m repro algorithms`` — list the 15 search algorithms (Table 3)
  and the extension searchers,
* ``python -m repro search`` — run one search on one dataset/model and
  optionally save the result as JSON,
* ``python -m repro compare`` — run several algorithms on one dataset under
  an equal budget and print their ranking,
* ``python -m repro experiment`` — run a (dataset x model x algorithm)
  grid, optionally fanned out on a pool of worker processes,
* ``python -m repro evalcache`` — inspect (``stats``) or prune/compact
  (``prune --keep-fingerprints N``) a persistent evaluation-cache root,
* ``python -m repro metafeatures`` — print the 40 meta-features of a dataset,
* ``python -m repro trace`` — summarize (``summary``, the paper's Table-5
  per-phase breakdown) or export (``export --chrome``) the telemetry trace
  a ``--telemetry trace --telemetry-dir DIR`` run wrote,
* ``python -m repro lint`` — run the AST contract checks (determinism,
  copy-on-write, telemetry counters, atomic IO, ... — the ``RPRxxx``
  rules, see ``repro lint --list-rules``) over source trees; ``--json``
  emits the machine-readable report CI archives,
* ``python -m repro worker`` — run one distributed-execution worker
  daemon: it registers with a ``--backend remote`` search's coordinator,
  leases evaluations, heartbeats and streams results back; it never opens
  the persistent eval cache, which only the coordinator writes, so it
  needs no access to the search's ``--cache-dir``,
* ``python -m repro serve`` — run the search-as-a-service HTTP server
  (:mod:`repro.serve`): concurrent sessions over one shared engine and
  cache root, per-tenant trial quotas, durable per-session checkpoints
  (restarting on the same ``--state-dir`` resumes every in-flight
  session bit-for-bit),
* ``python -m repro submit`` / ``status`` / ``events`` — thin clients for
  a running server: submit a search, inspect sessions, stream trial
  events (``--follow`` long-polls until the session finishes).

Runtime configuration resolves into one
:class:`~repro.core.context.ExecutionContext` per invocation, layered as
``REPRO_*`` environment variables < ``--context FILE`` (a JSON document of
context fields) < explicit flags.  ``search`` and ``compare`` accept
``--n-jobs`` and ``--backend`` (serial / process / remote) to run
evaluation batches in parallel; ``experiment`` accepts them too, but fans
its grid out on a process pool of ``--n-jobs`` workers, not on a backend,
and runs it inline unless the backend resolves to ``process``.  Results
are identical for every worker count.  ``search`` and
``experiment`` additionally accept ``--async`` for completion-driven
scheduling (the algorithm proposes while earlier evaluations are still in
flight — pair with ``--algorithm asha``), ``--cache-dir`` to persist every
pipeline evaluation across runs (bit-for-bit identical results, zero
re-training on repeats) and ``--prefix-cache-mb`` to reuse fitted pipeline
*prefixes* within a run (identical results, bounded memory).

Long searches are resumable: ``repro search --checkpoint run.checkpoint``
snapshots the session every ``--checkpoint-every`` trials, and
``--resume`` continues a killed run from that file — bit-for-bit identical
to a run that was never interrupted (see
:class:`~repro.search.session.SearchSession`).

Every command writes plain text to stdout and returns a process exit code,
so the CLI composes with shell pipelines and CI jobs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-FP (EDBT 2024) reproduction — automated feature preprocessing.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser(
        "datasets", help="list the benchmark dataset registry")
    datasets.add_argument("--kind", choices=("tabular", "ctr", "text"),
                          default="tabular",
                          help="which registry to list (default: tabular)")

    subparsers.add_parser("preprocessors", help="list feature preprocessors")

    algorithms = subparsers.add_parser(
        "algorithms", help="list search algorithms and their taxonomy")
    algorithms.add_argument("--category", default=None,
                            help="only show algorithms of this category")

    def add_parallel_options(command, what: str) -> None:
        from repro.engine import BACKEND_NAMES

        command.add_argument("--context", default=None, metavar="FILE",
                             help="JSON file of ExecutionContext fields "
                                  "(backend, n_jobs, cache_dir, ...); "
                                  "explicit flags override it, REPRO_* "
                                  "environment variables fill the gaps")
        command.add_argument("--n-jobs", type=int, default=None,
                             help=f"parallel workers for {what} "
                                  "(-1 = all cores, default 1 = serial)")
        command.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                             help="execution backend (default: process when "
                                  "--n-jobs asks for parallelism)")
        command.add_argument("--remote-coordinator", default=None,
                             metavar="HOST:PORT",
                             help="with --backend remote: the address the "
                                  "coordinator binds and workers dial "
                                  "(default 127.0.0.1:0, an ephemeral "
                                  "loopback port printed at startup)")
        command.add_argument("--worker-timeout", type=float, default=None,
                             metavar="S",
                             help="with --backend remote: seconds without a "
                                  "heartbeat before a worker is declared "
                                  "dead (default 10)")

    def add_async_option(command) -> None:
        command.add_argument("--async", dest="async_mode", action="store_true",
                             help="completion-driven search scheduling: keep "
                                  "--n-jobs evaluations in flight and propose "
                                  "while earlier ones still run (identical "
                                  "results when evaluation is serial)")

    def add_cache_option(command) -> None:
        command.add_argument("--cache-dir", default=None,
                             help="directory for the persistent cross-run "
                                  "evaluation cache (default: no persistence)")

    def add_prefix_cache_option(command) -> None:
        command.add_argument("--prefix-cache-mb", type=float, default=None,
                             metavar="MB",
                             help="byte budget (in MiB) for the in-memory "
                                  "prefix-transform cache: pipelines sharing "
                                  "a step prefix only pay Prep for their "
                                  "uncached suffix, with identical results "
                                  "(default: no prefix reuse)")

    def add_telemetry_options(command) -> None:
        from repro.telemetry import TELEMETRY_MODES

        command.add_argument("--telemetry", choices=TELEMETRY_MODES,
                             default=None,
                             help="observability level: counters (metrics "
                                  "snapshots + heartbeat) or trace (adds "
                                  "per-phase span events; needs "
                                  "--telemetry-dir). never changes results "
                                  "(default: off)")
        command.add_argument("--telemetry-dir", default=None, metavar="DIR",
                             help="directory for telemetry artifacts "
                                  "(trace.jsonl, heartbeat-<id>.json)")

    search = subparsers.add_parser("search", help="run one Auto-FP search")
    search.add_argument("--dataset", default=None,
                        help="registry dataset name (required unless "
                             "--resume, which reads it from the checkpoint)")
    search.add_argument("--model", default="lr", help="downstream model (lr/xgb/mlp/...)")
    search.add_argument("--algorithm", default="pbt", help="search algorithm name")
    search.add_argument("--max-trials", type=int, default=40,
                        help="evaluation budget (default 40)")
    search.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    search.add_argument("--seed", type=int, default=0, help="random seed")
    search.add_argument("--output", default=None,
                        help="optional path for the JSON result")
    search.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="session checkpoint file: the run snapshots "
                             "itself every --checkpoint-every trials, so a "
                             "killed search can continue with --resume")
    search.add_argument("--checkpoint-every", type=int, default=10,
                        metavar="N",
                        help="trials between automatic checkpoints "
                             "(default 10; needs --checkpoint)")
    search.add_argument("--resume", action="store_true",
                        help="continue the run saved in --checkpoint "
                             "(bit-for-bit identical to an uninterrupted "
                             "run); dataset/model/seed, the execution "
                             "context and the remaining budget all come "
                             "from the checkpoint — runtime flags are "
                             "ignored")
    add_parallel_options(search, "evaluation batches")
    add_async_option(search)
    add_cache_option(search)
    add_prefix_cache_option(search)
    add_telemetry_options(search)

    compare = subparsers.add_parser(
        "compare", help="compare several algorithms on one dataset")
    compare.add_argument("--dataset", required=True, help="registry dataset name")
    compare.add_argument("--model", default="lr", help="downstream model")
    compare.add_argument("--algorithms", nargs="+",
                         default=["rs", "pbt", "tevo_h", "tpe"],
                         help="algorithms to compare (default: rs pbt tevo_h tpe)")
    compare.add_argument("--max-trials", type=int, default=30,
                         help="evaluation budget per algorithm (default 30)")
    compare.add_argument("--scale", type=float, default=1.0,
                         help="dataset scale factor (default 1.0)")
    compare.add_argument("--seed", type=int, default=0, help="random seed")
    add_parallel_options(compare, "evaluation batches")

    experiment = subparsers.add_parser(
        "experiment",
        help="run a (dataset x model x algorithm) grid, optionally in parallel")
    experiment.add_argument("--datasets", nargs="+", required=True,
                            help="registry dataset names")
    experiment.add_argument("--models", nargs="+", default=["lr"],
                            help="downstream models (default: lr)")
    experiment.add_argument("--algorithms", nargs="+",
                            default=["rs", "pbt", "tevo_h"],
                            help="search algorithms (default: rs pbt tevo_h)")
    experiment.add_argument("--max-trials", type=int, default=15,
                            help="evaluation budget per run (default 15)")
    experiment.add_argument("--repeats", type=int, default=1,
                            help="independent repetitions per cell (default 1)")
    experiment.add_argument("--scale", type=float, default=1.0,
                            help="dataset scale factor (default 1.0)")
    experiment.add_argument("--seed", type=int, default=0, help="base random seed")
    add_parallel_options(experiment, "the grid fan-out")
    add_async_option(experiment)
    add_cache_option(experiment)
    add_prefix_cache_option(experiment)
    add_telemetry_options(experiment)

    evalcache = subparsers.add_parser(
        "evalcache",
        help="inspect or prune a persistent evaluation-cache root")
    evalcache_actions = evalcache.add_subparsers(dest="action", required=True)
    evalcache_stats = evalcache_actions.add_parser(
        "stats", help="per-fingerprint entry/shard/byte counts")
    evalcache_stats.add_argument("--cache-dir", required=True,
                                 help="cache root to inspect")
    evalcache_prune = evalcache_actions.add_parser(
        "prune",
        help="keep the N most recently used fingerprints and compact "
             "their append-logs (rewrites live entries, drops duplicate "
             "and torn lines)")
    evalcache_prune.add_argument("--cache-dir", required=True,
                                 help="cache root to prune")
    evalcache_prune.add_argument("--keep-fingerprints", type=int, required=True,
                                 metavar="N",
                                 help="how many most-recently-used "
                                      "fingerprints to keep")

    lint = subparsers.add_parser(
        "lint",
        help="run the repro static-analysis contract checks (RPR rules)")
    lint.add_argument("paths", nargs="*", default=["src/repro", "tests"],
                      metavar="PATH",
                      help="files or directories to lint "
                           "(default: src/repro tests)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(default: every registered rule)")
    lint.add_argument("--json", dest="as_json", action="store_true",
                      help="emit the version-stamped JSON report instead "
                           "of text")
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="write the report to FILE (atomically) instead "
                           "of stdout")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue (id, title, "
                           "rationale) and exit")

    metafeatures = subparsers.add_parser(
        "metafeatures", help="print the 40 meta-features of a dataset")
    metafeatures.add_argument("--dataset", required=True, help="registry dataset name")
    metafeatures.add_argument("--scale", type=float, default=1.0,
                              help="dataset scale factor (default 1.0)")

    trace = subparsers.add_parser(
        "trace", help="summarize or export a run's telemetry trace")
    trace_actions = trace.add_subparsers(dest="action", required=True)
    trace_summary = trace_actions.add_parser(
        "summary",
        help="per-phase / per-algorithm time breakdown (the paper's "
             "Table 5 shape)")
    trace_summary.add_argument("--trace", required=True, metavar="PATH",
                               help="trace.jsonl file, or the telemetry "
                                    "directory containing one")
    trace_export = trace_actions.add_parser(
        "export", help="convert a trace to another format")
    trace_export.add_argument("--trace", required=True, metavar="PATH",
                              help="trace.jsonl file, or the telemetry "
                                   "directory containing one")
    trace_export.add_argument("--chrome", action="store_true",
                              help="Chrome trace-event JSON, viewable in "
                                   "about:tracing / perfetto")
    trace_export.add_argument("--output", default=None, metavar="FILE",
                              help="output file (default: stdout)")

    serve = subparsers.add_parser(
        "serve",
        help="run the search-as-a-service HTTP server (JSON over HTTP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8642)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="root for per-session state (checkpoints, "
                            "manifests, telemetry); restarting the server "
                            "on the same directory resumes every in-flight "
                            "session (default: a fresh temp dir)")
    serve.add_argument("--max-sessions", type=int, default=2, metavar="N",
                       help="concurrently running sessions; further "
                            "submissions queue (default 2)")
    serve.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                       help="per-tenant trial quota enforced at submission "
                            "time (default: unlimited)")
    serve.add_argument("--tenant-weight", action="append", default=None,
                       metavar="TENANT=W", dest="tenant_weights",
                       help="fair-share weight for a tenant's queued "
                            "sessions (repeatable; unlisted tenants get "
                            "weight 1; higher = more of the session slots)")
    serve.add_argument("--checkpoint-every", type=int, default=5, metavar="N",
                       help="trials between automatic per-session "
                            "checkpoints (default 5)")
    add_parallel_options(serve, "the shared evaluation engine")
    add_cache_option(serve)
    add_prefix_cache_option(serve)

    def add_server_option(command) -> None:
        command.add_argument("--server", default="http://127.0.0.1:8642",
                             metavar="URL",
                             help="base URL of the `repro serve` server "
                                  "(default http://127.0.0.1:8642)")

    submit = subparsers.add_parser(
        "submit", help="submit a search to a running `repro serve` server")
    add_server_option(submit)
    submit.add_argument("--dataset", required=True,
                        help="registry dataset name")
    submit.add_argument("--model", default="lr",
                        help="downstream model (default lr)")
    submit.add_argument("--algorithm", default="rs",
                        help="search algorithm name (default rs)")
    submit.add_argument("--max-trials", type=int, default=None,
                        help="evaluation budget (default: the server's "
                             "default budget)")
    submit.add_argument("--seed", type=int, default=0, help="random seed")
    submit.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    submit.add_argument("--tenant", default="default",
                        help="tenant name for quota accounting "
                             "(default: 'default')")
    submit.add_argument("--wait", action="store_true",
                        help="block until the session finishes and print "
                             "the final status")

    status = subparsers.add_parser(
        "status", help="show sessions of a running `repro serve` server")
    add_server_option(status)
    status.add_argument("--session", default=None, metavar="ID",
                        help="one session's detailed status "
                             "(default: list all sessions)")

    events = subparsers.add_parser(
        "events", help="stream a serve session's trial events")
    add_server_option(events)
    events.add_argument("--session", required=True, metavar="ID",
                        help="session id to stream")
    events.add_argument("--after", type=int, default=0, metavar="N",
                        help="skip the first N events (default 0)")
    events.add_argument("--follow", action="store_true",
                        help="long-poll for new events until the session "
                             "finishes")
    events.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="per-poll wait in seconds with --follow "
                             "(default 10)")

    worker = subparsers.add_parser(
        "worker",
        help="run one distributed-execution worker daemon "
             "(pairs with a --backend remote search)")
    worker.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                        help="address of the search's remote coordinator "
                             "(printed by a --backend remote run, or fixed "
                             "via --remote-coordinator)")
    worker.add_argument("--cores", type=int, default=None, metavar="N",
                        help="concurrent evaluations this worker leases "
                             "(default: all cores)")
    worker.add_argument("--connect-timeout", type=float, default=10.0,
                        metavar="S",
                        help="seconds to keep retrying the initial "
                             "connection, so workers may start before the "
                             "coordinator (default 10)")
    return parser


# ----------------------------------------------------------------- commands
def _cmd_datasets(args, out) -> int:
    if args.kind == "ctr":
        from repro.deep import CTR_DATASET_REGISTRY

        out.write(f"{'name':<12} {'samples':>8} {'numeric':>8}  description\n")
        for info in CTR_DATASET_REGISTRY.values():
            out.write(f"{info.name:<12} {info.n_samples:>8d} "
                      f"{info.n_numeric_features:>8d}  {info.description}\n")
        return 0
    if args.kind == "text":
        from repro.text import TEXT_DATASET_REGISTRY

        out.write(f"{'name':<12} {'documents':>9} {'classes':>8}  description\n")
        for info in TEXT_DATASET_REGISTRY.values():
            out.write(f"{info.name:<12} {info.n_documents:>9d} "
                      f"{info.n_classes:>8d}  {info.description}\n")
        return 0

    from repro.datasets import get_dataset_info, list_datasets

    out.write(f"{'name':<26} {'rows':>6} {'cols':>6} {'classes':>8} "
              f"{'paper rows':>11} {'paper cols':>11}\n")
    for name in list_datasets():
        info = get_dataset_info(name)
        out.write(f"{info.name:<26} {info.n_samples:>6d} {info.n_features:>6d} "
                  f"{info.n_classes:>8d} {info.paper_rows:>11d} {info.paper_cols:>11d}\n")
    return 0


def _cmd_preprocessors(args, out) -> int:
    from repro.preprocessing import (
        DEFAULT_PREPROCESSOR_NAMES,
        EXTENDED_PREPROCESSOR_NAMES,
        get_extended_preprocessor_class,
        get_preprocessor_class,
    )

    out.write("default preprocessors (Section 2.1):\n")
    for name in DEFAULT_PREPROCESSOR_NAMES:
        cls = get_preprocessor_class(name)
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        out.write(f"  {name:<22} {summary}\n")
    out.write("\nextension preprocessors (opt-in):\n")
    for name in EXTENDED_PREPROCESSOR_NAMES:
        cls = get_extended_preprocessor_class(name)
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        out.write(f"  {name:<22} {summary}\n")
    return 0


def _cmd_algorithms(args, out) -> int:
    from repro.search import EXTENSION_ALGORITHM_CLASSES, category_of, taxonomy_table

    rows = taxonomy_table()
    if args.category:
        rows = [row for row in rows if row["category"] == args.category]
        if not rows:
            out.write(f"no algorithms in category {args.category!r}\n")
            return 1
    out.write(f"{'name':<12} {'category':<12} {'area':<5} {'surrogate':<20} "
              f"{'initialization':<20}\n")
    for row in rows:
        out.write(f"{row['name']:<12} {row['category']:<12} {row['area']:<5} "
                  f"{row['surrogate_model']:<20} {row['initialization']:<20}\n")
    if not args.category:
        out.write("\nextension searchers (not part of the paper's 15): "
                  + ", ".join(sorted(EXTENSION_ALGORITHM_CLASSES)) + "\n")
    # `category_of` validates the names shown above stay registered.
    for row in rows:
        category_of(row["name"])
    return 0


def _prefix_cache_bytes(args) -> int | None:
    """Convert the ``--prefix-cache-mb`` option to a byte budget."""
    if getattr(args, "prefix_cache_mb", None) is None:
        return None
    return int(args.prefix_cache_mb * 1024 * 1024)


def _resolve_context(args):
    """Build the invocation's ExecutionContext from env < file < flags."""
    import json
    from pathlib import Path

    from repro.core.context import ExecutionContext

    context = ExecutionContext.from_env()
    if getattr(args, "context", None):
        data = json.loads(Path(args.context).read_text(encoding="utf-8"))
        context = context.layer(data)
    overrides: dict = {}
    if getattr(args, "n_jobs", None) is not None:
        overrides["n_jobs"] = args.n_jobs
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "async_mode", False):
        overrides["async_mode"] = True
    prefix_bytes = _prefix_cache_bytes(args)
    if prefix_bytes is not None:
        overrides["prefix_cache_bytes"] = prefix_bytes
    if getattr(args, "telemetry", None) is not None:
        overrides["telemetry_mode"] = args.telemetry
    if getattr(args, "telemetry_dir", None):
        overrides["telemetry_dir"] = args.telemetry_dir
    if getattr(args, "remote_coordinator", None):
        overrides["remote_coordinator"] = args.remote_coordinator
    if getattr(args, "worker_timeout", None) is not None:
        overrides["worker_timeout"] = args.worker_timeout
    return context.replace(**overrides) if overrides else context


def _remote_address(engine) -> str | None:
    """The coordinator address of a remote-backed engine, else ``None``."""
    backend = getattr(engine, "backend", None)
    return getattr(backend, "coordinator_address", None)


def _cmd_search(args, out) -> int:
    from repro.core.problem import AutoFPProblem
    from repro.search import make_search_algorithm
    from repro.search.session import SearchSession

    context = _resolve_context(args)
    checkpoint = args.checkpoint
    if args.resume:
        if checkpoint is None:
            out.write("error: --resume needs --checkpoint FILE\n")
            return 2
        ignored = [flag for flag, given in (
            ("--context", args.context is not None),
            ("--n-jobs", args.n_jobs is not None),
            ("--backend", args.backend is not None),
            ("--cache-dir", bool(args.cache_dir)),
            ("--async", args.async_mode),
            ("--prefix-cache-mb", args.prefix_cache_mb is not None),
            ("--telemetry", args.telemetry is not None),
            ("--telemetry-dir", bool(args.telemetry_dir)),
        ) if given]
        if ignored:
            # Don't silently run under a different configuration than the
            # user asked for: the stored context governs a resumed run.
            out.write("note         : " + ", ".join(ignored) + " ignored — "
                      "a resumed run uses the checkpoint's stored context "
                      "and budget\n")
        # The checkpoint carries the problem (provenance), the runtime
        # context and the remaining budget of the interrupted run.
        session = SearchSession.resume(
            checkpoint, checkpoint_path=checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
        problem = session.problem
        out.write(f"resuming     : {checkpoint} "
                  f"({len(session.result)} trials already done)\n")
        result = session.run()
        baseline = result.baseline_accuracy
        if baseline is None:
            baseline = problem.baseline_accuracy()
    else:
        if args.dataset is None:
            out.write("error: --dataset is required (or pass --resume)\n")
            return 2
        problem = AutoFPProblem.from_registry(
            args.dataset, args.model, scale=args.scale,
            random_state=args.seed, context=context,
        )
        baseline = problem.baseline_accuracy()
        algorithm = make_search_algorithm(args.algorithm,
                                          random_state=args.seed)
        session = SearchSession(
            problem, algorithm, context=context,
            checkpoint_path=checkpoint,
            checkpoint_every=(args.checkpoint_every if checkpoint else None),
        )
        session.result.baseline_accuracy = baseline
        address = _remote_address(problem.evaluator.engine)
        if address is not None:
            # Workers need this line to dial in; flush before blocking.
            out.write(f"coordinator  : {address} (join with "
                      f"`repro worker --coordinator {address}`)\n")
            if hasattr(out, "flush"):
                out.flush()
        result = session.run(max_trials=args.max_trials)

    problem.evaluator.engine.close()

    scale = (problem.provenance or {}).get("scale", args.scale) \
        if args.resume else args.scale
    out.write(f"dataset      : {problem.name} (scale {scale})\n")
    out.write(f"algorithm    : {result.algorithm}\n")
    # A resumed run executes under the checkpoint's stored context.
    out.write(f"execution    : {session.context.describe()}\n")
    out.write(f"trials       : {len(result)}\n")
    out.write(f"baseline acc : {baseline:.4f}\n")
    out.write(f"best acc     : {result.best_accuracy:.4f}\n")
    out.write(f"best pipeline: {result.best_pipeline.describe()}\n")
    if session.context.cache_dir:
        info = problem.evaluator.cache_info()
        out.write(f"eval cache   : {info['misses']} uncached, "
                  f"{info['hits']} cached "
                  f"({info.get('disk_hits', 0)} from "
                  f"{session.context.cache_dir})\n")
    if problem.evaluator.prefix_cache is not None:
        info = problem.evaluator.cache_info()
        # Counters include reuse inside process-pool workers (their private
        # caches report per-evaluation deltas, merged back with results).
        out.write(f"prefix cache : {info['prefix_hits']} prefix hits, "
                  f"{info['steps_reused']} steps reused, "
                  f"{info['bytes_held']} bytes held\n")
    if session.last_checkpoint_path is not None:
        out.write(f"checkpoint   : {session.last_checkpoint_path} "
                  f"(resume with --resume)\n")
    if session.context.telemetry_mode == "trace" \
            and session.context.telemetry_dir is not None:
        from pathlib import Path

        from repro.telemetry import TRACE_FILE_NAME

        trace_path = Path(session.context.telemetry_dir) / TRACE_FILE_NAME
        out.write(f"trace        : {trace_path} "
                  f"(summarize with `repro trace summary --trace "
                  f"{trace_path}`)\n")

    if args.output:
        from repro.io import save_search_result

        path = save_search_result(result, args.output)
        out.write(f"saved result : {path}\n")
    return 0


def _cmd_compare(args, out) -> int:
    from repro.analysis import format_ranking_table, rank_with_ties
    from repro.core.problem import AutoFPProblem
    from repro.search import make_search_algorithm

    problem = AutoFPProblem.from_registry(
        args.dataset, args.model, scale=args.scale, random_state=args.seed,
        context=_resolve_context(args),
    )
    baseline = problem.baseline_accuracy()
    accuracies: dict[str, float] = {}
    for name in args.algorithms:
        result = make_search_algorithm(name, random_state=args.seed).search(
            problem, max_trials=args.max_trials
        )
        accuracies[name] = result.best_accuracy
    problem.evaluator.engine.close()

    out.write(f"dataset {args.dataset}, model {args.model}, "
              f"budget {args.max_trials} trials, baseline {baseline:.4f}\n\n")
    out.write(f"{'algorithm':<12} {'best accuracy':>14}\n")
    for name, accuracy in sorted(accuracies.items(), key=lambda kv: -kv[1]):
        out.write(f"{name:<12} {accuracy:>14.4f}\n")

    ranking = rank_with_ties(accuracies)
    out.write("\n" + format_ranking_table(ranking, title="ranking (1 = best):") + "\n")
    return 0


def _cmd_experiment(args, out) -> int:
    from repro.analysis import format_ranking_table
    from repro.experiments import ExperimentConfig, run_experiment

    context = _resolve_context(args)
    config = ExperimentConfig(
        datasets=tuple(args.datasets),
        models=tuple(args.models),
        algorithms=tuple(args.algorithms),
        max_trials=args.max_trials,
        n_repeats=args.repeats,
        random_state=args.seed,
        dataset_scale=args.scale,
        context=context,
    )
    out.write(f"grid         : {len(config.datasets)} datasets x "
              f"{len(config.models)} models x {len(config.algorithms)} "
              f"algorithms x {config.n_repeats} repeats = {config.n_runs()} runs\n")
    out.write(f"execution    : {config.context.describe()}\n\n")

    outcome = run_experiment(config)
    if config.context.cache_dir:
        out.write(f"eval cache   : {outcome.uncached_evaluations} uncached "
                  f"evaluations (cache {config.context.cache_dir})\n\n")

    header = f"{'dataset':<16} {'model':<6} {'baseline':>9}"
    for algorithm in config.algorithms:
        header += f" {algorithm:>10}"
    out.write(header + "\n")
    for scenario in outcome.scenarios:
        row = (f"{scenario.dataset:<16} {scenario.model:<6} "
               f"{scenario.baseline_accuracy:>9.4f}")
        for algorithm in config.algorithms:
            row += f" {scenario.accuracies[algorithm]:>10.4f}"
        out.write(row + "\n")

    rankings = outcome.rankings(min_improvement=-100.0)  # rank every scenario
    out.write("\n" + format_ranking_table(rankings["overall"],
                                          title="average ranking (1 = best):") + "\n")
    return 0


def _cmd_evalcache(args, out) -> int:
    from repro.io.evalcache import cache_stats, prune_cache_root

    if args.action == "stats":
        rows = cache_stats(args.cache_dir)
        if not rows:
            out.write(f"no cache fingerprints under {args.cache_dir}\n")
            return 0
        out.write(f"{'fingerprint':<16} {'shards':>6} {'entries':>8} "
                  f"{'lines':>8} {'stale':>6} {'bytes':>10}\n")
        for row in rows:
            out.write(f"{row['fingerprint'][:12] + '...':<16} "
                      f"{row['shard_files']:>6d} {row['entries']:>8d} "
                      f"{row['lines']:>8d} "
                      f"{row['lines'] - row['entries']:>6d} "
                      f"{row['bytes']:>10d}\n")
        out.write(f"\n{len(rows)} fingerprint(s); 'stale' lines (duplicate "
                  "or torn appends) are removed by `repro evalcache prune`\n")
        return 0

    summary = prune_cache_root(args.cache_dir,
                               keep_fingerprints=args.keep_fingerprints)
    out.write(f"kept         : {len(summary['kept'])} fingerprint(s)\n")
    out.write(f"removed      : {len(summary['removed'])} fingerprint(s)\n")
    out.write(f"compacted    : {summary['lines_removed']} stale append-log "
              "line(s) rewritten away\n")
    return 0


def _resolve_trace_path(raw):
    """Accept either a trace.jsonl file or the directory holding one."""
    from pathlib import Path

    from repro.telemetry import TRACE_FILE_NAME

    path = Path(raw)
    if path.is_dir():
        return path / TRACE_FILE_NAME
    return path


def _cmd_trace(args, out) -> int:
    import json

    from repro.telemetry import read_trace, summarize_trace, to_chrome_trace

    events = read_trace(_resolve_trace_path(args.trace))

    if args.action == "export":
        if not args.chrome:
            out.write("error: `repro trace export` needs a format flag "
                      "(--chrome)\n")
            return 2
        document = json.dumps(to_chrome_trace(events), indent=2)
        if args.output:
            from repro.io.serialization import atomic_write_text

            path = atomic_write_text(args.output, document)
            out.write(f"wrote {len(events)} event(s) to {path}\n")
        else:
            out.write(document + "\n")
        return 0

    summary = summarize_trace(events)
    algorithms, overall = summary["algorithms"], summary["overall"]
    if not events:
        out.write("empty trace: no events found\n")
        return 1
    out.write(f"{len(events)} event(s), {overall['trials']} trial(s)\n\n")
    if algorithms:
        out.write(f"{'algorithm':<14} {'trials':>6} {'total(s)':>9} "
                  f"{'pick%':>7} {'prep%':>7} {'train%':>7}\n")
        rows = sorted(algorithms.items()) + [("overall", overall)]
        for name, row in rows:
            out.write(f"{name:<14} {row['trials']:>6d} {row['total']:>9.3f} "
                      f"{row['pick_pct']:>7.1f} {row['prep_pct']:>7.1f} "
                      f"{row['train_pct']:>7.1f}\n")
    else:
        out.write("no trial events (was the search run with "
                  "--telemetry trace?)\n")
    if summary["spans"]:
        out.write(f"\n{'span':<14} {'count':>6} {'total(s)':>9}\n")
        for name, tally in sorted(summary["spans"].items()):
            out.write(f"{name:<14} {tally['count']:>6d} "
                      f"{tally['total']:>9.3f}\n")
    return 0


def _cmd_lint(args, out) -> int:
    from pathlib import Path

    from repro.lint import (
        describe_rules,
        lint_paths,
        make_rules,
        render_json,
        render_text,
    )

    if args.list_rules:
        out.write(describe_rules(make_rules()))
        return 0
    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",")
                    if part.strip()]
        make_rules(rule_ids)  # validate ids before walking anything
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        out.write("error: no such lint target(s): "
                  + ", ".join(missing) + "\n")
        return 2

    report = lint_paths(args.paths, rules=rule_ids)
    if args.as_json:
        document = render_json(report)
        if args.output:
            from repro.io.serialization import atomic_write_text

            path = atomic_write_text(args.output, document)
            out.write(f"wrote {len(report.findings)} finding(s) to {path}\n")
        else:
            out.write(document)
    else:
        if args.output:
            import io

            buffer = io.StringIO()
            render_text(report, buffer)
            from repro.io.serialization import atomic_write_text

            path = atomic_write_text(args.output, buffer.getvalue())
            out.write(f"wrote {len(report.findings)} finding(s) to {path}\n")
        else:
            render_text(report, out)
    return 0 if report.clean else 1


def _cmd_metafeatures(args, out) -> int:
    from repro.datasets import load_dataset
    from repro.metafeatures import compute_metafeatures

    X, y = load_dataset(args.dataset, scale=args.scale)
    features = compute_metafeatures(X, y)
    width = max(len(name) for name in features)
    for name, value in features.items():
        out.write(f"{name:<{width}} {value: .6g}\n")
    return 0


def _cmd_serve(args, out) -> int:
    import signal

    from repro.serve import SessionManager, build_server

    context = _resolve_context(args)
    tenant_weights: dict = {}
    for item in args.tenant_weights or ():
        tenant, sep, weight = item.partition("=")
        if not sep or not tenant:
            out.write(f"error: bad --tenant-weight {item!r}: "
                      f"expected TENANT=WEIGHT\n")
            return 2
        try:
            tenant_weights[tenant] = float(weight)
        except ValueError:
            out.write(f"error: bad --tenant-weight {item!r}: "
                      f"{weight!r} is not a number\n")
            return 2
    manager = SessionManager(
        base_context=context,
        state_dir=args.state_dir,
        max_sessions=args.max_sessions,
        tenant_quota=args.tenant_quota,
        checkpoint_every=args.checkpoint_every,
        tenant_weights=tenant_weights or None,
    )
    server = build_server(manager, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    out.write(f"serving      : http://{host}:{port}\n")
    out.write(f"state dir    : {manager.state_dir}\n")
    out.write(f"execution    : {context.describe()}\n")
    out.write(f"sessions     : max {manager.max_sessions} concurrent"
              + (f", {manager.tenant_quota} trials/tenant"
                 if manager.tenant_quota else "") + "\n")
    if hasattr(out, "flush"):
        out.flush()  # the port line is what `repro submit` scripts wait for

    def _terminate(signum, frame) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        out.write("interrupt    : checkpointing in-flight sessions\n")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        manager.shutdown()
    out.write(f"stopped      : state kept under {manager.state_dir} "
              f"(serve again with --state-dir to resume)\n")
    return 0


def _cmd_worker(args, out) -> int:
    from repro.engine import default_worker_count
    from repro.engine.remote import RemoteWorker

    cores = args.cores if args.cores is not None else default_worker_count()
    worker = RemoteWorker(args.coordinator, cores=cores,
                          connect_timeout=args.connect_timeout)
    out.write(f"worker       : dialing {args.coordinator} "
              f"({cores} core(s))\n")
    if hasattr(out, "flush"):
        out.flush()
    # No SIGTERM handler on purpose: a killed worker dies *ungracefully*,
    # which is exactly the failure the coordinator's heartbeat detection
    # and crash recovery exist for (and what the CI smoke asserts).
    code = worker.run()
    out.write("worker       : coordinator shut down, exiting\n")
    return code


def _cmd_submit(args, out) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.server)
    spec: dict = {
        "dataset": args.dataset,
        "model": args.model,
        "algorithm": args.algorithm,
        "seed": args.seed,
        "scale": args.scale,
        "tenant": args.tenant,
    }
    if args.max_trials is not None:
        spec["max_trials"] = args.max_trials
    view = client.submit(spec)
    out.write(f"session      : {view['session_id']}\n")
    out.write(f"status       : {view['status']}\n")
    if not args.wait:
        out.write(f"follow with  : repro events --server {args.server} "
                  f"--session {view['session_id']} --follow\n")
        return 0
    if hasattr(out, "flush"):
        out.flush()
    final = client.wait(view["session_id"])
    return _write_session_view(final, out)


def _write_session_view(view: dict, out) -> int:
    out.write(f"session      : {view['session_id']}\n")
    out.write(f"status       : {view['status']}\n")
    spec = view.get("spec") or {}
    if spec:
        out.write(f"spec         : {spec['dataset']}/{spec['model']} "
                  f"{spec['algorithm']} x{spec['max_trials']} "
                  f"(seed {spec['seed']}, tenant {spec['tenant']})\n")
    if view.get("trials") is not None:
        out.write(f"trials       : {view['trials']}\n")
    if view.get("best_accuracy") is not None:
        out.write(f"best acc     : {view['best_accuracy']:.4f}\n")
    result = view.get("result") or {}
    if result.get("best_pipeline"):
        out.write(f"best pipeline: {result['best_pipeline']}\n")
    if view.get("error"):
        out.write(f"error        : {view['error']}\n")
    return 0 if view["status"] != "failed" else 1


def _cmd_status(args, out) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.server)
    if args.session:
        return _write_session_view(client.status(args.session), out)
    health = client.healthz()
    sessions = client.sessions()
    out.write(f"server       : {args.server} ({health['status']}, "
              f"up {health['uptime']:.0f}s)\n")
    if not sessions:
        out.write("sessions     : none\n")
        return 0
    out.write(f"\n{'session':<34} {'status':<12} {'trials':>6} "
              f"{'best acc':>9}\n")
    for view in sessions:
        best = view.get("best_accuracy")
        out.write(f"{view['session_id']:<34} {view['status']:<12} "
                  f"{view.get('trials') or 0:>6} "
                  f"{best if best is None else format(best, '.4f'):>9}\n")
    return 0


def _cmd_events(args, out) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.server)
    after = args.after
    while True:
        chunk = client.events(args.session, after=after,
                              timeout=args.timeout if args.follow else None)
        for event in chunk["events"]:
            if event["kind"] == "trial":
                out.write(f"[{event['seq']:>4}] trial {event['trials_done']}: "
                          f"acc {event['accuracy']:.4f} "
                          f"(best {event['best_accuracy']:.4f}) "
                          f"{event['pipeline']}\n")
            elif event["kind"] == "checkpoint":
                out.write(f"[{event['seq']:>4}] checkpoint -> "
                          f"{event['path']}\n")
            else:
                out.write(f"[{event['seq']:>4}] {event['kind']}: "
                          f"{event.get('status', '')}\n")
        after = chunk["next"]
        if not args.follow or chunk["status"] not in ("queued", "running"):
            out.write(f"status       : {chunk['status']} "
                      f"({after} event(s))\n")
            return 0
        if hasattr(out, "flush"):
            out.flush()


_COMMANDS = {
    "datasets": _cmd_datasets,
    "preprocessors": _cmd_preprocessors,
    "algorithms": _cmd_algorithms,
    "search": _cmd_search,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "evalcache": _cmd_evalcache,
    "lint": _cmd_lint,
    "metafeatures": _cmd_metafeatures,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "events": _cmd_events,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.exceptions import ReproError

    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
