"""Command-line entity resolution: ``python -m repro``.

The subcommands cover the batch, incremental, serving, and declarative
workflows:

``run``
    The full unsupervised batch pipeline on CSV inputs, scored matches to a
    CSV — the zero-to-matches path for a user with two files and no labels::

        python -m repro run --left a.csv --right b.csv --block-on name -o matches.csv
        python -m repro run --left dirty.csv --block-on name -o duplicates.csv  # dedup
        python -m repro run --left a.csv --right b.csv --spec spec.json -o matches.csv

    For backward compatibility the subcommand may be omitted:
    ``python -m repro --left a.csv ...`` is equivalent to ``run``.

``fit``
    Batch-fit once and freeze the result into an artifact directory
    (model parameters, feature generator, entity store, index config, and
    the pipeline spec for provenance)::

        python -m repro fit --left base.csv --block-on name --artifacts art/

    Long fits can checkpoint EM state (``--checkpoint-every N``), run under
    a wall-clock budget (``--time-budget SECONDS``), and pick up where an
    interrupted run stopped (``--resume``)::

        python -m repro fit --left big.csv --block-on name --artifacts art/ \
            --checkpoint-every 5 --time-budget 300
        python -m repro fit --left big.csv --block-on name --artifacts art/ --resume

    Stores larger than RAM can be sharded at freeze time: ``--shards N``
    partitions the store and index across N hash shards with memory-mapped
    per-shard artifacts, and ``--load-budget-mb`` caps how much of the
    store a later ``resolve`` / ``serve`` keeps mapped at once (see
    ``docs/architecture.md``)::

        python -m repro fit --left big.csv --block-on name --artifacts art/ \
            --shards 8 --load-budget-mb 512

``resolve``
    Stream a batch of new records against saved artifacts — no re-fit, the
    store and artifacts are updated in place (a second line prints
    per-shard statistics)::

        python -m repro resolve --artifacts art/ --records new.csv -o assignments.csv

``serve``
    Long-running HTTP service over saved artifacts: resolve, lookup, and
    explain over the network with micro-batched request handling and
    zero-downtime hot reload (see ``docs/serving.md``)::

        python -m repro serve --artifacts art/ --port 8707

``spec``
    Scaffold declarative pipeline spec files for ``--spec``::

        python -m repro spec init --block-on name -o spec.json

``report``
    Print the run report embedded in an artifact directory (the telemetry
    of the run that produced it)::

        python -m repro report art/
        python -m repro report art/ -o report.json

``run`` and ``fit`` accept either ``--block-on`` (flag-built pipeline) or
``--spec spec.json`` (declarative pipeline); explicit flags like ``--kappa``
override the corresponding spec values. ``run``, ``fit``, and ``resolve``
accept ``--trace out.jsonl`` to stream tracing spans to a JSON-lines file,
and ``run`` accepts ``--report report.json`` to write the run report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from repro.api import (
    BlockingSpec,
    ERPipeline,
    ModelSpec,
    OutputSpec,
    PipelineSpec,
    SpecError,
    load_spec,
)
from repro.blocking import TokenOverlapBlocker, candidate_statistics
from repro.core.config import ZeroERConfig
from repro.data.io import read_csv
from repro.reliability import CheckpointError, CheckpointStore, FitControls

__all__ = ["main"]

_SUBCOMMANDS = ("run", "fit", "resolve", "serve", "spec", "report")


class _CliError(Exception):
    """Fatal CLI error: ``main`` prints it as ``error: ...`` and exits 2."""


def _fail(message) -> int:
    """The one CLI failure path: print ``error: ...`` to stderr, return 2.

    Every subcommand funnels fatal conditions through here (directly or by
    raising :class:`_CliError`), so failures are uniformly greppable and the
    exit status is always 2 — never a raw traceback.
    """
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="stream tracing spans to this JSON-lines file",
    )


@contextlib.contextmanager
def _maybe_trace(args):
    """Route spans to ``--trace PATH`` for the wrapped block, if requested."""
    from repro.obs import configure_telemetry

    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield
        return
    try:
        configure_telemetry("jsonl", path=trace_path)
    except OSError as exc:
        raise _CliError(f"cannot open trace file {trace_path}: {exc}") from exc
    try:
        yield
    finally:
        configure_telemetry(None)  # closes the jsonl file


def _add_fit_arguments(parser: argparse.ArgumentParser, *, with_output: bool) -> None:
    """Flags shared by the batch-fitting subcommands (``run`` and ``fit``)."""
    parser.add_argument("--left", required=True, help="left table CSV (must have an id column)")
    parser.add_argument("--right", help="right table CSV; omit for deduplication of --left")
    parser.add_argument("--id-column", default="id", help="id column name (default: id)")
    parser.add_argument(
        "--block-on",
        help="attribute for token-overlap blocking (or use --spec)",
    )
    parser.add_argument(
        "--spec",
        help="declarative pipeline spec JSON (see: python -m repro spec init)",
    )
    if with_output:
        parser.add_argument("-o", "--output", required=True, help="output CSV for scored matches")
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="match threshold on γ (default: 0.5, or the spec's output threshold)",
    )
    parser.add_argument(
        "--kappa",
        type=float,
        default=None,
        help="regularization strength κ (default: 0.15, or the spec's value)",
    )
    parser.add_argument(
        "--no-transitivity", action="store_true", help="disable transitivity calibration"
    )
    _add_trace_argument(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unsupervised entity resolution (ZeroER, SIGMOD 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="batch pipeline: two CSVs in, scored matches out")
    _add_fit_arguments(run, with_output=True)
    run.add_argument(
        "--one-to-one",
        action="store_true",
        help="post-process into a one-to-one assignment (linkage mode only)",
    )
    run.add_argument(
        "--report",
        metavar="PATH",
        help="write the run report (telemetry JSON document) to this file",
    )
    run.set_defaults(func=_cmd_run)

    fit = sub.add_parser("fit", help="batch-fit once and save frozen artifacts")
    _add_fit_arguments(fit, with_output=False)
    fit.add_argument(
        "--artifacts", required=True, help="directory to write the frozen artifacts to"
    )
    fit.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint EM state every N iterations under <artifacts>/checkpoints/ "
        "(default: 0, disabled)",
    )
    fit.add_argument(
        "--resume",
        action="store_true",
        help="resume EM from the latest checkpoint under <artifacts>/checkpoints/",
    )
    fit.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for EM; on expiry the best-so-far parameters are "
        "kept (converged=False) and a checkpoint is written for --resume",
    )
    fit.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the entity store and token index across N hash shards "
        "with memory-mapped per-shard artifacts (default: 1; overrides the "
        "spec's shard section)",
    )
    fit.add_argument(
        "--load-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="soft cap on concurrently mapped shard bases after a reload; "
        "least-recently-probed shards are evicted past it "
        "(default: unbounded; overrides the spec's shard section)",
    )
    fit.set_defaults(func=_cmd_fit)

    resolve = sub.add_parser(
        "resolve", help="resolve new records against saved artifacts (no re-fit)"
    )
    resolve.add_argument(
        "--artifacts", required=True, help="artifact directory written by fit"
    )
    resolve.add_argument(
        "--records", required=True, help="CSV of new records to resolve"
    )
    resolve.add_argument(
        "-o", "--output", help="optional CSV for record→entity assignments"
    )
    _add_trace_argument(resolve)
    resolve.set_defaults(func=_cmd_resolve)

    serve = sub.add_parser(
        "serve", help="serve resolve/lookup/explain over HTTP from saved artifacts"
    )
    serve.add_argument(
        "--artifacts", required=True, help="artifact directory written by fit"
    )
    serve.add_argument(
        "--host",
        default=None,
        help="interface to bind (default: 127.0.0.1, or the artifact spec's value)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port; 0 binds an ephemeral port (default: 8707)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="records per micro-batch handed to the engine (default: 64)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=None,
        metavar="MS",
        help="how long the first queued request waits for co-batchable "
        "traffic (default: 10)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission bound on queued /resolve requests; beyond it the "
        "server sheds with 503 + Retry-After (default: 256)",
    )
    serve.add_argument(
        "--max-inflight-records",
        type=int,
        default=None,
        metavar="N",
        help="admission bound on records admitted but not yet answered "
        "(default: 8192)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request budget; requests still queued past it "
        "get 504; clients override via X-Request-Deadline-Ms "
        "(default: 0 = unbounded)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="S",
        help="seconds a graceful drain (SIGTERM or POST /admin/drain) may "
        "spend finishing in-flight work before forcing shutdown "
        "(default: 10)",
    )
    serve.add_argument(
        "--conn-rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-connection /resolve rate limit in requests/second; "
        "exceeding it gets 429 (default: 0 = disabled)",
    )
    serve.set_defaults(func=_cmd_serve)

    report = sub.add_parser(
        "report", help="print the run report embedded in an artifact directory"
    )
    report.add_argument("artifacts", help="artifact directory written by fit/resolve")
    report.add_argument(
        "-o", "--output", help="write the report JSON here instead of stdout"
    )
    report.set_defaults(func=_cmd_report)

    spec = sub.add_parser("spec", help="scaffold declarative pipeline spec files")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    init = spec_sub.add_parser(
        "init", help="write a default PipelineSpec JSON (edit it, then pass via --spec)"
    )
    init.add_argument(
        "--block-on", required=True, help="attribute for token-overlap blocking"
    )
    init.add_argument(
        "-o", "--output", help="path to write the spec JSON (default: stdout)"
    )
    init.add_argument("--threshold", type=float, default=0.5, help="match threshold on γ")
    init.add_argument("--kappa", type=float, default=0.15, help="regularization strength κ")
    init.add_argument(
        "--no-transitivity", action="store_true", help="disable transitivity calibration"
    )
    init.set_defaults(func=_cmd_spec_init)
    return parser


def _load_tables(args):
    try:
        left = read_csv(Path(args.left), id_attr=args.id_column)
        right = read_csv(Path(args.right), id_attr=args.id_column) if args.right else None
    except (OSError, ValueError) as exc:
        # unreadable file, malformed CSV, or a missing id column
        return None, None, _fail(exc)
    if args.block_on and args.block_on not in left.attributes:
        return (
            None,
            None,
            _fail(f"--block-on attribute {args.block_on!r} not in the left table"),
        )
    return left, right, 0


def _blocker_attributes(blocker) -> list:
    """Every attribute a blocker (or its union members) blocks on."""
    from repro.blocking import UnionBlocker

    if isinstance(blocker, UnionBlocker):
        return [a for member in blocker.blockers for a in _blocker_attributes(member)]
    attribute = getattr(blocker, "attribute", None)
    return [attribute] if attribute is not None else []


def _check_blocking_attributes(pipeline, left) -> int:
    """Spec-built blockers must reference real columns, like --block-on does."""
    missing = sorted(
        {a for a in _blocker_attributes(pipeline.blocker) if a not in left.attributes}
    )
    if missing:
        return _fail(f"spec blocking attribute(s) {missing} not in the left table")
    return 0


def _build_pipeline(args):
    """``(pipeline, threshold, one_to_one, exit_code)`` from flags + optional spec.

    With ``--spec`` the pipeline comes from the spec file and explicit flags
    (``--kappa``, ``--threshold``, ``--no-transitivity``) override the
    corresponding spec values.
    """
    one_to_one = bool(getattr(args, "one_to_one", False))
    if args.spec:
        if args.block_on:
            return None, 0.0, False, _fail("pass either --spec or --block-on, not both")
        try:
            spec = load_spec(args.spec)
        except (SpecError, OSError) as exc:
            return None, 0.0, False, _fail(exc)
        config = spec.model.config
        if args.kappa is not None:
            config = config.replace(kappa=args.kappa)
        if args.no_transitivity:
            config = config.replace(transitivity=False)
        threshold = args.threshold if args.threshold is not None else spec.output.threshold
        one_to_one = one_to_one or spec.output.one_to_one
        try:
            pipeline = ERPipeline(
                blocker=spec.blocking.build(),
                config=config,
                co_candidate_cap=spec.model.co_candidate_cap,
                type_overrides=spec.features.build_overrides(),
                fit_controls=(
                    FitControls(time_budget_s=float(spec.model.time_budget_s))
                    if spec.model.time_budget_s is not None
                    else None
                ),
            )
        except ValueError as exc:
            return None, 0.0, False, _fail(exc)
        return pipeline, threshold, one_to_one, 0

    if not args.block_on:
        return None, 0.0, False, _fail("provide --block-on (or a --spec file)")
    config = ZeroERConfig(
        kappa=args.kappa if args.kappa is not None else 0.15,
        transitivity=not args.no_transitivity,
    )
    pipeline = ERPipeline(blocking_attribute=args.block_on, config=config)
    threshold = args.threshold if args.threshold is not None else 0.5
    return pipeline, threshold, one_to_one, 0


def _blocking_report(pairs, left, right) -> str:
    """One-line candidate-set summary for the ``run`` report."""
    if right is not None:
        stats = candidate_statistics(pairs, None, len(left), len(right))
    else:
        total = len(left) * (len(left) - 1) // 2
        stats = candidate_statistics(pairs, None, len(left), len(left), total_pairs=total)
    return (
        f"blocking: {stats['n_candidates']} candidate pairs, "
        f"reduction ratio {stats['reduction_ratio']:.4f}"
    )


def _cmd_run(args) -> int:
    pipeline, threshold, one_to_one, code = _build_pipeline(args)
    if code:
        return code
    left, right, code = _load_tables(args)
    if code:
        return code
    if args.spec:
        code = _check_blocking_attributes(pipeline, left)
        if code:
            return code
    with _maybe_trace(args):
        result = pipeline.run(left, right)

    use_one_to_one = one_to_one and right is not None
    rows = result.to_frame(threshold=threshold, one_to_one=use_one_to_one)
    try:
        out_path = result.to_csv(Path(args.output), frame=rows)
    except OSError as exc:
        return _fail(f"cannot write {args.output}: {exc}")
    if args.report:
        try:
            Path(args.report).write_text(
                json.dumps(result.report(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            return _fail(f"cannot write {args.report}: {exc}")
        print(f"run report written to {args.report}")
    print(_blocking_report(result.pairs, left, right))
    print(
        f"{len(result.pairs)} candidate pairs scored, {len(rows)} matches written to {out_path}"
    )
    return 0


def _fit_controls(args):
    """``(controls, store, exit_code)`` from the fit reliability flags.

    Checkpoints live under ``<artifacts>/checkpoints/``; a non-zero
    ``--checkpoint-every``, ``--resume``, or ``--time-budget`` activates a
    :class:`~repro.reliability.FitControls`.
    """
    if args.checkpoint_every < 0:
        return None, None, _fail("--checkpoint-every must be >= 0")
    wants_store = args.resume or args.checkpoint_every > 0 or args.time_budget is not None
    if not wants_store:
        return None, None, 0
    store = CheckpointStore(Path(args.artifacts) / "checkpoints")
    try:
        controls = FitControls(
            checkpoint=store,
            checkpoint_every=args.checkpoint_every if args.checkpoint_every > 0 else 10,
            resume=args.resume,
            time_budget_s=args.time_budget,
        )
    except ValueError as exc:
        return None, None, _fail(exc)
    return controls, store, 0


def _shard_settings(args):
    """``(shards, load_budget_mb, exit_code)`` from flags + spec.

    The spec's ``shard`` section (when present) provides the defaults;
    explicit ``--shards`` / ``--load-budget-mb`` flags override individual
    fields, with the same validation either way.
    """
    from repro.api import ShardSpec

    base = ShardSpec()
    if args.spec:
        try:
            spec_shard = load_spec(args.spec).shard
        except (SpecError, OSError):
            # _build_pipeline already reported this spec error
            spec_shard = None
        if spec_shard is not None:
            base = spec_shard
    overrides = {}
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.load_budget_mb is not None:
        overrides["load_budget_mb"] = args.load_budget_mb
    try:
        merged = base.replace(**overrides) if overrides else base
    except SpecError as exc:
        return 1, None, _fail(exc)
    return merged.shards, merged.load_budget_mb, 0


def _cmd_fit(args) -> int:
    pipeline, threshold, _one_to_one, code = _build_pipeline(args)
    if code:
        return code
    shards, load_budget_mb, code = _shard_settings(args)
    if code:
        return code
    controls, ckpt_store, code = _fit_controls(args)
    if code:
        return code
    if controls is not None:
        # flags win over any spec-provided time budget
        pipeline.fit_controls = controls
    left, right, code = _load_tables(args)
    if code:
        return code
    if args.spec:
        code = _check_blocking_attributes(pipeline, left)
        if code:
            return code
    # fail before the (expensive) fit: freeze() indexes with the blocker
    # and needs disjoint ids
    if not isinstance(pipeline.blocker, TokenOverlapBlocker):
        return _fail(
            "fit freezes a token index, so the spec's blocker must be "
            f"token_overlap or qgram; got {type(pipeline.blocker).__name__}"
        )
    if right is not None:
        shared = set(left.ids()) & set(right.ids())
        if shared:
            return _fail(
                f"{len(shared)} record ids appear in both tables; "
                "fit needs disjoint ids (prefix each side, e.g. L0.../R0...)"
            )
    try:
        with _maybe_trace(args):
            result = pipeline.run(left, right)
    except CheckpointError as exc:
        return _fail(exc)
    try:
        resolver = pipeline.freeze(
            threshold=threshold, shards=shards, load_budget_mb=load_budget_mb
        )
    except (ValueError, RuntimeError) as exc:
        # e.g. overlapping record ids across the two tables, or a blocking
        # recipe that produced no candidate pairs to fit on
        return _fail(exc)
    try:
        path = resolver.save(args.artifacts, report=result.report())
    except OSError as exc:
        return _fail(f"cannot write artifacts to {args.artifacts}: {exc}")
    history = getattr(getattr(pipeline, "model_", None), "history_", None)
    converged = bool(getattr(history, "converged", True))
    if ckpt_store is not None:
        if converged:
            # a finished fit invalidates its intermediate EM state
            ckpt_store.clear()
        else:
            print(
                f"fit interrupted before convergence; resume with: "
                f"python -m repro fit ... --artifacts {args.artifacts} --resume"
            )
    shard_note = f", {shards} shards" if shards > 1 else ""
    print(
        f"fitted on {len(resolver.store)} records "
        f"({resolver.store.n_entities} entities, "
        f"{len(pipeline.result_.pairs)} candidate pairs scored{shard_note}); "
        f"artifacts written to {path}"
    )
    return 0


def _shard_summary(stats: dict) -> str:
    """One-line shard/candidate statistics for the ``resolve`` report."""
    per_shard = stats["pairs_per_shard"]
    dist = ", ".join(f"s{shard}:{count}" for shard, count in sorted(per_shard.items()))
    line = f"shards: {len(stats['index_shards_touched'])}/{stats['n_shards']} probed"
    if dist:
        line += f"; candidate pairs per shard: {dist}"
    loader = stats["loader"]
    if loader["budget_bytes"]:
        line += (
            f"; mapped {loader['loaded_shards']} shard(s), "
            f"{loader['loaded_bytes']} bytes "
            f"({loader['evictions']} evicted)"
        )
    return line


def _cmd_resolve(args) -> int:
    from repro.incremental import ArtifactError, IncrementalResolver

    try:
        resolver = IncrementalResolver.load(args.artifacts)
        records = read_csv(Path(args.records), id_attr=resolver.store.id_attr)
        with _maybe_trace(args):
            result = resolver.resolve(records)
    except (ArtifactError, OSError, ValueError) as exc:
        # e.g. missing/corrupt artifacts, unreadable CSV, or a record id
        # that is already in the store (a batch streamed twice)
        return _fail(exc)

    # Write the assignments before persisting the store: if the output path
    # is bad, the on-disk artifacts are untouched and the batch is retryable.
    if args.output:
        try:
            result.to_csv(Path(args.output))
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
    # persist the updated store in place, with this batch's telemetry
    try:
        resolver.save(args.artifacts, report=result.report())
    except OSError as exc:
        return _fail(f"cannot write artifacts to {args.artifacts}: {exc}")
    print(
        f"{len(result.record_ids)} records resolved against {len(result.pairs)} "
        f"candidate pairs, {len(result.matches)} matches; "
        f"store now holds {len(resolver.store)} records in "
        f"{resolver.store.n_entities} entities"
    )
    print(_shard_summary(result.shard_stats))
    return 0


def _cmd_serve(args) -> int:
    from repro.incremental import ArtifactError
    from repro.serve import run_serve

    if args.port is not None and not 0 <= args.port <= 65535:
        return _fail(f"--port must be in [0, 65535], got {args.port}")
    if args.max_batch is not None and args.max_batch < 1:
        return _fail(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_wait_ms is not None and args.max_wait_ms < 0:
        return _fail(f"--max-wait-ms must be >= 0, got {args.max_wait_ms}")
    if args.max_queue is not None and args.max_queue < 1:
        return _fail(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.max_inflight_records is not None and args.max_inflight_records < 1:
        return _fail(
            f"--max-inflight-records must be >= 1, got {args.max_inflight_records}"
        )
    if args.deadline_ms is not None and args.deadline_ms < 0:
        return _fail(f"--deadline-ms must be >= 0, got {args.deadline_ms}")
    if args.drain_timeout is not None and args.drain_timeout < 0:
        return _fail(f"--drain-timeout must be >= 0, got {args.drain_timeout}")
    if args.conn_rate_limit is not None and args.conn_rate_limit < 0:
        return _fail(f"--conn-rate-limit must be >= 0, got {args.conn_rate_limit}")
    try:
        return run_serve(
            args.artifacts,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            max_inflight_records=args.max_inflight_records,
            default_deadline_ms=args.deadline_ms,
            drain_timeout_s=args.drain_timeout,
            conn_rate_limit=args.conn_rate_limit,
        )
    except (ArtifactError, OSError) as exc:
        # missing/corrupt artifacts, or the port is taken
        return _fail(exc)


def _cmd_report(args) -> int:
    from repro.incremental.artifacts import ArtifactError, artifact_dir
    from repro.obs import ReportError, validate_report

    try:
        manifest_path = artifact_dir(Path(args.artifacts)) / "manifest.json"
    except ArtifactError as exc:
        return _fail(exc)
    if not manifest_path.is_file():
        return _fail(
            f"{args.artifacts} is not an artifact directory (no manifest.json)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read {manifest_path}: {exc}")
    report = manifest.get("run_report")
    if report is None:
        return _fail(
            f"{args.artifacts} carries no run report "
            "(written by fit/resolve builds that embed telemetry)"
        )
    try:
        validate_report(report)
    except ReportError as exc:
        return _fail(f"embedded run report is invalid: {exc}")
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
        print(f"run report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_spec_init(args) -> int:
    try:
        blocker = TokenOverlapBlocker(args.block_on, min_overlap=1, top_k=60)
        spec = PipelineSpec(
            blocking=BlockingSpec.from_blocker(blocker),
            model=ModelSpec(
                config=ZeroERConfig(
                    kappa=args.kappa, transitivity=not args.no_transitivity
                )
            ),
            output=OutputSpec(threshold=args.threshold),
        )
    except (SpecError, ValueError) as exc:
        return _fail(exc)
    if args.output:
        try:
            path = spec.save(args.output)
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}")
        print(f"spec written to {path}")
    else:
        print(spec.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: the original flat interface had no subcommand,
    # so an invocation starting with a flag is routed to ``run``.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        return _fail(exc)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. ``repro report ... | head``).
        # Redirect stdout at the fd level so interpreter shutdown does not
        # trip over the dead pipe, then exit quietly like other Unix tools.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
