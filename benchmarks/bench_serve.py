"""Serving-layer throughput: micro-batched concurrency vs sequential HTTP.

The serving layer's claim is that coalescing concurrent ``/resolve``
requests into single columnar engine passes buys real throughput over the
one-record-per-round-trip pattern. This bench measures exactly that, over
real sockets against a real frozen model: fit once on a pub_da base table,
freeze, then stream the same arriving records through two fresh servers —
first as **sequential** one-record HTTP resolves (the batcher never sees
two requests at once), then as **concurrent** one-record resolves from many
client threads (the batcher coalesces them into multi-record engine
batches). Same records, same model, same wire format; the only variable is
concurrency.

A third scenario measures the service **under overload**: more concurrent
clients than a deliberately tiny admission queue can absorb, so the server
sheds part of the load with typed 503s. What's measured there is the
overload contract, not throughput — every request is answered, the shed
rate is visible, and response latency (p50/p99 across *all* answers,
sheds included) stays bounded instead of growing with the backlog.

A **lookup** leg times sequential ``GET /lookup`` requests (alternating
stored record ids and live entity ids) against two stores: the fitted base
store, and a 100k-record store grown from it with ``add_records`` plus
merges of near-duplicates, the way resolve batches grow a store. A lookup
reads one entity's member list, so its latency must not grow with the
store.

Emits the printed tables plus machine-readable ``BENCH_serve.json``. The
acceptance floors checked here: micro-batched concurrent throughput ≥ 3×
sequential, bounded p99 while shedding, and lookup p99 ≤ 50 ms at 100k
records.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-long CI run (tiny scale, fewer
records, a relaxed floor — CI machines make poor load generators — and no
JSON report).
"""

import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import numpy as np

from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report

from repro import ERPipeline
from repro.blocking import TokenOverlapBlocker
from repro.data import load_benchmark
from repro.data.table import Table
from repro.eval.harness import format_table
from repro.serve import BackgroundServer, ServeApp

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DATASET, SEED = "pub_da", 11
SCALE = "tiny" if SMOKE else "paper"
#: Arriving records resolved over HTTP in each scenario.
N_RECORDS = 32 if SMOKE else 256
#: Client threads in the concurrent scenario.
CONCURRENCY = 8 if SMOKE else 32
#: Acceptance floor on concurrent-vs-sequential throughput.
MIN_SPEEDUP = 1.0 if SMOKE else 3.0
#: Overload scenario: total requests fired and the admission queue bound.
OVERLOAD_REQUESTS = 64 if SMOKE else 512
OVERLOAD_CONCURRENCY = 16 if SMOKE else 64
OVERLOAD_QUEUE = 4
#: Acceptance ceiling on p99 answer latency while shedding (ms).
MAX_SHED_P99_MS = 30_000.0 if SMOKE else 10_000.0
#: Lookup leg: timed requests per store, and the grown store's record count.
N_LOOKUPS = 40 if SMOKE else 400
GROWN_RECORDS = 3_000 if SMOKE else 100_000
#: Share of grown records merged into a recent record (a near-duplicate).
GROWN_DUPLICATES = 0.2
#: Acceptance ceiling on lookup p99 against the grown store (ms).
MAX_LOOKUP_P99_MS = 1_000.0 if SMOKE else 50.0


def _resolve_one(base_url: str, record: dict) -> dict:
    body = json.dumps({"records": [record]}).encode("utf-8")
    request = Request(base_url + "/resolve", data=body, method="POST")
    with urlopen(request, timeout=60) as response:
        payload = json.loads(response.read())
        if response.status != 200:  # pragma: no cover - bench guard
            raise RuntimeError(f"resolve failed: {payload}")
        return payload


def _run_sequential(base_url: str, records: list) -> float:
    started = time.perf_counter()
    for record in records:
        _resolve_one(base_url, record)
    return time.perf_counter() - started


def _run_concurrent(base_url: str, records: list, n_threads: int) -> float:
    chunks = [records[i::n_threads] for i in range(n_threads)]
    errors = []
    barrier = threading.Barrier(n_threads + 1)

    def worker(chunk):
        barrier.wait()
        try:
            for record in chunk:
                _resolve_one(base_url, record)
        except Exception as exc:  # pragma: no cover - bench guard
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def _run_overload(base_url: str, records: list, n_requests: int, n_threads: int):
    """Blast the server past its admission queue; returns (elapsed, answers).

    Each answer is ``(status, latency_ms)`` — 200 for an admitted resolve,
    503 for a typed shed. Anything else (a hang, a dropped connection, an
    unexpected status) fails the bench.
    """
    jobs = [
        (f"ov{i}", records[i % len(records)]) for i in range(n_requests)
    ]
    chunks = [jobs[i::n_threads] for i in range(n_threads)]
    answers: list = []
    errors: list = []
    barrier = threading.Barrier(n_threads + 1)

    def worker(chunk):
        barrier.wait()
        for rid, record in chunk:
            body = json.dumps({"records": [dict(record, id=rid)]}).encode("utf-8")
            request = Request(base_url + "/resolve", data=body, method="POST")
            t0 = time.perf_counter()
            try:
                with urlopen(request, timeout=120) as response:
                    response.read()
                    status = response.status
            except HTTPError as exc:
                exc.read()
                status = exc.code
            except Exception as exc:  # pragma: no cover - bench guard
                errors.append(exc)
                return
            answers.append((status, (time.perf_counter() - t0) * 1000.0))

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed, answers


def _grow(resolver, records: list, n_total: int, seed: int) -> None:
    """Grow a frozen resolver's store and index to ``n_total`` records.

    Copies of ``records`` arrive under fresh ids; a
    :data:`GROWN_DUPLICATES` share of them merges into one of the 50
    records before it (at 100k: clusters of 2–11 records, most of 2).
    """
    grown = [
        dict(records[i % len(records)], id=f"g{i}") for i in range(n_total - len(resolver.store))
    ]
    resolver.index.add(grown)
    resolver.store.add_records(grown)
    rng = np.random.default_rng(seed)
    duplicate = rng.random(len(grown)) < GROWN_DUPLICATES
    for i in np.flatnonzero(duplicate[1:]) + 1:
        resolver.store.merge(f"g{i - 1 - int(rng.integers(min(i, 50)))}", f"g{i}")


def _lookup_targets(store, n: int, seed: int) -> list:
    """``n`` lookup targets alternating stored record ids and live entity ids."""
    entities = store.entities()
    entity_ids = list(entities)
    record_ids = [rid for members in entities.values() for rid in members]
    rng = np.random.default_rng(seed)
    return [
        entity_ids[rng.integers(len(entity_ids))]
        if j % 2
        else record_ids[rng.integers(len(record_ids))]
        for j in range(n)
    ]


def _run_lookups(base_url: str, targets: list) -> list:
    """Sequential ``GET /lookup`` calls; returns each one's latency (ms)."""
    latencies = []
    for target in targets:
        started = time.perf_counter()
        with urlopen(f"{base_url}/lookup/{target}", timeout=60) as response:
            payload = json.loads(response.read())
        latencies.append((time.perf_counter() - started) * 1000.0)
        if target not in payload["members"] and payload["entity_id"] != target:
            raise RuntimeError(f"lookup of {target} answered {payload}")  # pragma: no cover
    return latencies


def _lookup_leg(artifacts: Path, targets: list) -> tuple[float, list]:
    """Serve ``artifacts`` and time lookups of ``targets`` after a warm-up."""
    with BackgroundServer(ServeApp(artifacts, port=0)) as server:
        _run_lookups(server.base_url, targets[:5])  # opens the payload shards
        started = time.perf_counter()
        latencies = _run_lookups(server.base_url, targets)
        return time.perf_counter() - started, latencies


def test_micro_batched_throughput_vs_sequential(benchmark, capfd):
    def run():
        merged, _ = load_benchmark(DATASET, scale=SCALE, seed=SEED).as_dedup()
        records = list(merged)
        base = Table(records[:-N_RECORDS], attributes=merged.attributes)
        arriving = records[-N_RECORDS:]

        started = time.perf_counter()
        pipeline = ERPipeline(
            blocker=TokenOverlapBlocker("title", min_overlap=2, top_k=20)
        )
        pipeline.run(base)
        fit_seconds = time.perf_counter() - started

        workdir = Path(tempfile.mkdtemp(prefix="bench-serve-"))
        try:
            template = workdir / "template"
            pipeline.freeze().save(template)

            scenarios = {}
            batch_stats = {}
            for name, driver in (
                ("sequential-http", lambda url: _run_sequential(url, arriving)),
                (
                    "micro-batched",
                    lambda url: _run_concurrent(url, arriving, CONCURRENCY),
                ),
            ):
                artifacts = workdir / name
                shutil.copytree(template, artifacts)
                app = ServeApp(artifacts, port=0, max_batch=64, max_wait_ms=10.0)
                with BackgroundServer(app) as server:
                    scenarios[name] = driver(server.base_url)
                    snapshot = app.metrics.snapshot()
                    batch_stats[name] = {
                        "batches": int(snapshot["counters"].get("serve.batches", 0)),
                        "resolved": int(
                            snapshot["counters"].get("serve.resolved.records", 0)
                        ),
                    }

            # overload: more clients than a 4-deep admission queue absorbs
            artifacts = workdir / "overload"
            shutil.copytree(template, artifacts)
            app = ServeApp(
                artifacts, port=0, max_batch=64, max_wait_ms=10.0,
                max_queue=OVERLOAD_QUEUE,
            )
            with BackgroundServer(app) as server:
                overload_elapsed, answers = _run_overload(
                    server.base_url, arriving, OVERLOAD_REQUESTS,
                    OVERLOAD_CONCURRENCY,
                )
                snapshot = app.metrics.snapshot()
                shed_counted = int(
                    snapshot["counters"].get("serve.shed_total", 0)
                )

            # lookups: the fitted base store, then one grown to GROWN_RECORDS
            lookups = {}
            for name, n_total in (("lookup-base", None), ("lookup-grown", GROWN_RECORDS)):
                resolver = pipeline.freeze()
                if n_total is not None:
                    _grow(resolver, records, n_total, SEED)
                store_info = (len(resolver.store), resolver.store.n_entities)
                targets = _lookup_targets(resolver.store, N_LOOKUPS, SEED)
                artifacts = workdir / name
                resolver.save(artifacts)
                del resolver
                lookups[name] = (*store_info, *_lookup_leg(artifacts, targets))
            return (
                scenarios, batch_stats, fit_seconds, len(base),
                overload_elapsed, answers, shed_counted, lookups,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    (
        scenarios, batch_stats, fit_seconds, base_n,
        overload_elapsed, answers, shed_counted, lookups,
    ) = one_shot(benchmark, run)

    statuses = [status for status, _ms in answers]
    latencies = np.array([ms for _status, ms in answers])
    n_shed = statuses.count(503)
    shed_rate = n_shed / max(len(answers), 1)
    p50_ms = float(np.percentile(latencies, 50))
    p99_ms = float(np.percentile(latencies, 99))

    seq_seconds = scenarios["sequential-http"]
    conc_seconds = scenarios["micro-batched"]
    rows = [
        bench_workload(
            DATASET,
            "sequential-http",
            seq_seconds,
            speedup=1.0,
            records=N_RECORDS,
            concurrency=1,
            throughput_rps=round(N_RECORDS / seq_seconds, 1),
            engine_batches=batch_stats["sequential-http"]["batches"],
        ),
        bench_workload(
            DATASET,
            "micro-batched",
            conc_seconds,
            baseline_engine="sequential-http",
            baseline_seconds=seq_seconds,
            records=N_RECORDS,
            concurrency=CONCURRENCY,
            throughput_rps=round(N_RECORDS / conc_seconds, 1),
            engine_batches=batch_stats["micro-batched"]["batches"],
        ),
        bench_workload(
            DATASET,
            "overload-shed",
            overload_elapsed,
            speedup=1.0,
            records=OVERLOAD_REQUESTS,
            concurrency=OVERLOAD_CONCURRENCY,
            max_queue=OVERLOAD_QUEUE,
            answered=len(answers),
            shed=n_shed,
            shed_rate=round(shed_rate, 3),
            latency_p50_ms=round(p50_ms, 2),
            latency_p99_ms=round(p99_ms, 2),
        ),
    ]
    for name, (n_store, n_entities, elapsed, latencies) in lookups.items():
        rows.append(
            bench_workload(
                DATASET,
                name,
                elapsed,
                speedup=1.0,
                records=n_store,
                entities=n_entities,
                lookups=len(latencies),
                concurrency=1,
                latency_p50_ms=round(float(np.percentile(latencies, 50)), 3),
                latency_p99_ms=round(float(np.percentile(latencies, 99)), 3),
            )
        )

    emit(capfd, "")
    emit(capfd, format_table(
        [
            {
                "scenario": w["engine"],
                "concurrency": w["concurrency"],
                "seconds": w["seconds"],
                "throughput_rps": w["throughput_rps"],
                "engine_batches": w["engine_batches"],
                "speedup": w["speedup"],
            }
            for w in rows[:2]
        ],
        ["scenario", "concurrency", "seconds", "throughput_rps",
         "engine_batches", "speedup"],
        title=f"HTTP /resolve throughput ({DATASET}/{SCALE}, base={base_n}, "
              f"{N_RECORDS} arriving records, fit {fit_seconds:.1f}s)",
    ))
    emit(capfd, "")
    emit(capfd, format_table(
        [
            {
                "requests": rows[2]["records"],
                "concurrency": rows[2]["concurrency"],
                "max_queue": rows[2]["max_queue"],
                "answered": rows[2]["answered"],
                "shed_rate": rows[2]["shed_rate"],
                "p50_ms": rows[2]["latency_p50_ms"],
                "p99_ms": rows[2]["latency_p99_ms"],
            }
        ],
        ["requests", "concurrency", "max_queue", "answered", "shed_rate",
         "p50_ms", "p99_ms"],
        title="overload: typed shedding with bounded answer latency",
    ))
    emit(capfd, "")
    emit(capfd, format_table(
        [
            {
                "store": w["engine"],
                "records": w["records"],
                "entities": w["entities"],
                "lookups": w["lookups"],
                "p50_ms": w["latency_p50_ms"],
                "p99_ms": w["latency_p99_ms"],
            }
            for w in rows[3:]
        ],
        ["store", "records", "entities", "lookups", "p50_ms", "p99_ms"],
        title="GET /lookup latency: one entity read, whatever the store size",
    ))
    report_path = write_bench_report("serve", rows, meta={
        "scale": SCALE,
        "seed": SEED,
        "base_records": base_n,
        "arriving_records": N_RECORDS,
        "concurrency": CONCURRENCY,
        "max_batch": 64,
        "max_wait_ms": 10.0,
        "overload_requests": OVERLOAD_REQUESTS,
        "overload_concurrency": OVERLOAD_CONCURRENCY,
        "overload_max_queue": OVERLOAD_QUEUE,
        "lookups": N_LOOKUPS,
        "grown_records": GROWN_RECORDS,
        "grown_duplicates": GROWN_DUPLICATES,
        "initial_fit_sec": round(fit_seconds, 4),
    })
    emit(capfd, report_note(report_path))

    # every record made it through both scenarios
    assert batch_stats["sequential-http"]["resolved"] == N_RECORDS
    assert batch_stats["micro-batched"]["resolved"] == N_RECORDS
    # sequential one-record requests never coalesce: one engine pass each;
    # concurrency must coalesce into strictly fewer passes
    assert batch_stats["sequential-http"]["batches"] == N_RECORDS
    assert batch_stats["micro-batched"]["batches"] < N_RECORDS
    # the issue's acceptance floor: >= 3x throughput from micro-batching
    assert rows[1]["speedup"] >= MIN_SPEEDUP, rows[1]
    # overload contract: every request answered, typed statuses only,
    # real shedding happened, and answer latency stayed bounded
    assert len(answers) == OVERLOAD_REQUESTS
    assert set(statuses) <= {200, 503}, sorted(set(statuses))
    assert n_shed == shed_counted, (n_shed, shed_counted)
    assert statuses.count(200) > 0, "overload shed everything"
    assert n_shed > 0, "the overload scenario never overloaded"
    assert p99_ms <= MAX_SHED_P99_MS, rows[2]
    # lookups read one entity: bounded p99 however large the store
    assert rows[-1]["records"] == GROWN_RECORDS
    assert rows[-1]["latency_p99_ms"] <= MAX_LOOKUP_P99_MS, rows[-1]
