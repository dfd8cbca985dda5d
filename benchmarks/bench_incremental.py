"""Incremental resolution vs full re-run for arriving record batches.

The batch pipeline's cost of absorbing new records is a complete re-run:
re-block, re-featurize, re-fit EM on everything seen so far. The
incremental subsystem instead probes the inverted index, featurizes only
the new candidate pairs, and scores them with the frozen model. This bench
streams batches of 10 / 100 / 1000 records into a frozen resolver and
times each against the equivalent from-scratch run on the union, emitting
both the printed table and a machine-readable ``BENCH_incremental.json``.

The frozen model must *never* re-fit: the bench asserts the learned prior
is bit-identical before and after all resolves, and that the 10-record
batch resolves faster than the full re-run by a wide margin.

The second bench measures what sharding alone buys on synthetic corpora
of 10k / 100k / 1M records built from the corruption operators, emitting
``BENCH_shard.json``: resolve time with 8 shards vs 1 shard at every
scale — bit-identical results asserted — plus an
out-of-core leg where the saved store's mapped artifacts exceed the
configured in-process load budget. Set ``REPRO_BENCH_SMOKE=1`` for a
seconds-long CI run (smallest scale); ``REPRO_BENCH_MAX_SCALE`` caps the
trajectory (the CI shard job stops at 100k). Neither writes a JSON report
(see ``_bench_utils.write_bench_report``).
"""

import os
import time

import numpy as np
from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report

from repro.blocking import TokenOverlapBlocker
from repro.data import load_benchmark
from repro.data.corruption import Corruptor, drop_token, swap_tokens, typo
from repro.data.table import Table
from repro.data.vocabulary import CITIES, CUISINES, RESTAURANT_WORDS, STREET_NAMES
from repro.eval.harness import format_table
from repro.incremental import IncrementalResolver
from repro.incremental.artifacts import artifact_dir
from repro import ERPipeline

#: Arriving-batch sizes (cumulative: 10 arrive, then 100 more, then 1000).
BATCH_SIZES = (10, 100, 1000)

#: pub_da at paper scale gives ~4.9k records — large enough that the
#: 1000-record batch still leaves a substantial base table.
DATASET, SCALE, SEED = "pub_da", "paper", 11


def _blocker() -> TokenOverlapBlocker:
    # the harness's pub_da recipe (title, min_overlap 2), dedup-tightened
    return TokenOverlapBlocker("title", min_overlap=2, top_k=20)


def test_incremental_vs_full_rerun(benchmark, capfd):
    def run():
        merged, _ = load_benchmark(DATASET, scale=SCALE, seed=SEED).as_dedup()
        records = list(merged)
        n_new = sum(BATCH_SIZES)
        base = Table(records[:-n_new], attributes=merged.attributes)
        arriving = records[-n_new:]

        started = time.perf_counter()
        pipeline = ERPipeline(blocker=_blocker())
        pipeline.run(base)
        fit_seconds = time.perf_counter() - started
        resolver = pipeline.freeze()
        prior_before = resolver.model.params_.prior_match

        rows = []
        seen = list(base)
        offset = 0
        for size in BATCH_SIZES:
            batch = arriving[offset : offset + size]
            offset += size
            seen = seen + batch

            started = time.perf_counter()
            result = resolver.resolve(batch)
            incremental_sec = time.perf_counter() - started

            started = time.perf_counter()
            ERPipeline(blocker=_blocker()).run(
                Table(seen, attributes=merged.attributes)
            )
            full_sec = time.perf_counter() - started

            rows.append(
                bench_workload(
                    DATASET,
                    "incremental",
                    incremental_sec,
                    baseline_engine="full-rerun",
                    baseline_seconds=full_sec,
                    batch=size,
                    pairs_scored=len(result.pairs),
                    matches=len(result.matches),
                )
            )

        prior_after = resolver.model.params_.prior_match
        return rows, fit_seconds, prior_before, prior_after, len(base)

    rows, fit_seconds, prior_before, prior_after, base_n = one_shot(benchmark, run)

    table_rows = [
        {
            "batch": w["batch"],
            "pairs_scored": w["pairs_scored"],
            "matches": w["matches"],
            "incremental_sec": w["seconds"],
            "full_rerun_sec": w["baseline_seconds"],
            "speedup": w["speedup"],
        }
        for w in rows
    ]
    emit(capfd, "")
    emit(capfd, format_table(
        table_rows,
        ["batch", "pairs_scored", "matches", "incremental_sec", "full_rerun_sec", "speedup"],
        title=f"Incremental resolve vs full re-run ({DATASET}/{SCALE}, base={base_n}, "
              f"initial fit {fit_seconds:.1f}s)",
    ))
    report_path = write_bench_report("incremental", rows, meta={
        "scale": SCALE,
        "seed": SEED,
        "base_records": base_n,
        "initial_fit_sec": round(fit_seconds, 4),
    })
    emit(capfd, report_note(report_path))

    # the frozen model's parameters are untouched — EM never re-ran
    assert prior_after == prior_before
    # every batch must beat the full re-run; the 10-record batch decisively so
    for row in rows:
        assert row["seconds"] < row["baseline_seconds"], row
    assert rows[0]["speedup"] > 10.0


# -- shard-count scale trajectory ----------------------------------------------

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Store sizes of the shard-count trajectory, smallest first. The checked-in
#: ``BENCH_shard.json`` comes from the full run; CI caps the list with
#: ``REPRO_BENCH_MAX_SCALE=100000`` and smoke keeps only the smallest.
SHARD_SCALES = (10_000, 100_000, 1_000_000)
SHARDS = 8
SHARD_SEED = 23
FIT_N = 1_500
PROBE_N = 50 if SMOKE else 200

#: Venue-name word pool; 3-word names over ~60 words keep token document
#: frequencies around 5% of the store — long posting lists, under the
#: blocker's default 0.2 df cap at every scale.
_NAME_POOL = RESTAURANT_WORDS + STREET_NAMES

#: The dirty-duplicate channel: the error classes the corruption module
#: models for venue strings (typos, dropped and reordered tokens).
_NOISE = Corruptor([(0.5, typo), (0.2, drop_token), (0.2, swap_tokens)])


def _shard_scales() -> tuple:
    cap = int(os.environ.get("REPRO_BENCH_MAX_SCALE", SHARD_SCALES[-1]))
    scales = tuple(s for s in SHARD_SCALES if s <= cap) or SHARD_SCALES[:1]
    return scales[:1] if SMOKE else scales


def _synthetic_corpus(n: int, seed: int, prefix: str = "r") -> list[dict]:
    """``n`` seeded venue records: unique entities plus ~20% corrupted
    near-duplicates of their predecessor (the paper's dirty-ER setting)."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, len(_NAME_POOL), size=(n, 3))
    cities = rng.integers(0, len(CITIES), size=n)
    cuisines = rng.integers(0, len(CUISINES), size=n)
    duplicate = rng.random(n) < 0.2
    records: list[dict] = []
    for i in range(n):
        if duplicate[i] and records:
            base = records[-1]
            records.append(
                {**base, "id": f"{prefix}{i}", "name": _NOISE(rng, base["name"])}
            )
            continue
        a, b, c = words[i]
        records.append(
            {
                "id": f"{prefix}{i}",
                "name": f"{_NAME_POOL[a]} {_NAME_POOL[b]} {_NAME_POOL[c]}",
                "city": CITIES[cities[i]],
                "cuisine": CUISINES[cuisines[i]],
            }
        )
    return records


def _probe_batch(corpus: list, rng, n: int, tag: str) -> list[dict]:
    """Corrupted copies of ``n`` random corpus records, under fresh ids."""
    picks = rng.choice(len(corpus), size=n, replace=False)
    return [
        {**corpus[int(p)], "id": f"{tag}-{k}", "name": _NOISE(rng, corpus[int(p)]["name"])}
        for k, p in enumerate(picks)
    ]


def _grow(resolver, corpus: list) -> float:
    """Ingest an already-resolved corpus (index + store, no scoring).

    How the store got large is not what this bench measures; seeding the
    structures directly keeps the setup proportional to the corpus instead
    of to the quadratic pair space.
    """
    started = time.perf_counter()
    resolver.index.add(corpus)
    resolver.store.add_records(corpus)
    return time.perf_counter() - started


def _out_of_core_leg(sharded, reference, corpus, rng, tmp_path) -> dict:
    """Resolve against a saved store whose mapped bytes exceed the budget."""
    root = tmp_path / "shard-bench"
    sharded.save(root)
    shard_files = sorted(artifact_dir(root).glob("shards/*.shard"))
    mapped_bytes = sum(p.stat().st_size for p in shard_files)
    budget_bytes = max(1, mapped_bytes // 4)
    # republish with the budget in the manifest: every shard is clean after
    # the first save, so the second publish hardlinks them all and only
    # rewrites the JSON envelope
    sharded.store.loader.budget_bytes = budget_bytes
    sharded.save(root)
    loaded = IncrementalResolver.load(root)
    assert loaded.store.loader.budget_bytes == budget_bytes
    batch = _probe_batch(corpus, rng, 32, "ooc")
    started = time.perf_counter()
    out = loaded.resolve(batch)
    seconds = time.perf_counter() - started
    expected = reference.resolve(batch)
    assert out.matches == expected.matches
    assert np.array_equal(out.scores, expected.scores)
    stats = loaded.store.loader.stats()
    assert mapped_bytes > budget_bytes
    # lazy loading: a 32-record batch touches a subset of the 2×SHARDS maps
    assert 0 < stats["loaded_shards"] <= 2 * SHARDS
    return {
        "mapped_bytes": mapped_bytes,
        "budget_bytes": budget_bytes,
        "shard_files": len(shard_files),
        "probes": len(batch),
        "resolve_sec": round(seconds, 4),
        "matches": len(out.matches),
        "loader": stats,
    }


def test_shard_count_scale_trajectory(benchmark, capfd, tmp_path):
    def run():
        scales = _shard_scales()
        corpus_full = _synthetic_corpus(max(scales), SHARD_SEED)
        pipeline = ERPipeline(
            blocker=TokenOverlapBlocker("name", min_overlap=2, top_k=10)
        )
        pipeline.run(
            Table(
                _synthetic_corpus(FIT_N, SHARD_SEED + 1, prefix="fit-"),
                attributes=["name", "city", "cuisine"],
            )
        )
        rng = np.random.default_rng(SHARD_SEED + 2)
        rows, out_of_core = [], None
        for scale in scales:
            corpus = corpus_full[:scale]
            single = pipeline.freeze()
            sharded = pipeline.freeze(shards=SHARDS)
            single_ingest = _grow(single, corpus)
            sharded_ingest = _grow(sharded, corpus)
            warm = _probe_batch(corpus, rng, 16, f"warm{scale}")
            timed = _probe_batch(corpus, rng, PROBE_N, f"probe{scale}")
            single.resolve(warm)  # warm the featurization caches once
            sharded.resolve(warm)

            started = time.perf_counter()
            reference = single.resolve(timed)
            single_sec = time.perf_counter() - started
            started = time.perf_counter()
            out = sharded.resolve(timed)
            sharded_sec = time.perf_counter() - started

            # a fast wrong answer is no answer: bit-identical scoring
            assert out.pairs == reference.pairs
            assert out.matches == reference.matches
            assert np.array_equal(out.scores, reference.scores)

            rows.append(
                bench_workload(
                    "synthetic",
                    "sharded",
                    sharded_sec,
                    baseline_engine="1-shard",
                    baseline_seconds=single_sec,
                    scale=scale,
                    probes=PROBE_N,
                    pairs_scored=len(out.pairs),
                    matches=len(out.matches),
                    shards=SHARDS,
                    records_per_sec=round(PROBE_N / max(sharded_sec, 1e-9)),
                    ingest_sec=round(sharded_ingest, 4),
                    baseline_ingest_sec=round(single_ingest, 4),
                )
            )
            if scale == scales[-1] and not SMOKE:
                out_of_core = _out_of_core_leg(sharded, single, corpus, rng, tmp_path)
        return rows, out_of_core

    rows, out_of_core = one_shot(benchmark, run)

    table_rows = [
        {
            "store": w["scale"],
            "pairs": w["pairs_scored"],
            "matches": w["matches"],
            "1shard_sec": w["baseline_seconds"],
            "sharded_sec": w["seconds"],
            "speedup": w["speedup"],
            "rec/s": w["records_per_sec"],
        }
        for w in rows
    ]
    emit(capfd, "")
    emit(capfd, format_table(
        table_rows,
        ["store", "pairs", "matches", "1shard_sec", "sharded_sec", "speedup", "rec/s"],
        title=f"{SHARDS} shards vs 1 shard, {PROBE_N}-record resolve batches",
    ))
    if out_of_core is not None:
        emit(
            capfd,
            f"out-of-core: {out_of_core['mapped_bytes']:,} mapped bytes under a "
            f"{out_of_core['budget_bytes']:,}-byte budget; resolve "
            f"{out_of_core['resolve_sec']}s, loader {out_of_core['loader']}",
        )

    report_path = write_bench_report("shard", rows, meta={
        "seed": SHARD_SEED,
        "fit_records": FIT_N,
        "shards": SHARDS,
        "probes": PROBE_N,
        "out_of_core": out_of_core,
    })
    emit(capfd, report_note(report_path))


# -- feature memo: repeated values against none ----------------------------------

#: Store size, streamed batches and batch size of the feature-memo legs.
MEMO_STORE_N = 1_000 if SMOKE else 10_000
MEMO_BATCHES = 8 if SMOKE else 240
MEMO_BATCH = 32
MEMO_SEED = 25

#: The memo path may cost at most this much more featurization (median per
#: batch) than the memo-less path on a corpus without repeated values.
MEMO_NO_REPEAT_BUDGET = 0.05

_VENUE_ATTRIBUTES = ["name", "city", "cuisine"]


class _TimedTransform:
    """A fitted generator whose ``transform`` calls are timed in CPU seconds.

    CPU time leaves out the steal time of a shared host.
    """

    def __init__(self, generator):
        self.generator = generator
        self.seconds: list[float] = []

    def transform(self, *args, **kwargs):
        started = time.process_time()
        try:
            return self.generator.transform(*args, **kwargs)
        finally:
            self.seconds.append(time.process_time() - started)


def _without_repeats(records: list) -> list:
    """The records with a city and cuisine no other record shares."""
    return [
        {**rec, "city": f"{rec['city']} {rec['id']}", "cuisine": f"{rec['cuisine']} {rec['id']}"}
        for rec in records
    ]


def _repeat_shares(batches: list) -> dict:
    """Per attribute, the share of a batch's distinct value pairs that an
    earlier batch already held (the input property the memo exploits)."""
    shares = {}
    for attribute in _VENUE_ATTRIBUTES:
        seen: set = set()
        repeated = total = 0
        for pairs in batches:
            distinct = {(a.get(attribute), b.get(attribute)) for a, b in pairs}
            repeated += len(distinct & seen)
            total += len(distinct)
            seen |= distinct
        shares[attribute] = round(repeated / max(total, 1), 4)
    return shares


def _memo_leg(repeats: bool) -> dict:
    """Stream batches through a resolver (memo) and through the reference
    resolve on a twin store and index (no memo); both must agree bit for bit."""
    from reference_engine import reference_resolve

    def prepare(records: list) -> list:
        return records if repeats else _without_repeats(records)

    pipeline = ERPipeline(blocker=TokenOverlapBlocker("name", min_overlap=2, top_k=10))
    pipeline.run(
        Table(
            prepare(_synthetic_corpus(FIT_N, MEMO_SEED + 1, prefix="fit-")),
            attributes=_VENUE_ATTRIBUTES,
        )
    )
    corpus = prepare(_synthetic_corpus(MEMO_STORE_N, MEMO_SEED))
    resolver, twin = pipeline.freeze(), pipeline.freeze()
    _grow(resolver, corpus)
    _grow(twin, corpus)
    memo_timer = _TimedTransform(resolver.generator)
    resolver.generator = memo_timer
    plain_timer = _TimedTransform(twin.generator)
    rng = np.random.default_rng(MEMO_SEED + 2)
    scored_pairs = []
    for b in range(MEMO_BATCHES):
        batch = prepare(_probe_batch(corpus, rng, MEMO_BATCH, f"m{b}"))

        def through_memo():
            return resolver.resolve([dict(r) for r in batch])

        def without_memo():
            return reference_resolve(
                plain_timer, twin.model, twin.index, twin.store, [dict(r) for r in batch]
            )

        # the two paths share the fitted generator: alternate which goes first
        if b % 2:
            (pairs, scores), result = without_memo(), through_memo()
        else:
            result, (pairs, scores) = through_memo(), without_memo()
        # a fast wrong answer is no answer: bit-identical scoring
        assert result.pairs == pairs
        assert result.scores.tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
        assert result.assignments == {r: twin.store.entity_of(r) for r in result.record_ids}
        scored_pairs.append([(resolver.store.get(x), resolver.store.get(y)) for x, y in pairs])
    assert len(memo_timer.seconds) == len(plain_timer.seconds) == MEMO_BATCHES
    memo_ms = float(np.median(memo_timer.seconds)) * 1000.0
    plain_ms = float(np.median(plain_timer.seconds)) * 1000.0
    return bench_workload(
        "synthetic",
        "memo",
        memo_ms / 1000.0,
        baseline_engine="no-memo",
        baseline_seconds=plain_ms / 1000.0,
        corpus="repeats" if repeats else "no-repeats",
        store=MEMO_STORE_N,
        batches=MEMO_BATCHES,
        pairs_per_batch=round(sum(map(len, scored_pairs)) / MEMO_BATCHES, 1),
        memo_feature_ms=round(memo_ms, 3),
        no_memo_feature_ms=round(plain_ms, 3),
        repeat_share=_repeat_shares(scored_pairs),
        memo_entries={a: len(m) for a, m in resolver._feature_memo.items()},
    )


def test_feature_memo_on_repeats_and_none(benchmark, capfd):
    rows = one_shot(benchmark, lambda: [_memo_leg(repeats=True), _memo_leg(repeats=False)])
    emit(capfd, "")
    emit(capfd, format_table(
        [
            {
                "corpus": w["corpus"],
                "pairs/batch": w["pairs_per_batch"],
                "memo_ms": w["memo_feature_ms"],
                "no_memo_ms": w["no_memo_feature_ms"],
                "speedup": w["speedup"],
                "repeat_share": " ".join(f"{a}={s}" for a, s in w["repeat_share"].items()),
            }
            for w in rows
        ],
        ["corpus", "pairs/batch", "memo_ms", "no_memo_ms", "speedup", "repeat_share"],
        title=f"Featurization per {MEMO_BATCH}-record resolve batch, median CPU ms "
        f"({MEMO_STORE_N} store, {MEMO_BATCHES} batches)",
    ))
    report_path = write_bench_report("memo", rows, meta={
        "seed": MEMO_SEED,
        "fit_records": FIT_N,
        "batch": MEMO_BATCH,
        "clock": "process CPU seconds of each FeatureGenerator.transform call",
    })
    emit(capfd, report_note(report_path))
    if not SMOKE:
        no_repeats = rows[1]
        budget = (1 + MEMO_NO_REPEAT_BUDGET) * no_repeats["baseline_seconds"]
        assert no_repeats["seconds"] <= budget, no_repeats
