"""Streaming entity resolution: fit once, resolve arriving batches forever.

Fits the batch pipeline on an initial dirty table, freezes it into an
:class:`~repro.incremental.IncrementalResolver`, saves the artifacts to
disk, reloads them (as a serving process would), and streams two batches
of newly arriving records into the persistent entity store
(:class:`~repro.shard.ShardedEntityStore`) — without ever re-running EM.

Run:  python examples/incremental_updates.py
"""

import tempfile
import time
from pathlib import Path

from repro import IncrementalResolver, load_benchmark
from repro.data.table import Table
from repro import ERPipeline


def main() -> None:
    # 1. A dirty (duplicate-ridden) table: the dedup view of a benchmark,
    #    with the last 30 records held back to arrive later as a stream.
    merged, _ = load_benchmark("rest_fz", scale="small").as_dedup()
    records = list(merged)
    initial = Table(records[:-30], attributes=merged.attributes)
    stream = records[-30:]
    print(f"initial table: {len(initial)} records, {len(stream)} arriving later")

    # 2. Batch fit — the only time EM runs — then freeze the fitted
    #    pipeline into an incremental resolver and persist it.
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(initial)
    resolver = pipeline.freeze()
    print(
        f"fitted: {len(resolver.store)} records resolved into "
        f"{resolver.store.n_entities} entities"
    )

    artifacts = Path(tempfile.mkdtemp()) / "resolver"
    resolver.save(artifacts)
    print(f"artifacts saved to {artifacts}")

    # 3. A fresh process would start here: load the frozen resolver.
    resolver = IncrementalResolver.load(artifacts)

    # 4. Stream two batches of arriving records. Each resolve probes the
    #    incremental index, featurizes only the new candidate pairs, scores
    #    them with the frozen model, and merges matches into the store.
    for n_batch, batch in enumerate((stream[:15], stream[15:]), start=1):
        started = time.perf_counter()
        result = resolver.resolve(batch)
        elapsed = time.perf_counter() - started
        print(
            f"\nbatch {n_batch}: {len(batch)} records in {elapsed * 1000:.1f} ms "
            f"({len(result.pairs)} pairs scored, {len(result.matches)} matches)"
        )
        for rid in result.record_ids:
            entity = result.assignments[rid]
            members = resolver.store.members(entity)
            if len(members) > 1:
                partner = next(m for m in members if m != rid)
                print(
                    f"  {rid} -> {entity}: "
                    f"{resolver.store.get(rid)['name']!r} joins "
                    f"{resolver.store.get(partner)['name']!r}"
                )

    # 5. The store keeps the full resolution state and can be saved again.
    resolver.save(artifacts)
    print(
        f"\nstore now holds {len(resolver.store)} records in "
        f"{resolver.store.n_entities} entities; artifacts updated in place"
    )


if __name__ == "__main__":
    main()
