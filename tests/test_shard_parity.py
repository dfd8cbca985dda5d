"""Engine-vs-reference parity on the six fixture benchmarks.

The acceptance bar for the resolution engine: for every fixture dataset
(linkage and dedup), any shard count, and workers 1 or 4, a resolve batch
must produce bit-identical candidate pairs, scores, match sets, and stable
entity ids to the reference loop in ``reference_engine``. One batch fit per
dataset is shared across configurations (``freeze`` re-derives the frozen
state, so each configuration still gets its own store/index).
"""

import numpy as np
import pytest

from reference_engine import reference_freeze, reference_resolve
from repro.api.pipeline import ERPipeline
from repro.blocking.overlap import TokenOverlapBlocker
from repro.eval.harness import _BLOCKING, load_benchmark

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")

_FITTED: dict = {}


def _fitted(name):
    """One batch fit per dataset, shared by every parity configuration."""
    if name not in _FITTED:
        bench = load_benchmark(name, scale="tiny", seed=11)
        attr, min_overlap, top_k, _cap = _BLOCKING[name]
        pipeline = ERPipeline(
            blocker=TokenOverlapBlocker(attr, min_overlap=min_overlap, top_k=top_k)
        )
        if bench.right is not None:
            pipeline.run(bench.left, bench.right)
        else:
            pipeline.run(bench.left)
        _FITTED[name] = (pipeline, bench)
    return _FITTED[name]


def _held_out_batch(bench, n=25):
    batch = []
    for i, rec in enumerate(bench.left):
        if i >= n:
            break
        batch.append(dict(rec, **{bench.left.id_attr: f"probe-{i}"}))
    return batch


def _fingerprint(pairs, scores, store, record_ids, threshold=0.5):
    assignments = {rid: store.entity_of(rid) for rid in record_ids}
    return {
        "pairs": pairs,
        "scores": np.asarray(scores, dtype=np.float64).tobytes(),
        "matches": [pair for pair, score in zip(pairs, scores) if score > threshold],
        "assignments": assignments,
        "entities": dict(store.entities()),
        "clusters": set(store.clusters()),
    }


def _reference_fingerprint(pipeline, bench, batch=None):
    batch = _held_out_batch(bench) if batch is None else batch
    index, store = reference_freeze(pipeline, 0.5)
    pairs, scores = reference_resolve(
        pipeline.generator_, pipeline.model_, index, store, [dict(r) for r in batch]
    )
    return _fingerprint(pairs, scores, store, [r[bench.left.id_attr] for r in batch])


def _engine_fingerprint(pipeline, bench, *, shards, workers, batch=None):
    batch = _held_out_batch(bench) if batch is None else batch
    resolver = pipeline.freeze(0.5, shards=shards, workers=workers)
    try:
        result = resolver.resolve([dict(r) for r in batch])
        fingerprint = _fingerprint(result.pairs, result.scores, resolver.store, result.record_ids)
        assert fingerprint["matches"] == result.matches
        assert fingerprint["assignments"] == result.assignments
        return fingerprint
    finally:
        resolver.close()


@pytest.mark.parametrize("name", DATASETS)
def test_sharded_resolve_is_bit_identical(name):
    pipeline, bench = _fitted(name)
    reference = _reference_fingerprint(pipeline, bench)
    for shards in (1, 2, 5, 16):
        engine = _engine_fingerprint(pipeline, bench, shards=shards, workers=1)
        assert engine == reference, f"{name} diverged at shards={shards}"


@pytest.mark.parametrize("name", DATASETS)
def test_worker_pool_is_bit_identical(name):
    """workers=4 featurizes in subprocesses; scores must not move a bit."""
    pipeline, bench = _fitted(name)
    reference = _reference_fingerprint(pipeline, bench)
    assert _engine_fingerprint(pipeline, bench, shards=3, workers=4) == reference


def test_shard_stats_on_every_resolve():
    pipeline, bench = _fitted("rest_fz")
    batch = _held_out_batch(bench, n=10)
    for shards in (1, 4):
        resolver = pipeline.freeze(0.5, shards=shards)
        try:
            result = resolver.resolve([dict(r) for r in batch])
            stats = result.shard_stats
            assert stats["n_shards"] == shards
            assert stats["workers"] == 1
            assert set(stats["index_shards_touched"]) <= set(range(shards))
            assert sum(stats["pairs_per_shard"].values()) == len(result.pairs)
        finally:
            resolver.close()


def test_mixed_batch_merges_match_reference():
    """In-batch duplicates + cross-store merges land on identical entity ids."""
    pipeline, bench = _fitted("rest_fz")
    id_attr = bench.left.id_attr
    twins = []
    for i, rec in enumerate(bench.left):
        if i >= 8:
            break
        twins.append(dict(rec, **{id_attr: f"dup-a-{i}"}))
        twins.append(dict(rec, **{id_attr: f"dup-b-{i}"}))
    reference = _reference_fingerprint(pipeline, bench, batch=twins)
    assert reference["matches"]
    engine = _engine_fingerprint(pipeline, bench, shards=5, workers=1, batch=twins)
    assert engine == reference
