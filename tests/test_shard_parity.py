"""Engine-vs-reference parity on the six fixture benchmarks.

The acceptance bar for the resolution engine: for every fixture dataset
(linkage and dedup) and any shard count, a resolve batch must produce
bit-identical candidate pairs, scores, match sets, and stable entity ids
to the reference loop in ``reference_engine``; and featurizing a batch's
pairs in contiguous chunks, each against only the records it references,
must reproduce the one-call matrix bit for bit. One batch fit per dataset
is shared across configurations (``freeze`` re-derives the frozen state,
so each configuration still gets its own store/index).
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


def _engine_fingerprint(pipeline, bench, *, shards, batch=None):
    batch = _held_out_batch(bench) if batch is None else batch
    resolver = pipeline.freeze(0.5, shards=shards)
    result = resolver.resolve([dict(r) for r in batch])
    fingerprint = _fingerprint(result.pairs, result.scores, resolver.store, result.record_ids)
    assert fingerprint["matches"] == result.matches
    assert fingerprint["assignments"] == result.assignments
    return fingerprint


@pytest.mark.parametrize("name", DATASETS)
def test_sharded_resolve_is_bit_identical(name):
    pipeline, bench = _fitted(name)
    reference = _reference_fingerprint(pipeline, bench)
    for shards in (1, 2, 5, 16):
        engine = _engine_fingerprint(pipeline, bench, shards=shards)
        assert engine == reference, f"{name} diverged at shards={shards}"


def _chunk_bounds(n):
    """Contiguous chunk boundaries over ``n`` pairs: a 1-pair chunk, then
    uneven ones (sizes 2, 3, 5, ...), the last taking the remainder."""
    bounds, size = [0, 1], 2
    while bounds[-1] + size < n:
        bounds.append(bounds[-1] + size)
        size = size + 1 if size < 3 else size * 2 - 1
    if bounds[-1] < n:
        bounds.append(n)
    return bounds


@pytest.mark.parametrize("name", DATASETS)
def test_chunked_featurization_is_bit_identical(name):
    """A batch's feature matrix does not depend on how its pairs are split.

    Each contiguous chunk is featurized against a dict holding only the
    records its pairs reference; stacking the chunks must reproduce one
    call over all pairs against the whole store, bit for bit.
    """
    pipeline, bench = _fitted(name)
    resolver = pipeline.freeze(0.5)
    result = resolver.resolve([dict(r) for r in _held_out_batch(bench)])
    pairs, store, generator = result.pairs, resolver.store, resolver.generator
    assert len(pairs) > 1, f"{name}: the held-out batch retrieved too few pairs"
    whole = generator.transform(store, None, pairs)

    bounds = _chunk_bounds(len(pairs))
    assert bounds[1] == 1 and len(bounds) > 3
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = pairs[lo:hi]
        records = {rid: store.get(rid) for pair in chunk for rid in pair}
        chunks.append(generator.transform(records, None, chunk))
    stacked = np.vstack(chunks)
    assert stacked.shape == whole.shape
    assert stacked.tobytes() == whole.tobytes(), f"{name}: chunked features diverged"


def test_shard_stats_on_every_resolve():
    pipeline, bench = _fitted("rest_fz")
    batch = _held_out_batch(bench, n=10)
    for shards in (1, 4):
        resolver = pipeline.freeze(0.5, shards=shards)
        result = resolver.resolve([dict(r) for r in batch])
        stats = result.shard_stats
        assert stats["n_shards"] == shards
        assert set(stats["index_shards_touched"]) <= set(range(shards))
        assert sum(stats["pairs_per_shard"].values()) == len(result.pairs)


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
    engine = _engine_fingerprint(pipeline, bench, shards=5, batch=twins)
    assert engine == reference
