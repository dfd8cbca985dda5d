"""ShardedEntityStore: union-find parity with the reference store, cross-shard merges."""

import numpy as np
import pytest

from reference_engine import EntityStore
from repro.shard import ShardedEntityStore, shard_of_record


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {
            "id": f"r{i}",
            "name": f"name-{int(rng.integers(1000))}",
            "city": None if i % 7 == 0 else f"city-{i % 5}",
        }
        for i in range(n)
    ]


def _mirrored(n_shards, records):
    reference = EntityStore()
    sharded = ShardedEntityStore(n_shards=n_shards)
    for rec in records:
        reference.add(rec)
        sharded.add(rec)
    return reference, sharded


class TestUnionFindParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 5, 16])
    def test_random_merge_sequence_matches_reference(self, n_shards):
        records = _records(80, seed=1)
        reference, sharded = _mirrored(n_shards, records)
        rng = np.random.default_rng(2)
        for _ in range(120):
            a, b = (f"r{int(i)}" for i in rng.integers(0, len(records), size=2))
            assert sharded.merge(a, b) == reference.merge(a, b)
        assert sharded.n_entities == reference.n_entities
        for rec in records:
            assert sharded.entity_of(rec["id"]) == reference.entity_of(rec["id"])
        assert sharded.entities() == reference.entities()
        assert set(sharded.clusters()) == set(reference.clusters())

    def test_add_returns_matching_singleton_ids(self):
        records = _records(10, seed=3)
        reference = EntityStore()
        sharded = ShardedEntityStore(n_shards=4)
        for rec in records:
            assert sharded.add(rec) == reference.add(rec)

    def test_payloads_round_trip_through_shards(self):
        records = _records(30, seed=4)
        _, sharded = _mirrored(3, records)
        for rec in records:
            assert sharded.get(rec["id"]) == rec
        assert sharded.records() == records

    def test_duplicate_id_rejected(self):
        sharded = ShardedEntityStore(n_shards=2)
        sharded.add({"id": "a", "name": "x"})
        with pytest.raises(ValueError, match="already in the store"):
            sharded.add({"id": "a", "name": "y"})


class TestCrossShardMerges:
    def _cross_shard_pair(self, n_shards, count=500):
        """Two record ids that hash into different payload shards."""
        for i in range(count):
            a, b = f"left-{i}", f"right-{i}"
            if shard_of_record(a, n_shards) != shard_of_record(b, n_shards):
                return a, b
        raise AssertionError("no cross-shard pair found")  # pragma: no cover

    @pytest.mark.parametrize("n_shards", [2, 5, 16])
    def test_cross_shard_merge_unifies_to_one_entity(self, n_shards):
        a, b = self._cross_shard_pair(n_shards)
        reference = EntityStore()
        sharded = ShardedEntityStore(n_shards=n_shards)
        for store in (reference, sharded):
            store.add({"id": a, "name": "same place"})
            store.add({"id": b, "name": "same place"})
        assert sharded.shard_of(a) != sharded.shard_of(b)
        assert sharded.merge(a, b) == reference.merge(a, b)
        assert sharded.entity_of(a) == sharded.entity_of(b) == reference.entity_of(a)
        assert sharded.n_entities == reference.n_entities == 1

    def test_merge_chain_spanning_every_shard(self):
        """A chain of merges across all shards collapses to the oldest ordinal."""
        n_shards = 8
        records = _records(64, seed=5)
        reference, sharded = _mirrored(n_shards, records)
        assert {shard_of_record(r["id"], n_shards) for r in records} == set(
            range(n_shards)
        )
        for rec in records[1:]:
            reference.merge(records[0]["id"], rec["id"])
            sharded.merge(records[0]["id"], rec["id"])
        assert sharded.entity_of(records[-1]["id"]) == "e0"
        assert sharded.entities() == reference.entities()


class TestSnapshotsAndState:
    def test_snapshot_matches_reference(self):
        records = _records(40, seed=6)
        reference, sharded = _mirrored(4, records)
        for i in range(0, 30, 3):
            reference.merge(f"r{i}", f"r{i + 1}")
            sharded.merge(f"r{i}", f"r{i + 1}")
        ours, ref = sharded.snapshot(), reference.snapshot()
        assert ours.n_records == ref.n_records
        assert ours.n_entities == ref.n_entities
        assert dict(ours.entities) == dict(ref.entities)
        assert dict(ours.assignments) == dict(ref.assignments)

    def test_shard_sizes_reports_every_shard(self):
        records = _records(40, seed=8)
        _, sharded = _mirrored(5, records)
        sizes = sharded.shard_sizes()
        assert [info["shard"] for info in sizes] == list(range(5))
        assert sum(info["records"] for info in sizes) == len(records)
        assert all(info["dirty"] for info in sizes)  # nothing saved yet
