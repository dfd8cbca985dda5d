"""Tests for the persistent entity store (union-find cluster registry)."""

import pytest

from repro.shard import ShardedEntityStore, ShardedTokenIndex, load_sharded_state, sharded_payload
from repro.shard.artifacts import payload_meta, write_payload_files


def _store_with(n: int) -> ShardedEntityStore:
    store = ShardedEntityStore()
    store.add_records({"id": f"r{i}", "name": f"record {i}"} for i in range(n))
    return store


class TestEntityStore:
    def test_add_assigns_singleton_entities(self):
        store = _store_with(3)
        assert len(store) == 3
        assert store.n_entities == 3
        assert store.entity_of("r0") != store.entity_of("r1")

    def test_duplicate_add_raises(self):
        store = _store_with(1)
        with pytest.raises(ValueError, match="already in the store"):
            store.add({"id": "r0"})

    def test_merge_is_transitive(self):
        store = _store_with(4)
        store.merge("r0", "r1")
        store.merge("r1", "r2")
        assert store.entity_of("r0") == store.entity_of("r2")
        assert store.n_entities == 2
        assert frozenset(["r0", "r1", "r2"]) in store.clusters()

    def test_entity_ids_are_stable_under_merges(self):
        """A merge keeps the older entity id, so ids never churn."""
        store = _store_with(5)
        first = store.entity_of("r0")
        store.merge("r3", "r4")       # young pair merges under r3's id
        assert store.merge("r0", "r3") == first
        assert store.entity_of("r4") == first

    def test_merge_already_same_cluster_is_noop(self):
        store = _store_with(2)
        eid = store.merge("r0", "r1")
        assert store.merge("r1", "r0") == eid
        assert store.n_entities == 1

    def test_members_and_entities(self):
        store = _store_with(3)
        store.merge("r0", "r2")
        entities = store.entities()
        eid = store.entity_of("r0")
        assert entities[eid] == ["r0", "r2"]
        assert store.members(eid) == ["r0", "r2"]
        assert store.members("e999") == []

    def test_get_and_records_round_trip(self):
        store = _store_with(2)
        assert store.get("r1")["name"] == "record 1"
        with pytest.raises(KeyError):
            store.get("missing")
        assert [r["id"] for r in store.records()] == ["r0", "r1"]
        assert "r0" in store and "zz" not in store

    def test_state_round_trip_preserves_entity_ids(self, tmp_path):
        """The shard-container layout round-trips entity ids and keeps growing."""
        store = _store_with(6)
        store.merge("r0", "r3")
        store.merge("r4", "r5")
        store.merge("r1", "r4")
        index = ShardedTokenIndex("name")
        index.add(store.records())
        payload = sharded_payload(store, index)
        write_payload_files(tmp_path, payload)
        rebuilt, _ = load_sharded_state(
            tmp_path, {"sharded": payload_meta(payload), "index": index.params()}
        )
        assert rebuilt.entities() == store.entities()
        assert rebuilt.records() == store.records()
        for rid in ("r0", "r1", "r2", "r5"):
            assert rebuilt.entity_of(rid) == store.entity_of(rid)
        # the rebuilt store keeps accepting new records and merges
        rebuilt.add({"id": "r6", "name": "record 6"})
        assert rebuilt.merge("r6", "r0") == store.entity_of("r0")
