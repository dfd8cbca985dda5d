"""ShardedEntityStore: union-find parity with the reference store, cross-shard merges.

The property tests drive the store and the oracle
(:class:`reference_engine.EntityStore`) through the same random
``add_records``/``merge`` steps — self-merges, repeated merges, merges of
records already joined, failed adds, record ids spelled like entity ids —
and compare every read after every step, and again after a save → load
round trip, including a ledger laid out as union by rank wrote it (with
its ``rank`` segment).
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import EntityStore, reference_freeze
from repro import ERPipeline
from repro.data.table import Table
from repro.incremental import IncrementalResolver
from repro.shard import ShardedEntityStore, shard_of_record
from repro.shard import artifacts as shard_artifacts


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


# -- property tests against the oracle -------------------------------------------

_WORDS = ("harbor", "maple", "sunset", "copper", "willow", "granite", "juniper")
_SUFFIXES = ("grill", "bistro", "cafe", "diner", "tavern")

#: Ids that are not entity ids, whatever the store holds.
_MALFORMED = ("e01", "e00", "e", "e-1", "e+1", "e 1", "e1.0", "E1", "x", "", f"e{10**30}")

#: One step: ``("add", [spelled like an entity id?, ...])``, ``("merge", i, j)``,
#: ``("self", i)``, ``("again", i)`` (repeat an earlier merge) or ``("dup", i)``
#: (a fresh record followed by a stored one: the add fails half-way).
_INDEX = st.integers(0, 10**6)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(st.booleans(), min_size=1, max_size=4)),
        st.tuples(st.just("merge"), _INDEX, _INDEX),
        st.tuples(st.just("self"), _INDEX),
        st.tuples(st.just("again"), _INDEX),
        st.tuples(st.just("dup"), _INDEX),
    ),
    max_size=30,
)


def _new_record(position: int, entity_like: bool, shift: int) -> dict:
    """The record added at ``position``; ``e<n>`` ids collide with entity ids."""
    rid = f"e{position + shift}" if entity_like else f"r{position}"
    return {
        "id": rid,
        "name": f"{_WORDS[position % 7]} {_WORDS[position % 3]} {_SUFFIXES[position % 5]}",
        "city": f"city-{position % 4}",
    }


def _run_step(step, ref, stores, history, shift, index=None) -> None:
    """Apply one step to the oracle and every store; their answers must agree."""
    kind = step[0]
    rids = [rec[ref.id_attr] for rec in ref.records()]
    n = len(rids)
    if kind == "add":
        batch = [_new_record(n + i, flag, shift) for i, flag in enumerate(step[1])]
        expected = ref.add_records(batch)
        for store in stores:
            assert store.add_records(batch) == expected
        if index is not None:
            index.add(batch)
        return
    if not n:
        return
    if kind == "dup":
        fresh, stored = _new_record(n, False, shift), ref.get(rids[step[1] % n])
        for store in (ref, *stores):
            with pytest.raises(ValueError, match="already in the store"):
                store.add_records([fresh, stored])
        if index is not None:
            index.add([fresh])
        return
    if kind == "merge":
        a, b = rids[step[1] % n], rids[step[2] % n]
    elif kind == "self":
        a = b = rids[step[1] % n]
    elif history:
        a, b = history[step[1] % len(history)]
    else:
        return
    history.append((a, b))
    expected = ref.merge(a, b)
    for store in stores:
        assert store.merge(a, b) == expected


def _oracle_cluster(ref, entities: dict, id_):
    """What ``cluster_of`` must answer, derived from the oracle's partition."""
    if id_ in entities:
        return id_, entities[id_]
    if id_ in ref:
        entity_id = ref.entity_of(id_)
        return entity_id, entities[entity_id]
    return None


def _assert_matches_oracle(ours, ref) -> None:
    rids = [rec[ref.id_attr] for rec in ref.records()]
    entities = ref.entities()
    # live ids, retired ids, and two past the newest ordinal
    labels = [f"e{k}" for k in range(len(rids) + 2)]
    assert len(ours) == len(ref)
    assert ours.n_entities == ref.n_entities
    assert [ours.entity_of(rid) for rid in rids] == [ref.entity_of(rid) for rid in rids]
    for entity_id in (*labels, *_MALFORMED):
        assert ours.members(entity_id) == ref.members(entity_id), entity_id
    assert list(ours.entities().items()) == list(entities.items())
    for id_ in (*labels, *rids, *_MALFORMED):
        assert ours.cluster_of(id_) == _oracle_cluster(ref, entities, id_), id_
    assert ours.clusters() == ref.clusters()
    snap, ref_snap = ours.snapshot(), ref.snapshot()
    assert (snap.n_records, snap.n_entities) == (ref_snap.n_records, ref_snap.n_entities)
    assert list(snap.entities.items()) == list(ref_snap.entities.items())
    assert list(snap.assignments.items()) == list(ref_snap.assignments.items())


def _ledger_by_rank(ref):
    """Save ledgers as union by rank wrote them: its roots, ordinals and ``rank``.

    The oracle runs union by rank, so its roots and ranks are what a store
    built by that algorithm would have written for the same steps.
    """
    original = shard_artifacts._ledger_segments

    def ledger(store, index):
        segments, meta = original(store, index)
        rids = list(store._order)
        position = {rid: i for i, rid in enumerate(rids)}
        segments["parent"] = np.array([position[ref._find(rid)] for rid in rids], dtype=np.int64)
        segments["rank"] = np.array([ref._rank[rid] for rid in rids], dtype=np.int64)
        ords = np.full(len(rids), -1, dtype=np.int64)
        for root, ord_ in ref._entity_ord.items():
            ords[position[root]] = ord_
        segments["ord"] = ords
        return segments, meta

    return mock.patch.object(shard_artifacts, "_ledger_segments", ledger)


class TestOracleProperties:
    @settings(max_examples=200, deadline=None)
    @given(steps=_STEPS, n_shards=st.sampled_from([1, 4]), shift=st.sampled_from([0, 1, 5]))
    def test_random_steps_match_oracle(self, steps, n_shards, shift):
        ref, ours, history = EntityStore(), ShardedEntityStore(n_shards=n_shards), []
        _assert_matches_oracle(ours, ref)
        for step in steps:
            _run_step(step, ref, [ours], history, shift)
            _assert_matches_oracle(ours, ref)

    def test_merge_keeps_the_larger_clusters_root(self):
        """Union by size: the longer member list's root survives; ids do not care."""
        store = ShardedEntityStore()
        store.add_records(_new_record(i, False, 0) for i in range(4))
        store.merge("r2", "r3")
        assert store.merge("r0", "r2") == "e0"
        assert store._find("r0") == "r2"
        assert store.members("e0") == ["r0", "r2", "r3"]
        assert store.members("e2") == []  # retired
        assert store.cluster_of("e2") is None
        assert store.cluster_of("r3") == ("e0", ["r0", "r2", "r3"])

    def test_entity_id_wins_over_a_record_id_spelled_the_same(self):
        store = ShardedEntityStore()
        store.add_records([{"id": "e1"}, {"id": "x"}])
        assert store.cluster_of("e1") == ("e1", ["x"])
        store.merge("e1", "x")  # retires e1, so the record id answers
        assert store.cluster_of("e1") == ("e0", ["e1", "x"])


@pytest.fixture(scope="module")
def fitted_pipeline():
    """A dedup model fitted on two variants each of 12 records."""
    records = [dict(_new_record(e, False, 0), id=f"{v}{e}") for e in range(12) for v in "ab"]
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(Table(records, attributes=["name", "city"]))
    return pipeline


class TestOracleRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(
        before=_STEPS,
        after=_STEPS,
        n_shards=st.sampled_from([1, 3]),
        shift=st.sampled_from([0, 1, 5]),
    )
    def test_save_load_matches_oracle(self, fitted_pipeline, before, after, n_shards, shift):
        """Reads match after save → load, and after loading a ledger with ``rank``."""
        resolver = fitted_pipeline.freeze(shards=n_shards)
        _, ref = reference_freeze(fitted_pipeline)
        history: list = []
        for step in before:
            _run_step(step, ref, [resolver.store], history, shift, index=resolver.index)
        _assert_matches_oracle(resolver.store, ref)
        with tempfile.TemporaryDirectory() as tmp:
            resolver.save(Path(tmp) / "plain")
            with _ledger_by_rank(ref):
                resolver.save(Path(tmp) / "by-rank")
            loaded = [
                IncrementalResolver.load(Path(tmp) / name).store for name in ("plain", "by-rank")
            ]
            for store in loaded:
                _assert_matches_oracle(store, ref)
            # the rebuilt member lists keep working as the loaded stores grow
            for step in after:
                _run_step(step, ref, loaded, history, shift)
                for store in loaded:
                    _assert_matches_oracle(store, ref)
