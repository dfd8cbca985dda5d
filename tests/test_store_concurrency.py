"""Concurrent entity-store access: one writer, many snapshot readers.

The serving layer's contract is single-writer/snapshot-reader: resolve
batches mutate the store from one worker thread while lookup/health
endpoints read it from the event-loop thread. These tests hammer that
contract directly — a writer thread adding and merging at full speed while
reader threads pull :meth:`ShardedEntityStore.snapshot` views — and assert the
two invariants the endpoints rely on:

* **no torn reads** — every snapshot is a valid partition: each record
  appears in exactly one entity, counts agree, and assignments match the
  entity map;
* **stable entity ids** — once a record is observed in entity ``eN``, any
  later snapshot shows it in ``eM`` with ``M <= N`` (merges keep the older
  id; ids never churn upward).
"""

from __future__ import annotations

import threading

import pytest

from repro.shard import ShardedEntityStore, StoreSnapshot

N_RECORDS = 400
N_READERS = 4


def _record(i: int) -> dict:
    return {"id": f"r{i}", "name": f"record {i}"}


def _check_partition(snap: StoreSnapshot) -> None:
    """A snapshot must be a partition of its records, all fields agreeing."""
    seen: list = []
    for eid, members in snap.entities.items():
        assert members, f"entity {eid} has no members"
        for rid in members:
            assert snap.assignments[rid] == eid
        seen.extend(members)
    assert len(seen) == len(set(seen)), "a record appears in two entities"
    assert len(seen) == snap.n_records == len(snap.assignments)
    assert snap.n_entities == len(snap.entities)


def _ord_of(entity_id: str) -> int:
    assert entity_id.startswith("e")
    return int(entity_id[1:])


class TestSnapshotUnderWriter:
    def test_writer_vs_snapshot_readers_stress(self):
        """Adds + merges racing snapshot reads never tear and never churn ids."""
        store = ShardedEntityStore()
        stop = threading.Event()
        failures: list[str] = []
        # rid -> smallest entity ord ever observed for it (monotone non-increasing)
        observed: dict[str, int] = {}
        observed_lock = threading.Lock()

        def writer():
            try:
                for i in range(N_RECORDS):
                    store.add(_record(i))
                    # merge every record into a rolling neighborhood so the
                    # partition keeps changing while readers snapshot
                    if i % 2 == 1:
                        store.merge(f"r{i - 1}", f"r{i}")
                    if i % 10 == 9:
                        store.merge(f"r{i - 9}", f"r{i}")
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"writer: {exc!r}")
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    _check_partition(snap)
                    with observed_lock:
                        for rid, eid in snap.assignments.items():
                            ord_ = _ord_of(eid)
                            prev = observed.get(rid)
                            if prev is not None and ord_ > prev:
                                failures.append(
                                    f"entity id churned upward for {rid}: "
                                    f"e{prev} -> e{ord_}"
                                )
                            observed[rid] = ord_ if prev is None else min(prev, ord_)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"reader: {exc!r}")

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(N_READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures[:5]

        final = store.snapshot()
        _check_partition(final)
        assert final.n_records == N_RECORDS
        # the rolling merges fuse pairs and decades: far fewer entities than records
        assert final.n_entities < N_RECORDS / 2

    def test_concurrent_entity_of_while_merging(self):
        """Point reads (which path-compress) race merges without corruption."""
        store = ShardedEntityStore()
        for i in range(200):
            store.add(_record(i))
        stop = threading.Event()
        failures: list[str] = []

        def merger():
            try:
                for i in range(1, 200):
                    store.merge("r0", f"r{i}")
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))
            finally:
                stop.set()

        def prober():
            try:
                while not stop.is_set():
                    for i in (0, 50, 100, 150, 199):
                        eid = store.entity_of(f"r{i}")
                        assert eid.startswith("e")
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        threads = [threading.Thread(target=merger)] + [
            threading.Thread(target=prober) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures[:5]
        # everything merged into r0's entity, which keeps the oldest id
        assert store.n_entities == 1
        assert store.entity_of("r199") == "e0"


class TestSnapshotSemantics:
    def test_snapshot_is_immutable_and_detached(self):
        """A snapshot does not track later writes and cannot be mutated."""
        store = ShardedEntityStore()
        store.add(_record(0))
        store.add(_record(1))
        snap = store.snapshot()
        store.merge("r0", "r1")

        assert snap.n_entities == 2
        assert snap.entity_of("r1") == "e1"
        assert store.entity_of("r1") == "e0"
        with pytest.raises(TypeError):
            snap.assignments["r9"] = "e9"  # MappingProxyType rejects writes

    def test_snapshot_of_empty_store(self):
        snap = ShardedEntityStore().snapshot()
        assert snap.n_records == 0
        assert snap.n_entities == 0
        assert dict(snap.entities) == {}
