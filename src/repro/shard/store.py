"""Entity store: a global union-find ledger over partitioned record payloads.

:class:`ShardedEntityStore` is the system-of-record for incremental
resolution. It holds every resolved record and a union-find partition over
record ids; each cluster carries a *stable* entity id: the id is assigned
when a record first arrives, and a merge always keeps the older of the two
entity ids, so an entity's id never changes as more duplicates of it stream
in — only younger ids disappear into older ones.

The store keeps exactly the split that makes out-of-core resolution
deterministic:

* the **ledger** — union-find parent/rank pointers, entity ordinals, and
  the record insertion order — is global and in-memory, so entity ids do
  not depend on how records scatter across shards or how many cross-shard
  edges a batch produces;
* the **record payloads** — the bulky part — are partitioned by a stable
  hash of the record id (:func:`~repro.shard.partition.shard_of_record`)
  into shards, each an immutable mmap-backed base plus an in-memory
  overlay of records added since the last save. A shard whose records no
  batch references is never decoded, and a clean base can be dropped and
  reopened under a :class:`~repro.shard.loader.ShardLoadManager` budget.

Cross-shard merges need no reconciliation protocol: a merge touches only
the ledger, never the payloads, so two records in different shards unify
exactly like two records in the same one.

The store is safe to share between one writer and many readers (the
serving layer's single-writer/snapshot-reader contract): every mutating
*and* reading method takes an internal re-entrant lock — reads need it too
because ``entity_of`` path-compresses parent pointers — and
:meth:`ShardedEntityStore.snapshot` materializes a consistent, immutable
:class:`StoreSnapshot` of the whole partition in one critical section, so a
reader never observes a merge half-applied.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from repro.shard.loader import ShardLoadManager
from repro.shard.partition import shard_of_record, validate_shard_count
from repro.shard.storage import ABSENT, ShardFile, decode_value, pack_column

__all__ = ["ShardedEntityStore", "StoreSnapshot"]


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable, internally consistent view of one instant of a store.

    Produced by :meth:`ShardedEntityStore.snapshot` under the store lock:
    the entity partition, the per-record assignments derived from it, and
    the counts all describe the same moment — no merge is ever visible in
    one field but not another.
    """

    #: Records registered at snapshot time.
    n_records: int
    #: Clusters at snapshot time (``== len(entities)``).
    n_entities: int
    #: ``{entity_id: (record_ids, ...)}``, members in insertion order.
    entities: MappingProxyType
    #: ``{record_id: entity_id}`` for every registered record.
    assignments: MappingProxyType

    def entity_of(self, record_id) -> str:
        """Entity id of ``record_id`` at snapshot time (``KeyError`` if absent)."""
        return self.assignments[record_id]


class _PayloadShard:
    """One shard's record payloads: immutable base file + growth overlay."""

    def __init__(self, shard_id: int, loader: ShardLoadManager):
        self.shard_id = shard_id
        self.loader = loader
        self.overlay: list[dict] = []
        self.n_base = 0
        self.base_path: Path | None = None
        self.base_sha256: str | None = None
        self.base_nbytes = 0
        self._file: ShardFile | None = None
        self._columns: list | None = None  # [(name, kind, offsets, blob_bytes)]

    # -- base lifecycle --------------------------------------------------------

    def attach_base(self, path: Path, sha256: str, nbytes: int, n_records: int) -> None:
        self.base_path = Path(path)
        self.base_sha256 = sha256
        self.base_nbytes = int(nbytes)
        self.n_base = int(n_records)

    def _open(self) -> None:
        key = ("store", self.shard_id)
        if self.loader.touch(key):
            return
        shard = ShardFile(self.base_path, expected_sha256=self.base_sha256)
        columns = []
        for i, name in enumerate(shard.meta["columns"]):
            columns.append(
                (
                    name,
                    shard.segment(f"c{i}.kind"),
                    shard.segment(f"c{i}.offsets"),
                    shard.segment(f"c{i}.blob").tobytes(),
                )
            )
        self._file, self._columns = shard, columns
        self.loader.register(key, shard.nbytes, self._release)

    def _release(self) -> None:
        if self._file is not None:
            self._file.release()
        self._file = None
        self._columns = None

    @property
    def base_loaded(self) -> bool:
        return self._file is not None

    @property
    def dirty(self) -> bool:
        """True when this shard holds records that exist only in memory."""
        return bool(self.overlay)

    # -- record access ---------------------------------------------------------

    def get(self, slot: int) -> dict:
        if slot >= self.n_base:
            return self.overlay[slot - self.n_base]
        self._open()
        record = {}
        for name, kind, offsets, blob in self._columns:
            value = decode_value(int(kind[slot]), blob[int(offsets[slot]) : int(offsets[slot + 1])])
            if value is not ABSENT:
                record[name] = value
        return record

    def __len__(self) -> int:
        return self.n_base + len(self.overlay)

    # -- serialization ---------------------------------------------------------

    def to_segments(self, id_attr: str) -> tuple[dict, dict]:
        """``(segments, meta)`` for a full rewrite of this shard's payloads.

        Columns are the union of attributes over the shard's records in
        first-seen order (the id attribute first, for inspectability);
        records that lack an attribute get the ``ABSENT`` sentinel so they
        decode back to dicts equal to the originals.
        """
        records = [self.get(slot) for slot in range(len(self))]
        columns: list = [id_attr]
        seen = {id_attr}
        for rec in records:
            for attr in rec:
                if attr not in seen:
                    seen.add(attr)
                    columns.append(attr)
        segments: dict = {}
        for i, name in enumerate(columns):
            packed = pack_column(
                [rec.get(name, ABSENT) for rec in records], allow_absent=True
            )
            segments[f"c{i}.kind"] = packed["kind"]
            segments[f"c{i}.offsets"] = packed["offsets"]
            segments[f"c{i}.blob"] = packed["blob"]
        meta = {"shard": self.shard_id, "n_records": len(records), "columns": columns}
        return segments, meta


class ShardedEntityStore:
    """Record registry with transitive merging and stable entity ids.

    Parameters
    ----------
    id_attr:
        Record-identifier attribute (default ``"id"``). Record ids must be
        unique across everything ever added — for two-table linkage, prefix
        the sides (the generated benchmarks' ``L*``/``R*`` ids already are).
    n_shards:
        Payload partition count (1..:data:`~repro.shard.partition.MAX_SHARDS`,
        default 1).
    loader:
        Shared :class:`~repro.shard.loader.ShardLoadManager`; a private
        unbounded one is created when omitted.
    """

    def __init__(
        self,
        id_attr: str = "id",
        n_shards: int = 1,
        loader: ShardLoadManager | None = None,
    ):
        self.id_attr = id_attr
        self.n_shards = validate_shard_count(n_shards)
        self.loader = loader if loader is not None else ShardLoadManager()
        self._shards = [_PayloadShard(i, self.loader) for i in range(self.n_shards)]
        self._order: list = []  # record ids in insertion order
        self._slot: dict = {}  # rid -> (shard_id, slot)
        self._parent: dict = {}  # union-find parent pointers
        self._rank: dict = {}  # union-by-rank
        self._entity_ord: dict = {}  # root rid -> entity creation counter
        self._next_ord = 0
        # Guards every read and write: path compression means even lookups
        # mutate the parent pointers, so readers must exclude the writer.
        self._lock = threading.RLock()

    # -- growth ----------------------------------------------------------------

    def add(self, record: dict) -> str:
        """Register one record as a fresh singleton entity; returns its entity id."""
        return self.add_records((record,))[0]

    def add_records(self, records: Iterable[dict]) -> list[str]:
        """Register many records; returns their (singleton) entity ids.

        A record id that is already stored raises ``ValueError``; records
        ahead of it in ``records`` stay registered.
        """
        id_attr, n_shards, shards = self.id_attr, self.n_shards, self._shards
        slot_of, order = self._slot, self._order
        parent, rank, entity_ord = self._parent, self._rank, self._entity_ord
        labels: list[str] = []
        with self._lock:
            next_ord = self._next_ord
            try:
                for record in records:
                    rid = record[id_attr]
                    if rid in slot_of:
                        raise ValueError(f"record id {rid!r} is already in the store")
                    shard_id = shard_of_record(rid, n_shards)
                    shard = shards[shard_id]
                    slot_of[rid] = (shard_id, shard.n_base + len(shard.overlay))
                    shard.overlay.append(dict(record))
                    order.append(rid)
                    parent[rid] = rid
                    rank[rid] = 0
                    entity_ord[rid] = next_ord
                    labels.append(f"e{next_ord}")
                    next_ord += 1
            finally:
                self._next_ord = next_ord
        return labels

    # -- union-find --------------------------------------------------------------

    def _find(self, rid):
        root = rid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[rid] != root:  # path compression
            self._parent[rid], rid = root, self._parent[rid]
        return root

    def merge(self, a_id, b_id) -> str:
        """Declare two records the same entity; returns the surviving entity id.

        Merging is transitive through the union-find structure: merging
        (a, b) then (b, c) leaves a, b, c in one cluster. The surviving
        entity id is the *older* of the two clusters' ids, keeping entity
        ids stable as evidence accumulates. Only the global ledger changes —
        payload shards are untouched — so a merge across shard boundaries
        is indistinguishable from one within a shard.
        """
        with self._lock:
            ra, rb = self._find(a_id), self._find(b_id)
            if ra == rb:
                return self._entity_label(self._entity_ord[ra])
            keep_ord = min(self._entity_ord[ra], self._entity_ord[rb])
            if self._rank[ra] < self._rank[rb]:
                ra, rb = rb, ra
            self._parent[rb] = ra
            if self._rank[ra] == self._rank[rb]:
                self._rank[ra] += 1
            self._entity_ord[ra] = keep_ord
            del self._entity_ord[rb]
            return self._entity_label(keep_ord)

    # -- lookup ------------------------------------------------------------------

    @staticmethod
    def _entity_label(ord_: int) -> str:
        return f"e{ord_}"

    def entity_of(self, record_id) -> str:
        """Stable entity id of the cluster containing ``record_id``."""
        with self._lock:
            return self._entity_label(self._entity_ord[self._find(record_id)])

    def members(self, entity_id: str) -> list:
        """Record ids in one entity's cluster (insertion order)."""
        return self.entities().get(entity_id, [])

    def entities(self) -> dict[str, list]:
        """``{entity_id: [record_ids]}`` for every cluster, insertion-ordered."""
        with self._lock:
            out: dict[str, list] = {}
            for rid in self._order:
                out.setdefault(self.entity_of(rid), []).append(rid)
            return out

    def snapshot(self) -> StoreSnapshot:
        """A consistent, immutable view of the current partition.

        Built in one critical section, so a concurrent writer's merges are
        either fully reflected or not at all — never torn across the
        snapshot's fields. Built from the ledger alone — no payload shard
        is opened or decoded — so serving-layer lookups over a mostly-cold
        store stay cheap.
        """
        with self._lock:
            entities = {eid: tuple(m) for eid, m in self.entities().items()}
            assignments = {
                rid: eid for eid, members in entities.items() for rid in members
            }
            return StoreSnapshot(
                n_records=len(self._order),
                n_entities=len(self._entity_ord),
                entities=MappingProxyType(entities),
                assignments=MappingProxyType(assignments),
            )

    def clusters(self) -> list[frozenset]:
        """The record-id partition as frozensets (for comparing resolutions)."""
        return [frozenset(m) for m in self.entities().values()]

    def get(self, record_id) -> dict:
        """Record with the given id; raises ``KeyError`` if absent.

        Touching a record whose shard is cold opens (and budget-accounts)
        that shard's base file.
        """
        with self._lock:
            shard_id, slot = self._slot[record_id]
            return self._shards[shard_id].get(slot)

    def records(self) -> list[dict]:
        """All records in insertion order (decodes every shard — bulk path)."""
        with self._lock:
            return [self.get(rid) for rid in self._order]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, record_id) -> bool:
        return record_id in self._slot

    @property
    def n_entities(self) -> int:
        """Number of distinct entities across every shard."""
        return len(self._entity_ord)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEntityStore(n_records={len(self)}, n_entities={self.n_entities}, "
            f"n_shards={self.n_shards})"
        )

    # -- shard introspection -----------------------------------------------------

    def shard_of(self, record_id) -> int:
        """Which payload shard holds ``record_id`` (``KeyError`` if absent)."""
        return self._slot[record_id][0]

    def shard_sizes(self) -> list[dict]:
        """Per-shard record counts, on-disk bytes, and residency."""
        return [
            {
                "shard": shard.shard_id,
                "records": len(shard),
                "overlay_records": len(shard.overlay),
                "base_bytes": shard.base_nbytes,
                "loaded": shard.base_loaded,
                "dirty": shard.dirty,
            }
            for shard in self._shards
        ]
