"""The resolution engine: partitioned store and index.

The streaming resolver of :mod:`repro.incremental` runs on the structures
of this package — one shard by default, more to bound the working set of a
store larger than memory — built from three orthogonal pieces:

* **partitioning** (:mod:`repro.shard.partition`) — stable, process- and
  machine-independent hashing of tokens and record ids onto shards, so a
  shard layout written by one process routes identically in every other;
* **storage** (:mod:`repro.shard.storage`) — a single mmap-able columnar
  container file per shard, read lazily page-by-page, published through
  the crash-safe staged-directory discipline of :mod:`repro.reliability`;
* **store and index** (:mod:`repro.shard.store`,
  :mod:`repro.shard.index`) — :class:`~repro.shard.store.ShardedEntityStore`
  and :class:`~repro.shard.index.ShardedTokenIndex` partition payloads by
  record-id hash and postings by token hash while keeping the union-find
  ledger global, so entity ids do not depend on the shard count.

The reference loops the engine is held to live with the test suite: the
parity suite holds every shard count to bit-identical pairs, scores, match
sets and entity ids against them.
"""

from repro.shard.artifacts import load_sharded_state, sharded_payload
from repro.shard.index import ShardedTokenIndex
from repro.shard.loader import ShardLoadManager
from repro.shard.partition import (
    MAX_SHARDS,
    shard_of_record,
    shard_of_token,
    stable_hash,
    validate_shard_count,
)
from repro.shard.storage import ShardFile, pack_column, unpack_column, write_shard_file
from repro.shard.store import ShardedEntityStore, StoreSnapshot

__all__ = [
    "MAX_SHARDS",
    "stable_hash",
    "shard_of_token",
    "shard_of_record",
    "validate_shard_count",
    "ShardFile",
    "write_shard_file",
    "pack_column",
    "unpack_column",
    "ShardLoadManager",
    "ShardedEntityStore",
    "StoreSnapshot",
    "ShardedTokenIndex",
    "sharded_payload",
    "load_sharded_state",
]
