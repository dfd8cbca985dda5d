"""Stable shard assignment for tokens and record ids.

Everything here must be deterministic across processes, Python versions,
and machines: a shard layout written once is routed against forever, by
every process that loads it. That rules out the builtin ``hash``
(randomized per process by ``PYTHONHASHSEED``) — shard routing goes
through BLAKE2b instead, keyed on a type-tagged byte encoding so ``1`` and
``"1"`` never collide.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "MAX_SHARDS",
    "stable_hash",
    "shard_of_token",
    "shard_of_record",
    "validate_shard_count",
]

#: Upper bound on shard count. Small on purpose: shards exist to bound the
#: working set per probe, not to approximate one-file-per-record, and the
#: per-shard segment/tail bookkeeping stops paying for itself long before
#: this.
MAX_SHARDS = 64


def validate_shard_count(n_shards: int) -> int:
    """Validate and normalize a shard count (``1 <= n <= MAX_SHARDS``)."""
    n = int(n_shards)
    if not 1 <= n <= MAX_SHARDS:
        raise ValueError(f"n_shards must be in [1, {MAX_SHARDS}], got {n_shards}")
    return n


def _key_bytes(key) -> bytes:
    """A type-tagged byte encoding of a token or record id.

    Strings dominate, so they get the cheap path; any other JSON-able id
    (ints in the generated benchmarks) round-trips through ``json.dumps``,
    which is deterministic for scalars.
    """
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    return b"j:" + json.dumps(key, sort_keys=True).encode("utf-8")


def stable_hash(key) -> int:
    """A 64-bit hash of ``key`` that is identical in every process."""
    digest = hashlib.blake2b(_key_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def shard_of_token(token: str, n_shards: int) -> int:
    """The index shard owning ``token``'s posting list."""
    if n_shards == 1:
        return 0
    return stable_hash(token) % n_shards


def shard_of_record(record_id, n_shards: int) -> int:
    """The store shard owning ``record_id``'s payload."""
    if n_shards == 1:
        return 0
    return stable_hash(record_id) % n_shards
