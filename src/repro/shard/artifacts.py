"""Resolver artifact layout: columnar shard files under the versioned root.

A resolver publishes through the crash-safe discipline of the model
artifacts — staged version directory, ``checksums.json``, atomic
``CURRENT`` swap — with the store/index payloads kept out of the JSON
manifest, in mmap-able containers::

    artifacts/
      CURRENT              → "v000003"
      v000003/
        manifest.json      — extra["resolver"]["sharded"]: layout + per-file sha256
        arrays.npz         — fitted model arrays
        checksums.json     — covers the version dir's top-level files
        shards/
          ledger.shard     — union-find ledger, insertion order, global dfs
          store-0000.shard — one payload shard (columnar records)
          index-0000.shard — one token shard (CSR postings)
          ...

Shard files live in a subdirectory on purpose: ``checksums.json`` verifies
the top-level files eagerly at load, while each shard records its sha256
in the manifest and is verified lazily on first open — a load never reads
gigabytes of cold shards just to check hashes.

Version-to-version, a shard whose contents did not change (no overlay
records, no new postings) is **hard-linked** from the previous version
directory instead of rewritten, so saving a small batch against a huge
store costs the dirty shards plus the ledger, not a full rewrite. Shard
files are immutable once published, which is what makes link sharing safe;
pruned version directories only drop link counts.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

from repro.shard.index import ShardedTokenIndex
from repro.shard.loader import ShardLoadManager
from repro.shard.storage import ShardFile, pack_column, shard_file_bytes, unpack_column
from repro.shard.store import ShardedEntityStore

__all__ = [
    "SHARD_DIR",
    "sharded_payload",
    "payload_meta",
    "write_payload_files",
    "rebase_after_save",
    "load_sharded_state",
]

#: Subdirectory of a version dir holding the shard containers.
SHARD_DIR = "shards"

_LEDGER = "ledger.shard"


# -- save side ---------------------------------------------------------------------


def _ledger_segments(store: ShardedEntityStore, index: ShardedTokenIndex) -> tuple[dict, dict]:
    """Serialize the global ledger (union-find + insertion order + dfs)."""
    with store._lock:
        rids = list(store._order)
        order_of = {rid: i for i, rid in enumerate(rids)}
        n = len(rids)
        parent = np.empty(n, dtype=np.int64)
        rank = np.empty(n, dtype=np.int64)
        ords = np.full(n, -1, dtype=np.int64)
        shards = np.empty(n, dtype=np.uint8)
        for i, rid in enumerate(rids):
            parent[i] = order_of[store._find(rid)]  # root-compressed
            rank[i] = store._rank[rid]
            shards[i] = store._slot[rid][0]
            ord_ = store._entity_ord.get(rid)
            if ord_ is not None:
                ords[i] = ord_
        next_ord = store._next_ord
    tokens = sorted(index._gdf)
    dfs = np.fromiter((index._gdf[t] for t in tokens), dtype=np.int64, count=len(tokens))
    rid_col = pack_column(rids)
    tok_col = pack_column(tokens)
    segments = {
        "rid.kind": rid_col["kind"],
        "rid.offsets": rid_col["offsets"],
        "rid.blob": rid_col["blob"],
        "shard": shards,
        "parent": parent,
        "rank": rank,
        "ord": ords,
        "tok.kind": tok_col["kind"],
        "tok.offsets": tok_col["offsets"],
        "tok.blob": tok_col["blob"],
        "df": dfs,
    }
    meta = {
        "id_attr": store.id_attr,
        "n_records": n,
        "n_tokens": len(tokens),
        "next_ord": next_ord,
        "n_shards": store.n_shards,
    }
    return segments, meta


def _index_segments(shard) -> tuple[dict, dict]:
    """Serialize one token shard's merged postings as CSR arrays."""
    postings = shard.merged_postings()
    tokens = sorted(postings)
    lens = np.fromiter((len(postings[t]) for t in tokens), dtype=np.int64, count=len(tokens))
    indptr = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    plist = np.fromiter(
        (g for t in tokens for g in postings[t]), dtype=np.int64, count=int(indptr[-1])
    )
    tok_col = pack_column(tokens)
    segments = {
        "tok.kind": tok_col["kind"],
        "tok.offsets": tok_col["offsets"],
        "tok.blob": tok_col["blob"],
        "indptr": indptr,
        "plist": plist,
    }
    meta = {
        "shard": shard.shard_id,
        "n_tokens": len(tokens),
        "n_entries": int(indptr[-1]),
    }
    return segments, meta


def _prepared_file(name: str, segments: dict, meta: dict) -> dict:
    data = shard_file_bytes(segments, meta)
    return {
        "name": f"{SHARD_DIR}/{name}",
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "_data": data,
    }


def _reused_file(name: str, source: Path, sha256: str) -> dict:
    return {
        "name": f"{SHARD_DIR}/{name}",
        "sha256": sha256,
        "bytes": source.stat().st_size,
        "_link": source,
    }


def sharded_payload(
    store: ShardedEntityStore,
    index: ShardedTokenIndex,
    *,
    workers: int = 1,
    load_budget_mb: float | None = None,
) -> dict:
    """Build the sharded artifact payload: manifest metadata + file images.

    Clean shards (an attached, unmodified base) become hardlink references
    to their current files; dirty shards and the ledger are serialized in
    memory so their checksums can be embedded in the manifest before the
    staged publish begins. Pass the result to :func:`write_payload_files`
    inside the staging directory, and strip the private ``_data``/``_link``
    keys via :func:`payload_meta` for the manifest.
    """
    if store.n_shards != index.n_shards:
        raise ValueError(
            f"store has {store.n_shards} shards but index has {index.n_shards}"
        )
    files: dict = {}
    ledger_segments, ledger_meta = _ledger_segments(store, index)
    files["ledger"] = _prepared_file(_LEDGER, ledger_segments, ledger_meta)
    store_files = []
    for shard in store._shards:
        name = f"store-{shard.shard_id:04d}.shard"
        if not shard.dirty and shard.base_path is not None and shard.base_path.is_file():
            entry = _reused_file(name, shard.base_path, shard.base_sha256)
        else:
            entry = _prepared_file(name, *shard.to_segments(store.id_attr))
        entry["records"] = len(shard)
        store_files.append(entry)
    index_files = []
    for shard in index._shards:
        name = f"index-{shard.shard_id:04d}.shard"
        if not shard.dirty and shard.base_path is not None and shard.base_path.is_file():
            entry = _reused_file(name, shard.base_path, shard.base_sha256)
        else:
            entry = _prepared_file(name, *_index_segments(shard))
        entry["entries"] = shard.n_entries
        index_files.append(entry)
    files["store"] = store_files
    files["index"] = index_files
    return {
        "layout_version": 1,
        "n_shards": store.n_shards,
        "n_records": len(store),
        "workers": int(workers),
        "load_budget_mb": load_budget_mb,
        "files": files,
    }


def payload_meta(payload: dict) -> dict:
    """The manifest-safe view of :func:`sharded_payload` output."""

    def strip(entry: dict) -> dict:
        return {k: v for k, v in entry.items() if not k.startswith("_")}

    files = payload["files"]
    return {
        **{k: v for k, v in payload.items() if k != "files"},
        "files": {
            "ledger": strip(files["ledger"]),
            "store": [strip(e) for e in files["store"]],
            "index": [strip(e) for e in files["index"]],
        },
    }


def write_payload_files(staging: Path, payload: dict) -> None:
    """Materialize the payload inside a staged version directory.

    Prepared images are written through the staged-write failpoints;
    reused shards are hardlinked from the live version (falling back to a
    copy across filesystems or on platforms without ``os.link``).
    """
    from repro.reliability.atomic import staged_write_bytes

    shard_dir = staging / SHARD_DIR
    shard_dir.mkdir()
    entries = [payload["files"]["ledger"], *payload["files"]["store"], *payload["files"]["index"]]
    for entry in entries:
        target = staging / entry["name"]
        if "_data" in entry:
            staged_write_bytes(target, entry["_data"])
        else:
            source = entry["_link"]
            try:
                os.link(source, target)
            except OSError:
                shutil.copyfile(source, target)


def rebase_after_save(
    store: ShardedEntityStore, index: ShardedTokenIndex, version_dir: Path, payload: dict
) -> None:
    """Point in-memory shards at the files just published under ``version_dir``.

    Dirty shards fold their overlays/tails into the new base (bounding
    resident growth across a long-lived serving process); clean shards
    just update their link source so the *next* save can reuse the newest
    copy. Loaded readers for rebased shards are dropped — they reopen
    lazily against the new files.
    """
    for shard, entry in zip(store._shards, payload["files"]["store"]):
        path = version_dir / entry["name"]
        if shard.dirty:
            store.loader.unregister(("store", shard.shard_id))
            shard._release()
            shard.overlay = []
            shard.attach_base(path, entry["sha256"], entry["bytes"], entry["records"])
        else:
            shard.base_path = path
            shard.base_sha256 = entry["sha256"]
    for shard, entry in zip(index._shards, payload["files"]["index"]):
        path = version_dir / entry["name"]
        if shard.dirty:
            index.loader.unregister(("index", shard.shard_id))
            if shard._shard_file is not None:
                shard._shard_file.release()
            shard._base = None
            shard._shard_file = None
            shard.segments = []
            shard.tail = {}
            shard.tail_entries = 0
            shard.entries_since_base = 0
            shard.attach_base(path, entry["sha256"], entry["bytes"], entry["entries"])
        else:
            shard.base_path = path
            shard.base_sha256 = entry["sha256"]


# -- load side ---------------------------------------------------------------------


def load_sharded_state(
    version_dir: Path, resolver_payload: dict
) -> tuple[ShardedEntityStore, ShardedTokenIndex]:
    """Rebuild ``(store, index)`` lazily from a sharded version directory.

    Only the ledger is read here — record payloads and postings stay on
    disk until a batch's tokens route a probe into their shard. The load
    budget (``load_budget_mb`` captured at fit time) is enforced by a
    fresh :class:`~repro.shard.loader.ShardLoadManager` shared by the
    store and index.
    """
    meta = resolver_payload["sharded"]
    n_shards = int(meta["n_shards"])
    budget_mb = meta.get("load_budget_mb")
    loader = ShardLoadManager(
        budget_bytes=int(budget_mb * 1024 * 1024) if budget_mb else None
    )

    ledger_entry = meta["files"]["ledger"]
    with ShardFile(version_dir / ledger_entry["name"], ledger_entry["sha256"]) as ledger:
        lmeta = ledger.meta
        rids = unpack_column(
            ledger.segment("rid.kind"), ledger.segment("rid.offsets"), ledger.segment("rid.blob")
        )
        shard_ids = ledger.segment("shard").tolist()
        parent_idx = ledger.segment("parent").tolist()
        ranks = ledger.segment("rank").tolist()
        ords = ledger.segment("ord").tolist()
        tokens = unpack_column(
            ledger.segment("tok.kind"), ledger.segment("tok.offsets"), ledger.segment("tok.blob")
        )
        dfs = ledger.segment("df").tolist()

    store = ShardedEntityStore(
        id_attr=lmeta["id_attr"], n_shards=n_shards, loader=loader
    )
    slots = [0] * n_shards
    for rid, shard_id in zip(rids, shard_ids):
        store._order.append(rid)
        store._slot[rid] = (shard_id, slots[shard_id])
        slots[shard_id] += 1
    for i, rid in enumerate(rids):
        store._parent[rid] = rids[parent_idx[i]]
        store._rank[rid] = ranks[i]
        if ords[i] >= 0:
            store._entity_ord[rid] = ords[i]
    store._next_ord = int(lmeta["next_ord"])
    for shard, entry in zip(store._shards, meta["files"]["store"]):
        shard.n_base = int(entry["records"])
        shard.attach_base(
            version_dir / entry["name"], entry["sha256"], entry["bytes"], entry["records"]
        )

    index = ShardedTokenIndex.from_params(resolver_payload["index"], loader=loader)
    if index.n_shards != n_shards:
        raise ValueError(
            f"index params declare {index.n_shards} shards, layout has {n_shards}"
        )
    index._rids = list(rids)
    index._position = {rid: i for i, rid in enumerate(rids)}
    index._gdf = dict(zip(tokens, dfs))
    for shard, entry in zip(index._shards, meta["files"]["index"]):
        shard.attach_base(
            version_dir / entry["name"], entry["sha256"], entry["bytes"], entry["entries"]
        )
    return store, index
