"""Streaming inverted token index, partitioned by token hash.

:class:`ShardedTokenIndex` is the streaming counterpart of
:class:`~repro.blocking.overlap.TokenOverlapBlocker`: the same token-overlap
candidate scoring — query-time document-frequency pruning against the
current index size, ``(-overlap, insertion order)`` ranking, ``top_k``
capping — over postings that grow one record at a time instead of being
rebuilt per run. Pruning at query time means a token that starts rare and
becomes boilerplate as records stream in is pruned exactly as a batch
rebuild would prune it.

Postings are partitioned by :func:`~repro.shard.partition.shard_of_token`,
so every token's full posting list lives in exactly one shard and a probe
touches only the shards its tokens hash to. Two representation choices
make the probe vectorizable:

* postings store **global insertion positions** (not record ids), so the
  ranking tie-break *is* the posting value and overlap counting is one
  ``np.bincount`` over gathered position arrays;
* each shard is an **LSM-style stack**: immutable sealed segments (CSR
  ``indptr``/``plist`` arrays — the mmap-backed base of a loaded shard is
  simply the oldest segment) plus a small append tail that seals into a
  new segment once it outgrows :data:`SEAL_TAIL_ENTRIES`. A record's
  postings for one token land in exactly one segment, so per-segment
  counts concatenate without cross-segment reconciliation.

Document frequencies are kept globally (they gate pruning before any shard
is touched), which is also what routes a probe: a token with no global df
entry skips shard lookup entirely, so cold shards stay cold until a
batch's tokens actually hash into them.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.blocking.overlap import (
    TokenOverlapBlocker,
    record_tokens,
    validate_overlap_params,
)
from repro.shard.loader import ShardLoadManager
from repro.shard.partition import shard_of_token, validate_shard_count
from repro.shard.storage import ShardFile, unpack_column
from repro.text.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.text.tokenizers import tokenizer_from_spec as _tokenizer_from_spec
from repro.text.tokenizers import tokenizer_spec as _tokenizer_spec

__all__ = ["ShardedTokenIndex", "SEAL_TAIL_ENTRIES"]

#: Tail postings per shard before they seal into an immutable segment.
SEAL_TAIL_ENTRIES = 8192

#: Sealed segments per shard before they compact into one (the base
#: segment, when present, is left out of compactions — it may be mmap).
_MAX_SEGMENTS = 12


class _Segment:
    """One immutable CSR slice of a shard's postings."""

    __slots__ = ("tok_row", "indptr", "plist")

    def __init__(self, tok_row: dict, indptr: np.ndarray, plist: np.ndarray):
        self.tok_row = tok_row  # token -> row in indptr
        self.indptr = indptr
        self.plist = plist  # global insertion positions, append order

    @classmethod
    def from_postings(cls, postings: dict[str, list]) -> "_Segment":
        # Sorted tokens make sealed layout (and therefore saved shard
        # files) byte-deterministic under hash randomization.
        tokens = sorted(postings)
        lens = np.fromiter((len(postings[t]) for t in tokens), dtype=np.int64, count=len(tokens))
        indptr = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        plist = np.fromiter(
            (g for t in tokens for g in postings[t]), dtype=np.int64, count=int(indptr[-1])
        )
        return cls({t: i for i, t in enumerate(tokens)}, indptr, plist)

    def slices_of(self, token: str):
        row = self.tok_row.get(token)
        if row is None:
            return None
        return self.plist[self.indptr[row] : self.indptr[row + 1]]

    def postings(self) -> dict[str, np.ndarray]:
        return {t: self.slices_of(t) for t in self.tok_row}

    @property
    def n_entries(self) -> int:
        return int(self.indptr[-1])


class _IndexShard:
    """One token shard: optional mmap base segment + sealed segments + tail."""

    def __init__(self, shard_id: int, loader: ShardLoadManager):
        self.shard_id = shard_id
        self.loader = loader
        self.segments: list[_Segment] = []
        self.tail: dict[str, list] = {}
        self.tail_entries = 0
        self.entries_since_base = 0
        self.base_path: Path | None = None
        self.base_sha256: str | None = None
        self.base_nbytes = 0
        self.base_entries = 0
        self._base: _Segment | None = None
        self._shard_file: ShardFile | None = None

    # -- base lifecycle --------------------------------------------------------

    def attach_base(self, path: Path, sha256: str, nbytes: int, n_entries: int) -> None:
        self.base_path = Path(path)
        self.base_sha256 = sha256
        self.base_nbytes = int(nbytes)
        self.base_entries = int(n_entries)

    def _open_base(self) -> _Segment | None:
        if self.base_path is None:
            return None
        key = ("index", self.shard_id)
        if self.loader.touch(key):
            return self._base
        shard = ShardFile(self.base_path, expected_sha256=self.base_sha256)
        tokens = unpack_column(
            shard.segment("tok.kind"), shard.segment("tok.offsets"), shard.segment("tok.blob")
        )
        base = _Segment(
            {t: i for i, t in enumerate(tokens)},
            shard.segment("indptr"),
            shard.segment("plist"),
        )
        self._base = base
        self._shard_file = shard

        def release(shard=shard, owner=self):
            owner._base = None
            owner._shard_file = None
            shard.release()

        # the decoded token table roughly doubles the resident cost of the
        # raw token column; charging the file size keeps accounting simple
        # and errs toward evicting sooner
        self.loader.register(key, shard.nbytes, release)
        return base

    @property
    def base_loaded(self) -> bool:
        return self._base is not None

    @property
    def dirty(self) -> bool:
        """Postings added since the attached base was written (or no base)."""
        return self.base_path is None or self.entries_since_base > 0

    # -- growth ----------------------------------------------------------------

    def extend(self, token: str, positions: list) -> None:
        """Append ``token``'s new postings (takes ownership of ``positions``)."""
        bucket = self.tail.get(token)
        if bucket is None:
            self.tail[token] = positions
        else:
            bucket.extend(positions)
        self.tail_entries += len(positions)
        self.entries_since_base += len(positions)

    def maybe_seal(self) -> None:
        if self.tail_entries < SEAL_TAIL_ENTRIES:
            return
        self.segments.append(_Segment.from_postings(self.tail))
        self.tail = {}
        self.tail_entries = 0
        if len(self.segments) > _MAX_SEGMENTS:
            merged: dict[str, list] = {}
            for seg in self.segments:
                for tok, arr in seg.postings().items():
                    merged.setdefault(tok, []).extend(arr.tolist())
            self.segments = [_Segment.from_postings(merged)]

    # -- probing ---------------------------------------------------------------

    def gather(self, token: str, parts: list) -> None:
        """Collect ``token``'s posting arrays (every segment and the tail) into ``parts``."""
        base = self._base if self._base is not None else self._open_base()
        if base is not None:
            arr = base.slices_of(token)
            if arr is not None:
                parts.append(arr)
        for seg in self.segments:
            arr = seg.slices_of(token)
            if arr is not None:
                parts.append(arr)
        bucket = self.tail.get(token)
        if bucket:
            parts.append(np.array(bucket, dtype=np.int64))

    # -- serialization ---------------------------------------------------------

    def merged_postings(self) -> dict[str, list]:
        """Every posting of this shard, per token, in append order."""
        merged: dict[str, list] = {}
        base = self._open_base()
        for seg in ([base] if base is not None else []) + self.segments:
            for tok, arr in seg.postings().items():
                merged.setdefault(tok, []).extend(int(g) for g in arr)
        for tok, bucket in self.tail.items():
            merged.setdefault(tok, []).extend(bucket)
        return merged

    @property
    def n_entries(self) -> int:
        loaded = sum(seg.n_entries for seg in self.segments) + self.tail_entries
        base = self._base.n_entries if self._base is not None else self.base_entries
        return loaded + base


class ShardedTokenIndex:
    """Grow-only inverted index supporting ``add`` / ``candidates``.

    Parameters mirror :class:`~repro.blocking.overlap.TokenOverlapBlocker`
    (attribute, tokenizer, ``min_overlap``, ``max_df``, ``top_k``); ranking
    and pruning semantics are identical, so probing an index built from a
    table returns the same candidates batch blocking would have produced for
    that probe record. ``n_shards`` (default 1) partitions the postings,
    and an optional shared :class:`~repro.shard.loader.ShardLoadManager`
    budgets the shards loaded from disk.
    """

    def __init__(
        self,
        attribute: str,
        tokenizer: Tokenizer | None = None,
        min_overlap: int = 1,
        max_df: float = 0.2,
        top_k: int | None = None,
        id_attr: str = "id",
        n_shards: int = 1,
        loader: ShardLoadManager | None = None,
    ):
        validate_overlap_params(min_overlap, max_df, top_k)
        self.attribute = attribute
        self.tokenizer = tokenizer if tokenizer is not None else WhitespaceTokenizer()
        self.min_overlap = int(min_overlap)
        self.max_df = float(max_df)
        self.top_k = top_k
        self.id_attr = id_attr
        self.n_shards = validate_shard_count(n_shards)
        self.loader = loader if loader is not None else ShardLoadManager()
        self._shards = [_IndexShard(i, self.loader) for i in range(self.n_shards)]
        self._gdf: dict[str, int] = {}  # token -> global document frequency
        self._position: dict = {}  # record id -> global insertion position
        self._rids: list = []  # global position -> record id
        self._touched: set[int] = set()  # shards probed since last drain

    @classmethod
    def from_blocker(
        cls,
        blocker: TokenOverlapBlocker,
        id_attr: str = "id",
        n_shards: int = 1,
        loader: ShardLoadManager | None = None,
    ) -> "ShardedTokenIndex":
        """An empty index with the same retrieval parameters as ``blocker``."""
        if not isinstance(blocker, TokenOverlapBlocker):
            raise TypeError(
                "incremental candidate retrieval requires a TokenOverlapBlocker; "
                f"got {type(blocker).__name__}"
            )
        return cls(
            blocker.attribute,
            tokenizer=blocker.tokenizer,
            min_overlap=blocker.min_overlap,
            max_df=blocker.max_df,
            top_k=blocker.top_k,
            id_attr=id_attr,
            n_shards=n_shards,
            loader=loader,
        )

    # -- growth ----------------------------------------------------------------

    def _tokens(self, record: dict) -> set[str]:
        return record_tokens(self.tokenizer, record, self.attribute)

    def add(self, records: Iterable[dict]) -> int:
        """Index ``records``; returns how many were added.

        Re-adding an already-indexed record id raises ``ValueError`` — the
        index is grow-only and duplicated postings would double-count
        overlaps; records ahead of it in ``records`` stay indexed.
        """
        id_attr, position, rids = self.id_attr, self._position, self._rids
        tokenizer, attribute = self.tokenizer, self.attribute
        # Postings are grouped per token for the whole call and routed to
        # their shards once per distinct token, not once per posting.
        pending: dict[str, list] = {}
        added = 0
        try:
            for rec in records:
                rid = rec[id_attr]
                if rid in position:
                    raise ValueError(f"record id {rid!r} is already indexed")
                gpos = len(rids)
                position[rid] = gpos
                rids.append(rid)
                for tok in record_tokens(tokenizer, rec, attribute):
                    bucket = pending.get(tok)
                    if bucket is None:
                        pending[tok] = [gpos]
                    else:
                        bucket.append(gpos)
                added += 1
        finally:
            self._flush(pending)
        return added

    def _flush(self, pending: dict[str, list]) -> None:
        gdf, shards, n_shards = self._gdf, self._shards, self.n_shards
        grown = set()
        for tok, positions in pending.items():
            gdf[tok] = gdf.get(tok, 0) + len(positions)
            shard_id = shard_of_token(tok, n_shards)
            shards[shard_id].extend(tok, positions)
            grown.add(shard_id)
        for shard_id in grown:
            shards[shard_id].maybe_seal()

    # -- retrieval -------------------------------------------------------------

    def candidates(self, record: dict, top_k: int | None = None) -> list[tuple]:
        """Ranked ``(record_id, overlap_count)`` candidates for one probe.

        The probe record itself need not (and normally does not) live in the
        index yet; if it does, it is excluded from its own candidates.
        ``top_k`` overrides the index default for this query. The df cap is
        evaluated against the current global size, counts accumulate across
        every shard/segment a token's postings live in, and the final
        ranking is ``(-count, insertion position)``.
        """
        n = len(self._rids)
        if n == 0:
            return []
        df_cap = max(1, int(self.max_df * n))
        parts: list[np.ndarray] = []
        for tok in self._tokens(record):
            df = self._gdf.get(tok)
            if df is None or df > df_cap:
                continue
            shard_id = shard_of_token(tok, self.n_shards)
            self._touched.add(shard_id)
            self._shards[shard_id].gather(tok, parts)
        if not parts:
            return []
        counts = np.bincount(np.concatenate(parts) if len(parts) > 1 else parts[0], minlength=n)
        probe_id = record.get(self.id_attr)
        if probe_id is not None:
            own = self._position.get(probe_id)
            if own is not None:
                counts[own] = 0
        positions = np.nonzero(counts >= self.min_overlap)[0]
        if positions.size == 0:
            return []
        overlaps = counts[positions]
        order = np.lexsort((positions, -overlaps))
        k = self.top_k if top_k is None else top_k
        if k is not None:
            order = order[:k]
        rids = self._rids
        return [(rids[int(g)], int(c)) for g, c in zip(positions[order], overlaps[order])]

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rids)

    def __contains__(self, record_id) -> bool:
        return record_id in self._position

    @property
    def n_tokens(self) -> int:
        """Number of distinct indexed tokens."""
        return len(self._gdf)

    def drain_touched(self) -> set[int]:
        """Shards probed since the last drain (resolve-batch statistics)."""
        touched, self._touched = self._touched, set()
        return touched

    def shard_sizes(self) -> list[dict]:
        """Per-shard posting counts, on-disk bytes, and residency."""
        return [
            {
                "shard": shard.shard_id,
                "entries": shard.n_entries,
                "segments": len(shard.segments),
                "tail_entries": shard.tail_entries,
                "base_bytes": shard.base_nbytes,
                "loaded": shard.base_loaded,
                "dirty": shard.dirty,
            }
            for shard in self._shards
        ]

    def params(self) -> dict:
        """JSON-serializable retrieval parameters (for artifact manifests)."""
        return {
            "attribute": self.attribute,
            "tokenizer": _tokenizer_spec(self.tokenizer),
            "min_overlap": self.min_overlap,
            "max_df": self.max_df,
            "top_k": self.top_k,
            "id_attr": self.id_attr,
            "n_shards": self.n_shards,
        }

    @classmethod
    def from_params(cls, params: dict, loader: ShardLoadManager | None = None):
        """An empty index configured from :meth:`params` output."""
        return cls(
            params["attribute"],
            tokenizer=_tokenizer_from_spec(params["tokenizer"]),
            min_overlap=params["min_overlap"],
            max_df=params["max_df"],
            top_k=params["top_k"],
            id_attr=params["id_attr"],
            n_shards=params["n_shards"],
            loader=loader,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedTokenIndex({self.attribute!r}, n_records={len(self)}, "
            f"n_tokens={self.n_tokens}, n_shards={self.n_shards})"
        )
