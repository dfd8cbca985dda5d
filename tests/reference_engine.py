"""Reference resolution engine: the parity oracle for the production engine.

The production engine (:class:`~repro.shard.index.ShardedTokenIndex` and
:class:`~repro.shard.store.ShardedEntityStore`, driven by
:class:`~repro.incremental.resolver.IncrementalResolver`) is held
bit-identical to the plain loops kept here:

* :class:`IncrementalTokenIndex` — dict-of-lists postings probed with a
  per-record ``Counter`` and ranked by the blocker's shared
  :func:`~repro.blocking.overlap.rank_overlap_candidates`;
* :class:`EntityStore` — a dict-backed union-find registry (older entity
  id survives a merge);
* :func:`reference_freeze` / :func:`reference_resolve` — seed both from a
  completed batch run, then probe, add, featurize, score and merge one
  batch.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterable
from types import MappingProxyType

import numpy as np

from repro.blocking.overlap import (
    TokenOverlapBlocker,
    rank_overlap_candidates,
    record_tokens,
    validate_overlap_params,
)
from repro.data.table import Table
from repro.shard.store import StoreSnapshot
from repro.text.tokenizers import Tokenizer, WhitespaceTokenizer

__all__ = ["IncrementalTokenIndex", "EntityStore", "reference_freeze", "reference_resolve"]


class IncrementalTokenIndex:
    """Grow-only inverted index supporting ``add`` / ``candidates``.

    Parameters mirror :class:`~repro.blocking.overlap.TokenOverlapBlocker`
    (attribute, tokenizer, ``min_overlap``, ``max_df``, ``top_k``); ranking
    and pruning semantics are identical, so probing an index built from a
    table returns the same candidates batch blocking would have produced for
    that probe record.
    """

    def __init__(
        self,
        attribute: str,
        tokenizer: Tokenizer | None = None,
        min_overlap: int = 1,
        max_df: float = 0.2,
        top_k: int | None = None,
        id_attr: str = "id",
    ):
        validate_overlap_params(min_overlap, max_df, top_k)
        self.attribute = attribute
        self.tokenizer = tokenizer if tokenizer is not None else WhitespaceTokenizer()
        self.min_overlap = int(min_overlap)
        self.max_df = float(max_df)
        self.top_k = top_k
        self.id_attr = id_attr
        self._postings: dict[str, list] = {}
        self._position: dict = {}  # record id -> insertion order (tie-break)

    @classmethod
    def from_blocker(
        cls, blocker: TokenOverlapBlocker, id_attr: str = "id"
    ) -> "IncrementalTokenIndex":
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
        )

    # -- growth ----------------------------------------------------------------

    def _tokens(self, record: dict) -> set[str]:
        return record_tokens(self.tokenizer, record, self.attribute)

    def add(self, records: Iterable[dict] | Table) -> int:
        """Index ``records``; returns how many were added.

        Re-adding an already-indexed record id raises ``ValueError`` — the
        index is grow-only and duplicated postings would double-count
        overlaps.
        """
        added = 0
        for rec in records:
            rid = rec[self.id_attr]
            if rid in self._position:
                raise ValueError(f"record id {rid!r} is already indexed")
            self._position[rid] = len(self._position)
            for tok in self._tokens(rec):
                self._postings.setdefault(tok, []).append(rid)
            added += 1
        return added

    # -- retrieval -------------------------------------------------------------

    def candidates(self, record: dict, top_k: int | None = None) -> list[tuple]:
        """Ranked ``(record_id, overlap_count)`` candidates for one probe.

        The probe record itself need not (and normally does not) live in the
        index yet; if it does, it is excluded from its own candidates.
        ``top_k`` overrides the index default for this query.
        """
        if not self._position:
            return []
        probe_id = record.get(self.id_attr)
        df_cap = max(1, int(self.max_df * len(self._position)))
        overlap: Counter = Counter()
        for tok in self._tokens(record):
            ids = self._postings.get(tok)
            if ids is None or len(ids) > df_cap:
                continue
            for rid in ids:
                overlap[rid] += 1
        if probe_id is not None:
            overlap.pop(probe_id, None)
        k = self.top_k if top_k is None else top_k
        return rank_overlap_candidates(overlap, self.min_overlap, k, self._position)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._position)

    def __contains__(self, record_id) -> bool:
        return record_id in self._position

    @property
    def n_tokens(self) -> int:
        """Number of distinct indexed tokens."""
        return len(self._postings)


class EntityStore:
    """Record registry with transitive merging and stable entity ids.

    Every operation takes an internal re-entrant lock: path compression
    means even lookups mutate the parent pointers.
    """

    def __init__(self, id_attr: str = "id"):
        self.id_attr = id_attr
        self._records: dict = {}  # rid -> record dict, insertion-ordered
        self._parent: dict = {}  # union-find parent pointers
        self._rank: dict = {}  # union-by-rank
        self._entity_ord: dict = {}  # root rid -> entity creation counter
        self._next_ord = 0
        self._lock = threading.RLock()

    # -- growth ----------------------------------------------------------------

    def add(self, record: dict) -> str:
        """Register one record as a fresh singleton entity; returns its entity id."""
        rid = record[self.id_attr]
        with self._lock:
            if rid in self._records:
                raise ValueError(f"record id {rid!r} is already in the store")
            self._records[rid] = dict(record)
            self._parent[rid] = rid
            self._rank[rid] = 0
            self._entity_ord[rid] = self._next_ord
            self._next_ord += 1
            return self._entity_label(self._next_ord - 1)

    def add_records(self, records: Iterable[dict] | Table) -> list[str]:
        """Register many records; returns their (singleton) entity ids."""
        return [self.add(rec) for rec in records]

    # -- union-find --------------------------------------------------------------

    def _find(self, rid):
        root = rid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[rid] != root:  # path compression
            self._parent[rid], rid = root, self._parent[rid]
        return root

    def merge(self, a_id, b_id) -> str:
        """Declare two records the same entity; returns the surviving entity id."""
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
            for rid in self._records:
                out.setdefault(self.entity_of(rid), []).append(rid)
            return out

    def snapshot(self) -> StoreSnapshot:
        """A consistent, immutable view of the current partition."""
        with self._lock:
            entities = {eid: tuple(m) for eid, m in self.entities().items()}
            assignments = {
                rid: eid for eid, members in entities.items() for rid in members
            }
            return StoreSnapshot(
                n_records=len(self._records),
                n_entities=len(self._entity_ord),
                entities=MappingProxyType(entities),
                assignments=MappingProxyType(assignments),
            )

    def clusters(self) -> list[frozenset]:
        """The record-id partition as frozensets (for comparing resolutions)."""
        return [frozenset(m) for m in self.entities().values()]

    def get(self, record_id) -> dict:
        """Record with the given id; raises ``KeyError`` if absent."""
        with self._lock:
            return self._records[record_id]

    def records(self) -> list[dict]:
        """All records in insertion order."""
        with self._lock:
            return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id) -> bool:
        return record_id in self._records

    @property
    def n_entities(self) -> int:
        """Number of distinct entities."""
        return len(self._entity_ord)


def reference_freeze(pipeline, threshold: float = 0.5):
    """``(index, store)`` seeded from a completed run, as ``freeze`` seeds its own."""
    left, right = pipeline.left_, pipeline.right_
    blocker = pipeline.fitted_blocker_ if pipeline.fitted_blocker_ is not None else pipeline.blocker
    index = IncrementalTokenIndex.from_blocker(blocker, id_attr=left.id_attr)
    store = EntityStore(id_attr=left.id_attr)
    for table in (left, right) if right is not None else (left,):
        index.add(table)
        store.add_records(table)
    for pair, score in zip(pipeline.result_.pairs, pipeline.result_.scores):
        if score > threshold:
            store.merge(*pair)
    return index, store


def reference_resolve(
    generator, model, index, store, records, threshold: float = 0.5, engine: str = "batch"
):
    """Resolve one batch: ``(pairs, scores)``; ``store`` ends up merged.

    Each record is probed before it is added, so later records of the batch
    can match earlier ones; all pairs are featurized and scored in one pass.
    """
    pairs: list[tuple] = []
    for rec in records:
        rid = rec[store.id_attr]
        pairs.extend((cand, rid) for cand, _count in index.candidates(rec))
        index.add([rec])
        store.add(rec)
    if not pairs:
        return pairs, np.zeros(0)
    scores = model.predict_proba(generator.transform(store, None, pairs, engine=engine))
    for pair, score in zip(pairs, scores):
        if score > threshold:
            store.merge(*pair)
    return pairs, scores
