"""Per-record blocking loop: the parity oracle for the sparse blocking kernel.

:class:`~repro.blocking.overlap.TokenOverlapBlocker` counts shared tokens in
the sparse columnar kernel of :mod:`repro.blocking.batch`. It is held
bit-identical to the plain loop kept here: an inverted index over the
target side with DF pruning, one ``Counter`` per probe record, ranked by
:func:`rank_overlap_candidates` — the ranking contract the reference
incremental index (``reference_engine.IncrementalTokenIndex``) shares.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.blocking.overlap import TokenOverlapBlocker, record_tokens
from repro.data.table import Table

__all__ = ["rank_overlap_candidates", "PerRecordBlocker"]


def rank_overlap_candidates(
    overlap: Counter,
    min_overlap: int,
    top_k: int | None,
    position_of: dict,
) -> list[tuple]:
    """Rank one probe record's overlap counts into ``(rid, count)`` candidates.

    Keep counts ≥ ``min_overlap``, sort by descending overlap with ties
    broken by target insertion order (deterministic), cap at ``top_k``.
    """
    candidates = [(rid, count) for rid, count in overlap.items() if count >= min_overlap]
    candidates.sort(key=lambda item: (-item[1], position_of[item[0]]))
    if top_k is not None:
        candidates = candidates[:top_k]
    return candidates


class PerRecordBlocker:
    """A token-overlap blocker's parameters, blocked one probe record at a time.

    ``PerRecordBlocker(blocker).block(left, right)`` must equal
    ``blocker.block(left, right)`` pair for pair, in order, for any
    :class:`~repro.blocking.overlap.TokenOverlapBlocker` (q-gram included).
    """

    def __init__(self, blocker: TokenOverlapBlocker):
        self.blocker = blocker

    def block(self, left: Table, right: Table | None = None) -> list[tuple]:
        b = self.blocker
        dedup = right is None
        target = left if dedup else right
        # Inverted index over the target side, with DF pruning.
        postings: dict[str, list] = defaultdict(list)
        target_positions = {rid: pos for pos, rid in enumerate(target.ids())}
        for rec in target:
            rid = rec[target.id_attr]
            for tok in record_tokens(b.tokenizer, rec, b.attribute):
                postings[tok].append(rid)
        df_cap = max(1, int(b.max_df * len(target)))
        postings = {tok: ids for tok, ids in postings.items() if len(ids) <= df_cap}

        pairs: list[tuple] = []
        for probe_pos, rec in enumerate(left):
            lid = rec[left.id_attr]
            overlap: Counter = Counter()
            for tok in record_tokens(b.tokenizer, rec, b.attribute):
                for rid in postings.get(tok, ()):
                    overlap[rid] += 1
            if dedup:
                # only pair with later rows, so each unordered pair appears once
                overlap = Counter(
                    {
                        rid: count
                        for rid, count in overlap.items()
                        if target_positions[rid] > probe_pos
                    }
                )
            candidates = rank_overlap_candidates(overlap, b.min_overlap, b.top_k, target_positions)
            pairs.extend((lid, rid) for rid, _count in candidates)
        return pairs
