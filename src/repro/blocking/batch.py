"""Sparse columnar blocking engine: token overlap as matrix algebra.

:class:`~repro.blocking.overlap.TokenOverlapBlocker` counts shared tokens
with CSR-style incidence arrays and chunked numpy rather than a Python
``Counter`` per probe record (that loop is kept in the test suite as the
parity oracle):

* each side's blocking tokens are encoded once into a
  :class:`TokenEncoding` — a token vocabulary with document frequencies
  plus a records × tokens incidence structure in CSR form;
* document-frequency pruning is a boolean column mask over the vocabulary
  (``df <= max_df * n_target``, the reference's exact cap);
* overlap counts come from a sparse dot product evaluated in probe chunks:
  probe token occurrences are expanded through the target's inverted
  postings and accumulated with ``bincount`` into a dense
  (chunk × target) count buffer;
* ``min_overlap`` thresholding and per-record ``top_k`` selection run on
  the count buffer with ``argpartition``, ordered by the ranking contract
  the incremental index shares — descending overlap count, ties broken by
  target insertion order — so the emitted pair list is bit-identical to
  the per-record loop.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.blocking.overlap import record_tokens, validate_overlap_params
from repro.text.tokenizers import Tokenizer

__all__ = [
    "TokenEncoding",
    "sparse_overlap_pairs",
    "sparse_overlap_select",
    "DEFAULT_CHUNK_ENTRIES",
]

#: Expanded posting entries per probe chunk. 4M int64 keys keep the
#: working set around 32 MB regardless of table sizes.
DEFAULT_CHUNK_ENTRIES = 4_000_000


class TokenEncoding:
    """CSR-style encoding of one table side's blocking tokens.

    Two complementary views of the same records × tokens incidence matrix:

    * **record-major** (``indptr`` / ``token_cols``): each record's distinct
      token columns, concatenated — the probe-side view;
    * **token-major** (:meth:`postings_arrays`): per-token inverted postings
      of record row positions — the target-side view, built lazily.

    ``df[col]`` is the number of records containing token ``col`` (tokens
    are distinct per record, so this equals the posting-list length).
    """

    __slots__ = ("ids", "vocab", "indptr", "token_cols", "df", "_postings")

    def __init__(self, ids, vocab, indptr, token_cols, df):
        self.ids = ids
        self.vocab = vocab
        self.indptr = indptr
        self.token_cols = token_cols
        self.df = df
        self._postings = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_tokens(self) -> int:
        """Number of distinct vocabulary tokens."""
        return len(self.vocab)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenEncoding(n_records={len(self)}, n_tokens={self.n_tokens})"

    @classmethod
    def encode(
        cls,
        records: Iterable[dict],
        tokenizer: Tokenizer,
        attribute: str,
        id_attr: str = "id",
        vocab: dict | None = None,
    ) -> "TokenEncoding":
        """Encode ``records`` (a ``Table`` iterates as record dicts).

        Without ``vocab`` the vocabulary is built from these records in
        first-seen order and document frequencies are counted (the target
        side). With a shared ``vocab`` — the target's — tokens outside it
        are dropped, since they cannot contribute overlap (the probe side;
        ``df`` is ``None`` in that case).
        """
        own_vocab = vocab is None
        if own_vocab:
            vocab = {}
        ids: list = []
        indptr = [0]
        cols: list[int] = []
        for rec in records:
            ids.append(rec.get(id_attr))
            tokens = record_tokens(tokenizer, rec, attribute)
            if own_vocab:
                for tok in tokens:
                    cols.append(vocab.setdefault(tok, len(vocab)))
            else:
                for tok in tokens:
                    col = vocab.get(tok)
                    if col is not None:
                        cols.append(col)
            indptr.append(len(cols))
        token_cols = np.asarray(cols, dtype=np.int64)
        df = np.bincount(token_cols, minlength=len(vocab)) if own_vocab else None
        return cls(ids, vocab, np.asarray(indptr, dtype=np.int64), token_cols, df)

    def postings_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Token-major inverted view: ``(post_indptr, post_rows)``.

        ``post_rows[post_indptr[c]:post_indptr[c + 1]]`` are the row
        positions of the records containing token column ``c``. Built once
        from the record-major CSR and cached.
        """
        if self._postings is None:
            counts = np.bincount(self.token_cols, minlength=self.n_tokens)
            post_indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
            row_dtype = np.int32 if len(self.ids) < 2**31 else np.int64
            row_of = np.repeat(np.arange(len(self.ids), dtype=row_dtype), np.diff(self.indptr))
            order = np.argsort(self.token_cols, kind="stable")
            self._postings = (post_indptr, row_of[order])
        return self._postings


def _select_dense(
    counts: np.ndarray,
    min_overlap: int,
    top_k: int | None,
    n_target: int,
):
    """Selection on a dense (chunk × target) count buffer.

    ``top_k`` selection uses ``argpartition`` on a composite int64 key that
    encodes the ranking contract — larger key first ⇔ higher count first,
    then lower target position first: ``key = count * (n_target + 1) - pos``.
    """
    nrows = counts.shape[0]
    if top_k is None:
        rows, cols = np.nonzero(counts >= min_overlap)
        cnt = counts[rows, cols]
        order = np.lexsort((cols, -cnt, rows))
        return rows[order], cols[order], cnt[order]
    key = counts * np.int64(n_target + 1) - np.arange(n_target, dtype=np.int64)[None, :]
    key[counts < min_overlap] = -1
    if top_k < n_target:
        part = np.argpartition(key, n_target - top_k, axis=1)[:, n_target - top_k :]
    else:
        part = np.broadcast_to(np.arange(n_target, dtype=np.int64), (nrows, n_target))
    rows = np.repeat(np.arange(nrows, dtype=np.int64), part.shape[1])
    cols = part.reshape(-1)
    keys = key[rows, cols]
    valid = keys >= 0
    rows, cols, keys = rows[valid], cols[valid], keys[valid]
    order = np.lexsort((-keys, rows))
    rows, cols = rows[order], cols[order]
    return rows, cols, counts[rows, cols]


def _rank_and_cap(rows, cols, cnt, top_k, n_target):
    """Order flat candidates by (row, -count, col) and cap each row's run.

    Uses one radix sort on a composite int64 key when the key space fits,
    falling back to ``lexsort`` otherwise; both orders are identical.
    """
    if rows.size == 0:
        return rows, cols, cnt
    max_cnt = int(cnt.max())
    span = (int(rows[-1]) + 1) * (max_cnt + 1) * (n_target + 1)
    if span < 2**62:
        key = (rows * np.int64(max_cnt + 1) + (max_cnt - cnt)) * np.int64(n_target + 1)
        key += cols
        order = np.argsort(key, kind="stable")
    else:  # pragma: no cover - astronomically large tables only
        order = np.lexsort((cols, -cnt, rows))
    rows, cols, cnt = rows[order], cols[order], cnt[order]
    if top_k is not None:
        new_row = np.r_[True, rows[1:] != rows[:-1]]
        row_start = np.flatnonzero(new_row)
        rank = np.arange(rows.size) - row_start[np.cumsum(new_row) - 1]
        keep = rank < top_k
        rows, cols, cnt = rows[keep], cols[keep], cnt[keep]
    return rows, cols, cnt


def _expand_keys(cols, occ_row, lens, post_indptr, post_rows, n_target, nrows):
    """Expand probe-token occurrences into flat ``row * n_target + target``
    keys — the coordinate form of the sparse dot product.

    Both per-entry sequences (the posting gather index and the probe-row
    base) are built with a single ``cumsum`` over scattered boundary deltas
    instead of per-occurrence ``np.repeat``, which dominates otherwise.
    """
    total = int(lens.sum())
    prefix = np.cumsum(lens) - lens
    starts = post_indptr[cols]
    # gather index: runs start_i, start_i+1, ... per occurrence
    gather_dtype = np.int32 if post_rows.size < 2**31 else np.int64
    gather = np.ones(total, dtype=gather_dtype)
    jump = starts.copy()
    jump[1:] -= starts[:-1] + lens[:-1] - 1
    gather[prefix] = jump.astype(gather_dtype)
    np.cumsum(gather, out=gather)
    # keys: target row + probe-row base, in int32 whenever the chunk's
    # (rows × targets) key space allows it
    key_dtype = np.int32 if nrows * n_target < 2**31 else np.int64
    base = occ_row.astype(key_dtype) * key_dtype(n_target)
    delta = np.zeros(total, dtype=key_dtype)
    delta[prefix[0]] = base[0]
    delta[prefix[1:]] = base[1:] - base[:-1]
    np.cumsum(delta, out=delta)
    keys = post_rows[gather].astype(key_dtype, copy=False)
    keys += delta
    return keys


def sparse_overlap_select(
    probe: TokenEncoding,
    target: TokenEncoding,
    *,
    min_overlap: int,
    max_df: float,
    top_k: int | None,
    dedup: bool = False,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked overlap candidates as ``(probe_rows, target_cols, counts)``.

    The core sparse kernel. Probe records are processed in row order; per
    probe row, candidates appear in ranking order (descending count, then
    target insertion order), capped at ``top_k``.

    Probes are chunked by expanded posting volume (``chunk_entries``
    entries per chunk). Within a chunk the overlap counts are a sparse dot
    product probe-chunk × token × target; the accumulation strategy adapts
    to density — a ``bincount`` into a dense (chunk × target) buffer with
    ``argpartition`` top-``k`` selection when most cells are touched, or a
    key sort with run-length counting when the candidate structure is
    sparse. Both strategies emit identical candidates.

    ``dedup=True`` keeps only targets at a strictly later row position than
    the probe (both sides must then encode the same table).
    """
    validate_overlap_params(min_overlap, max_df, top_k)
    n_probe, n_target = len(probe), len(target)
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))
    if n_probe == 0 or n_target == 0:
        return empty

    df_cap = max(1, int(max_df * n_target))
    keep_token = target.df <= df_cap
    post_indptr, post_rows = target.postings_arrays()

    # Cumulative expanded-entry volume at each record boundary, so chunks
    # split by work rather than by row count (df-pruned tokens cost 0).
    kept_df = np.where(keep_token, target.df, 0)
    occ_cum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(kept_df[probe.token_cols])]
    )
    rec_cum = occ_cum[probe.indptr]

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_counts: list[np.ndarray] = []
    start = 0
    while start < n_probe:
        stop = int(np.searchsorted(rec_cum, rec_cum[start] + chunk_entries, "right")) - 1
        stop = min(n_probe, max(stop, start + 1))
        nrows = stop - start
        lo, hi = int(probe.indptr[start]), int(probe.indptr[stop])
        cols = probe.token_cols[lo:hi]
        occ_row = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(probe.indptr[start : stop + 1])
        )
        kept = keep_token[cols]
        cols, occ_row = cols[kept], occ_row[kept]
        start, gstart = stop, start
        if cols.size == 0:
            continue

        # Expand each surviving probe-token occurrence through the target's
        # posting list: entry i says "probe row → target row", flattened as
        # row * n_target + target.
        lens = target.df[cols]
        keys = _expand_keys(cols, occ_row, lens, post_indptr, post_rows, n_target, nrows)

        cells = nrows * n_target
        if cells <= keys.size:
            # dense accumulation: the count buffer is no bigger than the
            # entry list, so bincount + argpartition is the cheap route
            counts = np.bincount(keys, minlength=cells).reshape(nrows, n_target)
            if dedup:
                gpos = np.arange(gstart, stop, dtype=np.int64)
                counts[np.arange(n_target, dtype=np.int64)[None, :] <= gpos[:, None]] = 0
            rows_c, cols_c, cnt_c = _select_dense(counts, min_overlap, top_k, n_target)
        else:
            # sparse accumulation: sort the entry keys and run-length count
            keys.sort()
            change = np.empty(keys.size, dtype=bool)
            change[0] = True
            np.not_equal(keys[1:], keys[:-1], out=change[1:])
            boundary = np.flatnonzero(change)
            cnt_c = np.diff(boundary, append=keys.size)
            uniq = keys[boundary].astype(np.int64, copy=False)
            # recover rows by walking row boundaries (no per-candidate division)
            row_ends = np.searchsorted(
                uniq, np.arange(1, nrows + 1, dtype=np.int64) * n_target, side="left"
            )
            per_row = np.diff(row_ends, prepend=0)
            rows_c = np.repeat(np.arange(nrows, dtype=np.int64), per_row)
            cols_c = uniq - rows_c * n_target
            mask = cnt_c >= min_overlap
            if dedup:
                mask &= cols_c > rows_c + gstart
            rows_c, cols_c, cnt_c = rows_c[mask], cols_c[mask], cnt_c[mask]
            rows_c, cols_c, cnt_c = _rank_and_cap(rows_c, cols_c, cnt_c, top_k, n_target)

        if rows_c.size == 0:
            continue
        out_rows.append(rows_c + gstart)
        out_cols.append(cols_c)
        out_counts.append(cnt_c)

    if not out_rows:
        return empty
    return (
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_counts),
    )


def sparse_overlap_pairs(
    probe: TokenEncoding,
    target: TokenEncoding,
    *,
    min_overlap: int,
    max_df: float,
    top_k: int | None,
    dedup: bool = False,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> list[tuple]:
    """Candidate ``(probe_id, target_id)`` pairs, bit-identical in content
    and order to the per-record reference path."""
    rows, cols, _counts = sparse_overlap_select(
        probe,
        target,
        min_overlap=min_overlap,
        max_df=max_df,
        top_k=top_k,
        dedup=dedup,
        chunk_entries=chunk_entries,
    )
    probe_ids, target_ids = probe.ids, target.ids
    return [(probe_ids[r], target_ids[c]) for r, c in zip(rows.tolist(), cols.tolist())]
