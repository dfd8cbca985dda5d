"""Reference featurization kernels: the parity oracle for sort-based dedup.

The production kernels in :mod:`repro.text.batch` deduplicate integer keys
by sorting (``_sorted_unique``, ``_unique_inverse``), and Monge–Elkan finds
each chunk's cells through that chunk's own distinct keys. They are held to
the previous kernels kept here:

* :func:`numpy.unique`, which takes a hash table on numpy ≥ 2.3, in place of
  ``_sorted_unique`` (token sets, q-gram windows);
* :func:`reference_monge_elkan_jw_indexed` — the Monge–Elkan kernel that
  deduplicates with :func:`numpy.unique` and finds every (pair, token,
  token) cell in the global Jaro–Winkler table with one binary search.

:func:`reference_kernels` swaps both into :mod:`repro.text.batch` and the
feature generator for the duration of a ``with`` block, so whole transforms
run on the oracle unchanged.
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence
from unittest import mock

import numpy as np

from repro.features import generator
from repro.text import batch
from repro.text.batch import (
    _MONGE_ELKAN_CELL_BUDGET,
    _MONGE_ELKAN_CHUNK_CELLS,
    _NAN,
    _length_buckets,
    _none_flags,
    batch_jaro_winkler_indexed,
)

__all__ = ["reference_monge_elkan_jw_indexed", "reference_kernels"]


def reference_monge_elkan_jw_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Batch symmetric Monge–Elkan with Jaro–Winkler inner similarity.

    Matches ``monge_elkan(a, b, inner=jaro_winkler, symmetric=True)`` to
    float rounding. The inner similarity is evaluated once per *distinct*
    token pair (via the batch Jaro–Winkler kernel); per-candidate-pair
    aggregation runs as dense ``(k, |A|, |B|)`` max/mean reductions, with
    pairs bucketed by token-count shape. Returns ``None`` (caller should
    fall back) if the expansion exceeds the cell budget.
    """
    n = len(ua)
    vocab: dict = {}

    def encode(records):
        indptr = np.zeros(len(records) + 1, dtype=np.int64)
        rows: list[np.ndarray] = []
        for u, tokens in enumerate(records):
            ids = (
                np.fromiter(
                    (vocab.setdefault(t, len(vocab)) for t in tokens),
                    dtype=np.int64,
                    count=len(tokens),
                )
                if tokens
                else np.zeros(0, dtype=np.int64)
            )
            rows.append(ids)  # token order preserved — aggregation order matters
            indptr[u + 1] = indptr[u] + len(ids)
        tok = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        return indptr, tok

    enc_a = encode(records_a)
    enc_b = enc_a if records_b is records_a else encode(records_b)
    indptr_a, tok_a = enc_a
    indptr_b, tok_b = enc_b

    la = np.diff(indptr_a)[ua]
    lb = np.diff(indptr_b)[ub]
    missing = _none_flags(records_a)[ua] | _none_flags(records_b)[ub]
    valid = ~missing & (la > 0) & (lb > 0)
    if int((la[valid] * lb[valid]).sum()) > _MONGE_ELKAN_CELL_BUDGET:
        return None

    out = np.zeros(n, dtype=np.float64)
    out[(la == 0) & (lb == 0) & ~missing] = 1.0
    out[missing] = _NAN

    vocab_size = max(len(vocab), 1)
    valid_idx = np.flatnonzero(valid)
    if not len(valid_idx):
        return out

    # Bucket valid pairs by (|A|, |B|) so each bucket is a dense
    # (k, |A|, |B|) block, processed in row chunks to bound the transient
    # key/sim intermediates. First pass collects every token-id pair needed.
    buckets = _length_buckets(la[valid_idx], lb[valid_idx])
    bucket_members = []
    for (ka, kb), members in buckets.items():
        rows = valid_idx[members]
        bucket_members.append(((ka, kb), rows, indptr_a[ua[rows]], indptr_b[ub[rows]]))

    def chunked_keys(ka, kb, starts_a, starts_b):
        # token-id matrices are re-gathered per chunk (never retained), so
        # the transient (chunk, ka, kb) intermediates stay within the cap
        chunk = max(1, _MONGE_ELKAN_CHUNK_CELLS // (ka * kb))
        for s in range(0, len(starts_a), chunk):
            A = tok_a[starts_a[s : s + chunk, None] + np.arange(ka, dtype=np.int64)]
            B = tok_b[starts_b[s : s + chunk, None] + np.arange(kb, dtype=np.int64)]
            yield s, s + chunk, A[:, :, None] * vocab_size + B[:, None, :]

    bucket_keys = [
        np.unique(keys)
        for (ka, kb), _rows, starts_a, starts_b in bucket_members
        for _s, _e, keys in chunked_keys(ka, kb, starts_a, starts_b)
    ]
    unique_keys = np.unique(np.concatenate(bucket_keys))
    tokens = list(vocab)
    inner_a = unique_keys // vocab_size
    inner_b = unique_keys % vocab_size
    jw_table = batch_jaro_winkler_indexed(tokens, inner_a, tokens, inner_b)

    for (ka, kb), rows, starts_a, starts_b in bucket_members:
        for s, e, keys in chunked_keys(ka, kb, starts_a, starts_b):
            sims = jw_table[np.searchsorted(unique_keys, keys)]
            forward = sims.max(axis=2).mean(axis=1)
            backward = sims.max(axis=1).mean(axis=1)
            out[rows[s:e]] = 0.5 * (forward + backward)
    return out


@contextlib.contextmanager
def reference_kernels():
    """Run every batch featurization in the block on the oracle."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(batch, "_sorted_unique", np.unique))
        for module in (batch, generator):
            stack.enter_context(
                mock.patch.object(
                    module, "batch_monge_elkan_jw_indexed", reference_monge_elkan_jw_indexed
                )
            )
        yield
