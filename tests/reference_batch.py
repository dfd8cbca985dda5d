"""Reference featurization kernels: the parity oracle for the batch kernels.

The production kernels in :mod:`repro.text.batch` deduplicate integer keys
by sorting (``_sorted_unique``, ``_unique_inverse``), Monge–Elkan scores
each distinct value combination once and finds its cells' token pairs in a
dense table (or, past the table budget, through each chunk's own distinct
sorted keys), and the edit kernels merge neighbouring length buckets into
padded, masked passes. They are held to the previous kernels kept here:

* :func:`numpy.unique`, which takes a hash table on numpy ≥ 2.3, in place of
  ``_sorted_unique`` (token sets, q-gram windows);
* :func:`reference_monge_elkan_jw_indexed` — the Monge–Elkan kernel that
  scores every pair (no value dedup), deduplicates token pairs with
  :func:`numpy.unique` and finds every (pair, token, token) cell in the
  global Jaro–Winkler table with one binary search;
* :func:`reference_levenshtein_similarity_indexed` and
  :func:`reference_jaro_winkler_indexed` — the edit kernels that run one
  dynamic program per exact ``(|a|, |b|)`` length bucket and score buckets
  of fewer than ``_MIN_VECTOR_BUCKET`` members with the scalar functions.

:func:`reference_kernels` swaps all of them into :mod:`repro.text.batch` and
the feature generator for the duration of a ``with`` block, so whole
transforms run on the oracle unchanged.

:func:`per_pair_transform` is the oracle for whole transforms: it scores
every feature through the generator's per-pair ``compute`` loop, the path
a batch transform takes only for features without a kernel and for calls
the Monge–Elkan kernel refuses.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Sequence
from unittest import mock

import numpy as np

from repro.features import generator
from repro.text import batch
from repro.text.batch import (
    _MONGE_ELKAN_CELL_BUDGET,
    _MONGE_ELKAN_CHUNK_CELLS,
    _NAN,
    _StringValues,
    _length_buckets,
    _none_flags,
    _scatter_combos,
    _unique_combos,
)
from repro.text.similarity import jaro_winkler, levenshtein_distance

__all__ = [
    "reference_levenshtein_similarity_indexed",
    "reference_jaro_winkler_indexed",
    "reference_monge_elkan_jw_indexed",
    "reference_kernels",
    "per_pair_transform",
]

#: Value-combination buckets smaller than this fall back to the scalar edit
#: kernels: the vectorized DP's per-bucket setup costs more than a handful
#: of scalar calls.
_MIN_VECTOR_BUCKET = 4


def _codes(strings: Sequence[str], length: int) -> np.ndarray:
    """Stack equal-length strings into a (k, length) uint32 code-point matrix."""
    joined = "".join(strings)
    flat = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return flat.reshape(len(strings), length)


def reference_levenshtein_similarity_indexed(
    records_a: Sequence, ua: np.ndarray, records_b: Sequence, ub: np.ndarray
) -> np.ndarray:
    """Batch normalized Levenshtein similarity over record-indexed pairs.

    Distinct value combinations are bucketed by (longer, shorter) length;
    each bucket runs the same prefix-minimum DP as the scalar kernel,
    vectorized across the bucket's pairs. Distances are integers, so
    results are bit-identical to
    :func:`repro.text.similarity.levenshtein_similarity`.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    m = len(cva)
    sims = np.empty(m, dtype=np.float64)
    if m:
        strs_a = [vals_a.values[i] for i in cva]
        strs_b = [vals_b.values[i] for i in cvb]
        la = vals_a.lengths[cva]
        lb = vals_b.lengths[cvb]
        equal = np.fromiter(
            (x == y for x, y in zip(strs_a, strs_b)), dtype=bool, count=m
        )
        # orient every combo longer-first (distance is symmetric)
        swap = la < lb
        long_strs = [b if s else a for a, b, s in zip(strs_a, strs_b, swap)]
        short_strs = [a if s else b for a, b, s in zip(strs_a, strs_b, swap)]
        l_long = np.where(swap, lb, la)
        l_short = np.where(swap, la, lb)
        sims[equal] = 1.0  # covers both-empty
        sims[~equal & (l_short == 0)] = 0.0  # distance == longest → 0
        todo = ~equal & (l_short > 0)
        for (length_long, length_short), members in _length_buckets(
            l_long[todo], l_short[todo]
        ).items():
            members = np.flatnonzero(todo)[members]
            if len(members) < _MIN_VECTOR_BUCKET:
                for u in members:
                    sims[u] = 1.0 - levenshtein_distance(long_strs[u], short_strs[u]) / length_long
                continue
            A = _codes([long_strs[u] for u in members], length_long)
            B = _codes([short_strs[u] for u in members], length_short)
            sims[members] = 1.0 - _bucket_levenshtein(A, B) / length_long
    return _scatter_combos(sims, inverse, missing)


def _bucket_levenshtein(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Levenshtein distances for a (k, la) × (k, lb) bucket, la ≥ lb.

    The scalar kernel's prefix-minimum recurrence, run over all k pairs at
    once: each of the la steps does O(k·lb) numpy work.
    """
    k, la = A.shape
    lb = B.shape[1]
    offsets = np.arange(lb + 1, dtype=np.float64)
    prev = np.tile(offsets, (k, 1))
    row = np.empty_like(prev)
    for i in range(la):
        cost = (B != A[:, i : i + 1]).astype(np.float64)
        row[:, 0] = i + 1
        row[:, 1:] = np.minimum(prev[:, 1:] + 1.0, prev[:, :-1] + cost)
        row -= offsets
        np.minimum.accumulate(row, axis=1, out=row)
        row += offsets
        prev, row = row, prev
    return prev[:, lb]


def reference_jaro_winkler_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
    *,
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Batch Jaro–Winkler over record-indexed pairs.

    Same dedup/short-circuit/bucket scheme as the Levenshtein kernel; the
    greedy match loop runs one character position at a time across the
    whole bucket, with the transposition count recovered from the match
    masks in one pass. Bit-identical to the scalar kernel.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    m = len(cva)
    sims = np.empty(m, dtype=np.float64)
    if m:
        strs_a = [vals_a.values[i] for i in cva]
        strs_b = [vals_b.values[i] for i in cvb]
        la = vals_a.lengths[cva]
        lb = vals_b.lengths[cvb]
        equal = np.fromiter(
            (x == y for x, y in zip(strs_a, strs_b)), dtype=bool, count=m
        )
        sims[equal] = 1.0
        sims[~equal & ((la == 0) | (lb == 0))] = 0.0
        todo = ~equal & (la > 0) & (lb > 0)
        for (length_a, length_b), members in _length_buckets(la[todo], lb[todo]).items():
            members = np.flatnonzero(todo)[members]
            if len(members) < _MIN_VECTOR_BUCKET:
                for u in members:
                    sims[u] = jaro_winkler(
                        strs_a[u], strs_b[u], prefix_weight=prefix_weight, max_prefix=max_prefix
                    )
                continue
            A = _codes([strs_a[u] for u in members], length_a)
            B = _codes([strs_b[u] for u in members], length_b)
            base = _bucket_jaro(A, B)
            pmax = min(max_prefix, length_a, length_b)
            if pmax > 0:
                lead = np.cumprod(A[:, :pmax] == B[:, :pmax], axis=1)
                prefix = lead.sum(axis=1).astype(np.float64)
            else:
                prefix = np.zeros(len(members), dtype=np.float64)
            sims[members] = base + prefix * prefix_weight * (1.0 - base)
    return _scatter_combos(sims, inverse, missing)


def _bucket_jaro(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Jaro similarities for a (k, la) × (k, lb) bucket (no empty strings)."""
    k, la = A.shape
    lb = B.shape[1]
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_a = np.zeros((k, la), dtype=bool)
    matched_b = np.zeros((k, lb), dtype=bool)
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        if lo >= hi:
            continue
        # the scalar kernel's greedy rule: first not-yet-matched position of
        # b inside the window whose character equals a[i]
        cand = (B[:, lo:hi] == A[:, i : i + 1]) & ~matched_b[:, lo:hi]
        hit = cand.any(axis=1)
        if not hit.any():
            continue
        first = cand.argmax(axis=1) + lo
        rows = np.flatnonzero(hit)
        matched_b[rows, first[rows]] = True
        matched_a[rows, i] = True
    m = matched_a.sum(axis=1).astype(np.float64)
    # transpositions: matched characters of each side, in order, compared
    # elementwise (per pair both sides have the same match count)
    ra, ca = np.nonzero(matched_a)
    rb, cb = np.nonzero(matched_b)
    mismatch = (A[ra, ca] != B[rb, cb]).astype(np.float64)
    trans = np.floor(np.bincount(ra, weights=mismatch, minlength=k) / 2.0)
    out = np.zeros(k, dtype=np.float64)
    nz = m > 0
    mm, tt = m[nz], trans[nz]
    out[nz] = (mm / la + mm / lb + (mm - tt) / mm) / 3.0
    return out


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
    jw_table = reference_jaro_winkler_indexed(tokens, inner_a, tokens, inner_b)

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
            for name, kernel in (
                ("batch_levenshtein_similarity_indexed", reference_levenshtein_similarity_indexed),
                ("batch_jaro_winkler_indexed", reference_jaro_winkler_indexed),
                ("batch_monge_elkan_jw_indexed", reference_monge_elkan_jw_indexed),
            ):
                stack.enter_context(mock.patch.object(module, name, kernel))
        yield


def per_pair_transform(gen, left, right, pairs, *, timings: dict | None = None) -> np.ndarray:
    """``gen.transform(left, right, pairs)`` with every feature scored per pair.

    Same preparation caches as the batch transform, but each column comes
    from :func:`~repro.features.generator._per_pair_scores`. ``timings``
    collects per-feature wall-clock seconds, as ``transform`` does.
    """
    gen._check_fitted()
    X = np.empty((len(pairs), len(gen.features_)), dtype=np.float64)
    if X.size == 0:
        return X
    ctx = generator._BatchContext(left, right, pairs)
    for j, spec in enumerate(gen.features_):
        started = time.perf_counter()
        X[:, j] = generator._per_pair_scores(spec, ctx)
        if timings is not None:
            timings[spec.name] = time.perf_counter() - started
    return X
