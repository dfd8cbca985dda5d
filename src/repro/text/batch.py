"""Columnar batch kernels for the pair-scoring hot path.

Featurizing a blocked candidate set is the dominant end-to-end cost of
ZeroER (paper §2.1, §5.5): up to ~100k pairs, each scored by a dozen or
more similarity features. The per-pair functions in
:mod:`repro.text.similarity` pay Python-level call overhead and per-call
``set``/``Counter`` construction on every cell; the kernels here score a
whole pair batch per numpy operation instead.

Every kernel comes in two forms: a *record-indexed* ``*_indexed`` variant
taking record-level prepared values plus per-pair row indices (what the
feature generator uses — records repeat across a blocked candidate set, so
per-record work is paid once), and a per-pair convenience wrapper taking
two aligned lists.

Kernel families:

* **Token-set measures** — :func:`token_pair_stats_indexed` computes the
  intersection size of all pairs with a dense/sparse split: the
  highest-document-frequency tokens (ranked at encode time) live in
  per-record *bitmasks*, so most of each intersection is a handful of
  ``AND`` + popcount word operations per pair; the rare-token tail is a
  sorted-key merge. Jaccard / cosine / Dice / overlap then derive from the
  shared :class:`TokenPairStats` with pure arithmetic, so e.g. an
  attribute's ``cos_qgm3`` and ``dice_qgm3`` cost one tokenization and one
  intersection pass, total.
* **TF-IDF cosine** — each distinct bag is weighted (``tf · idf``) and
  normed once at the record level; pair dot products come from one
  sorted-key merge.
* **Edit measures** — Levenshtein and Jaro–Winkler deduplicate value
  combinations, short-circuit equal/empty cases, and bucket the remainder
  by ``(len(a), len(b))`` so the dynamic programs run vectorized across all
  string pairs of a bucket (strings become contiguous uint32 code matrices
  via the same utf-32 encoding the scalar kernels use).
* **Monge–Elkan** — token pairs are deduplicated across the whole batch
  and scored once with the batch Jaro–Winkler kernel; the per-pair
  best-match/mean aggregation runs as dense ``(k, |A|, |B|)`` reductions
  per length bucket.

Every kernel reproduces the scalar functions' conventions exactly:
``None`` → NaN, both-empty → 1.0, one-empty → 0.0. The set/edit measures
are bit-identical to the scalar path; TF-IDF and Monge–Elkan match to
float rounding (only summation order differs).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.text.similarity import jaro_winkler, levenshtein_distance

__all__ = [
    "TokenPairStats",
    "token_pair_stats",
    "token_pair_stats_indexed",
    "qgram_pair_stats_indexed",
    "jaccard_from_stats",
    "cosine_from_stats",
    "dice_from_stats",
    "overlap_from_stats",
    "batch_tfidf_cosine",
    "batch_tfidf_cosine_indexed",
    "batch_levenshtein_similarity",
    "batch_levenshtein_similarity_indexed",
    "batch_jaro_winkler",
    "batch_jaro_winkler_indexed",
    "batch_monge_elkan_jw",
    "batch_monge_elkan_jw_indexed",
]

_NAN = float("nan")

#: Value-combination buckets smaller than this fall back to the scalar edit
#: kernels: the vectorized DP's per-bucket setup costs more than a handful
#: of scalar calls.
_MIN_VECTOR_BUCKET = 4

#: Cap on dense bitmask width (bits per record) for token intersections.
#: Tokens ranked beyond the cap go through the sorted-merge tail.
_DENSE_BITS_CAP = 1024

#: Monge–Elkan expansion budget: if Σ |A|·|B| over the batch exceeds this,
#: the kernel refuses (returns None) and the caller falls back to the
#: per-pair path rather than allocating unbounded intermediates.
_MONGE_ELKAN_CELL_BUDGET = 60_000_000

#: Rows of a Monge–Elkan bucket are processed in chunks of at most this
#: many (pair, token_a, token_b) cells, capping the transient int64/float64
#: intermediates at ~50 MB regardless of batch size.
_MONGE_ELKAN_CHUNK_CELLS = 2_000_000

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Total set bits per row of a (n, w) uint64 matrix."""
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
else:  # pragma: no cover - exercised only on numpy 1.x
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        n = words.shape[0]
        return _POPCOUNT8[words.view(np.uint8).reshape(n, -1)].sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _pair_positions(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def _none_flags(values: Sequence) -> np.ndarray:
    return np.fromiter((v is None for v in values), dtype=bool, count=len(values))


def _gather_rows(indptr: np.ndarray, data: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows ``rows``; returns (values, owner index per value)."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    owners = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    if total == 0:
        return data[:0], owners
    shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - shift, counts) + np.arange(total, dtype=np.int64)
    return data[positions], owners


def _sorted_key_merge_counts(
    keys_a: np.ndarray, owners_a: np.ndarray, keys_b: np.ndarray, n: int
) -> np.ndarray:
    """Per-owner count of keys_a entries present in keys_b (both sorted unique)."""
    if not len(keys_a) or not len(keys_b):
        return np.zeros(n, dtype=np.int64)
    pos = np.searchsorted(keys_b, keys_a)
    pos_clipped = np.minimum(pos, len(keys_b) - 1)
    hit = keys_b[pos_clipped] == keys_a
    return np.bincount(owners_a[hit], minlength=n)


# ---------------------------------------------------------------------------
# Token-set measures
# ---------------------------------------------------------------------------

@dataclass
class TokenPairStats:
    """Shared per-pair statistics for all set-semantics token measures.

    One instance serves every measure over the same ``(attribute,
    tokenizer)`` combination — the expensive parts (encoding, intersection
    counting) happen once.
    """

    #: ``|A ∩ B|`` per pair (0 where a side is missing).
    intersection: np.ndarray
    #: ``|A|`` / ``|B|`` per pair (0 where missing).
    size_a: np.ndarray
    size_b: np.ndarray
    #: True where either side's value is missing (→ NaN feature).
    missing: np.ndarray

    def __len__(self) -> int:
        return len(self.intersection)


def _stats_from_flat(
    owner: np.ndarray,
    ids: np.ndarray,
    n_records: int,
    vocab_size: int,
    none: np.ndarray,
    ua: np.ndarray,
    ub: np.ndarray,
    *,
    deduped: bool = False,
) -> TokenPairStats:
    """Intersection/size stats from a flat (record, token-id) incidence.

    ``owner``/``ids`` may contain within-record duplicates (bag input) —
    unless ``deduped=True``, the first step deduplicates to set semantics.
    Both pair sides index into the *same* record space (callers append
    side-b records after side-a and offset ``ub``).

    Token ids are re-ranked by descending document frequency: ids below a
    dense cutoff live in per-record uint64 bitmasks, so the bulk of every
    pair intersection is a handful of AND + popcount word operations; the
    rare-token tail goes through a sorted-key merge. This is the CSR
    token-incidence split that makes set measures columnar.
    """
    n = len(ua)
    missing = none[ua] | none[ub]
    if vocab_size == 0 or len(owner) == 0 or n == 0:
        zeros = np.zeros(n, dtype=np.int64)
        sizes = np.zeros(n_records, dtype=np.int64)
        if len(owner):
            sizes = np.bincount(owner, minlength=n_records)
        return TokenPairStats(
            intersection=zeros, size_a=sizes[ua], size_b=sizes[ub], missing=missing
        )

    if deduped:
        owner_u, ids_u = owner, ids
    else:
        # set semantics: drop within-record duplicates
        keys = np.unique(owner * vocab_size + ids)
        owner_u = keys // vocab_size
        ids_u = keys % vocab_size
    sizes = np.bincount(owner_u, minlength=n_records)

    # rank ids by descending document frequency so the dense bitmask prefix
    # absorbs the bulk of every intersection
    df = np.bincount(ids_u, minlength=vocab_size)
    order = np.argsort(-df, kind="stable")
    rank = np.empty(vocab_size, dtype=np.int64)
    rank[order] = np.arange(vocab_size, dtype=np.int64)
    ranked = rank[ids_u]

    dense_bits = min(_DENSE_BITS_CAP, -(-min(vocab_size, _DENSE_BITS_CAP) // 64) * 64)
    n_words = dense_bits // 64
    masks = np.zeros((n_records, n_words), dtype=np.uint64)
    dense_sel = ranked < dense_bits
    if dense_sel.any():
        np.bitwise_or.at(
            masks.reshape(-1),
            owner_u[dense_sel] * n_words + (ranked[dense_sel] >> 6),
            np.left_shift(np.uint64(1), (ranked[dense_sel] & 63).astype(np.uint64)),
        )
    inter = _popcount_rows(masks[ua] & masks[ub])

    tail_sel = ~dense_sel
    if tail_sel.any():
        tail_keys = np.sort(owner_u[tail_sel] * vocab_size + ranked[tail_sel])
        tail_ids = tail_keys % vocab_size
        tail_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(tail_keys // vocab_size, minlength=n_records)))
        )
        toks_a, owners_a = _gather_rows(tail_indptr, tail_ids, ua)
        toks_b, owners_b = _gather_rows(tail_indptr, tail_ids, ub)
        # rows are token-sorted and owners ascend → keys globally sorted
        inter += _sorted_key_merge_counts(
            owners_a * vocab_size + toks_a, owners_a, owners_b * vocab_size + toks_b, n
        )
    return TokenPairStats(
        intersection=inter, size_a=sizes[ua], size_b=sizes[ub], missing=missing
    )


def token_pair_stats_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
) -> TokenPairStats:
    """Intersection/size stats for pairs ``(records_a[ua[i]], records_b[ub[i]])``.

    ``records_*`` hold each distinct record's tokens (any iterable — bags
    are deduplicated to sets — or ``None`` for missing); ``ua``/``ub`` map
    pairs to record rows. Pass the *same list object* for both sides in
    dedup mode to share the encoding.
    """
    same = records_b is records_a
    records_all = records_a if same else list(records_a) + list(records_b)
    vocab: dict = {}
    counts: list[int] = []
    flat: list[int] = []
    for tokens in records_all:
        if tokens is None:
            counts.append(0)
            continue
        row = [vocab.setdefault(t, len(vocab)) for t in tokens]
        flat.extend(row)
        counts.append(len(row))
    owner = np.repeat(np.arange(len(records_all), dtype=np.int64), counts)
    ids = np.asarray(flat, dtype=np.int64) if flat else np.zeros(0, dtype=np.int64)
    ua = np.asarray(ua, dtype=np.int64)
    ub = np.asarray(ub, dtype=np.int64)
    return _stats_from_flat(
        owner,
        ids,
        len(records_all),
        len(vocab),
        _none_flags(records_all),
        ua,
        ub if same else ub + len(records_a),
    )


def qgram_pair_stats_indexed(
    strings_a: Sequence,
    ua: np.ndarray,
    strings_b: Sequence,
    ub: np.ndarray,
    *,
    q: int,
    padded: bool = True,
    lowercase: bool = True,
) -> TokenPairStats:
    """Q-gram set stats straight from record strings — no Python tokens.

    Reproduces :class:`repro.text.tokenizers.QgramTokenizer` semantics
    (lowercase, then ``#``/``$`` padding, then length-``q`` windows)
    entirely in numpy: every record's padded string becomes a row of
    utf-32 code points, the sliding windows become a ``(N, q)`` uint32
    matrix, and window identity is resolved with one :func:`numpy.unique`
    over the raw window bytes. Requires ``padded=True`` or ``q == 1`` (the
    unpadded short-string case tokenizes to the whole string, which has no
    windowed equivalent).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not padded and q > 1:
        raise ValueError("qgram_pair_stats_indexed requires padded=True or q == 1")
    same = strings_b is strings_a
    all_strings = strings_a if same else list(strings_a) + list(strings_b)
    pad = "#" * (q - 1), "$" * (q - 1)
    prepared = [
        None if s is None else (pad[0] + (s.lower() if lowercase else s) + pad[1] if s else "")
        for s in all_strings
    ]
    lens = np.fromiter(
        (0 if s is None else len(s) for s in prepared), dtype=np.int64, count=len(prepared)
    )
    n_windows = np.maximum(lens - (q - 1), 0)
    total = int(n_windows.sum())
    none = _none_flags(all_strings)
    ua = np.asarray(ua, dtype=np.int64)
    ub = np.asarray(ub, dtype=np.int64) if same else np.asarray(ub, dtype=np.int64) + len(strings_a)
    if total == 0:
        return _stats_from_flat(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            len(all_strings), 0, none, ua, ub,
        )
    codes = np.frombuffer(
        "".join(s for s in prepared if s).encode("utf-32-le"), dtype=np.uint32
    )
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    owner = np.repeat(np.arange(len(all_strings), dtype=np.int64), n_windows)
    shift = np.concatenate(([0], np.cumsum(n_windows)[:-1]))
    win_starts = np.repeat(starts - shift, n_windows) + np.arange(total, dtype=np.int64)

    # Map code points to a compact corpus alphabet so each window packs
    # into one int64 (base-|alphabet| number). One combined owner+window
    # key then deduplicates windows per record in a single unique pass.
    alphabet, char_ids = np.unique(codes, return_inverse=True)
    base = max(len(alphabet), 1)
    window_space = base**q  # python int — never overflows
    if window_space < 2**61 and len(all_strings) * window_space < 2**62:
        win_vals = np.zeros(total, dtype=np.int64)
        for i in range(q):
            win_vals *= base
            win_vals += char_ids[win_starts + i]
        keys = np.unique(owner * window_space + win_vals)
        owner_u = keys // window_space
        vocab, ids_u = np.unique(keys % window_space, return_inverse=True)
        return _stats_from_flat(
            owner_u, ids_u.astype(np.int64), len(all_strings), len(vocab),
            none, ua, ub, deduped=True,
        )
    # enormous alphabet/q: fall back to byte-identity over window rows
    windows = np.ascontiguousarray(codes[win_starts[:, None] + np.arange(q, dtype=np.int64)])
    as_void = windows.view(np.dtype((np.void, 4 * q))).ravel()
    unique_windows, ids = np.unique(as_void, return_inverse=True)
    return _stats_from_flat(
        owner, ids.astype(np.int64), len(all_strings), len(unique_windows), none, ua, ub
    )


def token_pair_stats(sets_a: Sequence, sets_b: Sequence) -> TokenPairStats:
    """Per-pair convenience wrapper: ``sets_a[i]``/``sets_b[i]`` form pair i."""
    if len(sets_a) != len(sets_b):
        raise ValueError("sets_a and sets_b must be aligned per pair")
    idx = _pair_positions(len(sets_a))
    return token_pair_stats_indexed(sets_a, idx, sets_b, idx)


def _empty_aware(stats: TokenPairStats, compute) -> np.ndarray:
    """Shared missing/empty handling: NaN, both-empty → 1, one-empty → 0."""
    sa = stats.size_a.astype(np.float64)
    sb = stats.size_b.astype(np.float64)
    inter = stats.intersection.astype(np.float64)
    out = np.zeros(len(stats), dtype=np.float64)
    both_present = (stats.size_a > 0) & (stats.size_b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(out, compute(inter, sa, sb), where=both_present)
    out[(stats.size_a == 0) & (stats.size_b == 0)] = 1.0
    out[stats.missing] = _NAN
    return out


def jaccard_from_stats(stats: TokenPairStats) -> np.ndarray:
    """Batch Jaccard ``|A∩B| / |A∪B|`` from shared stats."""
    return _empty_aware(stats, lambda i, sa, sb: i / (sa + sb - i))


def cosine_from_stats(stats: TokenPairStats) -> np.ndarray:
    """Batch set (Ochiai) cosine ``|A∩B| / sqrt(|A|·|B|)``."""
    return _empty_aware(stats, lambda i, sa, sb: i / np.sqrt(sa * sb))


def dice_from_stats(stats: TokenPairStats) -> np.ndarray:
    """Batch Dice coefficient ``2·|A∩B| / (|A| + |B|)``."""
    return _empty_aware(stats, lambda i, sa, sb: 2.0 * i / (sa + sb))


def overlap_from_stats(stats: TokenPairStats) -> np.ndarray:
    """Batch overlap coefficient ``|A∩B| / min(|A|, |B|)``."""
    return _empty_aware(stats, lambda i, sa, sb: i / np.minimum(sa, sb))


# ---------------------------------------------------------------------------
# TF-IDF cosine
# ---------------------------------------------------------------------------

def batch_tfidf_cosine_indexed(
    bags_a: Sequence,
    ua: np.ndarray,
    bags_b: Sequence,
    ub: np.ndarray,
    idf: dict[str, float],
    default_idf: float | None = None,
) -> np.ndarray:
    """Batch TF-IDF cosine; record-level bags plus per-pair row indices.

    Each distinct bag is weighted (``tf · idf``) and normed once; pair dot
    products come from one sorted-key merge. Matches
    :func:`repro.text.similarity.tfidf_cosine` to float rounding (summation
    order differs). Token ids follow sorted token order, so every sum runs
    in an order fixed by the pair's own bags: a pair scores bit-identically
    whichever other pairs share its batch.
    """
    n = len(ua)
    if default_idf is None:
        default_idf = max(idf.values(), default=1.0)
    tokens: set = set()
    for bags in (bags_a, bags_b):
        for bag in bags:
            if bag is not None:
                tokens.update(bag)
    vocab = {t: i for i, t in enumerate(sorted(tokens))}

    def encode(bags):
        indptr = np.zeros(len(bags) + 1, dtype=np.int64)
        tok_rows: list[np.ndarray] = []
        w_rows: list[np.ndarray] = []
        for u, bag in enumerate(bags):
            counts = Counter(bag) if bag is not None else {}
            ids = np.fromiter((vocab[t] for t in counts), dtype=np.int64, count=len(counts))
            weights = np.fromiter(
                (tf * idf.get(t, default_idf) for t, tf in counts.items()),
                dtype=np.float64,
                count=len(counts),
            )
            order = np.argsort(ids)
            tok_rows.append(ids[order])
            w_rows.append(weights[order])
            indptr[u + 1] = indptr[u] + len(ids)
        tok = np.concatenate(tok_rows) if tok_rows else np.zeros(0, dtype=np.int64)
        w = np.concatenate(w_rows) if w_rows else np.zeros(0, dtype=np.float64)
        sizes = np.diff(indptr)
        norms = np.sqrt(np.bincount(
            np.repeat(np.arange(len(bags), dtype=np.int64), sizes),
            weights=w * w,
            minlength=max(len(bags), 1),
        )) if len(bags) else np.zeros(0)
        return indptr, tok, w, sizes, norms

    enc_a = encode(bags_a)
    enc_b = enc_a if bags_b is bags_a else encode(bags_b)
    indptr_a, tok_a, w_a, sizes_a, norms_a = enc_a
    indptr_b, tok_b, w_b, sizes_b, norms_b = enc_b

    missing = _none_flags(bags_a)[ua] | _none_flags(bags_b)[ub]
    size_a = sizes_a[ua]
    size_b = sizes_b[ub]
    out = np.zeros(n, dtype=np.float64)
    vocab_size = len(vocab)
    if vocab_size and n:
        toks_pa, owners_a = _gather_rows(indptr_a, tok_a, ua)
        toks_pb, owners_b = _gather_rows(indptr_b, tok_b, ub)
        wa, _ = _gather_rows(indptr_a, w_a, ua)
        wb, _ = _gather_rows(indptr_b, w_b, ub)
        keys_a = owners_a * vocab_size + toks_pa
        keys_b = owners_b * vocab_size + toks_pb
        if len(keys_a) and len(keys_b):
            pos = np.searchsorted(keys_b, keys_a)
            pos_clipped = np.minimum(pos, len(keys_b) - 1)
            hit = keys_b[pos_clipped] == keys_a
            dots = np.bincount(
                owners_a[hit], weights=wa[hit] * wb[pos_clipped[hit]], minlength=n
            )
            denom = norms_a[ua] * norms_b[ub]
            with np.errstate(divide="ignore", invalid="ignore"):
                np.copyto(out, dots / denom, where=denom > 0.0)
    out[(size_a == 0) & (size_b == 0)] = 1.0
    out[missing] = _NAN
    return out


def batch_tfidf_cosine(
    bags_a: Sequence,
    bags_b: Sequence,
    idf: dict[str, float],
    default_idf: float | None = None,
) -> np.ndarray:
    """Per-pair convenience wrapper over :func:`batch_tfidf_cosine_indexed`."""
    if len(bags_a) != len(bags_b):
        raise ValueError("bags_a and bags_b must be aligned per pair")
    idx = _pair_positions(len(bags_a))
    return batch_tfidf_cosine_indexed(bags_a, idx, bags_b, idx, idf, default_idf)


# ---------------------------------------------------------------------------
# Edit measures
# ---------------------------------------------------------------------------

def _codes(strings: Sequence[str], length: int) -> np.ndarray:
    """Stack equal-length strings into a (k, length) uint32 code-point matrix."""
    joined = "".join(strings)
    flat = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    return flat.reshape(len(strings), length)


class _StringValues:
    """Value-level dedup of record strings: rows → unique value ids."""

    def __init__(self, records: Sequence):
        seen: dict[str, int] = {}
        self.values: list[str] = []
        self.none = _none_flags(records)
        ids = np.empty(len(records), dtype=np.int64)
        for i, v in enumerate(records):
            if v is None:
                ids[i] = 0  # placeholder; masked by `none`
                continue
            u = seen.get(v)
            if u is None:
                u = seen[v] = len(self.values)
                self.values.append(v)
            ids[i] = u
        self.ids = ids
        self.lengths = np.fromiter(map(len, self.values), dtype=np.int64, count=len(self.values))


def _unique_combos(
    vals_a: _StringValues, ua: np.ndarray, vals_b: _StringValues, ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (value_a, value_b) combinations over the non-missing pairs.

    Returns (cva, cvb, inverse, missing): value-id pairs per combo, the
    combo index of every valid pair, and the per-pair missing mask.
    """
    missing = vals_a.none[ua] | vals_b.none[ub]
    va = vals_a.ids[ua[~missing]]
    vb = vals_b.ids[ub[~missing]]
    n_b = max(len(vals_b.values), 1)
    combos, inverse = np.unique(va * n_b + vb, return_inverse=True)
    return combos // n_b, combos % n_b, inverse, missing


def _scatter_combos(
    combo_values: np.ndarray, inverse: np.ndarray, missing: np.ndarray
) -> np.ndarray:
    out = np.full(len(missing), _NAN, dtype=np.float64)
    out[~missing] = combo_values[inverse]
    return out


def _length_buckets(la: np.ndarray, lb: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Group indices by exact length pair (vectorized, no per-item python loop)."""
    if not len(la):
        return {}
    cap = int(lb.max()) + 1
    keys = la * cap + lb
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_keys)) + 1))
    groups = np.split(order, starts[1:])
    return {
        (int(sorted_keys[s] // cap), int(sorted_keys[s] % cap)): g
        for s, g in zip(starts, groups)
    }


def batch_levenshtein_similarity_indexed(
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


def batch_levenshtein_similarity(strings_a: Sequence, strings_b: Sequence) -> np.ndarray:
    """Per-pair wrapper over :func:`batch_levenshtein_similarity_indexed`."""
    if len(strings_a) != len(strings_b):
        raise ValueError("strings_a and strings_b must be aligned per pair")
    idx = _pair_positions(len(strings_a))
    return batch_levenshtein_similarity_indexed(strings_a, idx, strings_b, idx)


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


def batch_jaro_winkler_indexed(
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


def batch_jaro_winkler(
    strings_a: Sequence,
    strings_b: Sequence,
    *,
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Per-pair wrapper over :func:`batch_jaro_winkler_indexed`."""
    if len(strings_a) != len(strings_b):
        raise ValueError("strings_a and strings_b must be aligned per pair")
    idx = _pair_positions(len(strings_a))
    return batch_jaro_winkler_indexed(
        strings_a, idx, strings_b, idx, prefix_weight=prefix_weight, max_prefix=max_prefix
    )


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


# ---------------------------------------------------------------------------
# Monge–Elkan (hybrid)
# ---------------------------------------------------------------------------

def batch_monge_elkan_jw_indexed(
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


def batch_monge_elkan_jw(bags_a: Sequence, bags_b: Sequence) -> np.ndarray | None:
    """Per-pair wrapper over :func:`batch_monge_elkan_jw_indexed`."""
    if len(bags_a) != len(bags_b):
        raise ValueError("bags_a and bags_b must be aligned per pair")
    idx = _pair_positions(len(bags_a))
    return batch_monge_elkan_jw_indexed(bags_a, idx, bags_b, idx)
