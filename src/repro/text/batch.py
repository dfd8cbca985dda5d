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
  combinations, short-circuit equal/empty cases, and group the remainder
  into *length classes*: the exact ``(len(a), len(b))`` buckets, walked in
  sorted order, merge while a class stays within ``_EDIT_CLASS_CELLS``
  cells, and each class runs one dynamic program vectorized across its
  pairs. Strings become uint32 code matrices via the same utf-32 encoding
  the scalar kernels use; a merged class pads each side with its own
  code above U+10FFFF, which matches nothing, and a class of one exact
  bucket takes no padding at all.
* **Monge–Elkan** — equal token tuples share one value id, so each
  distinct value combination is scored once. The token pairs its cells
  need are marked in a dense ``Va × Vb`` table (collected by sorting once
  ``Va · Vb`` passes ``_MONGE_ELKAN_TABLE_ENTRIES``), scored once with the
  batch Jaro–Winkler kernel and gathered back; the best-match/mean
  aggregation runs as dense ``(k, |A|, |B|)`` reductions per length
  bucket.

Integer keys are deduplicated by sorting (``_sorted_unique``,
``_unique_inverse``), never through numpy's hash-table ``unique``.

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

#: Cell budget of one edit-kernel class: neighbouring exact ``(|a|, |b|)``
#: length buckets merge into one padded, masked DP while the class's
#: ``k · max|a| · max|b|`` stays within it, so a batch of many small
#: buckets pays one vectorized pass per class rather than one per bucket.
_EDIT_CLASS_CELLS = 262_144

#: Code-matrix padding of the two sides of an edit class: above U+10FFFF
#: and different from each other, so a padded cell matches nothing.
_PAD_A, _PAD_B = 0xFFFFFFFF, 0xFFFFFFFE

#: Cap on dense bitmask width (bits per record) for token intersections.
#: Tokens ranked beyond the cap go through the sorted-merge tail.
_DENSE_BITS_CAP = 1024

#: Monge–Elkan expansion budget: if Σ |A|·|B| over the batch exceeds this,
#: the kernel refuses (returns None) and the caller falls back to the
#: per-pair path rather than allocating unbounded intermediates.
_MONGE_ELKAN_CELL_BUDGET = 60_000_000

#: Rows of a Monge–Elkan bucket are processed in chunks of at most this
#: many (pair, token_a, token_b) cells, capping the transient int64/float64
#: intermediates at ~50 MB regardless of batch size; a single pair over the
#: cap is split into blocks of its A-token rows.
_MONGE_ELKAN_CHUNK_CELLS = 2_000_000

#: Entry bound of Monge–Elkan's dense token-pair table. A call whose two
#: vocabularies span at most ``Va · Vb`` this many entries marks its token
#: pairs in a ``Va × Vb`` boolean table and reads their scores back from a
#: float64 one (64 MiB at the bound); a larger call keeps the sorted-key
#: lookup, whose memory follows its distinct token pairs. Every paper-scale
#: call fits: the largest, prod_ag's within-table title (2367² = 5.6M
#: entries), with room to spare.
_MONGE_ELKAN_TABLE_ENTRIES = 1 << 23

#: Monge–Elkan blocks of at least this many rows take their best matches
#: with one ``np.maximum`` per token across the block; smaller blocks, such
#: as a one-record serving batch's, cost less through ``.max(axis=...)``.
_MONGE_ELKAN_LOOP_ROWS = 256

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


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``: one sort plus a neighbour mask.

    Without a ``return_*`` argument, numpy ≥ 2.3 deduplicates through a
    hash table and then sorts the result; on int64 keys one plain sort is
    several times faster, and costs the same on every numpy version.
    """
    flat = np.sort(keys, axis=None)
    if flat.size < 2:
        return flat
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for non-negative int64 keys.

    Every key is packed with its position as ``(key << bits) | position``,
    ``bits`` just wide enough for ``keys.size`` positions, so one sort of
    plain int64 values orders the keys and carries each position along
    (no argsort). The caller guarantees that ``keys.max() << bits`` fits in
    int64. The packing happens in ``keys``' own buffer, so a contiguous
    ``keys`` is overwritten; the inverse has its shape.
    """
    flat = keys.reshape(-1)
    n = flat.size
    if n == 0:
        return flat.copy(), np.zeros(keys.shape, dtype=np.intp)
    bits = (n - 1).bit_length()
    flat <<= bits
    flat |= np.arange(n, dtype=np.int64)
    flat.sort()
    ordered = flat >> bits
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    rank = np.cumsum(new, out=ordered)  # reuses the buffer: one n-array less
    rank -= 1
    flat &= (1 << bits) - 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[flat] = rank
    return distinct, inverse.reshape(keys.shape)


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
        keys = _sorted_unique(owner * vocab_size + ids)
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
    utf-32 code points, each sliding window packs into one int64 (a
    base-|alphabet| number over the corpus alphabet), and one sort of
    ``(record, window)`` keys deduplicates windows per record. Only an
    alphabet too large to pack falls back to :func:`numpy.unique` over the
    raw ``(N, q)`` window bytes. Requires ``padded=True`` or ``q == 1`` (the
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
        "".join(s for s in prepared if s).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
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
        keys = _sorted_unique(owner * window_space + win_vals)
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

def _codes(strings: Sequence[str], lengths: np.ndarray, pad: int) -> np.ndarray:
    """Stack strings into a (k, max length) uint32 code-point matrix.

    Rows shorter than the widest are filled out with ``pad``; when every
    string has the full width the matrix is a plain reshape. Lone
    surrogates encode as their own code unit, so codes compare as Python
    characters compare.
    """
    width = int(lengths.max())
    joined = "".join(strings)
    flat = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    if len(flat) == len(strings) * width:
        return flat.reshape(len(strings), width)
    codes = np.full((len(strings), width), pad, dtype=np.uint32)
    codes[np.arange(width) < lengths[:, None]] = flat
    return codes


class _StringValues:
    """Value-level dedup of record strings (or token tuples): rows → value ids."""

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


def _combo_strings(
    vals_a: _StringValues, cva: np.ndarray, vals_b: _StringValues, cvb: np.ndarray
) -> tuple[list[str], list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Each combo's two strings and lengths, and which combos are equal."""
    strs_a = [vals_a.values[i] for i in cva.tolist()]
    strs_b = [vals_b.values[i] for i in cvb.tolist()]
    if vals_b is vals_a:  # one value table: equal strings share one id
        equal = cva == cvb
    else:
        equal = np.fromiter(
            (x == y for x, y in zip(strs_a, strs_b)), dtype=bool, count=len(cva)
        )
    return strs_a, strs_b, vals_a.lengths[cva], vals_b.lengths[cvb], equal


def _scatter_combos(
    combo_values: np.ndarray, inverse: np.ndarray, missing: np.ndarray
) -> np.ndarray:
    out = np.full(len(missing), _NAN, dtype=np.float64)
    out[~missing] = combo_values[inverse]
    return out


def _length_runs(
    la: np.ndarray, lb: np.ndarray
) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    """Indices sorted by exact length pair, as runs of one ``(la, lb)`` each.

    Returns ``(order, bounds, lengths)``: run ``r`` is
    ``order[bounds[r]:bounds[r + 1]]`` and has length pair ``lengths[r]``,
    runs in ascending ``(la, lb)`` order.
    """
    if not len(la):
        return np.zeros(0, dtype=np.int64), [0], []
    cap = int(lb.max()) + 1
    keys = la * cap + lb
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_keys)) + 1))
    lengths = [divmod(key, cap) for key in sorted_keys[starts].tolist()]
    return order, [*starts.tolist(), len(order)], lengths


def _length_buckets(la: np.ndarray, lb: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Group indices by exact length pair (vectorized, no per-item python loop)."""
    order, bounds, lengths = _length_runs(la, lb)
    return {pair: order[s:e] for pair, s, e in zip(lengths, bounds, bounds[1:])}


def _length_classes(la: np.ndarray, lb: np.ndarray) -> list[np.ndarray]:
    """Merge the exact ``(la, lb)`` buckets into padded classes.

    Buckets are walked in their sorted order; a class grows while
    ``k · max(la) · max(lb)`` stays within ``_EDIT_CLASS_CELLS``, and a
    bucket already over it is a class of its own. Each class lists its
    indices bucket by bucket, so its rows are sorted by ``la``.
    """
    order, bounds, lengths = _length_runs(la, lb)
    classes: list[np.ndarray] = []
    first = width_b = 0  # the open class is order[first:start]
    for (length_a, length_b), start, end in zip(lengths, bounds, bounds[1:]):
        # runs ascend in la, so this run's length_a is the grown class's widest
        grown = (end - first) * length_a * max(width_b, length_b)
        if start > first and grown > _EDIT_CLASS_CELLS:
            classes.append(order[first:start])
            first, width_b = start, 0
        width_b = max(width_b, length_b)
    if len(order):
        classes.append(order[first:])
    return classes


def batch_levenshtein_similarity_indexed(
    records_a: Sequence, ua: np.ndarray, records_b: Sequence, ub: np.ndarray
) -> np.ndarray:
    """Batch normalized Levenshtein similarity over record-indexed pairs.

    Distinct value combinations are oriented longer-first and bucketed by
    (longer, shorter) length; neighbouring buckets merge into padded
    classes (``_length_classes``), and each class runs the scalar kernel's
    prefix-minimum DP vectorized across its pairs. Distances are integers,
    so results are bit-identical to
    :func:`repro.text.similarity.levenshtein_similarity`.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    sims = np.empty(len(cva), dtype=np.float64)
    if len(cva):
        strs_a, strs_b, la, lb, equal = _combo_strings(vals_a, cva, vals_b, cvb)
        # orient every combo longer-first (distance is symmetric)
        swap = la < lb
        long_strs = [b if s else a for a, b, s in zip(strs_a, strs_b, swap)]
        short_strs = [a if s else b for a, b, s in zip(strs_a, strs_b, swap)]
        l_long = np.where(swap, lb, la)
        l_short = np.where(swap, la, lb)
        sims[equal] = 1.0  # covers both-empty
        sims[~equal & (l_short == 0)] = 0.0  # distance == longest → 0
        todo = np.flatnonzero(~equal & (l_short > 0))
        for members in _length_classes(l_long[todo], l_short[todo]):
            members = todo[members]
            length_long, length_short = l_long[members], l_short[members]
            rows = members.tolist()
            A = _codes([long_strs[u] for u in rows], length_long, _PAD_A)
            B = _codes([short_strs[u] for u in rows], length_short, _PAD_B)
            distance = _class_levenshtein(A, B, length_long, length_short)
            sims[members] = 1.0 - distance / length_long
    return _scatter_combos(sims, inverse, missing)


def batch_levenshtein_similarity(strings_a: Sequence, strings_b: Sequence) -> np.ndarray:
    """Per-pair wrapper over :func:`batch_levenshtein_similarity_indexed`."""
    if len(strings_a) != len(strings_b):
        raise ValueError("strings_a and strings_b must be aligned per pair")
    idx = _pair_positions(len(strings_a))
    return batch_levenshtein_similarity_indexed(strings_a, idx, strings_b, idx)


def _class_levenshtein(
    A: np.ndarray, B: np.ndarray, l_long: np.ndarray, l_short: np.ndarray
) -> np.ndarray:
    """Levenshtein distances of one edit class, rows sorted by ``l_long``.

    The scalar kernel's prefix-minimum recurrence, run over all the class's
    pairs at once: step ``i`` consumes column ``i`` of ``A`` and does
    O(k·width(B)) numpy work. A row's distance is ``prev[r, l_short[r]]``
    after its ``l_long[r]`` steps; DP columns never feed the columns before
    them, so ``B``'s padding cannot change it. Finished rows are a prefix
    of the class and drop out of the later steps.
    """
    k, steps = A.shape
    offsets = np.arange(B.shape[1] + 1, dtype=np.float64)
    prev = np.tile(offsets, (k, 1))
    row = np.empty_like(prev)
    out = np.empty(k, dtype=np.float64)
    finished = np.searchsorted(l_long, np.arange(1, steps + 1), side="right")
    first = 0  # rows [first, k) are still running
    for i in range(steps):
        p, r = prev[first:], row[first:]
        cost = B[first:] != A[first:, i : i + 1]  # adds to float64 as 0.0/1.0
        r[:, 0] = i + 1
        np.minimum(p[:, 1:] + 1.0, p[:, :-1] + cost, out=r[:, 1:])
        r -= offsets
        np.minimum.accumulate(r, axis=1, out=r)
        r += offsets
        prev, row = row, prev
        done = finished[i]
        if done > first:
            out[first:done] = prev[np.arange(first, done), l_short[first:done]]
            first = done
    return out


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

    Same dedup/short-circuit/class scheme as the Levenshtein kernel; the
    greedy match loop runs one character position at a time across the
    whole class, with the transposition count recovered from the match
    masks in one pass. Padding stops the Winkler prefix by itself, since a
    padded cell equals nothing. Bit-identical to the scalar kernel.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    sims = np.empty(len(cva), dtype=np.float64)
    if len(cva):
        strs_a, strs_b, la, lb, equal = _combo_strings(vals_a, cva, vals_b, cvb)
        sims[equal] = 1.0
        sims[~equal & ((la == 0) | (lb == 0))] = 0.0
        todo = np.flatnonzero(~equal & (la > 0) & (lb > 0))
        for members in _length_classes(la[todo], lb[todo]):
            members = todo[members]
            length_a, length_b = la[members], lb[members]
            rows = members.tolist()
            A = _codes([strs_a[u] for u in rows], length_a, _PAD_A)
            B = _codes([strs_b[u] for u in rows], length_b, _PAD_B)
            base = _class_jaro(A, B, length_a, length_b)
            pmax = min(max_prefix, A.shape[1], B.shape[1])
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


def _class_jaro(A: np.ndarray, B: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Jaro similarities of one edit class (no empty strings), rows sorted by ``la``.

    Each row keeps its own match window ``max(la, lb) // 2 - 1``: the loop
    scans the class's widest window and masks ``|j - i|`` per row, but only
    when the windows differ. Padded cells never match, so a row takes no
    part in the steps past its own ``la``.
    """
    k, width_a = A.shape
    width_b = B.shape[1]
    windows = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    window = int(windows.max())
    # |j - i| over the widest window, sliced per step when windows differ
    reach = np.abs(np.arange(-window, window + 1)) if int(windows.min()) < window else None
    running = np.searchsorted(la, np.arange(width_a), side="right").tolist()
    matched_a = np.zeros((k, width_a), dtype=bool)
    free_b = np.ones((k, width_b), dtype=bool)
    for i in range(width_a):
        lo = max(0, i - window)
        hi = min(width_b, i + window + 1)
        if lo >= hi:
            continue
        # the scalar kernel's greedy rule: first not-yet-matched position of
        # b inside the window whose character equals a[i]; rows [s, k) still
        # have a character at i
        s = running[i]
        cand = B[s:, lo:hi] == A[s:, i : i + 1]
        cand &= free_b[s:, lo:hi]
        if reach is not None:
            cand &= reach[lo - i + window : hi - i + window] <= windows[s:, None]
        hit = cand.any(axis=1)
        if not hit.any():
            continue
        first = cand.argmax(axis=1) + lo
        rows = np.flatnonzero(hit)
        free_b[rows + s, first[rows]] = False
        matched_a[rows + s, i] = True
    m = matched_a.sum(axis=1).astype(np.float64)
    # transpositions: matched characters of each side, in order, compared
    # elementwise (per pair both sides have the same match count)
    ra, ca = np.nonzero(matched_a)
    rb, cb = np.nonzero(~free_b)
    mismatch = (A[ra, ca] != B[rb, cb]).astype(np.float64)
    trans = np.floor(np.bincount(ra, weights=mismatch, minlength=k) / 2.0)
    out = np.zeros(k, dtype=np.float64)
    nz = m > 0
    mm, tt = m[nz], trans[nz]
    out[nz] = (mm / la[nz] + mm / lb[nz] + (mm - tt) / mm) / 3.0
    return out


# ---------------------------------------------------------------------------
# Monge–Elkan (hybrid)
# ---------------------------------------------------------------------------

def _encode_tokens(values: _StringValues) -> tuple[list, np.ndarray, np.ndarray]:
    """Number one side's distinct tokens: ``(tokens, indptr, token ids)``.

    CSR row ``v`` holds value ``v``'s token ids in token order (the mean
    over best matches sums in that order); ``tokens[i]`` is token id ``i``.
    """
    vocab: dict = {}
    indptr = np.zeros(len(values.values) + 1, dtype=np.int64)
    np.cumsum(values.lengths, out=indptr[1:])
    ids = np.fromiter(
        (vocab.setdefault(t, len(vocab)) for tokens in values.values for t in tokens),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return list(vocab), indptr, ids


def _best_matches(sims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column maxima of a ``(k, |A|, |B|)`` block of token-pair scores.

    ``max`` is exact in any order, so a block of at least
    ``_MONGE_ELKAN_LOOP_ROWS`` rows takes one ``np.maximum`` per token, each
    across the whole block, instead of ``k · |A|`` short reductions.
    """
    if len(sims) < _MONGE_ELKAN_LOOP_ROWS:
        return sims.max(axis=2), sims.max(axis=1)
    rows = sims[:, :, 0].copy()
    for j in range(1, sims.shape[2]):
        np.maximum(rows, sims[:, :, j], out=rows)
    cols = sims[:, 0, :].copy()
    for i in range(1, sims.shape[1]):
        np.maximum(cols, sims[:, i, :], out=cols)
    return rows, cols


def batch_monge_elkan_jw_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Batch symmetric Monge–Elkan with Jaro–Winkler inner similarity.

    ``records_a``/``records_b`` hold one token tuple (or ``None``) per
    record. Matches ``monge_elkan(a, b, inner=jaro_winkler, symmetric=True)``
    to float rounding. Equal tuples share one value id, so each distinct
    ``(value_a, value_b)`` combination is scored once and scattered back to
    its pairs. Combinations are bucketed by token-count shape ``(|A|, |B|)``
    and each bucket is walked in row chunks of at most
    ``_MONGE_ELKAN_CHUNK_CELLS`` (combination, token, token) cells (one over
    the cap alone, in blocks of its A-token rows), twice: the first pass
    collects the token pairs the cells need, which are scored once with the
    batch Jaro–Winkler kernel, and the second reads every cell's score back.
    Each side numbers its own tokens. While ``Va · Vb`` stays within
    ``_MONGE_ELKAN_TABLE_ENTRIES``, both passes index a dense ``Va × Vb``
    table: one scatter marks a chunk's token pairs, one gather reads its
    scores. A larger call sorts each chunk's token-pair keys instead: the
    first pass keeps their distinct keys, and the second packs every cell
    with its position into one int64, so one sort yields the chunk's
    distinct keys and each cell's index among them, and only those keys are
    binary-searched among the scored pairs. Aggregation runs as dense
    ``(k, |A|, |B|)`` max/mean reductions. Returns ``None`` (caller should
    fall back) if the expansion exceeds the cell budget or, on the sorted
    lookup, a packed cell would overflow int64.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    la, lb = vals_a.lengths[cva], vals_b.lengths[cvb]
    valid = np.flatnonzero((la > 0) & (lb > 0))
    cells = la[valid] * lb[valid]
    if int(cells.sum()) > _MONGE_ELKAN_CELL_BUDGET:
        return None
    sims = ((la == 0) & (lb == 0)).astype(np.float64)  # both empty 1.0, one empty 0.0
    if not len(valid):
        return _scatter_combos(sims, inverse, missing)

    enc_a = _encode_tokens(vals_a)
    tokens_a, indptr_a, tok_a = enc_a
    tokens_b, indptr_b, tok_b = enc_a if vals_b is vals_a else _encode_tokens(vals_b)
    # a cell's key is token_a · Vb + token_b: its entry in the dense table
    entries = len(tokens_a) * len(tokens_b)
    dense = entries <= _MONGE_ELKAN_TABLE_ENTRIES
    if not dense:
        # A chunk holds at most max(cap, largest |A|·|B|) cells, each packed
        # as (key << bits) | position; refuse what int64 can't hold.
        bits = (max(_MONGE_ELKAN_CHUNK_CELLS, int(cells.max())) - 1).bit_length()
        if entries << bits > 1 << 63:
            return None
    keys_a = tok_a * len(tokens_b)

    buckets = [
        (ka, kb, valid[members])
        for (ka, kb), members in _length_buckets(la[valid], lb[valid]).items()
    ]

    def blocks():
        # token-id matrices are re-gathered per chunk (never retained), so
        # the transient (chunk, rows, kb) intermediates stay within the cap;
        # a combination over the cap alone is split into blocks of its
        # A-token rows
        for ka, kb, rows in buckets:
            starts_a, starts_b = indptr_a[cva[rows]], indptr_b[cvb[rows]]
            chunk = max(1, _MONGE_ELKAN_CHUNK_CELLS // (ka * kb))
            block = max(1, _MONGE_ELKAN_CHUNK_CELLS // kb)
            for s in range(0, len(rows), chunk):
                B = tok_b[starts_b[s : s + chunk, None] + np.arange(kb, dtype=np.int64)]
                for r in range(0, ka, block):
                    tokens = np.arange(r, min(r + block, ka), dtype=np.int64)
                    A = keys_a[starts_a[s : s + chunk, None] + tokens]
                    last = r + block >= ka
                    yield rows[s : s + chunk], r == 0, last, A[:, :, None] + B[:, None, :]

    if dense:
        needed = np.zeros(entries, dtype=bool)
        for *_, keys in blocks():
            needed[keys] = True
        pairs = np.flatnonzero(needed)
        del needed  # before the float64 table: one of the two alive at a time
    else:
        pairs = _sorted_unique(np.concatenate([_sorted_unique(keys) for *_, keys in blocks()]))
    jw = batch_jaro_winkler_indexed(
        tokens_a, pairs // len(tokens_b), tokens_b, pairs % len(tokens_b)
    )
    if dense:
        table = np.empty(entries, dtype=np.float64)
        table[pairs] = jw
        lookup = table.take
    else:
        def lookup(keys):
            distinct, cell = _unique_inverse(keys)
            return jw[np.searchsorted(pairs, distinct)][cell]

    for rows, first, last, keys in blocks():
        row_max, col_max = _best_matches(lookup(keys))
        del keys  # one block's cells alive at a time
        # forward: the mean of every A token's best match; backward: of
        # every B token's, a running max over the row blocks
        if first:
            row_best, col_best = [row_max], col_max
        else:
            row_best.append(row_max)
            np.maximum(col_best, col_max, out=col_best)
        if last:
            forward = np.concatenate(row_best, axis=1).mean(axis=1)
            sims[rows] = 0.5 * (forward + col_best.mean(axis=1))
    return _scatter_combos(sims, inverse, missing)


def batch_monge_elkan_jw(bags_a: Sequence, bags_b: Sequence) -> np.ndarray | None:
    """Per-pair wrapper over :func:`batch_monge_elkan_jw_indexed`."""
    if len(bags_a) != len(bags_b):
        raise ValueError("bags_a and bags_b must be aligned per pair")
    idx = _pair_positions(len(bags_a))
    return batch_monge_elkan_jw_indexed(_tuples(bags_a), idx, _tuples(bags_b), idx)


def _tuples(bags: Sequence) -> list:
    return [None if bag is None else tuple(bag) for bag in bags]
