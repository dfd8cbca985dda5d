"""Similarity functions over strings, token bags, and numbers.

This is the function zoo applied by :mod:`repro.features` during automatic
feature generation — the same families Magellan [28] uses: token-based
(Jaccard, cosine, Dice, overlap, TF-IDF), edit-based (Levenshtein, Jaro,
Jaro–Winkler, alignment scores), hybrid (Monge–Elkan), exact match, and
numeric similarities.

Conventions
-----------
* All similarities are in ``[0, 1]`` where defined, with 1 meaning identical.
* A missing input (``None`` or, for token measures, an empty token bag from a
  missing value) yields ``nan``; the feature generator imputes these later.
* Two empty-but-present strings are identical, so their similarity is 1.

The edit-distance inner loops are vectorized with numpy using the standard
prefix-minimum trick, so featurizing tens of thousands of candidate pairs
stays fast without any C extension.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "jaccard",
    "cosine",
    "dice",
    "overlap_coefficient",
    "build_idf",
    "tfidf_cosine",
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro",
    "jaro_winkler",
    "monge_elkan",
    "needleman_wunsch",
    "smith_waterman",
    "exact_match",
    "numeric_absolute_similarity",
    "numeric_relative_similarity",
]

_NAN = float("nan")


# ---------------------------------------------------------------------------
# Token-based measures (set / bag semantics)
# ---------------------------------------------------------------------------

def _token_sets(a: Iterable[str] | None, b: Iterable[str] | None) -> tuple[set, set] | None:
    """Normalize two token inputs to sets; ``None`` signals a missing value.

    Inputs that are already ``set``/``frozenset`` are used as-is (callers that
    featurize large candidate sets pre-tokenize records into sets once).
    """
    if a is None or b is None:
        return None
    sa = a if isinstance(a, (set, frozenset)) else set(a)
    sb = b if isinstance(b, (set, frozenset)) else set(b)
    return sa, sb


def jaccard(a: Iterable[str] | None, b: Iterable[str] | None) -> float:
    """Jaccard set similarity ``|A∩B| / |A∪B|``.

    >>> jaccard({"deep", "learning"}, {"deep", "nets"})
    0.3333333333333333
    """
    sets = _token_sets(a, b)
    if sets is None:
        return _NAN
    sa, sb = sets
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union


def cosine(a: Iterable[str] | None, b: Iterable[str] | None) -> float:
    """Set-based (Ochiai) cosine similarity ``|A∩B| / sqrt(|A|·|B|)``."""
    sets = _token_sets(a, b)
    if sets is None:
        return _NAN
    sa, sb = sets
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / math.sqrt(len(sa) * len(sb))


def dice(a: Iterable[str] | None, b: Iterable[str] | None) -> float:
    """Dice coefficient ``2·|A∩B| / (|A| + |B|)``."""
    sets = _token_sets(a, b)
    if sets is None:
        return _NAN
    sa, sb = sets
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def overlap_coefficient(a: Iterable[str] | None, b: Iterable[str] | None) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient ``|A∩B| / min(|A|, |B|)``."""
    sets = _token_sets(a, b)
    if sets is None:
        return _NAN
    sa, sb = sets
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / min(len(sa), len(sb))


def build_idf(corpus: Iterable[Iterable[str]]) -> dict[str, float]:
    """Smoothed inverse document frequencies for :func:`tfidf_cosine`.

    ``idf(t) = ln((1 + N) / (1 + df(t))) + 1`` — every token gets a strictly
    positive weight, and unseen tokens at query time fall back to the maximum
    possible idf.
    """
    df: Counter[str] = Counter()
    n_docs = 0
    for doc in corpus:
        n_docs += 1
        df.update(set(doc))
    return {tok: math.log((1 + n_docs) / (1 + d)) + 1.0 for tok, d in df.items()}


def tfidf_cosine(
    a: Iterable[str] | None,
    b: Iterable[str] | None,
    idf: dict[str, float],
    *,
    default_idf: float | None = None,
) -> float:
    """TF-IDF weighted cosine similarity between two token bags.

    Tokens absent from ``idf`` get ``default_idf`` (the maximum idf in the
    table by default, i.e. they are treated as maximally distinctive).
    """
    if a is None or b is None:
        return _NAN
    ca, cb = Counter(a), Counter(b)
    if not ca and not cb:
        return 1.0
    if not ca or not cb:
        return 0.0
    if default_idf is None:
        default_idf = max(idf.values(), default=1.0)

    def weight(tok: str, tf: int) -> float:
        return tf * idf.get(tok, default_idf)

    norm_a = math.sqrt(sum(weight(t, c) ** 2 for t, c in ca.items()))
    norm_b = math.sqrt(sum(weight(t, c) ** 2 for t, c in cb.items()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = sum(weight(t, ca[t]) * weight(t, cb[t]) for t in ca.keys() & cb.keys())
    return dot / (norm_a * norm_b)


# ---------------------------------------------------------------------------
# Edit-based measures (raw strings)
# ---------------------------------------------------------------------------

def levenshtein_distance(a: str | None, b: str | None) -> float:
    """Unit-cost Levenshtein (edit) distance.

    Vectorized row-by-row: the in-row dependency ``row[j] = min(row[j],
    row[j-1] + 1)`` is resolved with ``minimum.accumulate`` on ``d[k] - k``,
    giving O(len(a)) numpy operations instead of a Python inner loop.
    """
    if a is None or b is None:
        return _NAN
    a, b = str(a), str(b)
    if a == b:
        return 0.0
    if not a:
        return float(len(b))
    if not b:
        return float(len(a))
    if len(a) < len(b):  # iterate over the shorter string's rows
        a, b = b, a
    tb = np.frombuffer(b.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    n = len(b)
    offsets = np.arange(n + 1, dtype=np.float64)
    prev = offsets.copy()
    row = np.empty(n + 1, dtype=np.float64)
    for i, ch in enumerate(a):
        cost = (tb != ord(ch)).astype(np.float64)
        row[0] = i + 1
        # candidates ignoring the left-neighbor dependency:
        row[1:] = np.minimum(prev[1:] + 1.0, prev[:-1] + cost)
        # resolve row[j] = min_k<=j (row[k] + (j - k)) via prefix minimum
        row[:] = np.minimum.accumulate(row - offsets) + offsets
        prev, row = row, prev
    return float(prev[n])


def levenshtein_similarity(a: str | None, b: str | None) -> float:
    """Levenshtein distance normalized to a similarity: ``1 - d / max_len``."""
    if a is None or b is None:
        return _NAN
    a, b = str(a), str(b)
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro(a: str | None, b: str | None) -> float:
    """Jaro similarity (match window ``max_len // 2 - 1``)."""
    if a is None or b is None:
        return _NAN
    a, b = str(a), str(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == ch:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # transpositions: compare matched characters in order
    transpositions = 0
    j = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / la + m / lb + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str | None, b: str | None, *, prefix_weight: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro–Winkler: Jaro boosted by the length of the common prefix."""
    base = jaro(a, b)
    if math.isnan(base):
        return base
    prefix = 0
    for ca, cb in zip(str(a), str(b)):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def needleman_wunsch(a: str | None, b: str | None) -> float:
    """Normalized global alignment similarity.

    Scoring: match +1, mismatch 0, gap 0 — i.e. the longest-common-subsequence
    score — normalized by ``max(len(a), len(b))``. Bounded in ``[0, 1]`` and
    order-sensitive, which is what the feature generator needs.
    """
    if a is None or b is None:
        return _NAN
    a, b = str(a), str(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(a) < len(b):
        a, b = b, a
    tb = np.frombuffer(b.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    n = len(b)
    prev = np.zeros(n + 1, dtype=np.float64)
    row = np.zeros(n + 1, dtype=np.float64)
    for ch in a:
        match = (tb == ord(ch)).astype(np.float64)
        row[1:] = np.maximum(prev[:-1] + match, prev[1:])
        np.maximum.accumulate(row, out=row)
        prev, row = row, prev
        row[:] = 0.0
    return float(prev[n]) / max(len(a), len(b))


def smith_waterman(a: str | None, b: str | None) -> float:
    """Normalized local alignment similarity.

    Scoring: match +1, mismatch −1, gap −1 (classic Smith–Waterman), with the
    best local score normalized by ``min(len(a), len(b))`` so a perfect
    substring match scores 1.
    """
    if a is None or b is None:
        return _NAN
    a, b = str(a), str(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(a) < len(b):
        a, b = b, a
    tb = np.frombuffer(b.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    n = len(b)
    offsets = np.arange(n + 1, dtype=np.float64)
    prev = np.zeros(n + 1, dtype=np.float64)
    row = np.zeros(n + 1, dtype=np.float64)
    best = 0.0
    for ch in a:
        score = np.where(tb == ord(ch), 1.0, -1.0)
        row[1:] = np.maximum(prev[:-1] + score, prev[1:] - 1.0)
        # left-neighbor gap dependency: row[j] = max(row[j], row[j-1] - 1, 0)
        np.maximum(row, 0.0, out=row)
        row[:] = np.maximum.accumulate(row + offsets) - offsets
        np.maximum(row, 0.0, out=row)
        best = max(best, float(row.max()))
        prev, row = row, prev
        row[:] = 0.0
    return best / min(len(a), len(b))


# ---------------------------------------------------------------------------
# Hybrid measures
# ---------------------------------------------------------------------------

def monge_elkan(
    a_tokens: Sequence[str] | None,
    b_tokens: Sequence[str] | None,
    *,
    inner: Callable[[str, str], float] = jaro_winkler,
    symmetric: bool = True,
) -> float:
    """Monge–Elkan: average best inner-similarity per token.

    ``me(A, B) = mean_{t∈A} max_{s∈B} inner(t, s)``. The raw measure is
    asymmetric; with ``symmetric=True`` (default) the two directions are
    averaged, which is better behaved as a feature.
    """
    if a_tokens is None or b_tokens is None:
        return _NAN
    a_list, b_list = list(a_tokens), list(b_tokens)
    if not a_list and not b_list:
        return 1.0
    if not a_list or not b_list:
        return 0.0

    def one_way(src: list[str], dst: list[str]) -> float:
        return sum(max(inner(t, s) for s in dst) for t in src) / len(src)

    forward = one_way(a_list, b_list)
    if not symmetric:
        return forward
    return 0.5 * (forward + one_way(b_list, a_list))


# ---------------------------------------------------------------------------
# Exact / numeric measures
# ---------------------------------------------------------------------------

def exact_match(a: object | None, b: object | None) -> float:
    """1.0 if string representations are equal, else 0.0 (nan when missing)."""
    if a is None or b is None:
        return _NAN
    return 1.0 if str(a) == str(b) else 0.0


def numeric_absolute_similarity(a: float | None, b: float | None, *, scale: float = 1.0) -> float:
    """Exponentially decayed absolute difference ``exp(-|a-b| / scale)``.

    ``scale`` sets the difference at which similarity drops to ``1/e``; the
    feature generator passes a per-attribute scale (the attribute's value
    spread) so the feature is meaningful across units.
    """
    if a is None or b is None:
        return _NAN
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return _NAN
    if math.isnan(fa) or math.isnan(fb):
        return _NAN
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return math.exp(-abs(fa - fb) / scale)


def numeric_relative_similarity(a: float | None, b: float | None) -> float:
    """Relative numeric similarity ``1 - |a-b| / max(|a|, |b|)`` (floored at 0)."""
    if a is None or b is None:
        return _NAN
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return _NAN
    if math.isnan(fa) or math.isnan(fb):
        return _NAN
    denom = max(abs(fa), abs(fb))
    if denom == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(fa - fb) / denom)
