"""Magellan-style automatic feature generation.

For each aligned attribute, the generator infers a type
(:mod:`repro.features.types`) and instantiates several similarity features
for it, e.g. both ``title_cos_qgm3`` and ``title_jac_wrd`` for a title
attribute. Multiple features per attribute is precisely what produces the
correlated feature *groups* that ZeroER's block-diagonal covariance models
(paper §3.2, Figure 2); the generator therefore reports the group partition
alongside the matrix.

Featurization is the end-to-end hot path (paper §2.1, §5.5: up to ~100k
blocked pairs per dataset), so :meth:`FeatureGenerator.transform` scores
pair batches columnar: each ``(attribute, tokenizer)``
combination is prepared exactly once and shared across all features that
need it (``jac_qgm3`` / ``cos_qgm3`` / ``dice_qgm3`` reuse one
tokenization *and* one intersection pass), and the heavy measures dispatch
to the vectorized kernels in :mod:`repro.text.batch`. The per-pair
``compute`` methods remain the automatic fallback for custom
:class:`PairFeature` subclasses and for calls the Monge–Elkan kernel
refuses (the parity suite also uses them as the reference).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from collections.abc import Sequence

import numpy as np

from repro.data.table import Table
from repro.obs import add_counter, set_gauge, span, telemetry_active
from repro.features.types import AttributeType, infer_attribute_type
from repro.text.batch import (
    batch_jaro_winkler_indexed,
    batch_levenshtein_similarity_indexed,
    batch_monge_elkan_jw_indexed,
    batch_tfidf_cosine_indexed,
    cosine_from_stats,
    dice_from_stats,
    jaccard_from_stats,
    overlap_from_stats,
    qgram_pair_stats_indexed,
    token_pair_stats_indexed,
)
from repro.text.similarity import (
    build_idf,
    cosine,
    dice,
    exact_match,
    jaccard,
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
    numeric_absolute_similarity,
    numeric_relative_similarity,
    overlap_coefficient,
    tfidf_cosine,
)
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

__all__ = [
    "PairFeature",
    "FeatureGenerator",
    "configure_jw_cache",
    "clear_feature_caches",
    "jw_cache_info",
]

_NAN = float("nan")


class PairFeature:
    """One similarity feature: per-record preparation plus a pair scorer.

    Subclasses override :meth:`prepare` (record value → cached
    representation) and :meth:`compute` (two prepared values → similarity in
    [0, 1] or NaN). Built-in subclasses additionally implement
    :meth:`batch_scores` so the generator can score whole pair batches with
    the vectorized kernels; custom subclasses inherit the default (``None``
    → the generator falls back to per-pair :meth:`compute`).
    """

    #: Coarse feature family (``token`` / ``edit`` / ``hybrid`` / ``tfidf``
    #: / ``exact`` / ``numeric``), used by benchmarks for breakdowns.
    family = "custom"

    def __init__(self, name: str, attribute: str):
        self.name = name
        self.attribute = attribute

    def prepare(self, value):
        if value is None:
            return None
        return str(value)

    def compute(self, a, b) -> float:
        raise NotImplementedError

    def batch_scores(self, ctx: "_BatchContext") -> np.ndarray | None:
        """Vectorized column for the context's pair batch, or ``None``.

        ``None`` means "no batch kernel for this feature": the generator
        scores it with :meth:`compute` per pair instead.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class _StringFeature(PairFeature):
    """Edit-based feature on raw strings (Levenshtein, Jaro–Winkler, ...)."""

    family = "edit"

    def __init__(self, name, attribute, sim_func):
        super().__init__(name, attribute)
        self.sim_func = sim_func

    def compute(self, a, b) -> float:
        if a is None or b is None:
            return _NAN
        return float(self.sim_func(a, b))

    def batch_scores(self, ctx):
        if self.sim_func is levenshtein_similarity:
            kernel = batch_levenshtein_similarity_indexed
        elif self.sim_func is jaro_winkler:
            kernel = batch_jaro_winkler_indexed
        else:
            return None
        rows_a, rows_b = ctx.record_strings(self.attribute)
        return kernel(rows_a, ctx.ua, rows_b, ctx.ub)


#: Set-semantics measures with a stats-based batch kernel: they all derive
#: from the same per-pair intersection counts, computed once per
#: ``(attribute, tokenizer)`` and shared through the context.
_SET_MEASURE_KERNELS = {
    jaccard: jaccard_from_stats,
    cosine: cosine_from_stats,
    dice: dice_from_stats,
    overlap_coefficient: overlap_from_stats,
}


class _TokenFeature(PairFeature):
    """Token-based feature; preparation tokenizes once per record.

    Set-semantics measures (Jaccard, cosine, ...) get a prepared frozenset so
    the per-pair call does no conversion work; order-sensitive measures
    (Monge–Elkan) keep the token sequence.
    """

    def __init__(self, name, attribute, sim_func, tokenizer, *, as_set: bool = True):
        super().__init__(name, attribute)
        self.sim_func = sim_func
        self.tokenizer = tokenizer
        self.as_set = as_set
        self.family = "token" if as_set else "hybrid"

    def prepare(self, value):
        if value is None:
            return None
        tokens = self.tokenizer(str(value))
        return frozenset(tokens) if self.as_set else tuple(tokens)

    def compute(self, a, b) -> float:
        if a is None or b is None:
            return _NAN
        return float(self.sim_func(a, b))

    def batch_scores(self, ctx):
        if self.as_set:
            kernel = _SET_MEASURE_KERNELS.get(self.sim_func)
            if kernel is None:
                return None
            return kernel(ctx.token_stats(self.attribute, self.tokenizer))
        if self.sim_func is _monge_elkan_jw:
            rows_a, rows_b = ctx.record_token_tuples(self.attribute, self.tokenizer)
            # None when over the expansion budget → per-pair fallback
            return batch_monge_elkan_jw_indexed(rows_a, ctx.ua, rows_b, ctx.ub)
        return None


def _default_jw_cache_size() -> int:
    """Cache bound for the shared Jaro–Winkler token cache.

    Configurable through the ``REPRO_JW_CACHE_SIZE`` environment variable
    (0 disables caching entirely); malformed values fall back to the
    built-in default.
    """
    raw = os.environ.get("REPRO_JW_CACHE_SIZE")
    if raw is None:
        return 1 << 20
    try:
        return max(0, int(raw))
    except ValueError:
        return 1 << 20


#: Monge–Elkan's inner similarity is evaluated on *tokens*, which repeat
#: heavily across a candidate set; on the per-pair fallback, caching turns
#: the quadratic token-pair work into dictionary lookups after warm-up. The
#: batch kernel scores each distinct token pair once per call and never
#: reads it. ``_monge_elkan_jw`` looks the cache up through the module
#: global, so :func:`configure_jw_cache` can swap it at runtime.
_cached_jaro_winkler = functools.lru_cache(maxsize=_default_jw_cache_size())(jaro_winkler)


def configure_jw_cache(maxsize: int | None) -> None:
    """Rebuild the per-pair Monge–Elkan token cache with a new size bound.

    Only the per-pair fallback reads this cache: custom
    :class:`PairFeature` subclasses that score through ``compute``, and
    Monge–Elkan calls the batch kernel refuses (over its cell budget, or a
    token-pair key that would overflow int64). The batch kernels, which
    fit, resolve and serve run, never touch it. ``maxsize=None`` means
    unbounded (only safe for short-lived processes); ``0`` disables
    caching. Replacing the cache also drops all cached entries.
    """
    global _cached_jaro_winkler
    _cached_jaro_winkler = functools.lru_cache(maxsize=maxsize)(jaro_winkler)


def clear_feature_caches() -> None:
    """Release the per-pair Monge–Elkan token cache.

    The cache fills only on the per-pair fallback (see
    :func:`configure_jw_cache`); the batch kernels keep no state between
    calls, so after them this frees nothing. Callers that hit the fallback
    can drop the cache between batches (see
    :meth:`repro.incremental.resolver.IncrementalResolver.clear_caches`).
    """
    _cached_jaro_winkler.cache_clear()


def jw_cache_info() -> dict:
    """Hit/miss statistics of the shared Jaro–Winkler token cache.

    Returns ``{"hits", "misses", "maxsize", "currsize"}`` (the shape of
    ``functools.lru_cache.cache_info``, as a dict). Counts accumulate until
    :func:`clear_feature_caches` or :func:`configure_jw_cache` rebuilds the
    cache; traced transforms export them as ``features.jw_cache.*`` gauges.
    """
    info = _cached_jaro_winkler.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }


def _monge_elkan_jw(a, b) -> float:
    return monge_elkan(a, b, inner=_cached_jaro_winkler, symmetric=True)


class _TfidfFeature(PairFeature):
    """TF-IDF cosine; idf weights are supplied by the fitted generator.

    ``default_idf`` (the fallback weight for unseen tokens) is precomputed
    when the idf table is fitted — recomputing ``max(idf.values())`` per
    pair would cost O(vocabulary) per call.
    """

    family = "tfidf"

    def __init__(self, name, attribute, tokenizer):
        super().__init__(name, attribute)
        self.tokenizer = tokenizer
        self.idf: dict[str, float] = {}
        self.default_idf: float = 1.0

    def set_idf(self, idf: dict[str, float]) -> None:
        """Install a fitted idf table and precompute the unseen-token weight."""
        self.idf = idf
        self.default_idf = max(idf.values(), default=1.0)

    def prepare(self, value):
        if value is None:
            return None
        return self.tokenizer(str(value))

    def compute(self, a, b) -> float:
        if a is None or b is None:
            return _NAN
        return float(tfidf_cosine(a, b, self.idf, default_idf=self.default_idf))

    def batch_scores(self, ctx):
        rows_a, rows_b = ctx.record_token_lists(self.attribute, self.tokenizer)
        return batch_tfidf_cosine_indexed(
            rows_a, ctx.ua, rows_b, ctx.ub, self.idf, self.default_idf
        )


class _ExactFeature(PairFeature):
    family = "exact"

    def compute(self, a, b) -> float:
        return exact_match(a, b)

    def batch_scores(self, ctx):
        # one id per distinct string over both sides, -1 for missing
        rows_a, rows_b = ctx.record_strings(self.attribute)
        ids: dict[str, int] = {}

        def intern(rows):
            return np.fromiter(
                (-1 if v is None else ids.setdefault(v, len(ids)) for v in rows),
                dtype=np.int64,
                count=len(rows),
            )

        ids_a = intern(rows_a)
        ids_b = ids_a if rows_b is rows_a else intern(rows_b)
        a, b = ids_a[ctx.ua], ids_b[ctx.ub]
        out = (a == b).astype(np.float64)
        out[(a < 0) | (b < 0)] = _NAN
        return out


def _parse_number(value):
    """Float parse used by numeric features; non-finite → missing."""
    if value is None:
        return None
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        return None
    return parsed if math.isfinite(parsed) else None


class _NumericFeature(PairFeature):
    """Numeric similarity; ``scale`` is set from the data during fit."""

    family = "numeric"

    def __init__(self, name, attribute, kind: str):
        super().__init__(name, attribute)
        if kind not in ("absolute", "relative"):
            raise ValueError(f"unknown numeric feature kind {kind!r}")
        self.kind = kind
        self.scale = 1.0

    def prepare(self, value):
        return _parse_number(value)

    def compute(self, a, b) -> float:
        if a is None or b is None:
            return _NAN
        if self.kind == "absolute":
            return numeric_absolute_similarity(a, b, scale=self.scale)
        return numeric_relative_similarity(a, b)

    def batch_scores(self, ctx):
        a, b = ctx.pair_numbers(self.attribute)
        diff = np.abs(a - b)  # NaN (missing) propagates through
        if self.kind == "absolute":
            if self.scale <= 0:
                raise ValueError(f"scale must be positive, got {self.scale}")
            return np.exp(-diff / self.scale)
        denom = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.maximum(0.0, 1.0 - diff / denom)
        return np.where(denom == 0.0, 1.0, out)


def _features_for_type(attribute: str, attr_type: AttributeType) -> list[PairFeature]:
    """The per-type similarity-function table (Magellan's selection logic)."""
    qgm3 = QgramTokenizer(q=3)
    word = WhitespaceTokenizer()
    if attr_type is AttributeType.BOOLEAN:
        return [_ExactFeature(f"{attribute}_exact", attribute)]
    if attr_type is AttributeType.NUMERIC:
        return [
            _NumericFeature(f"{attribute}_abs_sim", attribute, "absolute"),
            _NumericFeature(f"{attribute}_rel_sim", attribute, "relative"),
            _ExactFeature(f"{attribute}_exact", attribute),
        ]
    if attr_type is AttributeType.SHORT_STRING:
        return [
            _StringFeature(f"{attribute}_lev_sim", attribute, levenshtein_similarity),
            _StringFeature(f"{attribute}_jw_sim", attribute, jaro_winkler),
            _TokenFeature(f"{attribute}_jac_qgm3", attribute, jaccard, qgm3),
            _ExactFeature(f"{attribute}_exact", attribute),
        ]
    if attr_type is AttributeType.MEDIUM_STRING:
        return [
            _TokenFeature(f"{attribute}_jac_wrd", attribute, jaccard, word),
            _TokenFeature(f"{attribute}_cos_qgm3", attribute, cosine, qgm3),
            _TokenFeature(f"{attribute}_me_jw", attribute, _monge_elkan_jw, word, as_set=False),
            _TokenFeature(f"{attribute}_dice_qgm3", attribute, dice, qgm3),
        ]
    # LONG_STRING
    return [
        _TokenFeature(f"{attribute}_jac_wrd", attribute, jaccard, word),
        _TokenFeature(f"{attribute}_cos_wrd", attribute, cosine, word),
        _TfidfFeature(f"{attribute}_tfidf_wrd", attribute, word),
        _TokenFeature(f"{attribute}_ovl_wrd", attribute, overlap_coefficient, word),
    ]


#: The value types that key a feature memo (see ``_BatchContext.key_values``).
_KEY_TYPES = frozenset({str, type(None)})

#: Distinct value pairs one attribute's memo holds (see
#: :class:`_ValuePairMemo`): all 400 pairs of a 20-value attribute, or the
#: pairs of ~15 batches of 32 records against a top-10 index, for at most
#: 32 KiB of scores per feature and two dicts of 4096 and 8192 entries.
#: 32768 gave the same resolve speedup on the venue corpus.
_MEMO_VALUE_PAIRS = 4096


def _records_used(records: dict, *rows: np.ndarray) -> tuple[dict, list]:
    """The records at ``rows``, in record order, and ``rows`` renumbered into them."""
    used = np.zeros(len(records), dtype=bool)
    for r in rows:
        used[r] = True
    renumber = np.cumsum(used) - 1
    items = list(records.items())
    kept = dict(map(items.__getitem__, np.flatnonzero(used).tolist()))
    return kept, [renumber[r] for r in rows]


class _ValuePairMemo:
    """One attribute's feature rows by distinct ``(value_a, value_b)`` pair.

    ``ids`` numbers the values seen, in order of first sight; ``slots``
    maps a pair's code ``id_a << 32 | id_b`` to its row of ``rows``. A
    store that would take the memo past ``_MEMO_VALUE_PAIRS`` rows empties
    ``slots`` first; ``ids`` is dropped with it once it outgrows twice that
    (the values of pairs never stored are numbered too).
    """

    def __init__(self, width: int):
        self.rows = np.empty((_MEMO_VALUE_PAIRS, width), dtype=np.float64)
        self.clear()

    def clear(self) -> None:
        self.ids = collections.defaultdict(itertools.count().__next__)
        self.slots: dict = {}
        self.used = 0  # rows filled; a code stored twice in one call takes two

    def __len__(self) -> int:
        return len(self.slots)

    def look_up(self, rows_a: list, ua: np.ndarray, rows_b: list, ub: np.ndarray):
        """The code and row of every pair ``(rows_a[ua[i]], rows_b[ub[i]])``.

        A pair the memo lacks has row -1 when it is to be stored: the memo
        is empty, or both values were numbered before this call. Otherwise
        its row is -2 and it is not stored, since a value the memo never met
        seldom recurs, and most pairs of a corpus without repeats hold one.
        """
        if len(self.ids) > 2 * len(self.rows):
            self.clear()
        seen = len(self.ids)
        ids_a = self._number(rows_a)
        ids_b = ids_a if rows_b is rows_a else self._number(rows_b)
        ids_a, ids_b = ids_a[ua], ids_b[ub]
        codes = (ids_a << 32) | ids_b
        if not self.slots:
            return codes, np.full(len(codes), -1, dtype=np.int64)
        slots = np.full(len(codes), -2, dtype=np.int64)
        known = np.flatnonzero((ids_a < seen) & (ids_b < seen))
        slots[known] = np.fromiter(
            map(self.slots.get, codes[known].tolist(), itertools.repeat(-1)),
            dtype=np.int64,
            count=len(known),
        )
        return codes, slots

    def _number(self, values: list) -> np.ndarray:
        return np.fromiter(map(self.ids.__getitem__, values), dtype=np.int64, count=len(values))

    def store(self, codes: np.ndarray, rows: np.ndarray) -> None:
        """Add the rows of codes the memo lacks (as many as it can hold)."""
        if self.used + len(codes) > len(self.rows):
            self.slots.clear()
            self.used = 0
        k = min(len(codes), len(self.rows))
        self.rows[self.used : self.used + k] = rows[:k]
        self.slots.update(zip(codes[:k].tolist(), range(self.used, self.used + k)))
        self.used += k


def _tokenizer_cache_key(tokenizer) -> tuple:
    """Configuration-level identity so equal tokenizers share preparation.

    Distinct-but-identical tokenizer instances (one per attribute in
    :func:`_features_for_type`, or rebuilt by ``from_state``) must map to
    the same prepared-token cache entry.
    """
    if isinstance(tokenizer, QgramTokenizer):
        return ("qgm", tokenizer.q, tokenizer.padded, tokenizer.lowercase)
    if isinstance(tokenizer, WhitespaceTokenizer):
        return ("wrd", tokenizer.lowercase)
    return ("obj", id(tokenizer))


class _BatchContext:
    """Shared per-``transform`` preparation caches for one pair batch.

    Everything derived from record values — raw strings, token lists, token
    sets, parsed numbers, and per-pair intersection stats — is computed at
    most once per ``(side, attribute, representation)`` and shared by every
    feature column that needs it. Prepared values are exposed both as
    insertion-ordered row lists (for the record-indexed batch kernels,
    addressed by the precomputed ``ua``/``ub`` row indices) and as
    per-record-id dicts (for the per-pair fallback). In dedup mode both
    sides alias the same caches, so the kernels see the *same* row-list
    object and share one encoding.
    """

    def __init__(self, left, right, pairs: Sequence[tuple]):
        a_ids = [a for a, _ in pairs]
        b_ids = [b for _, b in pairs]
        a_idset = set(a_ids)
        b_idset = set(b_ids)
        if right is None:
            a_idset |= b_idset
        recs_a = {rid: left.get(rid) for rid in a_idset}
        recs_b = recs_a if right is None else {rid: right.get(rid) for rid in b_idset}
        pos_a = {rid: i for i, rid in enumerate(recs_a)}
        pos_b = pos_a if right is None else {rid: i for i, rid in enumerate(recs_b)}
        ua = np.fromiter((pos_a[i] for i in a_ids), dtype=np.int64, count=len(pairs))
        ub = np.fromiter((pos_b[i] for i in b_ids), dtype=np.int64, count=len(pairs))
        self._attach(pairs, recs_a, recs_b, ua, ub)

    def _attach(self, pairs, recs_a: dict, recs_b: dict, ua, ub) -> None:
        self.pairs = pairs
        self.n = len(pairs)
        self._same = recs_b is recs_a
        self._recs_a = recs_a
        self._recs_b = recs_b
        #: Per-pair row indices into each side's record-ordered preparations.
        self.ua = ua
        self.ub = ub
        self._prep: dict = {}
        self._rows: dict = {}
        self._stats: dict = {}

    def restricted(self, positions: np.ndarray) -> "_BatchContext":
        """A context over the pairs at ``positions``, on the records already fetched.

        Its preparations cover only the records those pairs reference.
        """
        view = object.__new__(_BatchContext)
        pairs = list(map(self.pairs.__getitem__, positions.tolist()))
        ua, ub = self.ua[positions], self.ub[positions]
        if self._same:
            records, (ua, ub) = _records_used(self._recs_a, ua, ub)
            view._attach(pairs, records, records, ua, ub)
        else:
            recs_a, (ua,) = _records_used(self._recs_a, ua)
            recs_b, (ub,) = _records_used(self._recs_b, ub)
            view._attach(pairs, recs_a, recs_b, ua, ub)
        return view

    def key_values(self, attribute: str) -> tuple[list, list] | None:
        """Each side's record values of ``attribute``, in row order, if all can key a memo.

        ``None`` when a value is neither ``str`` nor ``None``: values that
        hash and compare alike can featurize differently (``True``, ``1``
        and ``"1"``; ``0.0`` and ``-0.0``), so only strings and ``None``
        key feature scores.
        """
        rows = []
        for side, records in (("a", self._recs_a),) if self._same else (
            ("a", self._recs_a),
            ("b", self._recs_b),
        ):
            values = {rid: rec.get(attribute) for rid, rec in records.items()}
            if not _KEY_TYPES.issuperset(map(type, values.values())):
                return None
            # str() of a str is the str itself, so these are also the
            # record strings the edit and q-gram kernels read
            self._prep.setdefault((side, attribute, "str"), values)
            rows.append(self._prepared_rows(side, attribute, "str", self._to_str))
        return rows[0], rows[-1]

    # -- cached per-record preparations -------------------------------------

    def prepared(self, side: str, attribute: str, kind, prepare_fn) -> dict:
        """``{record_id: prepare_fn(value)}`` for one side, cached by kind."""
        if self._same:
            side = "a"
        key = (side, attribute, kind)
        found = self._prep.get(key)
        if found is None:
            records = self._recs_a if side == "a" else self._recs_b
            found = {rid: prepare_fn(rec.get(attribute)) for rid, rec in records.items()}
            self._prep[key] = found
        return found

    def _prepared_rows(self, side: str, attribute: str, kind, prepare_fn) -> list:
        """Row-ordered view of :meth:`prepared`, cached so that both sides of
        a dedup batch return the identical list object (the kernels use
        ``is`` to share one encoding)."""
        if self._same:
            side = "a"
        key = (side, attribute, kind)
        rows = self._rows.get(key)
        if rows is None:
            rows = list(self.prepared(side, attribute, kind, prepare_fn).values())
            self._rows[key] = rows
        return rows

    @staticmethod
    def _tokenize_prep(tokenizer):
        """The single (cache kind, prepare fn) pair for one tokenizer config."""
        kind = ("tok", _tokenizer_cache_key(tokenizer))
        return kind, lambda v: None if v is None else tokenizer(str(v))

    def _token_lists(self, side, attribute, tokenizer) -> dict:
        kind, fn = self._tokenize_prep(tokenizer)
        return self.prepared(side, attribute, kind, fn)

    def _derived_tokens(self, side, attribute, tokenizer, kind_tag, convert) -> dict:
        if self._same:
            side = "a"
        key = (side, attribute, (kind_tag, _tokenizer_cache_key(tokenizer)))
        found = self._prep.get(key)
        if found is None:
            lists = self._token_lists(side, attribute, tokenizer)
            found = {
                rid: None if tokens is None else convert(tokens)
                for rid, tokens in lists.items()
            }
            self._prep[key] = found
        return found

    def token_sets(self, side, attribute, tokenizer) -> dict:
        return self._derived_tokens(side, attribute, tokenizer, "set", frozenset)

    def token_tuples(self, side, attribute, tokenizer) -> dict:
        return self._derived_tokens(side, attribute, tokenizer, "tuple", tuple)

    # -- record-indexed views for the batch kernels --------------------------

    @staticmethod
    def _to_str(value):
        return None if value is None else str(value)

    def record_strings(self, attribute: str) -> tuple[list, list]:
        return (
            self._prepared_rows("a", attribute, "str", self._to_str),
            self._prepared_rows("b", attribute, "str", self._to_str),
        )

    def record_token_lists(self, attribute: str, tokenizer) -> tuple[list, list]:
        kind, fn = self._tokenize_prep(tokenizer)
        return (
            self._prepared_rows("a", attribute, kind, fn),
            self._prepared_rows("b", attribute, kind, fn),
        )

    def record_token_tuples(self, attribute: str, tokenizer) -> tuple[list, list]:
        rows = []
        for side in ("a", "b"):
            if self._same:
                side = "a"
            key = (side, attribute, ("tuple-rows", _tokenizer_cache_key(tokenizer)))
            found = self._rows.get(key)
            if found is None:
                found = list(self.token_tuples(side, attribute, tokenizer).values())
                self._rows[key] = found
            rows.append(found)
        return rows[0], rows[1]

    def pair_numbers(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        def rows_array(side):
            rows = self._prepared_rows(side, attribute, "num", _parse_number)
            return np.fromiter(
                (_NAN if v is None else v for v in rows), dtype=np.float64, count=len(rows)
            )

        return rows_array("a")[self.ua], rows_array("b")[self.ub]

    def token_stats(self, attribute: str, tokenizer):
        """Shared intersection/size stats for all set measures on this pair.

        Padded q-gram tokenizers take the all-numpy fast path (windows over
        utf-32 code points — no Python token strings are materialized);
        everything else goes through the generic token-list encoder.
        """
        key = (attribute, _tokenizer_cache_key(tokenizer))
        stats = self._stats.get(key)
        if stats is None:
            if isinstance(tokenizer, QgramTokenizer) and (tokenizer.padded or tokenizer.q == 1):
                rows_a, rows_b = self.record_strings(attribute)
                stats = qgram_pair_stats_indexed(
                    rows_a, self.ua, rows_b, self.ub,
                    q=tokenizer.q, padded=tokenizer.padded, lowercase=tokenizer.lowercase,
                )
            else:
                rows_a, rows_b = self.record_token_lists(attribute, tokenizer)
                stats = token_pair_stats_indexed(rows_a, self.ua, rows_b, self.ub)
            self._stats[key] = stats
        return stats

    # -- fallback ------------------------------------------------------------

    def prepared_for(self, spec: PairFeature) -> tuple[dict, dict]:
        """Per-record prepared values for a feature's per-pair fallback.

        Token features read the shared tokenization caches (so e.g.
        Monge–Elkan reuses the word tokens already produced for
        ``jac_wrd``); everything else prepares through the feature's own
        :meth:`PairFeature.prepare`, cached per spec.
        """
        if isinstance(spec, _TokenFeature):
            derived = self.token_sets if spec.as_set else self.token_tuples
            return (
                derived("a", spec.attribute, spec.tokenizer),
                derived("b", spec.attribute, spec.tokenizer),
            )
        kind = ("spec", id(spec))
        return (
            self.prepared("a", spec.attribute, kind, spec.prepare),
            self.prepared("b", spec.attribute, kind, spec.prepare),
        )


def _per_pair_scores(spec: PairFeature, ctx: _BatchContext) -> np.ndarray:
    """Per-pair scoring loop for one feature over the context's pairs (the fallback)."""
    prep_a, prep_b = ctx.prepared_for(spec)
    out = np.empty(ctx.n, dtype=np.float64)
    for i, (a_id, b_id) in enumerate(ctx.pairs):
        out[i] = spec.compute(prep_a[a_id], prep_b[b_id])
    return out


class FeatureGenerator:
    """Infer attribute types and build similarity feature matrices.

    Usage::

        gen = FeatureGenerator().fit(left, right, attributes)
        X = gen.transform(left, right, candidate_pairs)   # N × d, may contain NaN
        groups = gen.feature_groups_                       # per-attribute index lists

    Parameters
    ----------
    type_overrides:
        Optional ``{attribute: AttributeType}`` to pin types that inference
        would get wrong on unusual data.
    """

    def __init__(self, type_overrides: dict[str, AttributeType] | None = None):
        self.type_overrides = dict(type_overrides or {})
        self.attributes_: list[str] | None = None
        self.attribute_types_: dict[str, AttributeType] | None = None
        self.features_: list[PairFeature] | None = None
        self.feature_groups_: list[list[int]] | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(
        self,
        left: Table,
        right: Table | None = None,
        attributes: Sequence[str] | None = None,
    ) -> "FeatureGenerator":
        """Infer types and data-dependent parameters (idf tables, scales)."""
        if attributes is None:
            attributes = list(left.attributes)
        for attr in attributes:
            if attr not in left.attributes:
                raise KeyError(f"attribute {attr!r} not in left table")
            if right is not None and attr not in right.attributes:
                raise KeyError(f"attribute {attr!r} not in right table")
        tables = [left] if right is None else [left, right]

        self.attributes_ = list(attributes)
        self.attribute_types_ = {}
        self.features_ = []
        self.feature_groups_ = []
        for attr in self.attributes_:
            values = [v for table in tables for v in table.column(attr)]
            attr_type = self.type_overrides.get(attr) or infer_attribute_type(values)
            self.attribute_types_[attr] = attr_type
            specs = _features_for_type(attr, attr_type)
            self._fit_data_parameters(specs, values)
            start = len(self.features_)
            self.features_.extend(specs)
            self.feature_groups_.append(list(range(start, len(self.features_))))
        return self

    @staticmethod
    def _fit_data_parameters(specs: list[PairFeature], values: list) -> None:
        """Set idf tables and numeric scales from the observed values."""
        for spec in specs:
            if isinstance(spec, _TfidfFeature):
                docs = [spec.tokenizer(str(v)) for v in values if v is not None]
                spec.set_idf(build_idf(docs))
            elif isinstance(spec, _NumericFeature) and spec.kind == "absolute":
                observed = [spec.prepare(v) for v in values]
                observed = [v for v in observed if v is not None]
                spread = float(np.std(observed)) if len(observed) > 1 else 0.0
                spec.scale = spread if spread > 0.0 else 1.0

    # -- persistence -----------------------------------------------------------

    def get_state(self) -> dict:
        """JSON-serializable fitted state (types plus data-fitted parameters).

        The feature *specs* are deterministic given the attribute types
        (:func:`_features_for_type`), so only the inferred types and the
        data-dependent parameters — idf tables and numeric scales — need to
        be captured. Restore with :meth:`from_state`.
        """
        self._check_fitted()
        params: dict[str, dict] = {}
        for spec in self.features_:
            if isinstance(spec, _TfidfFeature):
                params[spec.name] = {"idf": dict(spec.idf)}
            elif isinstance(spec, _NumericFeature):
                params[spec.name] = {"scale": float(spec.scale)}
        return {
            "attributes": list(self.attributes_),
            "attribute_types": {a: t.value for a, t in self.attribute_types_.items()},
            "type_overrides": {a: t.value for a, t in self.type_overrides.items()},
            "feature_params": params,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FeatureGenerator":
        """Rebuild a fitted generator from :meth:`get_state` output.

        The restored generator produces bit-identical feature matrices: the
        feature list is reconstructed from the saved types and the fitted
        idf/scale parameters are written back onto the matching specs.
        """
        overrides = {a: AttributeType(v) for a, v in state["type_overrides"].items()}
        gen = cls(type_overrides=overrides)
        gen.attributes_ = list(state["attributes"])
        gen.attribute_types_ = {
            a: AttributeType(v) for a, v in state["attribute_types"].items()
        }
        gen.features_ = []
        gen.feature_groups_ = []
        params = state["feature_params"]
        for attr in gen.attributes_:
            specs = _features_for_type(attr, gen.attribute_types_[attr])
            for spec in specs:
                fitted = params.get(spec.name)
                if isinstance(spec, _TfidfFeature) and fitted is not None:
                    spec.set_idf({tok: float(w) for tok, w in fitted["idf"].items()})
                elif isinstance(spec, _NumericFeature) and fitted is not None:
                    spec.scale = float(fitted["scale"])
            start = len(gen.features_)
            gen.features_.extend(specs)
            gen.feature_groups_.append(list(range(start, len(gen.features_))))
        return gen

    # -- introspection ---------------------------------------------------------

    @property
    def feature_names_(self) -> list[str]:
        self._check_fitted()
        return [spec.name for spec in self.features_]

    def group_of(self, feature_name: str) -> str:
        """Attribute that produced a feature."""
        self._check_fitted()
        for spec in self.features_:
            if spec.name == feature_name:
                return spec.attribute
        raise KeyError(f"unknown feature {feature_name!r}")

    def _check_fitted(self) -> None:
        if self.features_ is None:
            raise RuntimeError("FeatureGenerator must be fitted before use")

    # -- transformation ----------------------------------------------------------

    def transform(
        self,
        left: Table,
        right: Table | None,
        pairs: Sequence[tuple],
        *,
        timings: dict[str, float] | None = None,
        memo: dict | None = None,
    ) -> np.ndarray:
        """Feature matrix for ``pairs``; one row per pair, one column per feature.

        ``right=None`` means deduplication: both pair elements are ids in
        ``left``. Cells are NaN where either side's attribute is missing.
        Only records referenced by ``pairs`` are prepared, so the cost is
        linear in the pair batch, not the table size; any record source with
        ``.get(record_id) -> dict`` (a :class:`~repro.data.table.Table` or an
        :class:`~repro.shard.store.ShardedEntityStore`) is accepted.

        Columns are scored with the vectorized kernels in
        :mod:`repro.text.batch`, sharing tokenization and intersection work
        across features; a feature without a batch kernel (or a call its
        kernel refuses) falls back to per-pair :meth:`PairFeature.compute`.
        Pass a dict as ``timings`` to collect per-feature wall-clock seconds
        (shared preparation is attributed to the first feature that
        triggers it).

        ``memo`` is a dict the caller keeps across calls of this fitted
        generator, empty at first; each
        :class:`~repro.incremental.resolver.IncrementalResolver` keeps one.
        For each attribute it holds the feature scores of up to 4096
        distinct ``(value_a, value_b)`` pairs, keyed in pair order, and is
        emptied before a call would store past that bound.
        A call scores only the value pairs its memo lacks and copies the
        scores to every pair that carries them; when most pairs miss, it
        scores them all. An attribute whose values in the call are not all
        ``str`` or ``None`` is scored in full and not stored, since values
        that compare alike can featurize apart (``True`` and ``1``;
        ``0.0`` and ``-0.0``). A scored pair is stored when the memo is
        empty or both its values were met in an earlier call. The batch
        kernels score a pair the same whichever pairs share its call, so
        the matrix equals the memo-less call's bit for bit; rows a
        per-pair fallback scored are never stored. Under a memo,
        ``timings`` and the per-feature spans cover only the calls that
        score, and an attribute the memo answers in full records neither.
        """
        self._check_fitted()
        n, d = len(pairs), len(self.features_)
        X = np.empty((n, d), dtype=np.float64)
        if n == 0 or d == 0:
            return X
        traced = telemetry_active()
        with span("features.transform", n_pairs=n, n_features=d):
            ctx = _BatchContext(left, right, pairs)
            if memo is None:
                self._score_features(ctx, slice(0, d), X, timings)
            else:
                for attribute, group in zip(self.attributes_, self.feature_groups_):
                    columns = slice(group[0], group[-1] + 1)
                    looked_up = self._score_through_memo(ctx, attribute, columns, memo, X, timings)
                    if traced and looked_up is not None:
                        codes, slots = looked_up
                        add_counter("features.memo.hits", len(set(codes[slots >= 0].tolist())))
                        add_counter("features.memo.scored", len(set(codes[slots < 0].tolist())))
                if traced:
                    set_gauge("features.memo.entries", sum(map(len, memo.values())))
            if traced:
                add_counter("features.pairs_scored", n)
                cache = jw_cache_info()
                set_gauge("features.jw_cache.hits", cache["hits"])
                set_gauge("features.jw_cache.misses", cache["misses"])
                set_gauge("features.jw_cache.currsize", cache["currsize"])
        return X

    def _score_features(self, ctx, columns: slice, out: np.ndarray, timings) -> bool:
        """Score the features at ``columns`` over ``ctx``'s pairs into ``out``.

        ``out`` holds one column per feature in ``columns``. Returns whether
        every column came from a batch kernel (no per-pair fallback).
        """
        traced = telemetry_active()
        batch_only = True
        for k, spec in enumerate(self.features_[columns]):
            with span(f"features.{spec.name}", family=spec.family) as fsp:
                column = spec.batch_scores(ctx)
                if column is None:
                    batch_only = False
                    column = _per_pair_scores(spec, ctx)
                out[:, k] = column
            if timings is not None:
                timings[spec.name] = fsp.seconds
            if traced:
                set_gauge(f"features.kernel_seconds.{spec.name}", fsp.seconds)
        return batch_only

    def _score_through_memo(
        self, ctx, attribute: str, columns: slice, memo: dict, X: np.ndarray, timings
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Fill one attribute's ``columns`` of ``X``, scoring only what ``memo`` lacks.

        Returns every pair's value-pair code and memo row (negative where
        the memo lacked it), or ``None`` when the attribute's values cannot
        key it.
        """
        values = ctx.key_values(attribute)
        if values is None:  # a value no key can stand for: score every pair
            self._score_features(ctx, columns, X[:, columns], timings)
            return None
        table = memo.get(attribute)
        if table is None:
            table = memo[attribute] = _ValuePairMemo(columns.stop - columns.start)
        codes, slots = table.look_up(values[0], ctx.ua, values[1], ctx.ub)
        missed = np.flatnonzero(slots < 0)
        if 2 * len(missed) > ctx.n:
            # most pairs need scoring: a view of the missed ones would
            # save little kernel time and cost a pass over the records
            batch_only = self._score_features(ctx, columns, X[:, columns], timings)
            storable = missed[slots[missed] == -1]
            new, scored = codes[storable], X[storable, columns]
        else:
            # missed pairs (negative rows) read row 0 and are overwritten below
            X[:, columns] = table.rows[np.maximum(slots, 0)]
            if len(missed):
                new, first, inverse = np.unique(
                    codes[missed], return_index=True, return_inverse=True
                )
                scored = np.empty((len(new), columns.stop - columns.start), dtype=np.float64)
                view = ctx.restricted(missed[first])
                batch_only = self._score_features(view, columns, scored, timings)
                X[missed, columns] = scored[inverse]
                storable = slots[missed[first]] == -1
                new, scored = new[storable], scored[storable]
        # stored only once every column is scored, so a raising kernel
        # leaves no partial rows
        if len(missed) and batch_only:
            table.store(new, scored)
        return codes, slots
