"""The columnar batch kernels agree with the scalar similarity functions."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import batch
from repro.text.batch import (
    batch_jaro_winkler,
    batch_levenshtein_similarity,
    batch_monge_elkan_jw,
    batch_tfidf_cosine,
    cosine_from_stats,
    dice_from_stats,
    jaccard_from_stats,
    overlap_from_stats,
    qgram_pair_stats_indexed,
    token_pair_stats,
)
from repro.text.similarity import monge_elkan
from repro.text.tokenizers import QgramTokenizer
from repro.text.similarity import (
    build_idf,
    cosine,
    dice,
    jaccard,
    jaro_winkler,
    levenshtein_similarity,
    overlap_coefficient,
    tfidf_cosine,
)

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def _random_sets(rng, n, include_missing=True):
    out = []
    for _ in range(n):
        roll = rng.random()
        if include_missing and roll < 0.1:
            out.append(None)
        elif roll < 0.2:
            out.append(frozenset())
        else:
            k = int(rng.integers(1, 6))
            out.append(frozenset(rng.choice(_WORDS, size=k, replace=False)))
    return out


def _assert_matches_scalar(batch_col, scalar_fn, a_list, b_list):
    for got, a, b in zip(batch_col, a_list, b_list):
        want = scalar_fn(a, b)
        if math.isnan(want):
            assert math.isnan(got), (a, b, got)
        else:
            assert got == want, (a, b, got, want)


class TestTokenStats:
    def test_all_set_measures_match_scalar(self):
        rng = np.random.default_rng(7)
        a = _random_sets(rng, 300)
        b = _random_sets(rng, 300)
        stats = token_pair_stats(a, b)
        _assert_matches_scalar(jaccard_from_stats(stats), jaccard, a, b)
        _assert_matches_scalar(cosine_from_stats(stats), cosine, a, b)
        _assert_matches_scalar(dice_from_stats(stats), dice, a, b)
        _assert_matches_scalar(overlap_from_stats(stats), overlap_coefficient, a, b)

    def test_both_empty_is_one_one_empty_is_zero(self):
        empty, full = frozenset(), frozenset({"x"})
        stats = token_pair_stats([empty, empty], [empty, full])
        assert jaccard_from_stats(stats).tolist() == [1.0, 0.0]
        assert cosine_from_stats(stats).tolist() == [1.0, 0.0]

    def test_missing_side_is_nan(self):
        stats = token_pair_stats([None, frozenset({"x"})], [frozenset({"x"}), None])
        assert np.all(np.isnan(jaccard_from_stats(stats)))

    def test_all_pairs_missing(self):
        stats = token_pair_stats([None, None], [None, frozenset({"x"})])
        col = dice_from_stats(stats)
        assert np.all(np.isnan(col)) and len(col) == 2

    def test_empty_batch(self):
        stats = token_pair_stats([], [])
        assert len(jaccard_from_stats(stats)) == 0

    def test_shared_objects_deduplicate(self):
        # the same prepared frozenset object repeated across pairs (how the
        # feature generator calls this) must not change results
        s1, s2 = frozenset({"a", "b"}), frozenset({"b", "c"})
        a = [s1, s1, s1]
        b = [s2, s2, s1]
        stats = token_pair_stats(a, b)
        assert stats.intersection.tolist() == [1, 1, 2]

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="aligned"):
            token_pair_stats([frozenset()], [])


class TestQgramStats:
    """The numeric q-gram fast path agrees with tokenizer-built sets."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_tokenizer_sets(self, q):
        tok = QgramTokenizer(q=q)
        strings = [
            "golden dragon", "Golden Dragon", "blue lotus cafe", "", None,
            "a", "ab", "𝕏-ray 𝄞 notation", "naïve ☕", "repeat repeat repeat",
            "lone \ud800 surrogate", "\udfff\ud800",
        ]
        rng = np.random.default_rng(3)
        ua = rng.integers(0, len(strings), size=60)
        ub = rng.integers(0, len(strings), size=60)
        stats = qgram_pair_stats_indexed(strings, ua, strings, ub, q=q)
        sets = [None if s is None else frozenset(tok(s)) for s in strings]
        for k, (i, j) in enumerate(zip(ua, ub)):
            sa, sb = sets[int(i)], sets[int(j)]
            if sa is None or sb is None:
                assert stats.missing[k]
                continue
            assert not stats.missing[k]
            assert stats.size_a[k] == len(sa)
            assert stats.size_b[k] == len(sb)
            assert stats.intersection[k] == len(sa & sb), (strings[int(i)], strings[int(j)])

    def test_unpadded_multichar_rejected(self):
        with pytest.raises(ValueError, match="padded"):
            qgram_pair_stats_indexed(["ab"], np.array([0]), ["ab"], np.array([0]), q=3, padded=False)


class TestBatchMongeElkan:
    def test_matches_scalar(self):
        rng = np.random.default_rng(17)
        bags = []
        for _ in range(24):
            roll = rng.random()
            if roll < 0.1:
                bags.append(None)
            elif roll < 0.2:
                bags.append(())
            else:
                bags.append(tuple(rng.choice(_WORDS, size=int(rng.integers(1, 5)))))
        a = [bags[int(i)] for i in rng.integers(0, len(bags), size=150)]
        b = [bags[int(i)] for i in rng.integers(0, len(bags), size=150)]
        col = batch_monge_elkan_jw(a, b)
        assert col is not None
        for got, x, y in zip(col, a, b):
            want = monge_elkan(x, y, symmetric=True)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_empty_and_missing(self):
        col = batch_monge_elkan_jw([(), (), None], [(), ("a",), ("a",)])
        assert col[0] == 1.0 and col[1] == 0.0 and math.isnan(col[2])


class TestBatchTfidf:
    def test_matches_scalar(self):
        rng = np.random.default_rng(13)
        docs = [list(rng.choice(_WORDS, size=int(rng.integers(1, 6)))) for _ in range(30)]
        idf = build_idf(docs)
        a = [None if rng.random() < 0.1 else list(rng.choice(_WORDS + ["oov1"], size=int(rng.integers(0, 5)))) for _ in range(200)]
        b = [None if rng.random() < 0.1 else list(rng.choice(_WORDS + ["oov2"], size=int(rng.integers(0, 5)))) for _ in range(200)]
        col = batch_tfidf_cosine(a, b, idf)
        for got, x, y in zip(col, a, b):
            want = tfidf_cosine(x, y, idf)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_repeated_tokens_use_term_frequency(self):
        idf = {"a": 1.0, "b": 1.0}
        got = batch_tfidf_cosine([["a", "a", "b"]], [["a", "b", "b"]], idf)[0]
        assert got == pytest.approx(tfidf_cosine(["a", "a", "b"], ["a", "b", "b"], idf))

    def test_explicit_default_idf(self):
        idf = {"a": 2.0}
        got = batch_tfidf_cosine([["zzz"]], [["zzz"]], idf, default_idf=5.0)[0]
        assert got == pytest.approx(tfidf_cosine(["zzz"], ["zzz"], idf, default_idf=5.0))

    def test_empty_and_missing(self):
        col = batch_tfidf_cosine([[], [], None], [[], ["a"], ["a"]], {"a": 1.0})
        assert col[0] == 1.0 and col[1] == 0.0 and math.isnan(col[2])

    def test_pair_score_independent_of_batch_composition(self):
        """Chunked featurization (the worker pool) must not move a bit."""
        rng = np.random.default_rng(17)
        idf = {w: float(i % 7) + 0.5 for i, w in enumerate(_WORDS)}
        a = [list(rng.choice(_WORDS, size=int(rng.integers(1, 9)))) for _ in range(120)]
        b = [list(rng.choice(_WORDS, size=int(rng.integers(1, 9)))) for _ in range(120)]
        whole = batch_tfidf_cosine(a, b, idf)
        for start in range(0, 120, 7):
            chunk = batch_tfidf_cosine(a[start : start + 7], b[start : start + 7], idf)
            assert chunk.tobytes() == whole[start : start + 7].tobytes()
        reversed_col = batch_tfidf_cosine(a[::-1], b[::-1], idf)
        assert reversed_col[::-1].tobytes() == whole.tobytes()


def _random_strings(rng, n, alphabet="abcdef ", lengths=(0, 1, 3, 5, 8)):
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.08:
            out.append(None)
            continue
        length = int(rng.choice(lengths))
        out.append("".join(rng.choice(list(alphabet), size=length)))
    return out


class TestBatchEdit:
    @pytest.mark.parametrize(
        "batch_fn,scalar_fn",
        [
            (batch_levenshtein_similarity, levenshtein_similarity),
            (batch_jaro_winkler, jaro_winkler),
        ],
    )
    def test_matches_scalar_on_random_strings(self, batch_fn, scalar_fn):
        rng = np.random.default_rng(29)
        # few distinct lengths → large buckets → the vectorized DP path runs
        a = _random_strings(rng, 400)
        b = _random_strings(rng, 400)
        _assert_matches_scalar(batch_fn(a, b), scalar_fn, a, b)

    @pytest.mark.parametrize(
        "batch_fn,scalar_fn",
        [
            (batch_levenshtein_similarity, levenshtein_similarity),
            (batch_jaro_winkler, jaro_winkler),
        ],
    )
    def test_singleton_buckets_merge_into_one_class(self, batch_fn, scalar_fn):
        # every (len_a, len_b) combination distinct → bucket size 1 each, all
        # merged into one padded class with differing match windows
        a = ["a", "ab", "abc", "abcd", None, ""]
        b = ["abcdz", "xyzw", "ab", "a", "x", "nonempty"]
        _assert_matches_scalar(batch_fn(a, b), scalar_fn, a, b)

    def test_non_bmp_unicode(self):
        # astral-plane characters exercise the utf-32 encoding path: one
        # code unit per character, matching python-level len()
        a = ["𝕏ray", "𝕏ray", "na\U0001F600me", "𝄞𝄞𝄞𝄞"] * 2
        b = ["𝕏ray", "xray", "na\U0001F601me", "𝄞𝄞x𝄞"] * 2
        _assert_matches_scalar(batch_levenshtein_similarity(a, b), levenshtein_similarity, a, b)
        _assert_matches_scalar(batch_jaro_winkler(a, b), jaro_winkler, a, b)

    def test_lone_surrogates_match_scalar(self):
        # a lone surrogate is one utf-32 code unit, on either side of a pair
        # and on the shorter side of a Levenshtein pair
        a = ["ab\ud800c", "\ud800", "x\udfffyz", "\udfff\ud800", "plain", "\ud800bc"] * 2
        b = ["a\ud800c", "q\ud800x", "\udfffy", "\ud800\udfff", "pl\ud800in", "\ud800bc"] * 2
        _assert_matches_scalar(batch_levenshtein_similarity(a, b), levenshtein_similarity, a, b)
        _assert_matches_scalar(batch_jaro_winkler(a, b), jaro_winkler, a, b)
        _assert_matches_scalar(batch_levenshtein_similarity(b, a), levenshtein_similarity, b, a)
        _assert_matches_scalar(batch_jaro_winkler(b, a), jaro_winkler, b, a)

    def test_equal_and_empty_short_circuits(self):
        a = ["same", "", "", None]
        b = ["same", "", "x", "x"]
        lev = batch_levenshtein_similarity(a, b)
        assert lev[0] == 1.0 and lev[1] == 1.0 and lev[2] == 0.0 and math.isnan(lev[3])
        jw = batch_jaro_winkler(a, b)
        assert jw[0] == 1.0 and jw[1] == 1.0 and jw[2] == 0.0 and math.isnan(jw[3])

    def test_duplicate_pairs_computed_once_and_scattered(self):
        a = ["kitten"] * 50 + ["flour"]
        b = ["sitting"] * 50 + ["flower"]
        col = batch_levenshtein_similarity(a, b)
        assert np.allclose(col[:50], levenshtein_similarity("kitten", "sitting"))
        assert col[50] == levenshtein_similarity("flour", "flower")

    def test_transpositions_in_vectorized_jaro(self):
        # classic transposition-heavy cases; repeats deduplicate to one combo
        pairs = [("martha", "marhta"), ("dwayne", "duane"), ("dixon", "dicksonx")]
        for x, y in pairs:
            a, b = [x] * 6, [y] * 6
            got = batch_jaro_winkler(a, b)
            assert np.allclose(got, jaro_winkler(x, y))
            assert got[0] == jaro_winkler(x, y)


# One character per draw: ASCII, a non-BMP character and both lone-surrogate
# ends; a small alphabet makes matches, transpositions and shared prefixes.
_EDIT_ALPHABET = st.sampled_from(["a", "b", "c", "d", "\U0001d54f", "\ud800", "\udfff"])
_EDIT_STRINGS = st.one_of(
    st.none(),
    st.integers(0, 40).flatmap(
        lambda n: st.text(alphabet=_EDIT_ALPHABET, min_size=n, max_size=n)
    ),
)


@st.composite
def _edit_batches(draw):
    """1–200 pairs drawn from a small pool: repeated and equal values recur."""
    pool = draw(st.lists(_EDIT_STRINGS, min_size=1, max_size=24))
    n = draw(st.integers(1, 200))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
    return [pool[i] for i in draw(picks)], [pool[i] for i in draw(picks)]


def _scalar_column(scalar_fn, a, b):
    return np.array([scalar_fn(x, y) for x, y in zip(a, b)], dtype=np.float64)


@pytest.mark.parametrize(
    "batch_fn,scalar_fn",
    [
        (batch_levenshtein_similarity, levenshtein_similarity),
        (batch_jaro_winkler, jaro_winkler),
    ],
    ids=["levenshtein", "jaro_winkler"],
)
class TestEditKernelProperties:
    """Length classes pad and mask rows: no row may see another's padding."""

    @settings(max_examples=60, deadline=None)
    @given(_edit_batches())
    def test_bit_identical_to_scalar(self, batch_fn, scalar_fn, pairs):
        a, b = pairs
        assert batch_fn(a, b).tobytes() == _scalar_column(scalar_fn, a, b).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(_edit_batches())
    def test_pair_score_independent_of_batch_composition(self, batch_fn, scalar_fn, pairs):
        a, b = pairs
        whole = batch_fn(a, b)
        assert batch_fn(a[::-1], b[::-1])[::-1].tobytes() == whole.tobytes()
        alone = np.concatenate([batch_fn([x], [y]) for x, y in zip(a, b)])
        assert alone.tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_edit_batches())
    def test_class_budget_does_not_change_bits(self, batch_fn, scalar_fn, pairs):
        a, b = pairs
        whole = batch_fn(a, b)
        for budget in (1, 2**40):  # every bucket alone; one class for all
            with mock.patch.object(batch, "_EDIT_CLASS_CELLS", budget):
                assert batch_fn(a, b).tobytes() == whole.tobytes(), budget
