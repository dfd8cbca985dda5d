"""Tests for edit-based similarity measures.

The vectorized Levenshtein is checked against a straightforward pure-Python
reference on random inputs (hypothesis), plus hand-verified values for every
measure.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    needleman_wunsch,
    smith_waterman,
)

short_text = st.text(alphabet="abcdef ", max_size=12)


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook O(mn) dynamic program."""
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[n]


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
            ("abc", "", 3),
            ("same", "same", 0),
            ("a", "b", 1),
            ("ab", "ba", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    @given(short_text, short_text)
    @settings(max_examples=200)
    def test_matches_reference(self, a, b):
        assert levenshtein_distance(a, b) == reference_levenshtein(a, b)

    @given(short_text, short_text)
    def test_symmetric(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    def test_unicode(self):
        assert levenshtein_distance("café", "cafe") == 1

    def test_missing_nan(self):
        assert math.isnan(levenshtein_distance(None, "a"))

    def test_similarity_normalization(self):
        assert levenshtein_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "abc") == 1.0

    @given(short_text, short_text)
    def test_similarity_bounded(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0


class TestJaro:
    def test_classic_martha(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_classic_dixon(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.767, abs=1e-3)

    def test_identical(self):
        assert jaro("abc", "abc") == 1.0

    def test_no_common_characters(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty_cases(self):
        assert jaro("", "") == 1.0
        assert jaro("", "a") == 0.0

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        val = jaro(a, b)
        assert 0.0 <= val <= 1.0
        assert val == pytest.approx(jaro(b, a))

    def test_missing_nan(self):
        assert math.isnan(jaro(None, "a"))


class TestJaroWinkler:
    def test_classic_martha(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.961, abs=1e-3)

    def test_prefix_boost(self):
        # same jaro, shared prefix should score strictly higher
        assert jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes")

    def test_no_boost_without_prefix(self):
        assert jaro_winkler("xabc", "yabc") == pytest.approx(jaro("xabc", "yabc"))

    def test_prefix_capped_at_four(self):
        a = jaro_winkler("abcdefgh", "abcdexyz")
        b = jaro_winkler("abcdefgh", "abcdfxyz")  # 4-char shared prefix both
        assert a == pytest.approx(b, abs=0.1)

    @given(short_text, short_text)
    def test_bounded_and_dominates_jaro(self, a, b):
        jw = jaro_winkler(a, b)
        assert 0.0 <= jw <= 1.0 + 1e-12
        assert jw >= jaro(a, b) - 1e-12


class TestAlignments:
    def test_nw_identical(self):
        assert needleman_wunsch("abcd", "abcd") == 1.0

    def test_nw_is_lcs_ratio(self):
        # LCS("abcde", "ace") = 3, max len 5
        assert needleman_wunsch("abcde", "ace") == pytest.approx(3 / 5)

    def test_nw_disjoint(self):
        assert needleman_wunsch("aaa", "bbb") == 0.0

    def test_sw_substring_scores_one(self):
        assert smith_waterman("the entity resolution", "entity") == pytest.approx(1.0)

    def test_sw_disjoint(self):
        assert smith_waterman("aaa", "bbb") == 0.0

    def test_sw_partial_local_match(self):
        val = smith_waterman("abcdxyz", "qqabcd")
        assert 0.5 < val <= 1.0

    @given(short_text, short_text)
    def test_both_bounded_and_symmetric(self, a, b):
        for func in (needleman_wunsch, smith_waterman):
            val = func(a, b)
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(func(b, a))

    def test_empty_and_missing(self):
        assert needleman_wunsch("", "") == 1.0
        assert smith_waterman("", "a") == 0.0
        assert math.isnan(needleman_wunsch(None, "x"))
        assert math.isnan(smith_waterman("x", None))


class TestLoneSurrogates:
    """A lone surrogate (a JSON ``\\ud800`` escape decodes to one) is one
    character like any other: every edit measure scores it as it scores a
    plain character in its place."""

    @pytest.mark.parametrize(
        "func", [levenshtein_distance, jaro_winkler, needleman_wunsch, smith_waterman]
    )
    @pytest.mark.parametrize(
        "a,b",
        [("ab\ud800c", "a\ud800c"), ("x\udfffyz", "\udfffy"), ("\ud800", "q\ud800\udfff")],
        ids=["inside", "leading", "alone"],
    )
    def test_scores_like_a_plain_character(self, func, a, b):
        plain = {0xD800: "#", 0xDFFF: "%"}  # characters no input contains
        assert func(a, b) == func(a.translate(plain), b.translate(plain))
