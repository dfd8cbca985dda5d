"""Tests for the streaming inverted token index (:class:`ShardedTokenIndex`)."""

import pytest

from repro.blocking import AttributeEquivalenceBlocker, TokenOverlapBlocker
from repro.data.table import Table
from repro.shard import ShardedTokenIndex
from repro.text.tokenizers import (
    AlnumTokenizer,
    DelimiterTokenizer,
    QgramTokenizer,
    WhitespaceTokenizer,
    tokenizer_from_spec,
    tokenizer_spec,
)


@pytest.fixture
def restaurants():
    return Table(
        [
            {"id": "r1", "name": "harbor view grill", "city": "oakland"},
            {"id": "r2", "name": "harbor view grill and bar", "city": "oakland"},
            {"id": "r3", "name": "maple street bistro", "city": "berkeley"},
            {"id": "r4", "name": "maple street cafe", "city": "berkeley"},
            {"id": "r5", "name": "sunset diner", "city": "alameda"},
        ]
    )


class TestIncrementalTokenIndex:
    def test_matches_batch_blocker_candidates(self, restaurants):
        """Probing an index over a table equals batch blocking against it."""
        probes = Table(
            [
                {"id": "p1", "name": "harbor grill", "city": None},
                {"id": "p2", "name": "maple street", "city": None},
                {"id": "p3", "name": "nothing shared", "city": None},
            ]
        )
        blocker = TokenOverlapBlocker("name", min_overlap=1, top_k=3)
        batch_pairs = blocker.block(probes, restaurants)

        index = ShardedTokenIndex.from_blocker(blocker)
        index.add(restaurants)
        incremental_pairs = [
            (probe["id"], rid)
            for probe in probes
            for rid, _count in index.candidates(probe)
        ]
        assert incremental_pairs == batch_pairs

    def test_add_then_probe_grows(self, restaurants):
        index = ShardedTokenIndex("name", max_df=0.5)
        assert index.candidates({"id": "x", "name": "harbor grill"}) == []
        index.add(restaurants)
        assert len(index) == 5
        assert "r1" in index
        hits = index.candidates({"id": "x", "name": "harbor grill"})
        assert [rid for rid, _ in hits][:2] == ["r1", "r2"]

    def test_probe_excludes_itself_when_indexed(self, restaurants):
        index = ShardedTokenIndex("name")
        index.add(restaurants)
        hits = index.candidates(restaurants.get("r1"))
        assert "r1" not in [rid for rid, _ in hits]

    def test_min_overlap_filters(self, restaurants):
        index = ShardedTokenIndex("name", min_overlap=2, max_df=0.5)
        index.add(restaurants)
        hits = index.candidates({"id": "x", "name": "harbor grill"})
        # only r1/r2 share both tokens
        assert {rid for rid, _ in hits} == {"r1", "r2"}

    def test_top_k_override(self, restaurants):
        index = ShardedTokenIndex("name", max_df=0.5, top_k=10)
        index.add(restaurants)
        probe = {"id": "x", "name": "harbor view maple street sunset"}
        assert len(index.candidates(probe)) > 1
        assert len(index.candidates(probe, top_k=1)) == 1

    def test_df_pruning_tracks_index_size(self):
        index = ShardedTokenIndex("name", max_df=0.5)
        index.add([{"id": "a", "name": "common rare"}, {"id": "b", "name": "common other"}])
        # "common" is in 2/2 records > 50% → pruned at query time
        assert index.candidates({"id": "x", "name": "common"}) == []
        assert [rid for rid, _ in index.candidates({"id": "x", "name": "rare"})] == ["a"]

    def test_duplicate_add_raises(self, restaurants):
        index = ShardedTokenIndex("name")
        index.add(restaurants)
        with pytest.raises(ValueError, match="already indexed"):
            index.add([{"id": "r1", "name": "harbor view grill"}])

    def test_from_blocker_requires_token_overlap(self):
        with pytest.raises(TypeError, match="TokenOverlapBlocker"):
            ShardedTokenIndex.from_blocker(AttributeEquivalenceBlocker("city"))

    def test_params_round_trip(self, restaurants):
        index = ShardedTokenIndex(
            "name", tokenizer=QgramTokenizer(3), min_overlap=2, max_df=0.3, top_k=7
        )
        rebuilt = ShardedTokenIndex.from_params(index.params())
        rebuilt.add(restaurants)
        index.add(restaurants)
        probe = {"id": "x", "name": "harbor grill"}
        assert rebuilt.candidates(probe) == index.candidates(probe)

    def test_validation(self):
        with pytest.raises(ValueError, match="min_overlap"):
            ShardedTokenIndex("name", min_overlap=0)
        with pytest.raises(ValueError, match="max_df"):
            ShardedTokenIndex("name", max_df=0.0)
        with pytest.raises(ValueError, match="top_k"):
            ShardedTokenIndex("name", top_k=0)


class TestTokenizerSpec:
    @pytest.mark.parametrize(
        "tokenizer",
        [
            WhitespaceTokenizer(),
            WhitespaceTokenizer(lowercase=False),
            QgramTokenizer(2, padded=False),
            AlnumTokenizer(),
            DelimiterTokenizer(";", strip=False),
        ],
    )
    def test_round_trip(self, tokenizer):
        rebuilt = tokenizer_from_spec(tokenizer_spec(tokenizer))
        assert type(rebuilt) is type(tokenizer)
        text = "Harbor-View Grill; Est. 1999"
        assert rebuilt(text) == tokenizer(text)

    def test_custom_tokenizer_rejected(self):
        class Custom(WhitespaceTokenizer):
            pass

        with pytest.raises(TypeError, match="Custom"):
            tokenizer_spec(Custom())

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown tokenizer"):
            tokenizer_from_spec({"type": "bogus"})
