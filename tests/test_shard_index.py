"""ShardedTokenIndex: candidate parity with the reference engine's index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.shard.index as shard_index
from reference_engine import IncrementalTokenIndex
from repro.shard import ShardedTokenIndex, shard_of_token

_WORDS = (
    "harbor", "maple", "sunset", "copper", "willow", "granite",
    "juniper", "crimson", "meadow", "ivory", "cobalt", "timber",
    "velvet", "orchid", "saffron", "lagoon", "ember", "prairie",
    "quartz", "falcon", "aurora", "basalt", "cedar", "delta",
)


def _records(n, seed=0, n_tokens=4):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        words = rng.choice(len(_WORDS), size=n_tokens, replace=True)
        out.append({"id": f"r{i}", "name": " ".join(_WORDS[w] for w in words)})
    return out


def _pair(n_shards, **kwargs):
    reference = IncrementalTokenIndex("name", **kwargs)
    sharded = ShardedTokenIndex("name", n_shards=n_shards, **kwargs)
    return reference, sharded


def _assert_same_candidates(reference, sharded, probes, top_k=None):
    for probe in probes:
        assert sharded.candidates(probe, top_k=top_k) == reference.candidates(
            probe, top_k=top_k
        ), f"divergence on probe {probe['id']!r}"


class TestCandidateParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 5, 16])
    def test_matches_reference_for_any_shard_count(self, n_shards):
        reference, sharded = _pair(n_shards, max_df=0.5, top_k=10)
        records = _records(120, seed=1)
        reference.add(records)
        sharded.add(records)
        _assert_same_candidates(reference, sharded, _records(40, seed=2))

    def test_probe_then_add_sequence(self):
        """Interleaved probe/add: df caps and postings grow mid-stream."""
        reference, sharded = _pair(4, max_df=0.3, top_k=8)
        seed_records = _records(50, seed=3)
        reference.add(seed_records)
        sharded.add(seed_records)
        for i, rec in enumerate(_records(60, seed=4)):
            rec = dict(rec, id=f"s{i}")
            assert sharded.candidates(rec) == reference.candidates(rec)
            reference.add([rec])
            sharded.add([rec])

    def test_indexed_probe_excludes_itself(self):
        reference, sharded = _pair(3, max_df=0.9)
        records = _records(30, seed=5)
        reference.add(records)
        sharded.add(records)
        _assert_same_candidates(reference, sharded, records)

    def test_df_pruning_uses_global_frequency(self):
        """A token over the df cap is pruned in whichever shard it lives."""
        reference, sharded = _pair(4, max_df=0.2)
        records = [{"id": f"c{i}", "name": f"common word{i}"} for i in range(20)]
        reference.add(records)
        sharded.add(records)
        probe = {"id": "p", "name": "common word3"}
        assert sharded.candidates(probe) == reference.candidates(probe)
        # "common" has df 20 > cap 4, so only "word3" contributes
        assert reference.candidates(probe) == [("c3", 1)]

    def test_sealing_and_compaction_preserve_results(self, monkeypatch):
        monkeypatch.setattr(shard_index, "SEAL_TAIL_ENTRIES", 8)
        monkeypatch.setattr(shard_index, "_MAX_SEGMENTS", 3)
        reference, sharded = _pair(2, max_df=0.8, top_k=12)
        for chunk_seed in range(6):
            chunk = [
                dict(rec, id=f"k{chunk_seed}-{i}")
                for i, rec in enumerate(_records(25, seed=10 + chunk_seed))
            ]
            reference.add(chunk)
            sharded.add(chunk)
            _assert_same_candidates(reference, sharded, _records(10, seed=99))
        assert any(info["segments"] > 0 for info in sharded.shard_sizes())

    def test_empty_index_returns_no_candidates(self):
        _, sharded = _pair(4)
        assert sharded.candidates({"id": "p", "name": "anything"}) == []


#: Tiny token universe → dense overlap structure, frequent ties, df pruning.
_FUZZ_TOKENS = ("alpha", "beta", "gamma", "delta", "eps")
_fuzz_value = st.one_of(
    st.none(),
    st.just(""),
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=4).map(" ".join),
)


@settings(max_examples=75, deadline=None)
@given(
    values=st.lists(_fuzz_value, min_size=1, max_size=12),
    probes=st.lists(_fuzz_value, max_size=6),
    params=st.fixed_dictionaries(
        {
            "min_overlap": st.integers(1, 3),
            "max_df": st.sampled_from([0.1, 0.3, 0.5, 1.0]),
            "top_k": st.one_of(st.none(), st.integers(1, 4)),
        }
    ),
    n_shards=st.sampled_from([1, 3]),
)
def test_random_streams_match_reference(values, probes, params, n_shards):
    """Probe-then-add streams over random tables rank exactly like the reference."""
    reference = IncrementalTokenIndex("toks", **params)
    engine = ShardedTokenIndex("toks", n_shards=n_shards, **params)
    table = [{"id": f"t{i}", "toks": v} for i, v in enumerate(values)]
    reference.add(table)
    engine.add(table)
    for i, value in enumerate(probes):
        probe = {"id": f"p{i}", "toks": value}
        assert engine.candidates(probe) == reference.candidates(probe)
        reference.add([probe])
        engine.add([probe])
    for record in table:
        assert engine.candidates(record) == reference.candidates(record)


class TestContract:
    def test_duplicate_id_rejected(self):
        _, sharded = _pair(2)
        sharded.add([{"id": "a", "name": "x"}])
        with pytest.raises(ValueError, match="already indexed"):
            sharded.add([{"id": "a", "name": "y"}])

    def test_from_params_round_trip(self):
        sharded = ShardedTokenIndex(
            "name", min_overlap=2, max_df=0.4, top_k=7, n_shards=6
        )
        rebuilt = ShardedTokenIndex.from_params(sharded.params())
        assert rebuilt.params() == sharded.params()
        assert rebuilt.n_shards == 6

    def test_touched_shards_drain(self):
        _, sharded = _pair(8)
        sharded.add(_records(50, seed=6))
        probe = _records(1, seed=7)[0]
        sharded.candidates(probe)
        touched = sharded.drain_touched()
        df_cap = max(1, int(sharded.max_df * len(sharded)))
        expected = {
            shard_of_token(tok, 8)
            for tok in probe["name"].split()
            if tok in sharded._gdf and sharded._gdf[tok] <= df_cap
        }
        assert touched == expected
        assert sharded.drain_touched() == set()

    def test_shard_routing_is_stable(self):
        """Every token's postings live in exactly the shard its hash names."""
        sharded = ShardedTokenIndex("name", n_shards=8, max_df=1.0)
        sharded.add(_records(40, seed=8))
        for shard in sharded._shards:
            for tok in shard.merged_postings():
                assert shard_of_token(tok, 8) == shard.shard_id
