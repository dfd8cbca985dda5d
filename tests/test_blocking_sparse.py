"""The sparse columnar blocking kernel is equivalent to the per-record loop.

Acceptance bar for the blocking engine: on every fixture dataset, in both
record-linkage and deduplication modes, ``TokenOverlapBlocker.block`` emits
the *bit-identical* candidate pair list (same pairs, same order) as the
Counter-based oracle in ``reference_blocking`` — through the blocker and
through the pipeline.
"""

import numpy as np
import pytest

from reference_blocking import PerRecordBlocker
from repro.blocking import QgramBlocker, TokenOverlapBlocker, candidate_statistics
from repro.blocking.batch import TokenEncoding, sparse_overlap_select
from repro.data.benchmarks import BENCHMARK_NAMES, load_benchmark
from repro.data.table import Table
from repro import ERPipeline

#: Per-dataset blocking attribute (primary harness recipe).
_ATTR = {
    "rest_fz": "name",
    "pub_da": "title",
    "pub_ds": "title",
    "mv_ri": "title",
    "prod_ab": "name",
    "prod_ag": "title",
}


def _engines(attr, **params):
    """The production blocker and the per-record oracle, same parameters."""
    blocker = TokenOverlapBlocker(attr, **params)
    return blocker, PerRecordBlocker(blocker)


class TestDatasetParity:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
    def test_linkage_bit_identical(self, name):
        ds = load_benchmark(name, scale="tiny", seed=5)
        sparse, ref = _engines(_ATTR[name], min_overlap=1, top_k=60)
        assert sparse.block(ds.left, ds.right) == ref.block(ds.left, ds.right)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
    def test_dedup_bit_identical(self, name):
        merged, _ = load_benchmark(name, scale="tiny", seed=5).as_dedup()
        sparse, ref = _engines(_ATTR[name], min_overlap=1, top_k=60)
        assert sparse.block(merged) == ref.block(merged)

    @pytest.mark.parametrize("name", ["pub_da", "prod_ab"])
    @pytest.mark.parametrize(
        "params",
        [
            dict(min_overlap=2, top_k=5),
            dict(min_overlap=1, max_df=1.0),
            dict(min_overlap=1, top_k=1),
            dict(min_overlap=3, max_df=0.5, top_k=10),
        ],
    )
    def test_parameter_grid(self, name, params):
        ds = load_benchmark(name, scale="tiny", seed=7)
        sparse, ref = _engines(_ATTR[name], **params)
        assert sparse.block(ds.left, ds.right) == ref.block(ds.left, ds.right)
        merged, _ = ds.as_dedup()
        assert sparse.block(merged) == ref.block(merged)

    @pytest.mark.parametrize("name", ["rest_fz", "prod_ag"])
    def test_qgram_parity(self, name):
        ds = load_benchmark(name, scale="tiny", seed=3)
        sparse = QgramBlocker(_ATTR[name])
        ref = PerRecordBlocker(sparse)
        assert sparse.block(ds.left, ds.right) == ref.block(ds.left, ds.right)


class TestEdgeCases:
    def test_empty_tables(self):
        empty = Table([], attributes=["name"])
        one = Table([{"id": "a", "name": "x y"}], attributes=["name"])
        for blocker in _engines("name"):
            assert blocker.block(empty, one) == []
            assert blocker.block(one, empty) == []
            assert blocker.block(empty) == []

    def test_all_missing_values(self):
        t = Table([{"id": i, "name": None} for i in range(3)], attributes=["name"])
        sparse, ref = _engines("name", max_df=1.0)
        assert sparse.block(t) == ref.block(t) == []

    def test_probe_tokens_outside_target_vocabulary(self):
        left = Table([{"id": "l", "name": "unseen tokens only"}], attributes=["name"])
        right = Table([{"id": "r", "name": "completely different"}], attributes=["name"])
        sparse, ref = _engines("name", max_df=1.0)
        assert sparse.block(left, right) == ref.block(left, right) == []

    def test_top_k_tie_breaks_by_target_order(self):
        left = Table([{"id": "l", "name": "a b c"}], attributes=["name"])
        right = Table(
            [
                {"id": "one", "name": "a x y"},
                {"id": "three", "name": "a b c"},
                {"id": "two", "name": "a b z"},
            ],
            attributes=["name"],
        )
        for blocker in _engines("name", top_k=1, max_df=1.0):
            assert blocker.block(left, right) == [("l", "three")]

    def test_small_chunks_match_single_pass(self):
        ds = load_benchmark("pub_da", scale="tiny", seed=2)
        blocker = TokenOverlapBlocker("title", min_overlap=1, top_k=20)
        tokenizer, attr = blocker.tokenizer, "title"
        target = TokenEncoding.encode(ds.right, tokenizer, attr)
        probe = TokenEncoding.encode(ds.left, tokenizer, attr, vocab=target.vocab)
        whole = sparse_overlap_select(probe, target, min_overlap=1, max_df=0.2, top_k=20)
        chunked = sparse_overlap_select(
            probe, target, min_overlap=1, max_df=0.2, top_k=20, chunk_entries=64
        )
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk_entries", [1, 64])
    def test_small_chunks_dedup_matches_single_pass(self, chunk_entries):
        # the dedup mask depends on chunk-global probe positions, so it must
        # survive arbitrary chunk boundaries
        merged, _ = load_benchmark("pub_da", scale="tiny", seed=2).as_dedup()
        tokenizer = TokenOverlapBlocker("title").tokenizer
        enc = TokenEncoding.encode(merged, tokenizer, "title")
        whole = sparse_overlap_select(enc, enc, min_overlap=1, max_df=0.2, top_k=20, dedup=True)
        chunked = sparse_overlap_select(
            enc,
            enc,
            min_overlap=1,
            max_df=0.2,
            top_k=20,
            dedup=True,
            chunk_entries=chunk_entries,
        )
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)



class TestPipelineAndKnobs:
    def test_pipeline_engines_agree(self):
        # the pipeline's default blocker scores exactly the oracle's pairs
        merged, _ = load_benchmark("rest_fz", scale="tiny", seed=6).as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        result = pipeline.run(merged)
        assert result.pairs == PerRecordBlocker(pipeline.blocker).block(merged)

    def test_retired_engine_spec_key_is_ignored(self):
        for engine in ("sparse", "per-record"):
            spec = {"type": "token_overlap", "attribute": "name", "top_k": 5, "engine": engine}
            blocker = TokenOverlapBlocker.from_spec(spec)
            assert blocker.to_spec() == TokenOverlapBlocker("name", top_k=5).to_spec()
            qgram = QgramBlocker.from_spec({"type": "qgram", "attribute": "name", "engine": engine})
            assert "engine" not in qgram.to_spec()


class TestCandidateStatistics:
    def test_gold_none_reports_label_free_stats(self):
        stats = candidate_statistics([("a", "b")], None, 2, 3)
        assert stats == {"n_candidates": 1, "reduction_ratio": 1.0 - 1 / 6}

    def test_prebuilt_sets_used_as_is(self):
        gold = frozenset({("a", "b")})
        stats = candidate_statistics({("a", "b"), ("a", "c")}, gold, 2, 3)
        assert stats["recall"] == 1.0
        assert stats["n_candidates"] == 2

    def test_total_pairs_override_for_dedup(self):
        stats = candidate_statistics([(0, 1), (1, 2)], None, 4, 4, total_pairs=6)
        assert stats["reduction_ratio"] == pytest.approx(1 - 2 / 6)
