"""Tests for the experiment harness (on the tiny scale)."""

from collections import defaultdict

import pytest

from repro import load_benchmark
from repro.core import ZeroERConfig
from repro.eval.harness import (
    blocker_for,
    co_candidate_pairs,
    format_table,
    prepare_dataset,
    run_zeroer,
    zeroer_f1,
)


@pytest.fixture(scope="module")
def prep():
    return prepare_dataset("rest_fz", scale="tiny", seed=1)


class TestCoCandidatePairs:
    def test_right_side_pairs(self):
        cross = [("l1", "r1"), ("l1", "r2"), ("l2", "r2"), ("l2", "r3")]
        pairs = co_candidate_pairs(cross, side=1)
        assert set(pairs) == {("r1", "r2"), ("r2", "r3")}

    def test_left_side_pairs(self):
        cross = [("l1", "r1"), ("l2", "r1")]
        assert co_candidate_pairs(cross, side=0) == [("l1", "l2")]

    def test_cap_limits_fanout(self):
        cross = [("l", f"r{i}") for i in range(10)]
        pairs = co_candidate_pairs(cross, side=1, cap=3)
        assert len(pairs) == 3  # C(3,2)

    def test_no_duplicates(self):
        cross = [("l1", "r1"), ("l1", "r2"), ("l2", "r1"), ("l2", "r2")]
        pairs = co_candidate_pairs(cross, side=1)
        assert len(pairs) == len(set(pairs)) == 1

    def test_same_list_as_two_reprs_per_pair_on_mixed_ids(self):
        # the output order sets the row order of the within-table matrices
        bench = load_benchmark("pub_da", scale="tiny", seed=3)
        blocked = blocker_for("pub_da").block(bench.left, bench.right)
        ids = sorted({rid for pair in blocked for rid in pair})
        # ints, digit strings and the original ids: repr orders strings
        # before ints, and "'10'" before "'9'"
        mixed = {rid: (k, str(k), rid)[k % 3] for k, rid in enumerate(ids)}
        cross = [(mixed[a], mixed[b]) for a, b in blocked]
        for side in (0, 1):
            for cap in (1, 2, 3, 8, 50):
                want = _co_candidate_pairs_two_reprs(cross, side, cap)
                assert co_candidate_pairs(cross, side=side, cap=cap) == want, (side, cap)
        assert len(_co_candidate_pairs_two_reprs(cross, 1, 8)) > 100


def _co_candidate_pairs_two_reprs(cross_pairs, side, cap):
    """``co_candidate_pairs`` as first written: two ``repr`` calls per pair."""
    anchor = 1 - side
    grouped = defaultdict(list)
    for pair in cross_pairs:
        grouped[pair[anchor]].append(pair[side])
    out, seen = [], set()
    for members in grouped.values():
        members = members[:cap]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                key = (a, b) if repr(a) <= repr(b) else (b, a)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


class TestPrepareDataset:
    def test_prepared_shapes_align(self, prep):
        assert prep.X.shape == (len(prep.pairs), len(prep.feature_names))
        assert prep.y.shape == (len(prep.pairs),)

    def test_groups_cover_features(self, prep):
        flat = sorted(j for g in prep.feature_groups for j in g)
        assert flat == list(range(len(prep.feature_names)))

    def test_blocking_stats_present(self, prep):
        assert 0.0 < prep.blocking["recall"] <= 1.0
        assert prep.blocking["n_candidates"] == len(prep.pairs)

    def test_cache_returns_same_object(self, prep):
        again = prepare_dataset("rest_fz", scale="tiny", seed=1)
        assert again is prep

    def test_without_within_served_by_full_cache(self, prep):
        light = prepare_dataset("rest_fz", scale="tiny", seed=1, with_within=False)
        assert light is prep

    def test_blocker_recipe_exists_for_all(self):
        from repro.data import BENCHMARK_NAMES
        for name in BENCHMARK_NAMES:
            assert blocker_for(name) is not None


class TestRunZeroER:
    def test_metrics_shape(self, prep):
        res = run_zeroer(prep, ZeroERConfig(transitivity=False))
        assert 0.0 <= res["f1"] <= 1.0
        assert res["n_pairs"] == len(prep.pairs)
        assert res["scores"].shape == (len(prep.pairs),)

    def test_rest_fz_tiny_solves_well(self, prep):
        res = run_zeroer(prep)
        assert res["f1"] > 0.8

    def test_zeroer_f1_swallows_em_failures(self, prep):
        # ε = 0 is the paper's guaranteed-failure initialization
        assert zeroer_f1(prep, ZeroERConfig(init_threshold=0.0)) == 0.0


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        out = format_table(
            [{"dataset": "x", "f1": 0.5}, {"dataset": "y", "f1": 1.0}],
            ["dataset", "f1"],
            title="T",
        )
        assert "T" in out and "dataset" in out
        assert "0.5" in out and "1" in out

    def test_missing_cells_blank(self):
        out = format_table([{"a": 1}], ["a", "b"])
        assert out.splitlines()[-1].strip().endswith("|") or "1" in out

    def test_nan_rendered(self):
        out = format_table([{"a": float("nan")}], ["a"])
        assert "nan" in out
