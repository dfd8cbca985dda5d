"""`FeatureGenerator.transform` is equivalent to the per-pair oracle.

The acceptance bar for the columnar featurization kernels: on every fixture
dataset (and a battery of hand-built edge cases) the batch matrix has the
identical NaN pattern and values ``allclose`` to
``reference_batch.per_pair_transform`` — and for the set/edit measures,
bit-identical values.
"""

import numpy as np
import pytest

from reference_batch import per_pair_transform
from repro.data.benchmarks import BENCHMARK_NAMES, load_benchmark
from repro.data.table import Table
from repro.eval.harness import blocker_for
from repro.features.generator import FeatureGenerator
from repro import ERPipeline

#: Cap per-dataset pair counts so the full six-dataset sweep stays fast.
_MAX_PAIRS = 600


def _assert_parity(gen, left, right, pairs, *, rtol=1e-9, atol=1e-12):
    X_batch = gen.transform(left, right, pairs)
    X_ref = per_pair_transform(gen, left, right, pairs)
    assert X_batch.shape == X_ref.shape
    assert np.array_equal(np.isnan(X_batch), np.isnan(X_ref)), "NaN patterns differ"
    assert np.allclose(
        np.nan_to_num(X_batch), np.nan_to_num(X_ref), rtol=rtol, atol=atol
    ), "values differ beyond tolerance"
    # everything except numeric (libm exp), tfidf, and Monge–Elkan
    # (summation order) must be bit-identical
    for j, spec in enumerate(gen.features_):
        if spec.family in ("numeric", "tfidf", "hybrid"):
            continue
        same = (X_batch[:, j] == X_ref[:, j]) | (
            np.isnan(X_batch[:, j]) & np.isnan(X_ref[:, j])
        )
        assert same.all(), f"{spec.name} not bit-identical"
    return X_batch


@pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
def test_parity_on_fixture_dataset(name):
    ds = load_benchmark(name, scale="tiny", seed=5)
    pairs = blocker_for(name).block(ds.left, ds.right)
    if len(pairs) > _MAX_PAIRS:
        rng = np.random.default_rng(5)
        keep = rng.choice(len(pairs), _MAX_PAIRS, replace=False)
        pairs = [pairs[int(i)] for i in keep]
    gen = FeatureGenerator().fit(ds.left, ds.right, ds.attributes)
    _assert_parity(gen, ds.left, ds.right, pairs)


class TestEdgeCases:
    def test_empty_strings_vs_missing(self):
        left = Table(
            [
                {"id": "l1", "name": "", "note": ""},
                {"id": "l2", "name": "ada lovelace", "note": "first programmer"},
                {"id": "l3", "name": None, "note": None},
            ]
        )
        right = Table(
            [
                {"id": "r1", "name": "", "note": "x"},
                {"id": "r2", "name": "ada lovelace", "note": None},
                {"id": "r3", "name": "grace hopper", "note": ""},
            ]
        )
        gen = FeatureGenerator().fit(left, right)
        pairs = [(l, r) for l in ("l1", "l2", "l3") for r in ("r1", "r2", "r3")]
        X = _assert_parity(gen, left, right, pairs)
        # present-but-empty values score, missing values are NaN
        assert np.isnan(X[6]).all()  # l3 has no values at all

    def test_all_nan_column(self):
        left = Table([{"id": f"l{i}", "a": f"value {i}", "b": None} for i in range(4)])
        right = Table([{"id": f"r{i}", "a": f"value {i + 1}", "b": None} for i in range(4)])
        gen = FeatureGenerator().fit(left, right)
        pairs = [(f"l{i}", f"r{j}") for i in range(4) for j in range(4)]
        X = _assert_parity(gen, left, right, pairs)
        b_cols = gen.feature_groups_[1]
        assert np.isnan(X[:, b_cols]).all()

    def test_non_bmp_unicode(self):
        # astral-plane characters: the utf-32 batch encoding must agree with
        # python-level character semantics in the kernels and the oracle
        names = ["𝕏-ray crystallography", "x-ray crystallography", "𝄞 music 𝄞 notation",
                 "café ☕ corner", "naïve 𝒷ayes", "naive bayes"]
        left = Table([{"id": f"l{i}", "name": v} for i, v in enumerate(names)])
        right = Table([{"id": f"r{i}", "name": v} for i, v in enumerate(reversed(names))])
        gen = FeatureGenerator().fit(left, right)
        pairs = [(f"l{i}", f"r{j}") for i in range(6) for j in range(6)]
        _assert_parity(gen, left, right, pairs)

    def test_dedup_pairs(self):
        merged, _ = load_benchmark("rest_fz", scale="tiny", seed=9).as_dedup()
        ids = merged.ids()
        rng = np.random.default_rng(9)
        pairs = [
            (ids[int(i)], ids[int(j)])
            for i, j in rng.integers(0, len(ids), size=(200, 2))
        ] + [(ids[0], ids[0])]  # self-pair
        gen = FeatureGenerator().fit(merged)
        X = _assert_parity(gen, merged, None, pairs)
        # a record compared with itself scores 1 on all present string features
        finite = X[-1][np.isfinite(X[-1])]
        assert np.allclose(finite, 1.0)

    def test_numeric_and_boolean_attributes(self):
        left = Table(
            [
                {"id": "l1", "price": 10.0, "instock": "yes"},
                {"id": "l2", "price": "bad-number", "instock": "no"},
                {"id": "l3", "price": 0.0, "instock": None},
            ]
        )
        right = Table(
            [
                {"id": "r1", "price": 10.5, "instock": "yes"},
                {"id": "r2", "price": None, "instock": "no"},
                {"id": "r3", "price": 0.0, "instock": "yes"},
            ]
        )
        gen = FeatureGenerator().fit(left, right)
        pairs = [(l, r) for l in ("l1", "l2", "l3") for r in ("r1", "r2", "r3")]
        _assert_parity(gen, left, right, pairs)

    def test_empty_pair_list(self):
        left = Table([{"id": "l1", "name": "x"}])
        gen = FeatureGenerator().fit(left)
        assert gen.transform(left, None, []).shape == (0, len(gen.feature_names_))

    def test_timings_collected(self):
        left = Table([{"id": "l1", "name": "golden dragon"}, {"id": "l2", "name": "blue lotus"}])
        gen = FeatureGenerator().fit(left)
        timings = {}
        gen.transform(left, None, [("l1", "l2")], timings=timings)
        assert set(timings) == set(gen.feature_names_)
        assert all(t >= 0.0 for t in timings.values())


class TestRestoredGeneratorParity:
    def test_from_state_round_trip_matches_both_engines(self):
        ds = load_benchmark("prod_ab", scale="tiny", seed=2)
        pairs = blocker_for("prod_ab").block(ds.left, ds.right)[:200]
        gen = FeatureGenerator().fit(ds.left, ds.right, ds.attributes)
        restored = FeatureGenerator.from_state(gen.get_state())
        X = gen.transform(ds.left, ds.right, pairs)
        X_restored = restored.transform(ds.left, ds.right, pairs)
        assert np.array_equal(np.isnan(X), np.isnan(X_restored))
        assert np.allclose(np.nan_to_num(X), np.nan_to_num(X_restored))
        _assert_parity(restored, ds.left, ds.right, pairs)


class TestIncrementalResolverParity:
    def test_resolver_scores_identical_across_engines(self):
        # the resolver's batch kernels score what the per-pair oracle scores
        merged, _ = load_benchmark("rest_fz", scale="tiny", seed=6).as_dedup()
        records = list(merged)
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(Table(records[:-8], attributes=merged.attributes))
        resolver = pipeline.freeze()
        result = resolver.resolve(records[-8:])
        assert result.pairs

        X_ref = per_pair_transform(resolver.generator, resolver.store, None, result.pairs)
        ref_scores = resolver.model.predict_proba(X_ref)
        assert np.allclose(result.scores, ref_scores, rtol=1e-9)
        ref_matches = [p for p, s in zip(result.pairs, ref_scores) if s > resolver.threshold]
        assert result.matches == ref_matches

    def test_clear_caches_hook(self):
        merged, _ = load_benchmark("rest_fz", scale="tiny", seed=6).as_dedup()
        records = list(merged)
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(Table(records[:-3], attributes=merged.attributes))
        resolver = pipeline.freeze()
        resolver.resolve(records[-3:])
        resolver.clear_caches()  # must not disturb subsequent resolves

    def test_jw_cache_reconfigure(self):
        from repro.features import clear_feature_caches, configure_jw_cache
        from repro.features import generator as generator_mod

        original = generator_mod._cached_jaro_winkler
        try:
            configure_jw_cache(128)
            assert generator_mod._cached_jaro_winkler.cache_info().maxsize == 128
            assert generator_mod._monge_elkan_jw(("ab",), ("ac",)) > 0.0
            assert generator_mod._cached_jaro_winkler.cache_info().currsize > 0
            clear_feature_caches()
            assert generator_mod._cached_jaro_winkler.cache_info().currsize == 0
        finally:
            generator_mod._cached_jaro_winkler = original
