"""Tests for the Magellan-style feature generator."""

import numpy as np
import pytest

from reference_batch import per_pair_transform
from repro.data.table import Table
from repro.features.generator import FeatureGenerator, clear_feature_caches, jw_cache_info
from repro.features.types import AttributeType


@pytest.fixture
def tables():
    left = Table(
        [
            {"id": "l1", "name": "golden dragon", "desc": " ".join(["w"] * 12), "price": 10.0},
            {"id": "l2", "name": "blue lotus", "desc": " ".join(["x"] * 12), "price": 20.0},
        ],
        attributes=["name", "desc", "price"],
    )
    right = Table(
        [
            {"id": "r1", "name": "golden dragonn", "desc": " ".join(["w"] * 12), "price": 10.5},
            {"id": "r2", "name": "iron skillet", "desc": None, "price": None},
        ],
        attributes=["name", "desc", "price"],
    )
    return left, right


class TestFit:
    def test_types_inferred(self, tables):
        gen = FeatureGenerator().fit(*tables, attributes=["name", "desc", "price"])
        assert gen.attribute_types_["name"] is AttributeType.MEDIUM_STRING
        assert gen.attribute_types_["desc"] is AttributeType.LONG_STRING
        assert gen.attribute_types_["price"] is AttributeType.NUMERIC

    def test_groups_partition_features(self, tables):
        gen = FeatureGenerator().fit(*tables)
        d = len(gen.feature_names_)
        flat = sorted(j for g in gen.feature_groups_ for j in g)
        assert flat == list(range(d))
        assert len(gen.feature_groups_) == 3  # one group per attribute

    def test_feature_names_carry_attribute_prefix(self, tables):
        gen = FeatureGenerator().fit(*tables)
        for name in gen.feature_names_:
            assert name.split("_")[0] in ("name", "desc", "price")

    def test_type_override(self, tables):
        gen = FeatureGenerator(type_overrides={"name": AttributeType.SHORT_STRING}).fit(*tables)
        assert gen.attribute_types_["name"] is AttributeType.SHORT_STRING

    def test_unknown_attribute_raises(self, tables):
        with pytest.raises(KeyError, match="not in left"):
            FeatureGenerator().fit(*tables, attributes=["bogus"])

    def test_group_of(self, tables):
        gen = FeatureGenerator().fit(*tables)
        assert gen.group_of(gen.feature_names_[0]) == "name"
        with pytest.raises(KeyError):
            gen.group_of("nope")

    def test_unfitted_raises(self):
        gen = FeatureGenerator()
        with pytest.raises(RuntimeError, match="fitted"):
            _ = gen.feature_names_


class TestTransform:
    def test_shape(self, tables):
        left, right = tables
        gen = FeatureGenerator().fit(left, right)
        pairs = [("l1", "r1"), ("l2", "r2")]
        X = gen.transform(left, right, pairs)
        assert X.shape == (2, len(gen.feature_names_))

    def test_similar_pair_scores_higher(self, tables):
        left, right = tables
        gen = FeatureGenerator().fit(left, right)
        X = gen.transform(left, right, [("l1", "r1"), ("l2", "r1")])
        name_cols = gen.feature_groups_[0]
        assert np.nanmean(X[0, name_cols]) > np.nanmean(X[1, name_cols])

    def test_missing_values_produce_nan(self, tables):
        left, right = tables
        gen = FeatureGenerator().fit(left, right)
        X = gen.transform(left, right, [("l1", "r2")])
        desc_cols = gen.feature_groups_[1]
        price_cols = gen.feature_groups_[2]
        assert np.all(np.isnan(X[0, desc_cols]))
        assert np.all(np.isnan(X[0, price_cols]))

    def test_values_bounded(self, tables):
        left, right = tables
        gen = FeatureGenerator().fit(left, right)
        pairs = [(l, r) for l in ("l1", "l2") for r in ("r1", "r2")]
        X = gen.transform(left, right, pairs)
        finite = X[np.isfinite(X)]
        assert np.all(finite >= 0.0) and np.all(finite <= 1.0 + 1e-9)

    def test_dedup_mode(self, tables):
        left, _ = tables
        gen = FeatureGenerator().fit(left)
        X = gen.transform(left, None, [("l1", "l2"), ("l1", "l1")])
        # self-pair must be all-1 on string features (identical values)
        name_cols = gen.feature_groups_[0]
        assert np.allclose(X[1, name_cols], 1.0)

    def test_numeric_scale_from_data(self, tables):
        left, right = tables
        gen = FeatureGenerator().fit(left, right)
        price_specs = [s for s in gen.features_ if s.attribute == "price" and hasattr(s, "scale")]
        abs_spec = [s for s in price_specs if getattr(s, "kind", None) == "absolute"][0]
        assert abs_spec.scale > 0.0


class TestExactFeature:
    """The batch exact-match column compares interned value ids."""

    @pytest.fixture
    def coded(self):
        left = Table(
            [
                {"id": "l1", "code": "Zürich"},
                {"id": "l2", "code": None},
                {"id": "l3", "code": "北京"},
                {"id": "l4", "code": 1999},
                {"id": "l5", "code": "𝕏 ray"},
            ],
            attributes=["code"],
        )
        right = Table(
            [
                {"id": "r1", "code": "Zürich"},
                {"id": "r2", "code": "zurich"},
                {"id": "r3", "code": "北京"},
                {"id": "r4", "code": None},
                {"id": "r5", "code": "1999"},
                {"id": "r6", "code": "𝕏 ray"},
            ],
            attributes=["code"],
        )
        gen = FeatureGenerator(type_overrides={"code": AttributeType.BOOLEAN}).fit(left, right)
        assert gen.feature_names_ == ["code_exact"]
        return left, right, gen

    def test_cross_batch_values(self, coded):
        left, right, gen = coded
        pairs = [(l, r) for l in left.ids() for r in right.ids()]
        X = gen.transform(left, right, pairs)[:, 0]
        got = dict(zip(pairs, X.tolist()))
        # equal strings on the two sides share an id, whatever their script
        assert got[("l1", "r1")] == 1.0 and got[("l3", "r3")] == 1.0
        assert got[("l5", "r6")] == 1.0
        assert got[("l4", "r5")] == 1.0  # compared as strings, like exact_match
        assert got[("l1", "r2")] == 0.0 and got[("l3", "r1")] == 0.0
        assert np.isnan(got[("l2", "r1")]) and np.isnan(got[("l1", "r4")])
        assert np.isnan(got[("l2", "r4")])
        per_pair = per_pair_transform(gen, left, right, pairs)[:, 0]
        assert X.tobytes() == per_pair.tobytes()

    def test_dedup_batch_matches_per_pair(self, coded):
        left, _, gen = coded
        ids = left.ids()
        pairs = [(a, b) for a in ids for b in ids]
        X = gen.transform(left, None, pairs)[:, 0]
        assert X.tobytes() == per_pair_transform(gen, left, None, pairs)[:, 0].tobytes()
        assert set(X[np.isfinite(X)].tolist()) == {0.0, 1.0}


def test_batch_transform_leaves_jw_token_cache_untouched(tables):
    # the Jaro–Winkler token cache serves the per-pair fallback only
    left, right = tables
    gen = FeatureGenerator().fit(left, right)
    assert any(name.endswith("_me_jw") for name in gen.feature_names_)
    pairs = [(l, r) for l in ("l1", "l2") for r in ("r1", "r2")]
    clear_feature_caches()
    gen.transform(left, right, pairs)
    info = jw_cache_info()
    assert info["hits"] == info["misses"] == info["currsize"] == 0
    per_pair_transform(gen, left, right, pairs)
    assert jw_cache_info()["misses"] > 0
    clear_feature_caches()
