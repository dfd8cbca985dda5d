"""Tests for the high-level ERPipeline."""

import numpy as np
import pytest

from repro import ZeroERConfig, load_benchmark
from repro.blocking import AttributeEquivalenceBlocker
from repro.eval import f_score
from repro import ERPipeline, ERResult


@pytest.fixture(scope="module")
def dataset():
    return load_benchmark("rest_fz", scale="tiny", seed=2)


class TestERPipeline:
    def test_requires_blocker_or_attribute(self):
        with pytest.raises(ValueError, match="blocking_attribute"):
            ERPipeline()

    def test_linkage_run(self, dataset):
        pipeline = ERPipeline(blocking_attribute="name")
        result = pipeline.run(dataset.left, dataset.right)
        y = dataset.labels_for(result.pairs)
        assert f_score(y, result.labels) > 0.7
        assert result.scores.shape == (len(result.pairs),)

    def test_transitivity_disabled_uses_single_model(self, dataset):
        from repro.core.model import ZeroER

        pipeline = ERPipeline(
            blocking_attribute="name", config=ZeroERConfig(transitivity=False)
        )
        pipeline.run(dataset.left, dataset.right)
        assert isinstance(pipeline.model_, ZeroER)

    def test_transitivity_enabled_uses_linkage_model(self, dataset):
        from repro.core.linkage import ZeroERLinkage

        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(dataset.left, dataset.right)
        assert isinstance(pipeline.model_, ZeroERLinkage)

    def test_dedup_run(self, dataset):
        merged, _ = dataset.as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        result = pipeline.run(merged)
        assert len(result.pairs) > 0
        assert set(np.unique(result.labels)) <= {0, 1}

    def test_custom_blocker(self, dataset):
        pipeline = ERPipeline(blocker=AttributeEquivalenceBlocker("city"))
        result = pipeline.run(dataset.left, dataset.right)
        # equivalence blocking on city produces only same-city pairs
        for left_id, right_id in result.pairs:
            assert dataset.left.get(left_id)["city"] == dataset.right.get(right_id)["city"]

    def test_empty_candidates(self, dataset):
        pipeline = ERPipeline(
            blocker=AttributeEquivalenceBlocker("name", transform=lambda v: v + "-no-match")
        )
        left = dataset.left.head(3)
        right_records = [dict(r, id=f"X{i}", name="zzz") for i, r in enumerate(dataset.right.head(3))]
        from repro.data.table import Table

        right = Table(right_records, attributes=dataset.right.attributes)
        result = pipeline.run(left, right)
        assert result.pairs == []
        assert result.labels.shape == (0,)

    def test_result_helpers(self, dataset):
        pipeline = ERPipeline(blocking_attribute="name")
        result = pipeline.run(dataset.left, dataset.right)
        assert isinstance(result, ERResult)
        top = result.top_matches(3)
        assert len(top) <= 3
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)
        assert set(result.matches) == {p for p, l in zip(result.pairs, result.labels) if l == 1}

    def test_timings_recorded(self, dataset):
        pipeline = ERPipeline(blocking_attribute="name")
        result = pipeline.run(dataset.left, dataset.right)
        assert set(result.seconds) == {"blocking", "features", "matching"}
        assert all(v >= 0 for v in result.seconds.values())
