"""Staged-session tests: parity with run(), caching, overrides, invalidation."""

import numpy as np
import pytest

from repro import ERPipeline, ERResult, ZeroERConfig, load_benchmark
from repro.api import CandidateSet, FeatureMatrix, MatchSet
from repro.blocking import AttributeEquivalenceBlocker
from repro.features import FeatureGenerator


@pytest.fixture(scope="module")
def dataset():
    return load_benchmark("rest_fz", scale="tiny", seed=2)


@pytest.fixture(scope="module")
def dedup_table(dataset):
    merged, _ = dataset.as_dedup()
    return merged


def _assert_result_equal(a: ERResult, b: ERResult):
    assert a.pairs == b.pairs
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.labels, b.labels)
    assert a.feature_names == b.feature_names


class TestStagedParity:
    def test_linkage_chain_matches_run(self, dataset):
        run_result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        staged = session.block().featurize().match()
        assert isinstance(staged, MatchSet)
        _assert_result_equal(staged.to_result(), run_result)

    def test_dedup_chain_matches_run(self, dedup_table):
        run_result = ERPipeline(blocking_attribute="name").run(dedup_table)
        session = ERPipeline(blocking_attribute="name").session(dedup_table)
        staged = session.block().featurize().match()
        _assert_result_equal(staged.to_result(), run_result)

    def test_session_run_equals_pipeline_run(self, dataset):
        run_result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        session_result = (
            ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right).run()
        )
        _assert_result_equal(session_result, run_result)
        assert set(session_result.seconds) == {"blocking", "features", "matching"}


class TestArtifacts:
    def test_candidate_set(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        candidates = session.block()
        assert isinstance(candidates, CandidateSet)
        assert len(candidates) == len(candidates.pairs) > 0
        stats = candidates.statistics(dataset.matches)
        assert stats["n_candidates"] == len(candidates)
        assert 0.0 < stats["recall"] <= 1.0

    def test_candidate_statistics_dedup_denominator(self, dedup_table):
        session = ERPipeline(blocking_attribute="name").session(dedup_table)
        stats = session.block().statistics()
        n = len(dedup_table)
        # reduction ratio uses n(n-1)/2, so it must stay in [0, 1]
        assert 0.0 <= stats["reduction_ratio"] <= 1.0

    def test_feature_matrix(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        features = session.featurize()
        assert isinstance(features, FeatureMatrix)
        assert features.shape == (len(session.block()), len(features.feature_names))
        name = features.feature_names[0]
        assert np.array_equal(
            features.column(name), features.X[:, 0], equal_nan=True
        )
        with pytest.raises(KeyError, match="unknown feature"):
            features.column("nope")

    def test_match_set_helpers(self, dataset, tmp_path):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        matches = session.match()
        assert matches.pairs == matches.result.pairs
        assert set(matches.matches) == set(matches.result.matches)
        rows = matches.to_frame()
        assert len(rows) == len(matches.matches)
        path = matches.to_csv(tmp_path / "m.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "left_id,right_id,score"
        assert len(lines) == len(rows) + 1


class TestCachingAndOverrides:
    def test_stages_are_cached(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        assert session.block() is session.block()
        assert session.featurize() is session.featurize()
        assert session.match() is session.match()

    def test_rematch_reuses_features(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        first = session.match()
        features = session.features_
        candidates = session.candidates_
        second = session.match(kappa=0.6)
        assert session.features_ is features, "re-match must not re-featurize"
        assert session.candidates_ is candidates, "re-match must not re-block"
        assert second.config.kappa == 0.6
        assert second is not first

    def test_rematch_reuses_within_table_features(self, dataset, monkeypatch):
        # the linkage Fl/Fr co-candidate pairs and their features depend only
        # on the feature matrix: a re-match under another κ re-runs EM only
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        session.match()
        calls = []
        original = FeatureGenerator.transform

        def counting_transform(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FeatureGenerator, "transform", counting_transform)
        rematched = session.match(kappa=0.4)
        assert len(calls) == 0, "a re-match must not re-featurize within-table pairs"
        monkeypatch.undo()

        fresh = ERPipeline(
            blocking_attribute="name", config=ZeroERConfig(kappa=0.4)
        ).run(dataset.left, dataset.right)
        _assert_result_equal(rematched.to_result(), fresh)

    def test_match_accepts_whole_config(self, dataset):
        from repro.core.model import ZeroER

        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        matches = session.match(config=ZeroERConfig(transitivity=False))
        assert isinstance(matches.model, ZeroER)

    def test_block_override_invalidates_downstream(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        session.match()
        assert session.features_ is not None
        session.block(blocker=AttributeEquivalenceBlocker("city"))
        assert session.features_ is None
        assert session.matches_ is None

    def test_bad_overrides_raise(self, dataset):
        session = ERPipeline(blocking_attribute="name").session(dataset.left, dataset.right)
        with pytest.raises(ValueError, match="kappa"):
            session.match(kappa=-1.0)
        with pytest.raises(TypeError, match="no_such_field"):
            session.match(no_such_field=1)
        assert session.matches_ is None, "a rejected override must not leave a match"


class TestPipelineStatePublishing:
    def test_staged_match_enables_freeze(self, dataset):
        from repro.data.table import Table

        left = Table(
            [dict(r, id=f"L{r['id']}") for r in dataset.left],
            attributes=dataset.left.attributes,
        )
        right = Table(
            [dict(r, id=f"R{r['id']}") for r in dataset.right],
            attributes=dataset.right.attributes,
        )
        pipeline = ERPipeline(blocking_attribute="name")
        session = pipeline.session(left, right)
        matches = session.block().featurize().match()
        assert pipeline.model_ is matches.model
        assert pipeline.generator_ is matches.generator
        assert pipeline.result_ is matches.result
        resolver = pipeline.freeze()
        assert len(resolver.store) == len(left) + len(right)

    def test_empty_candidates(self, dataset):
        blocker = AttributeEquivalenceBlocker("name", transform=lambda v: str(v) + "-none")
        from repro.data.table import Table

        left = dataset.left.head(3)
        right = Table(
            [dict(r, id=f"X{i}", name="zzz") for i, r in enumerate(dataset.right.head(3))],
            attributes=dataset.right.attributes,
        )
        pipeline = ERPipeline(blocker=blocker)
        session = pipeline.session(left, right)
        matches = session.match()
        assert matches.pairs == []
        assert matches.model is None
        assert matches.labels.shape == (0,)
        assert set(matches.result.seconds) == {"blocking"}
        with pytest.raises(RuntimeError, match="no candidate pairs"):
            pipeline.freeze()
