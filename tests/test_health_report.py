"""Graceful degradation: pathological conditions become health flags, not crashes."""

import numpy as np
import pytest

from repro import ERPipeline, ZeroER, ZeroERConfig, load_benchmark
from repro.core.exceptions import FeatureMatrixError, ZeroERError
from repro.core.gaussian import BlockDiagonalGaussian
from repro.data.table import Table
from repro.obs import validate_report
from repro.reliability import (
    ALL_NAN_FEATURE_COLUMN,
    EM_NON_CONVERGENCE,
    EMPTY_CANDIDATE_SET,
    SINGULAR_COVARIANCE_FALLBACK,
    HealthFlag,
    HealthReport,
    active_health,
    health_scope,
    record_condition,
)
from repro.utils.linalg import robust_cholesky
from repro.utils.validation import check_feature_matrix


class TestHealthReport:
    def test_record_and_query(self):
        report = HealthReport()
        report.record("thing_degraded", "something bent", widget=3)
        assert report.has("thing_degraded")
        flag = report["thing_degraded"]
        assert flag.severity == "warning"
        assert flag.context == {"widget": 3}
        assert len(report) == 1
        assert report.degraded
        assert report.ok  # warnings are degradations, not failures

    def test_rerecording_dedupes_and_counts(self):
        report = HealthReport()
        for _ in range(5):
            report.record("jitter", "needed jitter")
        assert len(report) == 1
        assert report["jitter"].count == 5

    def test_severity_upgrades_never_downgrades(self):
        report = HealthReport()
        report.record("x", "first", severity="info")
        report.record("x", "worse", severity="error")
        report.record("x", "calmer", severity="warning")
        assert report["x"].severity == "error"
        assert not report.ok

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            HealthReport().record("x", "boom", severity="catastrophic")

    def test_merge_accumulates(self):
        a = HealthReport()
        a.record("shared", "one", severity="info")
        b = HealthReport()
        b.record("shared", "two", severity="error")
        b.record("only_b", "three")
        a.merge(b)
        assert a["shared"].count == 2
        assert a["shared"].severity == "error"
        assert a.has("only_b")

    def test_dict_round_trip(self):
        report = HealthReport()
        report.record("x", "msg", severity="info", detail=1)
        doc = report.to_dict()
        assert doc["ok"] is True
        assert doc["degraded"] is False
        restored = HealthReport.from_dict(doc)
        assert restored["x"].to_dict() == report["x"].to_dict()

    def test_flag_from_dict_defaults(self):
        flag = HealthFlag.from_dict({"condition": "c"})
        assert flag.severity == "warning"
        assert flag.count == 1

    def test_summary_line(self):
        report = HealthReport()
        assert report.summary() == "healthy"
        report.record("x", "msg")
        assert "x[warning]x1" in report.summary()


class TestHealthScope:
    def test_unscoped_recording_is_a_noop(self):
        assert active_health() is None
        assert record_condition("whatever", "nothing listens") is None

    def test_scope_collects(self):
        with health_scope() as report:
            record_condition("inner", "recorded")
        assert report.has("inner")

    def test_nested_scopes_fold_outward(self):
        with health_scope() as outer:
            with health_scope() as inner:
                record_condition("deep", "recorded innermost")
            assert inner.has("deep")
        assert outer.has("deep")

    def test_scope_restores_previous(self):
        with health_scope() as outer:
            with health_scope():
                pass
            assert active_health() is outer
        assert active_health() is None


class TestDegradationSources:
    def test_singular_covariance_records_fallback(self):
        # a rank-1 covariance: plain Cholesky fails, jitter rescues it
        singular = np.ones((3, 3))
        with health_scope() as report:
            factor = robust_cholesky(singular)
        assert factor.shape == (3, 3)
        assert report.has(SINGULAR_COVARIANCE_FALLBACK)
        assert report[SINGULAR_COVARIANCE_FALLBACK].context["jitter"] > 0

    def test_cached_factor_records_fallback_on_every_call(self):
        # the blocks are factorized once, but every density evaluation
        # re-records each jittered block, in whichever scope is active: two
        # singular blocks and two calls make 4, in every scope
        dist = BlockDiagonalGaussian(
            np.zeros(5),
            [[0, 1], [2, 3], [4]],
            [np.ones((2, 2)), np.zeros((2, 2)), np.eye(1)],
        )
        X = np.random.default_rng(0).random((4, 5))
        for _ in range(2):
            with health_scope() as report:
                dist.logpdf(X)
                dist.logpdf(X)
            assert report[SINGULAR_COVARIANCE_FALLBACK].count == 4

    def test_frozen_model_flags_every_resolve_batch(self):
        merged, _ = load_benchmark("rest_fz", scale="tiny", seed=2).as_dedup()
        records = list(merged)
        base = Table(records[:-10], attributes=merged.attributes)
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(base)
        resolver = pipeline.freeze()
        params = resolver.model._runner.params
        match = params.match
        params.match = BlockDiagonalGaussian(
            match.mean, match.groups, [np.zeros_like(match.blocks[0]), *match.blocks[1:]]
        )
        for batch in (records[-10:-5], records[-5:]):
            result = resolver.resolve([dict(r) for r in batch])
            assert result.pairs, "the batch must reach the model"
            assert result.health.has(SINGULAR_COVARIANCE_FALLBACK)

    def test_all_nan_column_is_flagged_not_fatal(self):
        X = np.random.default_rng(0).random((20, 3))
        X[:, 1] = np.nan
        with health_scope() as report:
            out = check_feature_matrix(X, allow_nan=True)
        assert out.shape == (20, 3)
        assert report.has(ALL_NAN_FEATURE_COLUMN)
        assert report[ALL_NAN_FEATURE_COLUMN].context["columns"] == [1]

    def test_infinite_column_is_fatal_with_diagnostics(self):
        X = np.random.default_rng(0).random((20, 3))
        X[3, 2] = np.inf
        with pytest.raises(FeatureMatrixError, match="infinite"):
            check_feature_matrix(X, allow_nan=True)
        # names the offending column, and stays a ValueError for old callers
        with pytest.raises(ValueError, match=r"column\(s\) 2"):
            check_feature_matrix(X, allow_nan=True)
        assert issubclass(FeatureMatrixError, ZeroERError)

    def test_em_non_convergence_is_flagged(self, separable_mixture):
        X, _y = separable_mixture
        # one iteration can never satisfy the likelihood-delta test
        model = ZeroER(ZeroERConfig(transitivity=False, max_iter=1))
        with health_scope() as report:
            model.fit(X)
        assert not model.converged_
        assert report.has(EM_NON_CONVERGENCE)


class TestHealthSurfacing:
    @pytest.fixture
    def disjoint_tables(self):
        left = Table(
            [
                {"id": "L0", "name": "alpha beta"},
                {"id": "L1", "name": "gamma delta"},
            ],
            attributes=["name"],
        )
        right = Table(
            [
                {"id": "R0", "name": "epsilon zeta"},
                {"id": "R1", "name": "eta theta"},
            ],
            attributes=["name"],
        )
        return left, right

    def test_empty_candidate_set_flagged_in_result_and_report(self, disjoint_tables):
        left, right = disjoint_tables
        result = ERPipeline(blocking_attribute="name").run(left, right)
        assert result.pairs == []
        assert result.health is not None
        assert result.health.has(EMPTY_CANDIDATE_SET)

        report = result.report()
        validate_report(report)
        assert report["health"]["degraded"] is True
        conditions = {flag["condition"] for flag in report["health"]["flags"]}
        assert EMPTY_CANDIDATE_SET in conditions

    def test_healthy_run_reports_null_health(self, people_table):
        result = ERPipeline(blocking_attribute="name").run(people_table)
        report = result.report()
        validate_report(report)
        # no degradations → "health" is present but null (legacy consumers
        # never see a missing key change shape underneath them)
        assert "health" in report
