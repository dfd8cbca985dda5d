"""Telemetry subsystem tests: spans, sinks, metrics, and engine instrumentation."""

import io
import json

import numpy as np
import pytest

from repro import ERPipeline, load_benchmark
from repro.api.spec import BlockingSpec, PipelineSpec, SpecError, TelemetrySpec
from repro.features import jw_cache_info
from repro.obs import (
    InMemorySink,
    MetricsRegistry,
    RunCollector,
    Span,
    StderrSink,
    add_counter,
    collect_run,
    collector_scope,
    configure_telemetry,
    current_span,
    get_metrics,
    histogram_of,
    observe,
    reset_metrics,
    set_gauge,
    span,
    span_tree,
    telemetry_active,
)


@pytest.fixture(autouse=True)
def telemetry_off():
    """Every test starts and ends with telemetry disabled and metrics clean."""
    configure_telemetry(None)
    reset_metrics()
    yield
    configure_telemetry(None)
    reset_metrics()


@pytest.fixture(scope="module")
def dataset():
    return load_benchmark("rest_fz", scale="tiny", seed=2)


class TestNoOpFastPath:
    def test_inactive_span_retains_nothing(self):
        assert not telemetry_active()
        with span("outer", foo=1) as sp:
            sp.set(bar=2)  # dropped, no record exists
            with span("inner"):
                assert current_span() is None
        assert sp.seconds >= 0.0
        assert not hasattr(sp, "attributes")

    def test_inactive_run_yields_no_collector(self):
        with collect_run("resolve") as col:
            assert col is None

    def test_inactive_metric_emits_are_dropped(self):
        add_counter("x", 5)
        set_gauge("y", 1.0)
        observe("z", [0.5])
        snapshot = get_metrics().snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_untraced_pipeline_run_retains_zero_spans(self, dataset):
        result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        assert result.telemetry is not None
        assert result.telemetry.traced is False
        assert result.telemetry.spans == []
        assert result.telemetry.metrics == {}
        # the legacy timing dict still carries real measured stage seconds
        assert set(result.seconds) == {"blocking", "features", "matching"}
        assert all(v > 0.0 for v in result.seconds.values())


class TestSpans:
    def test_nesting_parent_links_and_depth(self):
        sink = configure_telemetry("memory")
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id == outer.span_id
                assert inner.depth == outer.depth + 1
        assert current_span() is None
        names = [s["name"] for s in sink.spans]
        assert names == ["inner", "outer"]  # completion order: children first

    def test_attributes_and_set(self):
        sink = configure_telemetry("memory")
        with span("work", engine="batch") as sp:
            sp.set(n_pairs=7)
        record = sink.spans[0]
        assert record["attributes"] == {"engine": "batch", "n_pairs": 7}
        assert record["seconds"] >= 0.0
        assert isinstance(sp, Span)

    def test_collect_run_wraps_a_root_span(self):
        configure_telemetry("memory")
        with collect_run("resolve.incremental", batch_size=3) as col:
            assert isinstance(col, RunCollector)
            with span("candidates"):
                pass
        names = [s["name"] for s in col.spans]
        assert names == ["candidates", "resolve.incremental"]
        root = col.spans[-1]
        assert root["parent_id"] is None
        assert col.spans[0]["parent_id"] == root["span_id"]

    def test_collector_scope_is_reentrant_safe(self):
        configure_telemetry("memory")
        col = RunCollector("resolve")
        with collector_scope(col):
            with collector_scope(col):  # nested stage call, same collector
                with span("stage"):
                    pass
        assert len(col.spans) == 1  # not double-captured


class TestSinks:
    def test_jsonl_sink_writes_one_record_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_telemetry("jsonl", path=path)
        with span("a"):
            with span("b"):
                pass
        configure_telemetry(None)  # closes the file
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["name"] for rec in lines] == ["b", "a"]
        assert all(rec["type"] == "span" for rec in lines)

    def test_jsonl_sink_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            configure_telemetry("jsonl")

    def test_stderr_sink_pretty_prints_with_indent(self):
        stream = io.StringIO()
        configure_telemetry(StderrSink(stream))
        with span("outer"):
            with span("inner", engine="batch"):
                pass
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[trace]   inner")
        assert "engine=batch" in lines[0]
        assert lines[1].startswith("[trace] outer")

    def test_replacing_sinks_closes_the_old_one(self, tmp_path):
        sink = configure_telemetry("jsonl", path=tmp_path / "t.jsonl")
        configure_telemetry("memory")
        assert sink._handle.closed

    def test_unknown_sink_rejected(self):
        with pytest.raises(ValueError, match="unknown sink"):
            configure_telemetry("graphite")

    def test_in_memory_sink_helpers(self):
        sink = configure_telemetry("memory")
        with span("a"):
            pass
        with span("b"):
            pass
        assert isinstance(sink, InMemorySink)
        assert len(sink.by_name("a")) == 1
        sink.clear()
        assert sink.spans == []


class TestMetrics:
    def test_counters_gauges_histograms(self):
        configure_telemetry("memory")
        add_counter("pairs", 5)
        add_counter("pairs", 2)
        set_gauge("cache.hits", 9)
        observe("gamma", [0.05, 0.95, 0.95])
        snap = get_metrics().snapshot()
        assert snap["counters"]["pairs"] == 7
        assert snap["gauges"]["cache.hits"] == 9
        hist = snap["histograms"]["gamma"]
        assert hist["count"] == 3
        assert sum(hist["counts"]) == 3

    def test_collector_mirrors_global_registry(self):
        configure_telemetry("memory")
        col = RunCollector("resolve")
        with collector_scope(col):
            add_counter("inside", 1)
        add_counter("outside", 1)
        assert col.registry.snapshot()["counters"] == {"inside": 1}
        assert get_metrics().snapshot()["counters"] == {"inside": 1, "outside": 1}

    def test_histogram_of_clips_and_drops_nan(self):
        hist = histogram_of([np.nan, -0.5, 0.5, 1.5])
        assert hist["count"] == 3  # NaN dropped, out-of-range clipped into edge bins
        assert sum(hist["counts"]) == 3

    def test_registry_reset(self):
        reg = MetricsRegistry()
        reg.counter_add("a", 1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestEngineInstrumentation:
    def test_traced_session_produces_nested_stage_spans(self, dataset):
        configure_telemetry("memory")
        session = ERPipeline(blocking_attribute="name").session(
            dataset.left, dataset.right
        )
        result = session.run()
        spans = result.telemetry.spans
        names = {s["name"] for s in spans}
        assert {"resolve", "blocking", "features", "matching", "em.fit"} <= names
        roots = span_tree(spans)
        assert [r["name"] for r in roots] == ["resolve"]
        stage_names = [c["name"] for c in roots[0]["children"]]
        assert stage_names == ["blocking", "features", "matching"]

    def test_staged_calls_share_one_session_trace(self, dataset):
        configure_telemetry("memory")
        session = ERPipeline(blocking_attribute="name").session(
            dataset.left, dataset.right
        )
        session.block()
        session.featurize()
        matches = session.match()
        spans = matches.result.telemetry.spans
        names = [s["name"] for s in spans]
        assert names.count("blocking") == 1
        assert names.count("features") == 1
        assert names.count("matching") == 1
        # without run()'s root span each stage is a root of its own
        assert [r["name"] for r in span_tree(spans)] == [
            "blocking",
            "features",
            "matching",
        ]

    def test_per_feature_kernel_spans_and_gauges(self, dataset):
        sink = configure_telemetry("memory")
        result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        feature_spans = [
            s for s in sink.spans if s["name"].startswith("features.")
            and s["name"] not in ("features.fit", "features.transform")
        ]
        assert len(feature_spans) >= len(result.feature_names)
        gauges = result.telemetry.metrics["gauges"]
        kernel_gauges = [k for k in gauges if k.startswith("features.kernel_seconds.")]
        assert sorted(k.split(".", 2)[2] for k in kernel_gauges) == sorted(
            result.feature_names
        )

    def test_jw_cache_statistics_surface(self, dataset):
        info = jw_cache_info()
        assert set(info) == {"hits", "misses", "maxsize", "currsize"}
        configure_telemetry("memory")
        result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        gauges = result.telemetry.metrics["gauges"]
        assert "features.jw_cache.hits" in gauges
        assert "features.jw_cache.misses" in gauges
        assert gauges["features.jw_cache.currsize"] >= 0

    def test_em_metrics_in_traced_run(self, dataset):
        configure_telemetry("memory")
        result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        metrics = result.telemetry.metrics
        assert metrics["counters"]["em.iterations"] >= 1
        assert "em.log_likelihood.F" in metrics["gauges"]
        assert "em.match_probability" in metrics["histograms"]
        em = result.telemetry.em
        assert em["n_iterations"] == len(em["log_likelihoods"])
        assert len(em["match_probability_histograms"]) == em["n_iterations"]

    def test_zero_candidate_resolver_timings_are_measured(self, dataset):
        # satellite: empty batches must carry real span-measured timings,
        # not fabricated zeros
        pipeline = ERPipeline(blocking_attribute="name")
        merged, _ = dataset.as_dedup()
        pipeline.run(merged)
        resolver = pipeline.freeze()
        result = resolver.resolve(
            [{"id": "zz-no-tokens-1", "name": "", "addr": "", "city": "", "phone": "",
              "type": "", "cuisine": ""}][:1]
        )
        assert result.pairs == []
        assert set(result.seconds) == {"candidates", "features", "scoring"}
        assert all(v > 0.0 for v in result.seconds.values())

    def test_traced_incremental_resolve(self, dataset):
        pipeline = ERPipeline(blocking_attribute="name")
        merged, _ = dataset.as_dedup()
        pipeline.run(merged)
        resolver = pipeline.freeze()
        configure_telemetry("memory")
        record = dict(next(iter(merged)))
        record["id"] = "fresh-record-1"
        result = resolver.resolve([record])
        telemetry = result.telemetry
        assert telemetry.traced is True
        names = [s["name"] for s in telemetry.spans]
        assert names[-1] == "resolve.incremental"
        assert {"candidates", "features", "scoring"} <= set(names)
        counters = telemetry.metrics["counters"]
        assert counters["resolve.records"] == 1
        assert counters["resolve.candidate_pairs"] == len(result.pairs)


class TestTelemetrySpec:
    def test_defaults_and_round_trip(self):
        spec = TelemetrySpec()
        assert spec.sink == "none"
        assert not spec.enabled
        assert TelemetrySpec.from_dict(spec.to_dict()) == spec

    def test_jsonl_requires_path(self):
        with pytest.raises(SpecError, match="path"):
            TelemetrySpec(sink="jsonl")

    def test_path_invalid_for_other_sinks(self):
        with pytest.raises(SpecError, match="path"):
            TelemetrySpec(sink="memory", path="x.jsonl")

    def test_unknown_sink_rejected(self):
        with pytest.raises(SpecError, match="sink"):
            TelemetrySpec(sink="graphite")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            TelemetrySpec.from_dict({"sink": "memory", "bogus": 1})

    def test_pipeline_spec_round_trips_telemetry(self):
        spec = PipelineSpec(
            blocking=BlockingSpec("token_overlap", {"attribute": "name"}),
            telemetry=TelemetrySpec(sink="memory"),
        )
        restored = PipelineSpec.from_dict(spec.to_dict())
        assert restored.telemetry == spec.telemetry

    def test_apply_configures_the_global_sink(self):
        sink = TelemetrySpec(sink="memory").apply()
        assert isinstance(sink, InMemorySink)
        assert telemetry_active()
        assert TelemetrySpec().apply() is None
        assert not telemetry_active()

    def test_enabled_spec_build_applies_telemetry(self, dataset):
        spec = PipelineSpec(
            blocking=BlockingSpec("token_overlap", {"attribute": "name"}),
            telemetry=TelemetrySpec(sink="memory"),
        )
        pipeline = spec.build()
        assert telemetry_active()
        result = pipeline.run(dataset.left, dataset.right)
        assert result.telemetry.traced is True

    def test_default_spec_build_leaves_telemetry_alone(self):
        configure_telemetry("memory")
        PipelineSpec(
            blocking=BlockingSpec("token_overlap", {"attribute": "name"})
        ).build()
        assert telemetry_active()  # sink="none" did not tear down the config


class TestSessionIsolation:
    def test_two_runs_resolve_without_cross_talk(self, dataset):
        # two traced runs back-to-back: each result sees only its own spans
        configure_telemetry("memory")
        first = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        second = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        first_ids = {s["span_id"] for s in first.telemetry.spans}
        second_ids = {s["span_id"] for s in second.telemetry.spans}
        assert first_ids and second_ids
        assert not (first_ids & second_ids)
