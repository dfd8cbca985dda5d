"""Run-report tests: schema, round-trips, artifact embedding, CLI, bench schema."""

import json
import sys
from pathlib import Path

import pytest

from repro import ERPipeline, load_benchmark
from repro.__main__ import main
from repro.incremental import load_artifacts
from repro.obs import (
    REPORT_VERSION,
    ReportError,
    RunTelemetry,
    build_report,
    configure_telemetry,
    reset_metrics,
    span_tree,
    validate_report,
)

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(autouse=True)
def telemetry_off():
    configure_telemetry(None)
    reset_metrics()
    yield
    configure_telemetry(None)
    reset_metrics()


@pytest.fixture(scope="module")
def dataset():
    return load_benchmark("rest_fz", scale="tiny", seed=2)


def _traced_result(dataset):
    configure_telemetry("memory")
    result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
    configure_telemetry(None)
    return result


class TestReportDocument:
    def test_traced_report_validates_and_nests(self, dataset):
        result = _traced_result(dataset)
        doc = validate_report(result.report())
        assert doc["report_version"] == REPORT_VERSION
        assert doc["traced"] is True
        assert doc["kind"] == "resolve"
        assert set(doc["timings"]) == {"blocking", "features", "matching"}
        roots = span_tree(doc["spans"])
        assert [r["name"] for r in roots] == ["resolve"]
        assert [c["name"] for c in roots[0]["children"]] == [
            "blocking",
            "features",
            "matching",
        ]
        stats = doc["candidate_statistics"]
        assert stats["n_candidates"] == len(result.pairs)
        assert 0.0 <= stats["reduction_ratio"] <= 1.0
        assert doc["em"]["n_iterations"] >= 1
        assert doc["metrics"]["counters"]["matching.pairs_scored"] == len(result.pairs)

    def test_untraced_report_still_validates(self, dataset):
        result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
        doc = validate_report(result.report())
        assert doc["traced"] is False
        assert doc["spans"] == []
        assert doc["em"] is not None  # cheap summaries survive untraced runs
        assert doc["candidate_statistics"]["n_candidates"] == len(result.pairs)

    def test_report_round_trips_through_json(self, dataset):
        doc = _traced_result(dataset).report()
        restored = json.loads(json.dumps(doc))
        assert validate_report(restored) == doc

    def test_report_without_telemetry_attribute(self):
        telemetry = RunTelemetry(kind="resolve", traced=False)
        doc = validate_report(build_report(telemetry, {"blocking": 0.1}))
        assert doc["timings"] == {"blocking": 0.1}
        assert doc["em"] is None


class TestValidateReport:
    def test_rejects_non_dict(self):
        with pytest.raises(ReportError, match="must be a dict"):
            validate_report([])

    def test_rejects_missing_keys(self):
        with pytest.raises(ReportError, match="missing key"):
            validate_report({"report_version": REPORT_VERSION})

    def test_rejects_future_version(self, dataset):
        doc = _traced_result(dataset).report()
        doc["report_version"] = REPORT_VERSION + 1
        with pytest.raises(ReportError, match="report_version"):
            validate_report(doc)

    def test_rejects_bad_span_records(self, dataset):
        doc = _traced_result(dataset).report()
        doc["spans"] = [{"name": "x"}]
        with pytest.raises(ReportError, match="spans\\[0\\]"):
            validate_report(doc)

    def test_rejects_bad_timings(self, dataset):
        doc = _traced_result(dataset).report()
        doc["timings"]["blocking"] = "fast"
        with pytest.raises(ReportError, match="timings"):
            validate_report(doc)

    def test_lists_every_problem(self, dataset):
        doc = _traced_result(dataset).report()
        doc["kind"] = 7
        doc["metrics"] = {"counters": {}}
        with pytest.raises(ReportError) as err:
            validate_report(doc)
        message = str(err.value)
        assert "kind" in message and "gauges" in message


class TestResolveResultReport:
    def test_incremental_report(self, dataset):
        pipeline = ERPipeline(blocking_attribute="name")
        merged, _ = dataset.as_dedup()
        pipeline.run(merged)
        resolver = pipeline.freeze()
        configure_telemetry("memory")
        record = dict(next(iter(merged)))
        record["id"] = "fresh-1"
        result = resolver.resolve([record])
        configure_telemetry(None)
        doc = validate_report(result.report())
        assert doc["kind"] == "resolve.incremental"
        assert doc["traced"] is True
        assert set(doc["timings"]) == {"candidates", "features", "scoring"}
        roots = span_tree(doc["spans"])
        assert [r["name"] for r in roots] == ["resolve.incremental"]
        assert [c["name"] for c in roots[0]["children"]] == [
            "candidates",
            "features",
            "scoring",
        ]
        assert doc["context"]["batch_size"] == 1


class TestArtifactEmbeddingAndCli:
    def _write_tables(self, tmp_path, dataset):
        merged, _ = dataset.as_dedup()
        rows = list(merged)
        attrs = ["id", *merged.attributes]
        base, extra = rows[:-2], rows[-2:]

        def write(path, records):
            lines = [",".join(attrs)]
            for rec in records:
                lines.append(
                    ",".join(str(rec.get(a, "")).replace(",", " ") for a in attrs)
                )
            path.write_text("\n".join(lines) + "\n")

        write(tmp_path / "base.csv", base)
        write(tmp_path / "new.csv", extra)

    def test_fit_embeds_report_and_cli_prints_it(self, tmp_path, capsys, dataset):
        self._write_tables(tmp_path, dataset)
        art = tmp_path / "art"
        code = main(
            [
                "fit",
                "--left",
                str(tmp_path / "base.csv"),
                "--block-on",
                "name",
                "--artifacts",
                str(art),
                "--trace",
                str(tmp_path / "trace.jsonl"),
            ]
        )
        assert code == 0
        _generator, _model, manifest = load_artifacts(art)
        doc = validate_report(manifest["run_report"])
        assert doc["traced"] is True
        trace_lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert trace_lines and all(
            json.loads(line)["type"] == "span" for line in trace_lines
        )

        capsys.readouterr()
        code = main(["report", str(art), "-o", str(tmp_path / "report.json")])
        assert code == 0
        printed = json.loads((tmp_path / "report.json").read_text())
        assert validate_report(printed)["kind"] == "resolve"

        # resolve a batch: the embedded report is replaced with the batch's
        code = main(
            [
                "resolve",
                "--artifacts",
                str(art),
                "--records",
                str(tmp_path / "new.csv"),
            ]
        )
        assert code == 0
        _generator, _model, manifest = load_artifacts(art)
        doc = validate_report(manifest["run_report"])
        assert doc["kind"] == "resolve.incremental"
        assert doc["traced"] is False  # no --trace on this resolve

    def test_run_report_flag(self, tmp_path, capsys, dataset):
        self._write_tables(tmp_path, dataset)
        report_path = tmp_path / "run_report.json"
        code = main(
            [
                "run",
                "--left",
                str(tmp_path / "base.csv"),
                "--block-on",
                "name",
                "-o",
                str(tmp_path / "matches.csv"),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        doc = validate_report(json.loads(report_path.read_text()))
        assert doc["kind"] == "resolve"
        assert doc["traced"] is False

    def test_report_errors_without_embedded_report(self, tmp_path, capsys):
        art = tmp_path / "art"
        art.mkdir()
        (art / "manifest.json").write_text(json.dumps({"schema_version": 1}))
        assert main(["report", str(art)]) == 2
        assert "no run report" in capsys.readouterr().err

    def test_report_errors_on_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "not an artifact directory" in capsys.readouterr().err

    def test_unwritable_trace_path_is_a_clean_error(self, tmp_path, capsys, dataset):
        self._write_tables(tmp_path, dataset)
        code = main(
            [
                "run",
                "--left",
                str(tmp_path / "base.csv"),
                "--block-on",
                "name",
                "-o",
                str(tmp_path / "matches.csv"),
                "--trace",
                str(tmp_path / "missing-dir" / "trace.jsonl"),
            ]
        )
        assert code == 2
        assert "cannot open trace file" in capsys.readouterr().err
        from repro.obs import get_sinks

        assert get_sinks() == ()  # the failed configure left nothing behind


class TestBenchSchema:
    @pytest.fixture(autouse=True)
    def _bench_utils_on_path(self):
        sys.path.insert(0, str(BENCHMARKS_DIR))
        yield
        sys.path.remove(str(BENCHMARKS_DIR))

    def test_checked_in_bench_reports_validate(self):
        from _bench_utils import BENCH_SCHEMA, validate_bench_report

        paths = sorted(BENCHMARKS_DIR.glob("BENCH_*.json"))
        assert len(paths) >= 3
        for path in paths:
            doc = json.loads(path.read_text())
            validate_bench_report(doc)
            assert doc["schema"] == BENCH_SCHEMA
            assert doc["benchmark"] in path.stem.lower()

    def test_bench_workload_derives_speedup(self):
        from _bench_utils import bench_workload

        row = bench_workload(
            "pub_da", "sparse", 0.5, baseline_engine="per-record", baseline_seconds=2.0
        )
        assert row["speedup"] == 4.0
        assert row["baseline_engine"] == "per-record"

    def test_bench_workload_requires_a_speedup_source(self):
        from _bench_utils import bench_workload

        with pytest.raises(ValueError, match="speedup"):
            bench_workload("pub_da", "sparse", 0.5)

    @pytest.fixture
    def probe_report(self, monkeypatch):
        """A throwaway report name, with neither bench-size variable set."""
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_MAX_SCALE", raising=False)
        path = BENCHMARKS_DIR / "BENCH_ruleprobe.json"
        yield path
        path.unlink(missing_ok=True)

    @pytest.mark.parametrize(
        "variable, value", [("REPRO_BENCH_SMOKE", "1"), ("REPRO_BENCH_MAX_SCALE", "100000")]
    )
    def test_smoke_or_capped_run_writes_no_report(
        self, monkeypatch, probe_report, variable, value
    ):
        # a smoke or capped run's numbers are not the checked-in ones
        from _bench_utils import bench_workload, write_bench_report

        monkeypatch.setenv(variable, value)
        row = bench_workload("pub_da", "fast", 0.5, speedup=2.0)
        assert write_bench_report("ruleprobe", [row]) is None
        assert not probe_report.exists()

    def test_full_run_writes_its_report(self, monkeypatch, probe_report):
        from _bench_utils import bench_workload, validate_bench_report, write_bench_report

        monkeypatch.setenv("REPRO_BENCH_SMOKE", "0")
        row = bench_workload("pub_da", "fast", 0.5, speedup=2.0)
        assert write_bench_report("ruleprobe", [row]) == probe_report
        validate_bench_report(json.loads(probe_report.read_text()))

    def test_validate_bench_report_rejects_bad_rows(self):
        from _bench_utils import validate_bench_report

        doc = {
            "schema": "repro-bench/1",
            "tool_version": "1.0",
            "benchmark": "x",
            "meta": {},
            "workloads": [{"dataset": "d", "engine": "e", "seconds": -1}],
        }
        with pytest.raises(ValueError, match="seconds"):
            validate_bench_report(doc)
