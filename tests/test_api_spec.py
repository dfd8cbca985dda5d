"""PipelineSpec tests: round-trips, build parity, validation, provenance."""

import json

import numpy as np
import pytest

from repro import (
    ERPipeline,
    IncrementalResolver,
    PipelineSpec,
    SpecError,
    ZeroERConfig,
    load_benchmark,
    load_spec,
)
from repro.api import BlockingSpec, FeatureSpec, ModelSpec, OutputSpec, ShardSpec
from repro.blocking import (
    AttributeEquivalenceBlocker,
    QgramBlocker,
    SortedNeighborhoodBlocker,
    TokenOverlapBlocker,
    UnionBlocker,
)


def _spec(blocking_type="token_overlap", **options):
    options.setdefault("attribute", "name")
    return PipelineSpec(blocking=BlockingSpec(blocking_type, options))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "blocker",
        [
            TokenOverlapBlocker("name", min_overlap=2, top_k=30),
            QgramBlocker("name", q=2, min_overlap=3),
            AttributeEquivalenceBlocker("city"),
            SortedNeighborhoodBlocker("name", window=7),
            UnionBlocker(
                [TokenOverlapBlocker("name"), AttributeEquivalenceBlocker("city")]
            ),
        ],
        ids=lambda b: type(b).__name__,
    )
    def test_blocker_spec_round_trip(self, blocker):
        spec = BlockingSpec.from_blocker(blocker)
        via_json = BlockingSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert via_json == spec
        assert via_json.build().to_spec() == blocker.to_spec()

    def test_pipeline_spec_json_round_trip(self):
        spec = PipelineSpec(
            blocking=BlockingSpec("qgram", {"attribute": "name", "q": 2}),
            features=FeatureSpec(type_overrides={"age": "numeric"}),
            model=ModelSpec(
                config=ZeroERConfig(kappa=0.4, transitivity=False), co_candidate_cap=5
            ),
            output=OutputSpec(threshold=0.7, one_to_one=True),
        )
        assert PipelineSpec.from_json(spec.to_json()) == spec
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_save_load_file_round_trip(self, tmp_path):
        spec = _spec(top_k=10)
        path = spec.save(tmp_path / "spec.json")
        assert PipelineSpec.load(path) == spec
        assert load_spec(path) == spec
        assert load_spec(spec.to_dict()) == spec
        assert load_spec(spec) is spec

    def test_partial_dict_fills_defaults(self):
        spec = PipelineSpec.from_dict(
            {"blocking": {"type": "token_overlap", "attribute": "name"}}
        )
        assert spec.version == 1
        assert spec.features == FeatureSpec()
        assert spec.model.config == ZeroERConfig()
        assert spec.output.threshold == 0.5


class TestBuildParity:
    """Spec-built pipelines reproduce code-built pipelines bit-identically."""

    def _code_built(self):
        return ERPipeline(
            blocker=TokenOverlapBlocker("name", min_overlap=1, top_k=60),
            config=ZeroERConfig(),
        )

    def _spec_built(self):
        spec_dict = {
            "version": 1,
            "blocking": {"type": "token_overlap", "attribute": "name", "top_k": 60},
        }
        rebuilt = PipelineSpec.from_json(json.dumps(spec_dict))  # the full JSON trip
        return rebuilt.build()

    def test_linkage_parity(self):
        ds = load_benchmark("pub_da", scale="tiny", seed=0)
        expected = self._code_built().run(ds.left, ds.right)
        actual = self._spec_built().run(ds.left, ds.right)
        assert actual.pairs == expected.pairs
        assert np.array_equal(actual.scores, expected.scores)
        assert np.array_equal(actual.labels, expected.labels)

    def test_dedup_parity(self):
        ds = load_benchmark("rest_fz", scale="tiny", seed=2)
        merged, _ = ds.as_dedup()
        expected = self._code_built().run(merged)
        actual = self._spec_built().run(merged)
        assert actual.pairs == expected.pairs
        assert np.array_equal(actual.scores, expected.scores)
        assert np.array_equal(actual.labels, expected.labels)

    def test_build_carries_every_knob(self):
        spec = PipelineSpec(
            blocking=BlockingSpec("token_overlap", {"attribute": "name"}),
            features=FeatureSpec(type_overrides={"age": "numeric"}),
            model=ModelSpec(config=ZeroERConfig(kappa=0.3), co_candidate_cap=4),
        )
        pipeline = spec.build()
        assert pipeline.config.kappa == 0.3
        assert pipeline.co_candidate_cap == 4
        from repro.features import AttributeType

        assert pipeline.type_overrides == {"age": AttributeType.NUMERIC}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            PipelineSpec.from_dict(
                {"blocking": {"type": "token_overlap", "attribute": "a"}, "blocky": {}}
            )

    def test_unknown_blocking_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            _spec(min_overlpa=2)

    def test_unknown_blocker_type(self):
        with pytest.raises(SpecError, match="unknown blocker type"):
            PipelineSpec.from_dict({"blocking": {"type": "lsh", "attribute": "a"}})

    def test_missing_blocking_section(self):
        with pytest.raises(SpecError, match="blocking"):
            PipelineSpec.from_dict({"version": 1})

    def test_bad_blocking_value(self):
        with pytest.raises(SpecError, match="min_overlap"):
            _spec(min_overlap=0)

    def test_bad_model_value(self):
        with pytest.raises(SpecError, match="kappa"):
            PipelineSpec.from_dict(
                {
                    "blocking": {"type": "token_overlap", "attribute": "a"},
                    "model": {"config": {"kappa": -1.0}},
                }
            )

    def test_unknown_config_key(self):
        with pytest.raises(SpecError, match="unknown key"):
            PipelineSpec.from_dict(
                {
                    "blocking": {"type": "token_overlap", "attribute": "a"},
                    "model": {"config": {"kapa": 0.2}},
                }
            )

    def test_bad_type_override(self):
        with pytest.raises(SpecError, match="unknown attribute type"):
            FeatureSpec(type_overrides={"age": "integer"})

    def test_non_dict_type_overrides_is_spec_error(self):
        for bogus in ("oops", 5, ["a"]):
            with pytest.raises(SpecError, match="type_overrides"):
                PipelineSpec.from_dict(
                    {
                        "blocking": {"type": "token_overlap", "attribute": "a"},
                        "features": {"type_overrides": bogus},
                    }
                )

    def test_bad_threshold(self):
        with pytest.raises(SpecError, match="threshold"):
            OutputSpec(threshold=1.5)

    def test_bad_co_candidate_cap(self):
        with pytest.raises(SpecError, match="co_candidate_cap"):
            ModelSpec(co_candidate_cap=0)

    def test_unsupported_version(self):
        with pytest.raises(SpecError, match="version 99"):
            PipelineSpec.from_dict(
                {"version": 99, "blocking": {"type": "token_overlap", "attribute": "a"}}
            )

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            PipelineSpec.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            PipelineSpec.load(tmp_path / "absent.json")

    def test_load_spec_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot load a spec"):
            load_spec(42)


class TestProvenance:
    def test_from_pipeline_captures_configuration(self):
        pipeline = ERPipeline(
            blocker=QgramBlocker("name", q=2),
            config=ZeroERConfig(kappa=0.33),
            co_candidate_cap=7,
        )
        spec = PipelineSpec.from_pipeline(pipeline, threshold=0.8)
        assert spec.blocking.type == "qgram"
        assert spec.model.config.kappa == 0.33
        assert spec.model.co_candidate_cap == 7
        assert spec.output.threshold == 0.8
        # and the captured spec rebuilds an equivalent pipeline
        rebuilt = spec.build()
        assert rebuilt.blocker.to_spec() == pipeline.blocker.to_spec()
        assert rebuilt.config == pipeline.config

    def test_from_pipeline_rejects_non_serializable_blocker(self):
        pipeline = ERPipeline(
            blocker=AttributeEquivalenceBlocker("city", transform=str.lower)
        )
        with pytest.raises(SpecError, match="transform"):
            PipelineSpec.from_pipeline(pipeline)

    def test_frozen_artifacts_embed_and_round_trip_spec(self, tmp_path):
        from repro.data.table import Table

        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        table = Table(list(merged), attributes=merged.attributes)
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(table)
        resolver = pipeline.freeze(threshold=0.6)
        assert resolver.spec is not None
        assert resolver.spec.output.threshold == 0.6

        path = resolver.save(tmp_path / "art")
        from repro.incremental.artifacts import artifact_dir

        manifest = json.loads((artifact_dir(path) / "manifest.json").read_text())
        assert manifest["pipeline_spec"]["blocking"]["type"] == "token_overlap"

        loaded = IncrementalResolver.load(path)
        assert loaded.spec == resolver.spec
        # the embedded spec is buildable: full provenance, not just metadata
        assert loaded.spec.build().blocker.to_spec() == pipeline.blocker.to_spec()

    def test_freeze_without_serializable_spec_still_works(self):
        # a custom tokenizer defeats declarative capture; freeze must not fail
        from repro.text.tokenizers import WhitespaceTokenizer

        class CustomTokenizer(WhitespaceTokenizer):
            pass

        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        pipeline = ERPipeline(
            blocker=TokenOverlapBlocker("name", tokenizer=CustomTokenizer(), top_k=60)
        )
        pipeline.run(merged)
        resolver = pipeline.freeze()
        assert resolver.spec is None


class TestFreezeHonorsSessionOverrides:
    def test_frozen_spec_records_rematch_config(self):
        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        session = pipeline.session(merged)
        session.match(kappa=0.9)
        resolver = pipeline.freeze()
        assert resolver.spec.model.config.kappa == 0.9, (
            "the embedded spec must describe the config that fitted model_"
        )

    def test_frozen_index_uses_session_blocker_override(self):
        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        session = pipeline.session(merged)
        session.block(blocker=TokenOverlapBlocker("name", min_overlap=2, top_k=9))
        session.match()
        resolver = pipeline.freeze()
        assert resolver.index.min_overlap == 2
        assert resolver.index.top_k == 9
        assert resolver.spec.blocking.options["top_k"] == 9

    def test_plain_run_after_staged_override_resets_capture(self):
        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        session = pipeline.session(merged)
        session.match(kappa=0.9)
        pipeline.run(merged)  # a fresh run supersedes the staged override
        resolver = pipeline.freeze()
        assert resolver.spec.model.config.kappa == pipeline.config.kappa


class TestLoadTolerance:
    def test_unreadable_embedded_spec_does_not_block_load(self, tmp_path):
        ds = load_benchmark("rest_fz", scale="tiny", seed=3)
        merged, _ = ds.as_dedup()
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(merged)
        path = pipeline.freeze().save(tmp_path / "art")

        from repro.incremental.artifacts import artifact_dir
        from repro.reliability import write_checksum_manifest

        version_dir = artifact_dir(path)
        manifest_path = version_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pipeline_spec"]["version"] = 99  # a future spec schema
        manifest_path.write_text(json.dumps(manifest))
        write_checksum_manifest(version_dir)  # re-sign the edited manifest

        with pytest.warns(RuntimeWarning, match="unreadable pipeline_spec"):
            loaded = IncrementalResolver.load(path)
        assert loaded.spec is None
        assert len(loaded.store) == len(merged)


def retired_keys_spec() -> dict:
    """A spec as written before the second blocking engine, the per-pair
    feature engine and the featurization worker pool were retired."""
    return {
        "version": 1,
        "blocking": {**TokenOverlapBlocker("name", top_k=60).to_spec(), "engine": "per-record"},
        "features": {"engine": "per-pair", "type_overrides": {}},
        "shard": {"shards": 2, "workers": 3, "load_budget_mb": None},
    }


class TestRetiredKeys:
    def test_spec_with_retired_keys_loads(self, tmp_path):
        path = tmp_path / "old-spec.json"
        path.write_text(json.dumps(retired_keys_spec()))
        spec = load_spec(path)
        assert spec.features == FeatureSpec()
        assert spec.shard == ShardSpec(shards=2)
        pipeline = spec.build()
        assert pipeline.blocker.to_spec() == TokenOverlapBlocker("name", top_k=60).to_spec()

    def test_retired_keys_are_not_written_back(self):
        doc = load_spec(retired_keys_spec()).to_dict()
        assert "engine" not in doc["blocking"]
        assert "engine" not in doc["features"]
        assert "workers" not in doc["shard"]

    @pytest.mark.parametrize("mode", ["staged", "joint"])
    def test_model_config_with_retired_linkage_mode_loads(self, mode):
        payload = {**retired_keys_spec(), "model": {"config": {"linkage_mode": mode, "kappa": 0.3}}}
        spec = load_spec(payload)
        assert spec.model.config == ZeroERConfig(kappa=0.3)
        assert "linkage_mode" not in spec.to_dict()["model"]["config"]

    def test_union_member_with_retired_engine_builds(self):
        union = {
            "type": "union",
            "blockers": [{"type": "qgram", "attribute": "name", "engine": "per-record"}],
        }
        (member,) = load_spec({"blocking": union}).blocking.build().blockers
        assert member.to_spec() == QgramBlocker("name").to_spec()
