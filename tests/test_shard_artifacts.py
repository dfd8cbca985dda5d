"""Sharded artifact layout: versioned publish, link reuse, lazy loading."""

import json

import numpy as np
import pytest

from reference_engine import reference_freeze, reference_resolve
from repro.data.table import Table
from repro.incremental import ArtifactError, IncrementalResolver
from repro.incremental.artifacts import artifact_dir, save_artifacts
from repro.reliability.atomic import IntegrityError
from repro.shard.artifacts import payload_meta, sharded_payload, write_payload_files
from repro import ERPipeline

_SUFFIXES = ("grill", "bistro", "cafe", "diner", "tavern", "kitchen")
_WORDS = (
    "harbor", "maple", "sunset", "copper", "willow", "granite",
    "juniper", "crimson", "meadow", "ivory", "cobalt", "timber",
    "velvet", "orchid", "saffron", "lagoon", "ember", "prairie",
)
_CITIES = ("oakland", "berkeley", "alameda")


def _record(entity: int, variant: str) -> dict:
    suffix = _SUFFIXES[entity % len(_SUFFIXES)]
    name = f"{_WORDS[entity]} {_WORDS[(entity + 7) % len(_WORDS)]} {suffix}"
    return {
        "id": f"{variant}{entity}",
        "name": name,
        "city": _CITIES[entity % len(_CITIES)],
        "phone": f"555-01{entity:02d}",
    }


@pytest.fixture(scope="module")
def fitted_pipeline():
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(
        Table(
            [_record(e, v) for e in range(18) for v in ("a", "b")],
            attributes=["name", "city", "phone"],
        )
    )
    return pipeline


def _batch(prefix: str, entities=range(6)) -> list[dict]:
    return [dict(_record(e, "x"), id=f"{prefix}{e}") for e in entities]


def _manifest(root) -> dict:
    return json.loads((artifact_dir(root) / "manifest.json").read_text())


class TestShardedLayout:
    def test_save_writes_versioned_shard_files(self, fitted_pipeline, tmp_path):
        resolver = fitted_pipeline.freeze(shards=3)
        root = tmp_path / "art"
        resolver.save(root)
        live = artifact_dir(root)
        assert (root / "CURRENT").is_file()
        assert (live / "shards" / "ledger.shard").is_file()
        for i in range(3):
            assert (live / "shards" / f"store-{i:04d}.shard").is_file()
            assert (live / "shards" / f"index-{i:04d}.shard").is_file()
        meta = _manifest(root)["extra"]["resolver"]["sharded"]
        assert meta["n_shards"] == 3
        assert meta["n_records"] == 36
        entries = [meta["files"]["ledger"], *meta["files"]["store"], *meta["files"]["index"]]
        for entry in entries:
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] == (live / entry["name"]).stat().st_size

    def test_load_round_trips_state(self, fitted_pipeline, tmp_path):
        resolver = fitted_pipeline.freeze(shards=4)
        expected_entities = resolver.store.entities()
        root = tmp_path / "art"
        resolver.save(root)
        loaded = IncrementalResolver.load(root)
        assert loaded.store.n_shards == loaded.index.n_shards == 4
        assert loaded.store.entities() == expected_entities
        assert len(loaded.index) == len(resolver.index)
        assert loaded.index.n_tokens == resolver.index.n_tokens
        # lazy: nothing mapped until a batch routes into a shard
        assert loaded.store.loader.stats()["loaded_shards"] == 0

    def test_loaded_resolver_resolves_identically(self, fitted_pipeline, tmp_path):
        live = fitted_pipeline.freeze(shards=4)
        root = tmp_path / "art"
        live.save(root)
        loaded = IncrementalResolver.load(root)
        batch = _batch("q")
        out_live = live.resolve(batch)
        out_loaded = loaded.resolve(batch)
        assert out_loaded.matches == out_live.matches
        np.testing.assert_array_equal(out_loaded.scores, out_live.scores)
        assert out_loaded.assignments == out_live.assignments


class TestIncrementalSaves:
    def test_clean_shards_are_hardlinked_across_versions(self, fitted_pipeline, tmp_path):
        resolver = fitted_pipeline.freeze(shards=8)
        root = tmp_path / "art"
        resolver.save(root)
        first = artifact_dir(root)
        # a one-record batch dirties only the shards it lands in
        resolver.resolve([dict(_record(0, "z"), id="z0")])
        resolver.save(root)
        second = artifact_dir(root)
        assert second != first
        reused = rewritten = 0
        for path in sorted(second.glob("shards/*.shard")):
            if path.name == "ledger.shard":
                continue  # the ledger always rewrites (new record + dfs)
            old = first / "shards" / path.name
            if path.stat().st_ino == old.stat().st_ino:
                reused += 1
            else:
                rewritten += 1
        assert reused > 0, "expected untouched shards to be hardlinked"
        assert rewritten > 0, "expected the touched shards to be rewritten"

    def test_resolver_stays_usable_after_save(self, fitted_pipeline, tmp_path):
        """rebase_after_save folds overlays into the new base without data loss."""
        resolver = fitted_pipeline.freeze(shards=4)
        index, store = reference_freeze(fitted_pipeline)
        root = tmp_path / "art"
        batches = [_batch("s1-"), _batch("s2-", range(6, 12)), _batch("s3-", range(12, 18))]
        for batch in batches:
            ours = resolver.resolve(batch)
            resolver.save(root)  # rebase between every batch
            pairs, scores = reference_resolve(
                fitted_pipeline.generator_, fitted_pipeline.model_, index, store, batch
            )
            assert ours.pairs == pairs
            np.testing.assert_array_equal(ours.scores, scores)
        assert resolver.store.entities() == store.entities()


class TestLazyLoading:
    def test_resolve_touches_only_needed_shards(self, fitted_pipeline, tmp_path):
        root = tmp_path / "art"
        fitted_pipeline.freeze(shards=16).save(root)
        loaded = IncrementalResolver.load(root)
        loaded.resolve([dict(_record(3, "y"), id="y3")])
        stats = loaded.store.loader.stats()
        assert 0 < stats["loaded_shards"] < 32  # 16 store + 16 index shards total
        assert stats["loaded_bytes"] > 0

    def test_load_budget_evicts_cold_shards(self, fitted_pipeline, tmp_path):
        root = tmp_path / "art"
        # ~2 KiB budget: single shards fit, the full set does not
        fitted_pipeline.freeze(shards=8, load_budget_mb=0.002).save(root)
        loaded = IncrementalResolver.load(root)
        reference = fitted_pipeline.freeze(shards=1)
        batch = _batch("bud-", range(18))
        out_budget = loaded.resolve(batch)
        out_reference = reference.resolve(batch)
        assert out_budget.matches == out_reference.matches
        np.testing.assert_array_equal(out_budget.scores, out_reference.scores)
        stats = loaded.store.loader.stats()
        assert stats["evictions"] > 0
        assert loaded.store.loader.budget_bytes == int(0.002 * 1024 * 1024)


class TestIntegrity:
    def test_corrupt_ledger_fails_load(self, fitted_pipeline, tmp_path):
        root = tmp_path / "art"
        fitted_pipeline.freeze(shards=2).save(root)
        ledger = artifact_dir(root) / "shards" / "ledger.shard"
        raw = bytearray(ledger.read_bytes())
        raw[-1] ^= 0xFF
        ledger.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError):
            IncrementalResolver.load(root)

    def test_corrupt_cold_shard_fails_on_first_touch(self, fitted_pipeline, tmp_path):
        root = tmp_path / "art"
        fitted_pipeline.freeze(shards=4).save(root)
        target = artifact_dir(root) / "shards" / "store-0002.shard"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        loaded = IncrementalResolver.load(root)  # lazy: corruption not seen yet
        victim = next(
            rid for rid in loaded.store._order if loaded.store.shard_of(rid) == 2
        )
        with pytest.raises(IntegrityError, match="checksum"):
            loaded.store.get(victim)


def _legacy_artifact(pipeline, root):
    """An artifact in the retired format: the store embedded in the manifest."""
    resolver = pipeline.freeze()
    records = resolver.store.records()
    index_params = {k: v for k, v in resolver.index.params().items() if k != "n_shards"}
    store_state = {
        "id_attr": resolver.store.id_attr,
        "records": records,
        "entities": {eid: list(m) for eid, m in resolver.store.entities().items()},
        "next_ord": len(records),
    }
    extra = {
        "threshold": resolver.threshold,
        "engine": "batch",
        "workers": 1,
        "index": index_params,
        "store": store_state,
    }
    save_artifacts(root, resolver.generator, resolver.model, extra={"resolver": extra})
    return root


class TestLegacyArtifacts:
    """Artifacts written before the shard-container layout fail with a schema error."""

    def test_load_fails_with_schema_error(self, fitted_pipeline, tmp_path):
        root = _legacy_artifact(fitted_pipeline, tmp_path / "art")
        manifest = _manifest(root)["extra"]["resolver"]
        assert "store" in manifest and "sharded" not in manifest
        with pytest.raises(ArtifactError, match="re-freeze") as info:
            IncrementalResolver.load(root)
        assert info.value.reason == "schema"

    def test_serve_startup_fails_with_schema_error(self, fitted_pipeline, tmp_path):
        import subprocess
        import sys

        from repro.serve.state import ServingState

        root = _legacy_artifact(fitted_pipeline, tmp_path / "art")
        with pytest.raises(ArtifactError, match="re-freeze") as info:
            ServingState(root).load()  # the first step of ServeApp.start
        assert info.value.reason == "schema"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--artifacts", str(root), "--port", "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "re-freeze" in proc.stderr


class TestServingSharded:
    def test_serving_state_loads_and_resolves_sharded_artifacts(
        self, fitted_pipeline, tmp_path
    ):
        from repro.serve.protocol import ResolveRequest
        from repro.serve.state import ServingState

        root = tmp_path / "art"
        fitted_pipeline.freeze(shards=4).save(root)
        state = ServingState(root)
        state.load()
        assert state.resolver.store.n_shards == 4
        records = tuple(_batch("srv", range(3)))
        request = ResolveRequest(
            records=records, record_ids=tuple(r["id"] for r in records)
        )
        (outcome,) = state.execute_batch([request])
        result, _info = outcome
        assert result.record_ids == [r["id"] for r in request.records]
        assert state.resolver.store.snapshot().n_records == 39


def _retired_keys_artifact(pipeline, root):
    """An artifact as written before the feature engine and the worker pool
    were retired: ``engine``/``workers`` in ``extra.resolver``, in its
    sharded metadata and in the embedded spec."""
    resolver = pipeline.freeze(shards=2)
    payload = sharded_payload(resolver.store, resolver.index)
    extra = {
        "threshold": resolver.threshold,
        "engine": "per-pair",
        "workers": 3,
        "index": resolver.index.params(),
        "sharded": {**payload_meta(payload), "workers": 3},
    }
    spec = resolver.spec.to_dict()
    spec["blocking"]["engine"] = "per-record"
    spec["features"]["engine"] = "per-pair"
    spec["shard"]["workers"] = 3
    save_artifacts(
        root,
        resolver.generator,
        resolver.model,
        extra={"resolver": extra},
        spec=spec,
        extra_files=lambda staging: write_payload_files(staging, payload),
    )
    return root


class TestRetiredKeys:
    def test_artifact_with_engine_and_workers_loads_and_resolves(self, fitted_pipeline, tmp_path):
        root = _retired_keys_artifact(fitted_pipeline, tmp_path / "art")
        resolver = _manifest(root)["extra"]["resolver"]
        assert resolver["engine"] == "per-pair" and resolver["workers"] == 3

        loaded = IncrementalResolver.load(root)
        assert loaded.store.n_shards == 2
        assert loaded.spec.to_dict() == fitted_pipeline.freeze(shards=2).spec.to_dict()
        batch = _batch("old-")
        result = loaded.resolve([dict(r) for r in batch])

        index, store = reference_freeze(fitted_pipeline)
        pairs, scores = reference_resolve(
            fitted_pipeline.generator_, fitted_pipeline.model_, index, store, batch
        )
        assert result.pairs == pairs
        assert result.scores.tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
        assert result.assignments == {r["id"]: store.entity_of(r["id"]) for r in batch}

        # the next save writes none of the retired keys
        loaded.save(root)
        manifest = _manifest(root)
        resolver = manifest["extra"]["resolver"]
        assert "engine" not in resolver and "workers" not in resolver
        assert "workers" not in resolver["sharded"]
        assert "engine" not in manifest["pipeline_spec"]["blocking"]
        assert "engine" not in manifest["pipeline_spec"]["features"]
        assert "workers" not in manifest["pipeline_spec"]["shard"]
