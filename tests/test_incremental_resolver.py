"""End-to-end incremental resolution tests.

The fixture is a deduplication problem built to be unambiguous: 18 entities,
each with up to three near-identical variants; entities share a suffix token
("grill", "bistro", ...) with two other entities, so blocking produces both
clearly-matching intra-entity pairs and clearly-non-matching cross-entity
pairs — a geometry both the batch fit and the frozen model resolve the same
way. That makes the acceptance check exact: streaming the held-out variants
through a frozen resolver must land on the *same clusters* as a from-scratch
batch run over the union of all records.
"""

import numpy as np
import pytest

from repro.data.table import Table
from repro.eval.clustering import connected_components
from repro.incremental import IncrementalResolver
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
    if variant == "c":  # the streamed variant drops one distinguishing token
        name = f"{_WORDS[entity]} {suffix}"
    return {
        "id": f"{variant}{entity}",
        "name": name,
        "city": _CITIES[entity % len(_CITIES)],
        "phone": f"555-01{entity:02d}",
    }


def _table(records) -> Table:
    return Table(records, attributes=["name", "city", "phone"])


@pytest.fixture(scope="module")
def fixture_tables():
    initial = [_record(e, v) for e in range(18) for v in ("a", "b")]
    batch1 = [_record(e, "c") for e in range(9)]
    batch2 = [_record(e, "c") for e in range(9, 18)]
    return _table(initial), batch1, batch2


def _batch_clusters(table: Table) -> set[frozenset]:
    """Clusters (incl. singletons) of a from-scratch batch dedup run."""
    result = ERPipeline(blocking_attribute="name").run(table)
    components = connected_components(result.matches)
    clustered = {rid for comp in components for rid in comp}
    clusters = {frozenset(comp) for comp in components}
    clusters |= {frozenset([rid]) for rid in table.ids() if rid not in clustered}
    return clusters


@pytest.fixture(scope="module")
def frozen_resolver(fixture_tables, tmp_path_factory):
    """Fit on the initial table, save, and reload in a fresh resolver."""
    initial, _, _ = fixture_tables
    pipeline = ERPipeline(blocking_attribute="name")
    pipeline.run(initial)
    path = tmp_path_factory.mktemp("artifacts") / "resolver"
    pipeline.freeze().save(path)
    return IncrementalResolver.load(path)


class TestIncrementalEndToEnd:
    def test_streaming_equals_batch_on_union(self, fixture_tables, frozen_resolver):
        """The acceptance scenario: fit → save → load → 2 batches → same clusters."""
        initial, batch1, batch2 = fixture_tables
        resolver = frozen_resolver

        out1 = resolver.resolve(batch1)
        out2 = resolver.resolve(batch2)
        assert out1.record_ids == [r["id"] for r in batch1]
        assert len(out1.matches) > 0 and len(out2.matches) > 0

        union = _table(list(initial) + batch1 + batch2)
        assert set(resolver.store.clusters()) == _batch_clusters(union)

    def test_resolve_never_refits_em(self, fixture_tables, frozen_resolver, monkeypatch):
        """The frozen path must not touch any EM training entry point."""
        import repro.core.em as em

        def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("incremental resolve must not re-fit EM")

        monkeypatch.setattr(em.EMRunner, "run", _forbidden)
        monkeypatch.setattr(em.EMRunner, "m_step", _forbidden)
        monkeypatch.setattr(em.EMRunner, "e_step", _forbidden)
        monkeypatch.setattr(em, "magnitude_initialization", _forbidden)

        extra = [
            {"id": "x0", "name": "harbor lagoon grill", "city": "oakland", "phone": "555-0100"}
        ]
        result = frozen_resolver.resolve(extra)
        assert result.assignments["x0"]

    def test_assignments_track_merges(self, fixture_tables, frozen_resolver):
        """A streamed duplicate lands in its entity's existing cluster."""
        resolver = frozen_resolver
        dup = dict(resolver.store.get("a0"), id="dup0")
        result = resolver.resolve([dup])
        assert result.assignments["dup0"] == resolver.store.entity_of("a0")

    def test_novel_record_becomes_singleton(self, frozen_resolver):
        record = {"id": "solo", "name": "zzyzx quasar", "city": None, "phone": None}
        result = frozen_resolver.resolve([record])
        assert result.pairs == []
        assert result.scores.shape == (0,)
        assert frozen_resolver.store.members(result.assignments["solo"]) == ["solo"]

    def test_intra_batch_records_can_match(self, fixture_tables):
        """Two copies arriving in the same batch merge with each other."""
        initial, _, _ = fixture_tables
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(initial)
        resolver = pipeline.freeze()
        twins = [
            {"id": "t1", "name": "quartz falcon lounge", "city": "oakland", "phone": "555-0999"},
            {"id": "t2", "name": "quartz falcon lounge", "city": "oakland", "phone": "555-0999"},
        ]
        result = resolver.resolve(twins)
        assert ("t1", "t2") in result.pairs
        assert result.assignments["t1"] == result.assignments["t2"]

    def test_duplicate_record_id_rejected(self, frozen_resolver):
        with pytest.raises(ValueError, match="already"):
            frozen_resolver.resolve([{"id": "a0", "name": "whatever"}])

    def test_bad_batch_leaves_store_untouched(self, frozen_resolver):
        """Validation happens before ingestion: a bad batch is fully rejected."""
        before = len(frozen_resolver.store)
        bad = [
            {"id": "fresh1", "name": "brand new place"},
            {"id": "a0", "name": "duplicate of an existing id"},
        ]
        with pytest.raises(ValueError, match="already"):
            frozen_resolver.resolve(bad)
        assert len(frozen_resolver.store) == before
        assert "fresh1" not in frozen_resolver.store
        with pytest.raises(ValueError, match="twice in the batch"):
            frozen_resolver.resolve(
                [{"id": "twin", "name": "x"}, {"id": "twin", "name": "x"}]
            )
        assert len(frozen_resolver.store) == before


class TestResolverConstruction:
    def test_threshold_validated(self, fixture_tables):
        initial, _, _ = fixture_tables
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(initial)
        with pytest.raises(ValueError, match="threshold"):
            pipeline.freeze(threshold=1.5)

    def test_index_store_size_mismatch(self, fixture_tables):
        from repro.shard import ShardedTokenIndex

        initial, _, _ = fixture_tables
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(initial)
        resolver = pipeline.freeze()
        with pytest.raises(ValueError, match="index covers"):
            IncrementalResolver(
                resolver.generator,
                resolver.model,
                ShardedTokenIndex("name"),
                resolver.store,
            )

    def test_freeze_requires_completed_run(self):
        with pytest.raises(RuntimeError, match="run\\(\\) must complete"):
            ERPipeline(blocking_attribute="name").freeze()

    def test_freeze_rejects_overlapping_table_ids(self, fixture_tables):
        """Linkage freeze needs disjoint ids for the shared entity store."""
        initial, _, _ = fixture_tables
        clone = Table(list(initial), attributes=initial.attributes)
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(initial, clone)
        with pytest.raises(ValueError, match="both tables"):
            pipeline.freeze()

    def test_freeze_after_empty_run_raises_clearly(self, fixture_tables):
        """An empty-candidate run (even after a fitted one) cannot freeze."""
        initial, _, _ = fixture_tables
        pipeline = ERPipeline(blocking_attribute="name")
        pipeline.run(initial)           # fits a model
        no_overlap = _table(
            [{"id": f"n{i}", "name": f"tok{i}", "city": None, "phone": None} for i in range(4)]
        )
        pipeline.run(no_overlap)        # no shared tokens → no pairs, fit cleared
        with pytest.raises(RuntimeError, match="no candidate pairs"):
            pipeline.freeze()

    def test_scores_are_frozen_model_posteriors(self, fixture_tables, frozen_resolver):
        """Resolve scores equal predict_proba on the same featurized pairs."""
        resolver = frozen_resolver
        probe = dict(resolver.store.get("a1"), id="probe1")
        result = resolver.resolve([probe])
        assert len(result.pairs) > 0
        X = resolver.generator.transform(resolver.store, None, result.pairs)
        np.testing.assert_array_equal(result.scores, resolver.model.predict_proba(X))
