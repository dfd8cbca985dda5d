"""Streaming resolution against a frozen model.

:class:`IncrementalResolver` is the serving path the batch pipeline cannot
provide: given a model fitted once (EM never re-runs here), each arriving
batch of records is resolved in time proportional to the *batch*, not the
store — candidates come from the token index
(:class:`~repro.shard.index.ShardedTokenIndex`), only the new candidate
pairs are featurized, and the frozen model scores them via
``predict_proba``. Matches update the entity store's union-find registry
(:class:`~repro.shard.store.ShardedEntityStore`), so transitive merges
across batches happen automatically.

Records within one batch can match each other: each record is probed
against the index *before* being added, and earlier records of the batch
are already indexed when later ones probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.linkage import ZeroERLinkage
from repro.core.model import ZeroER
from repro.data.io import write_rows_csv
from repro.features.generator import FeatureGenerator, clear_feature_caches
from repro.incremental.artifacts import (
    ArtifactError,
    artifact_dir,
    load_artifacts,
    save_artifacts,
)
from repro.obs import (
    RunTelemetry,
    add_counter,
    collect_run,
    process_rss_bytes,
    set_gauge,
    span,
    telemetry_active,
)
from repro.reliability.health import (
    EMPTY_CANDIDATE_SET,
    HealthReport,
    health_scope,
    record_condition,
)
from repro.shard.artifacts import (
    load_sharded_state,
    payload_meta,
    rebase_after_save,
    sharded_payload,
    write_payload_files,
)
from repro.shard.index import ShardedTokenIndex
from repro.shard.store import ShardedEntityStore

__all__ = ["IncrementalResolver", "ResolveResult"]


@dataclass
class ResolveResult:
    """Outcome of resolving one batch of new records."""

    #: Ids of the records added by this batch, in input order.
    record_ids: list
    #: Candidate pairs ``(existing_id, new_id)`` that were scored.
    pairs: list[tuple]
    #: Frozen-model match probabilities, aligned with ``pairs``.
    scores: np.ndarray
    #: Entity id each new record ended up in (post-merge), keyed by record id.
    assignments: dict
    #: Match threshold the resolver applied.
    threshold: float
    #: Per-stage wall-clock seconds (``candidates``/``features``/``scoring``).
    seconds: dict[str, float] = field(default_factory=dict)
    #: Spans/metrics captured while resolving this batch (a
    #: :class:`~repro.obs.report.RunTelemetry`).
    telemetry: object | None = field(default=None, repr=False, compare=False)
    #: Degradations recorded while resolving (a
    #: :class:`~repro.reliability.health.HealthReport`).
    health: object | None = field(default=None, repr=False, compare=False)
    #: Shard/candidate statistics for the batch (shards touched, pairs per
    #: shard, load-budget counters).
    shard_stats: dict | None = field(default=None, repr=False, compare=False)

    @property
    def matches(self) -> list[tuple]:
        """The scored pairs that cleared the match threshold."""
        return [
            pair for pair, score in zip(self.pairs, self.scores) if score > self.threshold
        ]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    def to_frame(self) -> list[dict]:
        """The batch's assignments as ``{"record_id", "entity_id"}`` row dicts."""
        return [
            {"record_id": rid, "entity_id": self.assignments[rid]}
            for rid in self.record_ids
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write the record → entity assignments to ``path``."""
        rows = ((row["record_id"], row["entity_id"]) for row in self.to_frame())
        return write_rows_csv(path, ("record_id", "entity_id"), rows)

    def report(self) -> dict:
        """The batch resolution as one versioned JSON run-report document."""
        from repro.obs import build_report

        telemetry = self.telemetry
        if telemetry is None:
            telemetry = RunTelemetry(kind="resolve.incremental", traced=False)
        if telemetry.health is None and self.health is not None and len(self.health):
            telemetry.health = self.health.to_dict()
        return build_report(telemetry, self.seconds)


class IncrementalResolver:
    """Resolve arriving records against a frozen model and a live store.

    Parameters
    ----------
    generator:
        Fitted feature generator (frozen — types, idf tables, scales).
    model:
        Fitted :class:`~repro.core.model.ZeroER` or
        :class:`~repro.core.linkage.ZeroERLinkage`; only ``predict_proba``
        is used, EM is never re-run.
    index:
        Token index, already covering the store's records.
    store:
        Entity store holding previously resolved records (same shard count
        as ``index``).
    threshold:
        Match probability threshold (default 0.5, the paper's γ > 0.5 rule).
    spec:
        Optional :class:`~repro.api.spec.PipelineSpec` describing the
        pipeline that produced the frozen model — provenance carried into
        saved artifacts (``ERPipeline.freeze`` fills it automatically).

    Arriving batches are featurized in process by the same columnar
    kernels as the bulk pipeline
    (:meth:`~repro.features.generator.FeatureGenerator.transform`),
    through a feature memo the resolver keeps across batches: each
    attribute's scores for up to 4096 distinct value pairs, so a value
    pair that recurs (a city, a venue) is scored once. The memo starts
    empty with every resolver (``freeze``, ``load``, a serving reload),
    is never saved, and :meth:`clear_caches` empties it.
    """

    def __init__(
        self,
        generator: FeatureGenerator,
        model: ZeroER | ZeroERLinkage,
        index: ShardedTokenIndex,
        store: ShardedEntityStore,
        threshold: float = 0.5,
        spec=None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if len(index) != len(store):
            raise ValueError(
                f"index covers {len(index)} records but the store holds {len(store)}"
            )
        self.generator = generator
        self.model = model
        self.index = index
        self.store = store
        self.threshold = float(threshold)
        self.spec = spec
        self._feature_memo: dict = {}

    # -- resolution --------------------------------------------------------------

    def resolve(self, records) -> ResolveResult:
        """Resolve a batch of new records; returns scores and entity assignments.

        Each record is probed against the index, then added to the index and
        store; all retrieved candidate pairs are featurized and scored in one
        vectorized pass, and pairs above the threshold are merged in the
        store. Record ids must be new to the store.
        """
        records = list(records)  # a Table iterates as record dicts
        timings: dict[str, float] = {}
        id_attr = self.store.id_attr

        # Validate the whole batch before touching the index or store, so a
        # bad id cannot leave earlier batch records half-ingested (added but
        # never scored) with no way to retry.
        batch_ids = set()
        for rec in records:
            rid = rec[id_attr]
            if rid in self.store:
                raise ValueError(f"record id {rid!r} is already in the store")
            if rid in batch_ids:
                raise ValueError(f"record id {rid!r} appears twice in the batch")
            batch_ids.add(rid)

        health = HealthReport()
        with collect_run("resolve.incremental", batch_size=len(records)) as col, health_scope(
            health
        ):
            with span("candidates", batch_size=len(records)) as sp:
                pairs: list[tuple] = []
                new_ids = []
                for rec in records:
                    rid = rec[id_attr]
                    pairs.extend(
                        (cand, rid) for cand, _count in self.index.candidates(rec)
                    )
                    self.index.add([rec])
                    self.store.add(rec)
                    new_ids.append(rid)
                sp.set(n_pairs=len(pairs))
            timings["candidates"] = sp.seconds
            if records and not pairs:
                record_condition(
                    EMPTY_CANDIDATE_SET,
                    f"the index produced no candidate pairs for this batch of "
                    f"{len(records)} records; all records form new entities",
                    batch_size=len(records),
                )

            shard_stats = self._shard_stats(pairs)

            # Empty batches and batches with no candidates still go through
            # the spans, so reports carry real measured timings — never
            # fabricated zeros.
            with span("features", n_pairs=len(pairs)) as sp:
                X = (
                    self.generator.transform(self.store, None, pairs, memo=self._feature_memo)
                    if pairs
                    else None
                )
            timings["features"] = sp.seconds

            with span("scoring", n_pairs=len(pairs)) as sp:
                if X is not None:
                    scores = self.model.predict_proba(X)
                    n_matches = 0
                    for (a_id, b_id), score in zip(pairs, scores):
                        if score > self.threshold:
                            self.store.merge(a_id, b_id)
                            n_matches += 1
                else:
                    scores = np.zeros(0)
                    n_matches = 0
                sp.set(n_matches=n_matches)
            timings["scoring"] = sp.seconds

            add_counter("resolve.records", len(records))
            add_counter("resolve.candidate_pairs", len(pairs))
            add_counter("resolve.matches", n_matches)
            if telemetry_active():
                self._publish_gauges(shard_stats)

            result = ResolveResult(
                record_ids=new_ids,
                pairs=pairs,
                scores=scores,
                assignments={rid: self.store.entity_of(rid) for rid in new_ids},
                threshold=self.threshold,
                seconds=timings,
                telemetry=RunTelemetry(
                    kind="resolve.incremental",
                    traced=col is not None,
                    # shared by reference: the root span lands after exit
                    spans=col.spans if col is not None else [],
                    context={
                        "batch_size": len(records),
                        "threshold": self.threshold,
                        "store_size": len(self.store),
                    },
                ),
                health=health,
                shard_stats=shard_stats,
            )
        result.telemetry.health = health.to_dict() if len(health) else None
        if col is not None:
            result.telemetry.metrics = col.registry.snapshot()
        return result

    def _shard_stats(self, pairs: list[tuple]) -> dict:
        """Shard/candidate statistics for one batch."""
        pairs_per_shard: dict[int, int] = {}
        for existing_id, _new_id in pairs:
            shard = self.store.shard_of(existing_id)
            pairs_per_shard[shard] = pairs_per_shard.get(shard, 0) + 1
        touched = sorted(self.index.drain_touched())
        return {
            "n_shards": self.store.n_shards,
            "index_shards_touched": touched,
            "pairs_per_shard": {str(k): v for k, v in sorted(pairs_per_shard.items())},
            "loader": self.store.loader.stats(),
        }

    def _publish_gauges(self, shard_stats: dict) -> None:
        """Process- and shard-level gauges for run reports (traced runs only)."""
        rss = process_rss_bytes()
        if rss is not None:
            set_gauge("process.rss_bytes", rss)
        set_gauge("shard.count", shard_stats["n_shards"])
        loader = shard_stats["loader"]
        set_gauge("shard.loaded_bytes", loader["loaded_bytes"])
        set_gauge("shard.loaded_shards", loader["loaded_shards"])
        for info in self.store.shard_sizes():
            set_gauge(f"shard.store.records.{info['shard']:04d}", info["records"])

    def clear_caches(self) -> None:
        """Empty the feature memo and release the per-pair Monge–Elkan token cache.

        The memo holds each attribute's scores for up to 4096 distinct value
        pairs (see :meth:`~repro.features.generator.FeatureGenerator.transform`);
        the next batch scores its value pairs afresh. Only the per-pair
        fallback fills the token cache: custom
        :class:`~repro.features.generator.PairFeature` subclasses, and
        Monge–Elkan calls the batch kernel refuses. A resolve that stays on
        the batch kernels never touches it. The cache is an LRU bounded by
        ``REPRO_JW_CACHE_SIZE`` / :func:`repro.features.configure_jw_cache`.
        """
        self._feature_memo.clear()
        clear_feature_caches()

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path, report: dict | None = None) -> Path:
        """Persist the full resolver (model artifacts + store + index).

        The store and index are published as columnar shard containers
        under ``shards/`` in the same atomic version publish as the model;
        clean shards are hardlinked from the previous version rather than
        rewritten. A run report (:meth:`ResolveResult.report`) can be
        embedded alongside the pipeline spec for provenance.
        """
        budget = self.store.loader.budget_bytes
        payload = sharded_payload(
            self.store,
            self.index,
            load_budget_mb=budget / (1024 * 1024) if budget else None,
        )
        root = save_artifacts(
            path,
            self.generator,
            self.model,
            extra={
                "resolver": {
                    "threshold": self.threshold,
                    "index": self.index.params(),
                    "sharded": payload_meta(payload),
                }
            },
            spec=self.spec.to_dict() if self.spec is not None else None,
            report=report,
            extra_files=lambda staging: write_payload_files(staging, payload),
        )
        rebase_after_save(self.store, self.index, artifact_dir(root), payload)
        return root

    @classmethod
    def load(cls, path: str | Path) -> "IncrementalResolver":
        """Restore a resolver saved with :meth:`save`, ready to keep resolving.

        Loading is lazy: only the ledger is read here, and payload/posting
        shards stay on disk until a batch's tokens touch them. Artifacts
        written before the feature engine and worker pool were retired carry
        ``engine``/``workers`` keys; they load, and the keys are ignored.
        Raises :class:`~repro.incremental.artifacts.ArtifactError`
        with ``reason="schema"`` — never a raw ``KeyError``/numpy traceback
        — when the artifact is valid but carries no loadable resolver state,
        including artifacts that embed the store in the manifest (the
        pre-shard-container format: re-freeze those).
        """
        generator, model, manifest = load_artifacts(path)
        try:
            payload = manifest["extra"]["resolver"]
            if payload.get("sharded") is None:
                raise ArtifactError(
                    f"artifact at {path} stores its resolver in the retired in-manifest "
                    "format; re-freeze it (python -m repro fit, or ERPipeline.freeze() "
                    "then save()) to write the shard-container layout",
                    path=Path(path),
                    reason="schema",
                )
            store, index = load_sharded_state(artifact_dir(path), payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"artifact at {path} carries no loadable resolver state: {exc}",
                path=Path(path),
                reason="schema",
            ) from exc
        spec_payload = manifest.get("pipeline_spec")
        spec = None
        if spec_payload is not None:
            # deferred import: the api layer imports repro.incremental lazily
            # and vice versa, so neither package costs the other at import time
            from repro.api.spec import PipelineSpec, SpecError

            try:
                spec = PipelineSpec.from_dict(spec_payload)
            except SpecError as exc:
                # the spec is provenance metadata only: an unreadable one
                # (e.g. written by a newer spec version) must not make an
                # otherwise-valid artifact unloadable
                import warnings

                warnings.warn(
                    f"ignoring unreadable pipeline_spec in artifacts: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return cls(
            generator,
            model,
            index,
            store,
            threshold=payload["threshold"],
            spec=spec,
        )
