"""High-level end-to-end pipeline (the canonical home of :class:`ERPipeline`).

:class:`ERPipeline` wires blocking, automatic feature generation, and the
ZeroER matcher into one object for the common case: two tables in,
scored/labeled pairs out. Record-linkage transitivity (the F/Fl/Fr coupling
of §5) is handled automatically when enabled: within-table candidate sets
are derived from cross-candidate co-occurrence, exactly as the benchmark
harness does.

``run()`` is a thin wrapper over a staged :class:`~repro.api.session.ResolutionSession`
(``pipeline.session(left, right)``), which exposes the intermediate
artifacts — ``CandidateSet → FeatureMatrix → MatchSet`` — individually,
cached and re-runnable with overrides. Pipelines can also be described
declaratively: see :class:`~repro.api.spec.PipelineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.blocking.base import Blocker
from repro.blocking.overlap import TokenOverlapBlocker
from repro.core.config import ZeroERConfig
from repro.core.linkage import ZeroERLinkage
from repro.core.model import ZeroER
from repro.data.io import write_rows_csv
from repro.data.table import Table
from repro.eval.harness import co_candidate_pairs
from repro.eval.matching import greedy_one_to_one, score_threshold_matches
from repro.features.generator import FeatureGenerator

__all__ = ["ERPipeline", "ERResult"]


@dataclass
class ERResult:
    """Everything a pipeline run produces."""

    pairs: list[tuple]
    scores: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    seconds: dict[str, float] = field(default_factory=dict)
    #: Spans/metrics/EM summaries captured by the run (a
    #: :class:`~repro.obs.report.RunTelemetry`); ``None`` only for results
    #: constructed outside the session layer.
    telemetry: object | None = field(default=None, repr=False, compare=False)
    #: Degradations recorded while matching (a
    #: :class:`~repro.reliability.health.HealthReport`); ``None`` only for
    #: results constructed outside the session layer.
    health: object | None = field(default=None, repr=False, compare=False)

    def report(self) -> dict:
        """The run as one versioned JSON document (see :mod:`repro.obs.report`).

        Assembles the captured spans, metrics, candidate statistics, EM
        history, and health flags into a
        :func:`repro.obs.validate_report`-clean dict. Works on untraced runs
        too — the document then has empty spans/metrics but real timings and
        EM summaries.
        """
        from repro.obs import RunTelemetry, build_report

        telemetry = self.telemetry
        if telemetry is None:
            telemetry = RunTelemetry(kind="resolve", traced=False)
        if telemetry.health is None and self.health is not None and len(self.health):
            telemetry.health = self.health.to_dict()
        return build_report(telemetry, self.seconds)

    @property
    def matches(self) -> list[tuple]:
        """The predicted matching pairs."""
        return [pair for pair, label in zip(self.pairs, self.labels) if label == 1]

    def top_matches(self, k: int = 10) -> list[tuple]:
        """The ``k`` most confident predicted matches with their scores."""
        order = np.argsort(-self.scores)
        out = []
        for i in order:
            if self.labels[int(i)] == 1:
                out.append((self.pairs[int(i)], float(self.scores[int(i)])))
            if len(out) >= k:
                break
        return out

    def to_frame(self, threshold: float = 0.5, one_to_one: bool = False) -> list[dict]:
        """Matched pairs as ``{"left_id", "right_id", "score"}`` row dicts.

        ``threshold`` selects pairs with score strictly above it;
        ``one_to_one`` post-processes into a greedy one-to-one assignment
        (sensible for record linkage between deduplicated tables only).
        """
        score_of = {tuple(p): float(s) for p, s in zip(self.pairs, self.scores)}
        if one_to_one:
            selected = greedy_one_to_one(self.pairs, self.scores, threshold)
        else:
            selected = score_threshold_matches(self.pairs, self.scores, threshold)
        return [
            {"left_id": a, "right_id": b, "score": score_of[(a, b)]} for a, b in selected
        ]

    def to_csv(
        self,
        path: str | Path,
        threshold: float = 0.5,
        one_to_one: bool = False,
        *,
        frame: list[dict] | None = None,
    ) -> Path:
        """Write :meth:`to_frame` rows to ``path`` (scores formatted to 6 dp).

        ``frame`` accepts an already-computed :meth:`to_frame` result so
        callers that need both the rows and the file pay for the match
        selection once; ``threshold``/``one_to_one`` are ignored then.
        """
        if frame is None:
            frame = self.to_frame(threshold=threshold, one_to_one=one_to_one)
        rows = ((row["left_id"], row["right_id"], f"{row['score']:.6f}") for row in frame)
        return write_rows_csv(path, ("left_id", "right_id", "score"), rows)


class ERPipeline:
    """Block → featurize → match, in one call.

    Parameters
    ----------
    blocker:
        Any :class:`~repro.blocking.base.Blocker`; defaults to token overlap
        on ``blocking_attribute``.
    blocking_attribute:
        Attribute for the default blocker (required when ``blocker`` is not
        given).
    config:
        ZeroER hyperparameters (paper defaults when omitted).
    co_candidate_cap:
        Per-anchor cap when deriving within-table candidate sets for the
        linkage transitivity coupling.
    type_overrides:
        Optional ``{attribute: AttributeType}`` forwarded to the
        :class:`~repro.features.generator.FeatureGenerator`, pinning types
        that inference would get wrong.
    fit_controls:
        Optional :class:`~repro.reliability.checkpoint.FitControls` applied
        to every EM fit this pipeline runs: crash-safe checkpoints, resume,
        and a wall-clock budget (best-so-far parameters with
        ``converged=False`` instead of hanging).
    """

    def __init__(
        self,
        blocker: Blocker | None = None,
        blocking_attribute: str | None = None,
        config: ZeroERConfig | None = None,
        co_candidate_cap: int = 10,
        type_overrides: dict | None = None,
        fit_controls=None,
    ):
        if blocker is None:
            if blocking_attribute is None:
                raise ValueError("provide either a blocker or a blocking_attribute")
            blocker = TokenOverlapBlocker(blocking_attribute, min_overlap=1, top_k=60)
        self.blocker = blocker
        self.config = config if config is not None else ZeroERConfig()
        self.co_candidate_cap = int(co_candidate_cap)
        self.type_overrides = dict(type_overrides) if type_overrides else None
        self.fit_controls = fit_controls
        self.generator_: FeatureGenerator | None = None
        self.model_: ZeroER | ZeroERLinkage | None = None
        self.left_: Table | None = None
        self.right_: Table | None = None
        self.result_: ERResult | None = None
        # Effective settings behind model_/result_: staged sessions may
        # override the blocker or config per stage, and freeze() must
        # describe what actually ran, not the pipeline's defaults.
        self.fitted_blocker_: Blocker | None = None
        self.fitted_config_: ZeroERConfig | None = None

    def session(self, left: Table, right: Table | None = None):
        """Open a staged :class:`~repro.api.session.ResolutionSession`.

        The session exposes the pipeline's stages individually —
        ``session.block()`` → ``session.featurize()`` → ``session.match()``
        — with each intermediate artifact cached, inspectable, and
        re-runnable with overrides (e.g. re-match under a different κ
        without re-blocking or re-featurizing).
        """
        from repro.api.session import ResolutionSession

        return ResolutionSession(self, left, right)

    def run(self, left: Table, right: Table | None = None) -> ERResult:
        """Resolve entities between two tables (or within one, dedup mode)."""
        return self.session(left, right).run()

    def freeze(
        self,
        threshold: float = 0.5,
        shards: int = 1,
        load_budget_mb: float | None = None,
    ):
        """Turn the completed batch run into an :class:`IncrementalResolver`.

        The fitted model and feature generator are frozen as-is; the entity
        store is seeded with every record of the run's table(s), clustered
        by the run's predicted matches; the incremental index is built with
        the pipeline blocker's retrieval parameters (requires a
        :class:`~repro.blocking.overlap.TokenOverlapBlocker`). In linkage
        mode the two tables share one store, so their record ids must be
        disjoint. The pipeline's declarative spec (when capturable) is
        embedded in the resolver for provenance.

        The store and index partition into ``shards`` hash shards (default
        1; results are bit-identical for any count); an optional in-process
        shard ``load_budget_mb`` is enforced after a reload.
        """
        from repro.incremental.resolver import IncrementalResolver
        from repro.shard import (
            ShardedEntityStore,
            ShardedTokenIndex,
            ShardLoadManager,
            validate_shard_count,
        )

        shards = validate_shard_count(shards)
        if self.result_ is None:
            raise RuntimeError("run() must complete before freeze()")
        if self.model_ is None or self.generator_ is None:
            raise RuntimeError(
                "cannot freeze: the run produced no candidate pairs, so no model was fitted"
            )
        left, right = self.left_, self.right_
        if right is not None:
            shared = set(left.ids()) & set(right.ids())
            if shared:
                example = sorted(shared, key=repr)[:3]
                raise ValueError(
                    f"cannot freeze: {len(shared)} record ids appear in both tables "
                    f"(e.g. {example}); the shared entity store needs disjoint ids — "
                    "prefix each side before running"
                )
        blocker = self.fitted_blocker_ if self.fitted_blocker_ is not None else self.blocker
        budget = int(load_budget_mb * 1024 * 1024) if load_budget_mb else None
        loader = ShardLoadManager(budget_bytes=budget)
        index = ShardedTokenIndex.from_blocker(
            blocker, id_attr=left.id_attr, n_shards=shards, loader=loader
        )
        store = ShardedEntityStore(id_attr=left.id_attr, n_shards=shards, loader=loader)
        for table in (left, right) if right is not None else (left,):
            index.add(table)
            store.add_records(table)
        for pair, score in zip(self.result_.pairs, self.result_.scores):
            if score > threshold:
                store.merge(*pair)
        return IncrementalResolver(
            self.generator_,
            self.model_,
            index,
            store,
            threshold=threshold,
            spec=self._capture_spec(threshold, shards, load_budget_mb),
        )

    def _capture_spec(
        self,
        threshold: float,
        shards: int = 1,
        load_budget_mb: float | None = None,
    ):
        """Best-effort declarative capture of the *fitted* run, for provenance.

        Describes what actually produced ``model_``/``result_`` — the
        session-effective blocker and config when a staged run overrode the
        pipeline's defaults. Returns ``None`` when the run cannot be
        described declaratively (custom blocker class, non-serializable
        tokenizer, ...) — freezing still works, the artifact just carries no
        spec.
        """
        from repro.api.spec import (
            BlockingSpec,
            FeatureSpec,
            ModelSpec,
            OutputSpec,
            PipelineSpec,
            ShardSpec,
            SpecError,
        )

        blocker = self.fitted_blocker_ if self.fitted_blocker_ is not None else self.blocker
        config = self.fitted_config_ if self.fitted_config_ is not None else self.config
        overrides = self.type_overrides or {}
        sharded = shards > 1 or load_budget_mb is not None
        try:
            return PipelineSpec(
                blocking=BlockingSpec.from_blocker(blocker),
                features=FeatureSpec(
                    type_overrides={a: t.value for a, t in overrides.items()},
                ),
                model=ModelSpec(
                    config=config,
                    co_candidate_cap=self.co_candidate_cap,
                    time_budget_s=(
                        self.fit_controls.time_budget_s
                        if self.fit_controls is not None
                        else None
                    ),
                ),
                output=OutputSpec(threshold=threshold),
                shard=(
                    ShardSpec(shards=shards, load_budget_mb=load_budget_mb)
                    if sharded
                    else None
                ),
            )
        except (SpecError, TypeError):
            return None

    def _within_table_inputs(self, left, right, pairs, generator):
        """Inputs of the within-table models Fl/Fr: ``(left_pairs, X_left, right_pairs, X_right)``.

        Within-table candidates are the cross candidates' co-candidates
        (capped per anchor by ``co_candidate_cap``); a side without any gets
        ``None`` features. They depend only on the candidate pairs and the
        fitted generator, so a session derives them once per feature matrix.
        """
        left_pairs = co_candidate_pairs(pairs, side=0, cap=self.co_candidate_cap)
        right_pairs = co_candidate_pairs(pairs, side=1, cap=self.co_candidate_cap)
        X_left = generator.transform(left, None, left_pairs) if left_pairs else None
        X_right = generator.transform(right, None, right_pairs) if right_pairs else None
        return left_pairs, X_left, right_pairs, X_right

    def _fit_linkage(
        self, pairs, X, feature_groups, within, config: ZeroERConfig | None = None
    ) -> ZeroERLinkage:
        left_pairs, X_left, right_pairs, X_right = within
        model = ZeroERLinkage(config if config is not None else self.config)
        model.fit(
            X,
            pairs,
            feature_groups=feature_groups,
            X_left=X_left,
            left_pairs=left_pairs if X_left is not None else None,
            X_right=X_right,
            right_pairs=right_pairs if X_right is not None else None,
            controls=self.fit_controls,
        )
        return model
