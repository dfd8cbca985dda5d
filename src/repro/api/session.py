"""Staged resolution sessions: typed, cached, individually re-runnable stages.

A :class:`ResolutionSession` (opened with ``pipeline.session(left, right)``)
decomposes :meth:`~repro.api.pipeline.ERPipeline.run` into its three stages
and hands back a typed artifact per stage::

    session = pipeline.session(left, right)
    candidates = session.block()        # CandidateSet
    features = candidates.featurize()   # FeatureMatrix
    matches = features.match()          # MatchSet
    result = matches.to_result()        # == pipeline.run(left, right)

Every artifact is cached on the session: calling a stage again without
overrides returns the cached object, calling it with overrides (or
``force=True``) recomputes that stage and invalidates everything downstream.
The payoff is cheap what-if iteration — ``session.match(kappa=0.4)``
re-runs EM only, reusing the cached candidate set and feature matrix (and,
in linkage mode, the within-table pairs and features derived from them).

The full chain reproduces ``ERPipeline.run()`` exactly: same pairs, same
scores, same timing keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.pipeline import ERPipeline, ERResult
from repro.blocking.base import Blocker, candidate_statistics
from repro.core.config import ZeroERConfig
from repro.core.model import ZeroER
from repro.data.table import Table
from repro.features.generator import FeatureGenerator
from repro.obs import (
    RunCollector,
    RunTelemetry,
    add_counter,
    collector_scope,
    em_history_summary,
    span,
    telemetry_active,
)
from repro.reliability.health import (
    EMPTY_CANDIDATE_SET,
    HealthReport,
    health_scope,
    record_condition,
)

__all__ = ["ResolutionSession", "CandidateSet", "FeatureMatrix", "MatchSet"]


@dataclass
class CandidateSet:
    """Blocking output: the candidate pairs, plus the blocker that made them."""

    #: Candidate pairs in the blocker's deterministic order.
    pairs: list[tuple]
    #: The blocker instance actually used (after any override).
    blocker: Blocker
    #: Wall-clock seconds spent blocking.
    seconds: float
    session: "ResolutionSession" = field(repr=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def statistics(self, gold_matches=None) -> dict:
        """Candidate-set quality summary (dedup-aware pair-total denominator)."""
        left, right = self.session.left, self.session.right
        if right is None:
            total = len(left) * (len(left) - 1) // 2
            return candidate_statistics(
                self.pairs, gold_matches, len(left), len(left), total_pairs=total
            )
        return candidate_statistics(self.pairs, gold_matches, len(left), len(right))

    def featurize(self, **overrides) -> "FeatureMatrix":
        """Chain into the featurization stage (see :meth:`ResolutionSession.featurize`)."""
        return self.session.featurize(**overrides)


@dataclass
class FeatureMatrix:
    """Featurization output: the pair-similarity matrix and its provenance."""

    #: ``n_pairs × n_features`` similarity matrix (NaN = missing value).
    X: np.ndarray
    #: Column names, aligned with ``X``.
    feature_names: list[str]
    #: Per-attribute column index groups (the model's covariance blocks).
    feature_groups: list[list[int]]
    #: The fitted generator (types, idf tables, scales).
    generator: FeatureGenerator
    #: Wall-clock seconds spent fitting the generator + transforming.
    seconds: float
    session: "ResolutionSession" = field(repr=False)
    #: Linkage Fl/Fr inputs derived from these features, built on the first
    #: transitive match and reused by every re-match.
    _within: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple:
        """``(n_pairs, n_features)`` of :attr:`X`."""
        return self.X.shape

    def column(self, name: str) -> np.ndarray:
        """One feature column by name."""
        try:
            idx = self.feature_names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown feature {name!r}; available: {self.feature_names}"
            ) from None
        return self.X[:, idx]

    def match(self, **overrides) -> "MatchSet":
        """Chain into the matching stage (see :meth:`ResolutionSession.match`)."""
        return self.session.match(**overrides)


@dataclass
class MatchSet:
    """Matching output: scored pairs plus the fitted model that scored them."""

    #: The assembled :class:`~repro.api.pipeline.ERResult` (what ``run()`` returns).
    result: ERResult
    #: Fitted matcher (``None`` when blocking produced no candidates).
    model: object | None
    #: Fitted feature generator (``None`` when blocking produced no candidates).
    generator: FeatureGenerator | None
    #: The effective config this match ran with (after overrides).
    config: ZeroERConfig
    session: "ResolutionSession" = field(repr=False)

    @property
    def pairs(self) -> list[tuple]:
        """Scored candidate pairs, in blocking order."""
        return self.result.pairs

    @property
    def scores(self) -> np.ndarray:
        """Match probability γ per pair, aligned with :attr:`pairs`."""
        return self.result.scores

    @property
    def labels(self) -> np.ndarray:
        """0/1 match labels per pair (γ thresholded at 0.5)."""
        return self.result.labels

    @property
    def matches(self) -> list[tuple]:
        """``(left_id, right_id, score)`` triples for the predicted matches."""
        return self.result.matches

    def top_matches(self, k: int = 10) -> list[tuple]:
        """The ``k`` highest-scoring matches (see :meth:`ERResult.top_matches`)."""
        return self.result.top_matches(k)

    def to_frame(self, threshold: float = 0.5, one_to_one: bool = False) -> list[dict]:
        """Matches above ``threshold`` as a list of row dicts."""
        return self.result.to_frame(threshold=threshold, one_to_one=one_to_one)

    def to_csv(self, path, threshold: float = 0.5, one_to_one: bool = False):
        """Write the matches above ``threshold`` to ``path`` as CSV."""
        return self.result.to_csv(path, threshold=threshold, one_to_one=one_to_one)

    def to_result(self) -> ERResult:
        """The plain :class:`ERResult`, exactly as ``ERPipeline.run`` returns it."""
        return self.result

    def rematch(self, **overrides) -> "MatchSet":
        """Re-run the matching stage only (e.g. ``rematch(kappa=0.4)``)."""
        return self.session.match(force=True, **overrides)


class ResolutionSession:
    """One (left, right) resolution broken into cached, re-runnable stages.

    Created via :meth:`ERPipeline.session`. ``right=None`` means
    deduplication of ``left``. Stage methods compute on first call and
    return the cached artifact afterwards; overrides (or ``force=True``)
    recompute the stage and drop everything downstream. Completing
    :meth:`match` publishes the fitted state back onto the pipeline
    (``generator_``/``model_``/``result_``), so ``pipeline.freeze()`` works
    after a staged run exactly as after ``run()``.
    """

    def __init__(self, pipeline: ERPipeline, left: Table, right: Table | None = None):
        self.pipeline = pipeline
        self.left = left
        self.right = right
        self.candidates_: CandidateSet | None = None
        self.features_: FeatureMatrix | None = None
        self.matches_: MatchSet | None = None
        #: Created lazily on the first traced stage; one collector spans the
        #: whole session so staged runs produce a single coherent trace.
        self._collector: RunCollector | None = None

    def _collector_scope(self):
        """The session's span/metric capture scope (no-op when untraced)."""
        if self._collector is None and telemetry_active():
            mode = "dedup" if self.right is None else "linkage"
            self._collector = RunCollector("resolve", mode=mode)
        return collector_scope(self._collector)

    # -- stage 1: blocking -----------------------------------------------------

    def block(self, blocker: Blocker | None = None, force: bool = False) -> CandidateSet:
        """Compute (or return the cached) candidate pairs.

        ``blocker`` substitutes a different blocker for this session; an
        override invalidates the cached features and matches.
        """
        if self.candidates_ is not None and not force and blocker is None:
            return self.candidates_

        effective = blocker if blocker is not None else self.pipeline.blocker
        with self._collector_scope():
            with span("blocking", blocker=type(effective).__name__) as sp:
                pairs = effective.block(self.left, self.right)
                sp.set(n_pairs=len(pairs))
            add_counter("blocking.candidate_pairs", len(pairs))
        self.candidates_ = CandidateSet(
            pairs=pairs, blocker=effective, seconds=sp.seconds, session=self
        )
        self.features_ = None
        self.matches_ = None
        return self.candidates_

    # -- stage 2: featurization ------------------------------------------------

    def featurize(self, force: bool = False) -> FeatureMatrix:
        """Compute (or return the cached) pair feature matrix.

        Runs :meth:`block` first if needed. ``force=True`` recomputes the
        matrix, which invalidates the cached matches.
        """
        if self.features_ is not None and not force:
            return self.features_

        candidates = self.block()
        with self._collector_scope():
            with span("features") as sp:
                with span("features.fit"):
                    generator = FeatureGenerator(
                        type_overrides=self.pipeline.type_overrides
                    ).fit(self.left, self.right)
                if candidates.pairs:
                    X = generator.transform(self.left, self.right, candidates.pairs)
                else:
                    X = np.zeros((0, len(generator.feature_names_)))
                sp.set(n_pairs=int(X.shape[0]), n_features=int(X.shape[1]))
        self.features_ = FeatureMatrix(
            X=X,
            feature_names=generator.feature_names_,
            feature_groups=generator.feature_groups_,
            generator=generator,
            seconds=sp.seconds,
            session=self,
        )
        self.matches_ = None
        return self.features_

    # -- stage 3: matching -----------------------------------------------------

    def match(
        self,
        config: ZeroERConfig | None = None,
        force: bool = False,
        **config_overrides,
    ) -> MatchSet:
        """Fit the matcher on the cached features (or return the cached matches).

        ``config`` substitutes a whole :class:`ZeroERConfig`; keyword
        overrides patch individual fields of the effective config, e.g.
        ``session.match(kappa=0.4)`` re-runs EM under a different κ while
        reusing the cached candidate set and feature matrix.
        """
        overridden = config is not None or bool(config_overrides)
        if self.matches_ is not None and not force and not overridden:
            return self.matches_

        effective = config if config is not None else self.pipeline.config
        if config_overrides:
            effective = effective.replace(**config_overrides)

        health = HealthReport()
        candidates = self.block()
        timings: dict[str, float] = {"blocking": candidates.seconds}
        if not candidates.pairs:
            with health_scope(health):
                record_condition(
                    EMPTY_CANDIDATE_SET,
                    "blocking produced no candidate pairs; the result is empty "
                    "and no model was fitted",
                    n_left=len(self.left),
                    n_right=len(self.right) if self.right is not None else None,
                )
            result = ERResult([], np.zeros(0), np.zeros(0, dtype=np.int64), [], timings)
            result.health = health
            result.telemetry = self._run_telemetry(
                candidates, None, None, effective, health
            )
            self.matches_ = MatchSet(
                result=result, model=None, generator=None, config=effective, session=self
            )
            self._publish(self.matches_)
            return self.matches_

        features = self.featurize()
        timings["features"] = features.seconds

        with self._collector_scope(), health_scope(health):
            with span(
                "matching",
                n_pairs=len(candidates.pairs),
                transitivity=bool(effective.transitivity),
            ) as sp:
                if self.right is not None and effective.transitivity:
                    if features._within is None:
                        features._within = self.pipeline._within_table_inputs(
                            self.left, self.right, candidates.pairs, features.generator
                        )
                    model = self.pipeline._fit_linkage(
                        candidates.pairs,
                        features.X,
                        features.feature_groups,
                        features._within,
                        config=effective,
                    )
                else:
                    model = ZeroER(effective)
                    model.fit(
                        features.X,
                        features.feature_groups,
                        candidates.pairs if self.right is None else None,
                        controls=self.pipeline.fit_controls,
                    )
                labels = (model.match_scores_ > 0.5).astype(np.int64)
            add_counter("matching.pairs_scored", len(candidates.pairs))
            add_counter("matching.matches", int(labels.sum()))
        timings["matching"] = sp.seconds

        result = ERResult(
            pairs=candidates.pairs,
            scores=model.match_scores_,
            labels=labels,
            feature_names=features.feature_names,
            seconds=timings,
        )
        result.health = health
        result.telemetry = self._run_telemetry(candidates, features, model, effective, health)
        self.matches_ = MatchSet(
            result=result,
            model=model,
            generator=features.generator,
            config=effective,
            session=self,
        )
        self._publish(self.matches_)
        return self.matches_

    # -- the full chain ----------------------------------------------------------

    def run(self) -> ERResult:
        """Run (or finish) all stages and return the :class:`ERResult`.

        Equivalent to ``ERPipeline.run``: the pipeline's fit state is
        cleared first so a run that raises cannot leave ``freeze()`` pairing
        a previous run's model with this session's tables.
        """
        pipeline = self.pipeline
        pipeline.generator_ = None
        pipeline.model_ = None
        pipeline.result_ = None
        pipeline.fitted_blocker_ = None
        pipeline.fitted_config_ = None
        pipeline.left_, pipeline.right_ = self.left, self.right
        with self._collector_scope():
            with span("resolve", mode="dedup" if self.right is None else "linkage"):
                matches = self.match()
        self._publish(matches)  # re-publish when match() was already cached
        result = matches.to_result()
        if self._collector is not None and result.telemetry is not None:
            # the root span closed after match() attached the telemetry:
            # refresh the metrics snapshot (the spans list is shared)
            result.telemetry.metrics = self._collector.registry.snapshot()
        return result

    def _run_telemetry(
        self, candidates, features, model, config, health: HealthReport | None = None
    ) -> RunTelemetry:
        """Assemble the telemetry attached to this session's result.

        Always populated — even untraced runs carry the cheap summaries
        (mode/sizes, candidate statistics, EM history); the spans list and
        metrics snapshot are filled only when a collector was active.
        """
        n_left = len(self.left)
        n_right = len(self.right) if self.right is not None else None
        total = n_left * (n_left - 1) // 2 if self.right is None else n_left * n_right
        n_candidates = len(candidates.pairs)
        stats = {
            "n_candidates": n_candidates,
            "total_pairs": total,
            "reduction_ratio": 1.0 - n_candidates / total if total else 0.0,
        }
        context = {
            "mode": "dedup" if self.right is None else "linkage",
            "n_left": n_left,
            "n_right": n_right,
            "n_features": len(features.feature_names) if features is not None else 0,
            "transitivity": bool(config.transitivity),
        }
        em = em_history_summary(model.history_) if model is not None else None
        health_doc = health.to_dict() if health is not None and len(health) else None
        collector = self._collector
        if collector is not None:
            return RunTelemetry(
                kind="resolve",
                traced=True,
                spans=collector.spans,
                metrics=collector.registry.snapshot(),
                context=context,
                candidate_statistics=stats,
                em=em,
                health=health_doc,
            )
        return RunTelemetry(
            kind="resolve",
            traced=False,
            context=context,
            candidate_statistics=stats,
            em=em,
            health=health_doc,
        )

    def _publish(self, matches: MatchSet) -> None:
        """Copy a completed match's fitted state onto the pipeline.

        Includes the session-effective blocker and config so
        ``freeze()`` (index parameters + provenance spec) describes what
        actually produced the model, even when stages ran with overrides.
        """
        pipeline = self.pipeline
        pipeline.left_, pipeline.right_ = self.left, self.right
        pipeline.generator_ = matches.generator
        pipeline.model_ = matches.model
        pipeline.result_ = matches.result
        pipeline.fitted_blocker_ = (
            self.candidates_.blocker if self.candidates_ is not None else None
        )
        pipeline.fitted_config_ = matches.config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stages = [
            name
            for name, artifact in (
                ("block", self.candidates_),
                ("featurize", self.features_),
                ("match", self.matches_),
            )
            if artifact is not None
        ]
        mode = "dedup" if self.right is None else "linkage"
        return f"ResolutionSession({mode}, completed={stages})"
