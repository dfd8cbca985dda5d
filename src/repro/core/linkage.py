"""Three-model record-linkage training (paper §5, "DeDuplication v.s. Record
Linkage").

When matching two different tables T ≠ T', the transitivity triangles close
through *within-table* pairs: if one left record matches two right records,
those two right records must be duplicates of each other. So three
generative models are trained together:

* ``F``  — cross-table pairs (the matches we actually want),
* ``Fl`` — pairs within the left table,
* ``Fr`` — pairs within the right table,

with the per-iteration interleaving prescribed by the paper: F's E-step
(followed by transitivity calibration, which may modify Fl/Fr posteriors)
runs before Fl/Fr's M-steps, so the within-table models absorb the
calibrated posteriors before their own E-steps.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.config import ZeroERConfig
from repro.core.em import (
    EMHistory,
    EMRunner,
    emit_fit_metrics,
    frozen_scorer_parts,
    frozen_scorer_state,
    match_probability_histogram,
)
from repro.obs import span, telemetry_active
from repro.core.exceptions import InitializationError
from repro.core.transitivity import LinkageTransitivityCalibrator
from repro.reliability.checkpoint import CheckpointError, FitControls
from repro.reliability.health import (
    EM_NON_CONVERGENCE,
    EM_RESUMED_FROM_CHECKPOINT,
    EM_TIME_BUDGET_EXHAUSTED,
    record_condition,
)
from repro.features.normalize import (
    MinMaxNormalizer,
    apply_normalization,
    fit_normalization,
    impute_nan,
)
from repro.utils.validation import check_feature_matrix

__all__ = ["ZeroERLinkage"]


def _prepare(X) -> np.ndarray:
    X = check_feature_matrix(X, allow_nan=True)
    scaled = MinMaxNormalizer().fit_transform(X)
    return impute_nan(scaled)


class ZeroERLinkage:
    """ZeroER for two tables with the F/Fl/Fr transitivity coupling.

    Parameters
    ----------
    config:
        Shared hyperparameters for all three models; defaults to the paper's
        final configuration.

    Notes
    -----
    The within-table models are optional: when a table has no within-table
    candidate pairs (e.g. it is known to be duplicate-free), pass ``None``
    and the calibrator treats its closing pairs as γ = 0 — which *is* the
    correct semantics: a clean table means two right records matching the
    same left record is a violation, and the weaker cross edge gets demoted.
    """

    def __init__(self, config: ZeroERConfig | None = None, **overrides):
        base = config if config is not None else ZeroERConfig()
        self.config = base.replace(**overrides) if overrides else base
        self._cross: EMRunner | None = None
        self._left: EMRunner | None = None
        self._right: EMRunner | None = None
        self._normalizer: MinMaxNormalizer | None = None
        self._impute_means: np.ndarray | None = None

    def fit(
        self,
        X_cross,
        cross_pairs: Sequence[tuple],
        feature_groups: Sequence[Sequence[int]] | None = None,
        X_left=None,
        left_pairs: Sequence[tuple] | None = None,
        X_right=None,
        right_pairs: Sequence[tuple] | None = None,
        controls: FitControls | None = None,
    ) -> "ZeroERLinkage":
        """Train F (and Fl/Fr when within-table pair sets are provided).

        All three feature matrices must come from the same feature generator
        so that ``feature_groups`` applies to each. ``controls`` adds the
        reliability behaviors: combined F/Fl/Fr checkpoints through the
        crash-safe writer, resume, and a wall-clock budget (see
        :class:`~repro.reliability.checkpoint.FitControls`).
        """
        if len(cross_pairs) != np.asarray(X_cross).shape[0]:
            raise ValueError("cross_pairs must align with X_cross rows")
        groups = None if feature_groups is None else [list(g) for g in feature_groups]
        cfg = self.config
        # The cross model's normalization/imputation statistics are kept so
        # that predict_proba can score unseen pairs after fitting.
        X_cross = check_feature_matrix(X_cross, allow_nan=True)
        self._normalizer, self._impute_means, X_prepared = fit_normalization(X_cross)
        self._cross = EMRunner(X_prepared, groups, cfg, name="F")
        self._left = self._optional_runner(X_left, left_pairs, groups, "Fl")
        self._right = self._optional_runner(X_right, right_pairs, groups, "Fr")

        calibrator = None
        if cfg.transitivity:
            calibrator = LinkageTransitivityCalibrator(
                cross_pairs,
                left_pairs or (),
                right_pairs or (),
                max_degree=cfg.transitivity_max_degree,
            )

        store = controls.checkpoint if controls is not None else None
        resumed = False
        if controls is not None and controls.resume and store is not None:
            resumed = self._resume_from_checkpoint(store)

        if cfg.linkage_mode == "staged" and not resumed:
            # Train the within-table models to convergence first; their
            # posteriors are then fixed inputs to F's calibration (writes from
            # the calibrator persist, preventing raise-then-overwrite cycles).
            # A resumed fit restores the sides' trained state instead.
            for side in (self._left, self._right):
                if side is not None:
                    side.run()

        traced = telemetry_active()
        cross = self._cross
        history = cross.history
        joint = cfg.linkage_mode == "joint"
        started_run = time.monotonic()
        with span(
            "em.fit",
            model="F",
            n_pairs=int(X_prepared.shape[0]),
            max_iter=cfg.max_iter,
            linkage_mode=cfg.linkage_mode,
        ) as sp:
            budget_hit = False
            while cross._iteration < cfg.max_iter:
                iteration = cross._iteration
                started = time.perf_counter()
                cross.m_step()
                ll = cross.e_step()
                if calibrator is not None and iteration >= cfg.transitivity_warmup:
                    adjusted = calibrator.calibrate(
                        cross.gamma,
                        self._left.gamma if self._left is not None else None,
                        self._right.gamma if self._right is not None else None,
                    )
                    history.transitivity_adjustments.append(adjusted)
                if joint:
                    # the paper's interleaving: within models absorb the
                    # calibrated posteriors before their own E-steps
                    for side in (self._left, self._right):
                        if side is not None:
                            self._joint_side_step(side, traced)
                cross._tail.append(cross.gamma.copy())
                history.iteration_seconds.append(time.perf_counter() - started)
                history.log_likelihoods.append(ll)
                if traced:
                    history.match_probability_histograms.append(
                        match_probability_histogram(cross.gamma)
                    )
                cross._iteration += 1
                if cross._previous_ll is not None and abs(ll - cross._previous_ll) < cfg.tol:
                    history.converged = True
                    break
                cross._previous_ll = ll
                if controls is not None and controls.time_budget_s is not None:
                    budget_hit = time.monotonic() - started_run >= controls.time_budget_s
                # Checkpoints capture the clean loop state of all three
                # runners *before* any tail-averaging.
                if store is not None and (
                    budget_hit or cross._iteration % controls.checkpoint_every == 0
                ):
                    self._save_checkpoint(store)
                if budget_hit:
                    record_condition(
                        EM_TIME_BUDGET_EXHAUSTED,
                        f"F: EM stopped after {cross._iteration} iterations on a "
                        f"{controls.time_budget_s:g}s budget; returning best-so-far "
                        "parameters",
                        model="F",
                        iteration=cross._iteration,
                        time_budget_s=controls.time_budget_s,
                    )
                    break
            if not history.converged:
                if not budget_hit:
                    record_condition(
                        EM_NON_CONVERGENCE,
                        f"F: EM hit max_iter={cfg.max_iter} without likelihood "
                        "convergence; returning the tail-averaged posterior",
                        model="F",
                        max_iter=cfg.max_iter,
                    )
                if len(cross._tail) > 1:
                    cross.gamma = np.mean(np.stack(cross._tail), axis=0)
            cross._tail.clear()
            sp.set(n_iterations=history.n_iterations, converged=history.converged)
        if traced:
            emit_fit_metrics("F", history, cross.gamma)
            if joint:
                # a staged side emitted its own metrics from its run()
                for side in (self._left, self._right):
                    if side is not None:
                        emit_fit_metrics(side.name, side.history, side.gamma)
        return self

    def _joint_side_step(self, side: EMRunner, traced: bool) -> None:
        """One M- and E-step of a within-table model, recorded in its history.

        Under the joint schedule a side steps once per F iteration and never
        runs its own loop, so its history records each step here, as
        :meth:`EMRunner.run` would: the log likelihood, the seconds, and
        ``converged`` from the side's own last |ΔLL| against ``tol``.
        """
        started = time.perf_counter()
        side.m_step()
        ll = side.e_step()
        side.history.iteration_seconds.append(time.perf_counter() - started)
        side.history.log_likelihoods.append(ll)
        if traced:
            side.history.match_probability_histograms.append(
                match_probability_histogram(side.gamma)
            )
        side.history.converged = (
            side._previous_ll is not None and abs(ll - side._previous_ll) < self.config.tol
        )
        side._previous_ll = ll
        side._iteration += 1

    # -- combined checkpoints ------------------------------------------------------

    _SIDES = (("Fl", "_left"), ("Fr", "_right"))

    def _save_checkpoint(self, store) -> None:
        """One checkpoint holding F and whichever of Fl/Fr exist."""
        meta_f, arrays = self._cross.capture_loop_state(prefix="F.")
        runners: dict[str, dict | None] = {"F": meta_f}
        for name, attr in self._SIDES:
            side = getattr(self, attr)
            if side is not None:
                meta_side, side_arrays = side.capture_loop_state(prefix=f"{name}.")
                runners[name] = meta_side
                arrays.update(side_arrays)
            else:
                runners[name] = None
        store.save(
            {
                "format": 1,
                "kind": "linkage",
                "iteration": self._cross._iteration,
                "fingerprint": self._cross.fingerprint(),
                "runners": runners,
            },
            arrays,
        )

    def _resume_from_checkpoint(self, store) -> bool:
        """Restore F/Fl/Fr from the latest valid combined checkpoint."""
        loaded = store.latest()
        if loaded is None:
            return False
        meta, arrays = loaded
        if (
            meta.get("kind") != "linkage"
            or meta.get("fingerprint") != self._cross.fingerprint()
        ):
            raise CheckpointError(
                f"checkpoint in {store.root} does not match this linkage fit "
                "(different data, feature space, or configuration)",
                path=store.root,
            )
        runners = meta["runners"]
        for name, attr in self._SIDES:
            if (runners.get(name) is None) != (getattr(self, attr) is None):
                raise CheckpointError(
                    f"checkpoint in {store.root} disagrees with this fit about "
                    f"the {name} within-table model",
                    path=store.root,
                )
        self._cross.restore_loop_state(runners["F"], arrays, prefix="F.")
        for name, attr in self._SIDES:
            side = getattr(self, attr)
            if side is not None:
                side.restore_loop_state(runners[name], arrays, prefix=f"{name}.")
        record_condition(
            EM_RESUMED_FROM_CHECKPOINT,
            f"F: resumed linkage EM at iteration {self._cross._iteration}",
            severity="info",
            model="F",
            iteration=self._cross._iteration,
        )
        return True

    def _optional_runner(self, X, pairs, groups, name) -> EMRunner | None:
        if X is None:
            return None
        X = check_feature_matrix(X, allow_nan=True)
        if pairs is None or len(pairs) != X.shape[0]:
            raise ValueError(f"{name}: pairs must align with its feature matrix")
        within_config = self.config.replace(init_threshold=self.config.within_init_threshold)
        try:
            return EMRunner(_prepare(X), groups, within_config, name=name)
        except InitializationError:
            # A within-table candidate set can legitimately be all-unmatch
            # (a clean table); §5's semantics then reduce to γ = 0 closures.
            return None

    # -- fitted state -------------------------------------------------------------

    def _check_fitted(self) -> EMRunner:
        if self._cross is None:
            raise RuntimeError("ZeroERLinkage must be fitted before this operation")
        return self._cross

    @property
    def match_scores_(self) -> np.ndarray:
        """Posterior match probabilities for the cross-table pairs."""
        return self._check_fitted().gamma

    @property
    def labels_(self) -> np.ndarray:
        """0/1 labels for the cross-table pairs."""
        return (self._check_fitted().gamma > 0.5).astype(np.int64)

    @property
    def history_(self) -> EMHistory:
        return self._check_fitted().history

    @property
    def left_scores_(self) -> np.ndarray | None:
        """Posteriors of the left within-table model, if trained."""
        return self._left.gamma if self._left is not None else None

    @property
    def right_scores_(self) -> np.ndarray | None:
        """Posteriors of the right within-table model, if trained."""
        return self._right.gamma if self._right is not None else None

    # -- inference on unseen pairs -------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        """Posterior match probabilities for *new* cross-table pairs.

        New rows are normalized and imputed with the cross model's training
        statistics and scored under its learned mixture. Transitivity
        calibration does not apply — unseen pairs carry no graph context —
        so this is the frozen-scorer path used by incremental resolution.
        """
        runner = self._check_fitted()
        if self._normalizer is None or self._impute_means is None:
            raise RuntimeError("ZeroERLinkage must be fitted before predict_proba")
        X = check_feature_matrix(X, allow_nan=True)
        return runner.posterior(apply_normalization(self._normalizer, self._impute_means, X))

    def predict(self, X) -> np.ndarray:
        """0/1 match labels for new cross-table pairs."""
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    # -- persistence --------------------------------------------------------------

    def get_fitted_state(self) -> dict:
        """Inference-only state: the cross model F plus its preprocessing.

        The within-table models Fl/Fr exist only to shape training-time
        calibration; scoring unseen pairs needs F alone, so they are not
        persisted. A model restored with :meth:`from_fitted_state` scores
        bit-identically via :meth:`predict_proba` but cannot be re-fitted.
        """
        runner = self._check_fitted()
        if runner.params is None:
            raise RuntimeError("ZeroERLinkage has no parameters; fit first")
        if self._normalizer is None or self._impute_means is None:
            raise RuntimeError("ZeroERLinkage must be fitted before get_fitted_state")
        return frozen_scorer_state(
            "linkage", self.config, runner, self._normalizer, self._impute_means
        )

    @classmethod
    def from_fitted_state(cls, state: dict) -> "ZeroERLinkage":
        """Rebuild a frozen (inference-only) linkage matcher."""
        config, normalizer, impute_means, runner = frozen_scorer_parts(state, name="F")
        model = cls(config)
        model._normalizer = normalizer
        model._impute_means = impute_means
        model._cross = runner
        return model
