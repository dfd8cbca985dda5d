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
calibrated posteriors before their own E-steps. It is the only schedule:
training Fl and Fr to convergence first never scored higher
(docs/architecture.md, "Implementation choices").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import ZeroERConfig
from repro.core.em import EMHistory, EMRunner, frozen_scorer_parts, frozen_scorer_state
from repro.core.exceptions import InitializationError
from repro.core.transitivity import LinkageTransitivityCalibrator
from repro.reliability.checkpoint import FitControls
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
        so that ``feature_groups`` applies to each. F trains through
        :meth:`EMRunner.run <repro.core.em.EMRunner.run>` with Fl and Fr as
        its sides, so each iteration is §5's ``F.M, F.E, calibrate, Fl.M,
        Fl.E, Fr.M, Fr.E`` and only F's likelihood decides convergence.
        ``controls`` adds the reliability behaviors: one checkpoint of all
        three runners through the crash-safe writer, resume, and a
        wall-clock budget (see
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

        calibrate = None
        if cfg.transitivity:
            calibrator = LinkageTransitivityCalibrator(
                cross_pairs,
                left_pairs or (),
                right_pairs or (),
                max_degree=cfg.transitivity_max_degree,
            )
            left, right = self._left, self._right

            def calibrate(gamma: np.ndarray) -> int:
                return calibrator.calibrate(
                    gamma,
                    left.gamma if left is not None else None,
                    right.gamma if right is not None else None,
                )

        sides = tuple(side for side in (self._left, self._right) if side is not None)
        self._cross.run(calibrate, controls=controls, sides=sides)
        return self

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
