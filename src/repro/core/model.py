"""The ZeroER matcher (single-model form).

Covers deduplication (one table, within-table pairs) and plain record
linkage when the three-model transitivity coupling of §5 is not wanted —
for that, use :class:`repro.core.linkage.ZeroERLinkage`.

The matcher is completely unsupervised: ``fit`` consumes only the feature
matrix (plus the feature-group partition and, optionally, the pair ids that
enable transitivity calibration).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import ZeroERConfig
from repro.core.em import (
    EMHistory,
    EMRunner,
    MixtureParameters,
    frozen_scorer_parts,
    frozen_scorer_state,
)
from repro.core.transitivity import DedupTransitivityCalibrator
from repro.features.normalize import (
    MinMaxNormalizer,
    apply_normalization,
    fit_normalization,
)
from repro.utils.validation import check_feature_matrix

__all__ = ["ZeroER"]


class ZeroER:
    """Unsupervised entity-resolution matcher (paper Algorithm 1).

    Parameters
    ----------
    config:
        Full configuration; defaults to the paper's final model.
    **overrides:
        Convenience keyword overrides applied on top of ``config``, e.g.
        ``ZeroER(kappa=0.3, transitivity=False)``.

    Examples
    --------
    >>> model = ZeroER(transitivity=False)
    >>> labels = model.fit_predict(X, feature_groups=groups)   # doctest: +SKIP
    """

    def __init__(self, config: ZeroERConfig | None = None, **overrides):
        base = config if config is not None else ZeroERConfig()
        self.config = base.replace(**overrides) if overrides else base
        self._normalizer: MinMaxNormalizer | None = None
        self._impute_means: np.ndarray | None = None
        self._runner: EMRunner | None = None

    # -- fitting -------------------------------------------------------------

    def fit(
        self,
        X,
        feature_groups: Sequence[Sequence[int]] | None = None,
        pairs: Sequence[tuple] | None = None,
        controls=None,
    ) -> "ZeroER":
        """Fit the generative model on an unlabeled candidate set.

        Parameters
        ----------
        X:
            Raw feature matrix (``n_pairs × d``); NaN cells (missing
            attribute values) are allowed and imputed internally.
        feature_groups:
            Per-attribute feature index lists from the feature generator.
            ``None`` treats every feature as its own group.
        pairs:
            Record-id pairs aligned with the rows of ``X``. Required for
            transitivity calibration; if omitted while
            ``config.transitivity`` is on, calibration is skipped.
        controls:
            Optional :class:`~repro.reliability.checkpoint.FitControls`:
            crash-safe EM checkpoints, resume, and a wall-clock budget.
        """
        X = check_feature_matrix(X, allow_nan=True)
        if pairs is not None and len(pairs) != X.shape[0]:
            raise ValueError(f"{len(pairs)} pairs for {X.shape[0]} feature rows")
        X_model = self._prepare_training(X)
        self._runner = EMRunner(X_model, self._as_groups(feature_groups), self.config)
        calibrate = None
        if self.config.transitivity and pairs is not None:
            calibrate = DedupTransitivityCalibrator(
                pairs, max_degree=self.config.transitivity_max_degree
            ).calibrate
        self._runner.run(calibrate, controls=controls)
        return self

    def fit_predict(
        self,
        X,
        feature_groups: Sequence[Sequence[int]] | None = None,
        pairs: Sequence[tuple] | None = None,
    ) -> np.ndarray:
        """Fit and return the 0/1 match labels for the training pairs."""
        return self.fit(X, feature_groups, pairs).labels_

    def _prepare_training(self, X: np.ndarray) -> np.ndarray:
        self._normalizer, self._impute_means, prepared = fit_normalization(X)
        return prepared

    @staticmethod
    def _as_groups(feature_groups) -> list[list[int]] | None:
        if feature_groups is None:
            return None
        return [list(g) for g in feature_groups]

    # -- fitted state ------------------------------------------------------------

    def _check_fitted(self) -> EMRunner:
        if self._runner is None:
            raise RuntimeError("ZeroER must be fitted before this operation")
        return self._runner

    @property
    def match_scores_(self) -> np.ndarray:
        """Posterior match probabilities γ for the training pairs."""
        return self._check_fitted().gamma

    @property
    def labels_(self) -> np.ndarray:
        """0/1 match labels (γ > 0.5, Equation 5) for the training pairs."""
        return (self._check_fitted().gamma > 0.5).astype(np.int64)

    @property
    def params_(self) -> MixtureParameters:
        """The learned prior and M/U distributions."""
        params = self._check_fitted().params
        if params is None:
            raise RuntimeError("ZeroER has no parameters; fit first")
        return params

    @property
    def history_(self) -> EMHistory:
        """Likelihood trace, timings, and convergence flag."""
        return self._check_fitted().history

    @property
    def n_iter_(self) -> int:
        return self.history_.n_iterations

    @property
    def converged_(self) -> bool:
        return self.history_.converged

    # -- persistence --------------------------------------------------------------

    def get_fitted_state(self) -> dict:
        """Everything :meth:`predict_proba` needs, as plain dicts and arrays.

        Captures the configuration, feature grouping, normalization and
        imputation statistics, and the learned mixture — but *not* the
        training matrix or posteriors. A model restored with
        :meth:`from_fitted_state` scores new pairs bit-identically; it cannot
        be re-fitted (that requires training data).
        """
        runner = self._check_fitted()
        if runner.params is None:
            raise RuntimeError("ZeroER has no parameters; fit first")
        if self._normalizer is None or self._impute_means is None:
            raise RuntimeError("ZeroER must be fitted before get_fitted_state")
        return frozen_scorer_state(
            "zeroer", self.config, runner, self._normalizer, self._impute_means
        )

    @classmethod
    def from_fitted_state(cls, state: dict) -> "ZeroER":
        """Rebuild a frozen (inference-only) matcher from :meth:`get_fitted_state`."""
        config, normalizer, impute_means, runner = frozen_scorer_parts(state)
        model = cls(config)
        model._normalizer = normalizer
        model._impute_means = impute_means
        model._runner = runner
        return model

    # -- inference on unseen pairs ----------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        """Posterior match probabilities for *new* candidate pairs.

        The new rows are normalized and imputed with the training
        statistics, then scored under the learned mixture (no transitivity
        calibration — the new pairs carry no graph context). Used by the
        Figure 4(c) experiment: fit on an unlabeled subsample, predict the
        remainder.
        """
        runner = self._check_fitted()
        if self._normalizer is None or self._impute_means is None:
            raise RuntimeError("ZeroER must be fitted before predict_proba")
        X = check_feature_matrix(X, allow_nan=True)
        return runner.posterior(apply_normalization(self._normalizer, self._impute_means, X))

    def predict(self, X) -> np.ndarray:
        """0/1 match labels for new candidate pairs."""
        return (self.predict_proba(X) > 0.5).astype(np.int64)

    def explain(self, X) -> list:
        """Exact per-attribute-group attributions for each pair in ``X``.

        Returns one :class:`~repro.core.explain.PairExplanation` per row:
        the pair's match log-odds decomposed into the prior term plus one
        log-likelihood-ratio contribution per feature group (the
        block-diagonal structure makes this decomposition exact, not an
        approximation).
        """
        from repro.core.explain import explain_pairs

        runner = self._check_fitted()
        if self._normalizer is None or self._impute_means is None:
            raise RuntimeError("ZeroER must be fitted before explain")
        if runner.params is None:
            raise RuntimeError("ZeroER has no parameters; fit first")
        X = check_feature_matrix(X, allow_nan=True)
        prepared = apply_normalization(self._normalizer, self._impute_means, X)
        return explain_pairs(runner.params, prepared)
