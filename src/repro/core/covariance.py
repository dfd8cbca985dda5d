"""Weighted moment estimation and the shared-correlation decomposition.

Implements the M-step statistics of the paper:

* Equation (8)/(11): posterior-weighted means and per-group covariances;
* Equation (14)/(15): the decomposition ``S_C = Λ_C R Λ_C`` with a single
  Pearson correlation matrix ``R`` shared across classes and estimated from
  the entire dataset — the class-imbalance fix of §4.

The shared ``R`` does not depend on the posteriors, so it is computed once
per fit, not once per EM iteration.

Per-group covariances are slices of one ``d × d`` :func:`weighted_covariance`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.linalg import ROW_BLOCK, correlation_from_covariance

__all__ = [
    "weighted_mean",
    "weighted_covariance",
    "pooled_correlation_blocks",
    "rescale_to_correlation",
]


def weighted_mean(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Posterior-weighted sample mean ``x̄_C`` (Equation 8)."""
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; cannot compute a weighted mean")
    return (weights @ X) / total


def weighted_covariance(X: np.ndarray, weights: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Posterior-weighted sample covariance ``S_C`` (Equation 8).

    Uses the ``1/N_C`` normalization of the paper (maximum-likelihood, not
    Bessel-corrected). The scatter is accumulated :data:`ROW_BLOCK` rows at
    a time, centered on ``mean`` itself (not on a pooled mean), so a feature
    that equals its component mean exactly keeps an exact-zero variance.
    """
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; cannot compute a weighted covariance")
    scatter = np.zeros((X.shape[1], X.shape[1]))
    for start in range(0, X.shape[0], ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        diff = X[rows] - mean
        scatter += (weights[rows, None] * diff).T @ diff
    return scatter / total


def pooled_correlation_blocks(X: np.ndarray, groups: list[list[int]]) -> list[np.ndarray]:
    """Per-group Pearson correlation matrices estimated from **all** rows.

    This is the shared ``R`` of Equation (15): feature correlations are only
    mildly affected by class labels, so one matrix estimated from the whole
    (unlabeled) dataset serves both classes. Zero-variance features get unit
    diagonal and zero off-diagonals.
    """
    weights = np.full(X.shape[0], 1.0)
    cov = weighted_covariance(X, weights, weighted_mean(X, weights))
    return [correlation_from_covariance(cov[np.ix_(idx, idx)]) for idx in groups]


def rescale_to_correlation(block_cov: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """Rebuild a covariance block as ``Λ R Λ`` (Equation 15).

    ``Λ`` is taken from the diagonal of ``block_cov`` (the class's own
    per-feature standard deviations); the off-diagonal structure is replaced
    by the shared correlation ``R``. The diagonal of the result equals the
    diagonal of ``block_cov`` exactly.
    """
    if block_cov.shape != correlation.shape:
        raise ValueError(
            f"covariance block {block_cov.shape} and correlation {correlation.shape} disagree"
        )
    std = np.sqrt(np.clip(np.diag(block_cov), 0.0, None))
    return np.outer(std, std) * correlation
