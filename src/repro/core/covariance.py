"""Weighted moment estimation and the shared-correlation decomposition.

Implements the M-step statistics of the paper:

* Equation (8)/(11): posterior-weighted means and per-group covariances;
* Equation (14)/(15): the decomposition ``S_C = Λ_C R Λ_C`` with a single
  Pearson correlation matrix ``R`` shared across classes and estimated from
  the entire dataset — the class-imbalance fix of §4.

The shared ``R`` does not depend on the posteriors, so it is computed once
per fit, not once per EM iteration. A model that reads only per-feature
variances (shared ``R``, or one feature per group) gets them for both
components from one pass of :func:`weighted_variances`, and
:func:`variance_blocks` builds each group's ``Λ R Λ + K`` from them. Only a
model that reads off-diagonals (the Table 4 ablations without ``R``) takes
the ``d × d`` :func:`weighted_covariance` per component.
"""

from __future__ import annotations

import numpy as np

from repro.utils.linalg import ROW_BLOCK, correlation_from_covariance

__all__ = [
    "weighted_mean",
    "weighted_covariance",
    "weighted_variances",
    "pooled_correlation_blocks",
    "rescale_to_correlation",
    "variance_blocks",
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


def weighted_variances(X: np.ndarray, weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Posterior-weighted per-feature variances of ``k`` components at once.

    ``weights`` is ``(k, n)`` and ``means`` ``(k, d)``; returns ``(k, d)``,
    row ``c`` the diagonal of :func:`weighted_covariance` for component
    ``c``. One pass over :data:`ROW_BLOCK`-row blocks fills a reused
    ``(k, rows, d)`` buffer with every component's centered rows, squares it
    in place, and sums each component with one batched matmul by its
    weights: three operations per block for all ``k``. Each variance is
    centered on its own component's mean, so a feature that equals that
    mean exactly keeps an exact-zero variance.
    """
    totals = weights.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("weights sum to zero; cannot compute a weighted variance")
    n, d = X.shape
    sums = np.zeros((weights.shape[0], 1, d))
    buffer = np.empty((weights.shape[0], min(n, ROW_BLOCK), d))
    # each mean tiled to a whole block: a flat elementwise subtraction is
    # cheaper than broadcasting a short row
    tiled = np.broadcast_to(means[:, None, :], buffer.shape).copy()
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        diff = buffer[:, : stop - start]
        np.subtract(X[start:stop], tiled[:, : stop - start], out=diff)
        np.square(diff, out=diff)
        sums += np.matmul(weights[:, None, start:stop], diff)
    return sums[:, 0] / totals[:, None]


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
    by the shared correlation ``R``. The diagonal of the result is the
    diagonal of ``block_cov`` up to the rounding of ``√v · √v``.
    """
    if block_cov.shape != correlation.shape:
        raise ValueError(
            f"covariance block {block_cov.shape} and correlation {correlation.shape} disagree"
        )
    return _scaled_correlation(np.diag(block_cov), correlation)


def _scaled_correlation(variances: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    std = np.sqrt(np.clip(variances, 0.0, None))
    return np.outer(std, std) * correlation


def variance_blocks(
    variances: np.ndarray,
    groups: list[list[int]],
    correlations: list[np.ndarray] | None,
    penalty: np.ndarray,
) -> list[np.ndarray]:
    """Each group's ``Σ = Λ R Λ + K`` from per-feature variances (Eq. 13, 15).

    ``Λ`` is the diagonal of the variances' square roots and ``R`` the
    group's shared correlation; with ``correlations=None`` (one feature per
    group, so there is no off-diagonal to read) a block is the variance
    itself. ``penalty`` is the diagonal of ``K`` over all ``d`` features.
    """
    blocks = []
    for g, idx in enumerate(groups):
        if correlations is None:
            block = np.diag(variances[idx])
        else:
            block = _scaled_correlation(variances[idx], correlations[g])
        block[np.diag_indices_from(block)] += penalty[idx]
        blocks.append(block)
    return blocks
