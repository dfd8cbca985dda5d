"""Block-diagonal multivariate Gaussian.

Feature grouping (paper §3.2) makes each class-conditional distribution a
product of independent per-group Gaussians — equivalently one Gaussian with
a block-diagonal covariance (Equation 10). Each block is factorized once,
on first use, into one block-diagonal inverse Cholesky factor.

:func:`stacked_logpdf` is the one density routine: it evaluates several
distributions in a single whitening pass over the rows
(:func:`~repro.utils.linalg.log_densities`). The EM E-step and the frozen
scorer call it with both mixture components; :meth:`BlockDiagonalGaussian.logpdf`
and :meth:`~BlockDiagonalGaussian.group_logpdf` are its one-component and
per-group cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.linalg import BlockFactor, factor_blocks, log_densities

__all__ = ["BlockDiagonalGaussian", "stacked_logpdf"]


@dataclass
class BlockDiagonalGaussian:
    """``N(mean, Σ)`` with ``Σ`` block-diagonal over feature groups.

    Parameters
    ----------
    mean:
        Full mean vector of length ``d``.
    groups:
        Partition of ``range(d)`` into index lists (one per block).
    blocks:
        Per-group covariance matrices, aligned with ``groups``.

    The blocks are factorized on first use and the factor is cached, so a
    distribution is treated as immutable.
    """

    mean: np.ndarray
    groups: list[list[int]]
    blocks: list[np.ndarray]

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if len(self.groups) != len(self.blocks):
            raise ValueError(
                f"{len(self.groups)} groups but {len(self.blocks)} covariance blocks"
            )
        covered = sorted(j for g in self.groups for j in g)
        if covered != list(range(self.mean.shape[0])):
            raise ValueError("groups must partition the feature indices exactly")
        for idx, block in zip(self.groups, self.blocks):
            block = np.asarray(block, dtype=np.float64)
            if block.shape != (len(idx), len(idx)):
                raise ValueError(
                    f"block for group {idx} has shape {block.shape}, expected {(len(idx), len(idx))}"
                )

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def factor(self) -> BlockFactor:
        """The blocks' factorization, computed once on first use."""
        return factor_blocks(self.groups, self.blocks, self.n_features)

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        """Per-row log density (the sum of the per-block log densities)."""
        return stacked_logpdf([self], X)[:, 0]

    def group_logpdf(self, X: np.ndarray) -> np.ndarray:
        """Per-row, per-group log densities ``(n, n_groups)``, aligned with ``groups``."""
        return stacked_logpdf([self], X, per_group=True)

    def covariance_matrix(self) -> np.ndarray:
        """The full ``d × d`` block-diagonal covariance (for inspection)."""
        d = self.n_features
        cov = np.zeros((d, d))
        for idx, block in zip(self.groups, self.blocks):
            cov[np.ix_(idx, idx)] = block
        return cov

    def variances(self) -> np.ndarray:
        """Per-feature variances (the diagonal of the full covariance)."""
        var = np.zeros(self.n_features)
        for idx, block in zip(self.groups, self.blocks):
            var[idx] = np.diag(block)
        return var


def stacked_logpdf(
    distributions: list[BlockDiagonalGaussian], X: np.ndarray, per_group: bool = False
) -> np.ndarray:
    """Log densities of the rows of ``X`` under each distribution, side by side.

    Returns ``(n, k)`` for ``k`` distributions over the same features, or
    with ``per_group`` each distribution's ``(n, n_groups)`` per-group log
    densities concatenated along the columns. All of them come from one
    whitening pass over ``X``, and every jittered block of every
    distribution is recorded in the active health scope on each call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for dist in distributions:
        if X.shape[1] != dist.n_features:
            raise ValueError(f"X has {X.shape[1]} features, distribution has {dist.n_features}")
    return log_densities(X, [(dist.factor, dist.mean) for dist in distributions], per_group)
