"""Numerically robust linear-algebra primitives for the EM core.

The EM loop repeatedly evaluates multivariate-Gaussian log densities with
covariance matrices that can be nearly singular (that is the entire point of
the paper's Section 3.3). Everything here is written so a rank-deficient
block degrades gracefully instead of raising ``LinAlgError`` mid-iteration.

A block-diagonal covariance is factorized once into a :class:`BlockFactor`;
each log density is then one whitening pass over :data:`ROW_BLOCK`-row
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.reliability.health import SINGULAR_COVARIANCE_FALLBACK, record_condition

__all__ = [
    "ROW_BLOCK",
    "BlockFactor",
    "factor_blocks",
    "robust_cholesky",
    "gaussian_logpdf",
    "correlation_from_covariance",
]

#: Rows per block in the streamed E- and M-step kernels. A block of a
#: pub_da feature matrix (15 features) and its whitened copy take 2 × 240
#: KiB, so both stay in L2 while a single matmul works on them.
ROW_BLOCK = 2048

#: Jitter ladder tried, in order, when a Cholesky factorization fails.
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

_LOG_2PI = np.log(2.0 * np.pi)


def _cholesky_ladder(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``cov`` and the jitter it needed (0.0: none)."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise np.linalg.LinAlgError("covariance matrix contains NaN or infinite entries")
    scale = float(np.mean(np.abs(np.diag(cov))))
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    eye = np.eye(cov.shape[0])
    for jitter in _JITTER_LADDER:
        try:
            return scipy.linalg.cholesky(cov + jitter * scale * eye, lower=True), jitter
        except scipy.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("covariance matrix could not be factorized even with jitter")


def _record_jitter(jitter: float) -> None:
    # a singular block rescued by jitter: a defined degradation, recorded
    # for the run's health report
    record_condition(
        SINGULAR_COVARIANCE_FALLBACK,
        f"a covariance block required diagonal jitter {jitter:g} to "
        "factorize (rank-deficient feature group)",
        jitter=jitter,
    )


def robust_cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of ``cov``, with jitter fallback.

    Tries an escalating ladder of diagonal jitter values (scaled by the mean
    diagonal magnitude) until factorization succeeds. Raises
    ``np.linalg.LinAlgError`` only if even the largest jitter fails, which in
    practice means the input contains NaN.
    """
    factor, jitter = _cholesky_ladder(cov)
    if jitter > 0.0:
        _record_jitter(jitter)
    return factor


@dataclass(frozen=True, eq=False)
class BlockFactor:
    """One factorization of a block-diagonal covariance ``Σ``.

    ``whiten`` is ``Wᵀ``, C-contiguous, for the ``d × d`` block-diagonal
    inverse Cholesky factor ``W`` (``W Σ Wᵀ = I``), so a row's Mahalanobis
    distance ``‖(x − μ) Wᵀ‖²`` is one matmul and a squared norm.
    ``log_dets`` are the per-block log-determinants. ``jitters`` holds the
    jitter of each block that needed one; every density evaluation records
    them again, so each health scope using the factor sees the degradation.
    """

    groups: tuple[tuple[int, ...], ...]
    whiten: np.ndarray
    log_dets: np.ndarray
    jitters: tuple[float, ...]

    def _whitened(self, X: np.ndarray, mean: np.ndarray):
        """Yield ``(rows, (X[rows] − mean) Wᵀ)`` over :data:`ROW_BLOCK`-row blocks."""
        for jitter in self.jitters:
            _record_jitter(jitter)
        for start in range(0, X.shape[0], ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            yield rows, (X[rows] - mean) @ self.whiten

    def logpdf(self, X: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Per-row log density of ``N(mean, Σ)``."""
        maha = np.empty(X.shape[0])
        for rows, z in self._whitened(X, mean):
            maha[rows] = np.einsum("ij,ij->i", z, z)
        return -0.5 * (self.whiten.shape[0] * _LOG_2PI + self.log_dets.sum() + maha)

    def group_logpdf(self, X: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Per-row, per-group log densities ``(n, n_groups)``; rows sum to :meth:`logpdf`."""
        member = np.zeros((self.whiten.shape[0], len(self.groups)))
        for g, idx in enumerate(self.groups):
            member[list(idx), g] = 1.0
        maha = np.empty((X.shape[0], len(self.groups)))
        for rows, z in self._whitened(X, mean):
            maha[rows] = (z * z) @ member
        return -0.5 * (member.sum(axis=0) * _LOG_2PI + self.log_dets + maha)


def factor_blocks(groups, blocks, n_features: int) -> BlockFactor:
    """Factorize each covariance block once (through the jitter ladder).

    ``groups`` partitions ``range(n_features)``; ``blocks[g]`` is the
    covariance of ``groups[g]``. Nothing is recorded here: the returned
    factor records its jittered blocks each time it evaluates a density.
    """
    whiten = np.zeros((n_features, n_features))
    log_dets = np.empty(len(groups))
    jitters = []
    for g, (idx, block) in enumerate(zip(groups, blocks)):
        chol, jitter = _cholesky_ladder(block)
        if jitter > 0.0:
            jitters.append(jitter)
        inverse = scipy.linalg.solve_triangular(chol, np.eye(len(idx)), lower=True)
        whiten[np.ix_(idx, idx)] = inverse.T
        log_dets[g] = 2.0 * np.sum(np.log(np.diag(chol)))
    return BlockFactor(tuple(tuple(idx) for idx in groups), whiten, log_dets, tuple(jitters))


def gaussian_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of rows of ``X`` under ``N(mean, cov)``.

    Parameters
    ----------
    X:
        Array of shape ``(n, d)``.
    mean:
        Mean vector of length ``d``.
    cov:
        Covariance matrix of shape ``(d, d)``; near-singular inputs are
        handled by the :func:`robust_cholesky` jitter ladder.

    Returns
    -------
    numpy.ndarray
        Vector of ``n`` log-density values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    d = mean.shape[0]
    return factor_blocks([list(range(d))], [cov], d).logpdf(X, mean)


def correlation_from_covariance(cov: np.ndarray) -> np.ndarray:
    """Convert a covariance matrix to a Pearson correlation matrix.

    Zero-variance dimensions get unit diagonal and zero off-diagonal entries
    (they carry no correlation information), matching the convention used by
    the shared-correlation decomposition in :mod:`repro.core.covariance`.
    """
    cov = np.asarray(cov, dtype=np.float64)
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    denom = np.outer(std, std)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0.0, cov / denom, 0.0)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)
