"""Numerically robust linear-algebra primitives for the EM core.

The EM loop repeatedly evaluates multivariate-Gaussian log densities with
covariance matrices that can be nearly singular (that is the entire point of
the paper's Section 3.3). Everything here is written so a rank-deficient
block degrades gracefully instead of raising ``LinAlgError`` mid-iteration.

A block-diagonal covariance is factorized once into a :class:`BlockFactor`.
:func:`log_densities` then evaluates any number of such Gaussians in one
pass over :data:`ROW_BLOCK`-row blocks: one matmul against their whitening
factors side by side, one subtraction of the whitened means, one square and
one 0/1 selector matmul give every component's Mahalanobis distance (or
every feature group's) per row.
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
    "log_densities",
    "robust_cholesky",
    "gaussian_logpdf",
    "correlation_from_covariance",
]

#: Rows per block in the streamed E- and M-step kernels. A block of a
#: pub_da feature matrix (15 features) takes 240 KiB and its whitened copy
#: for two components 480 KiB; 2048 rows timed fastest of the sizes tried
#: for both kernels on pub_da's 120k-pair cross matrix (one BLAS thread).
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
    distance is ``‖x Wᵀ − μ Wᵀ‖²``. ``log_dets`` are the per-block
    log-determinants. ``jitters`` holds the jitter of each block that needed
    one; every density evaluation records them again, so each health scope
    using the factor sees the degradation.
    """

    groups: tuple[tuple[int, ...], ...]
    whiten: np.ndarray
    log_dets: np.ndarray
    jitters: tuple[float, ...]


def log_densities(X: np.ndarray, components, per_group: bool = False) -> np.ndarray:
    """Per-row log densities of ``X`` under several ``N(mean, Σ)`` in one pass.

    ``components`` is a sequence of ``(factor, mean)`` pairs over the same
    ``d`` features. Returns ``(n, k)``, column ``c`` the log density under
    component ``c``; with ``per_group``, ``(n, Σ_c n_groups_c)``, each
    component's per-group log densities side by side (a row's groups of one
    component sum to its log density).

    Each :data:`ROW_BLOCK`-row block is multiplied once by every factor's
    ``Wᵀ`` side by side (``d × k·d``); subtracting the whitened means
    ``μ Wᵀ``, squaring in place and one matmul by a 0/1 selector (which
    whitened coordinates belong to which component, or group) give all the
    Mahalanobis distances at once. Both buffers are reused across blocks.
    """
    whiten = np.concatenate([factor.whiten for factor, _ in components], axis=1)
    shift = np.concatenate([mean @ factor.whiten for factor, mean in components])
    d = whiten.shape[0]
    # output column j sums the squared whitened coordinates selected[j]
    selected, constants = [], []
    for c, (factor, _) in enumerate(components):
        for jitter in factor.jitters:
            _record_jitter(jitter)
        if per_group:
            for idx, log_det in zip(factor.groups, factor.log_dets):
                selected.append([c * d + j for j in idx])
                constants.append(len(idx) * _LOG_2PI + log_det)
        else:
            selected.append(range(c * d, (c + 1) * d))
            constants.append(d * _LOG_2PI + factor.log_dets.sum())
    selector = np.zeros((whiten.shape[1], len(selected)))
    for column, rows in enumerate(selected):
        selector[list(rows), column] = 1.0
    n = X.shape[0]
    out = np.empty((n, selector.shape[1]))
    buffer = np.empty((min(n, ROW_BLOCK), whiten.shape[1]))
    # the whitened means tiled to a whole block: a flat elementwise
    # subtraction is ~3x cheaper than broadcasting a short row
    tiled = np.empty_like(buffer)
    tiled[:] = shift
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        z = buffer[: stop - start]
        np.matmul(X[start:stop], whiten, out=z)
        np.subtract(z, tiled[: stop - start], out=z)
        np.square(z, out=z)
        np.matmul(z, selector, out=out[start:stop])
    # column by column: adding a short row to every row is ~4x slower
    for column, constant in enumerate(constants):
        out[:, column] += constant
    out *= -0.5
    return out


def factor_blocks(groups, blocks, n_features: int) -> BlockFactor:
    """Factorize each covariance block once (through the jitter ladder).

    ``groups`` partitions ``range(n_features)``; ``blocks[g]`` is the
    covariance of ``groups[g]``. Nothing is recorded here:
    :func:`log_densities` records the factor's jittered blocks each time it
    evaluates a density with it.
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
    return log_densities(X, [(factor_blocks([list(range(d))], [cov], d), mean)])[:, 0]


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
