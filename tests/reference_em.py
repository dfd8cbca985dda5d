"""Reference EM kernels: the parity oracle for the fused fast path.

The production kernels factorize each component's covariance blocks once
into one block-diagonal inverse factor, evaluate both components' densities
in one whitening pass over row blocks
(:func:`~repro.core.gaussian.stacked_logpdf`), and take both components'
variances from one pass when the model reads only variances
(:func:`~repro.core.covariance.weighted_variances`). They are held to the
plain per-block loops kept here:

* :func:`reference_gaussian_logpdf` — factorize, gather the block's columns
  and run one triangular solve, on every call;
* :func:`reference_logpdf` — the sum of those over a distribution's blocks;
* :func:`reference_stacked_logpdf` — :func:`reference_logpdf` (or, per
  group, :func:`reference_gaussian_logpdf`) once per distribution;
* :func:`reference_m_step` — one weighted covariance per group and
  component, each over freshly gathered ``n × |group|`` columns, rescaled
  to the shared correlation where the model has one;
* :func:`reference_pooled_correlation_blocks` — the shared ``R``, per group.

:func:`reference_kernels` swaps them into :class:`~repro.core.em.EMRunner`
and every module that evaluates densities through ``stacked_logpdf`` for
the duration of a ``with`` block, so whole fits (pipelines, linkage,
ablations) and the frozen scorer run on the oracle unchanged.

:func:`reference_linkage_fit` is the oracle for the loop rather than the
kernels: §5's interleaving of F, Fl and Fr as a plain ``for`` loop, which
``ZeroERLinkage.fit`` (through ``EMRunner.run``) must reproduce bit for bit.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import scipy.linalg

from repro.core import em, explain, gaussian
from repro.core.config import ZeroERConfig
from repro.core.covariance import rescale_to_correlation, weighted_mean
from repro.core.em import EMRunner, MixtureParameters
from repro.core.exceptions import InitializationError
from repro.core.gaussian import BlockDiagonalGaussian
from repro.core.regularization import apply_regularization, penalty_diagonal
from repro.core.transitivity import LinkageTransitivityCalibrator
from repro.features.normalize import MinMaxNormalizer, fit_normalization, impute_nan
from repro.utils.linalg import correlation_from_covariance, robust_cholesky

__all__ = [
    "reference_gaussian_logpdf",
    "reference_logpdf",
    "reference_stacked_logpdf",
    "reference_weighted_covariance",
    "reference_pooled_correlation_blocks",
    "reference_m_step",
    "reference_kernels",
    "reference_linkage_fit",
]


def reference_gaussian_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of rows of ``X`` under ``N(mean, cov)``, factorized per call."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    d = mean.shape[0]
    chol = robust_cholesky(cov)
    diff = X - mean
    z = scipy.linalg.solve_triangular(chol, diff.T, lower=True)
    maha = np.sum(z * z, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha)


def reference_logpdf(dist: BlockDiagonalGaussian, X: np.ndarray) -> np.ndarray:
    """Per-row log density: the sum of per-block Gaussian log densities."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != dist.n_features:
        raise ValueError(f"X has {X.shape[1]} features, distribution has {dist.n_features}")
    total = np.zeros(X.shape[0])
    for idx, block in zip(dist.groups, dist.blocks):
        total += reference_gaussian_logpdf(X[:, idx], dist.mean[idx], block)
    return total


def reference_stacked_logpdf(distributions, X: np.ndarray, per_group: bool = False):
    """``stacked_logpdf`` one distribution (and one block) at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    columns = []
    for dist in distributions:
        if not per_group:
            columns.append(reference_logpdf(dist, X))
            continue
        if X.shape[1] != dist.n_features:
            raise ValueError(f"X has {X.shape[1]} features, distribution has {dist.n_features}")
        for idx, block in zip(dist.groups, dist.blocks):
            columns.append(reference_gaussian_logpdf(X[:, idx], dist.mean[idx], block))
    return np.stack(columns, axis=1)


def reference_weighted_covariance(
    X: np.ndarray, weights: np.ndarray, mean: np.ndarray
) -> np.ndarray:
    """``S_C`` in one pass over freshly allocated ``n × d`` temporaries."""
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; cannot compute a weighted covariance")
    diff = X - mean
    return (weights[:, None] * diff).T @ diff / total


def reference_pooled_correlation_blocks(X: np.ndarray, groups) -> list[np.ndarray]:
    """The shared correlation ``R``, one mean and covariance per group."""
    weights = np.full(X.shape[0], 1.0)
    blocks = []
    for idx in groups:
        sub = X[:, idx]
        mean = weighted_mean(sub, weights)
        cov = reference_weighted_covariance(sub, weights, mean)
        blocks.append(correlation_from_covariance(cov))
    return blocks


def reference_m_step(runner: EMRunner) -> MixtureParameters:
    """:meth:`EMRunner.m_step` with one weighted covariance per group and component."""
    cfg = runner.config
    n = runner.X.shape[0]
    weights = {"M": runner.gamma, "U": 1.0 - runner.gamma}
    masses = {c: float(w.sum()) for c, w in weights.items()}

    means: dict[str, np.ndarray] = {}
    for c, w in weights.items():
        if masses[c] < cfg.min_component_mass and runner.params is not None:
            previous = runner.params.match if c == "M" else runner.params.unmatch
            means[c] = previous.mean
        else:
            means[c] = weighted_mean(runner.X, np.maximum(w, 0.0) + 1e-300)

    penalty = penalty_diagonal(cfg, means["M"], means["U"])

    distributions: dict[str, BlockDiagonalGaussian] = {}
    for c, w in weights.items():
        if masses[c] < cfg.min_component_mass and runner.params is not None:
            distributions[c] = runner.params.match if c == "M" else runner.params.unmatch
            continue
        blocks = []
        for g, idx in enumerate(runner.groups):
            sub = runner.X[:, idx]
            cov = reference_weighted_covariance(sub, w, means[c][idx])
            if runner._shared_correlation is not None:
                cov = rescale_to_correlation(cov, runner._shared_correlation[g])
            blocks.append(apply_regularization(cov, penalty, idx))
        distributions[c] = BlockDiagonalGaussian(means[c], runner.groups, blocks)

    prior = float(np.clip(masses["M"] / n, cfg.prior_floor, 1.0 - cfg.prior_floor))
    runner.params = MixtureParameters(prior, distributions["M"], distributions["U"])
    return runner.params


@contextlib.contextmanager
def reference_kernels():
    """Run every EM fit and density evaluation in the block on the oracle."""
    with contextlib.ExitStack() as stack:
        for module in (gaussian, em, explain):
            stack.enter_context(
                mock.patch.object(module, "stacked_logpdf", reference_stacked_logpdf)
            )
        stack.enter_context(mock.patch.object(EMRunner, "m_step", reference_m_step))
        stack.enter_context(
            mock.patch.object(
                em, "pooled_correlation_blocks", reference_pooled_correlation_blocks
            )
        )
        yield


def _log_step(runner: EMRunner, ll: float) -> bool:
    """Append one step's log likelihood; ``True`` once |ΔLL| < tol."""
    lls = runner.history.log_likelihoods
    lls.append(ll)
    runner.history.converged = len(lls) > 1 and abs(ll - lls[-2]) < runner.config.tol
    return runner.history.converged


def reference_linkage_fit(
    config: ZeroERConfig,
    X_cross,
    cross_pairs,
    feature_groups,
    X_left=None,
    left_pairs=None,
    X_right=None,
    right_pairs=None,
):
    """§5's F/Fl/Fr interleaving as a plain loop; returns ``(F, Fl, Fr)``.

    The runners are built as ``ZeroERLinkage.fit`` builds them (a side whose
    initialization finds one class is dropped). Each iteration is F's M- and
    E-step, calibration of all three posterior stores once past the
    warm-up, then each side's M- and E-step. F's |ΔLL| stops the loop; an
    F that never stops returns the mean of its last ``tail_window``
    posteriors. No checkpoints, time budget or telemetry.
    """
    groups = [list(g) for g in feature_groups]
    _, _, prepared = fit_normalization(np.asarray(X_cross, dtype=np.float64))
    cross = EMRunner(prepared, groups, config, name="F")
    within = config.replace(init_threshold=config.within_init_threshold)

    def side(X, name):
        if X is None:
            return None
        X = impute_nan(MinMaxNormalizer().fit_transform(np.asarray(X, dtype=np.float64)))
        try:
            return EMRunner(X, groups, within, name=name)
        except InitializationError:
            return None

    left, right = side(X_left, "Fl"), side(X_right, "Fr")
    calibrator = None
    if config.transitivity:
        calibrator = LinkageTransitivityCalibrator(
            cross_pairs,
            left_pairs or (),
            right_pairs or (),
            max_degree=config.transitivity_max_degree,
        )
    tail: list[np.ndarray] = []
    for iteration in range(config.max_iter):
        cross.m_step()
        ll = cross.e_step()
        if calibrator is not None and iteration >= config.transitivity_warmup:
            adjusted = calibrator.calibrate(
                cross.gamma,
                None if left is None else left.gamma,
                None if right is None else right.gamma,
            )
            cross.history.transitivity_adjustments.append(adjusted)
        for runner in (left, right):
            if runner is not None:
                runner.m_step()
                _log_step(runner, runner.e_step())
        tail = (tail + [cross.gamma.copy()])[-config.tail_window:]
        if _log_step(cross, ll):
            break
    else:
        if len(tail) > 1:
            cross.gamma = np.mean(np.stack(tail), axis=0)
    return cross, left, right
