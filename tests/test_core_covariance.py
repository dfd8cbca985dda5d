"""Tests for weighted moments and the shared-correlation decomposition (§4)."""

import numpy as np
import pytest

from repro.core.covariance import (
    pooled_correlation_blocks,
    rescale_to_correlation,
    variance_blocks,
    weighted_covariance,
    weighted_mean,
    weighted_variances,
)
from repro.core.regularization import apply_regularization
from repro.utils.linalg import ROW_BLOCK


class TestWeightedMean:
    def test_uniform_weights_is_plain_mean(self, rng):
        X = rng.random((30, 3))
        w = np.ones(30)
        assert np.allclose(weighted_mean(X, w), X.mean(axis=0))

    def test_hard_weights_select_subset(self, rng):
        X = rng.random((10, 2))
        w = np.zeros(10)
        w[:3] = 1.0
        assert np.allclose(weighted_mean(X, w), X[:3].mean(axis=0))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="zero"):
            weighted_mean(np.ones((3, 2)), np.zeros(3))


class TestWeightedCovariance:
    def test_uniform_equals_ml_covariance(self, rng):
        X = rng.random((100, 3))
        w = np.ones(100)
        mean = X.mean(axis=0)
        expected = (X - mean).T @ (X - mean) / 100
        assert np.allclose(weighted_covariance(X, w, mean), expected)

    def test_symmetric_psd(self, rng):
        X = rng.random((50, 4))
        w = rng.random(50)
        mean = weighted_mean(X, w)
        S = weighted_covariance(X, w, mean)
        assert np.allclose(S, S.T)
        assert np.all(np.linalg.eigvalsh(S) > -1e-10)

    def test_soft_weights_interpolate(self, rng):
        X = np.array([[0.0], [1.0]])
        S_first = weighted_covariance(X, np.array([1.0, 0.0]), np.array([0.0]))
        assert S_first[0, 0] == pytest.approx(0.0)
        S_both = weighted_covariance(X, np.array([1.0, 1.0]), np.array([0.5]))
        assert S_both[0, 0] == pytest.approx(0.25)


class TestWeightedVariances:
    def test_rows_are_each_components_covariance_diagonal(self, rng):
        X = rng.random((ROW_BLOCK + 37, 4))  # a partial second row block
        gamma = rng.random(X.shape[0])
        weights = np.stack([gamma, 1.0 - gamma])
        means = np.stack([weighted_mean(X, w) for w in weights])
        variances = weighted_variances(X, weights, means)
        for var, w, mean in zip(variances, weights, means):
            np.testing.assert_allclose(var, np.diag(weighted_covariance(X, w, mean)), rtol=1e-12)

    def test_feature_on_its_mean_keeps_exact_zero(self, rng):
        X = rng.random((50, 3))
        X[:, 1] = 0.5
        weights = np.stack([np.ones(50), rng.random(50)])
        means = np.stack([weighted_mean(X, w) for w in weights])
        means[:, 1] = 0.5
        assert np.all(weighted_variances(X, weights, means)[:, 1] == 0.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="zero"):
            weighted_variances(np.ones((3, 2)), np.zeros((1, 3)), np.zeros((1, 2)))

    def test_blocks_are_rescaled_and_regularized_covariance(self, rng):
        X = rng.random((80, 5))
        w = rng.random(80)
        mean = weighted_mean(X, w)
        S = weighted_covariance(X, w, mean)
        groups = [[0, 3], [1], [2, 4]]
        correlations = pooled_correlation_blocks(X, groups)
        penalty = rng.random(5)
        blocks = variance_blocks(np.diag(S), groups, correlations, penalty)
        for idx, R, block in zip(groups, correlations, blocks):
            expected = apply_regularization(
                rescale_to_correlation(S[np.ix_(idx, idx)], R), penalty, idx
            )
            assert np.array_equal(block, expected)
        singletons = [[j] for j in range(5)]
        for (j,), block in zip(singletons, variance_blocks(np.diag(S), singletons, None, penalty)):
            assert block.shape == (1, 1) and block[0, 0] == S[j, j] + penalty[j]


class TestPooledCorrelation:
    def test_blocks_match_numpy_corrcoef(self, rng):
        X = rng.random((200, 4))
        blocks = pooled_correlation_blocks(X, [[0, 1], [2, 3]])
        expected01 = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
        assert blocks[0][0, 1] == pytest.approx(expected01, abs=1e-10)

    def test_unit_diagonals(self, rng):
        X = rng.random((50, 3))
        for block in pooled_correlation_blocks(X, [[0], [1, 2]]):
            assert np.allclose(np.diag(block), 1.0)

    def test_constant_feature_zero_correlation(self):
        X = np.column_stack([np.ones(20), np.linspace(0, 1, 20)])
        block = pooled_correlation_blocks(X, [[0, 1]])[0]
        assert block[0, 1] == 0.0

    def test_correlated_copies_detected(self, grouped_mixture):
        X, _y, groups = grouped_mixture
        blocks = pooled_correlation_blocks(X, groups)
        # within-group features are near-copies -> correlation close to 1
        assert blocks[0][0, 1] > 0.9
        assert blocks[1][0, 1] > 0.9


class TestRescaleToCorrelation:
    def test_preserves_diagonal(self, rng):
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        R = np.eye(3)
        out = rescale_to_correlation(S, R)
        assert np.allclose(np.diag(out), np.diag(S))

    def test_identity_correlation_gives_diagonal(self, rng):
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        out = rescale_to_correlation(S, np.eye(3))
        assert np.allclose(out, np.diag(np.diag(S)))

    def test_lambda_r_lambda_identity(self, rng):
        # decomposing a covariance into Λ R Λ with its own correlation
        # reconstructs the original matrix (Equation 14)
        A = rng.normal(size=(4, 4))
        S = A @ A.T + 0.5 * np.eye(4)
        std = np.sqrt(np.diag(S))
        R_own = S / np.outer(std, std)
        assert np.allclose(rescale_to_correlation(S, R_own), S)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree"):
            rescale_to_correlation(np.eye(2), np.eye(3))

    def test_parameter_sharing_effect(self, grouped_mixture):
        # S_M rebuilt with pooled R keeps M's scale but borrows structure
        X, y, groups = grouped_mixture
        pooled = pooled_correlation_blocks(X, groups)
        w = y  # hard match weights
        sub = X[:, groups[0]]
        mean = weighted_mean(sub, w)
        S_m = weighted_covariance(sub, w, mean)
        rebuilt = rescale_to_correlation(S_m, pooled[0])
        assert np.allclose(np.diag(rebuilt), np.diag(S_m))
        assert rebuilt[0, 1] != pytest.approx(S_m[0, 1], rel=1e-6)
