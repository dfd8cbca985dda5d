"""EM fast path vs the per-block reference kernels (``reference_em``).

The acceptance bar for the fused E-step (both components whitened in one
pass) and the variances-only M-step:

* ``logpdf`` and the two-component ``stacked_logpdf`` agree with the
  per-block loop to ``rtol=1e-12`` (normwise: the absolute floor is
  ``1e-12`` of the largest magnitude, since a log density near zero is a
  cancellation of terms ~10⁴ times larger) on random partitions, including
  singular blocks rescued by jitter, and so do the M-step's covariance
  blocks and the shared correlation;
* inside ``reference_kernels()`` no fast kernel runs, so the whole-fit
  comparisons below really compare against the per-block loops;
* the six fixture datasets, fit end to end, keep identical per-runner EM
  step counts and convergence flags, identical match sets and F1, and
  scores ``allclose(rtol=1e-9)``;
* all eleven Table 4 ablation variants on four datasets keep identical
  labels and step counts.

``REPRO_EM_PARITY_SCALE=paper`` (the ``em-parity`` CI job) fits the six
datasets at paper scale and the ablations at small scale, the acceptance
setting; tier-1 leaves it unset and runs both at tiny scale.
"""

import contextlib
import importlib
import os
from unittest import mock

import numpy as np
import pytest

from reference_em import (
    reference_gaussian_logpdf,
    reference_kernels,
    reference_logpdf,
    reference_m_step,
    reference_pooled_correlation_blocks,
    reference_stacked_logpdf,
)
from repro import ERPipeline, load_benchmark
from repro.core.config import ZeroERConfig, ablation_variants
from repro.core.covariance import pooled_correlation_blocks
from repro.core.em import EMRunner
from repro.core.explain import explain_pairs
from repro.core.gaussian import BlockDiagonalGaussian, stacked_logpdf
from repro.eval.harness import blocker_for, prepare_dataset, run_zeroer
from repro.utils.linalg import ROW_BLOCK, gaussian_logpdf

PAPER = os.environ.get("REPRO_EM_PARITY_SCALE") == "paper"
FIT_SCALE = "paper" if PAPER else "tiny"
ABLATION_SCALE = "small" if PAPER else "tiny"

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")
ABLATION_DATASETS = ("rest_fz", "pub_da", "mv_ri", "prod_ab")

#: Fits whose cross model F hits ``max_iter`` unconverged and whose result
#: moves with BLAS rounding alone, measured by re-running both kernels under
#: ``OPENBLAS_NUM_THREADS=2`` and six ``OPENBLAS_CORETYPE`` kernel sets
#: (Haswell, Sandybridge, Nehalem, Prescott, Zen, SkylakeX). ``matches`` and
#: ``f1`` are inclusive ranges; ``score_atol`` bounds ``|Δγ|`` per pair
#: (``None``: scores moved by up to 0.15, so only matches and F1 are gated).
#: Every other fit must reproduce the reference's scores to ``rtol=1e-9``,
#: and every runner must keep its step count and convergence flag.
ROUNDING_ENVELOPES = {
    # 200 iterations for F, Fl and Fr under every kernel set, labels
    # identical (278 matches); |Δγ| between the two kernels reached 0.05 on
    # one thread, 0.10 under OPENBLAS_NUM_THREADS=2 and 0.15 under Prescott
    ("mv_ri", "paper"): {"matches": (278, 278), "f1": (0.696581, 0.696582), "score_atol": None},
}

#: Ablation fits whose step count moves with the kernel set for the
#: reference itself. In mv_ri's unregularized Grouped fit at tiny scale two
#: of the match component's blocks are exactly singular (eigenvalues
#: ±1e-17), so whether they factorize without jitter is decided by the last
#: bits of the scatter: the reference converges at step 4 under Nehalem
#: kernels and at step 5 under Haswell, Sandybridge, Prescott, Zen and
#: SkylakeX. Labels are identical under all of them, and still gated.
FRAGILE_ABLATION_STEPS = {("mv_ri", "Grouped", "tiny")}


def _assert_close(fast, reference):
    """``rtol=1e-12`` with a normwise floor: ``1e-12`` of the largest magnitude."""
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    np.testing.assert_allclose(fast, reference, rtol=1e-12, atol=1e-12 * scale)


# -- kernels ------------------------------------------------------------------------


def _random_block(rng, size, kind):
    A = rng.normal(size=(size, size)) * rng.uniform(0.01, 1.0)
    cov = A @ A.T + 1e-3 * np.eye(size)
    if kind == "zero":
        return np.zeros((size, size))
    if kind == "constant":  # a zero-variance feature
        j = rng.integers(size)
        cov[j, :] = cov[:, j] = 0.0
    elif kind == "duplicate" and size > 1:  # two identical features
        i, j = rng.choice(size, 2, replace=False)
        cov[j, :], cov[:, j] = cov[i, :], cov[:, i]
        cov[j, j] = cov[i, i]
    elif kind == "low_rank":
        B = rng.normal(size=(size, max(1, size - 1))) * 0.1
        cov = B @ B.T
    return cov


def _random_distribution(rng, kinds=("spd", "zero", "constant", "duplicate", "low_rank"), d=None):
    if d is None:
        d = int(rng.integers(1, 16))
    order = rng.permutation(d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d)), replace=False))
    groups = [[int(j) for j in g] for g in np.split(order, cuts)]
    blocks = [_random_block(rng, len(g), kinds[rng.integers(len(kinds))]) for g in groups]
    return BlockDiagonalGaussian(rng.uniform(0.0, 1.0, d), groups, blocks)


@pytest.mark.parametrize("seed", range(40))
def test_logpdf_matches_per_block_loop(seed):
    rng = np.random.default_rng(seed)
    dist = _random_distribution(rng)
    # past ROW_BLOCK rows on some seeds, so the row streaming is exercised
    X = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 3 * ROW_BLOCK)), dist.n_features))
    X[:, 0] = dist.mean[0]  # a feature sitting exactly on the mean
    _assert_close(dist.logpdf(X), reference_logpdf(dist, X))
    per_group = dist.group_logpdf(X)
    for g, (idx, block) in enumerate(zip(dist.groups, dist.blocks)):
        expected = reference_gaussian_logpdf(X[:, idx], dist.mean[idx], block)
        _assert_close(per_group[:, g], expected)
    # the E-step's call: a second component on its own partition, both
    # whitened in one pass
    other = _random_distribution(rng, d=dist.n_features)
    both = stacked_logpdf([dist, other], X)
    _assert_close(both[:, 0], reference_logpdf(dist, X))
    _assert_close(both[:, 1], reference_logpdf(other, X))
    both_groups = stacked_logpdf([dist, other], X, per_group=True)
    _assert_close(both_groups, reference_stacked_logpdf([dist, other], X, per_group=True))


@pytest.mark.parametrize("seed", range(10))
def test_single_block_logpdf_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(1, 8))
    cov = _random_block(rng, d, ("spd", "constant", "low_rank")[seed % 3])
    mean = rng.uniform(size=d)
    X = rng.uniform(size=(50, d))
    _assert_close(gaussian_logpdf(X, mean, cov), reference_gaussian_logpdf(X, mean, cov))


@pytest.mark.parametrize("shared_correlation", [False, True])
@pytest.mark.parametrize("covariance", ["full", "independent", "grouped"])
def test_m_step_matches_per_group_loop(grouped_mixture, covariance, shared_correlation):
    X, _y, groups = grouped_mixture
    X = np.tile(X, (5, 1))  # 2500 rows: more than one row block
    X[:, 2] = 0.5  # a constant feature keeps an exact-zero variance
    config = ZeroERConfig(covariance=covariance, shared_correlation=shared_correlation)
    runner = EMRunner(X, groups, config)
    twin = EMRunner(X, groups, config)
    for _ in range(3):
        fast, reference = runner.m_step(), reference_m_step(twin)
        assert fast.prior_match == reference.prior_match
        for a, b in ((fast.match, reference.match), (fast.unmatch, reference.unmatch)):
            assert np.array_equal(a.mean, b.mean)
            for block_a, block_b in zip(a.blocks, b.blocks):
                _assert_close(block_a, block_b)
                assert np.array_equal(block_a == 0.0, block_b == 0.0)
        runner.e_step()
        twin.gamma = runner.gamma.copy()


def test_pooled_correlation_matches_per_group_loop(grouped_mixture):
    X, _y, groups = grouped_mixture
    for fast, reference in zip(
        pooled_correlation_blocks(X, groups), reference_pooled_correlation_blocks(X, groups)
    ):
        _assert_close(fast, reference)


# -- whole fits ---------------------------------------------------------------------

#: Every fast EM kernel, named where the production code looks it up.
FAST_KERNELS = (
    "repro.core.gaussian.log_densities",
    "repro.core.em.weighted_variances",
    "repro.core.em.weighted_covariance",
    "repro.core.em.pooled_correlation_blocks",
    "repro.core.covariance.weighted_covariance",
)


def _fit_score_and_explain():
    bench = load_benchmark("pub_da", scale="tiny", seed=11)
    pipeline = ERPipeline(blocker=blocker_for("pub_da"))
    pipeline.run(bench.left, bench.right)
    cross = pipeline.model_._cross
    cross.posterior(cross.X[:5])
    explain_pairs(cross.params, cross.X[:5])
    # the ablations without the shared R: the d × d scatter and the 1 × 1 blocks
    prep = prepare_dataset("rest_fz", scale="tiny", seed=0)
    for variant in ("Grouped", "Independent"):
        run_zeroer(prep, ABLATIONS[variant])


def test_reference_kernels_run_no_fast_kernel():
    with contextlib.ExitStack() as stack:
        spies = {}
        for target in FAST_KERNELS:
            module, name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(module), name)
            spies[target] = stack.enter_context(mock.patch(target, wraps=original))
        _fit_score_and_explain()
        assert [t for t, spy in spies.items() if not spy.called] == []
        for spy in spies.values():
            spy.reset_mock()
        with reference_kernels():
            _fit_score_and_explain()
        assert [t for t, spy in spies.items() if spy.called] == []


def _pipeline_fit(name):
    bench = load_benchmark(name, scale=FIT_SCALE, seed=11)
    pipeline = ERPipeline(blocker=blocker_for(name))
    result = pipeline.run(bench.left, bench.right)
    model = pipeline.model_
    runners = (model._cross, model._left, model._right)
    steps = {
        r.name: (r.history.n_iterations, r.history.converged) for r in runners if r is not None
    }
    # pairwise F1 against every gold match, blocking misses included
    true_positives = int(bench.labels_for(result.pairs) @ result.labels)
    f1 = 2.0 * true_positives / (int(result.labels.sum()) + len(bench.matches))
    return result, steps, f1


@pytest.mark.parametrize("name", DATASETS)
def test_dataset_fit_matches_reference(name):
    fast, fast_steps, fast_f1 = _pipeline_fit(name)
    with reference_kernels():
        reference, reference_steps, reference_f1 = _pipeline_fit(name)
    assert fast.pairs == reference.pairs
    assert fast_steps == reference_steps
    envelope = ROUNDING_ENVELOPES.get((name, FIT_SCALE))
    if envelope is None:
        assert np.array_equal(fast.labels, reference.labels)
        assert fast_f1 == reference_f1
        np.testing.assert_allclose(fast.scores, reference.scores, rtol=1e-9, atol=0.0)
        return
    assert not reference_steps["F"][1], "an envelope is only for unconverged fits"
    low, high = envelope["matches"]
    assert low <= int(fast.labels.sum()) <= high
    low, high = envelope["f1"]
    assert low <= fast_f1 <= high
    if envelope["score_atol"] is not None:
        assert np.max(np.abs(fast.scores - reference.scores)) <= envelope["score_atol"]


ABLATIONS = ablation_variants()


@pytest.mark.parametrize("variant", sorted(ABLATIONS))
@pytest.mark.parametrize("name", ABLATION_DATASETS)
def test_ablation_fit_matches_reference(name, variant):
    prep = prepare_dataset(name, scale=ABLATION_SCALE, seed=0)
    config = ABLATIONS[variant]
    fast = run_zeroer(prep, config)
    with reference_kernels():
        reference = run_zeroer(prep, config)
    if (name, variant, ABLATION_SCALE) not in FRAGILE_ABLATION_STEPS:
        assert fast["n_iterations"] == reference["n_iterations"]
    assert fast["converged"] == reference["converged"]
    assert np.array_equal(fast["labels"], reference["labels"])
