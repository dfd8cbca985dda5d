"""Tests for the three-model record-linkage trainer (§5)."""

import numpy as np
import pytest

from reference_em import reference_linkage_fit
from repro import ERPipeline, load_benchmark
from repro.core import ZeroERConfig, ZeroERLinkage
from repro.eval import f_score
from repro.eval.harness import blocker_for, prepare_dataset
from repro.obs import configure_telemetry
from repro.utils.rng import ensure_rng

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")


def linkage_problem(seed=0, n_left=120, copies_for=30):
    """A synthetic linkage task with 1-to-many matches.

    Left entities have similarity-vector signatures; right side holds one or
    two copies per matched entity. Returns cross/left/right matrices, pair
    id lists, and gold labels for the cross pairs.
    """
    rng = ensure_rng(seed)
    cross_pairs, rows, labels = [], [], []
    right_pairs, right_rows, right_labels = [], [], []

    def match_row():
        return np.clip(rng.normal(0.8, 0.08, 4), 0, 1)

    def unmatch_row():
        return np.clip(rng.normal(0.2, 0.08, 4), 0, 1)

    rid = 0
    for i in range(n_left):
        lid = f"L{i}"
        n_copies = 2 if i < copies_for else 1
        copy_ids = []
        for _ in range(n_copies):
            cross_pairs.append((lid, f"R{rid}"))
            rows.append(match_row())
            labels.append(1.0)
            copy_ids.append(f"R{rid}")
            rid += 1
        if len(copy_ids) == 2:
            right_pairs.append((copy_ids[0], copy_ids[1]))
            right_rows.append(match_row())
            right_labels.append(1.0)
        # distractor cross pair + its closing right pair (true unmatch)
        cross_pairs.append((lid, f"R{rid}"))
        rows.append(unmatch_row())
        labels.append(0.0)
        right_pairs.append((copy_ids[0], f"R{rid}"))
        right_rows.append(unmatch_row())
        right_labels.append(0.0)
        rid += 1

    return (
        np.array(rows),
        cross_pairs,
        np.array(labels),
        np.array(right_rows),
        right_pairs,
        np.array(right_labels),
    )


class TestFitModes:
    def test_linkage_solves_one_to_many(self):
        X, pairs, y, Xr, pr, yr = linkage_problem()
        model = ZeroERLinkage()
        model.fit(X, pairs, X_right=Xr, right_pairs=pr)
        assert f_score(y, model.labels_) > 0.9

    def test_without_within_models(self):
        X, pairs, y, *_ = linkage_problem()
        model = ZeroERLinkage(transitivity=False)
        model.fit(X, pairs)
        assert f_score(y, model.labels_) > 0.9

    def test_transitivity_improves_or_matches_f1(self):
        X, pairs, y, Xr, pr, yr = linkage_problem(seed=3)
        with_t = ZeroERLinkage(transitivity=True).fit(X, pairs, X_right=Xr, right_pairs=pr)
        without = ZeroERLinkage(transitivity=False).fit(X, pairs)
        assert f_score(y, with_t.labels_) >= f_score(y, without.labels_) - 0.02

    def test_right_scores_exposed(self):
        X, pairs, y, Xr, pr, yr = linkage_problem()
        model = ZeroERLinkage().fit(X, pairs, X_right=Xr, right_pairs=pr)
        assert model.right_scores_ is not None
        assert model.right_scores_.shape == (len(pr),)
        assert model.left_scores_ is None

    def test_staged_fit_releases_tail_windows(self):
        # no runner keeps a tail-averaging window (up to tail_window
        # posterior copies) once the fit has returned
        X, pairs, y, Xr, pr, yr = linkage_problem()
        left_pairs = [(f"L{i}", f"L{i + 1}") for i in range(len(pr))]
        model = ZeroERLinkage()
        model.fit(X, pairs, X_left=Xr, left_pairs=left_pairs, X_right=Xr, right_pairs=pr)
        for runner in (model._left, model._right, model._cross):
            assert runner.history.n_iterations > 0
            assert len(runner._tail) == 0, runner.name

    def test_within_model_finds_right_duplicates(self):
        X, pairs, y, Xr, pr, yr = linkage_problem()
        model = ZeroERLinkage().fit(X, pairs, X_right=Xr, right_pairs=pr)
        pred_right = (model.right_scores_ > 0.5).astype(float)
        assert f_score(yr, pred_right) > 0.9


class TestJointSchedule:
    """Each side steps once per F iteration (§5's interleaving)."""

    def test_sides_record_every_step_and_emit_their_metrics(self):
        bench = load_benchmark("pub_da", scale="tiny", seed=11)
        pipeline = ERPipeline(blocker=blocker_for("pub_da"))
        configure_telemetry("memory")
        try:
            result = pipeline.run(bench.left, bench.right)
        finally:
            configure_telemetry(None)
        model = pipeline.model_
        steps = model._cross.history.n_iterations
        assert model._left is not None and model._right is not None
        for side in (model._left, model._right):
            history = side.history
            assert history.n_iterations == steps, side.name
            assert len(history.iteration_seconds) == steps
            assert len(history.match_probability_histograms) == steps
            last, previous = history.log_likelihoods[-1], history.log_likelihoods[-2]
            assert history.converged == (abs(last - previous) < model.config.tol)
        metrics = result.telemetry.metrics
        assert metrics["counters"]["em.iterations"] == 3 * steps
        for name in ("F", "Fl", "Fr"):
            assert f"em.converged.{name}" in metrics["gauges"]
            assert f"em.log_likelihood.{name}" in metrics["gauges"]


class TestReferenceLoop:
    """``fit`` equals §5's interleaving written as a plain loop, bit for bit."""

    @pytest.mark.parametrize("variant", ["both_sides", "no_right_side", "no_transitivity"])
    @pytest.mark.parametrize("name", DATASETS)
    def test_fit_matches_the_plain_loop(self, name, variant):
        prep = prepare_dataset(name, scale="tiny", seed=11)
        config = ZeroERConfig(transitivity=variant != "no_transitivity")
        sides = {
            "X_left": prep.X_left,
            "left_pairs": prep.left_pairs if prep.X_left is not None else None,
            "X_right": prep.X_right,
            "right_pairs": prep.right_pairs if prep.X_right is not None else None,
        }
        if variant == "no_right_side":
            sides["X_right"] = sides["right_pairs"] = None
        model = ZeroERLinkage(config).fit(prep.X, prep.pairs, prep.feature_groups, **sides)
        expected = reference_linkage_fit(config, prep.X, prep.pairs, prep.feature_groups, **sides)
        for runner, oracle in zip((model._cross, model._left, model._right), expected):
            assert (runner is None) == (oracle is None)
            if runner is None:
                continue
            assert np.array_equal(runner.gamma, oracle.gamma), runner.name
            history, reference = runner.history, oracle.history
            assert history.log_likelihoods == reference.log_likelihoods, runner.name
            assert history.transitivity_adjustments == reference.transitivity_adjustments
            assert history.converged == reference.converged, runner.name


class TestValidation:
    def test_misaligned_cross_pairs(self):
        with pytest.raises(ValueError, match="align"):
            ZeroERLinkage().fit(np.ones((3, 2)), [("a", "b")])

    def test_misaligned_within_pairs(self):
        X, pairs, *_ = linkage_problem()
        with pytest.raises(ValueError, match="align"):
            ZeroERLinkage().fit(X, pairs, X_right=np.ones((4, 4)), right_pairs=[("a", "b")])

    def test_unfitted_access(self):
        with pytest.raises(RuntimeError, match="fitted"):
            _ = ZeroERLinkage().labels_

    def test_history_available(self):
        X, pairs, y, *_ = linkage_problem()
        model = ZeroERLinkage(transitivity=False).fit(X, pairs)
        assert model.history_.n_iterations >= 2

    def test_all_unmatch_within_table_handled(self):
        # a clean table's within-pair set may initialize to a single class;
        # the linkage trainer must degrade gracefully (runner dropped)
        X, pairs, y, *_ = linkage_problem()
        n = 30
        X_left = np.clip(np.random.default_rng(0).normal(0.2, 0.01, (n, 4)), 0, 1)
        left_pairs = [(f"L{i}", f"L{i+1}") for i in range(n)]
        model = ZeroERLinkage().fit(X, pairs, X_left=X_left, left_pairs=left_pairs)
        assert f_score(y, model.labels_) > 0.85
