"""Checkpoint store + resumable EM: an interrupted fit continues bit-for-bit."""

import json

import numpy as np
import pytest

from repro import ERPipeline, ZeroER, ZeroERConfig, load_benchmark
from repro.eval.harness import blocker_for
from repro.reliability import (
    EM_RESUMED_FROM_CHECKPOINT,
    EM_TIME_BUDGET_EXHAUSTED,
    CheckpointError,
    CheckpointStore,
    FitControls,
    HealthReport,
    health_scope,
)
from repro.reliability.faultinject import flip_byte


class TestCheckpointStore:
    def test_save_latest_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        arrays = {"gamma": np.linspace(0.0, 1.0, 7), "tail": np.zeros((2, 7))}
        store.save({"iteration": 3, "note": "hello"}, arrays)
        meta, loaded = store.latest()
        assert meta["iteration"] == 3
        assert meta["note"] == "hello"
        np.testing.assert_array_equal(loaded["gamma"], arrays["gamma"])
        np.testing.assert_array_equal(loaded["tail"], arrays["tail"])

    def test_latest_is_newest_iteration(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", keep=5)
        for i in (1, 2, 3):
            store.save({"iteration": i}, {"x": np.array([float(i)])})
        meta, arrays = store.latest()
        assert meta["iteration"] == 3
        assert arrays["x"][0] == 3.0

    def test_prunes_beyond_keep(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", keep=2)
        for i in range(5):
            store.save({"iteration": i}, {"x": np.zeros(1)})
        assert len(store) == 2
        assert [p.name for p in store.paths()] == ["ckpt-000003", "ckpt-000004"]

    def test_resaving_an_iteration_replaces_it(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save({"iteration": 1, "v": "old"}, {"x": np.zeros(1)})
        store.save({"iteration": 1, "v": "new"}, {"x": np.ones(1)})
        meta, arrays = store.latest()
        assert meta["v"] == "new"
        assert arrays["x"][0] == 1.0

    def test_corrupt_newest_walks_back_and_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", keep=3)
        store.save({"iteration": 1, "good": True}, {"x": np.array([1.0])})
        newest = store.save({"iteration": 2, "good": False}, {"x": np.array([2.0])})
        flip_byte(newest / "arrays.npz")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt checkpoint"):
            meta, arrays = store.latest()
        assert meta["iteration"] == 1
        assert arrays["x"][0] == 1.0
        assert (tmp_path / "ck" / "ckpt-000002.corrupt").is_dir()

    def test_all_corrupt_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        saved = store.save({"iteration": 1}, {"x": np.zeros(1)})
        (saved / "state.json").write_text("garbage {")
        with pytest.warns(RuntimeWarning):
            assert store.latest() is None

    def test_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "nowhere")
        assert store.latest() is None
        assert len(store) == 0
        store.clear()  # clearing an empty store is fine

    def test_clear_removes_everything(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", keep=5)
        for i in range(3):
            store.save({"iteration": i}, {"x": np.zeros(1)})
        store.clear()
        assert len(store) == 0

    def test_save_requires_iteration(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        with pytest.raises(KeyError):
            store.save({"no_iteration": True}, {"x": np.zeros(1)})

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)

    def test_checkpoint_is_checksummed(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        saved = store.save({"iteration": 1}, {"x": np.zeros(1)})
        payload = json.loads((saved / "checksums.json").read_text())
        assert set(payload["files"]) == {"state.json", "arrays.npz"}


class TestFitControls:
    def test_defaults_are_valid(self):
        controls = FitControls()
        assert controls.checkpoint is None
        assert not controls.resume

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            FitControls(checkpoint_every=0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="time_budget_s"):
            FitControls(time_budget_s=-1.0)

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="resume"):
            FitControls(resume=True)


class TestResumableEM:
    @pytest.fixture
    def config(self):
        return ZeroERConfig(transitivity=False)

    def test_budget_zero_stops_after_first_iteration(self, separable_mixture, config):
        X, _y = separable_mixture
        model = ZeroER(config)
        health = HealthReport()
        with health_scope(health):
            model.fit(X, controls=FitControls(time_budget_s=0.0))
        assert not model.converged_
        assert model.history_.n_iterations == 1
        assert health.has(EM_TIME_BUDGET_EXHAUSTED)

    def test_budget_stop_always_checkpoints(self, separable_mixture, config, tmp_path):
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "ck")
        # cadence of 50 would never fire in one iteration; the budget stop
        # must save anyway, or --resume would lose the stopping point
        controls = FitControls(checkpoint=store, checkpoint_every=50, time_budget_s=0.0)
        ZeroER(config).fit(X, controls=controls)
        assert len(store) == 1

    def test_resume_reproduces_uninterrupted_fit(self, separable_mixture, config, tmp_path):
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "ck")

        interrupted = ZeroER(config)
        interrupted.fit(
            X, controls=FitControls(checkpoint=store, checkpoint_every=1, time_budget_s=0.0)
        )
        assert not interrupted.converged_

        health = HealthReport()
        resumed = ZeroER(config)
        with health_scope(health):
            resumed.fit(X, controls=FitControls(checkpoint=store, resume=True))
        assert health.has(EM_RESUMED_FROM_CHECKPOINT)

        baseline = ZeroER(config).fit(X)
        assert resumed.converged_ == baseline.converged_
        # the restored LL trace is part of the resumed history, so the full
        # trace matches the uninterrupted run's exactly
        assert resumed.history_.log_likelihoods == baseline.history_.log_likelihoods
        np.testing.assert_allclose(
            resumed.predict_proba(X), baseline.predict_proba(X), rtol=0.0, atol=1e-12
        )

    def test_resume_with_no_checkpoint_starts_fresh(self, separable_mixture, config, tmp_path):
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "empty")
        resumed = ZeroER(config)
        resumed.fit(X, controls=FitControls(checkpoint=store, resume=True))
        baseline = ZeroER(config).fit(X)
        np.testing.assert_array_equal(resumed.predict_proba(X), baseline.predict_proba(X))

    def test_fingerprint_mismatch_is_rejected(self, separable_mixture, tmp_path):
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "ck")
        ZeroER(ZeroERConfig(transitivity=False)).fit(
            X, controls=FitControls(checkpoint=store, time_budget_s=0.0)
        )
        other_config = ZeroERConfig(transitivity=False, kappa=0.3)
        with pytest.raises(CheckpointError, match="does not match"):
            ZeroER(other_config).fit(X, controls=FitControls(checkpoint=store, resume=True))

    @pytest.mark.parametrize("mode", ["staged", "joint"])
    def test_checkpoint_with_retired_linkage_mode_is_rejected(
        self, separable_mixture, config, tmp_path, mode
    ):
        # a checkpoint written while the config still had linkage_mode
        # fingerprints that config, which no fit has any more
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "ck")
        ZeroER(config).fit(X, controls=FitControls(checkpoint=store, time_budget_s=0.0))
        meta, arrays = store.latest()
        meta["fingerprint"]["config"]["linkage_mode"] = mode
        store.save(meta, arrays)
        with pytest.raises(CheckpointError, match="does not match"):
            ZeroER(config).fit(X, controls=FitControls(checkpoint=store, resume=True))

    def test_different_data_is_rejected(self, separable_mixture, tmp_path):
        X, _y = separable_mixture
        store = CheckpointStore(tmp_path / "ck")
        config = ZeroERConfig(transitivity=False)
        ZeroER(config).fit(X, controls=FitControls(checkpoint=store, time_budget_s=0.0))
        with pytest.raises(CheckpointError, match="does not match"):
            ZeroER(config).fit(
                X[: len(X) // 2], controls=FitControls(checkpoint=store, resume=True)
            )


class TestResumableLinkage:
    def test_pipeline_resume_reproduces_uninterrupted_run(self, tmp_path):
        ds = load_benchmark("rest_fz", scale="tiny", seed=7)
        store = CheckpointStore(tmp_path / "ck")

        interrupted = ERPipeline(
            blocking_attribute="name",
            fit_controls=FitControls(checkpoint=store, checkpoint_every=1, time_budget_s=0.0),
        )
        interrupted.run(ds.left, ds.right)
        assert not interrupted.model_.history_.converged
        assert len(store) >= 1

        resumed = ERPipeline(
            blocking_attribute="name",
            fit_controls=FitControls(checkpoint=store, resume=True),
        )
        result_resumed = resumed.run(ds.left, ds.right)

        baseline = ERPipeline(blocking_attribute="name")
        result_baseline = baseline.run(ds.left, ds.right)

        assert result_resumed.pairs == result_baseline.pairs
        np.testing.assert_allclose(
            result_resumed.scores, result_baseline.scores, rtol=0.0, atol=1e-12
        )

    def test_joint_resume_reproduces_uninterrupted_run(self, tmp_path):
        # the sides' histories travel in the one checkpoint, so a resumed
        # fit records the same steps as an uninterrupted one
        ds = load_benchmark("rest_fz", scale="tiny", seed=7)
        store = CheckpointStore(tmp_path / "ck")

        def run(controls=None):
            pipeline = ERPipeline(blocking_attribute="name", fit_controls=controls)
            return pipeline, pipeline.run(ds.left, ds.right)

        run(FitControls(checkpoint=store, checkpoint_every=1, time_budget_s=0.0))
        assert len(store) >= 1
        resumed, result_resumed = run(FitControls(checkpoint=store, resume=True))
        baseline, result_baseline = run()

        assert result_resumed.pairs == result_baseline.pairs
        np.testing.assert_allclose(
            result_resumed.scores, result_baseline.scores, rtol=0.0, atol=1e-12
        )
        for attr in ("_cross", "_left", "_right"):
            a, b = getattr(resumed.model_, attr), getattr(baseline.model_, attr)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.history.log_likelihoods == b.history.log_likelihoods, attr
                assert a.history.converged == b.history.converged, attr

    def test_resume_after_the_last_step_keeps_every_convergence_flag(self, tmp_path):
        # F runs to max_iter, so the last step is checkpointed and a resume
        # has no step left to run: each runner's flag must come from the
        # checkpoint (here Fl converged at its last step, F and Fr did not)
        ds = load_benchmark("prod_ab", scale="tiny", seed=11)
        store = CheckpointStore(tmp_path / "ck")

        def flags(controls):
            pipeline = ERPipeline(
                blocker=blocker_for("prod_ab"),
                config=ZeroERConfig(max_iter=40),
                fit_controls=controls,
            )
            pipeline.run(ds.left, ds.right)
            model = pipeline.model_
            runners = (model._cross, model._left, model._right)
            return {r.name: (r.history.n_iterations, r.history.converged) for r in runners}

        uninterrupted = flags(FitControls(checkpoint=store, checkpoint_every=1))
        assert uninterrupted["F"] == (40, False) and uninterrupted["Fl"][1]
        assert flags(FitControls(checkpoint=store, resume=True)) == uninterrupted

    def test_resume_with_other_sides_is_rejected(self, tmp_path):
        ds = load_benchmark("rest_fz", scale="tiny", seed=7)
        store = CheckpointStore(tmp_path / "ck")
        pipeline = ERPipeline(
            blocking_attribute="name",
            fit_controls=FitControls(checkpoint=store, checkpoint_every=1, time_budget_s=0.0),
        )
        pipeline.run(ds.left, ds.right)
        model = pipeline.model_
        assert model._left is not None and model._right is not None
        with pytest.raises(CheckpointError, match="holds runners"):
            model._cross.resume_from_checkpoint(store, sides=(model._right,))
