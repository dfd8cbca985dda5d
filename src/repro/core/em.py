"""The EM engine (paper §2.2, §6, Algorithm 1).

:class:`EMRunner` owns one mixture (prior + M/U block Gaussians) and one
posterior vector over a fixed feature matrix, and exposes separate
:meth:`m_step` / :meth:`e_step` methods. Keeping the steps separate is what
lets :meth:`EMRunner.run`, the one iteration loop, interleave a
record-linkage fit's three runners exactly as §5 prescribes
(``F.M, F.E, calibrate, Fl.M, Fl.E, Fr.M, Fr.E``), with the transitivity
calibrator mutating posteriors between steps.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ZeroERConfig
from repro.core.covariance import (
    pooled_correlation_blocks,
    variance_blocks,
    weighted_covariance,
    weighted_mean,
    weighted_variances,
)
from repro.core.gaussian import BlockDiagonalGaussian, stacked_logpdf
from repro.core.initialization import magnitude_initialization
from repro.core.regularization import apply_regularization, penalty_diagonal
from repro.obs import add_counter, histogram_of, observe, set_gauge, span, telemetry_active
from repro.reliability.checkpoint import CheckpointError, FitControls
from repro.reliability.health import (
    EM_NON_CONVERGENCE,
    EM_RESUMED_FROM_CHECKPOINT,
    EM_TIME_BUDGET_EXHAUSTED,
    record_condition,
)
from repro.utils.validation import check_feature_groups, check_feature_matrix

__all__ = [
    "MixtureParameters",
    "EMHistory",
    "EMRunner",
    "mixture_state",
    "mixture_from_state",
    "frozen_scorer_state",
    "frozen_scorer_parts",
    "match_probability_histogram",
    "emit_fit_metrics",
]

#: :meth:`EMRunner.save_checkpoint`'s layout: ``{name: loop state}`` for a
#: runner and its sides (format 1 held one runner's state).
_CHECKPOINT_FORMAT = 2


@dataclass
class MixtureParameters:
    """The learned generative model: prior π_M and the two distributions."""

    prior_match: float
    match: BlockDiagonalGaussian
    unmatch: BlockDiagonalGaussian


def mixture_state(params: MixtureParameters) -> dict:
    """Array-valued state of a learned mixture (for artifact persistence)."""
    return {
        "prior_match": float(params.prior_match),
        "match_mean": np.asarray(params.match.mean, dtype=np.float64),
        "match_blocks": [np.asarray(b, dtype=np.float64) for b in params.match.blocks],
        "unmatch_mean": np.asarray(params.unmatch.mean, dtype=np.float64),
        "unmatch_blocks": [np.asarray(b, dtype=np.float64) for b in params.unmatch.blocks],
    }


def mixture_from_state(state: dict, groups: list[list[int]]) -> MixtureParameters:
    """Rebuild :class:`MixtureParameters` from :func:`mixture_state` output."""
    groups = [list(g) for g in groups]
    return MixtureParameters(
        prior_match=float(state["prior_match"]),
        match=BlockDiagonalGaussian(state["match_mean"], groups, list(state["match_blocks"])),
        unmatch=BlockDiagonalGaussian(
            state["unmatch_mean"], groups, list(state["unmatch_blocks"])
        ),
    )


def frozen_scorer_state(
    kind: str,
    config: ZeroERConfig,
    runner: "EMRunner",
    normalizer,
    impute_means,
) -> dict:
    """Assemble the inference-only state shared by every frozen matcher.

    One schema for :class:`~repro.core.model.ZeroER` and
    :class:`~repro.core.linkage.ZeroERLinkage` — only ``kind`` differs —
    so the artifact layer and both models cannot drift apart.
    """
    return {
        "kind": kind,
        "config": dataclasses.asdict(config),
        "groups": [list(g) for g in runner.groups],
        "norm_mins": np.asarray(normalizer.mins_),
        "norm_maxs": np.asarray(normalizer.maxs_),
        "impute_means": np.asarray(impute_means),
        "mixture": mixture_state(runner.params),
    }


def frozen_scorer_parts(state: dict, name: str = "model"):
    """Disassemble :func:`frozen_scorer_state` output.

    Returns ``(config, normalizer, impute_means, runner)`` with the runner
    frozen via :meth:`EMRunner.from_params`.
    """
    from repro.features.normalize import MinMaxNormalizer

    config = ZeroERConfig.from_dict(state["config"])
    normalizer = MinMaxNormalizer()
    normalizer.mins_ = np.asarray(state["norm_mins"], dtype=np.float64)
    normalizer.maxs_ = np.asarray(state["norm_maxs"], dtype=np.float64)
    impute_means = np.asarray(state["impute_means"], dtype=np.float64)
    groups = [list(g) for g in state["groups"]]
    params = mixture_from_state(state["mixture"], groups)
    return config, normalizer, impute_means, EMRunner.from_params(params, groups, config, name)


@dataclass
class EMHistory:
    """Per-fit diagnostics used by tests and the scalability benchmark."""

    log_likelihoods: list[float] = field(default_factory=list)
    iteration_seconds: list[float] = field(default_factory=list)
    transitivity_adjustments: list[int] = field(default_factory=list)
    converged: bool = False
    #: Per-iteration histograms of the posterior γ (drift-detection signal);
    #: populated only on traced fits — see :mod:`repro.obs`.
    match_probability_histograms: list[dict] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.log_likelihoods)


def match_probability_histogram(gamma: np.ndarray) -> dict:
    """Ten-bin histogram of a posterior vector over [0, 1] (plain dict)."""
    return histogram_of(gamma)


def emit_fit_metrics(name: str, history: EMHistory, gamma: np.ndarray) -> None:
    """Export one EM fit's convergence signals into the metrics registry.

    :meth:`EMRunner.run` calls it once per runner it trained (a linkage
    fit's F, Fl and Fr alike): iteration counts, final log likelihood and
    delta, convergence flag, and the final posterior distribution.
    """
    add_counter("em.iterations", history.n_iterations)
    set_gauge(f"em.converged.{name}", float(history.converged))
    if history.log_likelihoods:
        set_gauge(f"em.log_likelihood.{name}", history.log_likelihoods[-1])
        if len(history.log_likelihoods) > 1:
            set_gauge(
                f"em.log_likelihood_delta.{name}",
                history.log_likelihoods[-1] - history.log_likelihoods[-2],
            )
    if gamma.size:
        observe("em.match_probability", gamma)


class EMRunner:
    """EM over one candidate pair set.

    Parameters
    ----------
    X:
        Normalized, imputed feature matrix (``n_pairs × d``).
    feature_groups:
        Per-attribute feature index lists. The effective block structure
        follows ``config.covariance``: ``grouped`` uses these groups,
        ``independent`` one block per feature, ``full`` a single block.
    config:
        Hyperparameters; see :class:`~repro.core.config.ZeroERConfig`.
    """

    def __init__(
        self,
        X: np.ndarray,
        feature_groups: list[list[int]] | None,
        config: ZeroERConfig,
        name: str = "model",
    ):
        self.X = check_feature_matrix(X)
        self.config = config
        self.name = name
        d = self.X.shape[1]
        declared = check_feature_groups(feature_groups, d)
        if config.covariance == "full":
            self.groups = [list(range(d))]
        elif config.covariance == "independent":
            self.groups = [[j] for j in range(d)]
        else:
            self.groups = declared
        self.gamma = magnitude_initialization(self.X, config.init_threshold)
        self.params: MixtureParameters | None = None
        self.history = EMHistory()
        # Iteration-loop state lives on the instance (not as locals in
        # :meth:`run`) so a fit can be checkpointed mid-loop and resumed
        # bit-identically — see :meth:`capture_loop_state`.
        self._tail: deque[np.ndarray] = deque(maxlen=config.tail_window)
        self._previous_ll: float | None = None
        self._iteration = 0
        # The shared correlation R (§4) depends only on the data, not on the
        # posteriors — estimate it once.
        self._shared_correlation = (
            pooled_correlation_blocks(self.X, self.groups)
            if config.shared_correlation
            else None
        )

    @classmethod
    def from_params(
        cls,
        params: MixtureParameters,
        feature_groups: list[list[int]],
        config: ZeroERConfig,
        name: str = "model",
    ) -> "EMRunner":
        """A frozen runner carrying learned parameters but no training data.

        Used when deserializing model artifacts: :meth:`posterior` works
        (it needs only ``params``), while the training-side methods
        (:meth:`m_step`, :meth:`e_step`, :meth:`run`) must not be called —
        there is no feature matrix to re-fit on.
        """
        runner = object.__new__(cls)
        runner.X = np.zeros((0, params.match.n_features))
        runner.config = config
        runner.name = name
        runner.groups = [list(g) for g in feature_groups]
        runner.gamma = np.zeros(0)
        runner.params = params
        runner.history = EMHistory()
        runner._tail = deque(maxlen=config.tail_window)
        runner._previous_ll = None
        runner._iteration = 0
        runner._shared_correlation = None
        return runner

    # -- M-step -----------------------------------------------------------------

    def m_step(self) -> MixtureParameters:
        """Re-estimate π, μ_C, Σ_C from the current posteriors (Eq. 8/11/13/15).

        If one component's effective mass has collapsed below
        ``config.min_component_mass``, its previous parameters are kept (a
        numerical guard; the prior keeps shrinking so EM still converges).
        A covariance model that reads only per-feature variances (the shared
        ``R``, or one feature per group) takes both components' variances
        from one pass; only the ablations that read off-diagonals build a
        ``d × d`` scatter per component.
        """
        cfg = self.config
        n = self.X.shape[0]
        weights = {"M": self.gamma, "U": 1.0 - self.gamma}
        masses = {c: float(w.sum()) for c, w in weights.items()}
        kept: dict[str, BlockDiagonalGaussian] = {}
        if self.params is not None:
            for c, dist in (("M", self.params.match), ("U", self.params.unmatch)):
                if masses[c] < cfg.min_component_mass:
                    kept[c] = dist

        means: dict[str, np.ndarray] = {}
        for c, w in weights.items():
            if c in kept:
                means[c] = kept[c].mean
            else:
                means[c] = weighted_mean(self.X, np.maximum(w, 0.0) + 1e-300)

        penalty = penalty_diagonal(cfg, means["M"], means["U"])

        fitted = [c for c in weights if c not in kept]
        if self._shared_correlation is not None or all(len(g) == 1 for g in self.groups):
            # the model reads only variances: one pass for both components
            variances = weighted_variances(
                self.X,
                np.stack([weights[c] for c in fitted]),
                np.stack([means[c] for c in fitted]),
            )
            blocks = {
                c: variance_blocks(var, self.groups, self._shared_correlation, penalty)
                for c, var in zip(fitted, variances)
            }
        else:
            # the ablations without the shared R read the off-diagonals: one
            # d × d scatter per component, centered on its own mean
            blocks = {}
            for c in fitted:
                scatter = weighted_covariance(self.X, weights[c], means[c])
                blocks[c] = [
                    apply_regularization(scatter[np.ix_(idx, idx)], penalty, idx)
                    for idx in self.groups
                ]
        distributions = dict(kept)
        for c in fitted:
            distributions[c] = BlockDiagonalGaussian(means[c], self.groups, blocks[c])

        prior = float(np.clip(masses["M"] / n, cfg.prior_floor, 1.0 - cfg.prior_floor))
        self.params = MixtureParameters(prior, distributions["M"], distributions["U"])
        return self.params

    # -- E-step -----------------------------------------------------------------

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        """``(n, 2)``: log π_M + log p_M(x) and log(1 − π_M) + log p_U(x) per row.

        Both components come from one whitening pass
        (:func:`~repro.core.gaussian.stacked_logpdf`); the E-step and the
        frozen scorer (:meth:`posterior`) share it.
        """
        params = self.params
        log_joint = stacked_logpdf([params.match, params.unmatch], X)
        log_joint[:, 0] += np.log(params.prior_match)
        log_joint[:, 1] += np.log1p(-params.prior_match)
        return log_joint

    def e_step(self) -> float:
        """Update posteriors from the current parameters (Equation 3).

        Returns the observed-data log likelihood normalized per pair, which
        is the convergence criterion quantity of §6.
        """
        if self.params is None:
            raise RuntimeError("m_step must run before e_step")
        log_joint = self._log_joint(self.X)
        log_total = np.logaddexp(log_joint[:, 0], log_joint[:, 1])
        gamma = np.exp(log_joint[:, 0] - log_total)
        # flush vanishing posteriors to exact zero: subnormal floats in the
        # M-step's weighted sums hit the CPU's slow denormal path (an
        # order-of-magnitude per-iteration slowdown on large candidate sets)
        gamma[gamma < 1e-30] = 0.0
        gamma[gamma > 1.0 - 1e-15] = 1.0
        self.gamma = gamma
        return float(np.mean(log_total))

    # -- checkpointable loop state ------------------------------------------------

    def fingerprint(self) -> dict:
        """What a checkpoint must match to be resumable into this runner.

        Resuming EM state onto a different candidate set, feature space, or
        configuration would silently produce garbage; the fingerprint makes
        that a :class:`~repro.reliability.checkpoint.CheckpointError`.
        """
        return {
            "name": self.name,
            "n_pairs": int(self.X.shape[0]),
            "n_features": int(self.X.shape[1]),
            "groups": [list(g) for g in self.groups],
            "config": dataclasses.asdict(self.config),
        }

    def capture_loop_state(self, prefix: str = "") -> tuple[dict, dict[str, np.ndarray]]:
        """Snapshot the iteration loop: ``(json_meta, named_arrays)``.

        Everything :meth:`restore_loop_state` needs to continue the fit
        bit-identically: posteriors, the tail-averaging window, the learned
        parameters, the likelihood trace, the convergence flag, and the loop
        counters. Array keys are prefixed (``"F."`` etc.) so one checkpoint
        can hold a runner and its sides.
        """
        n = int(self.gamma.shape[0])
        arrays: dict[str, np.ndarray] = {
            f"{prefix}gamma": np.asarray(self.gamma, dtype=np.float64),
            f"{prefix}tail": (
                np.stack(self._tail) if self._tail else np.zeros((0, n))
            ),
        }
        meta = {
            "iteration": self._iteration,
            "previous_ll": self._previous_ll,
            "log_likelihoods": list(self.history.log_likelihoods),
            "iteration_seconds": list(self.history.iteration_seconds),
            "transitivity_adjustments": list(self.history.transitivity_adjustments),
            "converged": self.history.converged,
            "has_params": self.params is not None,
        }
        if self.params is not None:
            state = mixture_state(self.params)
            meta["prior_match"] = state["prior_match"]
            meta["n_blocks"] = len(state["match_blocks"])
            arrays[f"{prefix}match_mean"] = state["match_mean"]
            arrays[f"{prefix}unmatch_mean"] = state["unmatch_mean"]
            for c in ("match", "unmatch"):
                for g, block in enumerate(state[f"{c}_blocks"]):
                    arrays[f"{prefix}{c}_block_{g}"] = block
        return meta, arrays

    def restore_loop_state(self, meta: dict, arrays, prefix: str = "") -> None:
        """Inverse of :meth:`capture_loop_state`: rewind to the snapshot."""
        self.gamma = np.asarray(arrays[f"{prefix}gamma"], dtype=np.float64)
        tail_stack = np.asarray(arrays[f"{prefix}tail"], dtype=np.float64)
        self._tail = deque(
            (row.copy() for row in tail_stack), maxlen=self.config.tail_window
        )
        self._previous_ll = meta["previous_ll"]
        self._iteration = int(meta["iteration"])
        self.history.log_likelihoods = [float(v) for v in meta["log_likelihoods"]]
        self.history.iteration_seconds = [float(v) for v in meta["iteration_seconds"]]
        self.history.transitivity_adjustments = [
            int(v) for v in meta["transitivity_adjustments"]
        ]
        self.history.converged = bool(meta["converged"])
        if meta.get("has_params"):
            n_blocks = int(meta["n_blocks"])
            self.params = mixture_from_state(
                {
                    "prior_match": meta["prior_match"],
                    "match_mean": arrays[f"{prefix}match_mean"],
                    "unmatch_mean": arrays[f"{prefix}unmatch_mean"],
                    "match_blocks": [
                        arrays[f"{prefix}match_block_{g}"] for g in range(n_blocks)
                    ],
                    "unmatch_blocks": [
                        arrays[f"{prefix}unmatch_block_{g}"] for g in range(n_blocks)
                    ],
                },
                self.groups,
            )

    def save_checkpoint(self, store, sides: tuple["EMRunner", ...] = ()) -> None:
        """Write the loop state of this runner and its sides as one checkpoint.

        The layout is ``{name: loop state}`` for every runner, each runner's
        arrays under a ``"<name>."`` prefix, stamped with this runner's
        fingerprint.
        """
        runners: dict[str, dict] = {}
        arrays: dict[str, np.ndarray] = {}
        for runner in (self, *sides):
            runners[runner.name], runner_arrays = runner.capture_loop_state(
                prefix=f"{runner.name}."
            )
            arrays.update(runner_arrays)
        store.save(
            {
                "format": _CHECKPOINT_FORMAT,
                "kind": "em",
                "iteration": self._iteration,
                "fingerprint": self.fingerprint(),
                "runners": runners,
            },
            arrays,
        )

    def resume_from_checkpoint(self, store, sides: tuple["EMRunner", ...] = ()) -> bool:
        """Restore this runner and its sides from the latest valid checkpoint.

        Returns ``False`` if there is none. Raises
        :class:`~repro.reliability.checkpoint.CheckpointError` when the
        stored fingerprint does not match this fit (different data, feature
        space, or configuration), or when the checkpoint holds other runners
        than this fit trains.
        """
        loaded = store.latest()
        if loaded is None:
            return False
        meta, arrays = loaded
        if (
            meta.get("format") != _CHECKPOINT_FORMAT
            or meta.get("fingerprint") != self.fingerprint()
        ):
            raise CheckpointError(
                f"checkpoint in {store.root} does not match this fit "
                "(different data, feature space, or configuration)",
                path=store.root,
            )
        runners = (self, *sides)
        stored, fitted = list(meta["runners"]), [runner.name for runner in runners]
        if stored != fitted:
            raise CheckpointError(
                f"checkpoint in {store.root} holds runners {stored}, "
                f"but this fit trains {fitted}",
                path=store.root,
            )
        for runner in runners:
            runner.restore_loop_state(
                meta["runners"][runner.name], arrays, prefix=f"{runner.name}."
            )
        record_condition(
            EM_RESUMED_FROM_CHECKPOINT,
            f"{self.name}: resumed EM at iteration {self._iteration}",
            severity="info",
            model=self.name,
            iteration=self._iteration,
        )
        return True

    # -- the iteration loop -------------------------------------------------------

    def _record_step(self, ll: float, started: float, traced: bool) -> None:
        """Record one M/E step: its seconds, log likelihood and |ΔLL| test."""
        history = self.history
        history.iteration_seconds.append(time.perf_counter() - started)
        history.log_likelihoods.append(ll)
        if traced:
            history.match_probability_histograms.append(
                match_probability_histogram(self.gamma)
            )
        history.converged = (
            self._previous_ll is not None and abs(ll - self._previous_ll) < self.config.tol
        )
        self._previous_ll = ll
        self._iteration += 1

    def run(
        self,
        calibrate: Callable[[np.ndarray], int] | None = None,
        controls: FitControls | None = None,
        sides: tuple["EMRunner", ...] = (),
    ) -> EMHistory:
        """Algorithm 1: iterate M/E, with optional transitivity calibration.

        Each iteration runs this runner's M- and E-step, then, once past
        ``config.transitivity_warmup`` iterations, ``calibrate`` on its
        posteriors (it repairs violated triangles in place and returns the
        number of adjustments), then one M- and E-step of each of ``sides``.
        The sides are a record-linkage fit's within-table models, so one
        iteration is §5's ``F.M, F.E, calibrate, Fl.M, Fl.E, Fr.M, Fr.E``.
        Only this runner's |ΔLL| stops the loop; each side records its steps
        and its own |ΔLL| test in its history.

        On hitting ``max_iter`` without likelihood convergence this runner's
        posterior is replaced by the average of the last ``tail_window``
        iterations' posteriors (§6's tail averaging). ``controls`` adds the
        reliability behaviors (all off by default): periodic crash-safe
        checkpoints of this runner and its sides, resuming from the latest
        checkpoint, and a wall-clock budget that stops the loop with
        best-so-far parameters and ``converged=False`` instead of running to
        ``max_iter``.
        """
        cfg = self.config
        traced = telemetry_active()
        store = controls.checkpoint if controls is not None else None
        started_run = time.monotonic()
        with span(
            "em.fit", model=self.name, n_pairs=int(self.X.shape[0]), max_iter=cfg.max_iter
        ) as sp:
            if controls is not None and controls.resume and store is not None:
                self.resume_from_checkpoint(store, sides)
            budget_hit = False
            while self._iteration < cfg.max_iter:
                iteration = self._iteration
                started = time.perf_counter()
                self.m_step()
                ll = self.e_step()
                if calibrate is not None and iteration >= cfg.transitivity_warmup:
                    self.history.transitivity_adjustments.append(calibrate(self.gamma))
                for side in sides:
                    side_started = time.perf_counter()
                    side.m_step()
                    side._record_step(side.e_step(), side_started, traced)
                self._tail.append(self.gamma.copy())
                self._record_step(ll, started, traced)
                if self.history.converged:
                    break
                if controls is not None and controls.time_budget_s is not None:
                    budget_hit = time.monotonic() - started_run >= controls.time_budget_s
                # Checkpoints capture the clean loop state *before* any
                # tail-averaging, so a resumed run continues exactly where
                # an uninterrupted one would be.
                if store is not None and (
                    budget_hit or self._iteration % controls.checkpoint_every == 0
                ):
                    self.save_checkpoint(store, sides)
                if budget_hit:
                    record_condition(
                        EM_TIME_BUDGET_EXHAUSTED,
                        f"{self.name}: EM stopped after {self._iteration} iterations "
                        f"on a {controls.time_budget_s:g}s budget; returning "
                        "best-so-far parameters",
                        model=self.name,
                        iteration=self._iteration,
                        time_budget_s=controls.time_budget_s,
                    )
                    break
            if not self.history.converged:
                if not budget_hit:
                    record_condition(
                        EM_NON_CONVERGENCE,
                        f"{self.name}: EM hit max_iter={cfg.max_iter} without "
                        "likelihood convergence; returning the tail-averaged "
                        "posterior",
                        model=self.name,
                        max_iter=cfg.max_iter,
                    )
                if len(self._tail) > 1:
                    self.gamma = np.mean(np.stack(self._tail), axis=0)
            # the window is loop state only: checkpoints were written inside
            # the loop, and a fitted model need not hold tail_window posteriors
            self._tail.clear()
            sp.set(
                n_iterations=self.history.n_iterations, converged=self.history.converged
            )
        if traced:
            for runner in (self, *sides):
                emit_fit_metrics(runner.name, runner.history, runner.gamma)
        return self.history

    # -- inference on new data ----------------------------------------------------

    def posterior(self, X: np.ndarray) -> np.ndarray:
        """Posterior match probabilities for new (already normalized) rows."""
        if self.params is None:
            raise RuntimeError("model has no parameters; fit first")
        log_joint = self._log_joint(check_feature_matrix(X))
        return np.exp(log_joint[:, 0] - np.logaddexp(log_joint[:, 0], log_joint[:, 1]))
