"""Figure 5: EM per-iteration runtime is linear in the training-data size.

The paper times one EM iteration while varying the fraction of (unlabeled)
training data. We measure per-iteration wall time on the largest candidate
set — medians of interleaved repeats, so a transient system-load spike
cannot skew one fraction — and check that the cost at 100% of the data is
within a small factor of the linear extrapolation from 25%, i.e. the
per-iteration complexity is O(N) as §6 claims.

A second leg breaks one iteration of the paper's own job down into its two
EM layers: ``EMRunner.m_step`` and ``e_step`` on paper-scale pub_da's three
linkage models (F, Fl, Fr), timed with the production kernels and with the
per-block reference loops of ``tests/reference_em.py`` swapped in, and
written to ``BENCH_em.json``. ``REPRO_BENCH_SMOKE=1`` runs that leg on the
tiny pub_da for a few steps and writes nothing.
"""

import os
import statistics
import time

import numpy as np
from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report
from reference_em import reference_kernels

from repro import ERPipeline, load_benchmark
from repro.core import ZeroERConfig
from repro.core.em import EMRunner
from repro.eval.harness import blocker_for, format_table, prepare_dataset
from repro.features.normalize import MinMaxNormalizer, impute_nan
from repro.utils.rng import ensure_rng

FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)
TIMED_ITERATIONS = 12
N_REPEATS = 3


def test_fig5_em_iteration_time_linear(benchmark, capfd):
    def run():
        prep = prepare_dataset("pub_ds")
        X = impute_nan(MinMaxNormalizer().fit_transform(prep.X))
        rng = ensure_rng(5)
        order = rng.permutation(X.shape[0])
        # interleave repeats across fractions so transient load cannot skew
        # a single fraction's estimate; keep the best (least-disturbed) run
        samples: dict[float, list[float]] = {f: [] for f in FRACTIONS}
        sizes: dict[float, int] = {}
        for _repeat in range(N_REPEATS):
            for fraction in FRACTIONS:
                n = max(200, int(round(fraction * X.shape[0])))
                sizes[fraction] = n
                subset = X[order[:n]]
                config = ZeroERConfig(transitivity=False, max_iter=TIMED_ITERATIONS, tol=1e-30)
                runner = EMRunner(subset, prep.feature_groups, config)
                runner.run()
                # drop the first iteration (warm-up); median within the run
                times = runner.history.iteration_seconds[1:]
                samples[fraction].append(float(np.median(times)))
        return [
            {
                "fraction": fraction,
                "n_pairs": sizes[fraction],
                "sec_per_iter": float(np.min(samples[fraction])),
            }
            for fraction in FRACTIONS
        ]

    rows = one_shot(benchmark, run)
    emit(capfd, "")
    emit(capfd, format_table(rows, ["fraction", "n_pairs", "sec_per_iter"],
                             title="Figure 5 — EM per-iteration time vs data size"))

    by_fraction = {r["fraction"]: r for r in rows}
    # linearity: time(100%) should be ≈ 4 × time(25%); generous slack for
    # allocator/cache effects on a shared machine
    ratio = by_fraction[1.0]["sec_per_iter"] / max(by_fraction[0.25]["sec_per_iter"], 1e-9)
    emit(capfd, f"time(100%) / time(25%) = {ratio:.2f} (linear would be 4.0)")
    assert ratio < 12.0
    # monotone: more data never makes an iteration cheaper
    times = [r["sec_per_iter"] for r in rows]
    assert times[-1] > times[0]


# -- EM layers of the paper's own job -------------------------------------------

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
EM_SCALE = "tiny" if SMOKE else "paper"
#: The seed of perfbench's ``fit_pub_da`` and of the EM parity suite.
EM_SEED = 11
#: Timed steps per kernel set and model, production and reference interleaved.
EM_STEPS = 3 if SMOKE else 25


def _step_seconds(runner: EMRunner, gamma: np.ndarray) -> tuple[float, float]:
    """Seconds of one ``m_step`` and one ``e_step`` from posteriors ``gamma``."""
    runner.gamma = gamma.copy()
    started = time.perf_counter()
    runner.m_step()
    middle = time.perf_counter()
    runner.e_step()
    return middle - started, time.perf_counter() - middle


def test_em_step_kernels(benchmark, capfd):
    def run():
        bench = load_benchmark("pub_da", scale=EM_SCALE, seed=EM_SEED)
        pipeline = ERPipeline(blocker=blocker_for("pub_da"))
        pipeline.run(bench.left, bench.right)
        model = pipeline.model_
        rows = []
        for fitted in (model._cross, model._left, model._right):
            if fitted is None:
                continue
            # each step starts from the fit's final posteriors, so every
            # timed step does the same work
            runner = EMRunner(fitted.X, fitted.groups, fitted.config, name=fitted.name)
            samples = {"production": [], "reference": []}
            for _ in range(EM_STEPS):
                samples["production"].append(_step_seconds(runner, fitted.gamma))
                with reference_kernels():
                    samples["reference"].append(_step_seconds(runner, fitted.gamma))
            ms = {
                kind: [1e3 * statistics.median(s[i] for s in steps) for i in (0, 1)]
                for kind, steps in samples.items()
            }
            rows.append(
                bench_workload(
                    "pub_da",
                    "production",
                    sum(ms["production"]) / 1e3,
                    baseline_engine="per-block reference",
                    baseline_seconds=sum(ms["reference"]) / 1e3,
                    model=fitted.name,
                    n_pairs=int(fitted.X.shape[0]),
                    m_step_ms=round(ms["production"][0], 3),
                    e_step_ms=round(ms["production"][1], 3),
                    reference_m_step_ms=round(ms["reference"][0], 3),
                    reference_e_step_ms=round(ms["reference"][1], 3),
                )
            )
        return rows

    rows = one_shot(benchmark, run)
    columns = ["model", "n_pairs", "m_step_ms", "e_step_ms"]
    columns += ["reference_m_step_ms", "reference_e_step_ms", "speedup"]
    title = f"EM layers per iteration, pub_da/{EM_SCALE} (median of {EM_STEPS} steps)"
    emit(capfd, "")
    emit(capfd, format_table(rows, columns, title=title))
    meta = {
        "scale": EM_SCALE,
        "seed": EM_SEED,
        "steps": EM_STEPS,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    emit(capfd, report_note(write_bench_report("em", rows, meta=meta)))
    assert {row["model"] for row in rows} == {"F", "Fl", "Fr"}
