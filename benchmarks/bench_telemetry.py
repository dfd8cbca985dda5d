"""Telemetry overhead guard: tracing must not slow the engines down.

The observability subsystem promises two things about cost (ISSUE 6):

1. **No-sink no-op**: with no sink configured, ``span()`` degrades to two
   ``perf_counter`` calls and metric emission to a falsy module check —
   the instrumented engines must run at untraced speed. Verified here by
   timing a tight loop of inactive spans (absolute per-span budget).
2. **Traced overhead is small**: with the in-memory sink active, a full
   end-to-end resolve (blocking → featurization → EM) must stay within a
   few percent of the untraced run. Verified on interleaved runs of the
   same pipeline with and without a sink: each run is timed in process CPU
   seconds (tracing costs CPU in this process, and CPU time leaves out the
   steal time of a shared host), and the median of the per-pair
   differences is held to the budget.

Set ``REPRO_BENCH_SMOKE=1`` for a CI-friendly run: fewer repeats and a
looser relative bar (shared runners are noisy); the no-op micro-guard is
asserted in both modes.
"""

import os
import statistics
import time

from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report

from repro import ERPipeline
from repro.data import load_benchmark
from repro.eval.harness import format_table
from repro.features.generator import clear_feature_caches
from repro.obs import configure_telemetry, reset_metrics, span

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

DATASET, SCALE, SEED = "pub_da", ("tiny" if SMOKE else "small"), 11

#: Interleaved untraced/traced pairs of runs.
REPEATS = 3 if SMOKE else 5

#: Traced overhead bar: relative (fraction of untraced) + absolute slack.
MAX_OVERHEAD_FRACTION = 0.20 if SMOKE else 0.05
ABSOLUTE_SLACK_SEC = 0.10 if SMOKE else 0.05

#: No-op fast path: a disabled span must cost well under this per call.
NOOP_SPANS = 100_000
MAX_NOOP_SEC_PER_SPAN = 10e-6


def _timed_run(ds) -> float:
    """CPU seconds of one end-to-end run."""
    clear_feature_caches()  # neither arm inherits a warm token/JW cache
    started = time.process_time()
    ERPipeline(blocking_attribute="title").run(ds.left, ds.right)
    return time.process_time() - started


def test_traced_vs_untraced_overhead(benchmark, capfd):
    def run():
        ds = load_benchmark(DATASET, scale=SCALE, seed=SEED)
        _timed_run(ds)  # warm-up: imports, code paths, dataset caches

        untraced, traced = [], []
        for _ in range(REPEATS):
            configure_telemetry(None)
            untraced.append(_timed_run(ds))
            configure_telemetry("memory")
            reset_metrics()
            traced.append(_timed_run(ds))
        configure_telemetry(None)
        reset_metrics()
        return untraced, traced

    untraced, traced = one_shot(benchmark, run)
    untraced_sec, traced_sec = statistics.median(untraced), statistics.median(traced)
    overhead_sec = statistics.median(t - u for u, t in zip(untraced, traced))
    overhead_pct = 100.0 * overhead_sec / max(untraced_sec, 1e-9)

    emit(capfd, "")
    emit(capfd, format_table(
        [{
            "workload": f"{DATASET}/{SCALE}",
            "untraced_sec": round(untraced_sec, 4),
            "traced_sec": round(traced_sec, 4),
            "overhead_sec": round(overhead_sec, 4),
            "overhead_pct": round(overhead_pct, 2),
        }],
        ["workload", "untraced_sec", "traced_sec", "overhead_sec", "overhead_pct"],
        title=f"Telemetry overhead: traced (memory sink) vs untraced resolve, CPU "
              f"seconds (medians of {REPEATS} interleaved pairs)",
    ))

    row = bench_workload(
        DATASET,
        "traced",
        traced_sec,
        baseline_engine="untraced",
        baseline_seconds=untraced_sec,
        speedup=untraced_sec / max(traced_sec, 1e-9),
        scale=SCALE,
        overhead_pct=round(overhead_pct, 2),
    )
    report_path = write_bench_report("telemetry", [row], meta={
        "seed": SEED,
        "repeats": REPEATS,
        "clock": "process CPU seconds; overhead is the median per-pair difference",
    })
    emit(capfd, report_note(report_path))

    budget = MAX_OVERHEAD_FRACTION * untraced_sec + ABSOLUTE_SLACK_SEC
    assert overhead_sec < budget, (
        f"tracing added {overhead_sec:.4f}s to a {untraced_sec:.4f}s resolve "
        f"(> {MAX_OVERHEAD_FRACTION:.0%} + {ABSOLUTE_SLACK_SEC}s budget)"
    )


def test_no_sink_span_is_a_no_op(benchmark, capfd):
    def run():
        configure_telemetry(None)
        started = time.perf_counter()
        for _ in range(NOOP_SPANS):
            with span("noop"):
                pass
        return time.perf_counter() - started

    seconds = one_shot(benchmark, run)
    per_span = seconds / NOOP_SPANS
    emit(capfd, "")
    emit(capfd, f"no-sink span: {per_span * 1e6:.3f} us/span over {NOOP_SPANS} spans")
    assert per_span < MAX_NOOP_SEC_PER_SPAN, (
        f"inactive span costs {per_span * 1e6:.1f} us — the no-op fast path regressed"
    )
