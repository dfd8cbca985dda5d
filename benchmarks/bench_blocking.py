"""Sparse columnar blocking kernel vs the per-record reference loop.

Blocking is what makes ZeroER feasible at all (paper §2.1, §5.2): the
O(|T1|·|T2|) pair space must shrink to a candidate set before
featurization. After the featurization hot path went columnar (PR 2), the
per-record Counter loop in ``TokenOverlapBlocker`` became the dominant
cost on large tables, and the blocker moved to a sparse kernel; the loop
stays in the test suite as the parity oracle
(``tests/reference_blocking.py``). This bench times both on the same
workloads at multiple table scales — linkage and dedup — asserts the pair
lists are bit-identical, and emits ``BENCH_blocking.json``.

The acceptance bar (ISSUE 3): ≥5x blocking speedup on the largest
workload. Set ``REPRO_BENCH_SMOKE=1`` for a seconds-long CI smoke run
(tiny scale, no JSON, no speedup assertions).
"""

import os
import time

from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report
from reference_blocking import PerRecordBlocker

from repro.blocking import TokenOverlapBlocker
from repro.data import load_benchmark
from repro.eval.harness import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: (dataset, scale, mode, min_overlap, top_k) — ordered smallest to
#: largest; the last workload carries the speedup assertion.
WORKLOADS = (
    [("pub_da", "tiny", "linkage", 2, 60), ("pub_da", "tiny", "dedup", 2, 60)]
    if SMOKE
    else [
        ("pub_da", "tiny", "linkage", 2, 60),
        ("pub_da", "small", "linkage", 2, 60),
        ("pub_da", "paper", "linkage", 2, 60),
        ("pub_da", "paper", "dedup", 2, 60),
        ("pub_ds", "paper", "linkage", 2, 40),
    ]
)
SEED = 11

#: Acceptance bar: sparse-engine speedup on the largest workload.
SPEEDUP_FLOOR = 5.0


def _tables(name: str, scale: str, mode: str):
    ds = load_benchmark(name, scale=scale, seed=SEED)
    attr = "name" if "name" in ds.attributes else "title"
    if mode == "dedup":
        merged, _ = ds.as_dedup()
        return attr, merged, None
    return attr, ds.left, ds.right


def _run_workload(name, scale, mode, min_overlap, top_k):
    attr, left, right = _tables(name, scale, mode)
    blocker = TokenOverlapBlocker(attr, min_overlap=min_overlap, top_k=top_k)
    paths = {"per-record": PerRecordBlocker(blocker).block, "sparse": blocker.block}
    results = {}
    pair_lists = {}
    for engine, block in paths.items():
        started = time.perf_counter()
        pair_lists[engine] = block(left, right)
        results[engine] = time.perf_counter() - started
    # a fast wrong answer is no answer: same pairs, same order
    assert pair_lists["sparse"] == pair_lists["per-record"]
    n_pairs = len(pair_lists["sparse"])
    return bench_workload(
        name,
        "sparse",
        results["sparse"],
        baseline_engine="per-record",
        baseline_seconds=results["per-record"],
        scale=scale,
        mode=mode,
        n_left=len(left),
        n_right=len(right) if right is not None else len(left),
        n_pairs=n_pairs,
        pairs_per_sec=round(n_pairs / max(results["sparse"], 1e-9)),
    )


def test_sparse_vs_per_record_blocking(benchmark, capfd):
    def run():
        return [_run_workload(*workload) for workload in WORKLOADS]

    report = one_shot(benchmark, run)

    rows = [
        {
            "workload": f"{w['dataset']}/{w['scale']}/{w['mode']}",
            "tables": f"{w['n_left']} x {w['n_right']}",
            "pairs": w["n_pairs"],
            "per_record_sec": w["baseline_seconds"],
            "sparse_sec": w["seconds"],
            "pairs/sec": w["pairs_per_sec"],
            "speedup": w["speedup"],
        }
        for w in report
    ]
    emit(capfd, "")
    emit(
        capfd,
        format_table(
            rows,
            ["workload", "tables", "pairs", "per_record_sec", "sparse_sec", "pairs/sec", "speedup"],
            title="Blocking: sparse columnar engine vs per-record reference",
        ),
    )

    emit(capfd, report_note(write_bench_report("blocking", report, meta={"seed": SEED})))
    if SMOKE:  # tiny tables: the speedup floor does not apply
        return

    largest = report[-1]
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"sparse blocking speedup {largest['speedup']}x on "
        f"{largest['dataset']}/{largest['scale']} is below the "
        f"{SPEEDUP_FLOOR}x acceptance bar"
    )
