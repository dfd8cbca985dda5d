"""Columnar batch featurization vs the per-pair reference loop.

Featurizing the blocked candidate set dominates ZeroER's end-to-end cost
(paper §2.1, §5.5). This bench scores the same candidate sets with
`FeatureGenerator.transform` — the columnar batch kernels — and with the
test suite's per-pair oracle (``reference_batch.per_pair_transform``), and
reports throughput plus a per-feature-family
breakdown (token / hybrid / edit / tfidf / exact / numeric), emitting the
printed table and a machine-readable ``BENCH_featurization.json``.

Workloads: the full pub_da blocking at paper scale (~120k pairs, the
ISSUE's ≥50k-pair bar) and a mixed-schema rest_fz workload with sampled
pairs that exercises the edit-distance kernels. The bench asserts the
acceptance bar: ≥5x throughput on token-based features, and an overall
batch win, on the large workload.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-long CI smoke run (tiny scale,
no JSON, no speedup assertions — it only proves the bench still runs).
"""

import os
import time
from collections import defaultdict

import numpy as np

from _bench_utils import bench_workload, emit, one_shot, report_note, write_bench_report
from reference_batch import per_pair_transform

from repro.data import load_benchmark
from repro.eval.harness import blocker_for, format_table
from repro.features.generator import FeatureGenerator, clear_feature_caches

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: (dataset, scale, extra sampled pairs) — smoke shrinks everything.
WORKLOADS = (
    [("pub_da", "tiny", 0), ("rest_fz", "tiny", 500)]
    if SMOKE
    else [("pub_da", "paper", 0), ("rest_fz", "paper", 60_000)]
)
SEED = 11

#: Acceptance bar (ISSUE 2): token-feature throughput on the ≥50k-pair
#: workload must beat the per-pair reference by at least this factor.
TOKEN_SPEEDUP_FLOOR = 5.0


def _workload_pairs(name: str, scale: str, extra_random: int):
    ds = load_benchmark(name, scale=scale, seed=SEED)
    pairs = blocker_for(name).block(ds.left, ds.right)
    if extra_random:
        # top up with sampled pairs: exercises the dedup/short-circuit
        # paths on values the blocker would never co-retrieve
        rng = np.random.default_rng(SEED)
        left_ids, right_ids = ds.left.ids(), ds.right.ids()
        li = rng.integers(0, len(left_ids), size=extra_random)
        ri = rng.integers(0, len(right_ids), size=extra_random)
        seen = set(pairs)
        for i, j in zip(li, ri):
            pair = (left_ids[int(i)], right_ids[int(j)])
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return ds, pairs


def _run_engines(ds, pairs):
    gen = FeatureGenerator().fit(ds.left, ds.right, ds.attributes)
    family = {spec.name: spec.family for spec in gen.features_}
    results = {}
    matrices = {}
    paths = {"per-pair": per_pair_transform, "batch": FeatureGenerator.transform}
    for engine, transform in paths.items():
        clear_feature_caches()  # neither path inherits a warm token cache
        timings: dict[str, float] = {}
        started = time.perf_counter()
        matrices[engine] = transform(gen, ds.left, ds.right, pairs, timings=timings)
        seconds = time.perf_counter() - started
        per_family = defaultdict(float)
        for name, sec in timings.items():
            per_family[family[name]] += sec
        results[engine] = {"seconds": seconds, "families": dict(per_family)}
    # the two paths must agree — a fast wrong answer is no answer
    X_batch, X_ref = matrices["batch"], matrices["per-pair"]
    assert np.array_equal(np.isnan(X_batch), np.isnan(X_ref))
    assert np.allclose(np.nan_to_num(X_batch), np.nan_to_num(X_ref), rtol=1e-9, atol=1e-12)
    return gen, results


def test_batch_vs_per_pair_featurization(benchmark, capfd):
    def run():
        report = []
        for name, scale, extra in WORKLOADS:
            ds, pairs = _workload_pairs(name, scale, extra)
            gen, results = _run_engines(ds, pairs)
            batch, ref = results["batch"], results["per-pair"]
            families = sorted(set(batch["families"]) | set(ref["families"]))
            report.append(
                bench_workload(
                    name,
                    "batch",
                    batch["seconds"],
                    baseline_engine="per-pair",
                    baseline_seconds=ref["seconds"],
                    scale=scale,
                    n_pairs=len(pairs),
                    n_features=len(gen.feature_names_),
                    pairs_per_sec=round(len(pairs) / max(batch["seconds"], 1e-9)),
                    baseline_pairs_per_sec=round(len(pairs) / max(ref["seconds"], 1e-9)),
                    families={
                        fam: {
                            "seconds": round(batch["families"].get(fam, 0.0), 4),
                            "baseline_seconds": round(ref["families"].get(fam, 0.0), 4),
                            "speedup": round(
                                ref["families"].get(fam, 0.0)
                                / max(batch["families"].get(fam, 0.0), 1e-9),
                                2,
                            ),
                        }
                        for fam in families
                    },
                )
            )
        return report

    report = one_shot(benchmark, run)

    rows = [
        {
            "dataset": f"{w['dataset']}/{w['scale']}",
            "pairs": w["n_pairs"],
            "features": w["n_features"],
            "per_pair_sec": w["baseline_seconds"],
            "batch_sec": w["seconds"],
            "pairs/sec": w["pairs_per_sec"],
            "speedup": w["speedup"],
        }
        for w in report
    ]
    emit(capfd, "")
    emit(capfd, format_table(
        rows,
        ["dataset", "pairs", "features", "per_pair_sec", "batch_sec", "pairs/sec", "speedup"],
        title="Featurization: columnar batch engine vs per-pair reference",
    ))
    family_rows = [
        {
            "dataset": w["dataset"],
            "family": fam,
            "per_pair_sec": stats["baseline_seconds"],
            "batch_sec": stats["seconds"],
            "speedup": stats["speedup"],
        }
        for w in report
        for fam, stats in w["families"].items()
    ]
    emit(capfd, format_table(
        family_rows,
        ["dataset", "family", "per_pair_sec", "batch_sec", "speedup"],
        title="Per-feature-family breakdown",
    ))

    emit(capfd, report_note(write_bench_report("featurization", report, meta={"seed": SEED})))
    if SMOKE:  # tiny pair sets: the speedup floors do not apply
        return

    primary = report[0]
    assert primary["n_pairs"] >= 50_000, "primary workload must cover >= 50k pairs"
    assert primary["speedup"] > 1.0, primary
    token = primary["families"]["token"]
    assert token["speedup"] >= TOKEN_SPEEDUP_FLOOR, (
        f"token-feature speedup {token['speedup']}x below the "
        f"{TOKEN_SPEEDUP_FLOOR}x acceptance bar"
    )
