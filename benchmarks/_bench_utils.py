"""Shared benchmark utilities: paper reference numbers and method runners.

Every benchmark prints our measured numbers side by side with the values the
paper reports, so each gap to the paper can be read straight off the bench
output. Absolute equality is not the goal (our substrate is a synthetic
generator, not the original corpora); the *shape* — orderings, collapses,
crossovers — is what each bench checks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.baselines import (
    ECMClassifier,
    GaussianMixtureMatcher,
    KMeansMatcher,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    oversample_minority,
    train_test_split,
)
from repro.eval import f_score
from repro.eval.harness import PreparedDataset
from repro.features.normalize import MinMaxNormalizer, impute_nan

DATASET_ORDER = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")

#: Paper Table 1 (dataset characteristics at paper scale).
PAPER_TABLE1 = {
    "rest_fz": {"tuples": "533 - 331", "matches": 112, "attrs": 7},
    "pub_da": {"tuples": "2,616 - 2,294", "matches": 2224, "attrs": 4},
    "pub_ds": {"tuples": "2,616 - 64,263", "matches": 5347, "attrs": 4},
    "mv_ri": {"tuples": "558 - 556", "matches": 190, "attrs": 8},
    "prod_ab": {"tuples": "1,082 - 1,093", "matches": 1098, "attrs": 3},
    "prod_ag": {"tuples": "1,363 - 3,226", "matches": 1300, "attrs": 4},
}

#: Paper Table 2 (F-scores of all methods).
PAPER_TABLE2 = {
    "rest_fz": {"ZeroER": 1.00, "ECM": 0.07, "KM-RL": 0.30, "KM-SK": 0.30, "GMM": 0.30,
                "RF": 0.97, "LR": 0.98, "MLP": 0.99},
    "pub_da": {"ZeroER": 0.95, "ECM": 0.09, "KM-RL": 0.95, "KM-SK": 0.27, "GMM": 0.53,
               "RF": 0.98, "LR": 0.96, "MLP": 0.97},
    "pub_ds": {"ZeroER": 0.85, "ECM": 0.07, "KM-RL": 0.85, "KM-SK": 0.43, "GMM": 0.28,
               "RF": 0.93, "LR": 0.88, "MLP": 0.92},
    "mv_ri": {"ZeroER": 0.85, "ECM": 0.56, "KM-RL": 0.81, "KM-SK": 0.81, "GMM": 0.81,
              "RF": 0.83, "LR": 0.81, "MLP": 0.79},
    "prod_ab": {"ZeroER": 0.40, "ECM": 0.01, "KM-RL": 0.01, "KM-SK": 0.02, "GMM": 0.02,
                "RF": 0.46, "LR": 0.18, "MLP": 0.32},
    "prod_ag": {"ZeroER": 0.40, "ECM": 0.01, "KM-RL": 0.02, "KM-SK": 0.02, "GMM": 0.02,
                "RF": 0.51, "LR": 0.18, "MLP": 0.35},
}

#: Paper Table 3 (labels needed to match ZeroER, per supervised method).
PAPER_TABLE3 = {
    "rest_fz": {"LR": ("100%", 2915), "RF": ("100%", 2915), "MLP": ("100%", 2915)},
    "pub_da": {"LR": ("0.9%", 418), "RF": ("0.5%", 232), "MLP": ("0.9%", 417)},
    "pub_ds": {"LR": ("0.9%", 418), "RF": ("0.5%", 232), "MLP": ("0.2%", 270)},
    "mv_ri": {"LR": ("100%", 214), "RF": ("100%", 214), "MLP": ("100%", 214)},
    "prod_ab": {"LR": ("100%", 162981), "RF": ("2.6%", 4248), "MLP": ("75%", 123054)},
    "prod_ag": {"LR": ("100%", 358281), "RF": ("2.12%", 7589), "MLP": ("0.8%", 2864)},
}

#: Paper Table 4 (ablation F-scores), keyed dataset -> variant -> F1.
PAPER_TABLE4 = {
    "rest_fz": {"Full": 0.94, "Independent": 1.00, "Grouped": 0.94, "F-Tik": 0.98,
                "I-Tik": 0.96, "G-Tik": 0.98, "F-Adp": 0.56, "I-Adp": 0.91,
                "G-Adp": 0.97, "G+A+P": 0.98, "G+A+P+T": 1.00},
    "pub_da": {"Full": 0.27, "Independent": 0.81, "Grouped": 0.27, "F-Tik": 0.57,
               "I-Tik": 0.63, "G-Tik": 0.59, "F-Adp": 0.63, "I-Adp": 0.71,
               "G-Adp": 0.95, "G+A+P": 0.96, "G+A+P+T": 0.95},
    "pub_ds": {"Full": 0.27, "Independent": 0.28, "Grouped": 0.00, "F-Tik": 0.73,
               "I-Tik": 0.72, "G-Tik": 0.74, "F-Adp": 0.73, "I-Adp": 0.70,
               "G-Adp": 0.73, "G+A+P": 0.78, "G+A+P+T": 0.85},
    "mv_ri": {"Full": 0.69, "Independent": 0.68, "Grouped": 0.69, "F-Tik": 0.81,
              "I-Tik": 0.80, "G-Tik": 0.81, "F-Adp": 0.81, "I-Adp": 0.83,
              "G-Adp": 0.82, "G+A+P": 0.82, "G+A+P+T": 0.85},
    "prod_ab": {"Full": 0.05, "Independent": 0.01, "Grouped": 0.00, "F-Tik": 0.00,
                "I-Tik": 0.03, "G-Tik": 0.00, "F-Adp": 0.20, "I-Adp": 0.16,
                "G-Adp": 0.20, "G+A+P": 0.27, "G+A+P+T": 0.40},
    "prod_ag": {"Full": 0.03, "Independent": 0.03, "Grouped": 0.03, "F-Tik": 0.00,
                "I-Tik": 0.00, "G-Tik": 0.00, "F-Adp": 0.28, "I-Adp": 0.22,
                "G-Adp": 0.28, "G+A+P": 0.35, "G+A+P+T": 0.40},
}

#: Training-row cap for supervised fits (keeps the bench suite laptop-fast).
MAX_TRAIN_ROWS = 16000


def preprocessed(prep: PreparedDataset) -> np.ndarray:
    """Scaled + imputed feature matrix shared by all baseline fits."""
    return impute_nan(MinMaxNormalizer().fit_transform(prep.X))


def make_supervised(method: str, seed: int):
    """Paper §7.1 baselines with bench-speed settings.

    Fewer trees and epochs than a tuned fit, and at most
    :data:`MAX_TRAIN_ROWS` training rows, so the Table 2 and 3 benches stay
    minutes long; no measurement compares them with tuned settings.
    """
    if method == "LR":
        return LogisticRegression(l2=1.0)
    if method == "RF":
        return RandomForestClassifier(n_estimators=40, min_samples_leaf=2, random_state=seed)
    if method == "MLP":
        return MLPClassifier(
            hidden=(50, 10), l2=1e-4, batch_size=256, max_epochs=80, patience=8,
            random_state=seed,
        )
    raise ValueError(f"unknown supervised method {method!r}")


def run_supervised(
    prep: PreparedDataset,
    method: str,
    n_repeats: int = 3,
    seed: int = 0,
    X: np.ndarray | None = None,
) -> float:
    """Mean F1 over repeated 50/50 splits with oversampled matches."""
    if X is None:
        X = preprocessed(prep)
    y = prep.y
    scores = []
    for repeat in range(n_repeats):
        rep_seed = seed + repeat
        train_idx, test_idx = train_test_split(len(y), 0.5, random_state=rep_seed)
        X_train, y_train = oversample_minority(X[train_idx], y[train_idx], random_state=rep_seed)
        if len(y_train) > MAX_TRAIN_ROWS:
            rng = np.random.default_rng(rep_seed)
            keep = rng.choice(len(y_train), MAX_TRAIN_ROWS, replace=False)
            X_train, y_train = X_train[keep], y_train[keep]
        if len(np.unique(y_train)) < 2:
            scores.append(0.0)
            continue
        model = make_supervised(method, rep_seed)
        model.fit(X_train, y_train)
        scores.append(f_score(y[test_idx], model.predict(X[test_idx])))
    return float(np.mean(scores))


def run_unsupervised(prep: PreparedDataset, method: str, seed: int = 0,
                     X: np.ndarray | None = None) -> float:
    """F1 of one unsupervised baseline fitted on the whole candidate set."""
    if X is None:
        X = preprocessed(prep)
    if method == "KM-SK":
        pred = KMeansMatcher("sk", random_state=seed).fit_predict(X)
    elif method == "KM-RL":
        pred = KMeansMatcher("rl", match_weight=4.0, random_state=seed).fit_predict(X)
    elif method == "GMM":
        pred = GaussianMixtureMatcher(random_state=seed).fit_predict(X)
    elif method == "ECM":
        pred = ECMClassifier().fit_predict(X)
    else:
        raise ValueError(f"unknown unsupervised method {method!r}")
    return f_score(prep.y, pred)


def one_shot(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


#: Shared envelope schema for every ``BENCH_*.json`` file.
BENCH_SCHEMA = "repro-bench/1"


def bench_workload(
    dataset: str,
    engine: str,
    seconds: float,
    baseline_engine: str | None = None,
    baseline_seconds: float | None = None,
    speedup: float | None = None,
    **extras,
) -> dict:
    """One workload row of the shared ``repro-bench/1`` schema.

    ``dataset`` / ``engine`` / ``seconds`` / ``speedup`` are the required
    columns every bench reports; the measured engine's baseline (the
    reference it is compared against) rides along as ``baseline_engine`` /
    ``baseline_seconds``, and bench-specific columns go in ``extras``.
    ``speedup`` is derived from the baseline when not given explicitly.
    """
    if speedup is None:
        if baseline_seconds is None:
            raise ValueError("bench_workload needs a speedup or baseline_seconds")
        speedup = baseline_seconds / max(seconds, 1e-9)
    row = {
        "dataset": dataset,
        "engine": engine,
        "seconds": round(float(seconds), 4),
        "speedup": round(float(speedup), 2),
    }
    if baseline_engine is not None:
        row["baseline_engine"] = baseline_engine
    if baseline_seconds is not None:
        row["baseline_seconds"] = round(float(baseline_seconds), 4)
    row.update(extras)
    return row


def validate_bench_report(doc: dict) -> None:
    """Structural check of a ``repro-bench/1`` document; raises ``ValueError``."""
    problems = []
    if not isinstance(doc, dict):
        raise ValueError(f"bench report must be a dict, got {type(doc).__name__}")
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    for key in ("tool_version", "benchmark"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            problems.append(f"{key} must be a non-empty string")
    if not isinstance(doc.get("meta"), dict):
        problems.append("meta must be a dict")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        problems.append("workloads must be a non-empty list")
        workloads = []
    for i, row in enumerate(workloads):
        if not isinstance(row, dict):
            problems.append(f"workloads[{i}] must be a dict")
            continue
        for key in ("dataset", "engine"):
            if not isinstance(row.get(key), str) or not row.get(key):
                problems.append(f"workloads[{i}].{key} must be a non-empty string")
        for key in ("seconds", "speedup"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                problems.append(f"workloads[{i}].{key} must be a non-negative number")
    if problems:
        raise ValueError("invalid bench report: " + "; ".join(problems))


def write_bench_report(name: str, workloads: list, meta: dict | None = None) -> Path | None:
    """Write ``BENCH_<name>.json`` next to the benchmarks.

    Machine-readable companion to the printed tables: benches that feed
    dashboards or regression tracking dump their measured rows here so the
    numbers survive the terminal session. All benches share the
    ``repro-bench/1`` envelope (validated before writing): tool version,
    benchmark name, workload rows built by :func:`bench_workload`, and a
    free-form ``meta`` dict (seed, scale, ...).

    A smoke run (``REPRO_BENCH_SMOKE``) or a capped one
    (``REPRO_BENCH_MAX_SCALE``) validates the report but writes nothing and
    returns ``None``: its numbers are not the checked-in ones, so it must
    not overwrite them.
    """
    from repro import __version__

    doc = {
        "schema": BENCH_SCHEMA,
        "tool_version": __version__,
        "benchmark": name,
        "workloads": list(workloads),
        "meta": dict(meta or {}),
    }
    validate_bench_report(doc)
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    if smoke or os.environ.get("REPRO_BENCH_MAX_SCALE"):
        return None
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def report_note(path: Path | None) -> str:
    """The line a bench prints after :func:`write_bench_report`."""
    if path is None:
        return "smoke or capped run: report not written"
    return f"report written to {path}"


def emit(capfd, text: str) -> None:
    """Print a report table to the real terminal, bypassing pytest capture.

    (An autouse ``capfd.disabled`` fixture does not survive into the test
    call phase on current pytest, so benches call this explicitly.)
    """
    with capfd.disabled():
        print(text)
