"""Shared experiment harness.

Everything the examples and benchmarks need to run a paper experiment:
per-dataset blocking recipes, cached dataset preparation (generate → block →
featurize, including the within-table candidate sets used by the
record-linkage transitivity coupling), ZeroER and baseline runners, and an
ASCII table printer for benchmark output.

Preparation results are cached per ``(name, scale, seed)`` within the
process so that running every benchmark in one pytest session featurizes
each dataset once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.blocking import TokenOverlapBlocker, UnionBlocker, candidate_statistics
from repro.core import ZeroER, ZeroERConfig, ZeroERLinkage
from repro.data import ERDataset, load_benchmark
from repro.eval.metrics import precision_recall_f1
from repro.features import FeatureGenerator
from repro.obs import span

__all__ = [
    "PreparedDataset",
    "prepare_dataset",
    "clear_prepared_cache",
    "run_zeroer",
    "zeroer_f1",
    "format_table",
    "bench_scale",
]


def bench_scale() -> str:
    """Scale used by benchmarks (``REPRO_SCALE`` env var, default small)."""
    return os.environ.get("REPRO_SCALE", "small")


# -- per-dataset blocking recipes ---------------------------------------------

#: (attribute, cross-table min_overlap, cross top_k, co-candidate cap)
_BLOCKING = {
    "rest_fz": ("name", 1, 60, 10),
    "pub_da": ("title", 2, 60, 10),
    "pub_ds": ("title", 2, 40, 24),
    "mv_ri": ("title", 1, 60, 10),
    "prod_ab": ("name", 1, 80, 10),
    "prod_ag": ("title", 1, 80, 10),
}

#: Secondary blocking attribute, unioned in to recover matches whose primary
#: attribute was too corrupted (None = primary only).
_SECONDARY = {
    "rest_fz": "phone",
    "pub_da": "authors",
    "pub_ds": "authors",
    "mv_ri": None,
    "prod_ab": None,
    "prod_ag": None,
}


def blocker_for(name: str) -> TokenOverlapBlocker | UnionBlocker:
    """The cross-table blocking recipe used by all experiments for one dataset."""
    attr, cross_ov, cross_k, _cap = _BLOCKING[name]
    primary = TokenOverlapBlocker(attr, min_overlap=cross_ov, top_k=cross_k)
    secondary_attr = _SECONDARY[name]
    if secondary_attr is None:
        return primary
    secondary = TokenOverlapBlocker(secondary_attr, min_overlap=2, top_k=20)
    return UnionBlocker([primary, secondary])


def co_candidate_pairs(
    cross_pairs: list[tuple], side: int, cap: int = 8
) -> list[tuple]:
    """Within-table candidate pairs from cross-candidate co-occurrence.

    Two right records that are both cross-candidates of the same left record
    (``side=1``) — or symmetrically two left records sharing a right
    candidate (``side=0``) — form a within-table candidate. This is exactly
    the set of closing pairs the transitivity calibrator (§5) can ever
    query, so the within-table models Fl/Fr see every triangle that
    matters. ``cap`` bounds the per-anchor fan-out (candidates are already
    ranked by blocking overlap, so the cap keeps the strongest ones).
    """
    from collections import defaultdict

    anchor = 1 - side
    grouped: dict = defaultdict(list)
    for pair in cross_pairs:
        grouped[pair[anchor]].append(pair[side])
    out: list[tuple] = []
    seen: set[tuple] = set()
    for members in grouped.values():
        members = members[:cap]
        order = [repr(m) for m in members]  # ids may mix types: order by repr
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                key = (a, b) if order[i] <= order[j] else (b, a)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return out


# -- prepared dataset ----------------------------------------------------------


@dataclass
class PreparedDataset:
    """A benchmark dataset after blocking and featurization."""

    dataset: ERDataset
    pairs: list[tuple]
    X: np.ndarray                      # raw (unnormalized) cross features
    y: np.ndarray                      # gold 0/1 labels for ``pairs``
    feature_groups: list[list[int]]
    feature_names: list[str]
    generator: FeatureGenerator
    blocking: dict
    left_pairs: list[tuple] = field(default_factory=list)
    X_left: np.ndarray | None = None
    right_pairs: list[tuple] = field(default_factory=list)
    X_right: np.ndarray | None = None
    prepare_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.dataset.name

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


_PREPARED_CACHE: dict[tuple, PreparedDataset] = {}


def clear_prepared_cache() -> None:
    """Drop all cached prepared datasets (used by tests)."""
    _PREPARED_CACHE.clear()


def prepare_dataset(
    name: str,
    scale: str | None = None,
    seed: int = 0,
    with_within: bool = True,
) -> PreparedDataset:
    """Generate, block, and featurize one benchmark (cached per process).

    ``with_within`` also builds the within-table candidate sets + features
    needed by :class:`~repro.core.linkage.ZeroERLinkage`'s transitivity
    coupling; preparation without them is cheaper but only supports
    transitivity-free models.
    """
    scale = scale or bench_scale()
    key = (name, scale, seed, with_within)
    if key in _PREPARED_CACHE:
        return _PREPARED_CACHE[key]
    # A with-within preparation can serve a without-within request.
    full_key = (name, scale, seed, True)
    if not with_within and full_key in _PREPARED_CACHE:
        return _PREPARED_CACHE[full_key]

    with span("harness.prepare", dataset=name, scale=scale, seed=seed) as sp:
        dataset = load_benchmark(name, scale=scale, seed=seed)
        pairs = blocker_for(name).block(dataset.left, dataset.right)
        generator = FeatureGenerator().fit(dataset.left, dataset.right, dataset.attributes)
        X = generator.transform(dataset.left, dataset.right, pairs)
        y = dataset.labels_for(pairs)
        blocking = candidate_statistics(
            pairs, dataset.matches, len(dataset.left), len(dataset.right)
        )

        left_pairs: list[tuple] = []
        right_pairs: list[tuple] = []
        X_left = X_right = None
        if with_within:
            cap = _BLOCKING[name][3]
            left_pairs = co_candidate_pairs(pairs, side=0, cap=cap)
            right_pairs = co_candidate_pairs(pairs, side=1, cap=cap)
            X_left = generator.transform(dataset.left, None, left_pairs) if left_pairs else None
            X_right = (
                generator.transform(dataset.right, None, right_pairs) if right_pairs else None
            )
            if X_left is None:
                left_pairs = []
            if X_right is None:
                right_pairs = []
        sp.set(n_pairs=len(pairs))

    prepared = PreparedDataset(
        dataset=dataset,
        pairs=pairs,
        X=X,
        y=y,
        feature_groups=generator.feature_groups_,
        feature_names=generator.feature_names_,
        generator=generator,
        blocking=blocking,
        left_pairs=left_pairs,
        X_left=X_left,
        right_pairs=right_pairs,
        X_right=X_right,
        prepare_seconds=sp.seconds,
    )
    _PREPARED_CACHE[key] = prepared
    return prepared


# -- model runners ---------------------------------------------------------------


def run_zeroer(prep: PreparedDataset, config: ZeroERConfig | None = None) -> dict:
    """Fit ZeroER on a prepared dataset and return metrics.

    With ``config.transitivity`` on, the record-linkage trainer (three
    coupled models, §5) is used; otherwise the plain single model.
    """
    config = config or ZeroERConfig()
    with span(
        "harness.run_zeroer", dataset=prep.name, transitivity=config.transitivity
    ) as sp:
        if config.transitivity:
            model = ZeroERLinkage(config)
            model.fit(
                prep.X,
                prep.pairs,
                feature_groups=prep.feature_groups,
                X_left=prep.X_left,
                left_pairs=prep.left_pairs if prep.X_left is not None else None,
                X_right=prep.X_right,
                right_pairs=prep.right_pairs if prep.X_right is not None else None,
            )
        else:
            model = ZeroER(config)
            model.fit(prep.X, feature_groups=prep.feature_groups)
        labels = model.labels_
        precision, recall, f1 = precision_recall_f1(prep.y, labels)
        sp.set(f1=f1, n_iterations=model.history_.n_iterations)
    return {
        "dataset": prep.name,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_pairs": prep.n_pairs,
        "n_iterations": model.history_.n_iterations,
        "converged": model.history_.converged,
        "seconds": sp.seconds,
        "scores": model.match_scores_,
        "labels": labels,
    }


def zeroer_f1(prep: PreparedDataset, config: ZeroERConfig | None = None) -> float:
    """F1 of one ZeroER fit (0.0 if EM cannot run, matching §7.4's failures)."""
    from repro.core.exceptions import ZeroERError

    try:
        return run_zeroer(prep, config)["f1"]
    except ZeroERError:
        return 0.0


# -- output formatting ---------------------------------------------------------------


def format_table(rows: list[dict], columns: list[str], title: str | None = None) -> str:
    """Fixed-width ASCII table (benchmarks print these next to paper tables)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".") if value == value else "nan"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(columns[j]), max((len(r[j]) for r in table), default=0))
        for j in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(columns[j].ljust(widths[j]) for j in range(len(columns)))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in table:
        lines.append(" | ".join(r[j].ljust(widths[j]) for j in range(len(columns))))
    return "\n".join(lines)
