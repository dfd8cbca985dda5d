"""Data substrate: tables, I/O, corruption models, and benchmark generators.

The paper evaluates on six public benchmark datasets. No network access is
available in this environment, so :mod:`repro.data.benchmarks` provides
seeded synthetic generators that reproduce each dataset's scale, schema, and
difficulty profile (docs/architecture.md, "Implementation choices", gives
the substitution argument).
"""

from repro.data.table import Table
from repro.data.benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkSpec,
    ERDataset,
    dataset_statistics,
    load_benchmark,
)

__all__ = [
    "Table",
    "ERDataset",
    "BenchmarkSpec",
    "BENCHMARK_NAMES",
    "load_benchmark",
    "dataset_statistics",
]
