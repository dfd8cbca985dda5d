"""Incremental resolution: fit once, resolve forever.

The batch pipeline re-blocks, re-featurizes, and re-fits EM on every run —
fine for reproducing the paper's tables, unusable for serving arriving
records. This package turns a fitted pipeline into an updatable system:

* :mod:`repro.incremental.artifacts` — save/load frozen model artifacts
  (JSON manifest + ``.npz`` arrays, versioned schema, bit-identical
  ``predict_proba`` after round-trip);
* :mod:`repro.incremental.resolver` — the
  :class:`~repro.incremental.resolver.IncrementalResolver` serving loop:
  retrieve candidates, featurize only the new pairs, score with the frozen
  model, merge matches.

The resolver runs on the token index and entity store of
:mod:`repro.shard` (:class:`~repro.shard.index.ShardedTokenIndex`, an
inverted index that grows one record at a time and retrieves candidates
with the batch blocker's exact ranking semantics, and
:class:`~repro.shard.store.ShardedEntityStore`, resolved records plus a
union-find cluster registry with stable entity ids), which also supply
its persistence format: columnar shard containers published beside the
model artifacts.

The common entry points are :meth:`repro.api.pipeline.ERPipeline.freeze` and the
``python -m repro fit`` / ``python -m repro resolve`` CLI subcommands.
"""

from repro.incremental.artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    load_artifacts,
    save_artifacts,
)
from repro.incremental.resolver import IncrementalResolver, ResolveResult

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactError",
    "save_artifacts",
    "load_artifacts",
    "IncrementalResolver",
    "ResolveResult",
]
