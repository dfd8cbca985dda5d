"""Blocking: cheap candidate-pair generation before matching.

The paper treats blocking as an orthogonal, already-done step (§2.1) and
evaluates all matchers on the retained candidate set Cs. This package
provides the standard blocker families needed to *produce* such candidate
sets for the generated benchmarks: attribute equivalence, token/q-gram
overlap with document-frequency pruning and per-record top-k capping,
sorted neighborhood, and union composition.
"""

from repro.blocking.base import (
    Blocker,
    as_pair_set,
    blocker_types,
    build_blocker,
    candidate_recall,
    candidate_statistics,
)
from repro.blocking.attr_equivalence import AttributeEquivalenceBlocker
from repro.blocking.batch import TokenEncoding, sparse_overlap_pairs, sparse_overlap_select
from repro.blocking.overlap import TokenOverlapBlocker
from repro.blocking.qgram import QgramBlocker
from repro.blocking.sorted_neighborhood import SortedNeighborhoodBlocker
from repro.blocking.compose import UnionBlocker

__all__ = [
    "Blocker",
    "AttributeEquivalenceBlocker",
    "TokenOverlapBlocker",
    "TokenEncoding",
    "QgramBlocker",
    "SortedNeighborhoodBlocker",
    "UnionBlocker",
    "as_pair_set",
    "blocker_types",
    "build_blocker",
    "candidate_recall",
    "candidate_statistics",
    "sparse_overlap_pairs",
    "sparse_overlap_select",
]
