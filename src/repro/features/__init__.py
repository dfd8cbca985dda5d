"""Automatic similarity-feature generation (Magellan-style).

Given two tables with aligned attributes, this package infers a type for
each attribute, selects a set of similarity functions per type, and produces
the ``N × d`` feature matrix for a candidate pair set — **together with the
feature-group partition** (which features came from which attribute) that
ZeroER's grouped covariance relies on (paper §2.1, §3.2).
"""

from repro.features.types import AttributeType, infer_attribute_type
from repro.features.generator import (
    FeatureGenerator,
    PairFeature,
    clear_feature_caches,
    configure_jw_cache,
    jw_cache_info,
)
from repro.features.normalize import MinMaxNormalizer, impute_nan

__all__ = [
    "AttributeType",
    "infer_attribute_type",
    "FeatureGenerator",
    "PairFeature",
    "MinMaxNormalizer",
    "impute_nan",
    "configure_jw_cache",
    "clear_feature_caches",
    "jw_cache_info",
]
