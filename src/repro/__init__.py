"""repro — a full reproduction of *ZeroER: Entity Resolution using Zero
Labeled Examples* (SIGMOD 2020).

The curated top-level facade covers the common workflows::

    import repro

    # one call: tables in, scored matches out
    result = repro.resolve(left, right, blocking_attribute="name")

    # staged: inspect and re-run individual stages
    session = repro.ERPipeline(blocking_attribute="name").session(left, right)
    matches = session.block().featurize().match()
    matches = session.match(kappa=0.4)          # re-match only, cached features

    # declarative: a serializable spec drives the same pipeline
    result = repro.resolve(left, right, spec="spec.json")

Lower-level pieces remain importable from their subpackages:
:mod:`repro.core` (the generative model), :mod:`repro.text` (similarity
functions), :mod:`repro.features` (Magellan-style feature generation),
:mod:`repro.blocking`, :mod:`repro.data` (tables + benchmark generators),
:mod:`repro.baselines`, :mod:`repro.eval` (metrics + experiment harness),
:mod:`repro.incremental` (frozen-model artifacts + streaming resolution),
:mod:`repro.shard` (the token index and entity store streaming resolution
runs on),
:mod:`repro.serve` (the async HTTP serving layer over frozen artifacts),
and :mod:`repro.api` (the pipeline/session/spec layer re-exported here).
"""

from repro.api import (
    SPEC_VERSION,
    BlockingSpec,
    CandidateSet,
    ERPipeline,
    ERResult,
    FeatureMatrix,
    FeatureSpec,
    MatchSet,
    ModelSpec,
    OutputSpec,
    PipelineSpec,
    ResolutionSession,
    ServeSpec,
    ShardSpec,
    SpecError,
    TelemetrySpec,
    configure_telemetry,
    load_spec,
    resolve,
    telemetry_active,
)
from repro.core import (
    EMFailureError,
    InitializationError,
    ZeroER,
    ZeroERConfig,
    ZeroERError,
    ZeroERLinkage,
    ablation_variants,
)
from repro.data import ERDataset, Table, load_benchmark
from repro.features import FeatureGenerator
from repro.incremental import IncrementalResolver, load_artifacts, save_artifacts
from repro.shard import ShardedEntityStore, ShardedTokenIndex

__version__ = "1.1.0"

__all__ = [
    # the model family
    "ZeroER",
    "ZeroERLinkage",
    "ZeroERConfig",
    "ablation_variants",
    "ZeroERError",
    "InitializationError",
    "EMFailureError",
    # data + features
    "FeatureGenerator",
    "Table",
    "ERDataset",
    "load_benchmark",
    # the resolution API
    "resolve",
    "load_spec",
    "ERPipeline",
    "ERResult",
    "ResolutionSession",
    "CandidateSet",
    "FeatureMatrix",
    "MatchSet",
    "PipelineSpec",
    "BlockingSpec",
    "FeatureSpec",
    "ModelSpec",
    "OutputSpec",
    "TelemetrySpec",
    "ServeSpec",
    "ShardSpec",
    "SpecError",
    "SPEC_VERSION",
    # observability
    "configure_telemetry",
    "telemetry_active",
    # incremental resolution
    "IncrementalResolver",
    "ShardedEntityStore",
    "ShardedTokenIndex",
    "save_artifacts",
    "load_artifacts",
    "__version__",
]
