"""Versioned, serializable pipeline specifications.

A :class:`PipelineSpec` is a declarative description of an
:class:`~repro.api.pipeline.ERPipeline`: a dataclass tree with one sub-spec
per concern (blocking / features / model / output) that round-trips through
plain dicts and JSON::

    spec = PipelineSpec(blocking=BlockingSpec("token_overlap",
                                              {"attribute": "name", "top_k": 60}))
    spec.save("spec.json")
    pipeline = PipelineSpec.load("spec.json").build()

Validation is eager and loud: unknown keys, unknown types, and out-of-range
values all raise :class:`SpecError` at parse time, not at run time. A spec
built from the same parameters as a code-built pipeline produces a pipeline
with identical behavior (same candidate pairs, same scores).

Specs are also the provenance format: :meth:`ERPipeline.freeze` embeds the
capturing spec into frozen incremental artifacts, and the CLI accepts
``--spec spec.json`` (see ``python -m repro spec init``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.pipeline import ERPipeline
from repro.blocking.base import Blocker, build_blocker
from repro.core.config import ZeroERConfig
from repro.features.generator import validate_feature_engine
from repro.features.types import AttributeType

__all__ = [
    "SPEC_VERSION",
    "SpecError",
    "BlockingSpec",
    "FeatureSpec",
    "ModelSpec",
    "OutputSpec",
    "TelemetrySpec",
    "ServeSpec",
    "ShardSpec",
    "PipelineSpec",
]

#: Bump when the spec schema changes incompatibly.
SPEC_VERSION = 1


class SpecError(ValueError):
    """Raised when a pipeline spec is malformed: unknown keys or types,
    out-of-range values, or a version this build cannot read."""


def _require_keys(data: dict, known: tuple, context: str) -> None:
    if not isinstance(data, dict):
        raise SpecError(f"{context} spec must be a dict, got {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SpecError(f"unknown key(s) {unknown} in {context} spec")


@dataclass(frozen=True)
class BlockingSpec:
    """Declarative blocker: a registered ``type`` plus its constructor options.

    ``type`` is one of :func:`repro.blocking.blocker_types` (e.g.
    ``"token_overlap"``); ``options`` holds that blocker's parameters as a
    JSON-serializable dict. Validation builds the blocker once eagerly, so a
    bad option fails at construction time.
    """

    type: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            self.build()
        except SpecError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise SpecError(f"invalid blocking spec: {exc}") from exc

    def build(self) -> Blocker:
        """Construct the described blocker."""
        return build_blocker({"type": self.type, **self.options})

    def to_dict(self) -> dict:
        """The JSON-serializable form: ``type`` plus the flattened options."""
        return {"type": self.type, **self.options}

    @classmethod
    def from_dict(cls, data: dict) -> "BlockingSpec":
        """Validate a ``blocking`` payload into a :class:`BlockingSpec`."""
        if not isinstance(data, dict):
            raise SpecError(f"blocking spec must be a dict, got {type(data).__name__}")
        if "type" not in data:
            raise SpecError("blocking spec is missing the 'type' key")
        options = {key: value for key, value in data.items() if key != "type"}
        return cls(type=data["type"], options=options)

    @classmethod
    def from_blocker(cls, blocker: Blocker) -> "BlockingSpec":
        """Capture an existing blocker instance declaratively.

        Raises :class:`SpecError` for blockers that cannot be serialized
        (custom classes, callable-configured blockers, custom tokenizers).
        """
        try:
            return cls.from_dict(blocker.to_spec())
        except TypeError as exc:
            raise SpecError(str(exc)) from exc


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative featurization: engine choice plus attribute-type pins."""

    #: ``"batch"`` (columnar kernels) or ``"per-pair"`` (reference loop).
    engine: str = "batch"
    #: ``{attribute: AttributeType value string}`` type-inference overrides.
    type_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            validate_feature_engine(self.engine)
        except ValueError as exc:
            raise SpecError(f"feature {exc}") from exc
        if not isinstance(self.type_overrides, dict):
            raise SpecError("type_overrides must be a dict of attribute -> type name")
        for attribute, type_name in self.type_overrides.items():
            try:
                AttributeType(type_name)
            except ValueError:
                valid = [t.value for t in AttributeType]
                raise SpecError(
                    f"unknown attribute type {type_name!r} for {attribute!r}; "
                    f"valid types: {valid}"
                ) from None

    def build_overrides(self) -> dict | None:
        """The overrides as ``{attribute: AttributeType}`` (``None`` if empty)."""
        if not self.type_overrides:
            return None
        return {a: AttributeType(v) for a, v in self.type_overrides.items()}

    def to_dict(self) -> dict:
        """The JSON-serializable form of this features section."""
        return {"engine": self.engine, "type_overrides": dict(self.type_overrides)}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSpec":
        """Validate a ``features`` payload into a :class:`FeatureSpec`."""
        _require_keys(data, ("engine", "type_overrides"), "features")
        overrides = data.get("type_overrides") or {}
        if not isinstance(overrides, dict):
            raise SpecError(
                "type_overrides must be a dict of attribute -> type name, "
                f"got {type(overrides).__name__}"
            )
        return cls(
            engine=data.get("engine", "batch"),
            type_overrides=dict(overrides),
        )


@dataclass(frozen=True)
class ModelSpec:
    """Declarative matcher: the ZeroER config plus pipeline-level model knobs."""

    config: ZeroERConfig = field(default_factory=ZeroERConfig)
    #: Per-anchor cap for the linkage transitivity co-candidate sets.
    co_candidate_cap: int = 10
    #: Wall-clock budget (seconds) for the EM fit; ``None`` (default) means
    #: unbounded. On exhaustion EM returns best-so-far parameters with
    #: ``converged=False`` and an ``em_time_budget_exhausted`` health flag.
    time_budget_s: float | None = None

    def __post_init__(self):
        if not isinstance(self.config, ZeroERConfig):
            raise SpecError(
                f"config must be a ZeroERConfig, got {type(self.config).__name__}"
            )
        if not isinstance(self.co_candidate_cap, int) or self.co_candidate_cap < 1:
            raise SpecError(
                f"co_candidate_cap must be an int >= 1, got {self.co_candidate_cap!r}"
            )
        if self.time_budget_s is not None:
            if (
                not isinstance(self.time_budget_s, (int, float))
                or isinstance(self.time_budget_s, bool)
                or self.time_budget_s < 0
            ):
                raise SpecError(
                    f"time_budget_s must be a number >= 0 or null, got "
                    f"{self.time_budget_s!r}"
                )

    def to_dict(self) -> dict:
        """The JSON-serializable form of this model section."""
        return {
            "config": self.config.to_dict(),
            "co_candidate_cap": self.co_candidate_cap,
            "time_budget_s": self.time_budget_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        """Validate a ``model`` payload into a :class:`ModelSpec`."""
        _require_keys(data, ("config", "co_candidate_cap", "time_budget_s"), "model")
        try:
            config = ZeroERConfig.from_dict(data.get("config") or {})
        except (ValueError, TypeError) as exc:
            raise SpecError(f"invalid model config: {exc}") from exc
        return cls(
            config=config,
            co_candidate_cap=data.get("co_candidate_cap", 10),
            time_budget_s=data.get("time_budget_s"),
        )


@dataclass(frozen=True)
class OutputSpec:
    """Declarative output handling: match threshold and assignment shape."""

    #: Match-probability threshold (pairs strictly above it are matches).
    threshold: float = 0.5
    #: Post-process into a greedy one-to-one assignment (linkage mode).
    one_to_one: bool = False

    def __post_init__(self):
        if not isinstance(self.threshold, (int, float)) or isinstance(self.threshold, bool):
            raise SpecError(f"threshold must be a number, got {self.threshold!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise SpecError(f"threshold must be in [0, 1], got {self.threshold}")
        if not isinstance(self.one_to_one, bool):
            raise SpecError(f"one_to_one must be a bool, got {self.one_to_one!r}")

    def to_dict(self) -> dict:
        """The JSON-serializable form of this output section."""
        return {"threshold": self.threshold, "one_to_one": self.one_to_one}

    @classmethod
    def from_dict(cls, data: dict) -> "OutputSpec":
        """Validate an ``output`` payload into an :class:`OutputSpec`."""
        _require_keys(data, ("threshold", "one_to_one"), "output")
        return cls(
            threshold=data.get("threshold", 0.5),
            one_to_one=data.get("one_to_one", False),
        )


@dataclass(frozen=True)
class TelemetrySpec:
    """Declarative telemetry: which span sink (if any) a run should feed.

    ``sink`` is one of :data:`repro.obs.SINK_NAMES` (``"none"``, the
    default, keeps telemetry fully disabled — the no-op fast path).
    ``path`` is the output file for the ``"jsonl"`` sink and is invalid
    for any other sink.
    """

    sink: str = "none"
    path: str | None = None

    def __post_init__(self):
        from repro.obs import SINK_NAMES

        if self.sink not in SINK_NAMES:
            raise SpecError(
                f"telemetry sink must be one of {SINK_NAMES}, got {self.sink!r}"
            )
        if self.sink == "jsonl" and not self.path:
            raise SpecError("telemetry sink 'jsonl' needs a 'path'")
        if self.sink != "jsonl" and self.path is not None:
            raise SpecError(
                f"telemetry 'path' only applies to the 'jsonl' sink, not {self.sink!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this spec asks for any telemetry at all."""
        return self.sink != "none"

    def apply(self):
        """Configure the process-wide telemetry sink as described.

        Returns the configured sink (``None`` for ``"none"``), as
        :func:`repro.obs.configure_telemetry` does.
        """
        from repro.obs import configure_telemetry

        return configure_telemetry(self.sink, path=self.path)

    def to_dict(self) -> dict:
        """The JSON-serializable form of this telemetry section."""
        return {"sink": self.sink, "path": self.path}

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySpec":
        """Validate a ``telemetry`` payload into a :class:`TelemetrySpec`."""
        _require_keys(data, ("sink", "path"), "telemetry")
        return cls(sink=data.get("sink", "none"), path=data.get("path"))


@dataclass(frozen=True)
class ServeSpec:
    """Declarative serving configuration for ``python -m repro serve``.

    Embedded (optionally) as the ``serve`` section of a
    :class:`PipelineSpec`, so frozen artifacts can carry their preferred
    serving posture; CLI flags override any field at launch.
    """

    #: Interface to bind (loopback by default — put a proxy in front for
    #: anything external).
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (tests and benchmarks).
    port: int = 8707
    #: Record budget per micro-batch handed to the columnar engine.
    max_batch: int = 64
    #: Milliseconds the first queued request waits for co-batchable
    #: traffic; ``0`` coalesces only already-queued requests.
    max_wait_ms: float = 10.0
    #: Admission bound on ``/resolve`` requests waiting to be batched;
    #: submissions beyond it are shed with 503 + ``Retry-After``.
    max_queue: int = 256
    #: Admission bound on total records admitted but not yet answered.
    max_inflight_records: int = 8192
    #: Default per-request budget in milliseconds (``0`` disables);
    #: clients override per request via ``X-Request-Deadline-Ms``.
    default_deadline_ms: float = 0.0
    #: Seconds a graceful drain (SIGTERM / ``POST /admin/drain``) may
    #: spend finishing in-flight work before forcing shutdown.
    drain_timeout_s: float = 10.0
    #: Per-connection ``/resolve`` rate limit in requests/second
    #: (token bucket, 429 when exceeded; ``0`` disables).
    conn_rate_limit: float = 0.0

    def __post_init__(self):
        if not isinstance(self.host, str) or not self.host:
            raise SpecError(f"host must be a non-empty string, got {self.host!r}")
        if not isinstance(self.port, int) or isinstance(self.port, bool):
            raise SpecError(f"port must be an int, got {self.port!r}")
        if not 0 <= self.port <= 65535:
            raise SpecError(f"port must be in [0, 65535], got {self.port}")
        for name in ("max_batch", "max_queue", "max_inflight_records"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise SpecError(f"{name} must be >= 1, got {value}")
        for name in (
            "max_wait_ms",
            "default_deadline_ms",
            "drain_timeout_s",
            "conn_rate_limit",
        ):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                raise SpecError(f"{name} must be a number >= 0, got {value!r}")

    def replace(self, **changes) -> "ServeSpec":
        """A copy with the given fields replaced (CLI-flag overrides)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """The JSON-serializable form of this serve section."""
        return {
            "host": self.host,
            "port": self.port,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_queue": self.max_queue,
            "max_inflight_records": self.max_inflight_records,
            "default_deadline_ms": self.default_deadline_ms,
            "drain_timeout_s": self.drain_timeout_s,
            "conn_rate_limit": self.conn_rate_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSpec":
        """Validate a ``serve`` payload into a :class:`ServeSpec`."""
        _require_keys(
            data,
            (
                "host",
                "port",
                "max_batch",
                "max_wait_ms",
                "max_queue",
                "max_inflight_records",
                "default_deadline_ms",
                "drain_timeout_s",
                "conn_rate_limit",
            ),
            "serve",
        )
        return cls(
            host=data.get("host", "127.0.0.1"),
            port=data.get("port", 8707),
            max_batch=data.get("max_batch", 64),
            max_wait_ms=data.get("max_wait_ms", 10.0),
            max_queue=data.get("max_queue", 256),
            max_inflight_records=data.get("max_inflight_records", 8192),
            default_deadline_ms=data.get("default_deadline_ms", 0.0),
            drain_timeout_s=data.get("drain_timeout_s", 10.0),
            conn_rate_limit=data.get("conn_rate_limit", 0.0),
        )


@dataclass(frozen=True)
class ShardSpec:
    """Declarative sharding for ``python -m repro fit`` / ``freeze()``.

    Embedded (optionally) as the ``shard`` section of a
    :class:`PipelineSpec`. ``shards`` partitions the entity store and
    token index across that many hash shards (see :mod:`repro.shard`),
    with ``workers`` featurization processes per resolve and an optional
    in-process ``load_budget_mb`` for memory-mapped shard bases.
    CLI flags override any field at fit time.
    """

    #: Number of hash shards for the store and index (1..64).
    shards: int = 1
    #: Featurization worker processes per resolve batch (1 = in-process).
    workers: int = 1
    #: Soft cap in MiB on concurrently mapped shard bases after a reload;
    #: ``None`` disables eviction.
    load_budget_mb: float | None = None

    def __post_init__(self):
        from repro.shard import MAX_SHARDS
        from repro.shard.pool import MAX_WORKERS

        for name, value, cap in (
            ("shards", self.shards, MAX_SHARDS),
            ("workers", self.workers, MAX_WORKERS),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(f"{name} must be an int, got {value!r}")
            if not 1 <= value <= cap:
                raise SpecError(f"{name} must be in [1, {cap}], got {value}")
        if self.load_budget_mb is not None:
            if (
                not isinstance(self.load_budget_mb, (int, float))
                or isinstance(self.load_budget_mb, bool)
                or self.load_budget_mb <= 0
            ):
                raise SpecError(
                    f"load_budget_mb must be a number > 0 or null, "
                    f"got {self.load_budget_mb!r}"
                )

    def replace(self, **changes) -> "ShardSpec":
        """A copy with the given fields replaced (CLI-flag overrides)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """The JSON-serializable form of this shard section."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "load_budget_mb": self.load_budget_mb,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        """Validate a ``shard`` payload into a :class:`ShardSpec`."""
        _require_keys(data, ("shards", "workers", "load_budget_mb"), "shard")
        return cls(
            shards=data.get("shards", 1),
            workers=data.get("workers", 1),
            load_budget_mb=data.get("load_budget_mb"),
        )


@dataclass(frozen=True)
class PipelineSpec:
    """The full declarative pipeline: blocking + features + model + output."""

    blocking: BlockingSpec
    features: FeatureSpec = field(default_factory=FeatureSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    output: OutputSpec = field(default_factory=OutputSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    #: Optional serving posture (``None`` — the common case for specs that
    #: never get served — serializes as an absent ``serve`` section).
    serve: ServeSpec | None = None
    #: Optional sharding posture for freeze/fit (``None`` — one shard, one
    #: worker — serializes as an absent ``shard`` section).
    shard: ShardSpec | None = None
    version: int = SPEC_VERSION

    def __post_init__(self):
        if self.version != SPEC_VERSION:
            raise SpecError(
                f"spec version {self.version!r} is not supported "
                f"(this build reads version {SPEC_VERSION})"
            )
        for name, expected in (
            ("blocking", BlockingSpec),
            ("features", FeatureSpec),
            ("model", ModelSpec),
            ("output", OutputSpec),
            ("telemetry", TelemetrySpec),
        ):
            value = getattr(self, name)
            if not isinstance(value, expected):
                raise SpecError(
                    f"{name} must be a {expected.__name__}, got {type(value).__name__}"
                )
        if self.serve is not None and not isinstance(self.serve, ServeSpec):
            raise SpecError(
                f"serve must be a ServeSpec or None, got {type(self.serve).__name__}"
            )
        if self.shard is not None and not isinstance(self.shard, ShardSpec):
            raise SpecError(
                f"shard must be a ShardSpec or None, got {type(self.shard).__name__}"
            )

    # -- construction ------------------------------------------------------------

    def build(self) -> ERPipeline:
        """Construct the described :class:`~repro.api.pipeline.ERPipeline`.

        When the spec carries an enabled telemetry sub-spec, the
        process-wide sink is configured here (``sink="none"``, the default,
        leaves any existing configuration untouched).
        """
        if self.telemetry.enabled:
            self.telemetry.apply()
        fit_controls = None
        if self.model.time_budget_s is not None:
            from repro.reliability.checkpoint import FitControls

            fit_controls = FitControls(time_budget_s=float(self.model.time_budget_s))
        return ERPipeline(
            blocker=self.blocking.build(),
            config=self.model.config,
            co_candidate_cap=self.model.co_candidate_cap,
            feature_engine=self.features.engine,
            type_overrides=self.features.build_overrides(),
            fit_controls=fit_controls,
        )

    @classmethod
    def from_pipeline(
        cls,
        pipeline: ERPipeline,
        threshold: float | None = None,
        one_to_one: bool = False,
    ) -> "PipelineSpec":
        """Capture an existing pipeline declaratively (for provenance).

        Raises :class:`SpecError` when the pipeline cannot be described
        (custom blocker class, non-serializable tokenizer, ...). ``threshold``
        and ``one_to_one`` fill the output sub-spec, which the pipeline
        object itself does not carry.
        """
        overrides = pipeline.type_overrides or {}
        controls = getattr(pipeline, "fit_controls", None)
        return cls(
            blocking=BlockingSpec.from_blocker(pipeline.blocker),
            features=FeatureSpec(
                engine=pipeline.feature_engine,
                type_overrides={a: t.value for a, t in overrides.items()},
            ),
            model=ModelSpec(
                config=pipeline.config,
                co_candidate_cap=pipeline.co_candidate_cap,
                time_budget_s=controls.time_budget_s if controls is not None else None,
            ),
            output=OutputSpec(
                threshold=0.5 if threshold is None else threshold, one_to_one=one_to_one
            ),
        )

    def replace(self, **changes) -> "PipelineSpec":
        """A copy with the given sub-specs replaced."""
        return dataclasses.replace(self, **changes)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """The full JSON document (the ``serve`` key only when configured)."""
        out = {
            "version": self.version,
            "blocking": self.blocking.to_dict(),
            "features": self.features.to_dict(),
            "model": self.model.to_dict(),
            "output": self.output.to_dict(),
            "telemetry": self.telemetry.to_dict(),
        }
        if self.serve is not None:
            out["serve"] = self.serve.to_dict()
        if self.shard is not None:
            out["shard"] = self.shard.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        """Validate a full spec document; every section validates eagerly."""
        _require_keys(
            data,
            (
                "version",
                "blocking",
                "features",
                "model",
                "output",
                "telemetry",
                "serve",
                "shard",
            ),
            "pipeline",
        )
        if "blocking" not in data:
            raise SpecError("pipeline spec is missing the 'blocking' section")
        version = data.get("version", SPEC_VERSION)
        if not isinstance(version, int):
            raise SpecError(f"version must be an int, got {version!r}")
        serve_payload = data.get("serve")
        shard_payload = data.get("shard")
        return cls(
            blocking=BlockingSpec.from_dict(data["blocking"]),
            features=FeatureSpec.from_dict(data.get("features") or {}),
            model=ModelSpec.from_dict(data.get("model") or {}),
            output=OutputSpec.from_dict(data.get("output") or {}),
            telemetry=TelemetrySpec.from_dict(data.get("telemetry") or {}),
            serve=None if serve_payload is None else ServeSpec.from_dict(serve_payload),
            shard=None if shard_payload is None else ShardSpec.from_dict(shard_payload),
            version=version,
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Parse and validate a JSON spec document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        """Write the spec as JSON to ``path``."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PipelineSpec":
        """Read a spec saved with :meth:`save` (or hand-written JSON)."""
        path = Path(path)
        if not path.is_file():
            raise SpecError(f"spec file not found: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))
