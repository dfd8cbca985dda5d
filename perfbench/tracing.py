"""Span tracing installed from the benchmark's own files.

The benchmark never edits the program to trace it. :meth:`Tracer.install` wraps the
public functions each layer exposes (see :data:`TARGETS`) in place, and the
index and store classes of every resolver the program builds (see
:data:`ENGINE`), so every call records one :class:`Span`: its name, layer,
start, end, the enclosing span on the same thread, and a request key joining
server spans to the client requests that caused them. Spans stay in memory
until the run ends.

Clocks are ``time.monotonic()``, which on Linux is the same clock in every
process, so the client and the server process share one timeline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

#: ``(layer, module, "Class.method" or "function")`` for every traced call.
#: A layer is named after the module that owns it; ``shard``, ``obs`` and
#: ``data`` are left out on purpose (off the default path, or input-only).
TARGETS = (
    ("api", "repro.api.pipeline", "ERPipeline.run"),
    ("blocking", "repro.blocking.overlap", "TokenOverlapBlocker.block"),
    ("blocking", "repro.blocking.compose", "UnionBlocker.block"),
    ("features", "repro.features.generator", "FeatureGenerator.fit"),
    ("features", "repro.features.generator", "FeatureGenerator.transform"),
    ("core.em", "repro.core.em", "EMRunner.e_step"),
    ("core.em", "repro.core.em", "EMRunner.m_step"),
    ("core.transitivity", "repro.core.transitivity", "DedupTransitivityCalibrator.calibrate"),
    ("core.transitivity", "repro.core.transitivity", "LinkageTransitivityCalibrator.calibrate"),
    ("core.model", "repro.core.model", "ZeroER.predict_proba"),
    ("core.model", "repro.core.linkage", "ZeroERLinkage.predict_proba"),
    ("incremental.resolver", "repro.incremental.resolver", "IncrementalResolver.resolve"),
    ("incremental.resolver", "repro.incremental.resolver", "IncrementalResolver.save"),
    ("incremental.resolver", "repro.incremental.resolver", "IncrementalResolver.load"),
    ("incremental.artifacts", "repro.incremental.artifacts", "save_artifacts"),
    ("incremental.artifacts", "repro.incremental.artifacts", "load_artifacts"),
    ("serve.http", "repro.serve.handlers", "Router.dispatch"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.submit"),
    ("serve.state", "repro.serve.state", "ServingState.execute_batch"),
)

#: ``(layer, resolver attribute, methods)``: the engine a resolver runs on.
#: Whatever classes a resolver's ``index`` and ``store`` are when it is
#: built (by ``freeze``, ``load`` or the service), their methods are wrapped
#: then, so a change of default engine is traced without an edit. Spans are
#: named ``<attribute>.<method>``; a method the class lacks is skipped.
ENGINE = (
    ("incremental.index", "index", ("candidates", "add")),
    ("incremental.store", "store", ("add", "merge", "snapshot", "to_state", "from_state")),
)

#: Calls whose nested traced calls are not recorded: rebuilding a store
#: re-adds every record, and 100k child spans would only measure the tracer.
OPAQUE = frozenset({"store.from_state"})


@dataclass
class Span:
    """One traced call."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    #: Record ids or lookup path of the client request this call served.
    key: str | None = None
    #: Work counted at the call: ``n`` items in, ``out`` items returned.
    n: int | None = None
    out: int | None = None
    children: list = field(default_factory=list, repr=False, compare=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _length(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


def _work_counts(name: str, args: tuple, result) -> tuple[int | None, int | None]:
    """Items handed to the call and items it produced, where they exist."""
    if name == "FeatureGenerator.transform":
        return _length(args[3]) if len(args) > 3 else None, None
    if name.endswith("Calibrator.calibrate"):
        return None, result if isinstance(result, int) else None
    if name == "ServingState.execute_batch":
        return _length(args[1]), None
    return None, _length(result) if name.endswith(("block", "candidates")) else None


def _request_key(name: str, args: tuple) -> str | None:
    """The client-visible key of a serving call (record ids or lookup path)."""
    if name == "Router.dispatch":
        request = args[1]
        if request.path.startswith("/lookup/"):
            return request.path
        try:
            records = json.loads(request.body or b"{}").get("records", [])
            return "resolve:" + ",".join(str(r.get("id")) for r in records)
        except (ValueError, AttributeError):
            return None
    if name == "MicroBatcher.submit":
        return "resolve:" + ",".join(str(r) for r in args[1].record_ids)
    if name == "ServingState.execute_batch":
        return "resolve:" + ",".join(str(r) for req in args[1] for r in req.record_ids)
    return None


class Tracer:
    """In-memory span recorder; :meth:`install` wraps :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        #: Targets that no longer exist in the program (they fail the run).
        self.missing: list[str] = []
        #: ``module.Class`` of every engine class wrapped by :meth:`adopt`.
        self.engine: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, name, layer, start, end, parent, args, result) -> None:
        n, out = _work_counts(name, args, result)
        key = _request_key(name, args)
        self.spans.append(Span(span_id, name, layer, start, end, parent, key, n, out))

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            # coroutines interleave on one thread, so they take no part in
            # the per-thread parent stack
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                start = time.monotonic()
                result = await fn(*args, **kwargs)
                end = time.monotonic()
                tracer._record(next(tracer._ids), name, layer, start, end, None, args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not tracer.enabled or (stack and stack[-1][1] in OPAQUE):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            tracer._record(span_id, name, layer, start, end, parent, args, result)
            return result

        traced.traced_as = name
        return traced

    def _wrap_method(self, owner: type, method: str, layer: str, name: str) -> None:
        raw = inspect.getattr_static(owner, method)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, "traced_as"):  # inherited from a class wrapped already
            return
        wrapped = self._wrap(layer, name, fn)
        setattr(owner, method, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def install(self) -> "Tracer":
        """Wrap every target that exists; record the ones that do not."""
        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in owner.__dict__:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._wrap_method(owner, method, layer, attr)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(layer, attr, original)
            # a module function is also bound by name wherever it was
            # imported with ``from ... import``; rebind every such copy
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapped)
        self._hook_resolvers()
        return self

    def _hook_resolvers(self) -> None:
        """Call :meth:`adopt` on every resolver as its constructor returns."""
        try:
            from repro.incremental.resolver import IncrementalResolver
        except ImportError:
            self.missing.append("repro.incremental.resolver.IncrementalResolver.__init__")
            return
        init, tracer = IncrementalResolver.__init__, self

        @functools.wraps(init)
        def init_and_adopt(resolver, *args, **kwargs):
            init(resolver, *args, **kwargs)
            tracer.adopt(resolver)

        IncrementalResolver.__init__ = init_and_adopt

    def adopt(self, resolver) -> None:
        """Wrap the :data:`ENGINE` methods of ``resolver``'s index and store classes."""
        for layer, attr, methods in ENGINE:
            owner = type(getattr(resolver, attr))
            qualified = f"{owner.__module__}.{owner.__qualname__}"
            if qualified in self.engine:
                continue
            self.engine.append(qualified)
            for method in methods:
                if hasattr(owner, method):
                    self._wrap_method(owner, method, layer, f"{attr}.{method}")


def _span_dict(span: Span) -> dict:
    data = asdict(span)
    data.pop("children")
    return data


def dump_spans(spans: list[Span], path) -> None:
    """Write spans as JSON (written once, when the run or server ends)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([_span_dict(s) for s in spans], fh)


def load_spans(path) -> list[Span]:
    """Read spans written by :func:`dump_spans`."""
    with open(path, encoding="utf-8") as fh:
        return [Span(**data) for data in json.load(fh)]


def link(spans: list[Span]) -> dict[int, Span]:
    """Index spans by id and attach each to its parent's ``children``."""
    by_id = {s.id: s for s in spans}
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            by_id[s.parent].children.append(s)
    return by_id


def self_seconds(span: Span) -> float:
    """Span time minus the part of it its child spans cover."""
    covered, reach = 0.0, span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Calls and self seconds per layer (the traced run's layer summary)."""
    link(spans)
    totals: dict[str, dict] = {}
    for s in spans:
        entry = totals.setdefault(s.layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_seconds(s)
    return totals


def _median(values) -> float:
    return _percentile(values, 50)


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics that come from spans: self time, counts, waits.

    Seconds are self time (a span minus its traced children), so the layers
    of one call tree add up to the call's wall time.
    """
    by_id = link(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def of(*names, under=None):
        found = [s for n in names for s in named.get(n, ())]
        return [s for s in found if under is None or has_ancestor(s, by_id, under)]

    def busy(*names, under=None) -> float:
        return sum(self_seconds(s) for s in of(*names, under=under))

    blocks = [s for s in spans if s.layer == "blocking"]
    outermost_blocks = [
        s for s in blocks if s.parent is None or by_id[s.parent].layer != "blocking"
    ]
    calibrations = of(
        "DedupTransitivityCalibrator.calibrate", "LinkageTransitivityCalibrator.calibrate"
    )
    transforms = of("FeatureGenerator.transform")
    probes = of("index.candidates")
    executes = of("ServingState.execute_batch")
    execute_of = {
        rid: s for s in executes for rid in (s.key or "").removeprefix("resolve:").split(",")
    }
    waits = []
    for submit in of("MicroBatcher.submit"):
        rid = (submit.key or "").removeprefix("resolve:").split(",")[0]
        if rid in execute_of:
            waits.append((submit.seconds - execute_of[rid].seconds) * 1000.0)
    return {
        "api.self_s": busy("ERPipeline.run"),
        "blocking.busy_s": sum(self_seconds(s) for s in blocks),
        "blocking.pairs": sum(s.out or 0 for s in outermost_blocks),
        "features.fit_s": busy("FeatureGenerator.fit"),
        "features.transform_s": busy("FeatureGenerator.transform"),
        "features.pairs": sum(s.n or 0 for s in transforms),
        "core.em.e_step_s": busy("EMRunner.e_step"),
        "core.em.m_step_s": busy("EMRunner.m_step"),
        "core.em.iterations": len(of("EMRunner.e_step")),
        "core.transitivity.calibrate_s": sum(self_seconds(s) for s in calibrations),
        "core.transitivity.adjusted": sum(s.out or 0 for s in calibrations),
        "core.model.predict_s": busy("ZeroER.predict_proba", "ZeroERLinkage.predict_proba"),
        "incremental.index.probe_s": sum(self_seconds(s) for s in probes),
        "incremental.index.probes": len(probes),
        "incremental.index.pairs": sum(s.out or 0 for s in probes),
        "incremental.index.add_s": busy("index.add", under="IncrementalResolver.resolve"),
        "incremental.index.reindex_s": busy("index.add", under="IncrementalResolver.load"),
        "incremental.store.add_s": busy("store.add"),
        "incremental.store.merge_s": busy("store.merge"),
        "incremental.store.merges": len(of("store.merge")),
        "incremental.store.to_state_s": busy("store.to_state"),
        "incremental.store.from_state_s": busy("store.from_state"),
        "incremental.store.snapshot_p50_ms": _median(
            [s.seconds * 1000.0 for s in of("store.snapshot")]
        ),
        "incremental.store.snapshots": len(of("store.snapshot")),
        "incremental.resolver.self_s": busy("IncrementalResolver.resolve"),
        "incremental.artifacts.write_s": busy("save_artifacts"),
        "incremental.artifacts.read_s": busy("load_artifacts"),
        "serve.batcher.wait_p50_ms": _median(waits),
        "serve.batcher.wait_p95_ms": _percentile(waits, 95),
        "serve.batcher.batches": len(executes),
        "serve.batcher.requests_per_batch": (
            sum(s.n or 0 for s in executes) / len(executes) if executes else 0.0
        ),
        "serve.state.execute_p50_ms": _median([s.seconds * 1000.0 for s in executes]),
        "trace.spans": len(spans),
    }
