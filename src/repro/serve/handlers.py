"""Endpoint handlers and the request router.

:class:`Router` maps ``(method, path)`` onto handler coroutines, wraps
every request in a telemetry span plus always-on service metrics, and
converts :class:`~repro.serve.protocol.ProtocolError` (and anything
unexpected) into the uniform JSON error envelope. Handlers return
``(status, body_dict)``; dispatch annotates the body with
``server_time_ms``, attaches shed headers (``Retry-After``), and hands a
``(status, body, headers)`` triple to the transport in
:mod:`repro.serve.http`.

Overload policy lives at this layer: ``/resolve`` traffic passes
per-connection rate limiting (429), the draining gate (503), the request
deadline parser (504 once expired in queue), and the batcher's admission
control (503 + ``Retry-After``) — each shed is typed, counted in
``serve.shed_total`` / ``serve.shed.<reason>``, and answered, never
silently dropped. Read-only endpoints (``/healthz``, ``/metrics``,
``/lookup``) bypass all of it so the service stays observable while
shedding or draining.

Endpoints
---------
``POST /resolve``
    Ingest records through the micro-batcher (see
    :mod:`repro.serve.batcher`).
``GET /lookup/{id}``
    Entity membership by entity id *or* record id, from a store snapshot.
``GET /explain?left=&right=``
    Per-attribute-group log-odds decomposition of a stored pair.
``GET /healthz``
    Liveness + the service-lifetime health report (503 when degraded to
    error severity or draining).
``GET /metrics``
    The serving :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
``POST /admin/reload``
    Zero-downtime swap to the artifact root's current version.
``POST /admin/save``
    Persist the live store/index as a new artifact version.
``POST /admin/drain``
    Begin graceful drain: shed new resolves, finish in-flight work,
    close connections (same path as SIGTERM).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

from repro.obs import span
from repro.serve.batcher import (
    BatcherClosed,
    DeadlineExpired,
    MicroBatcher,
    Overloaded,
)
from repro.serve.protocol import (
    ExplainQuery,
    ProtocolError,
    ShedError,
    error_body,
    explain_response,
    parse_deadline_ms,
    parse_resolve_request,
    resolve_response,
)
from repro.serve.state import ServingState

__all__ = ["Router"]

#: Latency histogram bin edges, in milliseconds.
LATENCY_EDGES_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
#: Batch-size histogram bin edges (requests or records per executed batch).
BATCH_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: ``Retry-After`` hint (seconds) attached to overload sheds.
RETRY_AFTER_S = 1


class Router:
    """Dispatch parsed HTTP requests to endpoint handlers.

    Parameters
    ----------
    state:
        The loaded :class:`~repro.serve.state.ServingState`.
    batcher:
        The started :class:`~repro.serve.batcher.MicroBatcher` all
        ``/resolve`` traffic and admin mutations go through.
    metrics:
        The serving-process :class:`~repro.obs.metrics.MetricsRegistry`
        surfaced by ``GET /metrics``.
    config:
        The effective :class:`~repro.api.spec.ServeSpec` (deadline default,
        per-connection rate limit). ``None`` uses the spec defaults.
    on_drain:
        Callable invoked by ``POST /admin/drain`` to begin graceful drain
        (:meth:`~repro.serve.app.ServeApp.begin_drain`); returns a status
        dict. ``None`` answers the endpoint with 501.
    """

    def __init__(
        self,
        state: ServingState,
        batcher: MicroBatcher,
        metrics,
        config=None,
        on_drain=None,
    ):
        self.state = state
        self.batcher = batcher
        self.metrics = metrics
        self.config = config
        self.on_drain = on_drain

    def observe_batch(self, n_requests: int, n_records: int) -> None:
        """Record one executed micro-batch (the batcher's ``on_batch`` hook)."""
        self.metrics.counter_add("serve.batches")
        self.metrics.histogram_observe(
            "serve.batch.requests", n_requests, edges=BATCH_EDGES
        )
        self.metrics.histogram_observe(
            "serve.batch.records", n_records, edges=BATCH_EDGES
        )

    def _shed(self, exc: ShedError) -> None:
        """Count one typed shed in the overload metrics."""
        self.metrics.counter_add("serve.shed_total")
        self.metrics.counter_add(f"serve.shed.{exc.reason}")

    # -- dispatch ----------------------------------------------------------------

    async def dispatch(self, request) -> tuple[int, dict, dict | None]:
        """Route one request; always returns ``(status, body, headers)``."""
        route, handler = self._route(request)
        headers: dict | None = None
        t0 = time.perf_counter()
        with span("serve.request", method=request.method, path=request.path) as sp:
            try:
                if handler is None:
                    raise ProtocolError(*route)
                status, body = await handler(request)
            except ShedError as exc:
                status, body = exc.status, error_body(exc.status, str(exc))
                body["reason"] = exc.reason
                if exc.retry_after is not None:
                    headers = {"Retry-After": f"{exc.retry_after:g}"}
                self._shed(exc)
            except ProtocolError as exc:
                status, body = exc.status, error_body(exc.status, str(exc))
            except Exception as exc:  # noqa: BLE001 - the envelope must hold
                status = 500
                body = error_body(500, f"internal error: {type(exc).__name__}: {exc}")
            sp.set(status=status)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        body["server_time_ms"] = round(elapsed_ms, 3)
        name = handler.__name__.removeprefix("_handle_") if handler else "unrouted"
        self.metrics.counter_add("serve.requests")
        self.metrics.counter_add(f"serve.requests.{name}")
        self.metrics.counter_add(f"serve.status.{status}")
        if status >= 500:
            self.metrics.counter_add("serve.errors")
        self.metrics.histogram_observe(
            "serve.latency_ms", elapsed_ms, edges=LATENCY_EDGES_MS
        )
        self.metrics.gauge_set("serve.queue_depth", self.batcher.queue_depth)
        return status, body, headers

    def _route(self, request):
        """Resolve a request to a handler, or an error ``(status, message)``."""
        path, method = request.path.rstrip("/") or "/", request.method
        exact = {
            "/": {"GET": self._handle_root},
            "/resolve": {"POST": self._handle_resolve},
            "/explain": {"GET": self._handle_explain},
            "/healthz": {"GET": self._handle_healthz},
            "/metrics": {"GET": self._handle_metrics},
            "/admin/reload": {"POST": self._handle_reload},
            "/admin/save": {"POST": self._handle_save},
            "/admin/drain": {"POST": self._handle_drain},
        }
        if path in exact:
            handler = exact[path].get(method)
            if handler is None:
                allowed = ", ".join(sorted(exact[path]))
                return (405, f"{method} not allowed on {path} (use {allowed})"), None
            return None, handler
        if path.startswith("/lookup/"):
            if method != "GET":
                return (405, f"{method} not allowed on /lookup/{{id}} (use GET)"), None
            return None, self._handle_lookup
        return (404, f"no route for {path}"), None

    # -- overload gates ----------------------------------------------------------

    def _check_rate_limit(self, request) -> None:
        """Token-bucket per-connection rate limit on ``/resolve`` (429).

        The bucket lives on the request's
        :class:`~repro.serve.http.ConnectionInfo`, holds ``conn_rate_limit``
        tokens (one second of burst) and refills at ``conn_rate_limit``
        tokens/second. Requests without a connection (direct-dispatch unit
        tests) are exempt, as is a disabled (``0``) limit.
        """
        rate = float(getattr(self.config, "conn_rate_limit", 0.0) or 0.0)
        conn = request.conn
        if rate <= 0 or conn is None:
            return
        now = asyncio.get_running_loop().time()
        if conn.rate_tokens is None:
            conn.rate_tokens, conn.rate_refilled_at = rate, now
        else:
            conn.rate_tokens = min(
                rate, conn.rate_tokens + (now - conn.rate_refilled_at) * rate
            )
            conn.rate_refilled_at = now
        if conn.rate_tokens < 1.0:
            raise ShedError(
                429,
                f"connection exceeds {rate:g} resolve requests/second",
                reason="rate_limited",
                retry_after=max((1.0 - conn.rate_tokens) / rate, 0.05),
            )
        conn.rate_tokens -= 1.0

    def _resolve_deadline(self, request) -> float | None:
        """Absolute ``loop.time()`` expiry for this request, or ``None``."""
        default_ms = float(getattr(self.config, "default_deadline_ms", 0.0) or 0.0)
        budget_ms = parse_deadline_ms(request.headers, default_ms)
        if budget_ms is None:
            return None
        return asyncio.get_running_loop().time() + budget_ms / 1000.0

    # -- endpoints ---------------------------------------------------------------

    async def _handle_root(self, request) -> tuple[int, dict]:
        state = self.state
        return 200, {
            "service": "repro-serve",
            "artifact_version": state.version,
            "endpoints": [
                "POST /resolve",
                "GET /lookup/{id}",
                "GET /explain?left=&right=",
                "GET /healthz",
                "GET /metrics",
                "POST /admin/reload",
                "POST /admin/save",
                "POST /admin/drain",
            ],
        }

    async def _handle_resolve(self, request) -> tuple[int, dict]:
        if self.state.draining:
            raise ShedError(
                503,
                "server is draining and accepts no new resolves",
                reason="draining",
                retry_after=RETRY_AFTER_S,
            )
        self._check_rate_limit(request)
        deadline = self._resolve_deadline(request)
        parsed = parse_resolve_request(
            request.body, self.state.resolver.store.id_attr
        )
        if deadline is not None:
            parsed = dataclasses.replace(parsed, deadline=deadline)
        try:
            outcome = await self.batcher.submit(parsed)
        except Overloaded as exc:
            raise ShedError(
                503, str(exc), reason=exc.reason, retry_after=RETRY_AFTER_S
            ) from exc
        except DeadlineExpired as exc:
            raise ShedError(504, str(exc), reason="deadline") from exc
        except BatcherClosed as exc:
            raise ShedError(
                503, str(exc), reason="draining", retry_after=RETRY_AFTER_S
            ) from exc
        result, batch_info = outcome
        body = resolve_response(parsed, result, batch_info)
        self.metrics.counter_add("serve.resolved.records", len(parsed.records))
        self.metrics.counter_add("serve.resolved.matches", len(body["matches"]))
        self.metrics.gauge_set("serve.store.records", len(self.state.resolver.store))
        self.metrics.gauge_set(
            "serve.store.entities", self.state.resolver.store.n_entities
        )
        return 200, body

    async def _handle_lookup(self, request) -> tuple[int, dict]:
        target = request.path.rstrip("/").removeprefix("/lookup/")
        if not target:
            raise ProtocolError(400, "lookup needs an entity or record id")
        snapshot = self.state.resolver.store.snapshot()
        if target in snapshot.entities:
            entity_id = target
        elif target in snapshot.assignments:
            entity_id = snapshot.assignments[target]
        else:
            raise ProtocolError(404, f"no entity or record with id {target!r}")
        members = list(snapshot.entities[entity_id])
        store = self.state.resolver.store
        return 200, {
            "entity_id": entity_id,
            "members": members,
            "records": [dict(store.get(rid)) for rid in members],
        }

    async def _handle_explain(self, request) -> tuple[int, dict]:
        query = self._parse_explain_query(request.query)
        resolver = self.state.resolver
        if not hasattr(resolver.model, "explain"):
            raise ProtocolError(
                501,
                "explain is only available for dedup (ZeroER) models; "
                "this artifact serves a linkage model",
            )
        store = resolver.store
        for rid in (query.left, query.right):
            if rid not in store:
                raise ProtocolError(404, f"no record with id {rid!r} in the store")
        X = resolver.generator.transform(
            store, None, [(query.left, query.right)], engine=resolver.engine
        )
        explanation = resolver.model.explain(X)[0]
        return 200, explain_response(query, explanation, explanation.posterior)

    @staticmethod
    def _parse_explain_query(query: dict) -> ExplainQuery:
        left, right = query.get("left"), query.get("right")
        if not left or not right:
            raise ProtocolError(
                400, "explain needs both 'left' and 'right' query parameters"
            )
        top_raw = query.get("top", "0")
        try:
            top = int(top_raw)
            if top < 0:
                raise ValueError
        except ValueError as exc:
            raise ProtocolError(
                400, f"'top' must be a non-negative integer, got {top_raw!r}"
            ) from exc
        return ExplainQuery(left=left, right=right, top=top)

    async def _handle_healthz(self, request) -> tuple[int, dict]:
        # deliberately O(1): no store snapshot, no engine access, so this
        # endpoint answers instantly even while the writer thread is deep
        # in a long engine pass
        state = self.state
        resolver = state.resolver
        store = resolver.store
        health = state.health_dict()
        now = time.time()
        if state.draining:
            status = "draining"
        elif health["ok"]:
            status = "ok"
        else:
            status = "error"
        body = {
            "status": status,
            "degraded": health["degraded"],
            "draining": state.draining,
            "artifact_root": str(state.artifacts),
            "artifact_version": state.version,
            "reloads": state.n_reloads,
            "uptime_s": now - state.started_at if state.started_at else 0.0,
            "loaded_for_s": now - state.loaded_at if state.loaded_at else 0.0,
            "store": {
                "records": len(store),
                "entities": store.n_entities,
            },
            "index": {
                "records": len(resolver.index),
                "tokens": resolver.index.n_tokens,
            },
            "batcher": {
                "queue_depth": self.batcher.queue_depth,
                "inflight_records": self.batcher.inflight_records,
                "batches": self.batcher.n_batches,
                "requests": self.batcher.n_requests,
                "expired": self.batcher.n_expired,
            },
            "health": health,
        }
        if state.drain_started_at is not None:
            body["draining_for_s"] = now - state.drain_started_at
        return (200 if status == "ok" else 503), body

    async def _handle_metrics(self, request) -> tuple[int, dict]:
        self._refresh_resource_gauges()
        return 200, {"metrics": self.metrics.snapshot()}

    def _refresh_resource_gauges(self) -> None:
        """Point-in-time process/shard residency gauges, set at scrape time."""
        from repro.obs import process_rss_bytes

        rss = process_rss_bytes()
        if rss is not None:
            self.metrics.gauge_set("process.rss_bytes", rss)
        store = self.state.resolver.store
        stats = store.loader.stats()
        self.metrics.gauge_set("shard.loaded_bytes", stats["loaded_bytes"])
        self.metrics.gauge_set("shard.loaded_shards", stats["loaded_shards"])
        self.metrics.gauge_set("shard.evictions", stats["evictions"])
        for info in store.shard_sizes():
            self.metrics.gauge_set(f"shard.store.records.{info['shard']:04d}", info["records"])

    async def _handle_reload(self, request) -> tuple[int, dict]:
        try:
            info = await self.batcher.run_serialized(self.state.reload)
        except BatcherClosed as exc:
            raise ProtocolError(503, str(exc)) from exc
        self.metrics.counter_add("serve.reloads")
        return 200, {"reloaded": True, **info}

    async def _handle_save(self, request) -> tuple[int, dict]:
        try:
            info = await self.batcher.run_serialized(self.state.save)
        except BatcherClosed as exc:
            raise ProtocolError(503, str(exc)) from exc
        self.metrics.counter_add("serve.saves")
        return 200, {"saved": True, **info}

    async def _handle_drain(self, request) -> tuple[int, dict]:
        if self.on_drain is None:
            raise ProtocolError(501, "this deployment does not expose drain")
        info = self.on_drain()
        return 200, {"draining": True, **info}
