"""Resolution-as-a-service: an async HTTP layer over frozen artifacts.

This package turns a saved :class:`~repro.incremental.resolver.IncrementalResolver`
artifact into a long-running service — stdlib asyncio only, no web
framework. ``python -m repro serve --artifacts DIR`` is the front door;
the pieces compose as::

    http.serve_connection          transport: HTTP/1.1 parse + respond
      └─ handlers.Router           routes, metrics, error envelope
           ├─ batcher.MicroBatcher coalesce /resolve traffic, single writer
           │    └─ state.ServingState.execute_batch   one engine pass
           └─ state.ServingState   resolver + version + health

Guarantees the tests pin down: concurrent resolves are micro-batched into
single columnar engine passes; store mutation is single-writer with
consistent :meth:`~repro.shard.store.ShardedEntityStore.snapshot` reads;
``SIGHUP`` / ``POST /admin/reload`` hot-swaps the artifact's ``CURRENT``
version with zero failed in-flight requests; overload sheds with typed
503/429/504 responses instead of queueing unboundedly, and ``SIGTERM`` /
``POST /admin/drain`` drains gracefully — every admitted request gets an
answer, then the process exits.

See ``docs/serving.md`` for the deployment and overload/shutdown runbooks.
"""

from repro.serve.app import BackgroundServer, ServeApp, run_serve
from repro.serve.batcher import (
    BatcherClosed,
    DeadlineExpired,
    MicroBatcher,
    Overloaded,
)
from repro.serve.protocol import ProtocolError, ResolveRequest, ShedError
from repro.serve.state import ServingState

__all__ = [
    "ServeApp",
    "BackgroundServer",
    "run_serve",
    "MicroBatcher",
    "Overloaded",
    "DeadlineExpired",
    "BatcherClosed",
    "ServingState",
    "ProtocolError",
    "ShedError",
    "ResolveRequest",
]
