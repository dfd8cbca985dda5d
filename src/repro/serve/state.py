"""Live serving state: the loaded resolver, its artifact version, health.

:class:`ServingState` owns everything the endpoints read: the
:class:`~repro.incremental.resolver.IncrementalResolver` loaded from the
frozen artifact root, the version it came from (the ``CURRENT`` pointer's
target), and the service-lifetime :class:`~repro.reliability.health.HealthReport`
accumulated across every resolve batch and (re)load.

Thread discipline: :meth:`execute_batch`, :meth:`reload`, and :meth:`save`
run only on the batcher's single writer thread, so resolver mutation is
serialized by construction. The resolver *reference* swap in
:meth:`reload` is a single attribute assignment — atomic under the GIL —
so endpoint coroutines reading :attr:`resolver` always see either the old
resolver or the new one, fully loaded.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.incremental.artifacts import CURRENT_NAME, artifact_dir
from repro.incremental.resolver import IncrementalResolver
from repro.reliability.atomic import cleanup_stale_tmp
from repro.reliability.faultinject import trip
from repro.reliability.health import HealthReport, health_scope
from repro.serve.protocol import ProtocolError, ResolveRequest

__all__ = ["ServingState"]


class ServingState:
    """The serving process's view of one artifact root.

    Parameters
    ----------
    artifacts:
        Artifact root directory (versioned ``CURRENT`` layout or legacy
        flat layout), as written by ``python -m repro fit`` /
        :meth:`~repro.incremental.resolver.IncrementalResolver.save`.
    """

    def __init__(self, artifacts: str | Path):
        self.artifacts = Path(artifacts)
        self._resolver: IncrementalResolver | None = None
        #: Name of the loaded version directory (``"v000002"``), or
        #: ``"flat"`` for the legacy single-directory layout.
        self.version: str | None = None
        #: Wall-clock time the process loaded its first resolver.
        self.started_at: float | None = None
        #: Wall-clock time of the most recent (re)load.
        self.loaded_at: float | None = None
        #: Completed reloads since startup.
        self.n_reloads = 0
        #: True once graceful drain has begun: ``/healthz`` reports
        #: ``draining`` (503) and new resolves are shed.
        self.draining = False
        #: Wall-clock time drain began, or ``None``.
        self.drain_started_at: float | None = None
        self._health = HealthReport()
        # health is merged from the writer thread and read (to_dict) from
        # the event loop; HealthReport itself is not thread-safe
        self._health_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def resolver(self) -> IncrementalResolver:
        """The live resolver; raises if :meth:`load` has not run."""
        resolver = self._resolver
        if resolver is None:
            raise RuntimeError("ServingState is not loaded")
        return resolver

    def load(self) -> None:
        """Load the artifact's live version (startup path).

        Raises :class:`~repro.incremental.artifacts.ArtifactError` when the
        root is missing or corrupt — the server refuses to start rather
        than serving nothing. Stale ``.tmp-`` leftovers from crashed saves
        are swept first, so a previous process dying mid-save does not
        accumulate litter under the versioned layout.
        """
        cleanup_stale_tmp(self.artifacts)
        self._resolver = self._load_resolver()
        self.version = self._detect_version()
        now = time.time()
        self.loaded_at = now
        if self.started_at is None:
            self.started_at = now

    def reload(self) -> dict:
        """Swap in the artifact root's current version (writer thread only).

        Loads the new resolver completely before swapping the reference, so
        a failed load (:class:`~repro.incremental.artifacts.ArtifactError`)
        leaves the previous resolver serving untouched. Store/index updates
        accumulated in memory since the artifacts were written are replaced
        by the artifact state — persist them first via :meth:`save` if they
        must survive.
        """
        previous = self.version
        try:
            trip("serve.reload")
            resolver = self._load_resolver()
        except Exception as exc:
            with self._health_lock:
                self._health.record(
                    "serve_reload_failed",
                    f"hot-reload from {self.artifacts} failed: {exc}",
                    severity="error",
                )
            raise ProtocolError(
                503, f"reload failed, previous version still serving: {exc}"
            ) from exc
        self._resolver = resolver
        self.version = self._detect_version()
        self.loaded_at = time.time()
        self.n_reloads += 1
        return {
            "previous_version": previous,
            "version": self.version,
            "store_records": len(resolver.store),
            "store_entities": resolver.store.n_entities,
        }

    def save(self) -> dict:
        """Persist the live store/index as a new artifact version (writer thread).

        Publishes through the versioned ``CURRENT``-pointer layout, so a
        subsequent :meth:`reload` (or a fresh process) starts from exactly
        this state. Sweeps ``.tmp-`` staging leftovers afterwards — a save
        that crashed part-way on a *previous* attempt must not leave litter
        accumulating next to the published versions.
        """
        self.resolver.save(self.artifacts)
        cleanup_stale_tmp(self.artifacts)
        version = self._detect_version()
        return {
            "saved_version": version,
            "store_records": len(self.resolver.store),
            "store_entities": self.resolver.store.n_entities,
        }

    def _load_resolver(self) -> IncrementalResolver:
        with health_scope() as scope:
            resolver = IncrementalResolver.load(self.artifacts)
        if len(scope):
            with self._health_lock:
                self._health.merge(scope)
        return resolver

    def _detect_version(self) -> str:
        live = artifact_dir(self.artifacts)
        return live.name if (self.artifacts / CURRENT_NAME).is_file() else "flat"

    # -- request execution (writer thread) ---------------------------------------

    def execute_batch(self, requests: list[ResolveRequest]) -> list:
        """Resolve a micro-batch of requests in one engine pass.

        Returns one outcome per request, aligned: ``(result, batch_info)``
        for accepted requests (all sharing the merged
        :class:`~repro.incremental.resolver.ResolveResult`), or a
        :class:`~repro.serve.protocol.ProtocolError` for requests refused
        individually. Id conflicts are checked here, on the writer thread,
        against both the store and the records already accepted from
        co-batched requests — so one conflicting request gets its 409
        without failing anyone else's.
        """
        resolver = self.resolver
        outcomes: list = [None] * len(requests)
        accepted: list[int] = []
        accepted_ids: set = set()
        for i, request in enumerate(requests):
            conflict = next(
                (
                    rid
                    for rid in request.record_ids
                    if rid in resolver.store or rid in accepted_ids
                ),
                None,
            )
            if conflict is not None:
                outcomes[i] = ProtocolError(
                    409, f"record id {conflict!r} is already resolved"
                )
            else:
                accepted_ids.update(request.record_ids)
                accepted.append(i)
        if not accepted:
            return outcomes
        records = [dict(rec) for i in accepted for rec in requests[i].records]
        try:
            # chaos failpoint: a slow (delay-armed) or failing engine pass —
            # placed before resolver.resolve so an injected crash leaves the
            # store untouched (old state, never a third one)
            trip("serve.engine.pass")
            result = resolver.resolve(records)
        except Exception as exc:
            for i in accepted:
                outcomes[i] = exc
            return outcomes
        if result.health is not None and len(result.health):
            with self._health_lock:
                self._health.merge(result.health)
        batch_info = {
            "requests": len(requests),
            "records": len(records),
            "pairs_scored": len(result.pairs),
            "seconds": result.seconds,
        }
        for i in accepted:
            outcomes[i] = (result, batch_info)
        return outcomes

    # -- introspection -----------------------------------------------------------

    def health_dict(self) -> dict:
        """The service-lifetime health report as JSON (thread-safe read)."""
        with self._health_lock:
            return self._health.to_dict()

    @property
    def healthy(self) -> bool:
        """False once any error-severity condition has been recorded."""
        with self._health_lock:
            return self._health.ok
