"""Micro-batching queue: concurrent requests, one columnar engine pass.

The serving layer's throughput comes from here. Single-record HTTP
resolves would push one-pair-at-a-time work through kernels that are built
for batches; :class:`MicroBatcher` instead parks concurrent ``/resolve``
requests on an ``asyncio`` queue, coalesces them — up to ``max_batch``
records, waiting at most ``max_wait_ms`` for stragglers — and executes the
merged batch as *one* call into the incremental engine
(``ShardedTokenIndex`` probing + batch featurization + one
``predict_proba``), then fans the per-request slices back out to their
waiting futures.

The batcher also owns the serving layer's **single-writer contract**: every
batch executes on a one-thread executor, so resolves (which mutate the
index and the union-find :class:`~repro.shard.store.ShardedEntityStore`)
are strictly serialized, while reads (lookup/health endpoints) proceed
concurrently from the event loop, each holding the store lock for
O(|entity|) at most. Artifact hot-reloads are funneled
through the same thread via :meth:`MicroBatcher.run_serialized`, which is
what makes a reload invisible to in-flight requests: queued batches drain
on the old resolver or run entirely on the new one, never half-and-half.

Overload protection lives here too, because the queue is where overload
accumulates:

* **admission control** — ``max_queue`` bounds the number of waiting
  requests and ``max_inflight_records`` bounds the total record weight
  admitted but not yet answered; a submission over either budget raises
  :class:`Overloaded` *immediately* instead of queueing unboundedly, so
  the caller can shed with a typed 503 while queued latency stays bounded.
* **deadlines** — a request whose ``deadline`` (event-loop clock) has
  passed by the time the collector would batch it is answered with
  :class:`DeadlineExpired` and never reaches the engine.
* **drain** — :meth:`stop` refuses new submissions (:class:`BatcherClosed`),
  finishes everything already queued, and with a ``timeout`` force-fails
  whatever a stalled writer still holds rather than hanging shutdown.
  Every admitted request gets exactly one outcome: a result, its batch's
  exception, ``DeadlineExpired``, or ``BatcherClosed`` — never silence.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.reliability.faultinject import trip

__all__ = ["MicroBatcher", "Overloaded", "DeadlineExpired", "BatcherClosed"]


class Overloaded(RuntimeError):
    """Submission refused by admission control; carries the typed reason."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        #: ``"queue_full"`` or ``"inflight_records"``.
        self.reason = reason


class DeadlineExpired(RuntimeError):
    """The request's deadline passed while it was still queued."""


class BatcherClosed(RuntimeError):
    """The batcher is stopping/stopped and takes no new work."""


class MicroBatcher:
    """Coalesce awaitable requests into serialized engine batches.

    Parameters
    ----------
    execute:
        Synchronous callable ``execute(requests) -> outcomes`` run on the
        single writer thread. ``outcomes`` must align with ``requests``;
        an outcome that is an exception is raised from that request's
        :meth:`submit`, other requests are unaffected.
    max_batch:
        Record budget per executed batch. Collection stops as soon as the
        queued requests reach it (a single oversized request still runs,
        alone).
    max_wait_ms:
        How long the first request of a batch waits for stragglers before
        the batch executes anyway. ``0`` coalesces only what is already
        queued — latency-optimal, still batching under bursts.
    max_queue:
        Admission bound on requests waiting to be batched; a submission
        finding the queue at this depth raises :class:`Overloaded`
        (``reason="queue_full"``). ``None`` disables the bound.
    max_inflight_records:
        Admission bound on total record weight admitted but not yet
        answered (queued *and* executing). A submission that would exceed
        it raises :class:`Overloaded` (``reason="inflight_records"``) —
        except when nothing is in flight, so one oversized request can
        always make progress. ``None`` disables the bound.
    on_batch:
        Optional observer ``on_batch(n_requests, n_records)`` called after
        each batch executes (metrics hook).
    """

    def __init__(
        self,
        execute,
        max_batch: int = 64,
        max_wait_ms: float = 10.0,
        max_queue: int | None = None,
        max_inflight_records: int | None = None,
        on_batch=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight_records is not None and max_inflight_records < 1:
            raise ValueError(
                f"max_inflight_records must be >= 1, got {max_inflight_records}"
            )
        self._execute = execute
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.max_queue = None if max_queue is None else int(max_queue)
        self.max_inflight_records = (
            None if max_inflight_records is None else int(max_inflight_records)
        )
        self._on_batch = on_batch
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-writer"
        )
        self._stopping = False
        self._inflight_records = 0
        self._current_batch: list | None = None
        #: Batches executed since start (monotone; read by /metrics).
        self.n_batches = 0
        #: Requests that went through executed batches.
        self.n_requests = 0
        #: Requests answered DeadlineExpired while still queued.
        self.n_expired = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Create the queue and start the collection loop on the running loop."""
        if self._task is not None:
            raise RuntimeError("MicroBatcher is already started")
        self._stopping = False
        self._queue = asyncio.Queue()
        self._task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self, timeout: float | None = None) -> bool:
        """Stop taking work, drain what is queued, shut the writer down.

        New :meth:`submit`/:meth:`run_serialized` calls fail with
        :class:`BatcherClosed` from the moment this is called; requests
        already queued still execute. With a ``timeout`` (seconds), a drain
        that overruns it — a stalled writer, a pathological backlog — is
        *forced*: the collection loop is cancelled, every unanswered
        request gets :class:`BatcherClosed`, and the writer thread is
        abandoned rather than joined. Returns ``True`` for a clean drain,
        ``False`` when it had to force. Safe to call twice.
        """
        if self._task is None:
            return True
        self._stopping = True
        queue = self._queue
        task = self._task
        await queue.put(None)  # wake the collector
        clean = True
        if timeout is None:
            await task
        else:
            done, _pending = await asyncio.wait((task,), timeout=timeout)
            if not done:
                clean = False
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._task = None
        self._queue = None
        if not clean:
            self._fail_unanswered(queue)
        # a forced stop must not block on a stalled writer thread
        self._executor.shutdown(wait=clean, cancel_futures=not clean)
        return clean

    def _fail_unanswered(self, queue: asyncio.Queue) -> None:
        """Give every still-pending request a typed BatcherClosed outcome."""
        pending = list(self._current_batch or ())
        self._current_batch = None
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                pending.append(item)
        for request, future in pending:
            if not future.done():
                future.set_exception(
                    BatcherClosed("batcher stopped before the request completed")
                )
            self._inflight_records -= len(request.records)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be batched (0 when stopped)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def inflight_records(self) -> int:
        """Total record weight admitted but not yet answered."""
        return self._inflight_records

    @property
    def closing(self) -> bool:
        """True once :meth:`stop` has been called (draining or stopped)."""
        return self._stopping or self._queue is None

    # -- submission --------------------------------------------------------------

    async def submit(self, request):
        """Enqueue one request and await its outcome.

        ``request`` must expose ``records`` (its weight toward
        ``max_batch`` and the inflight budget) and may expose ``deadline``
        (absolute ``loop.time()`` expiry). Raises :class:`Overloaded` when
        admission control refuses it, :class:`DeadlineExpired` when it sat
        queued past its deadline, :class:`BatcherClosed` when the batcher
        is draining, or whatever exception the executed batch assigned to
        this request.
        """
        if self._queue is None or self._stopping:
            raise BatcherClosed(
                "MicroBatcher is not started or is draining; no new requests"
            )
        weight = len(request.records)
        if self.max_queue is not None and self._queue.qsize() >= self.max_queue:
            raise Overloaded(
                "queue_full",
                f"batcher queue is full ({self.max_queue} requests waiting)",
            )
        if (
            self.max_inflight_records is not None
            and self._inflight_records > 0
            and self._inflight_records + weight > self.max_inflight_records
        ):
            raise Overloaded(
                "inflight_records",
                f"inflight record budget exhausted "
                f"({self._inflight_records}/{self.max_inflight_records} records "
                f"in flight, request adds {weight})",
            )
        self._inflight_records += weight
        future = asyncio.get_running_loop().create_future()
        # put_nowait: the queue is unbounded, admission happened above —
        # no await between the checks and the enqueue, so a concurrent
        # stop() can never strand a submission it did not see
        self._queue.put_nowait((request, future))
        return await future

    async def run_serialized(self, fn):
        """Run ``fn()`` on the writer thread, FIFO with the batches.

        The single-worker executor guarantees ``fn`` never overlaps a
        resolve: batches already submitted finish first, batches submitted
        after run against whatever state ``fn`` left behind. This is the
        hot-reload (and store-save) entry point. Raises
        :class:`BatcherClosed` once the batcher is draining.
        """
        if self._queue is None or self._stopping:
            raise BatcherClosed("MicroBatcher is not accepting serialized jobs")

        def job():
            trip("serve.writer.job")
            return fn()

        return await asyncio.get_running_loop().run_in_executor(self._executor, job)

    # -- collection loop ---------------------------------------------------------

    def _reap(self, item) -> bool:
        """Retire a collected entry that must not execute; True if retired.

        Two reasons: the submitter's future was cancelled (the awaiting
        task went away), or the request's deadline passed while it sat in
        the queue — the latter is answered with :class:`DeadlineExpired`,
        so expiry is a typed response, never a silent drop.
        """
        request, future = item
        if future.cancelled():
            self._inflight_records -= len(request.records)
            return True
        deadline = getattr(request, "deadline", None)
        if deadline is not None and asyncio.get_running_loop().time() >= deadline:
            future.set_exception(
                DeadlineExpired("deadline expired while the request was queued")
            )
            self.n_expired += 1
            self._inflight_records -= len(request.records)
            return True
        return False

    async def _loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                if self._stopping and self._queue.empty():
                    return
                continue
            if self._reap(item):
                continue
            batch = [item]
            total = len(item[0].records)
            if total < self.max_batch and self.max_wait_s > 0:
                deadline = loop.time() + self.max_wait_s
                while total < self.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                    if nxt is None:
                        break
                    if self._reap(nxt):
                        continue
                    batch.append(nxt)
                    total += len(nxt[0].records)
            # sweep anything that queued up while waiting (no extra waiting)
            while total < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    break
                if self._reap(nxt):
                    continue
                batch.append(nxt)
                total += len(nxt[0].records)
            await self._dispatch(batch, total)
            if self._stopping and self._queue.empty():
                return

    async def _dispatch(self, batch: list, n_records: int) -> None:
        requests = [request for request, _future in batch]
        self._current_batch = batch
        try:
            outcomes = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._execute, requests
            )
        except asyncio.CancelledError:
            # forced stop: _fail_unanswered picks _current_batch up
            raise
        except Exception as exc:  # an execute() bug fails the batch, not the server
            outcomes = [exc] * len(requests)
        self._current_batch = None
        self.n_batches += 1
        self.n_requests += len(requests)
        for (request, future), outcome in zip(batch, outcomes):
            if not future.cancelled():
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
            self._inflight_records -= len(request.records)
        if self._on_batch is not None:
            self._on_batch(len(requests), n_records)
