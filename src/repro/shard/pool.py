"""Spawn-safe multiprocessing pool for parallel featurization.

Featurization dominates a resolve batch once candidate retrieval is
vectorized, and it is embarrassingly parallel: each candidate pair's
feature row depends only on that pair's two records. :class:`FeaturePool`
splits a batch's pair list into contiguous chunks, ships each chunk with
exactly the record payloads it references to a worker, and reassembles the
returned feature rows in original pair order. Scoring and match merging
stay in the parent process — one ``predict_proba`` over the reassembled
matrix, merges applied serially in pair order — so entity ids are
bit-identical for any worker count (the feature kernels are verified
partition-invariant by the parity suite).

Workers are spawned (never forked): each one rebuilds the frozen
:class:`~repro.features.generator.FeatureGenerator` from its
JSON-serializable state in the initializer, so the pool is safe on
platforms without fork and never inherits locks, mmaps, or telemetry
sinks from the parent. The pool is created lazily on first use and torn
down via :meth:`close` or interpreter exit.
"""

from __future__ import annotations

import atexit
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

__all__ = ["FeaturePool", "MAX_WORKERS", "validate_workers"]

#: Upper bound on worker processes; matched to shard counts, not cores.
MAX_WORKERS = 64

# Per-worker-process state, populated once by _init_worker after spawn.
_WORKER_STATE: dict = {}


def validate_workers(workers: int) -> int:
    """Validate and normalize a worker count (``1 <= n <= MAX_WORKERS``)."""
    n = int(workers)
    if not 1 <= n <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    return n


def _init_worker(generator_state: dict, engine: str) -> None:
    """Rebuild the frozen feature generator inside a spawned worker."""
    from repro.features.generator import FeatureGenerator

    _WORKER_STATE["generator"] = FeatureGenerator.from_state(generator_state)
    _WORKER_STATE["engine"] = engine


def _transform_chunk(task: tuple) -> np.ndarray:
    """Featurize one chunk of pairs against its shipped record payloads."""
    pairs, payload = task
    generator = _WORKER_STATE["generator"]
    return generator.transform(payload, None, pairs, engine=_WORKER_STATE["engine"])


class FeaturePool:
    """A lazy pool of spawned featurization workers.

    Parameters
    ----------
    generator_state:
        Output of ``FeatureGenerator.get_state()`` — JSON-serializable and
        therefore spawn-safe.
    engine:
        Featurization engine name forwarded to every worker's
        ``transform`` calls (the resolver's own engine knob).
    workers:
        Worker process count (>= 1; a 1-worker pool is legal but the
        resolver routes that case through the in-process reference path).
    """

    def __init__(self, generator_state: dict, engine: str, workers: int):
        self.workers = validate_workers(workers)
        self._generator_state = generator_state
        self._engine = engine
        self._executor: ProcessPoolExecutor | None = None
        atexit.register(self.close)

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("spawn"),
                initializer=_init_worker,
                initargs=(self._generator_state, self._engine),
            )
        return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes have been spawned yet."""
        return self._executor is not None

    def transform(self, source, pairs: list[tuple]) -> np.ndarray:
        """Featurize ``pairs`` in parallel; rows come back in pair order.

        ``source`` is any record source with ``.get(record_id)`` (a
        :class:`~repro.shard.store.ShardedEntityStore` or a plain dict).
        Each chunk ships only the records it references, so a mostly-cold
        store pays payload decoding once per referenced record, not per
        worker.
        """
        if not pairs:
            raise ValueError("transform requires at least one pair")
        n_chunks = min(self.workers, len(pairs))
        bounds = [len(pairs) * i // n_chunks for i in range(n_chunks + 1)]
        tasks = []
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = pairs[lo:hi]
            referenced = {rid for pair in chunk for rid in pair}
            payload = {rid: source.get(rid) for rid in referenced}
            tasks.append((chunk, payload))
        executor = self._ensure()
        try:
            blocks = list(executor.map(_transform_chunk, tasks))
        except BrokenExecutor:
            # a killed worker poisons the whole executor; drop it so the
            # next batch starts a fresh pool instead of failing forever
            self.close()
            raise
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self.started else "cold"
        return f"FeaturePool(workers={self.workers}, {state})"
