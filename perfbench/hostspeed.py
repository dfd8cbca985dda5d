"""The host's speed, read from a fixed slice of reference work.

The 2-core shared host this benchmark was built on varies in two ways, and
both moved the wall time of the same work far past any allowed bound:

- The hypervisor takes the CPU away (steal: 0.2-12% of a run's time). A
  long computation loses that share of its wall time, and a served request
  whose path crosses processes and threads loses far more: median
  ``/resolve`` latency read 34 ms at 0.2% steal and 53 ms at 7.7%. CPU time
  excludes stolen time.
- The CPU itself runs faster or slower for seconds at a time: the same
  slice of work took between 14 and 38 ms of CPU time within single runs.
  CPU time includes that.

So the benchmark gates each operation's CPU time at the reference speed:
its CPU time times :data:`REF_SLICE_MS` over the median CPU time of the
reference slices timed next to it (:meth:`HostSpeed.scale`). The slice uses
only the standard library and none of the program, so a change to the
program never moves it. Over ten runs of each workload, the spread
(interquartile range over median) of wall time, CPU time and CPU time at
the reference speed read 0.098, 0.050 and 0.035 for the fit, 0.056, 0.039
and 0.025 for a resolve batch, and 0.251 (median latency), 0.051 and 0.011
for a served request.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager

#: A reference slice's CPU time at the reference speed, in ms: about what it
#: took on the build host in its usual state. Only the unit of the scaled
#: times depends on it.
REF_SLICE_MS = 30.0

_KEYS, _UPDATES, _WORDS, _PAIRS = 100_000, 30_000, 400, 1_600


class HostSpeed:
    """Times the reference slice and keeps every reading."""

    def __init__(self, seed: int = 12345):
        rnd = random.Random(seed)
        keys = [f"k{i:06d}" for i in range(_KEYS)]
        rnd.shuffle(keys)
        # copies made in shuffled order, so the keys lie scattered in memory
        keys = [k[:1] + k[1:] for k in keys]
        self._updates = [keys[rnd.randrange(_KEYS)] for _ in range(_UPDATES)]
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [
            "".join(rnd.choice(letters) for _ in range(rnd.randint(4, 12)))
            for _ in range(_WORDS)
        ]
        self._pairs = [(rnd.choice(words), rnd.choice(words)) for _ in range(_PAIRS)]
        #: CPU time of every slice timed, in ms.
        self.cpu_ms: list[float] = []
        #: Wall time of every slice timed, in ms (run context only).
        self.wall_ms: list[float] = []

    def _slice(self) -> int:
        counts: Counter = Counter()
        for key in self._updates:
            counts[key] += 1
        matched = 0
        for a, b in self._pairs:
            for i, ch in enumerate(a):
                if ch in b[max(0, i - 2) : i + 3]:
                    matched += 1
        return len(counts) + matched

    def measure(self, slices: int = 1) -> float:
        """Time ``slices`` reference slices; returns the CPU ms they took."""
        total = 0.0
        for _ in range(slices):
            wall, cpu = time.perf_counter(), time.process_time()
            self._slice()
            self.cpu_ms.append((time.process_time() - cpu) * 1000.0)
            self.wall_ms.append((time.perf_counter() - wall) * 1000.0)
            total += self.cpu_ms[-1]
        return total

    @contextmanager
    def sampling(self, every_s: float):
        """Time one slice every ``every_s`` seconds while the block runs.

        For one long call the benchmark cannot interleave slices with: a
        timer signal runs a slice on the main thread between two bytecodes
        of the call. Yields ``[cpu_ms, wall_ms]`` that the slices took, to
        subtract from the call's times once the block has exited.
        """
        spent = [0.0, 0.0]

        def tick(signum, frame):
            spent[0] += self.measure()
            spent[1] += self.wall_ms[-1]

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, cpu_ms: float) -> float:
        """``cpu_ms`` of CPU time taken during this run, at the reference speed."""
        return cpu_ms * REF_SLICE_MS / statistics.median(self.cpu_ms)

    def summary(self) -> dict:
        """Slice times of the run, for the run context."""
        if not self.cpu_ms:
            return {}
        return {
            "slices": len(self.cpu_ms),
            "cpu_p50_ms": round(statistics.median(self.cpu_ms), 3),
            "cpu_min_ms": round(min(self.cpu_ms), 3),
            "cpu_max_ms": round(max(self.cpu_ms), 3),
            "wall_p50_ms": round(statistics.median(self.wall_ms), 3),
        }
