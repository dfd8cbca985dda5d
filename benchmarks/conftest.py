"""Benchmark-suite configuration.

Benches print paper-vs-measured tables through ``_bench_utils.emit`` (which
suspends output capture), so the tables are visible both interactively and
in tee'd logs without ``-s``. Dataset preparation is cached per process by
the harness — running the whole suite featurizes each benchmark once.

BLAS thread pools are pinned to one thread: the EM working set is many tiny
matrix operations, and OpenBLAS's multithreaded path above its size
threshold costs ~10× in synchronization overhead — it would corrupt the
Figure 5 per-iteration timings (and slow the whole suite down). This must
happen before numpy first loads, which is why it lives at conftest import
time.

The reference loops the blocking and featurization benches time the
production path against are the test suite's parity oracles
(``tests/reference_blocking.py``, ``tests/reference_batch.py``), so
``tests/`` goes on the import path.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
