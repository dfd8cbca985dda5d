"""End-to-end benchmark of the ZeroER reproduction, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload fit_pub_da --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``fit_pub_da``,
``resolve_100k`` and ``serve_pub_da``. ``--trace 0`` prints every end-to-end
metric declared in ``BENCHMARK.json``; ``--trace 1`` first runs the same
inputs untraced in a fresh interpreter, then runs them again with the span
wrappers of ``tracing.py`` installed, prints every per-layer metric,
including the tracing overhead, and writes the spans to
``.perfbench-out/spans-<workload>-<seed>.json``. ``--smoke`` shrinks every input so a run
takes seconds (used by ``selftest.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run context (``# context {...}``). A failed correctness check prints
``"correct": false`` and exits 1. The program is built from ``src/`` of the
checkout this file sits in; without it the benchmark exits 2.
"""

import os

#: BLAS thread pools pinned to one thread, before numpy first loads: EM is
#: many tiny matrix operations, where OpenBLAS's threaded path costs more
#: in synchronization than it saves. The server process gets the same pins.
PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description="End-to-end benchmark, one workload per run.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, seconds-long run")
    return parser.parse_args(argv)


def _untraced(args) -> dict:
    """The same run without tracing, in a fresh interpreter (overhead base)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"untraced run failed:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _in_windows(span, windows) -> bool:
    return any(start <= span.start and span.end <= end for start, end in windows)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/repro or BENCHMARK.json to build", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    base = _untraced(args) if args.trace else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    run = workloads.Run(
        args.workload, args.seed, args.seconds, args.smoke, ROOT, tmp, PINS, tracer
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **run.context,
        "reference_slices": run.host.summary(),
        "checks": outcome.checks,
    }
    if args.trace:
        from tracing import dump_spans, layer_totals, span_metrics

        spans = tracer.spans + [
            s for s in outcome.server_spans or () if _in_windows(s, run.windows)
        ]
        context["layers"] = layer_totals(spans)
        context["trace_missing"] = tracer.missing
        # a target that no longer exists, or a layer of this workload that
        # recorded nothing, would read 0 as if it did no work: fail instead
        outcome.checks["trace_targets_found"] = not tracer.missing
        outcome.checks["layers_traced"] = all(
            layer in context["layers"] for layer in workloads.LAYERS[args.workload]
        )
        values = {**span_metrics(spans), **outcome.layer}
        values["trace.overhead_frac"] = (
            outcome.metrics["op_cpu_ref_ms"] / base["metrics"]["op_cpu_ref_ms"]["value"] - 1.0
        )
        if tracer.engine:
            context["engine_classes"] = tracer.engine
        out = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        dump_spans(spans, out)
        context["spans_file"] = str(out.relative_to(ROOT))
        declared = spec["per_layer"]
    else:
        values = outcome.metrics
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) - names or (not args.trace and names - set(values)):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")

    correct = all(outcome.checks.values()) and outcome.failed == 0
    metrics = {}
    for m in declared:
        value = float(values.get(m["name"], 0.0))
        if not math.isfinite(value):
            correct, value = False, -1.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print("# context " + json.dumps(context, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
