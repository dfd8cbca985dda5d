"""Observability tour: trace a resolution run and read its run report.

Attaches the in-memory telemetry sink, runs the full unsupervised pipeline
on the restaurant benchmark, and then walks what the run captured: the
nested span tree (blocking -> featurization -> EM), the metrics registry
(candidate counters, per-feature kernel seconds, Jaro-Winkler cache
hits/misses, EM iterations), and the single versioned run-report JSON
document that ``fit``/``resolve`` embed into frozen artifacts.

With no sink configured all of this instrumentation is a no-op, so
untraced runs pay nothing.

Run:  python examples/traced_run.py
"""

import json

from repro import ERPipeline, configure_telemetry, load_benchmark
from repro.obs import get_sinks, span_tree, validate_report


def print_tree(nodes, indent: int = 0) -> None:
    for node in nodes:
        label = f"{'  ' * indent}{node['name']:<28}"
        extra = ""
        attrs = node["attributes"]
        for key in ("n_pairs", "n_candidates", "n_iterations"):
            if key in attrs:
                extra += f"  {key}={attrs[key]}"
        print(f"{label}{node['seconds'] * 1e3:8.1f} ms{extra}")
        print_tree(node["children"], indent + 1)


def main() -> None:
    dataset = load_benchmark("rest_fz", scale="small")

    # 1. Attach a sink. "memory" buffers span records in the process;
    #    "jsonl" streams them to a file; "stderr" pretty-prints live.
    memory = configure_telemetry("memory")
    result = ERPipeline(blocking_attribute="name").run(dataset.left, dataset.right)
    configure_telemetry(None)  # detach — later runs are no-ops again
    assert get_sinks() == ()

    # 2. The sink saw every span of the run, parent-linked and timed.
    print(f"captured {len(memory.spans)} spans:\n")
    print_tree(span_tree(memory.spans))

    # 3. The result carries the same telemetry as one versioned JSON
    #    document — the run report (embedded in artifacts by fit/resolve,
    #    printable via `python -m repro report art/`).
    report = validate_report(result.report())
    counters = report["metrics"]["counters"]
    print(f"\nrun report (version {report['report_version']}):")
    print(f"  traced:          {report['traced']}")
    print(f"  stage timings:   { {k: round(v, 3) for k, v in report['timings'].items()} }")
    print(f"  candidate pairs: {counters['blocking.candidate_pairs']}")
    print(f"  matches:         {counters['matching.matches']}")
    print(f"  EM iterations:   {counters['em.iterations']}")

    gauges = report["metrics"]["gauges"]
    jw = {k.rsplit(".", 1)[-1]: v for k, v in gauges.items() if "jw_cache" in k}
    print(f"  JW cache:        {jw}")

    kernels = sorted(
        (k.rsplit(".", 1)[-1], v)
        for k, v in gauges.items()
        if k.startswith("features.kernel_seconds.")
    )
    slowest = sorted(kernels, key=lambda kv: -kv[1])[:3]
    print("  slowest feature kernels:")
    for name, seconds in slowest:
        print(f"    {name:<24} {seconds * 1e3:6.1f} ms")

    # 4. EM's whole trajectory is in the report — likelihoods per iteration.
    em = report["em"]
    print(f"\nEM converged={em['converged']} after {em['n_iterations']} iterations")
    print(f"  log-likelihood: {em['log_likelihoods'][0]:.1f} -> {em['log_likelihoods'][-1]:.1f}")

    # 5. It is plain JSON: ship it to whatever consumes your telemetry.
    doc = json.dumps(report, sort_keys=True)
    print(f"\nserialized run report: {len(doc)} bytes of JSON")


if __name__ == "__main__":
    main()
