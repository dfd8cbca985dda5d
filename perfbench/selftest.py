"""Self-test: every workload at smoke size, untraced and traced.

Checks that each run exits 0, reports every metric ``BENCHMARK.json``
declares with its declared unit, and ran its correctness checks; then
prints, per layer, the workload where the layer does the most work and the
one where it does the least (by traced self seconds). Run it with::

    python3 perfbench/selftest.py          # smoke sizes, about a minute
    python3 perfbench/selftest.py --full   # real sizes, several minutes

or under pytest: ``python -m pytest perfbench/selftest.py``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_workload(workload: str, trace: int, full: bool = False, seed: int = 7) -> tuple:
    """One benchmark run; returns ``(result, context)`` after checking its shape."""
    seconds = SPEC["run_seconds"] if full else 2
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + ([] if full else ["--smoke"])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2].removeprefix("# context "))

    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m for m in result["metrics"]] == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    # the correctness checks ran, and passed
    assert context["checks"] and all(context["checks"].values()), context["checks"]
    return result, context


def layer_table(contexts: dict) -> dict:
    """Per layer: ``{workload: self seconds}`` plus the most and least busy workload."""
    layers = sorted({name for ctx in contexts.values() for name in ctx["layers"]})
    table = {}
    for layer in layers:
        busy = {w: ctx["layers"].get(layer, {}).get("self_s", 0.0) for w, ctx in contexts.items()}
        table[layer] = {
            "self_s": busy,
            "most": max(busy, key=busy.get),
            "least": min(busy, key=busy.get),
        }
    return table


def selftest(full: bool = False) -> dict:
    contexts = {}
    for workload in WORKLOADS:
        run_workload(workload, trace=0, full=full)
        _, contexts[workload] = run_workload(workload, trace=1, full=full)
    table = layer_table(contexts)
    # every traced layer does its work somewhere
    assert all(row["self_s"][row["most"]] > 0 for row in table.values()), table
    return table


def test_smoke():
    table = selftest(full=False)
    assert {"api", "core.em", "incremental.index", "serve.state"} <= set(table)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="real input sizes")
    args = parser.parse_args()
    table = selftest(full=args.full)
    width = max(map(len, table))
    print(f"{'layer':{width}}  " + "  ".join(f"{w:>13}" for w in WORKLOADS) + "  most / least")
    for layer, row in table.items():
        cells = "  ".join(f"{row['self_s'][w]:13.3f}" for w in WORKLOADS)
        print(f"{layer:{width}}  {cells}  {row['most']} / {row['least']}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
