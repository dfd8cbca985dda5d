"""Traced server launcher: ``repro serve`` with the benchmark's span wrappers.

Installs :mod:`tracing`'s wrappers in this process, then starts the service
through :func:`repro.serve.app.run_serve`, the entry point behind
``python -m repro serve``. When the service drains (SIGTERM) the recorded
spans are written to ``--spans`` for the benchmark to join with its client
timeline. Run by ``run.py --trace 1``; not meant to be started by hand.
"""

import argparse

from tracing import Tracer, dump_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--artifacts", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    tracer = Tracer().install()
    tracer.enabled = True
    from repro.serve.app import run_serve

    try:
        return run_serve(args.artifacts, port=args.port)
    finally:
        tracer.enabled = False
        dump_spans(tracer.spans, args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
