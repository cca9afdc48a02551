"""One workload run in a fresh interpreter; started by run.py.

`--package src` imports vqe_bench from src/, `--package baseline` from
the frozen copy in perfbench/baseline/ that run.py times src/ against.

Protocol on the original standard output: the line `READY` once
vqe_bench is imported and the inputs exist (run.py times set-up up to
it), then one line `RESULT <json>`.  Whatever the package prints goes to
standard error, so it cannot break the protocol.

    python3 perfbench/worker.py --workload h2-zoo --seed 1 --data-dir DIR \
        [--package {src,baseline}] [--trace-file FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGES = {"src": ROOT / "src", "baseline": HERE / "baseline"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--package", choices=sorted(PACKAGES), default="src")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    sys.path.insert(0, str(PACKAGES[args.package]))
    import vqe_bench.cli  # noqa: F401  (loads every package module)
    import workloads

    os.makedirs(args.data_dir, exist_ok=True)
    inputs = workloads.prepare(args.workload, args.seed, args.data_dir)
    protocol.write("READY\n")
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file:
        import spans
        tracer = spans.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            outcome = workloads.execute(inputs)
            wall = time.perf_counter() - start
    else:
        start = time.perf_counter()
        outcome = workloads.execute(inputs)
        wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    points, errors = workloads.collect(inputs, outcome)
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "points": points,
              "errors": errors}
    if tracer is not None:
        amplitude_calls = tracer.amplitude_calls()
        result["layers"] = spans.layer_metrics(tracer.spans, amplitude_calls)
        tracer.write(args.trace_file, amplitude_calls)
    protocol.write("RESULT " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
