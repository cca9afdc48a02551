"""Start-up cost of the command line: fresh interpreters that import
vqe_bench.cli, their seconds and peak RSS, and whether SciPy,
numpy.random, _hashlib (OpenSSL) or socket is loaded.

    PYTHONPATH=src python3 tools/time_import.py [--runs 20]

Each run is a new `python3 -c` process with the thread pins
perfbench/run.py sets.  It times `import vqe_bench.cli` with
time.perf_counter, reads its own peak RSS (getrusage's ru_maxrss, kB on
Linux) and counts the SciPy modules in sys.modules after the import, and
notes which of numpy.random, _hashlib and socket it holds.
The tool also times each process from its start to its exit, since
perfbench's setup_s counts the interpreter's own start too; it imports
no part of the package itself.  It prints the medians (q1, q3) over the
runs; the machine block is the one perfbench/run.py prints; the last
line is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import THREAD_PINS, environment  # noqa: E402

PROBE = """\
import json, resource, sys, time
start = time.perf_counter()
import vqe_bench.cli
seconds = time.perf_counter() - start
print(json.dumps({
    "import_s": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_modules": sum(name == "scipy" or name.startswith("scipy.")
                         for name in sys.modules),
    "loaded": [name for name in ("numpy.random", "_hashlib", "socket")
               if name in sys.modules]}))
"""


def run_once() -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env={**os.environ, **THREAD_PINS},
                          check=True)
    probe = json.loads(done.stdout)
    probe["process_s"] = time.perf_counter() - start
    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.runs < 20:
        parser.error("--runs must be at least 20")
    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    runs = [run_once() for _ in range(args.runs)]
    result = {}
    for key in ("import_s", "process_s", "peak_rss_mb"):
        q1, median, q3 = statistics.quantiles(
            [run[key] for run in runs], n=4, method="inclusive")
        result[key] = {"median": median, "q1": q1, "q3": q3}
    scipy_loaded = sorted({run["scipy_modules"] > 0 for run in runs})
    loaded = sorted({name for run in runs for name in run["loaded"]})
    for key, values in result.items():
        print(f"{key:<12} {values['median']:.4f} "
              f"({values['q1']:.4f}, {values['q3']:.4f})")
    print(f"scipy loaded: {scipy_loaded}")
    print(f"numpy.random, _hashlib, socket loaded: {loaded}")
    print(json.dumps({"machine": machine, "runs": args.runs, **result,
                      "scipy_loaded": scipy_loaded, "loaded": loaded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
