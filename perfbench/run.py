"""vqe-bench benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload h4-sweep --seed 1 --seconds 45 --trace 0

Workloads and their inputs are in perfbench/spec.json; `--workload all`
runs each in turn.  Every run of the workload is a fresh interpreter
(worker.py), so set-up and peak RSS are per process.  Each run of the
package under src/ is paired with a run of the same workload on the
frozen copy of the package in perfbench/baseline/, in alternating order.
The host is a small share of a shared machine whose speed drifts by
30-40% over minutes; the ratio of a pair's two wall times cancels that
drift, where a wall time alone does not.  Pairs repeat until the next
one would overrun `--seconds`, with at least two, and medians are
reported.  Every run of src/ in one invocation must give bit-equal
energies, every point must be finite and at or above the pinned FCI
energy minus 1e-9, and every data file must be strict JSON.  A breach
sets "correct": false and the exit code to 1.

End-to-end metrics:
  wall_rel       wall time of src/ over wall time of the frozen baseline
                 on the same workload, median over pairs; wall time runs
                 from the first call into vqe_bench to the last result
                 written.  1.0 is the speed the benchmark was defined at.
  setup_s        process start to inputs ready: interpreter, import of
                 vqe_bench, temp data dir, seed-derived arguments (median
                 over every src/ process of the invocation)
  peak_rss_mb    peak RSS of a src/ run's process (median)
  err_mha.gmean  geometric mean over points of max(E - E_FCI, 1 uHa), mHa
  chem_acc_frac  share of points within 1.6 mHa of FCI
  ok_frac        share of attempted points that are finite, not below FCI
                 and bit-equal across runs; 1 - ok_frac is the failed share

The wall-time medians in seconds of both sides are printed as comments.
With `--trace 0` the last line holds the end-to-end metrics of untraced
runs.  With `--trace 1` untraced and traced runs of src/ alternate, with
no baseline runs, the last line holds the per-layer metrics of the
traced ones, and trace.overhead_s is the difference of the two
wall-time medians.  The spans of the last traced run are written to
.bench_out/trace/<workload>-seed<seed>.jsonl.

Exit codes: 0 all checks passed, 1 a check failed or a run broke, 2 the
package sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 1       # set-up-only interpreters before the timed runs
MIN_RUNS = 2           # determinism needs two runs to compare
RUN_TIMEOUT = 170.0    # seconds; a whole invocation must end within 180
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
              "err_mha.gmean": "mHa", "chem_acc_frac": "ratio",
              "ok_frac": "ratio"}


class WorkerError(RuntimeError):
    """A worker process exited early or broke the protocol."""


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions, **THREAD_PINS}


class Worker:
    """Starts worker.py processes and reads their protocol lines."""

    def __init__(self, workload: str, seed: int, run_dir: Path,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_PINS}
        self.count = 0

    def run(self, setup_only=False, trace_file=None,
            package="src") -> tuple[float, dict]:
        """(set-up seconds, result dict or {} for set-up only)."""
        self.count += 1
        data_dir = self.run_dir / f"data{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--data-dir", str(data_dir), "--package", package]
        if setup_only:
            cmd.append("--setup-only")
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
        log_path = self.run_dir / f"worker{self.count}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("out of time before starting a worker")
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                    env=self.env, cwd=ROOT, text=True)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - start
                rest = proc.stdout.read()
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            tail = log_path.read_text()[-2000:]
            raise WorkerError(f"worker exited with {code} "
                              f"(timeout {remaining:.0f} s):\n{tail}")
        if setup_only:
            return setup, {}
        lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
        if not lines:
            raise WorkerError("worker printed no RESULT line")
        shutil.rmtree(data_dir, ignore_errors=True)
        return setup, json.loads(lines[-1][len("RESULT "):])


def check_runs(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every run of one invocation."""
    attempted = failed = 0
    problems = []
    reference = results[0]["points"]
    for index, result in enumerate(results):
        problems += [f"run {index}: {e}" for e in result["errors"]]
        for label, energy in result["points"].items():
            attempted += 1
            if workloads.point_error(label, energy) is None:
                failed += 1
                problems.append(f"run {index}: {label} = {energy} is null, "
                                "non-finite or below FCI")
            elif energy != reference.get(label):
                failed += 1
                problems.append(f"run {index}: {label} = {energy!r} differs "
                                f"from run 0 ({reference.get(label)!r})")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    trace_file = OUT / "trace" / f"{workload}-seed{seed}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    worker = Worker(workload, seed, run_dir, started + RUN_TIMEOUT)
    setups, plain, traced, baseline, durations = [], [], [], [], []

    def spawn(**kwargs) -> dict:
        setup, result = worker.run(**kwargs)
        setups.append(setup)
        return result

    try:
        for _ in range(SETUP_PROBES):
            spawn(setup_only=True)
        while True:
            tick = time.monotonic()
            if trace:
                with_trace = len(traced) < len(plain)
                result = spawn(trace_file=trace_file if with_trace else None)
                (traced if with_trace else plain).append(result)
            else:
                # src/ and baseline in AB BA AB ... order, so a steady
                # drift in host speed cancels within the pairs as well
                first = len(plain) % 2 == 0
                if not first:
                    baseline.append(worker.run(package="baseline")[1])
                plain.append(spawn())
                if first:
                    baseline.append(worker.run(package="baseline")[1])
            durations.append(time.monotonic() - tick)
            enough = (len(plain) + len(traced) >= MIN_RUNS
                      and (not trace or traced))
            finish = time.monotonic() + statistics.median(durations)
            if enough and finish > started + seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = check_runs(plain + traced)
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        **workloads.answer_metrics(plain[0]["points"]),
    }
    e2e["ok_frac"] = 1.0 - failed / attempted
    samples = {"wall_s": [r["wall_s"] for r in plain]}
    if baseline:
        base = samples["baseline.wall_s"] = [r["wall_s"] for r in baseline]
        samples["wall_rel"] = [a / b for a, b in zip(samples["wall_s"], base)]
        e2e = {"wall_rel": statistics.median(samples["wall_rel"]), **e2e}
    samples["setup_s"] = setups
    layers = {}
    if trace:
        for name in spans.LAYER_METRICS:
            if name != "trace.overhead_s":
                layers[name] = statistics.median(
                    r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
    return {"workload": workload, "e2e": e2e, "layers": layers,
            "attempted": attempted, "failed": failed, "problems": problems,
            "runs": {"untraced": len(plain), "traced": len(traced),
                     "baseline": len(baseline), "setup_samples": len(setups)},
            "samples": samples,
            "trace_file": str(trace_file.relative_to(ROOT)) if trace else None}


def report(outcome: dict, trace: bool) -> dict:
    name = outcome["workload"]
    runs = outcome["runs"]
    print(f"# {name}: {runs['untraced']} untraced + {runs['traced']} traced "
          f"runs of src/, {runs['baseline']} of the baseline, "
          f"{runs['setup_samples']} set-up samples")
    for metric, values in outcome["samples"].items():
        print(f"# {metric} samples: " + " ".join(f"{v:.4f}" for v in values))
        if metric.endswith("wall_s"):
            print(f"# {metric} median: {statistics.median(values):.4f} s")
    for metric, value in outcome["e2e"].items():
        print(f"{name}  {metric:<40} {value:>14.6g} {END_TO_END[metric]}")
    for metric, value in outcome["layers"].items():
        print(f"{name}  {metric:<40} {value:>14.6g} "
              f"{spans.LAYER_METRICS[metric]}")
    if outcome["trace_file"]:
        print(f"# spans: {outcome['trace_file']}")
    for problem in outcome["problems"]:
        print(f"# CHECK FAILED: {problem}")
    values, units = ((outcome["layers"], spans.LAYER_METRICS) if trace
                     else (outcome["e2e"], END_TO_END))
    # a gmean over zero good points is infinite; strict JSON has no Infinity
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
               for k, v in values.items()}
    return {"correct": not outcome["problems"],
            "attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still runs the clean-up that kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "vqe_bench" / "__init__.py").is_file():
        print(f"vqe_bench sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for key, value in environment().items():
        print(f"# env {key}={value}")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [
        args.workload]
    status = 0
    for name in names:
        try:
            outcome = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        result = report(outcome, bool(args.trace))
        status = status or (0 if result["correct"] else 1)
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
