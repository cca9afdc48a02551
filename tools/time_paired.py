"""Paired evaluation timings of two checkouts: time_kernel.py's cases,
run by two long-lived worker processes, one per checkout, that take
turns, so both sides see the same drift of a shared host.

    python3 tools/time_paired.py --parent <parent checkout>/src \
        --change src [--rounds 20]

Separate time_kernel.py invocations cannot resolve a few percent on a
host whose speed drifts by 30-40% over minutes; pairing bursts that run
seconds apart can.  Each worker imports vqe_bench from its own src
directory and builds every case as time_kernel.run_case does.  Each
round runs every case once on each side as a burst of evaluations (one
simulator.adjoint_gradient call each) of about 50 ms, the side that
goes first alternating by round; a burst reports its median evaluation
time.  Per case the tool prints both sides' medians over the rounds,
the median and quartiles of the per-round ratio change/parent, and the
rounds the change won.  The workers' digests of every row's energy and
gradient bytes must agree.  The last line is the result as JSON.
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

BURST_S = 0.05


def worker(src: str) -> None:
    """Build every case, report its name, digest and warm evaluation
    time, then run `<case number> <evaluations>` bursts read from stdin."""
    sys.path.insert(0, src)
    from time_kernel import CASES  # sets the thread pins, then imports NumPy

    import hashlib

    import numpy as np

    from vqe_bench import simulator
    from vqe_bench.hamiltonian import (
        bundled_molecule,
        hf_state_index,
        qubit_hamiltonian,
    )

    calls = []
    for name, molecule, bond_length, builder, rows in CASES:
        data = bundled_molecule(molecule).integrals(bond_length)
        h = qubit_hamiltonian(data)
        circuit = builder(data.n_qubits, data.n_electrons).circuit
        initial = hf_state_index(data.n_qubits, data.n_electrons)
        rng = np.random.default_rng(7)
        angles = rng.uniform(-np.pi, np.pi, (max(rows, 1), circuit.n_params))
        batch = angles if rows else angles[0]
        calls.append((name, lambda circuit=circuit, h=h, batch=batch,
                      initial=initial: simulator.adjoint_gradient(
                          circuit, h, batch, initial)))
    ready = []
    for name, call in calls:
        for _ in range(3):
            energies, grad = call()
        start = time.perf_counter()
        call()
        ready.append({"case": name, "digest": hashlib.sha256(
            np.asarray(energies).tobytes() + grad.tobytes()).hexdigest()[:16],
            "warm_s": time.perf_counter() - start})
    print(json.dumps(ready), flush=True)
    for line in sys.stdin:
        case, count = map(int, line.split())
        seconds = []
        for _ in range(count):
            start = time.perf_counter()
            calls[case][1]()
            seconds.append(time.perf_counter() - start)
        print(json.dumps(statistics.median(seconds) * 1e3), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="the parent checkout's src")
    parser.add_argument("--change", help="the changed checkout's src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    if args.rounds < 10:
        parser.error("--rounds must be at least 10")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    from run import THREAD_PINS, environment

    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    sides = {}
    for side in ("parent", "change"):
        sides[side] = subprocess.Popen(
            [sys.executable, __file__, "--worker",
             str(Path(getattr(args, side)).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **THREAD_PINS})
    try:
        ready = {side: json.loads(proc.stdout.readline())
                 for side, proc in sides.items()}
        names = [case["case"] for case in ready["parent"]]
        counts = [max(2, round(BURST_S / case["warm_s"]))
                  for case in ready["parent"]]
        ms = {side: [[] for _ in names] for side in sides}
        for round_ in range(args.rounds):
            order = ["parent", "change"][::1 if round_ % 2 == 0 else -1]
            for case, count in enumerate(counts):
                for side in order:
                    sides[side].stdin.write(f"{case} {count}\n")
                    sides[side].stdin.flush()
                    ms[side][case].append(
                        json.loads(sides[side].stdout.readline()))
    finally:
        for proc in sides.values():
            proc.stdin.close()
            proc.wait()
    results = []
    for case, name in enumerate(names):
        ratios = [c / p for c, p in zip(ms["change"][case],
                                        ms["parent"][case])]
        q1, median, q3 = statistics.quantiles(ratios, n=4,
                                              method="inclusive")
        digests = {side: ready[side][case]["digest"] for side in sides}
        result = {"case": name, "evaluations_per_burst": counts[case],
                  "parent_ms": statistics.median(ms["parent"][case]),
                  "change_ms": statistics.median(ms["change"][case]),
                  "ratio": {"median": median, "q1": q1, "q3": q3},
                  "change_wins": sum(r < 1 for r in ratios),
                  "rounds": args.rounds, "digests": digests}
        results.append(result)
        print(f"{name:<13} parent {result['parent_ms']:.4f} ms  change "
              f"{result['change_ms']:.4f} ms  ratio {median:.3f} "
              f"({q1:.3f}, {q3:.3f})  change won {result['change_wins']}/"
              f"{args.rounds}  digests "
              f"{'equal' if len(set(digests.values())) == 1 else 'DIFFER'}",
              flush=True)
    print(json.dumps({"machine": machine, "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
