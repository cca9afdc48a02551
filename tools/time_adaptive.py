"""Timings of adaptive growth: whole ADAPT runs with their plan-compile
share, and the pool builds they start from, each the median over repeats.

    PYTHONPATH=src python3 tools/time_adaptive.py [--repeats 7]

ADAPT cases: adapt_vqe to convergence from the HF state on H4 @ 1.0,
H4 @ 1.8 and LiH @ 1.6, each from a freshly built fermionic pool, as
bench.run_ansatz_point does.  The compile share is the time spent in
simulator._steps and simulator._restrict (which builds the sector table),
found by wrapping the two (timing.timed); every commit that has them
therefore times the same work.  Pool cases: build_fermionic_pool,
build_qubit_pool on it and the fermionic pool's candidate_circuit, on H4
and LiH, timed one after the other from scratch each repeat.  Each ADAPT
case prints its final energy (repr) and each pool case its sizes next to
the timings, so a change that alters answers shows.  The machine block
is the one perfbench/run.py prints, with the same thread pins; the last
line is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import THREAD_PINS, environment  # noqa: E402

os.environ.update(THREAD_PINS)

from vqe_bench.ansatz import adaptive  # noqa: E402
from vqe_bench.hamiltonian import (  # noqa: E402
    bundled_molecule,
    hf_state_index,
    qubit_hamiltonian,
)
from timing import quartiles, timed  # noqa: E402

ADAPT_CASES = (("H4", 1.0), ("H4", 1.8), ("LiH", 1.6))
POOL_CASES = (("H4", 1.0), ("LiH", 1.6))  # the sizes are what matter
COMPILE = ("_steps", "_restrict")


def time_adapt(molecule: str, bond_length: float, repeats: int) -> dict:
    data = bundled_molecule(molecule).integrals(bond_length)
    h, n = qubit_hamiltonian(data), data.n_qubits
    initial = hf_state_index(n, data.n_electrons)
    energy = None
    samples = {"run_ms": [], "compile_ms": []}
    for repeat in range(repeats + 1):  # the first run compiles h: untimed
        pool = adaptive.build_fermionic_pool(n, data.n_electrons)
        sink: dict = {}
        with timed(COMPILE, sink):
            start = time.perf_counter()
            _, trace = adaptive.adapt_vqe(h, n, pool, initial_state=initial)
            total = time.perf_counter() - start
        if energy is not None and trace.final_energy != energy:
            raise RuntimeError(f"ADAPT {molecule}: energy changed")
        energy = trace.final_energy
        if repeat:
            samples["run_ms"].append(total * 1e3)
            samples["compile_ms"].append(sum(sink.values()) * 1e3)
    return {"case": f"ADAPT {molecule} @ {bond_length}", "repeats": repeats,
            "picks": len(trace.iterations), "energy": repr(energy),
            **{key: quartiles(values) for key, values in samples.items()}}


def time_pools(molecule: str, bond_length: float, repeats: int) -> dict:
    data = bundled_molecule(molecule).integrals(bond_length)
    n, n_electrons = data.n_qubits, data.n_electrons
    samples = {"fermionic_ms": [], "qubit_ms": [], "candidate_ms": []}
    for _ in range(repeats):
        ticks = [time.perf_counter()]
        fermionic = adaptive.build_fermionic_pool(n, n_electrons)
        ticks.append(time.perf_counter())
        qubit = adaptive.build_qubit_pool(fermionic, n)
        ticks.append(time.perf_counter())
        screen = fermionic.candidate_circuit(n)
        ticks.append(time.perf_counter())
        for key, begin, end in zip(samples, ticks, ticks[1:]):
            samples[key].append((end - begin) * 1e3)
    sizes = (f"{len(fermionic)} entries, {len(qubit)} strings, "
             f"{len(screen.gates)} gates")
    return {"case": f"pools {molecule}", "repeats": repeats, "sizes": sizes,
            **{key: quartiles(values) for key, values in samples.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    results = []
    for molecule, bond_length in ADAPT_CASES:
        result = time_adapt(molecule, bond_length, args.repeats)
        results.append(result)
        print(f"{result['case']:<16} energy {result['energy']:<20} "
              f"run_ms {result['run_ms']['median']:.2f}  "
              f"compile_ms {result['compile_ms']['median']:.2f}", flush=True)
    for molecule, bond_length in POOL_CASES:
        result = time_pools(molecule, bond_length, args.repeats)
        results.append(result)
        print(f"{result['case']:<16} {result['sizes']:<40} "
              + "  ".join(f"{key} {result[key]['median']:.2f}"
                          for key in ("fermionic_ms", "qubit_ms",
                                      "candidate_ms")), flush=True)
    print(json.dumps({"machine": machine, "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
