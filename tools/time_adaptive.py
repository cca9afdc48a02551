"""Timings of adaptive growth: whole ADAPT and QCC runs with their
plan-compile and forward-sweep shares, and the pool builds they start
from, each the median over repeats.

    PYTHONPATH=src python3 tools/time_adaptive.py [--repeats 7]

ADAPT cases: adapt_vqe to convergence from the HF state on H4 @ 1.0,
H4 @ 1.8 and LiH @ 1.6, each from a freshly built fermionic pool, as
bench.run_ansatz_point does.  QCC cases: qcc_optimize from the HF state
over the full qubit pool, built afresh each run, on H4 @ 1.0 with its
default stops and on LiH @ 1.6 with max_entanglers=3.  The compile share
is the time spent in simulator._steps and simulator._restrict (which
builds the sector table), the forward share the time in
simulator._forward (every forward sweep: screening and re-optimization),
both found by wrapping those functions (timing.timed), which also counts
the forward sweeps; every commit that has them therefore times the same
work.  Pool cases:
build_fermionic_pool, build_qubit_pool on it and the fermionic pool's
candidate_circuit, on H4 and LiH, timed one after the other from scratch
each repeat.  Each growth case prints its pick count and final energy
(repr), and its JSON lists the picks; each pool case prints its sizes
next to the timings, so a change that alters answers shows.  The
machine block is the one perfbench/run.py prints, with the same thread
pins; the last line is the result as JSON.
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

# (family, molecule, bond length, keyword arguments)
GROWTH_CASES = (("ADAPT", "H4", 1.0, {}), ("ADAPT", "H4", 1.8, {}),
                ("ADAPT", "LiH", 1.6, {}), ("QCC", "H4", 1.0, {}),
                ("QCC", "LiH", 1.6, {"max_entanglers": 3}))
POOL_CASES = (("H4", 1.0), ("LiH", 1.6))  # the sizes are what matter
COMPILE = ("_steps", "_restrict")
FORWARD = ("_forward",)


def time_growth(family: str, molecule: str, bond_length: float,
                kwargs: dict, repeats: int) -> dict:
    data = bundled_molecule(molecule).integrals(bond_length)
    h, n = qubit_hamiltonian(data), data.n_qubits
    initial = hf_state_index(n, data.n_electrons)
    answer = None
    samples = {"run_ms": [], "compile_ms": [], "forward_ms": []}
    for repeat in range(repeats + 1):  # the first run compiles h: untimed
        pool = adaptive.build_fermionic_pool(n, data.n_electrons)
        grow = adaptive.adapt_vqe
        if family == "QCC":
            pool = adaptive.build_qubit_pool(pool, n)
            grow = adaptive.qcc_optimize
        sink: dict = {}
        with timed(COMPILE + FORWARD, sink):
            start = time.perf_counter()
            _, trace = grow(h, n, pool, initial_state=initial, **kwargs)
            total = time.perf_counter() - start
        picks = [it.chosen_label for it in trace.iterations]
        sweeps = sink.get("_forward calls", 0)  # the same on every run
        if answer is not None and (picks, trace.final_energy) != answer:
            raise RuntimeError(f"{family} {molecule}: answer changed")
        answer = picks, trace.final_energy
        if repeat:
            samples["run_ms"].append(total * 1e3)
            samples["compile_ms"].append(
                sum(sink.get(name, 0.0) for name in COMPILE) * 1e3)
            samples["forward_ms"].append(sink.get("_forward", 0.0) * 1e3)
    return {"case": f"{family} {molecule} @ {bond_length}",
            "repeats": repeats, "options": kwargs, "picks": picks,
            "energy": repr(trace.final_energy), "forward_calls": sweeps,
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
    for case in GROWTH_CASES:
        result = time_growth(*case, args.repeats)
        results.append(result)
        print(f"{result['case']:<16} picks {len(result['picks']):<3} "
              f"energy {result['energy']:<20} "
              f"sweeps {result['forward_calls']:<4} "
              + "  ".join(f"{key} {result[key]['median']:.2f}"
                          for key in ("run_ms", "compile_ms", "forward_ms")),
              flush=True)
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
