"""Per-evaluation timings of the plan kernel: forward sweep, h product and
reverse sweep, each the median over repeated evaluations.

    PYTHONPATH=src python3 tools/time_kernel.py [--repeats 50]

Cases: LiH @ 1.6 UCCSD and H4 @ 1.0 UCCSD on one vector, and H4 @ 1.0 BRC
in a batch of 20 rows, timed per row: plans over the (N, 2Sz) sector.
Then H4 @ 1.0 UCCSD cut to its first 1, 4 and 16 generators, the sizes
of ADAPT's circuits, whose evaluations are mostly per-call overhead.
Then plans over all 2**n states: HEA of depth 4 and LDCA with the
sweep's cycle count, on H4 @ 1.0 and LiH @ 1.6, each on one vector and
in a batch of 10 rows.  An evaluation is one simulator.adjoint_gradient
call, at one vector of angles or at a batch of rows.  The tool times the
kernel inside it by wrapping simulator._forward, simulator._adjoint (h
product, then reverse sweep) and simulator._reverse (timing.timed); the
h product is the _adjoint time less the _reverse time.  Every run of
this file on any commit that has those three functions and this
adjoint_gradient therefore times the same work.  Each case prints its
energy (first row) and a digest of every row's energy and gradient
bytes next to its timings, so a change that alters answers shows.  The
machine block is the one perfbench/run.py prints, with the same thread
pins; the last line is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import THREAD_PINS, environment  # noqa: E402

os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

from vqe_bench import simulator  # noqa: E402
from vqe_bench.ansatz import (  # noqa: E402
    AnsatzBuild,
    build_uccsd_singlet,
    trotterize,
    uccsd_singlet_generators,
)
from vqe_bench.ansatz.core import ZEROS  # noqa: E402
from vqe_bench.ansatz.layered import (  # noqa: E402
    build_brc_closed_shell,
    build_hea,
    build_ldca,
)
from vqe_bench.bench import DEFAULT_LDCA_CYCLES  # noqa: E402
from vqe_bench.hamiltonian import (  # noqa: E402
    bundled_molecule,
    hf_state_index,
    qubit_hamiltonian,
)
from timing import quartiles, timed  # noqa: E402


def hea(n_qubits, _):
    return build_hea(n_qubits, 4)


def ldca(n_qubits, _):
    return build_ldca(n_qubits, DEFAULT_LDCA_CYCLES)


def uccsd_prefix(k):
    """A builder of UCCSD's first k generators."""
    def build(n_qubits, n_electrons):
        gens = uccsd_singlet_generators(n_qubits, n_electrons)[:k]
        return AnsatzBuild(trotterize(gens, n_qubits), ZEROS)
    return build


CASES = (  # name, molecule, bond length, builder, batch rows (0: one vector)
    ("LiH UCCSD", "LiH", 1.6, build_uccsd_singlet, 0),
    ("H4 UCCSD", "H4", 1.0, build_uccsd_singlet, 0),
    ("H4 BRC x20", "H4", 1.0, build_brc_closed_shell, 20),
    ("H4 UCCSD[:1]", "H4", 1.0, uccsd_prefix(1), 0),
    ("H4 UCCSD[:4]", "H4", 1.0, uccsd_prefix(4), 0),
    ("H4 UCCSD[:16]", "H4", 1.0, uccsd_prefix(16), 0),
    ("H4 HEA4", "H4", 1.0, hea, 0),
    ("H4 HEA4 x10", "H4", 1.0, hea, 10),
    ("H4 LDCA", "H4", 1.0, ldca, 0),
    ("H4 LDCA x10", "H4", 1.0, ldca, 10),
    ("LiH HEA4", "LiH", 1.6, hea, 0),
    ("LiH HEA4 x10", "LiH", 1.6, hea, 10),
    ("LiH LDCA", "LiH", 1.6, ldca, 0),
    ("LiH LDCA x10", "LiH", 1.6, ldca, 10),
)
WARMUP = 3  # evaluations before timing: plan and matrix compiles


def run_case(name, molecule, bond_length, builder, rows, repeats) -> dict:
    data = bundled_molecule(molecule).integrals(bond_length)
    h = qubit_hamiltonian(data)
    circuit = builder(data.n_qubits, data.n_electrons).circuit
    initial = hf_state_index(data.n_qubits, data.n_electrons)
    rng = np.random.default_rng(7)
    angles = rng.uniform(-np.pi, np.pi, (max(rows, 1), circuit.n_params))
    batch = angles if rows else angles[0]

    def evaluate() -> float:
        energy = simulator.adjoint_gradient(circuit, h, batch, initial)[0]
        return float(energy[0]) if rows else energy

    for _ in range(WARMUP):
        energy = evaluate()
    energies, grad = simulator.adjoint_gradient(circuit, h, batch, initial)
    digest = hashlib.sha256(np.asarray(energies).tobytes()
                            + grad.tobytes()).hexdigest()[:16]
    per_row = max(rows, 1) / 1e3  # seconds per evaluation -> ms per row
    samples = {"forward_ms": [], "h_product_ms": [], "reverse_ms": [],
               "evaluation_ms": []}
    for _ in range(repeats):
        sink: dict = {}
        with timed(("_forward", "_adjoint", "_reverse"), sink):
            start = time.perf_counter()
            if evaluate() != energy:
                raise RuntimeError(f"{name}: energy changed between runs")
            total = time.perf_counter() - start
        samples["forward_ms"].append(sink["_forward"] / per_row)
        samples["h_product_ms"].append(
            (sink["_adjoint"] - sink["_reverse"]) / per_row)
        samples["reverse_ms"].append(sink["_reverse"] / per_row)
        samples["evaluation_ms"].append(total / per_row)
    return {"case": name, "rows": max(rows, 1), "repeats": repeats,
            "energy": repr(energy), "digest": digest,
            **{key: quartiles(values) for key, values in samples.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args(argv)
    if args.repeats < 20:
        parser.error("--repeats must be at least 20")
    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    results = []
    for case in CASES:
        result = run_case(*case, args.repeats)
        results.append(result)
        print(f"{result['case']:<13} energy {result['energy']:<20} "
              f"{result['digest']}  "
              + "  ".join(f"{key} {result[key]['median']:.4f}"
                          for key in ("forward_ms", "h_product_ms",
                                      "reverse_ms", "evaluation_ms")),
              flush=True)
    print(json.dumps({"machine": machine, "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
