"""Timings of the structures a point is built from: the Hamiltonian's
fermionic form, its Jordan-Wigner image and the two together, the
UCCSD, UCCSD0 and QUCC builds, the fermionic ADAPT pool's screening
circuit, the sector plan of each of those four circuits and the
Hamiltonian's matrix over that sector and over all 2**n states, each the
median (q1, q3) over repeats.

    PYTHONPATH=src python3 tools/time_build.py [--repeats 7]

Cases: H4 @ 1.0 and LiH @ 1.6.  Each repeat makes every piece from
scratch, in the order listed, and so maps every generator afresh:
build_fermionic_hamiltonian on the integrals, jordan_wigner on that
operator, qubit_hamiltonian on the integrals, build_uccsd_singlet,
build_uccsd0, build_qucc and build_fermionic_pool(...).candidate_circuit,
which maps the pool's generators at first use; then, for each of those
four circuits as this repeat made it, simulator._circuit_plan from the
Hartree-Fock state (its steps restricted to the state's sector, the
Pauli-string kernel weighing every step over all 2**n states); and last
pauli_sum_matrix of the Hamiltonian over that sector, the matrix a
sector plan's energy and gradient use, then over all 2**n states, the
one a full-space plan uses.  Each piece prints its size
(terms; gates of a build's or the pool's circuit; rows of a plan's
table; stored entries of a matrix) and a digest of what it made, in
order and with the reprs of every coefficient or binding or the bytes
of every array, next to its timings, so a change that alters answers
shows.  The machine block is the one perfbench/run.py prints, with the
same thread pins; the last line is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import THREAD_PINS, environment  # noqa: E402

os.environ.update(THREAD_PINS)

from vqe_bench.ansatz import (  # noqa: E402
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
)
from vqe_bench.ansatz.adaptive import build_fermionic_pool  # noqa: E402
from vqe_bench.hamiltonian import (  # noqa: E402
    build_fermionic_hamiltonian,
    bundled_molecule,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import (  # noqa: E402
    jordan_wigner,
    serialize_pauli_string,
)
from vqe_bench.simulator import (  # noqa: E402
    _circuit_plan,
    _state_sector,
    pauli_sum_matrix,
    sector_indices,
)
from timing import quartiles  # noqa: E402

CASES = (("H4", 1.0), ("LiH", 1.6))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _terms(op) -> tuple[int, str]:
    """Size and digest of an operator's terms, in order."""
    return len(op.terms), _digest(
        f"{key if isinstance(key, tuple) else serialize_pauli_string(key)} "
        f"{coeff.real!r} {coeff.imag!r}" for key, coeff in op.terms.items())


def _gates(gates) -> tuple[int, str]:
    """Size and digest of a gate sequence, in order."""
    return len(gates), _digest(
        f"{g.kind} {g.targets} {g.generator} {g.param!r} {g.angle!r}"
        for g in gates)


def _arrays(arrays) -> str:
    """Digest of arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(f"{array.dtype} {array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _plan(plan) -> tuple[int, str]:
    """Rows of a sector plan's table, and a digest of its basis and of
    every step's parameter and (rows, cols, |w|, w)."""
    if plan.basis is None:
        raise ValueError("the circuit left its initial state's sector")
    return len(plan.table.r), _arrays([plan.basis] + [
        array for step in plan.steps
        for array in (np.array([step.param]), *step.pairs)])


def _matrix(matrix) -> tuple[int, str]:
    """Stored entries of a compiled sum and a digest of its CSR arrays."""
    return matrix.nnz, _arrays((matrix.data, matrix.indices, matrix.indptr))


def time_case(molecule: str, bond_length: float, repeats: int) -> dict:
    data = bundled_molecule(molecule).integrals(bond_length)
    n, n_electrons = data.n_qubits, data.n_electrons
    fermionic = build_fermionic_hamiltonian(data)
    hf = hf_state_index(n, n_electrons)
    h = qubit_hamiltonian(data)
    sector = sector_indices(n, *_state_sector(hf))
    made = {}
    pieces = {  # name: (make, size and digest of what it made, size unit)
        "build_fermionic_hamiltonian": (
            lambda: build_fermionic_hamiltonian(data), _terms, "terms"),
        "jordan_wigner": (lambda: jordan_wigner(fermionic, n), _terms,
                          "terms"),
        "qubit_hamiltonian": (lambda: qubit_hamiltonian(data), _terms,
                              "terms"),
        **{f"build {family}": (
            lambda builder=builder: builder(n, n_electrons),
            lambda build: _gates(build.circuit.gates), "gates")
           for family, builder in (("UCCSD", build_uccsd_singlet),
                                   ("UCCSD0", build_uccsd0),
                                   ("QUCC", build_qucc))},
        "fermionic pool circuit": (
            lambda: build_fermionic_pool(n, n_electrons).candidate_circuit(n),
            lambda circuit: _gates(circuit.gates), "gates"),
        **{f"compile {name.removeprefix('build ')}": (
            # this repeat's circuit, made just before, so no plan is cached:
            # a build's circuit, or the pool's circuit itself
            lambda name=name: _circuit_plan(
                getattr(made[name], "circuit", made[name]), hf),
            _plan, "rows")
           for name in ("build UCCSD", "build UCCSD0", "build QUCC",
                        "fermionic pool circuit")},
        "compile H over the sector": (
            lambda: pauli_sum_matrix(h, n, sector), _matrix, "entries"),
        "compile H over all states": (
            lambda: pauli_sum_matrix(h, n), _matrix, "entries"),
    }
    samples = {name: [] for name in pieces}
    for _ in range(repeats):
        for name, (make, _, _) in pieces.items():
            start = time.perf_counter()
            made[name] = make()
            samples[name].append((time.perf_counter() - start) * 1e3)
    results = {}
    for name, (_, describe, unit) in pieces.items():
        size, digest = describe(made[name])
        results[name] = {unit: size, "digest": digest,
                         "ms": quartiles(samples[name])}
    return {"case": f"{molecule} @ {bond_length}", "repeats": repeats,
            "pieces": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    results = []
    for molecule, bond_length in CASES:
        result = time_case(molecule, bond_length, args.repeats)
        results.append(result)
        for name, piece in result["pieces"].items():
            size = " ".join(f"{piece[unit]} {unit}" for unit in
                            ("terms", "gates", "rows", "entries")
                            if unit in piece)
            print(f"{result['case']:<10} {name:<33} {size:<15} "
                  f"{piece['digest']}  ms {piece['ms']['median']:.2f} "
                  f"({piece['ms']['q1']:.2f}, {piece['ms']['q3']:.2f})",
                  flush=True)
    print(json.dumps({"machine": machine, "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
