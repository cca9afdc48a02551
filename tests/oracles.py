"""Brute-force dense-matrix oracles shared by the test suite.

These build operators directly from occupation-number / tensor-product
rules, independent of the symbolic algebra they are used to check.
"""

import numpy as np

from vqe_bench.operators import FermionOperator, PauliString, QubitOperator

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(string: PauliString, n_qubits: int) -> np.ndarray:
    """Dense matrix with qubit 0 as the least-significant bit."""
    mat = np.ones((1, 1), dtype=complex)
    for qubit in range(n_qubits - 1, -1, -1):
        axis = string.axis_on(qubit) or "I"
        mat = np.kron(mat, _SINGLE[axis])
    return mat


def qubit_operator_matrix(op: QubitOperator, n_qubits: int) -> np.ndarray:
    dim = 2 ** n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for string, coeff in op.terms.items():
        mat += coeff * pauli_matrix(string, n_qubits)
    return mat


def ladder_matrix(mode: int, dagger: bool, n_modes: int) -> np.ndarray:
    """Fock-space matrix of a_mode / a†_mode with bit i = occupation of mode i."""
    dim = 2 ** n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        occupied = (state >> mode) & 1
        if dagger and not occupied:
            sign = (-1) ** bin(state & ((1 << mode) - 1)).count("1")
            mat[state | (1 << mode), state] = sign
        elif not dagger and occupied:
            sign = (-1) ** bin(state & ((1 << mode) - 1)).count("1")
            mat[state & ~(1 << mode), state] = sign
    return mat


def fermion_operator_matrix(op: FermionOperator, n_modes: int) -> np.ndarray:
    dim = 2 ** n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for key, coeff in op.terms.items():
        term = np.eye(dim, dtype=complex)
        for mode, dagger in key:
            term = term @ ladder_matrix(mode, dagger, n_modes)
        mat += coeff * term
    return mat


def circuit_unitary(circuit, values) -> np.ndarray:
    """Assemble the dense circuit matrix column by column."""
    from vqe_bench.simulator import apply_circuit

    dim = 2 ** circuit.n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        mat[:, col] = apply_circuit(circuit, values, col).amplitudes
    return mat


def finite_difference_gradient(circuit, h, values, initial, step=1e-6):
    """Central finite differences of the circuit energy, per parameter."""
    from vqe_bench.simulator import apply_circuit, expectation

    grad = {}
    for name in circuit.param_names:
        shifted = dict(values)
        shifted[name] = values[name] + step
        plus = expectation(h, apply_circuit(circuit, shifted, initial))
        shifted[name] = values[name] - step
        minus = expectation(h, apply_circuit(circuit, shifted, initial))
        grad[name] = (plus - minus) / (2 * step)
    return grad


def pool_entry_finite_difference(h, state, entry, n_qubits, step=1e-5):
    """Central finite difference, at theta = 0, of the energy after the
    entry's generator gates run at a shared angle theta on the state."""
    from vqe_bench.ansatz.core import generator_gates
    from vqe_bench.simulator import apply_gates, expectation

    gates = [gate for gen in entry.generators
             for gate in generator_gates(gen, n_qubits)]
    name = entry.generators[0].param_name
    plus = expectation(h, apply_gates(state, gates, {name: step}))
    minus = expectation(h, apply_gates(state, gates, {name: -step}))
    return (plus - minus) / (2 * step)


def random_circuit(rng, n_qubits, n_params, n_gates):
    """Random mixed-gate circuit; parameters may be shared across gates."""
    from vqe_bench.operators import PauliString
    from vqe_bench.simulator import Gate, ParamCircuit

    names = [f"t{i}" for i in range(n_params)]
    gates = []
    used = set()
    while len(gates) < n_gates or used != set(names):
        kind = rng.choice(["RX", "RY", "RZ", "PauliEvolution", "CNOT",
                           "GivensRotation", "SqrtISwap", "X", "H"])
        if kind in ("CNOT", "SqrtISwap"):
            qa, qb = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate(kind, (int(qa), int(qb))))
            continue
        if kind in ("X", "H"):
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),)))
            continue
        name = names[int(rng.integers(n_params))]
        prefactor = float(rng.choice([-1.0, 1.0, 0.5, 2.0]))
        used.add(name)
        if kind == "PauliEvolution":
            size = int(rng.integers(1, min(3, n_qubits) + 1))
            qubits = rng.choice(n_qubits, size=size, replace=False)
            ops = tuple(sorted((int(q), str(rng.choice(list("XYZ"))))
                               for q in qubits))
            gates.append(Gate(kind, tuple(q for q, _ in ops),
                              generator=PauliString(ops),
                              param=(name, prefactor)))
        elif kind == "GivensRotation":
            qa, qb = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate(kind, (int(qa), int(qb)),
                              param=(name, prefactor)))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),),
                              param=(name, prefactor)))
    return ParamCircuit.from_gates(n_qubits, gates)


def random_values(rng, circuit):
    return {name: float(rng.uniform(-np.pi, np.pi))
            for name in circuit.param_names}


def random_hermitian_operator(rng, n_qubits, n_terms):
    from vqe_bench.operators import PauliString, QubitOperator

    terms = {}
    for _ in range(n_terms):
        size = int(rng.integers(0, n_qubits + 1))
        qubits = rng.choice(n_qubits, size=size, replace=False)
        ops = tuple(sorted((int(q), str(rng.choice(list("XYZ"))))
                           for q in qubits))
        string = PauliString(ops)
        terms[string] = terms.get(string, 0.0) + float(rng.normal())
    return QubitOperator(terms)
