"""Brute-force dense-matrix oracles and test-only helpers shared by the
test suite.

The oracles build operators directly from occupation-number /
tensor-product rules, independent of the symbolic algebra they are used
to check; scipy_product is SciPy's own CSR product, the bit-level
reference for a compiled sum's.  The helpers (ladder factors, the number
operator, commutators, RY gates, the sqrt-iSWAP Givens decomposition)
are built from the package's public types, and runs_in_sector reads
the verdict of the plan the package compiles; the package itself never
calls them.  ladder_product reads one ladder product off the package's
templates, as the generators' mapping does.  operator_path_mapping and
fused_steps are the operator-by-operator mapping of a generator and the
gate-by-gate fusion rule that the package's one-pass forms replaced,
kept as their bit-level references.
"""

import math

import numpy as np
import scipy.sparse

from vqe_bench.ansatz.core import FERMIONIC_KINDS
from vqe_bench.operators import (
    FermionOperator,
    PauliString,
    QubitOperator,
    _add_ladder_terms,
    _qubit_operator,
    jordan_wigner,
    pauli_multiply,
    serialize_pauli_string,
)
from vqe_bench.simulator import (
    FIXED_KINDS,
    Gate,
    _FIXED_MATRICES,
    _circuit_plan,
    _flip,
    _generator,
    _Step,
    pauli_evolution,
)

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


def scipy_product(matrix, x: np.ndarray) -> np.ndarray:
    """A compiled sum's CSR arrays as a scipy.sparse.csr_array, times one
    vector or each row of a batch: scipy's csr_matvec and csr_matvecs."""
    csr = scipy.sparse.csr_array(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return csr @ x if x.ndim == 1 else np.ascontiguousarray((csr @ x.T).T)


def ladder_matrix(mode: int, dagger: bool, n_modes: int,
                  z_chain: bool = True) -> np.ndarray:
    """Fock-space matrix of a_mode / a†_mode with bit i = occupation of mode i;
    without z_chain, the bare qubit ladder |1><0| / |0><1| on that bit."""
    dim = 2 ** n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for state in range(dim):
        occupied = (state >> mode) & 1
        sign = (-1) ** bin(state & ((1 << mode) - 1)).count("1") if z_chain else 1
        if dagger and not occupied:
            mat[state | (1 << mode), state] = sign
        elif not dagger and occupied:
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


def creation(mode: int) -> FermionOperator:
    return FermionOperator({((mode, True),): 1.0})


def annihilation(mode: int) -> FermionOperator:
    return FermionOperator({((mode, False),): 1.0})


def number_operator(n_modes: int) -> FermionOperator:
    """Total number operator over the first n_modes modes."""
    return FermionOperator({((m, True), (m, False)): 1.0
                            for m in range(n_modes)})


def ladder_product(factors, coeff: complex = 1.0,
                   z_chain: bool = True) -> QubitOperator:
    """coeff times the product of (mode, is_creation) ladder images.

    a†_i -> (X_i - iY_i)/2 and a_i -> (X_i + iY_i)/2, each with Z on every
    qubit below i when z_chain (the Jordan-Wigner image) and bare otherwise
    (qubit excitations).
    """
    terms: dict = {}
    _add_ladder_terms(terms, factors, coeff, z_chain)
    return _qubit_operator(terms)


def operator_path_mapping(gen, n_qubits: int):
    """(T - T† on qubits, its gates) as a generator was mapped through
    whole operators: T as a FermionOperator and its jordan_wigner image,
    or a ladder product for qubit kinds, then the difference as a
    QubitOperator, each pruned as it is constructed."""
    factors = tuple((v, True) for v in gen.virtual)
    factors += tuple((o, False) for o in reversed(gen.occupied))
    if gen.kind in FERMIONIC_KINDS:
        t = FermionOperator.from_term(factors, gen.prefactor)
        t = jordan_wigner(t, n_qubits)
    else:
        t = ladder_product(factors, gen.prefactor, z_chain=False)
    op = QubitOperator({string: complex(0.0, 2.0 * c.imag)
                        for string, c in t.terms.items()})
    gates = tuple(
        pauli_evolution(string, gen.param_name, op.terms[string].imag)
        for string in sorted(op.terms, key=serialize_pauli_string))
    return op, gates


def _commute(strings, others) -> bool:
    """Whether every string commutes with every other: their symplectic
    products |x1 & z2| + |z1 & x2| are even."""
    return not any(((a.x & b.z) ^ (a.z & b.x)).bit_count() % 2
                   for a in strings for b in others)


def fused_steps(gates, param_names, start=()) -> tuple:
    """Gates compiled into steps after `start` by rebuilding the last
    step at every gate it fuses: a gate of the last step's parameter and
    flip mask whose strings commute with its strings replaces that step
    by one with the summed terms, zero sums dropped, and an empty step
    goes."""
    index = {name: k for k, name in enumerate(param_names)}
    steps = list(start)
    for gate in gates:
        if gate.kind in FIXED_KINDS:
            u = _FIXED_MATRICES[gate.kind]
            steps.append(_Step(-1, matrix=(gate.targets, u, u.conj().T)))
            continue
        terms = _generator(gate)
        if gate.param is None:
            steps.append(_Step(-1, gate.angle, tuple(terms.items())))
            continue
        name, prefactor = gate.param
        terms = {string: prefactor * coeff for string, coeff in terms.items()}
        last = steps[-1] if steps else None
        if (last is not None and last.param == index[name]
                and _flip(last) == next(iter(terms)).x
                and _commute(terms, [string for string, _ in last.terms])):
            fused = dict(last.terms)
            for string, coeff in terms.items():
                coeff = fused.get(string, 0.0) + coeff
                if coeff != 0:
                    fused[string] = coeff
                else:
                    fused.pop(string, None)
            steps.pop()
            terms = fused
        terms = tuple((string, coeff) for string, coeff in terms.items()
                      if coeff != 0)
        if terms:
            steps.append(_Step(index[name], 0.0, terms))
    return tuple(steps)


def multiply_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product of two Pauli strings as (exact phase in {1,i,-1,-i}, string),
    read off the operator product of the two one-term operators."""
    product = pauli_multiply(QubitOperator.from_term(a),
                             QubitOperator.from_term(b))
    ((string, phase),) = product.terms.items()
    return phase, string


def commutator(a: QubitOperator, b: QubitOperator) -> QubitOperator:
    return pauli_multiply(a, b) - pauli_multiply(b, a)


def isclose(a, b, tol: float = 1e-9) -> bool:
    """Two operators of one type agree term by term to within tol."""
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol
               for k in keys)


def number_expectation(amps: np.ndarray) -> float:
    """<N> for N = sum_i (1 - Z_i)/2: each basis state weighs its set bits."""
    weights = np.bitwise_count(np.arange(len(amps))).astype(float)
    return float(np.sum(np.abs(amps) ** 2 * weights))


def ry(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RY", (q,), param=(name, prefactor))


def givens_compilation(theta: float, qa: int = 0, qb: int = 1) -> tuple[Gate, ...]:
    """Five-gate decomposition of GivensRotation(theta) on (qa, qb): two
    sqrt-iSWAP gates and three fixed-angle Z rotations, exactly equal to
    the native two-level block."""
    return (
        Gate("SqrtISwap", (qa, qb)),
        Gate("RZ", (qa,), angle=math.pi - theta),
        Gate("RZ", (qb,), angle=theta),
        Gate("SqrtISwap", (qa, qb)),
        Gate("RZ", (qa,), angle=-math.pi),
    )


def runs_in_sector(circuit, initial: int) -> bool:
    """True when every step of the circuit maps the (N, 2Sz) sector of
    basis state `initial` into itself, so its plan runs in that sector."""
    return _circuit_plan(circuit, initial).basis is not None


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """The amplitudes of computational basis state |index>."""
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def circuit_unitary(circuit, values) -> np.ndarray:
    """Assemble the dense circuit matrix column by column, at angles in
    the circuit's param_names order."""
    from vqe_bench.simulator import apply_circuit

    dim = 2 ** circuit.n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        mat[:, col] = apply_circuit(circuit, values, col)
    return mat


def finite_difference_gradient(circuit, h, values, initial, step=1e-6):
    """Central finite differences of the circuit energy, per parameter,
    in param_names order."""
    from vqe_bench.simulator import apply_circuit, expectation

    grad = np.empty(circuit.n_params)
    for k in range(circuit.n_params):
        shifted = np.array(values, dtype=float)
        shifted[k] = values[k] + step
        plus = expectation(h, apply_circuit(circuit, shifted, initial))
        shifted[k] = values[k] - step
        minus = expectation(h, apply_circuit(circuit, shifted, initial))
        grad[k] = (plus - minus) / (2 * step)
    return grad


def pool_entry_finite_difference(h, state, entry, n_qubits, step=1e-5):
    """Central finite difference, at theta = 0, of the energy after the
    entry's generator gates run at a shared angle theta on the state."""
    from vqe_bench.simulator import apply_gates, expectation

    gates = [gate for gen in entry.generators
             for gate in gen.gates(n_qubits)]
    plus = expectation(h, apply_gates(state, gates, [step]))
    minus = expectation(h, apply_gates(state, gates, [-step]))
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
    return ParamCircuit(n_qubits, gates)


def random_string(rng, n_qubits, min_size=0):
    """A Pauli string on a random set of at least min_size qubits."""
    from vqe_bench.operators import PauliString

    size = int(rng.integers(min_size, n_qubits + 1))
    qubits = rng.choice(n_qubits, size=size, replace=False)
    return PauliString(tuple(sorted(
        (int(q), str(rng.choice(list("XYZ")))) for q in qubits)))


def random_values(rng, circuit):
    """Angles in param_names order, one uniform draw per parameter."""
    return np.array([float(rng.uniform(-np.pi, np.pi))
                     for _ in circuit.param_names])


def random_hermitian_operator(rng, n_qubits, n_terms):
    from vqe_bench.operators import QubitOperator

    terms = {}
    for _ in range(n_terms):
        string = random_string(rng, n_qubits)
        terms[string] = terms.get(string, 0.0) + float(rng.normal())
    return QubitOperator(terms)


_FIXED_GATES = {
    "X": _SINGLE["X"],
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex),
    "SqrtISwap": np.array([[np.sqrt(2), 0, 0, 0], [0, 1, 1j, 0],
                           [0, 1j, 1, 0], [0, 0, 0, np.sqrt(2)]],
                          dtype=complex) / np.sqrt(2),
}
_GIVENS_GENERATOR = np.array([[0, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0],
                              [0, 0, 0, 0]], dtype=complex)


def apply_local(psi, n_qubits, targets, matrix):
    """A matrix over the target qubits (the first target the high bit of
    its row index) applied to a 2**n state, by tensor contraction."""
    axes = [n_qubits - 1 - q for q in targets]
    moved = np.moveaxis(psi.reshape((2,) * n_qubits), axes,
                        range(len(targets)))
    out = (matrix @ moved.reshape(len(matrix), -1)).reshape(moved.shape)
    return np.moveaxis(out, range(len(targets)), axes).reshape(-1)


def apply_pauli(string, psi, n_qubits):
    for qubit, axis in string.ops:
        psi = apply_local(psi, n_qubits, (qubit,), _SINGLE[axis])
    return psi


def apply_gate(gate, angle, psi, n_qubits, inverse=False):
    """U psi (U^dagger psi if inverse) for one gate at a resolved angle."""
    if gate.kind in _FIXED_GATES:
        u = _FIXED_GATES[gate.kind]
        return apply_local(psi, n_qubits, gate.targets,
                           u.conj().T if inverse else u)
    if inverse:
        angle = -angle
    if gate.kind == "PauliEvolution":  # exp(i a P) = cos a + i sin a P
        return (np.cos(angle) * psi + 1j * np.sin(angle)
                * apply_pauli(gate.generator, psi, n_qubits))
    if gate.kind == "GivensRotation":
        c, s = np.cos(angle), np.sin(angle)
        u = np.eye(4, dtype=complex) + s * _GIVENS_GENERATOR
        u[1, 1] = u[2, 2] = c
        return apply_local(psi, n_qubits, gate.targets, u)
    sigma = _SINGLE[gate.kind[1]]  # exp(-i a sigma / 2)
    u = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma
    return apply_local(psi, n_qubits, gate.targets, u)


def apply_generator(gate, psi, n_qubits):
    """G psi with dU/d(angle) = G U."""
    if gate.kind == "PauliEvolution":
        return 1j * apply_pauli(gate.generator, psi, n_qubits)
    if gate.kind == "GivensRotation":
        return apply_local(psi, n_qubits, gate.targets, _GIVENS_GENERATOR)
    return -0.5j * apply_local(psi, n_qubits, gate.targets,
                               _SINGLE[gate.kind[1]])


def _resolved_angle(gate, values):
    if gate.param is None:
        return gate.angle
    return gate.param[1] * values[gate.param[0]]


def _by_name(circuit, values) -> dict:
    """Angles in param_names order as {name: angle}."""
    assert len(values) == circuit.n_params
    return dict(zip(circuit.param_names, values))


def circuit_state(circuit, values, initial):
    """The circuit's state from basis state `initial`, gate by gate over
    the full space."""
    values = _by_name(circuit, values)
    psi = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    psi[initial] = 1.0
    for gate in circuit.gates:
        psi = apply_gate(gate, _resolved_angle(gate, values), psi,
                         circuit.n_qubits)
    return psi


def energy_gradient(circuit, h, values, initial):
    """Energy and dE/d(parameter) gate by gate over the full space: no
    fusion, no sector, h applied term by term; the gradient is the
    textbook adjoint sweep over these per-gate actions; the gradient in
    param_names order."""
    n = circuit.n_qubits
    psi = circuit_state(circuit, values, initial)
    values = _by_name(circuit, values)
    lam = sum(coeff * apply_pauli(string, psi, n)
              for string, coeff in h.terms.items())
    energy = np.vdot(psi, lam).real
    grad = {name: 0.0 for name in circuit.param_names}
    for gate in reversed(circuit.gates):
        a = _resolved_angle(gate, values)
        if gate.param is not None:
            name, prefactor = gate.param
            grad[name] += prefactor * 2.0 * np.vdot(
                lam, apply_generator(gate, psi, n)).real
        psi = apply_gate(gate, a, psi, n, inverse=True)
        lam = apply_gate(gate, a, lam, n, inverse=True)
    return energy, np.array([grad[name] for name in circuit.param_names])
