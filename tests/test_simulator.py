import math

import numpy as np
import pytest
import scipy.linalg

from vqe_bench.ansatz.adaptive import build_fermionic_pool, build_qubit_pool
from vqe_bench.operators import PauliString, QubitOperator, parse_pauli_string
from vqe_bench.simulator import (
    Gate,
    ParamCircuit,
    StateVector,
    adjoint_gradient,
    apply_circuit,
    apply_pauli_evolution,
    commutator_gradient,
    expectation,
    number_expectation,
    parameter_shift_gradient,
    pauli_evolution,
    ry,
)
from oracles import (
    circuit_unitary,
    finite_difference_gradient,
    pauli_matrix,
    qubit_operator_matrix,
    random_circuit,
    random_hermitian_operator,
    random_values,
)


def qo(text, coeff=1.0):
    return QubitOperator.from_term(parse_pauli_string(text), coeff)


def empty_circuit(n):
    return ParamCircuit(n, (), ())


class TestApplyCircuit:
    def test_empty_circuit_keeps_basis_state(self):
        state = apply_circuit(empty_circuit(3), {}, 0)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected)

    def test_ry_pi_flips_qubit(self):
        circuit = ParamCircuit.from_gates(1, [ry(0, "t")])
        state = apply_circuit(circuit, {"t": math.pi}, 0)
        np.testing.assert_allclose(np.abs(state.amplitudes), [0.0, 1.0],
                                   atol=1e-15)

    def test_pauli_evolution_analytic(self):
        circuit = ParamCircuit.from_gates(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        state = apply_circuit(circuit, {"t": 0.3}, 0)
        np.testing.assert_allclose(
            state.amplitudes,
            [math.cos(0.3), 1j * math.sin(0.3)], atol=1e-15)

    def test_missing_parameter_value(self):
        circuit = ParamCircuit.from_gates(1, [ry(0, "t")])
        with pytest.raises(ValueError, match="missing parameter"):
            apply_circuit(circuit, {}, 0)

    def test_degenerate_gate_construction_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError, match="generator"):
            Gate("PauliEvolution", (0, 1), param=("t", 1.0))
        with pytest.raises(ValueError, match="match the"):
            Gate("PauliEvolution", (0, 2),
                 generator=parse_pauli_string("X0 Y1"), param=("t", 1.0))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            circuit = random_circuit(rng, 4, 5, 25)
            state = apply_circuit(circuit, random_values(rng, circuit),
                                  int(rng.integers(16)))
            assert abs(state.norm() - 1.0) < 1e-10

    def test_random_circuits_are_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            circuit = random_circuit(rng, n, 4, 12)
            u = circuit_unitary(circuit, random_values(rng, circuit))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n),
                                       atol=1e-10)


class TestExpectation:
    def test_z_on_zero_state(self):
        assert expectation(qo("Z0"), StateVector.basis_state(1, 0)) == 1.0

    def test_x_on_plus_state(self):
        circuit = ParamCircuit(1, (Gate("H", (0,)),), ())
        state = apply_circuit(circuit, {}, 0)
        assert abs(expectation(qo("X0"), state) - 1.0) < 1e-12

    def test_imaginary_residue_raises(self):
        state = apply_circuit(ParamCircuit(1, (Gate("H", (0,)),), ()), {}, 0)
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(qo("X0", 1j), state)

    def test_linear_in_operator_and_phase_invariant(self):
        rng = np.random.default_rng(3)
        circuit = random_circuit(rng, 3, 4, 10)
        values = random_values(rng, circuit)
        state = apply_circuit(circuit, values, 5)
        a = random_hermitian_operator(rng, 3, 4)
        b = random_hermitian_operator(rng, 3, 4)
        lhs = expectation(a + b, state)
        assert abs(lhs - expectation(a, state) - expectation(b, state)) < 1e-10
        phased = StateVector(3, np.exp(0.77j) * state.amplitudes)
        assert abs(expectation(a, phased) - expectation(a, state)) < 1e-10


class TestAdjointGradient:
    def test_single_ry_analytic(self):
        circuit = ParamCircuit.from_gates(1, [ry(0, "t")])
        for theta in (0.0, 0.3, -1.2, 2.9):
            energy, grad = adjoint_gradient(circuit, qo("Z0"), {"t": theta}, 0)
            assert abs(energy - math.cos(theta)) < 1e-12
            assert abs(grad["t"] + math.sin(theta)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            circuit = random_circuit(rng, n, int(rng.integers(2, 7)), 18)
            values = random_values(rng, circuit)
            h = random_hermitian_operator(rng, n, 5)
            initial = int(rng.integers(2 ** n))
            energy, grad = adjoint_gradient(circuit, h, values, initial)
            assert abs(energy - expectation(
                h, apply_circuit(circuit, values, initial))) < 1e-11
            fd = finite_difference_gradient(circuit, h, values, initial)
            for name in circuit.param_names:
                assert abs(grad[name] - fd[name]) < 1e-6

    def test_cancelling_prefactors_give_zero_gradient(self):
        x0 = parse_pauli_string("X0")
        circuit = ParamCircuit.from_gates(
            1, [pauli_evolution(x0, "t", 1.0), pauli_evolution(x0, "t", -1.0)])
        energy, grad = adjoint_gradient(circuit, qo("Z0"), {"t": 0.8}, 0)
        assert abs(energy - 1.0) < 1e-12
        assert abs(grad["t"]) < 1e-12


class TestParameterShift:
    def test_stationary_point(self):
        circuit = ParamCircuit.from_gates(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        assert abs(parameter_shift_gradient(circuit, qo("Z0"), {"t": 0.0},
                                            0, "t")) < 1e-12

    def test_analytic_value(self):
        circuit = ParamCircuit.from_gates(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        grad = parameter_shift_gradient(circuit, qo("Z0"),
                                        {"t": math.pi / 8}, 0, "t")
        assert abs(grad + math.sqrt(2)) < 1e-12

    def test_matches_adjoint_on_string_circuits(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 4
            gates = []
            for k in range(5):
                size = int(rng.integers(1, 4))
                qubits = rng.choice(n, size=size, replace=False)
                ops = tuple(sorted((int(q), str(rng.choice(list("XYZ"))))
                                   for q in qubits))
                gates.append(pauli_evolution(PauliString(ops), f"t{k}"))
            circuit = ParamCircuit.from_gates(n, gates)
            values = random_values(rng, circuit)
            h = random_hermitian_operator(rng, n, 6)
            _, grad = adjoint_gradient(circuit, h, values, 3)
            for name in circuit.param_names:
                shift = parameter_shift_gradient(circuit, h, values, 3, name)
                assert abs(shift - grad[name]) < 1e-9

    def test_ineligible_binding_rejected(self):
        circuit = ParamCircuit.from_gates(1, [ry(0, "t")])
        with pytest.raises(ValueError, match="not bound to a single"):
            parameter_shift_gradient(circuit, qo("Z0"), {"t": 0.1}, 0, "t")


class TestCommutatorGradient:
    def test_commuting_generator_gives_zero(self):
        state = apply_circuit(ParamCircuit(1, (Gate("H", (0,)),), ()), {}, 0)
        grads = commutator_gradient(qo("Z0"), [qo("Z0", 1j)], state)
        assert abs(grads[0]) < 1e-14

    def test_analytic_one_qubit_values(self):
        zero = StateVector.basis_state(1, 0)
        plus = apply_circuit(ParamCircuit(1, (Gate("H", (0,)),), ()), {}, 0)
        # d/dt <e^{-itX} Z e^{itX}> = -2 sin(2t) -> 0 at t=0
        ix = [qo("X0", 1j)]
        assert abs(commutator_gradient(qo("Z0"), ix, zero)[0]) < 1e-14
        assert abs(commutator_gradient(qo("Z0"), ix, plus)[0]) < 1e-14
        # Y generator moves |+> along the Z meridian with slope 2
        assert abs(commutator_gradient(qo("Z0"), [qo("Y0", 1j)], plus)[0]
                   - 2.0) < 1e-12

    def test_pauli_form_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        n = 3
        for _ in range(10):
            circuit = random_circuit(rng, n, 3, 8)
            state = apply_circuit(circuit, random_values(rng, circuit), 1)
            h = random_hermitian_operator(rng, n, 5)
            size = int(rng.integers(1, n + 1))
            qubits = rng.choice(n, size=size, replace=False)
            string = PauliString(tuple(sorted(
                (int(q), str(rng.choice(list("XYZ")))) for q in qubits)))
            tau = QubitOperator.from_term(string, 1j)  # gate exp(i t P)
            delta = 1e-5
            plus = expectation(h, apply_pauli_evolution(state, string, delta))
            minus = expectation(h, apply_pauli_evolution(state, string,
                                                         -delta))
            fd = (plus - minus) / (2 * delta)
            assert abs(commutator_gradient(h, [tau], state)[0] - fd) < 1e-4

    def test_fermionic_form_matches_dense_expm(self):
        rng = np.random.default_rng(33)
        n = 3
        for _ in range(6):
            circuit = random_circuit(rng, n, 3, 8)
            state = apply_circuit(circuit, random_values(rng, circuit), 2)
            h = random_hermitian_operator(rng, n, 5)
            herm = random_hermitian_operator(rng, n, 3)
            tau = 1j * herm  # anti-Hermitian generator
            gen = qubit_operator_matrix(tau, n)
            hmat = qubit_operator_matrix(h, n)
            delta = 1e-5
            fd_states = [scipy.linalg.expm(s * gen) @ state.amplitudes
                         for s in (delta, -delta)]
            fd = (np.vdot(fd_states[0], hmat @ fd_states[0]).real
                  - np.vdot(fd_states[1], hmat @ fd_states[1]).real) / (2 * delta)
            grad = commutator_gradient(h, [tau], state)[0]
            assert abs(grad - fd) < 1e-4

    def test_mixed_batch_matches_dense_oracle(self):
        # fermionic JW images and 1j*P strings in one call, each against
        # 2 Re<H psi|tau psi> from dense matrices
        rng = np.random.default_rng(8)
        n = 4
        fermionic = build_fermionic_pool(n, 2)
        taus = [entry.antihermitian_operator(n) for entry in
                fermionic.entries + build_qubit_pool(fermionic, n).entries]
        circuit = random_circuit(rng, n, 4, 10)
        state = apply_circuit(circuit, random_values(rng, circuit), 3)
        h = random_hermitian_operator(rng, n, 8)
        h_psi = qubit_operator_matrix(h, n) @ state.amplitudes
        expected = [2.0 * np.vdot(h_psi, qubit_operator_matrix(tau, n)
                                  @ state.amplitudes).real for tau in taus]
        grads = commutator_gradient(h, taus, state)
        assert len(grads) == len(taus)
        np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12)


class TestPauliEvolution:
    def test_zero_angle_is_identity(self):
        state = StateVector.basis_state(2, 2)
        out = apply_pauli_evolution(state, parse_pauli_string("X0 Y1"), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_eigenstate_picks_up_phase(self):
        state = StateVector.basis_state(2, 0)
        out = apply_pauli_evolution(state, parse_pauli_string("Z0 Z1"), 0.7)
        np.testing.assert_allclose(out.amplitudes[0], np.exp(0.7j), atol=1e-15)

    def test_matches_dense_matrix_exponential(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            circuit = random_circuit(rng, 3, 2, 6)
            state = apply_circuit(circuit, random_values(rng, circuit), 4)
            qubits = rng.choice(3, size=int(rng.integers(1, 4)), replace=False)
            string = PauliString(tuple(sorted(
                (int(q), str(rng.choice(list("XYZ")))) for q in qubits)))
            theta = float(rng.uniform(-math.pi, math.pi))
            out = apply_pauli_evolution(state, string, theta)
            expected = scipy.linalg.expm(
                1j * theta * pauli_matrix(string, 3)) @ state.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


class TestNumberExpectation:
    def test_basis_state_counts_bits(self):
        assert number_expectation(StateVector.basis_state(4, 0b1011)) == 3.0

    def test_matches_operator_expectation(self):
        from vqe_bench.operators import jordan_wigner, number_operator

        rng = np.random.default_rng(2)
        circuit = random_circuit(rng, 4, 4, 12)
        state = apply_circuit(circuit, random_values(rng, circuit), 3)
        n_op = jordan_wigner(number_operator(4), 4)
        assert abs(number_expectation(state) - expectation(n_op, state)) < 1e-10
