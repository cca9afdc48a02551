import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from vqe_bench import simulator
from vqe_bench.ansatz.adaptive import build_fermionic_pool, build_qubit_pool
from vqe_bench.hamiltonian import hf_energy
from vqe_bench.operators import PauliString, QubitOperator, parse_pauli_string
from vqe_bench.simulator import (
    Gate,
    ParamCircuit,
    adjoint_gradient,
    apply_circuit,
    apply_pauli_evolution,
    commutator_gradient,
    expectation,
    parameter_shift_gradient,
    pauli_evolution,
    pauli_sum_matrix,
)
from oracles import (
    basis_state,
    circuit_state,
    circuit_unitary,
    finite_difference_gradient,
    number_expectation,
    number_operator,
    pauli_matrix,
    qubit_operator_matrix,
    random_circuit,
    random_hermitian_operator,
    random_string,
    random_values,
    ry,
    runs_in_sector,
)


def qo(text, coeff=1.0):
    return QubitOperator.from_term(parse_pauli_string(text), coeff)


def empty_circuit(n):
    return ParamCircuit(n, ())


class TestApplyCircuit:
    def test_empty_circuit_keeps_basis_state(self):
        state = apply_circuit(empty_circuit(3), [], 0)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(state, expected)

    def test_ry_pi_flips_qubit(self):
        circuit = ParamCircuit(1, [ry(0, "t")])
        state = apply_circuit(circuit, [math.pi], 0)
        np.testing.assert_allclose(np.abs(state), [0.0, 1.0],
                                   atol=1e-15)

    def test_pauli_evolution_analytic(self):
        circuit = ParamCircuit(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        state = apply_circuit(circuit, [0.3], 0)
        np.testing.assert_allclose(
            state,
            [math.cos(0.3), 1j * math.sin(0.3)], atol=1e-15)

    def test_missing_parameter_value(self):
        circuit = ParamCircuit(1, [ry(0, "t")])
        with pytest.raises(ValueError, match=r"shape \(0,\) for 1 parameters"):
            apply_circuit(circuit, [], 0)

    def test_degenerate_gate_construction_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError, match="generator"):
            Gate("PauliEvolution", (0, 1), param=("t", 1.0))
        with pytest.raises(ValueError, match="match the"):
            Gate("PauliEvolution", (0, 2),
                 generator=parse_pauli_string("X0 Y1"), param=("t", 1.0))

    def test_gate_arity_checked_per_kind(self):
        # both used to pass and act on qubit 0 alone
        with pytest.raises(ValueError, match="takes 1 target"):
            Gate("RX", (0, 1), param=("t", 1.0))
        with pytest.raises(ValueError, match="takes 1 target"):
            Gate("H", (0, 1))
        # used to fail late, inside the two-qubit kernel
        with pytest.raises(ValueError, match="takes 2 target"):
            Gate("CNOT", (0,))
        with pytest.raises(ValueError, match="takes 2 target"):
            Gate("GivensRotation", (0, 1, 2), angle=0.1)
        with pytest.raises(ValueError, match="takes 2 target"):
            Gate("SqrtISwap", (3,))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            circuit = random_circuit(rng, 4, 5, 25)
            state = apply_circuit(circuit, random_values(rng, circuit),
                                  int(rng.integers(16)))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

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
        assert expectation(qo("Z0"), basis_state(1, 0)) == 1.0

    def test_x_on_plus_state(self):
        circuit = ParamCircuit(1, (Gate("H", (0,)),))
        state = apply_circuit(circuit, [], 0)
        assert abs(expectation(qo("X0"), state) - 1.0) < 1e-12

    def test_imaginary_residue_raises(self):
        state = apply_circuit(ParamCircuit(1, (Gate("H", (0,)),)), [], 0)
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
        phased = np.exp(0.77j) * state
        assert abs(expectation(a, phased) - expectation(a, state)) < 1e-10


class TestTermExpectations:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_term_matches_dense_and_they_sum_to_energy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, 3, 8)
        values = random_values(rng, circuit)
        initial = int(rng.integers(2 ** n))
        h = random_hermitian_operator(rng, n, 10)
        terms = simulator.term_expectations(
            h, apply_circuit(circuit, values, initial))
        psi = circuit_state(circuit, values, initial)
        assert len(terms) == len(h.terms)
        for value, (string, coeff) in zip(terms, h.terms.items()):
            dense = coeff * np.vdot(psi, pauli_matrix(string, n) @ psi)
            assert value == pytest.approx(dense.real, abs=1e-12)
        assert terms.sum() == pytest.approx(
            expectation(h, apply_circuit(circuit, values, initial)),
            abs=1e-12)

    def test_real_state(self):
        # a real array's products were split into false real and
        # imaginary halves, and the sum raised a shape mismatch
        h = qo("Z0") + qo("X0", 0.5)
        terms = simulator.term_expectations(h, np.array([0.6, 0.8]))
        np.testing.assert_allclose(terms, [0.36 - 0.64, 0.5 * 0.96],
                                   rtol=0, atol=1e-15)

    def test_sector_plan_state(self):
        # a particle-conserving circuit and pool screen over their sector;
        # the terms are read off the screened state, which
        # commutator_gradient hands back over the sector alone
        circuit = ParamCircuit(4, [
            Gate("GivensRotation", (0, 2), param=("a", 1.0)),
            Gate("GivensRotation", (1, 3), param=("b", 1.0))])
        pool = ParamCircuit(4, [
            Gate("GivensRotation", (1, 3), param=("p", 1.0))])
        assert runs_in_sector(circuit, 0b0011)
        assert runs_in_sector(pool, 0b0011)
        h = qo("X0 X2", 0.5) + qo("Z1", -0.3) + qo("Y1 Y3") + qo("X0 Y1")
        values = [0.4, -1.1]  # a, b
        screened = commutator_gradient(circuit, h, values, 0b0011, pool)[2]
        amps = np.zeros(16, dtype=complex)
        amps[simulator.sector_indices(4, 2, 0)] = screened
        terms = simulator.term_expectations(h, amps)
        psi = circuit_state(circuit, values, 0b0011)
        for value, (string, coeff) in zip(terms, h.terms.items()):
            dense = coeff * np.vdot(psi, pauli_matrix(string, 4) @ psi)
            assert value == pytest.approx(dense.real, abs=1e-12)


    def test_term_beyond_the_state_refused(self):
        # Z5 read 1.0 and Z0 Z3 read as Z0 on two qubits; X5 raised a raw
        # IndexError
        state = basis_state(2, 0b01)
        for text in ("Z5", "Z0 Z3", "X5"):
            h = qo("Z0") + qo(text)
            with pytest.raises(ValueError,
                               match=f"{text} acts outside a 2-qubit state"):
                simulator.term_expectations(h, state)


class TestParitySigns:
    """_parity_signs reads (-1)^popcount(s & yz) off one +-1.0 table per
    mask width; it must give the bytes of the direct popcount."""

    @staticmethod
    def direct(states, yz):
        return 1.0 - 2.0 * (np.bitwise_count(states & yz) & 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mask_bits=st.integers(1, 20),
           state_bits=st.integers(1, 20))
    def test_matches_direct_popcount(self, seed, mask_bits, state_bits):
        # state_bits < mask_bits gives masks wider than the states
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 1 << state_bits, 300, dtype=np.int64)
        yz = int(rng.integers(1 << (mask_bits - 1), 1 << mask_bits))
        signs = simulator._parity_signs(states, yz)
        assert signs.dtype == np.float64
        assert signs.tobytes() == self.direct(states, yz).tobytes()
        batch = states.reshape(3, 100)
        assert (simulator._parity_signs(batch, yz).tobytes()
                == self.direct(batch, yz).tobytes())

    def test_every_state_of_a_full_space(self):
        states = np.arange(1 << 12, dtype=np.int64)
        for yz in (1, 0b101100110101, 1 << 11, 1 << 19):
            assert (simulator._parity_signs(states, yz).tobytes()
                    == self.direct(states, yz).tobytes())
        for bits in range(1, 21):  # every entry of every table
            states, yz = np.arange(1 << bits, dtype=np.int64), (1 << bits) - 1
            assert (simulator._parity_signs(states, yz).tobytes()
                    == self.direct(states, yz).tobytes())

    def test_empty_mask_is_plus_one(self):
        states = np.arange(16, dtype=np.int64)
        assert simulator._parity_signs(states, 0) == 1.0
        assert np.all(self.direct(states, 0) == 1.0)

    @pytest.mark.parametrize("text", ["X3", "Z2", "Y0 Z5"])
    def test_string_outside_the_state_refused(self, text):
        # a Z past the state's qubits was read as the identity, an X past
        # them indexed out of range
        with pytest.raises(ValueError, match="acts outside a state of 4"):
            simulator.apply_pauli_string(parse_pauli_string(text),
                                         basis_state(2, 1))


class TestAnticommuting:
    def test_matches_dense_products(self):
        rng = np.random.default_rng(8)
        strings = [random_string(rng, 3) for _ in range(12)]
        others = [random_string(rng, 3) for _ in range(9)]
        table = simulator.anticommuting(strings, others)
        assert table.shape == (12, 9)
        for i, a in enumerate(strings):
            for j, b in enumerate(others):
                pa, pb = pauli_matrix(a, 3), pauli_matrix(b, 3)
                assert table[i, j] == np.allclose(pa @ pb, -(pb @ pa))


class TestPauliSumMatrix:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_dense_oracle_over_any_basis(self, data):
        n = data.draw(st.integers(1, 4))
        axes = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"))
        coeffs = st.complex_numbers(max_magnitude=10, allow_nan=False,
                                    allow_infinity=False)
        pairs = [(PauliString.from_mapping(ops), c) for ops, c in data.draw(
            st.lists(st.tuples(axes, coeffs), max_size=8))]
        # P - P Z_q shares P's flip mask and cancels on half the rows
        for ops, c in data.draw(st.lists(st.tuples(axes, coeffs), max_size=2)):
            free = [q for q in range(n) if q not in ops]
            if free:
                pairs.append((PauliString.from_mapping(ops), c))
                pairs.append((PauliString.from_mapping(
                    {**ops, free[0]: "Z"}), -c))
        op = QubitOperator.summed(pairs)
        basis = data.draw(st.none() | st.sets(st.integers(0, (1 << n) - 1),
                                               min_size=1))
        oracle = qubit_operator_matrix(op, n)
        if basis is not None:
            basis = np.array(sorted(basis), dtype=np.int64)
            oracle = oracle[np.ix_(basis, basis)]
        matrix = pauli_sum_matrix(op, n, basis)
        assert np.all(matrix.data != 0)
        np.testing.assert_allclose(matrix.toarray(), oracle, rtol=0,
                                   atol=1e-12)

    def test_second_expectation_reuses_compiled_matrix(self, monkeypatch):
        compiled = []

        def counting(op, n_qubits, basis=None):
            compiled.append(n_qubits)
            return pauli_sum_matrix(op, n_qubits, basis)

        monkeypatch.setattr(simulator, "pauli_sum_matrix", counting)
        h = qo("Z0") + qo("X0 X1", 0.5)
        state = apply_circuit(ParamCircuit(2, (Gate("H", (0,)),)), [], 0)
        assert expectation(h, state) == expectation(h, state)
        assert compiled == [2]

    def test_operator_beyond_the_state_refused(self):
        state = basis_state(2, 0)
        for text in ("Z5", "X5"):
            with pytest.raises(ValueError, match="outside"):
                pauli_sum_matrix(qo(text), 2)
            with pytest.raises(ValueError, match="outside"):
                expectation(qo(text), state)

    @pytest.mark.parametrize("basis, state", [
        ([3, 3], 3), ([1, 2, 1], 1), ([-1, 2], -1), ([0, 5], 5)])
    def test_basis_of_repeated_or_foreign_states_refused(self, basis, state):
        # [3, 3] gave the non-Hermitian [[0, -1], [0, -1]], [-1, 2] was
        # read as states 3 and 2, and [0, 5] raised a raw IndexError
        h = qo("Z0") + qo("X0 X1", 0.5)
        with pytest.raises(ValueError, match=f"basis state {state} "):
            pauli_sum_matrix(h, 2, np.array(basis))

    def test_basis_in_any_order(self):
        h = qo("Z0") + qo("X0 X1", 0.5) + qo("Y0 Z1", 0.25)
        basis = np.array([3, 0, 2])
        np.testing.assert_array_equal(
            pauli_sum_matrix(h, 2, basis).toarray(),
            qubit_operator_matrix(h, 2)[np.ix_(basis, basis)])

    def test_basis_expectation_of_a_foreign_index_refused(self):
        # raised "index 0 is out of bounds for axis 0 with size 0"
        h = qo("Z0") + qo("X0 X1", 0.5)
        for index in (7, -1):
            with pytest.raises(ValueError,
                               match=f"basis index {index} out of range"):
                simulator.basis_expectation(h, 2, index)
        assert simulator.basis_expectation(h, 2, 0b11) == -1.0

    def test_cached_matrix_follows_the_state_size(self):
        h = qo("Z0", 2.0)
        assert expectation(h, basis_state(1, 1)) == -2.0
        assert expectation(h, basis_state(3, 0b110)) == 2.0
        assert expectation(h, basis_state(1, 1)) == -2.0


class TestAdjointGradient:
    def test_single_ry_analytic(self):
        circuit = ParamCircuit(1, [ry(0, "t")])
        for theta in (0.0, 0.3, -1.2, 2.9):
            energy, grad = adjoint_gradient(circuit, qo("Z0"), [theta], 0)
            assert abs(energy - math.cos(theta)) < 1e-12
            assert abs(grad[0] + math.sin(theta)) < 1e-12

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
            for k in range(circuit.n_params):
                assert abs(grad[k] - fd[k]) < 1e-6

    def test_cancelling_prefactors_give_zero_gradient(self):
        x0 = parse_pauli_string("X0")
        circuit = ParamCircuit(
            1, [pauli_evolution(x0, "t", 1.0), pauli_evolution(x0, "t", -1.0)])
        energy, grad = adjoint_gradient(circuit, qo("Z0"), [0.8], 0)
        assert abs(energy - 1.0) < 1e-12
        assert abs(grad[0]) < 1e-12


class TestParameterShift:
    def test_stationary_point(self):
        circuit = ParamCircuit(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        assert abs(parameter_shift_gradient(circuit, qo("Z0"), [0.0],
                                            0, "t")) < 1e-12

    def test_analytic_value(self):
        circuit = ParamCircuit(
            1, [pauli_evolution(parse_pauli_string("X0"), "t")])
        grad = parameter_shift_gradient(circuit, qo("Z0"),
                                        [math.pi / 8], 0, "t")
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
            circuit = ParamCircuit(n, gates)
            values = random_values(rng, circuit)
            h = random_hermitian_operator(rng, n, 6)
            _, grad = adjoint_gradient(circuit, h, values, 3)
            for k, name in enumerate(circuit.param_names):
                shift = parameter_shift_gradient(circuit, h, values, 3, name)
                assert abs(shift - grad[k]) < 1e-9

    def test_ineligible_binding_rejected(self):
        circuit = ParamCircuit(1, [ry(0, "t")])
        with pytest.raises(ValueError, match="not bound to a single"):
            parameter_shift_gradient(circuit, qo("Z0"), [0.1], 0, "t")


def tau_pool(n_qubits, taus):
    """Generators tau_k = i sum_j c_j P_j as one pool circuit: tau_k's
    strings evolve under parameter "k" with prefactors c_j."""
    return ParamCircuit(n_qubits, [
        pauli_evolution(string, str(k), coeff.imag)
        for k, tau in enumerate(taus) for string, coeff in tau.terms.items()])


class TestCommutatorGradient:
    def test_commuting_generator_gives_zero(self):
        circuit = ParamCircuit(1, (Gate("H", (0,)),))
        _, grads, _ = commutator_gradient(circuit, qo("Z0"), [], 0,
                                          tau_pool(1, [qo("Z0", 1j)]))
        assert abs(grads[0]) < 1e-14

    def test_analytic_one_qubit_values(self):
        zero = ParamCircuit(1, ())
        plus = ParamCircuit(1, (Gate("H", (0,)),))
        # d/dt <e^{-itX} Z e^{itX}> = -2 sin(2t) -> 0 at t=0
        ix = tau_pool(1, [qo("X0", 1j)])
        assert abs(commutator_gradient(zero, qo("Z0"), [], 0, ix)[1][0]
                   ) < 1e-14
        assert abs(commutator_gradient(plus, qo("Z0"), [], 0, ix)[1][0]
                   ) < 1e-14
        # Y generator moves |+> along the Z meridian with slope 2
        iy = tau_pool(1, [qo("Y0", 1j)])
        assert abs(commutator_gradient(plus, qo("Z0"), [], 0, iy)[1][0]
                   - 2.0) < 1e-12

    def test_pauli_form_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        n = 3
        for _ in range(10):
            circuit = random_circuit(rng, n, 3, 8)
            values = random_values(rng, circuit)
            state = apply_circuit(circuit, values, 1)
            h = random_hermitian_operator(rng, n, 5)
            size = int(rng.integers(1, n + 1))
            qubits = rng.choice(n, size=size, replace=False)
            string = PauliString(tuple(sorted(
                (int(q), str(rng.choice(list("XYZ")))) for q in qubits)))
            pool = ParamCircuit(n, [pauli_evolution(string, "p")])
            delta = 1e-5
            plus = expectation(h, apply_pauli_evolution(state, string, delta))
            minus = expectation(h, apply_pauli_evolution(state, string,
                                                         -delta))
            fd = (plus - minus) / (2 * delta)
            _, grads, _ = commutator_gradient(circuit, h, values, 1, pool)
            assert abs(grads[0] - fd) < 1e-4

    def test_fermionic_form_matches_dense_expm(self):
        rng = np.random.default_rng(33)
        n = 3
        for _ in range(6):
            circuit = random_circuit(rng, n, 3, 8)
            values = random_values(rng, circuit)
            state = apply_circuit(circuit, values, 2)
            h = random_hermitian_operator(rng, n, 5)
            herm = random_hermitian_operator(rng, n, 3)
            tau = 1j * herm  # anti-Hermitian generator
            gen = qubit_operator_matrix(tau, n)
            hmat = qubit_operator_matrix(h, n)
            delta = 1e-5
            fd_states = [scipy.linalg.expm(s * gen) @ state
                         for s in (delta, -delta)]
            fd = (np.vdot(fd_states[0], hmat @ fd_states[0]).real
                  - np.vdot(fd_states[1], hmat @ fd_states[1]).real) / (2 * delta)
            _, grads, _ = commutator_gradient(circuit, h, values, 2,
                                              tau_pool(n, [tau]))
            assert abs(grads[0] - fd) < 1e-4

    def test_mixed_batch_matches_dense_oracle(self):
        # fermionic JW images and 1j*P strings in one call, each against
        # 2 Re<H psi|tau psi> from dense matrices
        rng = np.random.default_rng(8)
        n = 4
        fermionic = build_fermionic_pool(n, 2)
        taus = [entry.antihermitian_operator(n) for entry in
                fermionic.entries + build_qubit_pool(fermionic, n).entries]
        circuit = random_circuit(rng, n, 4, 10)
        values = random_values(rng, circuit)
        state = apply_circuit(circuit, values, 3)
        h = random_hermitian_operator(rng, n, 8)
        h_psi = qubit_operator_matrix(h, n) @ state
        expected = [2.0 * np.vdot(h_psi, qubit_operator_matrix(tau, n)
                                  @ state).real for tau in taus]
        pool = tau_pool(n, taus)
        _, slopes, _ = commutator_gradient(circuit, h, values, 3, pool)
        grads = [slopes[pool.param_names.index(str(k))]
                 for k in range(len(taus))]
        assert len(grads) == len(taus)
        np.testing.assert_allclose(grads, expected, rtol=0, atol=1e-12)


class TestPauliEvolution:
    def test_zero_angle_is_identity(self):
        state = basis_state(2, 2)
        out = apply_pauli_evolution(state, parse_pauli_string("X0 Y1"), 0.0)
        np.testing.assert_allclose(out, state)

    def test_eigenstate_picks_up_phase(self):
        state = basis_state(2, 0)
        out = apply_pauli_evolution(state, parse_pauli_string("Z0 Z1"), 0.7)
        np.testing.assert_allclose(out[0], np.exp(0.7j), atol=1e-15)

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
                1j * theta * pauli_matrix(string, 3)) @ state
            np.testing.assert_allclose(out, expected, atol=1e-12)


class TestNumberExpectation:
    def test_basis_state_counts_bits(self):
        assert number_expectation(basis_state(4, 0b1011)) == 3.0

    def test_matches_operator_expectation(self):
        from vqe_bench.operators import jordan_wigner

        rng = np.random.default_rng(2)
        circuit = random_circuit(rng, 4, 4, 12)
        state = apply_circuit(circuit, random_values(rng, circuit), 3)
        n_op = jordan_wigner(number_operator(4), 4)
        assert abs(number_expectation(state) - expectation(n_op, state)) < 1e-10


class TestBareStates:
    @pytest.mark.parametrize("size", [0, 3, 12])
    def test_length_not_a_power_of_two_refused(self, size):
        amps = np.zeros(size, dtype=complex)
        x0 = parse_pauli_string("X0")
        for call in (lambda: expectation(qo("Z0"), amps),
                     lambda: simulator.term_expectations(qo("Z0"), amps),
                     lambda: simulator.apply_gates(amps, [ry(0, "t")],
                                                   [0.1]),
                     lambda: apply_pauli_evolution(amps, x0, 0.1)):
            with pytest.raises(ValueError, match=r"not 2\*\*n"):
                call()

    def test_gates_act_on_a_copy(self):
        state = basis_state(2, 0)
        out = apply_pauli_evolution(state, parse_pauli_string("X0 Y1"), 0.3)
        np.testing.assert_array_equal(state, basis_state(2, 0))
        assert abs(out[0] - math.cos(0.3)) < 1e-15


class TestQubitLimit:
    # unchecked, each of these goes on to allocate 2**n: a 40-qubit
    # circuit reached np.arange(1 << 40) in apply_circuit
    PAST = simulator.MAX_QUBITS + 1
    CALLS = {
        "circuit": lambda n: ParamCircuit(n, []),
        "sector": lambda n: simulator.sector_indices(n, 2, 0),
        "csr over one state": lambda n: simulator.pauli_sum_csr(
            qo("Z0"), n, basis=np.array([0])),
        "hf energy": lambda n: hf_energy(qo("Z0"), n, 2),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_before_allocating(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension overflow: "
                                                 f"{self.PAST} qubits"):
                self.CALLS[call](self.PAST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_itself_allowed(self):
        circuit = ParamCircuit(simulator.MAX_QUBITS, [])
        assert circuit.n_qubits == simulator.MAX_QUBITS

    @pytest.mark.parametrize("call", ["circuit", "csr over one state",
                                      "sector"])
    @pytest.mark.parametrize("n_qubits", [-1, -2])
    def test_negative_count_refused_by_name(self, call, n_qubits):
        # a circuit of -1 qubits constructed, and the others raised
        # Python's "negative shift count", naming neither count nor bound
        with pytest.raises(ValueError,
                           match=f"qubit count {n_qubits} is negative"):
            self.CALLS[call](n_qubits)

    def test_zero_qubits_allowed(self):
        assert apply_circuit(ParamCircuit(0, []), []).tolist() == [1]


def _two_parameter_case():
    """A circuit of parameters "t" (a unit Pauli evolution, so parameter
    shift applies) and "u", an operator and a one-entry pool."""
    circuit = ParamCircuit(2, [pauli_evolution(parse_pauli_string("X0 Y1"),
                                               "t"), ry(1, "u")])
    pool = ParamCircuit(2, [pauli_evolution(parse_pauli_string("Y0"), "p")])
    return circuit, qo("Z0 Z1") + qo("X0", 0.5), pool


ONE_POINT_CALLS = {
    "apply_circuit": lambda c, h, pool, a: apply_circuit(c, a, 1),
    "apply_gates": lambda c, h, pool, a: simulator.apply_gates(
        basis_state(2, 1), c.gates, a),
    "parameter_shift_gradient": lambda c, h, pool, a: (
        parameter_shift_gradient(c, h, a, 1, "t")),
    "commutator_gradient": lambda c, h, pool, a: commutator_gradient(
        c, h, a, 1, pool),
}


class TestAngleShapes:
    """Parameter values are one array in param_names order.  A function of
    one point takes (P,) angles and refuses any other shape, naming it
    (adjoint_gradient's shapes: tests/test_plan.py)."""

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1)])
    @pytest.mark.parametrize("function", sorted(ONE_POINT_CALLS))
    def test_one_point_functions_refuse_other_shapes(self, function, shape):
        circuit, h, pool = _two_parameter_case()
        call = ONE_POINT_CALLS[function]
        call(circuit, h, pool, np.array([0.3, -0.7]))
        with pytest.raises(ValueError, match=rf"angles of shape "
                                             rf"{re.escape(str(shape))}"):
            call(circuit, h, pool, np.zeros(shape))
