import math

import numpy as np
import pytest

from vqe_bench.ansatz import (
    build_brc,
    build_brc_closed_shell,
    build_hea,
    build_ldca,
    givens_compilation,
    givens_network,
)
from vqe_bench.simulator import (
    apply_circuit,
    apply_gates,
    expectation,
    number_expectation,
)
from oracles import basis_state, circuit_unitary, random_hermitian_operator


def zero_values(circuit):
    return np.zeros(circuit.n_params)


def givens_block(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                    dtype=complex)


class TestHea:
    def test_counts_depth_one(self):
        build = build_hea(4, 1)
        assert build.n_params == 16
        assert sum(1 for g in build.circuit.gates if g.kind == "CNOT") == 3

    def test_counts_depth_zero(self):
        build = build_hea(2, 0)
        assert build.n_params == 4
        assert all(g.kind != "CNOT" for g in build.circuit.gates)

    def test_param_count_formula(self):
        for n, d in [(3, 2), (5, 4), (6, 0)]:
            assert build_hea(n, d).n_params == 2 * n * (d + 1)

    def test_zero_angles_on_vacuum(self):
        build = build_hea(3, 2)
        rng = np.random.default_rng(0)
        h = random_hermitian_operator(rng, 3, 5)
        state = apply_circuit(build.circuit, zero_values(build.circuit), 0)
        vacuum = basis_state(3, 0)
        assert expectation(h, state) == pytest.approx(
            expectation(h, vacuum), abs=1e-12)

    def test_not_marked_particle_conserving(self):
        assert not build_hea(4, 1).particle_conserving

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            build_hea(4, -1)


class TestLdca:
    def test_count_four_qubits_one_cycle(self):
        assert build_ldca(4, 1).n_params == 34

    def test_second_cycle_doubles_cycle_params(self):
        one = build_ldca(4, 1).n_params
        two = build_ldca(4, 2).n_params
        assert two - 4 == 2 * (one - 4)  # the 4 phase rotations appear once

    def test_block_axes(self):
        build = build_ldca(2, 1)
        axes = ["".join(axis for _, axis in g.generator.ops)
                for g in build.circuit.gates if g.kind == "PauliEvolution"]
        assert axes == ["XX", "YY", "ZZ", "XY", "YX"]

    def test_zero_angles_identity(self):
        build = build_ldca(3, 1)
        u = circuit_unitary(build.circuit, zero_values(build.circuit))
        np.testing.assert_allclose(u, np.eye(8), atol=1e-12)

    def test_default_restarts(self):
        assert build_ldca(4, 2).restarts == 20

    def test_too_few_qubits_rejected(self):
        with pytest.raises(ValueError):
            build_ldca(1, 1)


class TestBrc:
    def test_rotation_count_examples(self):
        assert build_brc(4, 2).n_params == 4
        assert build_brc(8, 4).n_params == 16

    def test_rotation_count_formula_sweep(self):
        for n in range(2, 11):
            for eta in range(1, n):
                assert build_brc(n, eta).n_params == eta * (n - eta)

    def test_network_is_nearest_neighbor_and_ordered(self):
        net = givens_network(8, 3)
        assert sorted(net) == net
        assert all(0 <= p < 7 for _, p in net)

    def test_zero_angles_keep_filled_state(self):
        build = build_brc(5, 2)
        state = apply_circuit(build.circuit, zero_values(build.circuit), 0b11)
        expected = np.zeros(32)
        expected[3] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-14)

    def test_particle_conservation_random_draws(self):
        build = build_brc(6, 3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = np.array([float(rng.uniform(-np.pi, np.pi))
                               for _ in build.circuit.param_names])
            state = apply_circuit(build.circuit, values, 0b111)
            assert abs(number_expectation(state) - 3.0) < 1e-10

    def test_closed_shell_shares_parameters(self):
        build = build_brc_closed_shell(8, 4)
        assert build.n_params == 4  # eta(N-eta) per shared spin network
        names = [g.param[0] for g in build.circuit.gates]
        assert len(names) == 8  # each parameter drives an alpha and beta gate
        rng = np.random.default_rng(4)
        values = np.array([float(rng.uniform(-np.pi, np.pi))
                           for _ in build.circuit.param_names])
        state = apply_circuit(build.circuit, values, 0b1111)
        assert abs(number_expectation(state) - 4.0) < 1e-10

    def test_invalid_filling_rejected(self):
        for eta in (0, 4):
            with pytest.raises(ValueError):
                build_brc(4, eta)

    def test_deterministic_rebuild(self):
        assert build_brc(6, 2).circuit.gates == build_brc(6, 2).circuit.gates

    @pytest.mark.parametrize("n,eta", [(4, 2), (5, 2), (6, 3)])
    def test_network_parameters_are_independent(self, n, eta):
        # the state Jacobian at a generic point has full rank, so the
        # diamond network realizes eta*(n-eta) independent directions
        build = build_brc(n, eta)
        rng = np.random.default_rng(10)
        values = np.array([float(rng.uniform(-1.0, 1.0))
                           for _ in build.circuit.param_names])
        initial = (1 << eta) - 1
        step = 1e-6
        jacobian = np.empty((2 ** n, build.n_params))
        for k in range(build.n_params):
            shifted = values.copy()
            shifted[k] = values[k] + step
            plus = apply_circuit(build.circuit, shifted, initial)
            shifted[k] = values[k] - step
            minus = apply_circuit(build.circuit, shifted, initial)
            jacobian[:, k] = np.real(plus - minus) / (2 * step)
        assert np.linalg.matrix_rank(jacobian, tol=1e-8) == build.n_params

    def test_h4_rotation_reaches_mean_field_but_not_fci(self):
        from vqe_bench.driver import run_vqe
        from vqe_bench.hamiltonian import (bundled_molecule,
                                           exact_ground_energy, hf_energy,
                                           hf_state_index, qubit_hamiltonian)

        data = bundled_molecule("H4").integrals(1.0)
        h = qubit_hamiltonian(data)
        fci = exact_ground_energy(h, 8, sector=(4, 0))
        ehf = hf_energy(h, 8, 4)
        result = run_vqe(build_brc_closed_shell(8, 4), h,
                         hf_state_index(8, 4), seed=3)
        # a determinant-manifold ansatz bottoms out at the mean field
        assert abs(result.energy - ehf) < 1e-6
        assert result.energy - fci > 0.0016


class TestGivensCompilation:
    def composed(self, theta):
        gates = givens_compilation(theta, 0, 1)
        # (qa, qb) = (0, 1): qubit 1 is the high bit of the 2-qubit index,
        # matching the gate convention where the first target is the high bit
        dim = 4
        mat = np.empty((dim, dim), dtype=complex)
        for col in range(dim):
            state = basis_state(2, col)
            mat[:, col] = apply_gates(state, gates, [])
        return mat

    def native(self, theta):
        state_cols = []
        from vqe_bench.simulator import Gate

        gate = Gate("GivensRotation", (0, 1), angle=theta)
        for col in range(4):
            state = basis_state(2, col)
            state_cols.append(apply_gates(state, [gate], []))
        return np.array(state_cols).T

    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(self.composed(0.0), np.eye(4), atol=1e-12)

    def test_half_pi_swaps_single_excitation_states(self):
        u = self.composed(math.pi / 2)
        np.testing.assert_allclose(u, self.native(math.pi / 2), atol=1e-12)
        one, two = basis_state(2, 1), basis_state(2, 2)
        swapped = apply_gates(one, givens_compilation(math.pi / 2, 0, 1), [])
        assert abs(abs(np.vdot(swapped, two)) - 1.0) < 1e-12

    def test_matches_native_block_for_random_angles(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            np.testing.assert_allclose(self.composed(theta),
                                       self.native(theta), atol=1e-12)

    def test_gate_census(self):
        gates = givens_compilation(1.234, 2, 3)
        kinds = [g.kind for g in gates]
        assert kinds.count("SqrtISwap") == 2
        assert kinds.count("RZ") == 3
