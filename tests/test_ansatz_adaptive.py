import math

import numpy as np
import pytest

from oracles import pool_entry_finite_difference, qubit_operator_matrix
from vqe_bench.ansatz import ExcitationGenerator, adaptive, build_uccsd_singlet
from vqe_bench.ansatz.adaptive import (
    OperatorPool,
    PoolEntry,
    adapt_vqe,
    build_fermionic_pool,
    build_qubit_pool,
    qcc_optimize,
    qubit_adapt_vqe,
)
from vqe_bench.hamiltonian import (
    bundled_molecule,
    exact_ground_energy,
    hf_energy,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import QubitOperator, parse_pauli_string
from vqe_bench.simulator import (
    ParamCircuit,
    StateVector,
    adjoint_gradient,
    apply_circuit,
    apply_pauli_evolution,
    commutator_gradient,
    expectation,
    parameter_shift_gradient,
    pauli_evolution,
)


def h2_problem():
    data = bundled_molecule("H2").integrals(0.7414)
    h = qubit_hamiltonian(data)
    fci = exact_ground_energy(h, 4, sector=(2, 0))
    return h, fci, hf_state_index(4, 2)


class TestFermionicPool:
    def test_h2_entry_count(self):
        assert len(build_fermionic_pool(4, 2)) == 2

    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (8, 4), (12, 4)])
    def test_pool_size_equals_uccsd_params(self, n_qubits, n_electrons):
        pool = build_fermionic_pool(n_qubits, n_electrons)
        assert len(pool) == build_uccsd_singlet(n_qubits, n_electrons).n_params

    def test_entries_are_anti_hermitian_odd_y(self):
        pool = build_fermionic_pool(8, 4)
        for entry in pool.entries:
            op = QubitOperator.zero()
            for gen in entry.generators:
                op = op + gen.antihermitian_operator(8)
            assert op.isclose(-1.0 * op.dagger(), 1e-12)
            for string, coeff in op.terms.items():
                assert abs(coeff.real) < 1e-12
                assert string.y_count() % 2 == 1


class TestQubitPool:
    def test_adjacent_single_excitation_strings(self):
        pool = OperatorPool("fermionic-sd", (PoolEntry(
            "s", (ExcitationGenerator("single", (0,), (1,), "s"),)),))
        qpool = build_qubit_pool(pool, 2)
        assert {e.label for e in qpool.entries} == {"Y0 X1", "X0 Y1"}

    def test_z_chain_stripped(self):
        pool = OperatorPool("fermionic-sd", (PoolEntry(
            "s", (ExcitationGenerator("single", (0,), (3,), "s"),)),))
        qpool = build_qubit_pool(pool, 4)
        assert {e.label for e in qpool.entries} == {"Y0 X3", "X0 Y3"}

    def test_all_strings_odd_y_no_z(self):
        qpool = build_qubit_pool(build_fermionic_pool(8, 4), 8)
        assert len(qpool) > 0
        for entry in qpool.entries:
            assert entry.string.y_count() % 2 == 1
            assert all(axis != "Z" for _, axis in entry.string.ops)

    def test_requires_fermionic_pool(self):
        with pytest.raises(ValueError):
            build_qubit_pool(OperatorPool("qubit-pauli", ()), 4)


class TestAdaptVqe:
    def test_huge_epsilon_stops_at_hf(self):
        h, _, hf_idx = h2_problem()
        pool = build_fermionic_pool(4, 2)
        build, trace = adapt_vqe(h, 4, pool, epsilon=1e3, initial_state=hf_idx)
        assert trace.iterations == []
        assert trace.converged
        assert trace.final_energy == pytest.approx(hf_energy(h, 4, 2), abs=1e-12)
        assert build.n_params == 0

    def test_h2_converges_within_two_iterations(self):
        h, fci, hf_idx = h2_problem()
        pool = build_fermionic_pool(4, 2)
        build, trace = adapt_vqe(h, 4, pool, epsilon=1e-2, initial_state=hf_idx)
        assert trace.converged
        assert len(trace.iterations) <= 2
        assert abs(trace.final_energy - fci) < 1e-6

    def test_trace_energies_non_increasing(self):
        data = bundled_molecule("H4").integrals(1.0)
        h = qubit_hamiltonian(data)
        pool = build_fermionic_pool(8, 4)
        _, trace = adapt_vqe(h, 8, pool, epsilon=1e-2,
                             initial_state=hf_state_index(8, 4), max_iters=6)
        energies = [it.energy_after_reopt for it in trace.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_deterministic_traces(self):
        h, _, hf_idx = h2_problem()
        pool = build_fermionic_pool(4, 2)
        t1 = adapt_vqe(h, 4, pool, epsilon=1e-2, initial_state=hf_idx)[1]
        t2 = adapt_vqe(h, 4, pool, epsilon=1e-2, initial_state=hf_idx)[1]
        assert [i.chosen_label for i in t1.iterations] == [
            i.chosen_label for i in t2.iterations]
        assert t1.final_energy == t2.final_energy

    def test_screening_matches_commutator_gradient(self):
        data = bundled_molecule("H4").integrals(1.2)
        h = qubit_hamiltonian(data)
        pool = build_fermionic_pool(8, 4)
        state = apply_circuit(
            build_uccsd_singlet(8, 4).circuit,
            {p: 0.0 for p in build_uccsd_singlet(8, 4).circuit.param_names},
            hf_state_index(8, 4))
        for entry in pool.entries:
            fd = pool_entry_finite_difference(h, state, entry, 8)
            analytic = commutator_gradient(
                h, [entry.antihermitian_operator(8)], state)[0]
            assert fd == pytest.approx(analytic, abs=1e-4)

    def test_epsilon_validation(self):
        h, _, _ = h2_problem()
        with pytest.raises(ValueError):
            adapt_vqe(h, 4, build_fermionic_pool(4, 2), epsilon=0.0)

    def test_qubit_pool_rejected(self):
        h, _, _ = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        with pytest.raises(ValueError, match="fermionic-sd"):
            adapt_vqe(h, 4, qpool)

    def test_gradient_ties_pick_lowest_index(self, monkeypatch):
        # scores equal up to rounding must not let the later entry win
        h, _, hf_idx = h2_problem()
        pool = build_fermionic_pool(4, 2)
        scores = np.array([1.0, 1.0 + 1e-13])
        monkeypatch.setattr(adaptive, "commutator_gradient",
                            lambda h, taus, state: scores)
        _, trace = adapt_vqe(h, 4, pool, initial_state=hf_idx, max_iters=1)
        assert trace.iterations[0].chosen_label == pool.entries[0].label


class TestQubitAdaptVqe:
    def test_commuting_pool_stops_immediately(self):
        h = QubitOperator.from_term(parse_pauli_string("Z0 Z1"), 1.0)
        pool = OperatorPool("qubit-pauli", (PoolEntry(
            "Y0 X1", string=parse_pauli_string("Y0 X1")),))
        build, trace = qubit_adapt_vqe(h, 2, pool, initial_state=0)
        assert trace.iterations == []
        assert trace.converged
        assert trace.final_energy == pytest.approx(1.0)

    def test_h2_reaches_chemical_accuracy(self):
        h, fci, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        build, trace = qubit_adapt_vqe(h, 4, qpool, initial_state=hf_idx)
        assert trace.final_energy - fci < 0.0016
        evolution_gates = [g for g in build.circuit.gates
                           if g.kind == "PauliEvolution"]
        assert len(evolution_gates) == len(trace.iterations)

    def test_not_marked_particle_conserving(self):
        h, _, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        build, _ = qubit_adapt_vqe(h, 4, qpool, initial_state=hf_idx)
        assert not build.particle_conserving

    def test_fermionic_pool_rejected(self):
        h, _, _ = h2_problem()
        with pytest.raises(ValueError, match="qubit-pauli"):
            qubit_adapt_vqe(h, 4, build_fermionic_pool(4, 2))

    def test_string_entry_generator_is_i_times_string(self):
        string = parse_pauli_string("X0 Y1")
        tau = PoolEntry("X0 Y1", string=string).antihermitian_operator(2)
        assert tau.terms == {string: 1j}

    def test_parameter_shift_matches_adjoint_on_pool_circuit(self):
        h = qubit_hamiltonian(bundled_molecule("H4").integrals(1.0))
        qpool = build_qubit_pool(build_fermionic_pool(8, 4), 8)
        rng = np.random.default_rng(4)
        picks = rng.choice(len(qpool), size=5, replace=False)
        circuit = ParamCircuit.from_gates(8, [
            pauli_evolution(qpool.entries[int(i)].string, f"qadapt{k}")
            for k, i in enumerate(picks)])
        values = {name: float(rng.uniform(-np.pi, np.pi))
                  for name in circuit.param_names}
        hf_idx = hf_state_index(8, 4)
        _, grad = adjoint_gradient(circuit, h, values, hf_idx)
        for name in circuit.param_names:
            shift = parameter_shift_gradient(circuit, h, values, hf_idx, name)
            assert shift == pytest.approx(grad[name], abs=1e-10)


class TestQcc:
    def test_product_ground_state_needs_no_entanglers(self):
        h = QubitOperator.from_term(parse_pauli_string("Z0"), -1.0)
        pool = OperatorPool("qubit-pauli", (PoolEntry(
            "X0 Y1", string=parse_pauli_string("X0 Y1")),))
        build, trace = qcc_optimize(h, 2, pool, initial_state=0)
        assert trace.iterations == []
        assert trace.final_energy == pytest.approx(-1.0, abs=1e-8)
        assert build.n_params == 4  # mean field only: 2 per qubit

    def test_mean_field_parameter_count(self):
        h, fci, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        build, trace = qcc_optimize(h, 4, qpool, initial_state=hf_idx,
                                    reference_energy=fci)
        assert build.n_params == 2 * 4 + len(trace.iterations)

    def test_h2_reaches_chemical_accuracy(self):
        h, fci, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        _, trace = qcc_optimize(h, 4, qpool, initial_state=hf_idx,
                                reference_energy=fci)
        assert trace.final_energy - fci < 0.0016
        assert trace.converged

    def test_first_gain_matches_dense_angle_scan(self):
        h = qubit_hamiltonian(bundled_molecule("H4").integrals(1.0))
        qpool = build_qubit_pool(build_fermionic_pool(8, 4), 8)
        hf_idx = hf_state_index(8, 4)
        _, trace = qcc_optimize(h, 8, qpool, initial_state=hf_idx,
                                max_entanglers=1)
        first = trace.iterations[0]
        # h conserves particle number, so the mean-field gradient vanishes
        # at the starting determinant and the mean field stays there
        _, mean_field = qcc_optimize(h, 8, qpool, initial_state=hf_idx,
                                     max_entanglers=0)
        assert mean_field.final_energy == pytest.approx(
            hf_energy(h, 8, 4), abs=1e-12)
        state = StateVector.basis_state(8, hf_idx)
        string = next(e.string for e in qpool.entries
                      if e.label == first.chosen_label)
        taus = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        scan = np.array([apply_pauli_evolution(state, string, t).amplitudes
                         for t in taus])
        energies = np.einsum("ti,ti->t", scan.conj(),
                             scan @ qubit_operator_matrix(h, 8).T).real
        gain = expectation(h, state) - energies.min()
        assert first.gradient_norm == pytest.approx(gain, abs=1e-6)
        assert first.gradient_norm >= gain - 1e-12  # closed form is exact

    def test_empty_pool_rejected(self):
        h, _, _ = h2_problem()
        with pytest.raises(ValueError, match="empty"):
            qcc_optimize(h, 4, OperatorPool("qubit-pauli", ()))

    def test_gain_ties_pick_lowest_index(self, monkeypatch):
        # gains equal up to rounding must not let the later entry win
        h, _, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        pool = OperatorPool("qubit-pauli", qpool.entries[:2])
        deltas = {pool.entries[0].string: -1.0,
                  pool.entries[1].string: -1.0 - 1e-13}
        monkeypatch.setattr(adaptive, "_rank_entangler",
                            lambda h, state, s, base: (deltas[s], 0.1))
        _, trace = qcc_optimize(h, 4, pool, initial_state=hf_idx,
                                max_entanglers=1)
        assert trace.iterations[0].chosen_label == pool.entries[0].label
