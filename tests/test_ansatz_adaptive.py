import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    basis_state,
    circuit_state,
    pauli_matrix,
    pool_entry_finite_difference,
    qubit_operator_matrix,
    random_circuit,
    random_hermitian_operator,
    random_string,
    random_values,
)
from vqe_bench import simulator
from vqe_bench.ansatz import ExcitationGenerator, adaptive, build_uccsd_singlet
from vqe_bench.ansatz import core
from vqe_bench.ansatz.core import generator_gates
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
    Gate,
    ParamCircuit,
    adjoint_gradient,
    apply_circuit,
    apply_pauli_evolution,
    commutator_gradient,
    expectation,
    parameter_shift_gradient,
    pauli_evolution,
    ry,
    runs_in_sector,
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

    def test_pools_and_screening_circuit_map_each_generator_once(
            self, monkeypatch):
        # the UCCSD build, the qubit pool and the screening circuit each
        # mapped every generator again: 92 mappings of H4's 36
        mapped = []

        def recording(op, n_qubits):
            mapped.append(frozenset(op.terms.items()))
            return real(op, n_qubits)

        real = core.jordan_wigner
        monkeypatch.setattr(core, "jordan_wigner", recording)
        fermionic = build_fermionic_pool(8, 4)
        build_qubit_pool(fermionic, 8)
        fermionic.candidate_circuit(8)
        # 8 of the 36 are zero (an orbital repeated) and join no entry
        nonzero = [terms for terms in mapped if terms]
        assert len(mapped) == 36
        assert len(nonzero) == len(set(nonzero)) == 28 == sum(
            len(entry.generators) for entry in fermionic.entries)

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


def lih_problem():
    data = bundled_molecule("LiH").integrals(1.6)
    fermionic = build_fermionic_pool(12, 4)
    return (qubit_hamiltonian(data), fermionic,
            build_qubit_pool(fermionic, 12), hf_state_index(12, 4))


class TestPoolScreening:
    H4 = qubit_hamiltonian(bundled_molecule("H4").integrals(1.0))
    FERMIONIC = build_fermionic_pool(8, 4)
    UCCSD = build_uccsd_singlet(8, 4).circuit

    @pytest.mark.parametrize("case", ["sector pool, sector circuit",
                                      "qubit pool from HF",
                                      "sector pool, circuit leaves sector"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_slopes_equal_adjoint_gradient_of_appended_pool(self, case,
                                                            seed):
        # appending the pool at zero angles and differentiating must give
        # the screening slopes, whichever basis each plan runs over
        hf_idx = hf_state_index(8, 4)
        if case == "qubit pool from HF":
            circuit = ParamCircuit(8, ())
            pool = build_qubit_pool(self.FERMIONIC, 8).candidate_circuit(8)
            assert not runs_in_sector(pool, hf_idx)
        else:
            circuit = self.UCCSD
            if case == "sector pool, circuit leaves sector":
                circuit = ParamCircuit(
                    8, circuit.gates + (ry(3, "leak"),))
            pool = self.FERMIONIC.candidate_circuit(8)
            assert runs_in_sector(pool, hf_idx)
        assert runs_in_sector(circuit, hf_idx) == ("leaves" not in case)
        rng = np.random.default_rng(seed)
        values = np.array([float(rng.uniform(-0.5, 0.5))
                           for _ in circuit.param_names])
        energy, slopes = commutator_gradient(circuit, self.H4, values,
                                             hf_idx, pool)
        appended = ParamCircuit(8, circuit.gates + pool.gates)
        assert appended.param_names == circuit.param_names + pool.param_names
        expected_energy, grad = adjoint_gradient(
            appended, self.H4, np.concatenate((values,
                                               np.zeros(pool.n_params))),
            hf_idx)
        assert energy == pytest.approx(expected_energy, abs=1e-12)
        assert slopes.shape == (pool.n_params,)
        for k, name in enumerate(pool.param_names):
            assert slopes[k] == pytest.approx(
                grad[appended.param_names.index(name)], abs=1e-12)

    @pytest.mark.parametrize("unbound", [
        Gate("PauliEvolution", (0, 1, 2, 3),
             generator=parse_pauli_string("X0 X1 X2 Y3"), angle=0.3),
        Gate("CNOT", (0, 1))], ids=["fixed angle", "CNOT"])
    def test_pool_gate_binding_no_parameter_refused(self, unbound):
        # a fixed-angle evolution's slope landed on the last pool
        # parameter ("a" read -0.36 instead of 0.0); a CNOT raised a
        # TypeError
        h, _, hf_idx = h2_problem()
        pool = ParamCircuit(4, [
            pauli_evolution(parse_pauli_string("X0 Y2"), "a"), unbound])
        with pytest.raises(ValueError, match="bind a parameter"):
            commutator_gradient(ParamCircuit(4, ()), h, [], hf_idx, pool)

    def test_equal_labels_stay_separate_candidates(self):
        string = parse_pauli_string("Y0 X1")
        pool = OperatorPool("qubit-pauli", (PoolEntry("same", string=string),
                                            PoolEntry("same", string=string)))
        assert pool.candidate_circuit(2).param_names == ("0", "1")

    def test_fermionic_adapt_compiles_only_h_over_its_sector(self,
                                                              monkeypatch):
        h, fermionic, _, hf_idx = lih_problem()
        compiled = []

        def recording(op, n_qubits, basis=None):
            compiled.append((op is h, None if basis is None else len(basis)))
            return real(op, n_qubits, basis)

        real = simulator.pauli_sum_matrix
        monkeypatch.setattr(simulator, "pauli_sum_matrix", recording)
        build, trace = adapt_vqe(h, 12, fermionic, initial_state=hf_idx,
                                 max_iters=2)
        assert len(trace.iterations) == 2
        assert compiled == [(True, 225)]
        # a pick appends the same gates its generators compile to
        assert build.circuit.gates == tuple(
            gate for gen in build.generators
            for gate in generator_gates(gen, 12))

    def test_adapt_restricts_each_step_once(self, monkeypatch):
        # each iteration recompiled its whole circuit, so the weights of
        # every earlier step were read off all 2**n states again
        data = bundled_molecule("H4").integrals(1.0)
        h, hf_idx = qubit_hamiltonian(data), hf_state_index(8, 4)
        pool = build_fermionic_pool(8, 4)
        calls = []

        def counting(step, n_amps):
            calls.append(step)
            return real(step, n_amps)

        real = simulator._weights
        monkeypatch.setattr(simulator, "_weights", counting)
        build, trace = adapt_vqe(h, 8, pool, initial_state=hf_idx)
        monkeypatch.undo()
        assert trace.converged and len(trace.iterations) == 8
        screen = simulator._circuit_plan(pool.candidate_circuit(8), hf_idx)
        picked = simulator._circuit_plan(build.circuit, hf_idx)
        assert picked.basis is not None
        assert len(calls) == len(screen.steps) + len(picked.steps)

    def test_adapt_memory_is_bounded(self):
        # grown plans hold no earlier circuit or table: 1.77-1.87 MB
        # when each iteration compiled its circuit afresh, 1.46-1.55 MB now
        h, fermionic, _, hf_idx = lih_problem()
        simulator.compiled_sum(h, 12, simulator.sector_indices(12, 4, 0))
        tracemalloc.start()
        try:
            _, trace = adapt_vqe(h, 12, fermionic, initial_state=hf_idx,
                                 max_iters=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.iterations) == 6
        assert peak < 1.7e6

    def test_qubit_adapt_screening_memory_is_bounded(self):
        # a 2**12-row CSR matrix per candidate of the 640-string pool would
        # peak near 64 MB; the pool's plan holds no per-candidate array
        h, _, qubit, hf_idx = lih_problem()
        simulator.compiled_sum(h, 12)
        tracemalloc.start()
        try:
            _, trace = qubit_adapt_vqe(h, 12, qubit, initial_state=hf_idx,
                                       max_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.iterations) == 1
        assert peak < 8e6


class TestGrowthLoop:
    def test_negative_iteration_counts_rejected(self):
        # they returned the reference energy with converged=False
        h, _, hf_idx = h2_problem()
        fermionic = build_fermionic_pool(4, 2)
        qubit = build_qubit_pool(fermionic, 4)
        calls = [lambda: adapt_vqe(h, 4, fermionic, max_iters=-1),
                 lambda: qubit_adapt_vqe(h, 4, qubit, max_iters=-1),
                 lambda: qcc_optimize(h, 4, qubit, max_entanglers=-1)]
        for call in calls:
            with pytest.raises(ValueError, match="is negative"):
                call()


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
        circuit = build_uccsd_singlet(8, 4).circuit
        values = np.zeros(circuit.n_params)
        state = apply_circuit(circuit, values, hf_state_index(8, 4))
        for entry in pool.entries:
            fd = pool_entry_finite_difference(h, state, entry, 8)
            tau = entry.antihermitian_operator(8)  # i sum_j c_j P_j
            gates = ParamCircuit(8, [
                pauli_evolution(string, "tau", coeff.imag)
                for string, coeff in tau.terms.items()])
            analytic = commutator_gradient(
                circuit, h, values, hf_state_index(8, 4), gates)[1][0]
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
        monkeypatch.setattr(
            adaptive, "commutator_gradient",
            lambda circuit, h, values, initial, pool: (0.0, scores))
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
        circuit = ParamCircuit(8, [
            pauli_evolution(qpool.entries[int(i)].string, f"qadapt{k}")
            for k, i in enumerate(picks)])
        values = np.array([float(rng.uniform(-np.pi, np.pi))
                           for _ in circuit.param_names])
        hf_idx = hf_state_index(8, 4)
        _, grad = adjoint_gradient(circuit, h, values, hf_idx)
        for k, name in enumerate(circuit.param_names):
            shift = parameter_shift_gradient(circuit, h, values, hf_idx, name)
            assert shift == pytest.approx(grad[k], abs=1e-10)


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
        state = basis_state(8, hf_idx)
        string = next(e.string for e in qpool.entries
                      if e.label == first.chosen_label)
        taus = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        scan = np.array([apply_pauli_evolution(state, string, t)
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

    def test_fermionic_pool_rejected(self):
        # it died inside the ranking with an AttributeError
        h, _, hf_idx = h2_problem()
        with pytest.raises(ValueError, match="qubit-pauli"):
            qcc_optimize(h, 4, build_fermionic_pool(4, 2),
                         initial_state=hf_idx)

    def test_gain_ties_pick_lowest_index(self, monkeypatch):
        # gains equal up to rounding must not let the later entry win
        h, _, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        pool = OperatorPool("qubit-pauli", qpool.entries[:2])
        # with b = 0 the deltas -hypot(b, c) - b are -1.0 and -1.0 - 1e-13
        c = np.array([1.0, 1.0 + 1e-13])
        assert list(-np.hypot(0.0, c)) == [-1.0, -1.0 - 1e-13]
        monkeypatch.setattr(
            adaptive, "_entangler_curves",
            lambda h, anticommutes, circuit, values, initial, slopes: (
                np.zeros(2), c))
        _, trace = qcc_optimize(h, 4, pool, initial_state=hf_idx,
                                max_entanglers=1)
        assert trace.iterations[0].chosen_label == pool.entries[0].label
        assert trace.iterations[0].gradient_norm == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_curves_match_dense_angle_scan(self, seed):
        # appending exp(i tau P) to a random state moves the energy by
        # b (cos 2tau - 1) + c sin 2tau, and qcc_optimize's gain
        # hypot(b, c) + b at tau* = atan2(-c, -b) / 2 is the scan's drop
        rng = np.random.default_rng(seed)
        n = 3
        circuit = random_circuit(rng, n, 3, 8)
        values = random_values(rng, circuit)
        initial = int(rng.integers(2 ** n))
        h = random_hermitian_operator(rng, n, 6)
        strings = [random_string(rng, n, min_size=1) for _ in range(4)]
        pool = OperatorPool("qubit-pauli", tuple(
            PoolEntry(str(s), string=s) for s in strings))
        screen = pool.candidate_circuit(n)
        slopes = commutator_gradient(circuit, h, values, initial, screen)[1]
        b, c = adaptive._entangler_curves(
            h, simulator.anticommuting(strings, h.terms), circuit, values,
            initial, np.array([slopes[screen.param_names.index(str(k))]
                               for k in range(len(pool))]))
        psi = circuit_state(circuit, values, initial)
        hmat = qubit_operator_matrix(h, n)
        e0 = np.vdot(psi, hmat @ psi).real
        taus = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        for k, string in enumerate(strings):
            moved = pauli_matrix(string, n) @ psi
            scan = (np.cos(taus)[:, None] * psi
                    + 1j * np.sin(taus)[:, None] * moved)
            energies = np.einsum("ti,ti->t", scan.conj(),
                                 scan @ hmat.T).real
            curve = b[k] * (np.cos(2 * taus) - 1) + c[k] * np.sin(2 * taus)
            np.testing.assert_allclose(energies - e0, curve, atol=1e-10)
            gain = math.hypot(b[k], c[k]) + b[k]
            # no scan point beats the closed form, and the grid misses
            # the minimum by at most hypot(b, c) step^2
            miss = gain - (e0 - energies.min())
            step = taus[1] - taus[0]
            assert -1e-12 <= miss <= math.hypot(b[k], c[k]) * step**2 + 1e-10
            best = 0.5 * math.atan2(-c[k], -b[k])
            rotated = math.cos(best) * psi + 1j * math.sin(best) * moved
            assert np.vdot(rotated, hmat @ rotated).real == pytest.approx(
                e0 - gain, abs=1e-10)

    # parent picks of the ranking by E(0) and E(+-pi/4), which this one
    # replaced; the labels are exact and the energies within 1e-12 Ha
    PINS = {
        ("H4", 1.0): (["X2 X3 X4 Y5", "X0 X3 X4 Y7", "X1 X2 X5 Y6",
                       "X0 X1 X6 Y7", "X0 X1 X4 Y5", "X2 Y3 Y6 Y7",
                       "X0 X3 Y5 X6", "X1 Y2 X4 X7", "X0 Y2 Y4 Y6",
                       "X1 X3 X5 Y7"], -2.1653594559622342),
        ("H4", 1.8): (["X2 X3 X4 Y5", "X0 X3 X4 Y7", "X1 X2 X5 Y6",
                       "X0 X1 X6 Y7", "X3 Y7", "X0 Y4", "X0 X3 Y5 X6",
                       "Y1 X2 Y4 Y7", "X0 Y1 X4 X5", "X2 X3 Y6 X7",
                       "X1 Y2 Y5 Y6", "X0 X3 Y4 X7", "X1 Y3 X5 X7",
                       "X0 Y2 Y4 Y6", "Y2 X6", "Y1 X5", "X2 Y3 Y6 Y7",
                       "X1 Y2 X5 X6", "X1 Y3 Y5 Y7"], -1.9228709569121403),
        ("LiH", 1.6): (["X2 X3 X10 Y11", "X2 X3 X4 Y11", "X2 X3 Y5 X10",
                        "X2 X3 X4 Y5", "X2 Y3 X6 X7"], -7.881118264995239),
    }

    @pytest.mark.parametrize("molecule,bond_length", list(PINS))
    def test_full_qubit_pool_picks_are_pinned(self, molecule, bond_length):
        data = bundled_molecule(molecule).integrals(bond_length)
        h, n = qubit_hamiltonian(data), data.n_qubits
        fci = exact_ground_energy(h, n, sector=(data.n_electrons, data.ms2))
        qpool = build_qubit_pool(build_fermionic_pool(n, data.n_electrons), n)
        _, trace = qcc_optimize(
            h, n, qpool, initial_state=hf_state_index(n, data.n_electrons),
            reference_energy=fci)
        labels, final = self.PINS[molecule, bond_length]
        assert [it.chosen_label for it in trace.iterations] == labels
        assert trace.final_energy == pytest.approx(final, abs=1e-12)
        assert trace.converged
