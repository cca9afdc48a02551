import gc
import hashlib
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    basis_state,
    circuit_state,
    isclose,
    pauli_matrix,
    pool_entry_finite_difference,
    qubit_operator_matrix,
    random_circuit,
    random_hermitian_operator,
    random_string,
    random_values,
    ry,
    runs_in_sector,
)
from vqe_bench import simulator
from vqe_bench.ansatz import (
    ExcitationGenerator,
    adaptive,
    build_uccsd_singlet,
    core,
    trotterize,
    uccsd_singlet_generators,
)
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
        # mapped every generator again: 92 mappings of H4's 36; then the
        # pool's UCCSD build mapped 36, 8 of them zero (an orbital repeated).
        # A generator maps as one ladder product, its normal-ordered key.
        mapped = []

        def recording(out, factors, coeff, z_chain):
            image = {}
            real(image, factors, coeff, z_chain)
            out.update(image)
            mapped.append(((tuple(factors), coeff, z_chain), len(image)))

        real = core._add_ladder_terms
        monkeypatch.setattr(core, "_add_ladder_terms", recording)
        fermionic = build_fermionic_pool(8, 4)
        assert mapped == []  # the pool maps at first use
        build_qubit_pool(fermionic, 8)
        fermionic.candidate_circuit(8)
        assert len(mapped) == len(set(mapped)) == 28 == sum(
            len(entry.generators) for entry in fermionic.entries)
        assert all(n_strings for _, n_strings in mapped)

    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (8, 4), (12, 4)])
    def test_entries_group_the_uccsd_list_in_order(self, n_qubits,
                                                   n_electrons):
        gens = uccsd_singlet_generators(n_qubits, n_electrons)
        pool = build_fermionic_pool(n_qubits, n_electrons)
        assert [entry.label for entry in pool.entries] == list(
            dict.fromkeys(gen.param_name for gen in gens))
        assert [gen for entry in pool.entries
                for gen in entry.generators] == gens
        for entry in pool.entries:
            assert {gen.param_name for gen in entry.generators} == {
                entry.label}

    def test_entries_are_anti_hermitian_odd_y(self):
        pool = build_fermionic_pool(8, 4)
        for entry in pool.entries:
            op = QubitOperator.zero()
            for gen in entry.generators:
                op = op + gen.antihermitian_operator(8)
            assert isclose(op, -1.0 * op.dagger(), 1e-12)
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


def _traced_peak(call):
    """call()'s result and its tracemalloc peak, read after a collection
    and with the collector off, so when it last ran does not move it."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


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
        energy, slopes, _ = commutator_gradient(circuit, self.H4, values,
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
        # a pick appends its entry's gates renamed adapt{i}: the gates its
        # generators compile to under that name
        entries = {entry.label: entry for entry in fermionic.entries}
        picked = [entries[it.chosen_label] for it in trace.iterations]
        assert build.circuit.gates == tuple(
            gate for i, entry in enumerate(picked)
            for gate in entry.gates(12, f"adapt{i}"))
        assert build.circuit.gates == trotterize(
            [replace(gen, param_name=f"adapt{i}")
             for i, entry in enumerate(picked)
             for gen in entry.generators], 12).gates

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
        # when each iteration compiled its circuit afresh.  H's compiled
        # form and the process's index and sign tables, which an earlier
        # test may or may not have built, are built before the window
        h, fermionic, _, hf_idx = lih_problem()
        simulator.compiled_sum(h, 12, simulator.sector_indices(12, 4, 0))
        simulator._indices(1 << 12)
        for bits in range(1, 13):
            simulator._sign_table(bits)
        (_, trace), peak = _traced_peak(lambda: adapt_vqe(
            h, 12, fermionic, initial_state=hf_idx, max_iters=6))
        assert len(trace.iterations) == 6
        assert peak < 1.7e6

    def test_sector_screening_holds_no_full_state(self):
        # ADAPT's first LiH screening, circuit and pool both over the
        # 225-state sector, scattered its state to all 4,096 amplitudes
        # (64 KB) that no sector rank reads: its peak beyond h's product
        # over the sector was 70 KB, and is under half a full state now
        h, fermionic, _, hf_idx = lih_problem()
        circuit, screen = ParamCircuit(12, ()), fermionic.candidate_circuit(12)
        commutator_gradient(circuit, h, [], hf_idx, screen)  # plans, h's form
        sector = simulator.sector_indices(12, 4, 0)
        product = simulator.compiled_sum(h, 12, sector)
        state = np.zeros(len(sector), dtype=complex)
        state[0] = 1.0
        _, product_peak = _traced_peak(lambda: product @ state)
        (_, _, amps), peak = _traced_peak(lambda: commutator_gradient(
            circuit, h, [], hf_idx, screen))
        assert amps.shape == (len(sector),)
        assert peak - product_peak < (1 << 12) * 16 // 2

    def test_qubit_adapt_screening_memory_is_bounded(self):
        # a 2**12-row CSR matrix per candidate of the 640-string pool would
        # peak near 64 MB; the pool's plan holds no per-candidate array
        h, _, qubit, hf_idx = lih_problem()
        simulator.compiled_sum(h, 12)
        (_, trace), peak = _traced_peak(lambda: qubit_adapt_vqe(
            h, 12, qubit, initial_state=hf_idx, max_iters=1))
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

    def test_entry_without_gates_refused(self):
        # its slope was read as 0.0; no generator maps to no gate, so only
        # an entry with neither string nor generators had none, and such
        # an entry is refused where it is made
        with pytest.raises(ValueError, match="'empty' needs a string or "
                                             "generators"):
            PoolEntry("empty")
        with pytest.raises(ValueError, match="zero prefactor"):
            ExcitationGenerator("single", (0,), (2,), "x", prefactor=0.0)

    @pytest.mark.parametrize("function,name,value", [
        ("adapt_vqe", "epsilon", math.nan),
        ("adapt_vqe", "epsilon", math.inf),
        ("qubit_adapt_vqe", "epsilon", math.nan),
        ("qcc_optimize", "improvement_tol", math.nan),
        ("qcc_optimize", "improvement_tol", -1e-6),
        ("qcc_optimize", "chem_tol", math.nan),
        ("qcc_optimize", "chem_tol", -1e-3),
        ("qcc_optimize", "reference_energy", math.nan),
        ("qcc_optimize", "reference_energy", math.inf)])
    def test_non_finite_or_negative_stop_values_rejected(self, function,
                                                         name, value):
        # epsilon=nan ran to max_iters unconverged, epsilon=inf returned
        # at once marked converged; QCC took NaN for all three
        h, _, hf_idx = h2_problem()
        fermionic = build_fermionic_pool(4, 2)
        pool = (fermionic if function == "adapt_vqe"
                else build_qubit_pool(fermionic, 4))
        with pytest.raises(ValueError, match=name):
            getattr(adaptive, function)(h, 4, pool, initial_state=hf_idx,
                                        **{name: value})


class TestAdaptVqe:
    def test_huge_epsilon_stops_at_hf(self):
        h, _, hf_idx = h2_problem()
        pool = build_fermionic_pool(4, 2)
        build, trace = adapt_vqe(h, 4, pool, epsilon=1e3, initial_state=hf_idx)
        assert trace.iterations == ()
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

    def test_trace_is_built_once_and_frozen(self):
        h, _, hf_idx = h2_problem()
        _, trace = adapt_vqe(h, 4, build_fermionic_pool(4, 2),
                             initial_state=hf_idx)
        assert trace.converged and trace.iterations
        with pytest.raises(FrozenInstanceError):
            trace.converged = False
        with pytest.raises(FrozenInstanceError):
            trace.iterations[0].wall_time = 0.0
        assert isinstance(trace.iterations, tuple)
        payload = trace.to_dict()
        assert list(payload) == ["converged", "final_energy", "iterations"]
        assert isinstance(payload["iterations"], list)
        assert list(payload["iterations"][0]) == [
            "chosen_label", "gradient_norm", "energy_after_reopt", "n_params",
            "wall_time"]

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
            lambda circuit, h, values, initial, pool: (0.0, scores, None))
        _, trace = adapt_vqe(h, 4, pool, initial_state=hf_idx, max_iters=1)
        assert trace.iterations[0].chosen_label == pool.entries[0].label


class TestQubitAdaptVqe:
    def test_commuting_pool_stops_immediately(self):
        h = QubitOperator.from_term(parse_pauli_string("Z0 Z1"), 1.0)
        pool = OperatorPool("qubit-pauli", (PoolEntry(
            "Y0 X1", string=parse_pauli_string("Y0 X1")),))
        build, trace = qubit_adapt_vqe(h, 2, pool, initial_state=0)
        assert trace.iterations == ()
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

    def test_h2_pick_keeps_the_hf_sector(self):
        # the family may leave the sector (H4 does, in test_plan), but
        # H2's one pick, X0 X1 X2 Y3, maps the (2, 0) sector onto itself:
        # the circuit, not its family, decides where the plan runs
        h, _, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        build, _ = qubit_adapt_vqe(h, 4, qpool, initial_state=hf_idx)
        assert [gate.generator for gate in build.circuit.gates] == [
            parse_pauli_string("X0 X1 X2 Y3")]
        assert runs_in_sector(build.circuit, hf_idx)

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
        assert trace.iterations == ()
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

    @pytest.mark.parametrize("initial", [19, -1])
    def test_initial_state_outside_the_register_refused(self, initial):
        # only its low 4 bits seeded the mean field: 19 gave state 3's
        # answer and -1 state 15's
        h, _, _ = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        with pytest.raises(ValueError, match=f"basis index {initial} out "
                                             "of range"):
            qcc_optimize(h, 4, qpool, initial_state=initial)

    def test_gain_ties_pick_lowest_index(self, monkeypatch):
        # gains equal up to rounding must not let the later entry win
        h, _, hf_idx = h2_problem()
        qpool = build_qubit_pool(build_fermionic_pool(4, 2), 4)
        pool = OperatorPool("qubit-pauli", qpool.entries[:2])
        # with b = 0 the deltas -hypot(b, c) - b are -1.0 and -1.0 - 1e-13
        c = np.array([1.0, 1.0 + 1e-13])
        assert list(-np.hypot(0.0, c)) == [-1.0, -1.0 - 1e-13]
        monkeypatch.setattr(
            adaptive, "commutator_gradient",
            lambda circuit, h, values, initial, pool: (0.0, 2.0 * c, None))
        monkeypatch.setattr(adaptive, "term_expectations",
                            lambda h, amps: np.zeros(len(h.terms)))
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
        _, slopes, amps = commutator_gradient(circuit, h, values, initial,
                                              screen)
        b = (simulator.anticommuting(strings, h.terms)
             @ simulator.term_expectations(h, amps))
        c = 0.5 * np.array([slopes[screen.param_names.index(str(k))]
                            for k in range(len(pool))])
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

    def test_each_ranked_iteration_runs_its_circuit_once(self, monkeypatch):
        # the ranking ran the circuit a second time for its term
        # expectations; the screening pass now hands it the state
        h = qubit_hamiltonian(bundled_molecule("H4").integrals(1.0))
        qpool = build_qubit_pool(build_fermionic_pool(8, 4), 8)
        runs, ranked, optimizing = [], [], []

        def counting_run(circuit, *args):
            if not optimizing:
                runs.append(circuit.n_params)
            return real_run(circuit, *args)

        def reoptimizing(*args):
            optimizing.append(True)
            try:
                return real_reoptimize(*args)
            finally:
                optimizing.pop()

        def counting_terms(*args):
            ranked.append(True)
            return real_terms(*args)

        real_run, real_reoptimize, real_terms = (
            simulator._run, adaptive._reoptimize, adaptive.term_expectations)
        monkeypatch.setattr(simulator, "_run", counting_run)
        monkeypatch.setattr(adaptive, "_reoptimize", reoptimizing)
        monkeypatch.setattr(adaptive, "term_expectations", counting_terms)
        _, trace = qcc_optimize(h, 8, qpool,
                                initial_state=hf_state_index(8, 4),
                                max_entanglers=3)
        assert len(trace.iterations) == len(ranked) == 3
        assert runs == [16, 17, 18]  # the mean field, then one per pick

    def test_mixed_entries_refused(self):
        # an entry with a string and generators screened as iP but grew
        # 3 gates on 4 qubits; a pool of the wrong kind of entry reached
        # anticommuting, which died on a None string
        string = parse_pauli_string("Y0 X1")
        single = ExcitationGenerator("single", (0,), (2,), "x")
        with pytest.raises(ValueError, match="'x' needs a string or "
                                             "generators"):
            PoolEntry("x", (single,), string)
        fermionic = PoolEntry("x", (single,))
        qubit = PoolEntry("Y0 X1", string=string)
        with pytest.raises(ValueError, match="qubit-pauli pool cannot hold "
                                             "entry 'x'"):
            OperatorPool("qubit-pauli", (qubit, fermionic))
        with pytest.raises(ValueError, match="fermionic-sd pool cannot "
                                             "hold entry 'Y0 X1'"):
            OperatorPool("fermionic-sd", (fermionic, qubit))

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


def _adaptive_digest(monkeypatch, kind, molecule, bond_length, **kwargs):
    """SHA-256 over a run's chosen labels, gradient_norm, energy_after_reopt
    and n_params per iteration, its final energy and its final parameters
    (the last re-optimization's), each as a repr of Python numbers."""
    data = bundled_molecule(molecule).integrals(bond_length)
    h, n = qubit_hamiltonian(data), data.n_qubits
    hf_idx = hf_state_index(n, data.n_electrons)
    pool = build_fermionic_pool(n, data.n_electrons)
    if kind != "adapt":
        pool = build_qubit_pool(pool, n)
    outcomes = []

    def recording(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    real = adaptive._reoptimize
    monkeypatch.setattr(adaptive, "_reoptimize", recording)
    run = {"adapt": adapt_vqe, "qubit-adapt": qubit_adapt_vqe,
           "qcc": qcc_optimize}[kind]
    _, trace = run(h, n, pool, initial_state=hf_idx, **kwargs)
    its = trace.iterations
    digest = hashlib.sha256()
    for value in ([it.chosen_label for it in its],
                  [float(it.gradient_norm) for it in its],
                  [float(it.energy_after_reopt) for it in its],
                  [it.n_params for it in its], float(trace.final_energy),
                  outcomes[-1].parameters.tolist()):
        digest.update(repr(value).encode() + b"\n")
    return digest.hexdigest()


class TestAdaptivePins:
    """Adaptive trajectories pinned bit for bit at commit 39c4cfa, where
    QCC's ranking ran the circuit a second time for its term
    expectations."""

    PINS = {
        ("adapt", "H4", 1.0, ()): (
            "c2b33dac52e0b6b218f6d27c6f0e9616bedc6f81f479ef47c912a7bdf93caddc"),
        ("adapt", "H4", 1.8, ()): (
            "c071b2a6ab6f137ab2ebaea35227bf47d84250bde65ba5da913508d76f79736a"),
        ("qubit-adapt", "H4", 1.0, (("max_iters", 3),)): (
            "9f6f7011f0e4ad701e4bcef74c87cec1cfed90cc96db61f44126039eeb11e09b"),
        ("qcc", "H4", 1.0, (("max_entanglers", 2),)): (
            "3f30843096b18d6e1c37d2389ede0db2fe77ca7191d66850de2b611ce8e9b3eb"),
        ("qcc", "LiH", 1.6, (("max_entanglers", 1),)): (
            "511f06ed643a100df8e60c85f0b75c7ae34d66887e2981658a6bb950936d52ab"),
    }

    @pytest.mark.parametrize("kind,molecule,bond_length,kwargs", list(PINS))
    def test_trajectory_is_pinned(self, monkeypatch, kind, molecule,
                                  bond_length, kwargs):
        assert _adaptive_digest(monkeypatch, kind, molecule, bond_length,
                                **dict(kwargs)) == self.PINS[
            kind, molecule, bond_length, kwargs]
