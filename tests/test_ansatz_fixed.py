import dataclasses
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vqe_bench.ansatz import (
    ExcitationGenerator,
    build_kupccgsd,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
    trotterize,
    uccsd_singlet_generators,
)
from vqe_bench.ansatz import fixed
from vqe_bench.ansatz.core import FERMIONIC_KINDS, QUBIT_KINDS
from vqe_bench.ansatz.adaptive import build_fermionic_pool
from vqe_bench.driver import OptimizerConfig, run_vqe
from vqe_bench.hamiltonian import (
    bundled_molecule,
    exact_ground_energy,
    hf_energy,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.simulator import apply_circuit, expectation
from oracles import (
    finite_difference_gradient,
    number_expectation,
    operator_path_mapping,
    random_hermitian_operator,
    runs_in_sector,
)

BUILDERS = {
    "UCCSD": build_uccsd_singlet,
    "UCCSD0": build_uccsd0,
    "QUCC": build_qucc,
    "1-UpCCGSD": lambda n, e: build_kupccgsd(n, e, 1),
    "2-UpCCGSD": lambda n, e: build_kupccgsd(n, e, 2),
}


def oracle_uccsd_param_count(n_qubits, n_electrons):
    """Enumeration oracle: spatial single signatures plus unordered pairs
    (with repetition) of them."""
    n_occ = n_electrons // 2
    occ = range(n_occ)
    virt = range(n_occ, n_qubits // 2)
    singles = [(i, a) for i in occ for a in virt]
    doubles = list(combinations_with_replacement(singles, 2))
    return len(singles) + len(doubles)


def oracle_uccsd0_param_count(n_qubits, n_electrons):
    """Enumeration oracle: singles plus singlet-pair (i<=j, a<=b) and
    triplet-pair (i<j, a<b) channel signatures."""
    n_occ = n_electrons // 2
    occ = range(n_occ)
    virt = range(n_occ, n_qubits // 2)
    singles = len(occ) * len(virt)
    sigma = len(list(combinations_with_replacement(occ, 2))) * len(
        list(combinations_with_replacement(virt, 2)))
    pi = len(list(combinations(occ, 2))) * len(list(combinations(virt, 2)))
    return singles + sigma + pi


class TestTrotterize:
    def test_empty_list(self):
        circuit = trotterize([], 4)
        assert circuit.gates == ()
        assert circuit.n_params == 0

    def test_single_excitation_two_gates_one_param(self):
        gen = ExcitationGenerator("single", (0,), (2,), "t")
        circuit = trotterize([gen], 4)
        assert len(circuit.gates) == 2
        assert circuit.param_names == ("t",)
        assert all(g.kind == "PauliEvolution" for g in circuit.gates)

    def test_double_excitation_eight_gates(self):
        gen = ExcitationGenerator("double", (0, 1), (2, 3), "t")
        circuit = trotterize([gen], 4)
        assert len(circuit.gates) == 8
        assert circuit.param_names == ("t",)

    def test_deterministic_rebuild(self):
        gens = [ExcitationGenerator("double", (0, 1), (2, 3), "a"),
                ExcitationGenerator("single", (1,), (3,), "b")]
        first = trotterize(gens, 4)
        second = trotterize(gens, 4)
        assert first.gates == second.gates


class TestUccsdGeneratorList:
    @pytest.mark.parametrize("n_qubits,n_electrons,count",
                             [(4, 2, 3), (8, 4, 28), (12, 4, 104)])
    def test_no_orbital_repeated_and_every_generator_has_gates(
            self, n_qubits, n_electrons, count):
        # H4 listed 36 and LiH 136: each same-spin double with i == j or
        # a == b named a spin orbital twice and mapped to no gate
        gens = uccsd_singlet_generators(n_qubits, n_electrons)
        assert len(gens) == count
        for gen in gens:
            orbitals = gen.occupied + gen.virtual
            assert len(set(orbitals)) == len(orbitals)
            assert gen.gates(n_qubits)
        assert (trotterize(gens, n_qubits).gates
                == build_uccsd_singlet(n_qubits, n_electrons).circuit.gates)

    @pytest.mark.parametrize("kind,occupied,virtual,orbital", [
        ("double", (0, 0), (1, 2), 0),
        ("double", (0, 1), (2, 2), 2),
        ("single", (1,), (1,), 1),
        ("qubit-double", (0, 1), (3, 0), 0),
    ])
    def test_repeated_orbital_refused(self, kind, occupied, virtual,
                                      orbital):
        with pytest.raises(ValueError, match=f"orbital {orbital} appears "
                                             "twice"):
            ExcitationGenerator(kind, occupied, virtual, "t")


class TestParameterCounts:
    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (8, 4), (12, 4)])
    def test_uccsd_matches_enumeration_oracle(self, n_qubits, n_electrons):
        build = build_uccsd_singlet(n_qubits, n_electrons)
        assert build.n_params == oracle_uccsd_param_count(n_qubits, n_electrons)

    def test_uccsd_frozen_values(self):
        assert build_uccsd_singlet(4, 2).n_params == 2
        assert build_uccsd_singlet(8, 4).n_params == 14
        assert build_uccsd_singlet(12, 4).n_params == 44

    @pytest.mark.parametrize("n_qubits,n_electrons", [(4, 2), (8, 4), (12, 4)])
    def test_uccsd0_equals_uccsd(self, n_qubits, n_electrons):
        u0 = build_uccsd0(n_qubits, n_electrons)
        assert u0.n_params == oracle_uccsd0_param_count(n_qubits, n_electrons)
        assert u0.n_params == build_uccsd_singlet(n_qubits, n_electrons).n_params

    def test_kupccgsd_scales_linearly(self):
        base = build_kupccgsd(8, 4, 1).n_params
        assert base == 12
        for k in (2, 3):
            assert build_kupccgsd(8, 4, k).n_params == k * base

    def test_kupccgsd_h2_block_content(self):
        build = build_kupccgsd(4, 2, 1)
        assert build.n_params == 2  # one generalized single pair + one pair double

    def test_qucc_frozen_values(self):
        assert build_qucc(4, 2).n_params == 3
        assert build_qucc(8, 4).n_params == 26

    def test_open_shell_rejected(self):
        for builder in BUILDERS.values():
            with pytest.raises(ValueError):
                builder(8, 3)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            build_kupccgsd(8, 4, 0)


class TestHartreeFockAtZero:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("mol,r", [("H2", 0.7414), ("H4", 1.0)])
    def test_zero_angles_reproduce_hf_energy(self, name, mol, r):
        data = bundled_molecule(mol).integrals(r)
        h = qubit_hamiltonian(data)
        build = BUILDERS[name](data.n_qubits, data.n_electrons)
        values = np.zeros(build.n_params)
        state = apply_circuit(build.circuit, values,
                              hf_state_index(data.n_qubits, data.n_electrons))
        assert expectation(h, state) == pytest.approx(
            hf_energy(h, data.n_qubits, data.n_electrons), abs=1e-12)


class TestQubitExcitations:
    def test_single_touches_only_its_qubits(self):
        gen = ExcitationGenerator("qubit-single", (1,), (5,), "t")
        op = gen.antihermitian_operator(8)
        strings = {str(s): c for s, c in op.terms.items()}
        assert set(strings) == {"Y1 X5", "X1 Y5"}
        assert all(abs(c.real) < 1e-15 and abs(abs(c.imag) - 0.5) < 1e-15
                   for c in strings.values())

    def test_double_has_eight_local_strings(self):
        gen = ExcitationGenerator("qubit-double", (0, 1), (4, 6), "t")
        op = gen.antihermitian_operator(8)
        assert len(op.terms) == 8
        for string, coeff in op.terms.items():
            assert set(string.qubits) == {0, 1, 4, 6}
            assert all(axis in "XY" for _, axis in string.ops)
            assert string.y_count() % 2 == 1
            assert abs(coeff.real) < 1e-15

    def test_qucc_circuit_has_no_z_factors(self):
        build = build_qucc(8, 4)
        for gate in build.circuit.gates:
            assert all(axis != "Z" for _, axis in gate.generator.ops)


class TestParticleConservation:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_random_draws_conserve_occupation(self, name):
        data = bundled_molecule("H4").integrals(1.0)
        build = BUILDERS[name](data.n_qubits, data.n_electrons)
        initial = hf_state_index(data.n_qubits, data.n_electrons)
        assert runs_in_sector(build.circuit, initial)
        rng = np.random.default_rng(13)
        for _ in range(20):
            values = np.array([float(rng.uniform(-np.pi, np.pi))
                               for _ in build.circuit.param_names])
            state = apply_circuit(build.circuit, values, initial)
            assert abs(number_expectation(state) - data.n_electrons) < 1e-10


class TestSharedParameterGradients:
    def test_adjoint_matches_finite_differences_on_uccsd(self):
        build = build_uccsd_singlet(4, 2)
        rng = np.random.default_rng(7)
        h = random_hermitian_operator(rng, 4, 6)
        values = np.array([float(rng.uniform(-1, 1))
                           for _ in build.circuit.param_names])
        from vqe_bench.simulator import adjoint_gradient

        _, grad = adjoint_gradient(build.circuit, h, values, 3)
        fd = finite_difference_gradient(build.circuit, h, values, 3)
        for k in range(build.n_params):
            assert grad[k] == pytest.approx(fd[k], abs=1e-6)


class TestTwoElectronExactness:
    def test_uccsd_and_uccsd0_reach_fci_on_h2(self):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        fci = exact_ground_energy(h, data.n_qubits,
                                  sector=(data.n_electrons, data.ms2))
        cfg = OptimizerConfig(gradient_tolerance=1e-8)
        initial = hf_state_index(data.n_qubits, data.n_electrons)
        for builder in (build_uccsd_singlet, build_uccsd0):
            build = builder(data.n_qubits, data.n_electrons)
            result = run_vqe(build, h, initial, cfg, seed=11)
            assert abs(result.energy - fci) < 1e-8


def mapping_bits(op, gates) -> tuple:
    """An operator's terms in order and a gate sequence, every
    coefficient and prefactor as the reprs of its parts."""
    return ([(str(string), repr(c.real), repr(c.imag))
             for string, c in op.terms.items()],
            [(g.kind, g.targets, str(g.generator), g.param[0],
              repr(g.param[1])) for g in gates])


def fresh_mapping(gen, n_qubits) -> tuple:
    """gen's mapping made anew, on a copy that holds none yet."""
    return mapping_bits(*dataclasses.replace(gen)._on_qubits(n_qubits))


class TestOnePassMapping:
    """A generator maps in one pass to the bits the operator path gave."""

    @pytest.mark.parametrize("name,bond_length", [
        ("H2", 0.7414), ("H4", 1.0), ("LiH", 1.6)])
    def test_every_family_generator_maps_as_the_operator_path(
            self, monkeypatch, name, bond_length):
        data = bundled_molecule(name).integrals(bond_length)
        n, n_electrons = data.n_qubits, data.n_electrons
        gens = []

        def recording(generators, n_qubits):
            gens.extend(generators)
            return real(generators, n_qubits)

        real = fixed.trotterize
        monkeypatch.setattr(fixed, "trotterize", recording)
        for builder in BUILDERS.values():
            builder(n, n_electrons)
        gens.extend(gen for entry in build_fermionic_pool(
            n, n_electrons).entries for gen in entry.generators)
        assert {gen.kind for gen in gens} == FERMIONIC_KINDS | QUBIT_KINDS
        assert len({gen.prefactor for gen in gens}) > 1
        for gen in gens:
            assert fresh_mapping(gen, n) == mapping_bits(
                *operator_path_mapping(gen, n))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FERMIONIC_KINDS | QUBIT_KINDS)),
           st.lists(st.integers(-1, 9), max_size=4, unique=True),
           st.integers(0, 3),
           st.sampled_from([1.0, -0.5, 0.7, 1e-13, 1e-12, -2.5e-12, 5e-12,
                            2e-11, 3.0e-12]))
    # a T pruned as a FermionOperator maps to nothing, not to an error
    @example("double", [1, 0, 9, 8], 2, 1e-13)
    @example("single", [-1, 3], 1, 1e-13)
    # no orbital at all: T is the identity, whose T - T† is zero
    @example("single", [], 0, 1.0)
    def test_prunes_and_refuses_where_the_operator_path_did(
            self, kind, orbitals, split, prefactor):
        split = min(split, len(orbitals))
        gen = ExcitationGenerator(kind, tuple(orbitals[:split]),
                                  tuple(orbitals[split:]), "t", prefactor)
        results = []
        for mapping in (fresh_mapping,
                        lambda g, n: mapping_bits(*operator_path_mapping(g, n))):
            try:
                results.append(mapping(gen, 8))
            except ValueError as error:
                results.append(str(error))
        assert results[0] == results[1]
