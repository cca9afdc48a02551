import numpy as np
import pytest

from vqe_bench import hamiltonian
from vqe_bench.hamiltonian import (
    IntegralData,
    build_fermionic_hamiltonian,
    bundled_molecule,
    bundled_molecules,
    exact_ground_energy,
    hf_energy,
    hf_state_index,
    load_fcidump,
    operator_matrix,
    parse_fcidump,
    qubit_hamiltonian,
    sector_indices,
)
from vqe_bench.operators import (
    FermionOperator,
    QubitOperator,
    commutator,
    jordan_wigner,
    number_operator,
    parse_pauli_string,
)
from oracles import fermion_operator_matrix

# Frozen references, computed with the dense diagonalization oracle below
# and cross-checked against the SCF energies of the integral generator.
H2_FCI = -1.1372701754095451
H2_HF = -1.1166843901187673
H2_CORE = 0.7137540450419448

HEADER = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n"


class TestParseFcidump:
    def test_header_fields(self):
        data = parse_fcidump(HEADER)
        assert data.n_spatial == 2
        assert data.n_electrons == 2
        assert data.ms2 == 0

    def test_core_energy_line(self):
        data = parse_fcidump(HEADER + " 0.713754 0 0 0 0\n")
        assert data.core_energy == pytest.approx(0.713754)

    def test_bundled_h2_core_energy(self):
        mol = bundled_molecule("H2")
        data = mol.integrals(0.7414)
        assert data.core_energy == pytest.approx(H2_CORE, abs=1e-9)

    def test_diagonal_g2_entry(self):
        data = parse_fcidump(HEADER + " 0.6757 1 1 1 1\n")
        assert data.g2[0, 0, 0, 0] == pytest.approx(0.6757)
        g = data.g2.copy()
        g[0, 0, 0, 0] = 0.0
        assert np.all(g == 0.0)

    def test_eightfold_symmetry_expansion(self):
        data = parse_fcidump(HEADER + " 0.25 2 1 2 2\n")
        for idx in [(1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]:
            assert data.g2[idx] == pytest.approx(0.25)

    def test_h1_line_symmetrized(self):
        data = parse_fcidump(HEADER + " -1.25 2 1 0 0\n")
        assert data.h1[1, 0] == data.h1[0, 1] == pytest.approx(-1.25)

    def test_missing_header_keys(self):
        with pytest.raises(ValueError, match="NORB or NELEC"):
            parse_fcidump(" &FCI NORB=2,\n &END\n")

    def test_index_exceeding_norb(self):
        with pytest.raises(ValueError, match="exceeds NORB"):
            parse_fcidump(HEADER + " 1.0 3 1 0 0\n")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_fcidump(HEADER + " abc 1 1 0 0\n")

    def test_line_order_permutation_invariance(self):
        mol = bundled_molecule("H2")
        text = mol.fcidump_paths[0.7414].read_text()
        lines = text.splitlines()
        header, body = lines[:4], lines[4:]
        shuffled = "\n".join(header + body[::-1])
        a = parse_fcidump(text)
        b = parse_fcidump(shuffled)
        assert a.core_energy == b.core_energy
        np.testing.assert_array_equal(a.h1, b.h1)
        np.testing.assert_array_equal(a.g2, b.g2)


class TestBuildHamiltonian:
    def test_single_level_spin_duplication(self):
        data = IntegralData(1, 2, 0, 0.0, np.array([[-1.0]]),
                            np.zeros((1, 1, 1, 1)))
        op = build_fermionic_hamiltonian(data)
        expected = FermionOperator({((0, True), (0, False)): -1.0,
                                    ((1, True), (1, False)): -1.0})
        assert op == expected

    def test_core_only(self):
        data = IntegralData(1, 2, 0, 0.625, np.zeros((1, 1)),
                            np.zeros((1, 1, 1, 1)))
        assert build_fermionic_hamiltonian(data) == FermionOperator.identity(0.625)

    def test_h2_has_fifteen_pauli_terms(self):
        h = qubit_hamiltonian(bundled_molecule("H2").integrals(0.7414))
        assert len(h) == 15

    def test_h2_matches_fock_space_oracle(self):
        data = bundled_molecule("H2").integrals(0.7414)
        fermionic = build_fermionic_hamiltonian(data)
        qubit = jordan_wigner(fermionic, 4)
        oracle = fermion_operator_matrix(fermionic, 4)
        np.testing.assert_allclose(operator_matrix(qubit, 4), oracle,
                                   atol=1e-12)

    def test_commutes_with_number_operator(self):
        for name, r in (("H2", 0.7414), ("H4", 1.0)):
            data = bundled_molecule(name).integrals(r)
            h = qubit_hamiltonian(data)
            n_op = jordan_wigner(number_operator(data.n_qubits), data.n_qubits)
            assert commutator(h, n_op).isclose(QubitOperator.zero(), 1e-9)


class TestHfStateIndex:
    @pytest.mark.parametrize("n_qubits,n_electrons,expected",
                             [(4, 2, 3), (4, 0, 0), (12, 4, 15)])
    def test_examples(self, n_qubits, n_electrons, expected):
        assert hf_state_index(n_qubits, n_electrons) == expected

    def test_too_many_electrons(self):
        with pytest.raises(ValueError):
            hf_state_index(2, 3)


class TestExactGroundEnergy:
    def test_scaled_identity(self):
        h = QubitOperator.identity(0.75)
        assert exact_ground_energy(h, 2) == pytest.approx(0.75)

    def test_single_z(self):
        h = QubitOperator.from_term(parse_pauli_string("Z0"))
        assert exact_ground_energy(h, 1) == pytest.approx(-1.0)

    def test_h2_fci_matches_dense_oracle(self):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        oracle = np.linalg.eigvalsh(
            fermion_operator_matrix(build_fermionic_hamiltonian(data), 4))[0]
        value = exact_ground_energy(h, 4)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(H2_FCI, abs=1e-9)

    def test_sector_and_full_space_agree(self):
        for name, r in (("H2", 0.7414), ("H4", 1.2)):
            data = bundled_molecule(name).integrals(r)
            h = qubit_hamiltonian(data)
            full = exact_ground_energy(h, data.n_qubits)
            sector = exact_ground_energy(h, data.n_qubits,
                                         sector=(data.n_electrons, data.ms2))
            assert sector == pytest.approx(full, abs=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            exact_ground_energy(QubitOperator.from_term(
                parse_pauli_string("Y0"), 1j), 1)

    def test_dimension_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            exact_ground_energy(QubitOperator.identity(), 21)

    def test_iterative_path_beyond_dense_cutoff(self):
        # 15 qubits: a field term on every qubit plus one two-qubit coupling;
        # the blocks decouple, so the ground energy is known analytically
        from vqe_bench.operators import PauliString

        n = 15
        terms = {PauliString(((q, "Z"),)): 1.0 + 0.0j for q in range(n)}
        h = QubitOperator(terms) + QubitOperator.from_term(
            parse_pauli_string("X0 X1"), 0.3)
        block = np.array([[2.0, 0.3], [0.3, -2.0]])
        expected = float(np.linalg.eigvalsh(block)[0]) - (n - 2)
        assert exact_ground_energy(h, n) == pytest.approx(expected, abs=1e-7)

    def test_unsectored_twelve_qubits_builds_no_full_matrix(self, monkeypatch):
        # the full 12-qubit matrix would be 268 MB, so the matrix-free
        # Lanczos path must take over; sector matrices stay allowed
        real_matrix = hamiltonian.operator_matrix

        def sector_only(h, n_qubits, basis=None):
            if basis is None:
                raise AssertionError("full-space dense matrix requested")
            return real_matrix(h, n_qubits, basis)

        monkeypatch.setattr(hamiltonian, "operator_matrix", sector_only)
        n = 12
        h = QubitOperator({parse_pauli_string(f"Z{q}"): 1.0 + 0.0j
                           for q in range(n)}) + QubitOperator.from_term(
            parse_pauli_string("X0 X1"), 0.3)
        block = np.array([[2.0, 0.3], [0.3, -2.0]])
        expected = float(np.linalg.eigvalsh(block)[0]) - (n - 2)
        assert exact_ground_energy(h, n) == pytest.approx(expected, abs=1e-7)

    def test_sector_indices_filter(self):
        sel = sector_indices(4, 2, 0)
        assert set(sel) == {0b0011, 0b0110, 0b1001, 0b1100}


class TestHfEnergy:
    def test_zero_hamiltonian(self):
        assert hf_energy(QubitOperator.zero(), 4, 2) == 0.0

    def test_scaled_identity(self):
        assert hf_energy(QubitOperator.identity(-2.5), 4, 2) == pytest.approx(-2.5)

    def test_h2_value_and_variational_ordering(self):
        h = qubit_hamiltonian(bundled_molecule("H2").integrals(0.7414))
        ehf = hf_energy(h, 4, 2)
        assert ehf == pytest.approx(H2_HF, abs=1e-9)
        assert ehf > H2_FCI

    def test_hf_above_fci_on_every_fixture(self):
        for name in bundled_molecules():
            mol = bundled_molecule(name)
            for r in mol.bond_lengths:
                data = mol.integrals(r)
                h = qubit_hamiltonian(data)
                fci = exact_ground_energy(h, data.n_qubits,
                                          sector=(data.n_electrons, data.ms2))
                assert hf_energy(h, data.n_qubits, data.n_electrons) >= fci


class TestMoleculeSpec:
    def test_bundled_inventory(self):
        assert bundled_molecules() == ["H2", "H4", "LiH"]
        h4 = bundled_molecule("H4")
        assert h4.n_qubits == 8
        assert h4.n_electrons == 4
        assert len(h4.bond_lengths) >= 5

    def test_qubit_counts(self):
        assert bundled_molecule("H2").n_qubits == 4
        assert bundled_molecule("LiH").n_qubits == 12

    def test_load_fcidump_path(self):
        mol = bundled_molecule("H2")
        data = load_fcidump(mol.fcidump_paths[0.7414])
        assert data.n_spatial == 2
