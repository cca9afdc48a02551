import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vqe_bench import hamiltonian, simulator
from vqe_bench.ansatz.adaptive import build_fermionic_pool, build_qubit_pool
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
    jordan_wigner,
    parse_pauli_string,
    serialize_pauli_string,
)
from oracles import (
    basis_state,
    commutator,
    fermion_operator_matrix,
    isclose,
    number_operator,
)

REPO = Path(__file__).resolve().parents[1]

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

    @pytest.mark.parametrize("line", [" nan 1 1 1 1", " inf 2 1 0 0",
                                      " -inf 0 0 0 0", " NaN 2 1 2 1"])
    def test_non_finite_value_refused_naming_its_line(self, line):
        # a NaN (11|11) was pruned away as if it were 0: abs(nan) > 1e-12
        # is false, so H2 lost those terms and ran against a wrong "FCI"
        with pytest.raises(ValueError, match="non-finite") as caught:
            parse_fcidump(HEADER + " 0.5 1 1 0 0\n" + line + "\n")
        assert repr(line) in str(caught.value)

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one_refused_by_name(self, norb):
        with pytest.raises(ValueError, match=f"NORB={norb}"):
            parse_fcidump(f" &FCI NORB={norb},NELEC=2,MS2=0,\n &END\n")

    @pytest.mark.parametrize("nelec", [-2, -1, 5, 6])
    def test_nelec_outside_the_orbitals_refused_by_name(self, nelec):
        # these ran into exact_ground_energy's "empty sector"
        with pytest.raises(ValueError, match=f"NELEC={nelec}: NORB=2 holds "
                                             "0 to 4 electrons"):
            parse_fcidump(f" &FCI NORB=2,NELEC={nelec},MS2=0,\n &END\n")

    @pytest.mark.parametrize("nelec", [0, 4])
    def test_nelec_at_the_limits_accepted(self, nelec):
        data = parse_fcidump(f" &FCI NORB=2,NELEC={nelec},MS2=0,\n &END\n")
        assert data.n_electrons == nelec

    @pytest.mark.parametrize("field", ["core_energy", "h1", "g2"])
    def test_integral_data_refuses_non_finite_values(self, field):
        values = {"core_energy": 0.5, "h1": np.eye(2),
                  "g2": np.zeros((2, 2, 2, 2))}
        if field == "core_energy":
            values[field] = float("nan")
        else:
            values[field] = values[field].copy()
            values[field].flat[0] = np.inf
        with pytest.raises(ValueError, match=f"{field} holds a non-finite"):
            IntegralData(2, 2, 0, **values)

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
            assert isclose(commutator(h, n_op), QubitOperator.zero(), 1e-9)


class TestHfStateIndex:
    @pytest.mark.parametrize("n_qubits,n_electrons,expected",
                             [(4, 2, 3), (4, 0, 0), (12, 4, 15)])
    def test_examples(self, n_qubits, n_electrons, expected):
        assert hf_state_index(n_qubits, n_electrons) == expected

    def test_too_many_electrons(self):
        with pytest.raises(ValueError):
            hf_state_index(2, 3)


class TestExactGroundEnergy:
    def test_cli_import_leaves_out_the_lanczos_module(self, tmp_path):
        # nor any SciPy module, on import or through a run whose references
        # are dense: only Lanczos, past 2**DENSE_QUBIT_LIMIT states, uses it
        paths = [str(REPO / "src")] + sys.path
        script = (
            "import sys; data_dir = sys.argv[1]; sys.path[:0] = sys.argv[2:]\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "import vqe_bench.cli\n"
            "print('scipy.sparse.linalg' in sys.modules)\n"
            "print(scipy_modules())\n"
            "vqe_bench.cli.cli.main(['run', '--molecule', 'H4', "
            "'--bond-lengths', '1.0', '--ansatz', 'UCCSD', '--data-dir', "
            "data_dir], standalone_mode=False)\n"
            "print(scipy_modules())\n")
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data"), *paths],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:2] == ["False", "[]"] and lines[-1] == "[]"
        assert lines[2].startswith("H4 UCCSD r=1.0: E=")
        assert (tmp_path / "data" / "H4.json").is_file()

    def test_cli_leaves_out_numpy_random_and_openssl(self, tmp_path):
        # seeded restarts draw in-package (vqe_bench.seeds); numpy.random
        # brought secrets, hmac and _hashlib, which maps libcrypto, and
        # the sweep lock names its host through platform, not socket
        paths = [str(REPO / "src")] + sys.path
        script = (
            "import sys; data_dir = sys.argv[1]; sys.path[:0] = sys.argv[2:]\n"
            "def loaded():\n"
            "    return [m for m in ('numpy.random', 'secrets', '_hashlib',\n"
            "                        'socket') if m in sys.modules]\n"
            "import vqe_bench.cli\n"
            "print(loaded())\n"
            "vqe_bench.cli.cli.main(['run', '--molecule', 'H2', '--ansatz', "
            "'BRC', '--ansatz', 'HEA', '--max-evaluations', '60', "
            "'--data-dir', data_dir], standalone_mode=False)\n"
            "print(loaded())\n")
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data"), *paths],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == lines[-1] == "[]"
        assert [line.split(":")[0] for line in lines[1:-1]] == [
            "H2 BRC r=0.7414", "H2 HEA r=0.7414"]

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

    @pytest.mark.parametrize("r", [1.6, 2.0])
    def test_lanczos_matches_the_dense_sector_on_lih(self, monkeypatch, r):
        # the 225-state sector is dense at the default limit and runs
        # Lanczos above 2**7 states; Lanczos had seen only a sum of Z terms
        data = bundled_molecule("LiH").integrals(r)
        h = qubit_hamiltonian(data)
        sector = (data.n_electrons, data.ms2)
        assert len(sector_indices(data.n_qubits, *sector)) == 225
        dense = exact_ground_energy(h, data.n_qubits, sector=sector)

        def refused(*args, **kwargs):
            raise AssertionError("dense matrix built on the Lanczos branch")

        monkeypatch.setattr(hamiltonian, "DENSE_QUBIT_LIMIT", 7)
        monkeypatch.setattr(hamiltonian, "operator_matrix", refused)
        lanczos = exact_ground_energy(h, data.n_qubits, sector=sector)
        assert lanczos == pytest.approx(dense, abs=1e-10)

    def test_lanczos_gives_the_same_bits_on_every_call(self):
        # ARPACK's own start vector carries over between calls, so four
        # calls on LiH's 4,096-state full space gave four values apart in
        # their last digits; a fixed start vector makes them one value
        data = bundled_molecule("LiH").integrals(1.6)
        h = qubit_hamiltonian(data)
        values = {exact_ground_energy(h, data.n_qubits).hex()
                  for _ in range(4)}
        assert len(values) == 1, values

    def test_lanczos_lays_out_no_product_slots(self, monkeypatch):
        # eigsh reads the CSR arrays alone: no CompiledSum, whose product
        # slots on LiH's 4,096-state full space are 112,618 (2.7 MB), is
        # built, and nothing compiled stays on h
        data = bundled_molecule("LiH").integrals(1.6)
        sector = exact_ground_energy(qubit_hamiltonian(data), data.n_qubits,
                                     sector=(data.n_electrons, data.ms2))
        h = qubit_hamiltonian(data)

        def refused(*args, **kwargs):
            raise AssertionError("product slots laid out for Lanczos")

        monkeypatch.setattr(simulator.CompiledSum, "__init__", refused)
        assert exact_ground_energy(h, data.n_qubits) == pytest.approx(
            sector, abs=1e-8)
        assert getattr(h, "_compiled", {}) == {}

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

    def test_large_sector_builds_no_dense_matrix(self, monkeypatch):
        # 14 qubits, 7 electrons: 3432 sector states, a 188 MB dense matrix
        real_matrix = hamiltonian.operator_matrix

        def small_only(h, n_qubits, basis=None):
            if basis is None or len(basis) > 1024:
                raise AssertionError("dense matrix over too many states")
            return real_matrix(h, n_qubits, basis)

        monkeypatch.setattr(hamiltonian, "operator_matrix", small_only)
        n = 14
        w = 1.0 + 0.1 * np.arange(n)
        h = QubitOperator({parse_pauli_string(f"Z{q}"): w[q]
                           for q in range(n)})
        expected = w.sum() - 2.0 * np.sort(w)[-7:].sum()
        assert exact_ground_energy(h, n, sector=(7, None)) == pytest.approx(
            expected, abs=1e-7)

    def test_oversized_compiled_form_refused_before_allocating(
            self, monkeypatch):
        # 14 qubits, 27 flip masks: the full-space matrix holds 27 * 2**14
        # entries, 8.8 MB of values and columns
        n = 14
        h = QubitOperator({parse_pauli_string(f"X{q}"): 1.0 for q in range(n)})
        h = h + QubitOperator({parse_pauli_string(f"X{q} X{q + 1}"): 0.5
                               for q in range(n - 1)})
        entries = 27 << n
        monkeypatch.setattr(simulator, "MAX_COMPILED_ENTRIES", entries - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed MAX_COMPILED_ENTRIES"):
                exact_ground_energy(h, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < entries * 20 // 4
        monkeypatch.setattr(simulator, "MAX_COMPILED_ENTRIES", entries)
        assert simulator.pauli_sum_matrix(h, n).nnz == entries

    def test_sector_indices_filter(self):
        sel = sector_indices(4, 2, 0)
        assert set(sel) == {0b0011, 0b0110, 0b1001, 0b1100}

    def test_sector_indices_negative_spin(self):
        # beta excess: 2Sz < 0 must not wrap around an unsigned count
        assert set(sector_indices(4, 2, -2)) == {0b1010}
        assert set(sector_indices(3, 1, -1)) == {0b010}
        assert exact_ground_energy(QubitOperator.from_term(
            parse_pauli_string("Z1"), 2.0), 4, sector=(1, -1)) == -2.0

    def test_operator_beyond_the_state_refused(self):
        # Z5 on two qubits was read as the identity; X5 failed deep inside
        for text in ("Z5", "X5"):
            h = QubitOperator.from_term(parse_pauli_string(text), 1.0)
            with pytest.raises(ValueError, match="outside"):
                exact_ground_energy(h, 2)
            with pytest.raises(ValueError, match="outside"):
                hf_energy(h, 2, 1)


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

    def test_fixture_values_equal_the_full_space_expectation(self):
        for name, r in (("H4", 1.0), ("LiH", 1.6)):
            data = bundled_molecule(name).integrals(r)
            h = qubit_hamiltonian(data)
            index = hf_state_index(data.n_qubits, data.n_electrons)
            full = simulator.expectation(h, basis_state(data.n_qubits, index))
            assert hf_energy(h, data.n_qubits, data.n_electrons) == full

    def test_sectored_point_compiles_h_once_and_never_full_space(
            self, monkeypatch):
        from vqe_bench.ansatz import build_uccsd_singlet

        data = bundled_molecule("LiH").integrals(1.6)
        h = qubit_hamiltonian(data)
        n, n_electrons = data.n_qubits, data.n_electrons
        compiled = []

        def counting(op, n_qubits, basis=None):
            if op is h:
                compiled.append(None if basis is None else len(basis))
            return real(op, n_qubits, basis)

        real = simulator.pauli_sum_matrix
        monkeypatch.setattr(simulator, "pauli_sum_matrix", counting)
        exact_ground_energy(h, n, sector=(n_electrons, data.ms2))
        hf_energy(h, n, n_electrons)
        circuit = build_uccsd_singlet(n, n_electrons).circuit
        values = np.full(circuit.n_params, 0.01)
        simulator.adjoint_gradient(circuit, h, values,
                                   hf_state_index(n, n_electrons))
        assert compiled == [225]

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
        data = h4.integrals(h4.bond_lengths[0])
        assert data.n_qubits == 8
        assert data.n_electrons == 4
        assert len(h4.bond_lengths) >= 5

    def test_qubit_counts(self):
        for name, n_qubits in (("H2", 4), ("LiH", 12)):
            spec = bundled_molecule(name)
            assert all(spec.integrals(r).n_qubits == n_qubits
                       for r in spec.bond_lengths)

    def test_load_fcidump_path(self):
        mol = bundled_molecule("H2")
        data = load_fcidump(mol.fcidump_paths[0.7414])
        assert data.n_spatial == 2


# SHA-256 over "<string> <repr(re)> <repr(im)>" lines in term order, taken
# from the string-keyed implementation before Pauli strings became masks:
# any change of a term, its order or the last bit of a coefficient shows.
GOLDEN_HAMILTONIANS = {
    ("H2", 0.7414): "f31e91c5659a220dad484d02a3ecc59289962ceb52aa43a61f17285191aac6c2",
    ("H4", 0.8): "4cc807e53dc2c154d51d99492c4c4fb6924a79da62f29b9fa5e81b3b4ca164f7",
    ("H4", 1.0): "f87e10e5c4cbd8cca591301a3aa9a3d78ddb35b8e073641882dc83dc558f561c",
    ("H4", 1.2): "e8d0c339f9b02ff01c12a99d18d5e839b819c009071ef65b5f9b0bc7185f2ef5",
    ("H4", 1.5): "ceea4fcfb4347ab60d08dfd3dbb6d229a96d189ee05565c765f33f94f669a85e",
    ("H4", 1.8): "8e2eab7b46913457998edf1b91f55925313c1a0da5655701c3c7cf4afb5512c8",
    ("LiH", 1.2): "973744e893e36b9d6cd6d93a12ff1739dd139bd89a6a7b6deddb4a312ae74e3f",
    ("LiH", 1.6): "06455d61a52bc60c87c458c2a63ad8d7eca8db9473e0c26ae1b5104d4cfc7c90",
    ("LiH", 2.0): "c47a2a32c4b8ebee2d8597f14c8cf990aed2d0f02fc920d6b5b08bbe399495f6",
}
# per molecule: fermionic pool (label, then its image's term lines, per
# entry) and qubit pool (labels)
GOLDEN_POOLS = {
    ("H4", 1.0): ("851fe776bc5db61413e31b0cfd08dd9b1dfd74c82ecb145fcd4a025d01632ad5",
                  "1efc119f9becea57a46ca938bcc11170cca102b86a46c2ac2deb6f46713c9dc5"),
    ("LiH", 1.6): ("445a6676e8ecfea52a729b87de432b8fb5075c3152c8cf377af26f36bda05b06",
                   "0db44a72bb9007518c487fa181bc7f4dbcd9f9d8a6e90a729e68a0b43d9cc2f0"),
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _term_lines(op: QubitOperator):
    for string, coeff in op.terms.items():
        yield f"{serialize_pauli_string(string)} {coeff.real!r} {coeff.imag!r}"


class TestGoldenMapping:
    def test_every_fixture_hamiltonian_is_bit_identical(self):
        assert set(GOLDEN_HAMILTONIANS) == {
            (name, r) for name in bundled_molecules()
            for r in bundled_molecule(name).bond_lengths}
        diverged = [f"{name}@{r}" for (name, r), digest
                    in GOLDEN_HAMILTONIANS.items()
                    if _digest(_term_lines(qubit_hamiltonian(
                        bundled_molecule(name).integrals(r)))) != digest]
        assert not diverged, f"qubit Hamiltonian changed: {diverged}"

    @pytest.mark.parametrize("name, r", sorted(GOLDEN_POOLS))
    def test_pool_images_are_bit_identical(self, name, r):
        data = bundled_molecule(name).integrals(r)
        pool = build_fermionic_pool(data.n_qubits, data.n_electrons)
        images = [line for entry in pool.entries for line in (
            entry.label,
            *_term_lines(entry.antihermitian_operator(data.n_qubits)))]
        strings = [entry.label for entry in
                   build_qubit_pool(pool, data.n_qubits).entries]
        fermionic, qubit = GOLDEN_POOLS[name, r]
        assert _digest(images) == fermionic, f"{name}@{r} fermionic pool"
        assert _digest(strings) == qubit, f"{name}@{r} qubit pool"


class TestFixtureTool:
    def test_check_agrees_with_bundled_files_and_writes_nothing(self):
        root = REPO / "src" / "vqe_bench" / "fixtures"

        def snapshot():
            return {p: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in sorted(root.rglob("*")) if p.is_file()}

        before = snapshot()
        done = subprocess.run(
            [sys.executable, str(REPO / "tools" / "make_fixtures.py"),
             "--check"], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "MISMATCH" not in done.stdout
        assert snapshot() == before


class TestPairedTimingTool:
    TOOLS = REPO / "tools"
    KERNEL_CASES = (  # the unpaired kernel runner's case names
        "LiH UCCSD", "H4 UCCSD", "H4 BRC x20", "H4 UCCSD[:1]",
        "H4 UCCSD[:4]", "H4 UCCSD[:16]", "H4 HEA4", "H4 HEA4 x10",
        "H4 LDCA", "H4 LDCA x10", "LiH HEA4", "LiH HEA4 x10", "LiH LDCA",
        "LiH LDCA x10")
    BUILD_PIECES = (  # the unpaired build runner's pieces, per molecule
        "build_fermionic_hamiltonian", "jordan_wigner", "qubit_hamiltonian",
        "build UCCSD", "build UCCSD0", "build QUCC", "fermionic pool circuit",
        "compile UCCSD", "compile UCCSD0", "compile QUCC",
        "compile fermionic pool circuit", "compile H over the sector",
        "compile H over all states")

    def test_worker_makes_every_case_and_counts_every_hamiltonian_term(self):
        worker = subprocess.Popen(
            [sys.executable, str(self.TOOLS / "time_paired.py"), "--worker",
             str(REPO / "src")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        try:
            line = worker.stdout.readline()
        finally:
            worker.stdin.close()
            worker.stdout.close()
            assert worker.wait(timeout=60) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        ready = {case["case"]: case
                 for case in json.loads(line, parse_constant=reject)}
        builds = {(molecule, float(r)) for molecule, _, r, *_ in
                  (name.split() for name in ready if " @ " in name)}
        assert builds == {("H4", 1.0), ("LiH", 1.6)}
        assert set(self.KERNEL_CASES) | {
            f"{molecule} @ {r} {piece}" for molecule, r in builds
            for piece in self.BUILD_PIECES} <= set(ready)
        for molecule, r in builds:
            n_terms = len(qubit_hamiltonian(
                bundled_molecule(molecule).integrals(r)))
            whole = ready[f"{molecule} @ {r} qubit_hamiltonian"]["made"]
            mapped = ready[f"{molecule} @ {r} jordan_wigner"]["made"]
            assert whole["terms"] == mapped["terms"] == n_terms
            assert whole["digest"] == mapped["digest"]
        assert all(case["warm_s"] > 0 for case in ready.values())

    def test_a_digest_mismatch_is_marked_and_exits_non_zero(
            self, tmp_path, monkeypatch, capsys):
        # a change that altered answers printed DIFFER and exited 0, so its
        # ratios read as claimable.  One coefficient of H4 @ 1.0 perturbed
        # in a copy of src; the real workers make two of H4's pieces, one
        # that reads the coefficient and one that does not
        changed = tmp_path / "src"
        shutil.copytree(REPO / "src", changed,
                        ignore=shutil.ignore_patterns("__pycache__"))
        fcidump = changed / "vqe_bench" / "fixtures" / "H4" / "1.0.fcidump"
        text = fcidump.read_text()
        line = " 4.9728497792174081e-01 1 1 1 1\n"
        assert line in text
        fcidump.write_text(text.replace(line, " 5.0e-01 1 1 1 1\n"))
        monkeypatch.setattr(sys, "path", [str(self.TOOLS), *sys.path])
        import time_paired

        popen = subprocess.Popen
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import time_paired as t; listed = t.cases; "
                "t.cases = lambda: [case for case in listed() if case[0] in "
                "('H4 @ 1.0 qubit_hamiltonian', 'H4 @ 1.0 build UCCSD')]; "
                "t.worker(sys.argv[2])")

        def h4_pieces(argv, **kwargs):
            return popen([sys.executable, "-c", code, str(self.TOOLS),
                          argv[-1]], **kwargs)

        monkeypatch.setattr(subprocess, "Popen", h4_pieces)
        monkeypatch.setattr(time_paired, "BURST_S", 0.0)  # fewest samples
        monkeypatch.setattr(time_paired, "ROUNDS_PER_PAIR", 5)
        status = time_paired.main(["--parent", str(REPO / "src"),
                                   "--change", str(changed),
                                   "--rounds", "10"])
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert status == 1 and result["digests_equal"] is False
        assert {case["case"]: case["digests_equal"]
                for case in result["cases"]} == {
            "H4 @ 1.0 qubit_hamiltonian": False,
            "H4 @ 1.0 build UCCSD": True}
