"""Compiled circuit plans: every family against the gate-by-gate oracle,
the sector verdict, fusion limits and the memory of full-space plans."""

import math
import tracemalloc

import numpy as np
import pytest

from vqe_bench import simulator
from vqe_bench.ansatz import (
    build_kupccgsd,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
)
from vqe_bench.ansatz.adaptive import (
    OperatorPool,
    adapt_vqe,
    build_fermionic_pool,
    build_qubit_pool,
    qcc_optimize,
    qubit_adapt_vqe,
)
from vqe_bench.ansatz.core import AnsatzBuild, UNIFORM_0_2PI
from vqe_bench.ansatz.layered import (
    build_brc_closed_shell,
    build_hea,
    build_ldca,
)
from vqe_bench.driver import run_vqe
from vqe_bench.hamiltonian import (
    bundled_molecule,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import parse_pauli_string
from vqe_bench.simulator import (
    Gate,
    ParamCircuit,
    adjoint_gradient,
    apply_circuit,
    pauli_evolution,
    runs_in_sector,
)
from oracles import (
    circuit_state,
    energy_gradient,
    random_circuit,
    random_hermitian_operator,
    random_values,
)

TOLERANCE = 1e-12


def molecule(name, bond_length):
    data = bundled_molecule(name).integrals(bond_length)
    return (qubit_hamiltonian(data), data.n_qubits,
            hf_state_index(data.n_qubits, data.n_electrons), data.n_electrons)


@pytest.fixture(scope="module")
def h4():
    return molecule("H4", 1.0)


@pytest.fixture(scope="module")
def h4_families(h4):
    h, n, hf, n_electrons = h4
    fermionic = build_fermionic_pool(n, n_electrons)
    qubit = build_qubit_pool(fermionic, n)
    return {
        "UCCSD": build_uccsd_singlet(n, n_electrons),
        "UCCSD0": build_uccsd0(n, n_electrons),
        "1-UpCCGSD": build_kupccgsd(n, n_electrons, 1),
        "QUCC": build_qucc(n, n_electrons),
        "HEA": build_hea(n, 2),
        "LDCA": build_ldca(n, 1),
        "BRC": build_brc_closed_shell(n, n_electrons),
        "ADAPT": adapt_vqe(h, n, fermionic, initial_state=hf,
                           max_iters=3)[0],
        "qubit-ADAPT": qubit_adapt_vqe(h, n, qubit, initial_state=hf,
                                       max_iters=3)[0],
        "QCC": qcc_optimize(h, n, OperatorPool(qubit.kind,
                                               qubit.entries[::8]),
                            max_entanglers=2, initial_state=hf)[0],
    }


def assert_matches_oracle(circuit, h, values, initial):
    energy, grad = adjoint_gradient(circuit, h, values, initial)
    expected_energy, expected_grad = energy_gradient(circuit, h, values,
                                                     initial)
    assert abs(energy - expected_energy) < TOLERANCE
    for name in circuit.param_names:
        assert abs(grad[name] - expected_grad[name]) < TOLERANCE, name


FAMILIES = ("UCCSD", "UCCSD0", "1-UpCCGSD", "QUCC", "HEA", "LDCA", "BRC",
            "ADAPT", "qubit-ADAPT", "QCC")


@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_oracle_on_h4(family, h4, h4_families):
    h, _, hf, _ = h4
    circuit = h4_families[family].circuit
    rng = np.random.default_rng(sum(map(ord, family)))
    for _ in range(2):
        assert_matches_oracle(circuit, h, random_values(rng, circuit), hf)


def assert_batch_rows_match(circuit, h, initial, rng):
    """Each row of batch_adjoint_gradient, alone or among others, carries
    the bits adjoint_gradient gives it."""
    names = circuit.param_names
    for n_rows in (1, 3):
        rows = [random_values(rng, circuit) for _ in range(n_rows)]
        energies, grads = simulator.batch_adjoint_gradient(
            circuit, h, np.array([[row[p] for p in names] for row in rows]),
            initial)
        for row, energy, grad in zip(rows, energies, grads):
            alone, alone_grad = adjoint_gradient(circuit, h, row, initial)
            assert repr(energy) == repr(alone)
            assert ([repr(g) for g in grad.tolist()]
                    == [repr(alone_grad[p]) for p in names])


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_rows_are_bit_identical_on_h4(family, h4, h4_families):
    h, _, hf, _ = h4
    assert_batch_rows_match(h4_families[family].circuit, h, hf,
                            np.random.default_rng(len(family)))


def test_batch_rows_are_bit_identical_on_mixed_gates():
    # fixed gates and multi-term steps over the full space
    rng = np.random.default_rng(8)
    for _ in range(3):
        circuit = random_circuit(rng, 4, 4, 24)
        h = random_hermitian_operator(rng, 4, 12)
        assert_batch_rows_match(circuit, h, int(rng.integers(16)), rng)


def test_lih_uccsd_matches_oracle():
    h, n, hf, n_electrons = molecule("LiH", 1.6)
    circuit = build_uccsd_singlet(n, n_electrons).circuit
    assert runs_in_sector(circuit, hf)
    assert_matches_oracle(circuit, h, random_values(
        np.random.default_rng(4), circuit), hf)


@pytest.mark.parametrize("family", FAMILIES)
def test_particle_conserving_flag_is_the_sector_verdict(family, h4,
                                                        h4_families):
    build = h4_families[family]
    assert runs_in_sector(build.circuit, h4[2]) == build.particle_conserving


def test_mislabelled_particle_conserving_build_refused(h4):
    h, n, hf, _ = h4
    circuit = build_hea(n, 1).circuit
    build = AnsatzBuild(circuit, (), particle_conserving=True,
                        init_policy=UNIFORM_0_2PI, n_params=circuit.n_params)
    with pytest.raises(ValueError, match="particle-conserving"):
        run_vqe(build, h, hf)


@pytest.mark.parametrize("extra", [
    Gate("RY", (5,), param=("leak", 1.0)),
    # moves an electron from alpha to beta: N is kept, 2Sz is not
    Gate("GivensRotation", (0, 5), param=("leak", 1.0)),
])
def test_circuit_leaving_the_sector_runs_full_space(extra, h4):
    h, n, hf, n_electrons = h4
    gates = build_uccsd_singlet(n, n_electrons).circuit.gates
    circuit = ParamCircuit.from_gates(n, gates[:40] + (extra,) + gates[40:])
    assert not runs_in_sector(circuit, hf)
    rng = np.random.default_rng(6)
    values = random_values(rng, circuit)
    assert_matches_oracle(circuit, h, values, hf)
    state = apply_circuit(circuit, values, hf)
    assert abs(state.norm() - 1.0) < 1e-12


def test_anticommuting_strings_of_one_parameter_are_not_fused():
    # exp(it X0) exp(it Y0) is not exp(it (X0 + Y0)): X0 and Y0 share a
    # flip mask but anticommute
    circuit = ParamCircuit.from_gates(1, [
        pauli_evolution(parse_pauli_string("X0"), "t"),
        pauli_evolution(parse_pauli_string("Y0"), "t")])
    assert len(simulator._circuit_plan(circuit, 0).steps) == 2
    h = random_hermitian_operator(np.random.default_rng(3), 1, 3)
    for theta in (0.4, -1.3, 2.2):
        assert_matches_oracle(circuit, h, {"t": theta}, 0)


def test_one_excitation_fuses_into_one_step():
    circuit = build_uccsd_singlet(4, 2).circuit
    plan = simulator._circuit_plan(circuit, 0b0011)
    assert plan.basis is not None
    # 12 gates, 2 parameters: one step per spin-resolved single (2 gates
    # each) and one for the double (8 gates)
    assert len(circuit.gates) == 12 and circuit.n_params == 2
    assert len(plan.steps) == 3


def test_sector_plan_is_cached_per_sector():
    circuit = build_uccsd_singlet(4, 2).circuit
    plan = simulator._circuit_plan(circuit, 0b0011)
    assert simulator._circuit_plan(circuit, 0b0110) is plan
    assert simulator._circuit_plan(circuit, 0b0001) is not plan


def test_twelve_qubit_hea_plan_holds_no_state_sized_arrays():
    circuit = build_hea(12, 20).circuit
    state_bytes = 16 << 12
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not runs_in_sector(circuit, hf_state_index(12, 4))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_steps = len(simulator._circuit_plan(circuit, 0b1111).steps)
    assert n_steps == 21 * 24 + 20 * 11
    # masks and 2x2 / 4x4 matrices only: well under one 2**12 state
    # vector per 16 steps, where per-step arrays would need one per step
    assert held < state_bytes * n_steps // 16


def test_circuit_is_frozen():
    circuit = build_hea(2, 1).circuit
    with pytest.raises(AttributeError):
        circuit.gates = ()
    with pytest.raises(AttributeError):
        circuit.n_qubits = 3


def test_embedded_state_matches_oracle_amplitudes(h4, h4_families):
    _, n, hf, _ = h4
    circuit = h4_families["QUCC"].circuit
    values = random_values(np.random.default_rng(12), circuit)
    expected = circuit_state(circuit, values, hf)
    state = apply_circuit(circuit, values, hf)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0,
                               atol=TOLERANCE)
    assert math.isclose(state.norm(), 1.0, abs_tol=1e-12)
