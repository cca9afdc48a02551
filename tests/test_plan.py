"""Compiled circuit plans: every family against the gate-by-gate oracle,
the sector verdict, fusion limits and the memory of full-space plans."""

import gc
import hashlib
import math
import re
import tracemalloc
import weakref

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
    for k, name in enumerate(circuit.param_names):
        assert abs(grad[k] - expected_grad[k]) < TOLERANCE, name


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
    """Each row of an (R, P) adjoint_gradient batch, alone (R = 1) or
    among others, carries the bits its own (P,) call gives it."""
    for n_rows in (1, 3):
        rows = [random_values(rng, circuit) for _ in range(n_rows)]
        energies, grads = adjoint_gradient(circuit, h, np.array(rows),
                                           initial)
        assert energies.shape == (n_rows,)
        assert grads.shape == (n_rows, circuit.n_params)
        for row, energy, grad in zip(rows, energies.tolist(), grads):
            alone, alone_grad = adjoint_gradient(circuit, h, row, initial)
            assert repr(energy) == repr(alone)
            assert ([repr(g) for g in grad.tolist()]
                    == [repr(g) for g in alone_grad.tolist()])


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


# (2,) is one point of this 2-parameter circuit, so a (3,) vector stands
# for the wrong width of a vector
@pytest.mark.parametrize("shape", [(0, 2), (2, 3), (3,), (2, 1), (1, 2, 2),
                                   ()])
def test_batch_of_no_rows_or_the_wrong_width_refused(shape):
    circuit = build_uccsd_singlet(4, 2).circuit
    h = random_hermitian_operator(np.random.default_rng(2), 4, 5)
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} "
                                         "for 2 parameters"):
        adjoint_gradient(circuit, h, np.zeros(shape), 0b0011)


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
                        init_policy=UNIFORM_0_2PI)
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
    circuit = ParamCircuit(n, gates[:40] + (extra,) + gates[40:])
    assert not runs_in_sector(circuit, hf)
    rng = np.random.default_rng(6)
    values = random_values(rng, circuit)
    assert_matches_oracle(circuit, h, values, hf)
    state = apply_circuit(circuit, values, hf)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_anticommuting_strings_of_one_parameter_are_not_fused():
    # exp(it X0) exp(it Y0) is not exp(it (X0 + Y0)): X0 and Y0 share a
    # flip mask but anticommute
    circuit = ParamCircuit(1, [
        pauli_evolution(parse_pauli_string("X0"), "t"),
        pauli_evolution(parse_pauli_string("Y0"), "t")])
    assert len(simulator._circuit_plan(circuit, 0).steps) == 2
    h = random_hermitian_operator(np.random.default_rng(3), 1, 3)
    for theta in (0.4, -1.3, 2.2):
        assert_matches_oracle(circuit, h, [theta], 0)


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


def _assert_arrays_equal(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_entries_equal(a, b):
    """Tuples of arrays, slices and plain values, entry by entry."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            _assert_arrays_equal(x, y)
        else:
            assert type(x) is type(y) and x == y


def assert_plans_equal(plan, expected):
    assert plan.n_qubits == expected.n_qubits
    _assert_arrays_equal(plan.basis, expected.basis)
    assert len(plan.steps) == len(expected.steps)
    for step, other in zip(plan.steps, expected.steps):
        assert (step.param, step.angle, step.terms) == (
            other.param, other.angle, other.terms)
        if step.matrix is None:
            assert other.matrix is None
        else:
            assert step.matrix[0] == other.matrix[0]
            _assert_entries_equal(step.matrix[1:], other.matrix[1:])
        if step.pairs is None:
            assert other.pairs is None
        else:
            _assert_entries_equal(step.pairs, other.pairs)
    if expected.table is None:
        assert plan.table is None
        return
    for name in ("r", "index", "fixed", "twice"):
        _assert_arrays_equal(getattr(plan.table, name),
                             getattr(expected.table, name))
    for name in ("sweep", "doubled"):
        rows, other_rows = getattr(plan.table, name), getattr(expected.table,
                                                              name)
        assert len(rows) == len(other_rows)
        for row, other in zip(rows, other_rows):
            _assert_entries_equal(row, other)


def _grown_cases():
    """(prefix gates, extensions, whether the prefix and whether the whole
    circuit run in the HF state's sector) per growth case, on H4."""
    _, n, _, n_electrons = molecule("H4", 1.0)
    uccsd = build_uccsd_singlet(n, n_electrons).circuit.gates
    # where a parameter's gates end, so every excitation before is whole
    ends = [k for k in range(1, len(uccsd))
            if uccsd[k].param[0] != uccsd[k - 1].param[0]]
    # gates 16-23 are the double d_0_0_2_2: one flip mask and commuting
    # strings, so one step, which fuses with a repeat of itself
    assert {gate.param[0] for gate in uccsd[16:24]} == {"d_0_0_2_2"}
    assert 16 in ends and 24 in ends
    mean_field = tuple(Gate(kind, (q,), param=(f"mf_{kind}{q}", 1.0))
                       for q in range(n) for kind in ("RY", "RZ"))
    leak = (Gate("RY", (5,), param=("leak", 1.0)),)
    return {
        "sector prefix": (uccsd[:ends[5]], [uccsd[ends[5]:ends[9]],
                                            uccsd[ends[9]:]], True, True),
        "full-space prefix": (mean_field, [uccsd[:20], uccsd[20:40]],
                              False, False),
        "extension leaves the sector": (
            uccsd[:ends[6]], [uccsd[ends[6]:ends[8]], leak, uccsd[ends[8]:]],
            True, False),
        "first gate fuses with the prefix's last step": (
            uccsd[:24], [uccsd[16:24] + uccsd[24:ends[9]], uccsd[ends[9]:]],
            True, True),
        # 3 of the double's 8 strings leave the sector; all 8 keep it
        "a fused last step brings the prefix back into the sector": (
            uccsd[:19], [uccsd[19:24], uccsd[24:40]], False, True),
    }


GROWN_CASES = _grown_cases()


@pytest.mark.parametrize("compile_each", [True, False],
                         ids=["compiled at each length", "compiled at the end"])
@pytest.mark.parametrize("case", list(GROWN_CASES))
def test_grown_circuit_has_the_plans_of_its_whole_gate_list(case,
                                                            compile_each):
    prefix, extensions, prefix_in_sector, in_sector = GROWN_CASES[case]
    initial = hf_state_index(8, 4)
    circuit = ParamCircuit(8, prefix)
    if compile_each:
        assert runs_in_sector(circuit, initial) == prefix_in_sector
    for extension in extensions:
        circuit = circuit.extended(extension)
        if compile_each:
            simulator._circuit_plan(circuit, initial)
    whole = ParamCircuit(8, sum(extensions, prefix))
    assert circuit == whole
    for start in (initial, None):
        assert_plans_equal(simulator._circuit_plan(circuit, start),
                           simulator._circuit_plan(whole, start))
    assert runs_in_sector(circuit, initial) == in_sector


def test_extension_fuses_with_the_prefix_and_restricts_only_new_steps():
    prefix, extensions, _, _ = GROWN_CASES[
        "first gate fuses with the prefix's last step"]
    initial = hf_state_index(8, 4)
    circuit = ParamCircuit(8, prefix)
    before = simulator._circuit_plan(circuit, initial).steps
    grown = simulator._circuit_plan(circuit.extended(extensions[0]), initial)
    # the double's step fused with its repeat: one step, twice the
    # weights; the steps before it are the prefix's, shared as they are
    fused = grown.steps[len(before) - 1]
    assert [coeff for _, coeff in fused.terms] == [
        2 * coeff for _, coeff in before[-1].terms]
    assert all(a is b for a, b in zip(grown.steps, before[:-1]))
    np.testing.assert_array_equal(fused.pairs[3], 2 * before[-1].pairs[3])


def test_grown_circuit_holds_no_earlier_circuit_or_table():
    _, n, hf, n_electrons = molecule("H4", 1.0)
    gates = build_uccsd_singlet(n, n_electrons).circuit.gates
    prefix = ParamCircuit(n, gates[:40])
    table = simulator._circuit_plan(prefix, hf).table
    circuit = prefix.extended(gates[40:])
    alive = weakref.ref(prefix), weakref.ref(table.r)
    del prefix, table
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    assert runs_in_sector(circuit, hf)


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
    np.testing.assert_allclose(state, expected, rtol=0,
                               atol=TOLERANCE)
    assert math.isclose(np.linalg.norm(state), 1.0, abs_tol=1e-12)


def _digest(*values) -> str:
    """SHA-256 over the repr of each value, one per line."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(repr(value).encode() + b"\n")
    return digest.hexdigest()


def _gradient_digest(circuit, h, values, initial) -> str:
    energy, grad = adjoint_gradient(circuit, h, values, initial)
    return _digest(energy, grad.tolist())


def _batch_digest(circuit, h, initial, n_rows, seed) -> str:
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi, np.pi, (n_rows, circuit.n_params))
    energies, grads = adjoint_gradient(circuit, h, angles, initial)
    return _digest(energies.tolist(), grads.tolist())


def _pinned_sector_circuit() -> ParamCircuit:
    """Two alpha electrons in four alpha orbitals of 8 qubits: fixed-angle
    Givens rotations between alpha qubits, a parameter bound in two steps,
    a beta rotation ("e") with no rows in the sector, and a parameter
    ("c") whose two gates cancel when fused."""
    def givens(a, b, **binding):
        return Gate("GivensRotation", (a, b), **binding)

    return ParamCircuit(8, [
        givens(0, 4, angle=0.3),
        givens(2, 6, param=("a", 1.0)),
        Gate("RZ", (4,), param=("z", 0.5)),
        givens(1, 3, param=("e", 1.0)),
        givens(0, 6, param=("c", 1.0)),
        givens(0, 6, param=("c", -1.0)),
        givens(4, 6, param=("a", -0.5)),
        pauli_evolution(parse_pauli_string("X0 X2 X4 Y6"), "d"),
        givens(2, 4, angle=-1.1),
    ])


# SHA-256 pins of TestKernelPins, computed at commit 1b5bab8
LIH_UCCSD_PINS = {  # seed of the parameter values
    0: "28aee526eb2445debdaec327815ccb61000d58173e9879c05ca84629c21291ae",
    1: "7350efe0d708708dde015ce0985760d38fd8c7b060dc43d796805c4f9cdcf008",
    2: "381e18946959a19b4603dc1c99be1e6a57b6c04502272d7aabe939c98d571c6c",
}
H4_BATCH_PINS = {  # batches of 1, 3 and 20 rows
    "UCCSD0":
        "c3a383865518cde26f3703f4d478511c7128421ec306dc103acb99c924a0f1c6",
    "QUCC":
        "0fba003155e35e6d1f197df217b3b23b4bb1c7500dbd535e946cccad0cc98a9a",
    "1-UpCCGSD":
        "12865453da6f69a9919bac49aa55143e763c1099d6dbca8513424d9c9fdb4ffd",
    "BRC":
        "446660ba48d2a0e0a3b5cf4a770e071396642afd881795e35f1b9d3dc35b33c7",
}


class TestKernelPins:
    """Energies, gradients and amplitudes of sector plans, SHA-256 over
    their reprs, pinned bit for bit at commit 1b5bab8, where each step of
    a sector sweep still computed its own cos and sin and psi and lam
    were rotated one at a time."""

    @pytest.fixture(scope="class")
    def lih_uccsd(self):
        h, n, hf, n_electrons = molecule("LiH", 1.6)
        return build_uccsd_singlet(n, n_electrons).circuit, h, hf

    @pytest.mark.parametrize("seed", sorted(LIH_UCCSD_PINS))
    def test_lih_uccsd_gradient_and_amplitudes(self, lih_uccsd, seed):
        circuit, h, hf = lih_uccsd
        values = random_values(np.random.default_rng(seed), circuit)
        amplitudes = apply_circuit(circuit, values, hf).tolist()
        assert (_digest(_gradient_digest(circuit, h, values, hf), amplitudes)
                == LIH_UCCSD_PINS[seed])

    @pytest.mark.parametrize("family", sorted(H4_BATCH_PINS))
    def test_h4_batches(self, h4, h4_families, family):
        h, _, hf, _ = h4
        circuit = h4_families[family].circuit
        assert _digest(*(_batch_digest(circuit, h, hf, n_rows, n_rows)
                         for n_rows in (1, 3, 20))) == H4_BATCH_PINS[family]

    def test_h4_fermionic_pool_slopes(self, h4, h4_families):
        h, n, hf, n_electrons = h4
        circuit = h4_families["UCCSD"].circuit
        pool = build_fermionic_pool(n, n_electrons).candidate_circuit(n)
        values = random_values(np.random.default_rng(7), circuit)
        energy, slopes = simulator.commutator_gradient(circuit, h, values,
                                                       hf, pool)
        assert _digest(energy, list(zip(pool.param_names,
                                        slopes.tolist()))) == (
            "56495f4b71b6205ab1d1cbc4c78a2e5972df03fbf77a86641633872fce0d205d")

    def test_sector_circuit_with_fixed_and_empty_steps(self):
        circuit = _pinned_sector_circuit()
        initial = 0b00000101
        assert runs_in_sector(circuit, initial)
        h = random_hermitian_operator(np.random.default_rng(9), 8, 40)
        values = random_values(np.random.default_rng(10), circuit)
        _, grad = adjoint_gradient(circuit, h, values, initial)
        names = circuit.param_names
        assert grad[names.index("e")] == 0.0 and grad[names.index("c")] == 0.0
        assert _digest(_gradient_digest(circuit, h, values, initial),
                       _batch_digest(circuit, h, initial, 3, 11)) == (
            "30c48ad78e1daee61f02129b5dec812341bd6e8146d4138b52ccde7dbb5bdca2")
