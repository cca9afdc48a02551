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
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from vqe_bench import simulator
from vqe_bench.ansatz import (
    build_kupccgsd,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
    trotterize,
    uccsd_singlet_generators,
)
from vqe_bench.ansatz.adaptive import (
    OperatorPool,
    adapt_vqe,
    build_fermionic_pool,
    build_qubit_pool,
    qcc_optimize,
    qubit_adapt_vqe,
)
from vqe_bench.ansatz.layered import (
    build_brc_closed_shell,
    build_hea,
    build_ldca,
)
from vqe_bench.hamiltonian import (
    bundled_molecule,
    bundled_molecules,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import (
    PauliString,
    QubitOperator,
    parse_pauli_string,
    serialize_pauli_string,
)
from vqe_bench.simulator import (
    Gate,
    ParamCircuit,
    adjoint_gradient,
    apply_circuit,
    pauli_evolution,
)
from oracles import (
    circuit_state,
    energy_gradient,
    fused_steps,
    random_circuit,
    random_hermitian_operator,
    random_string,
    random_values,
    runs_in_sector,
    scipy_product,
    term_weights,
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
    among others, run as vectors (R <= 2) or as one batch, carries the
    bits its own (P,) call gives it."""
    for n_rows in (1, 2, 3, 4):
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


# the paper's split: these families conserve particle number, the others
# do not; a builder whose circuit leaks out of its sector fails here
IN_SECTOR = {"UCCSD": True, "UCCSD0": True, "1-UpCCGSD": True, "QUCC": True,
             "BRC": True, "ADAPT": True, "HEA": False, "LDCA": False,
             "qubit-ADAPT": False, "QCC": False}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_sector_verdict_from_hf(family, h4, h4_families):
    verdict = runs_in_sector(h4_families[family].circuit, h4[2])
    assert verdict == IN_SECTOR[family]


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


@pytest.mark.parametrize("case", ["sector", "full space"])
def test_screened_state_is_the_prepared_state(h4, h4_families, case):
    # QCC's ranking ran the circuit a second time for this state; the
    # screening pass hands back the amplitudes apply_circuit gives, over
    # the sector alone when circuit and pool both keep it
    h, n, hf, n_electrons = h4
    fermionic = build_fermionic_pool(n, n_electrons)
    if case == "sector":  # H4 UCCSD screened by the fermionic pool
        circuit, initial = h4_families["UCCSD"].circuit, hf
        pool = fermionic.candidate_circuit(n)
    else:  # QCC's mean field from the vacuum, screened by the qubit pool
        circuit, initial = ParamCircuit(n, [
            Gate(kind, (q,), param=(f"mf_{kind}{q}", 1.0))
            for q in range(n) for kind in ("RY", "RZ")]), 0
        pool = build_qubit_pool(fermionic, n).candidate_circuit(n)
    assert runs_in_sector(circuit, initial) == (case == "sector")
    values = random_values(np.random.default_rng(3), circuit)
    amps = simulator.commutator_gradient(circuit, h, values, initial,
                                         pool)[2]
    state = apply_circuit(circuit, values, initial)
    if case == "sector":
        state = state[simulator.sector_indices(n, n_electrons, 0)]
    assert amps.shape == state.shape
    assert amps.tobytes() == state.tobytes()


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


def _full_space_case(h4, h4_families, name):
    """A full-space case of TestKernelPins: (circuit, h, initial)."""
    h, n, hf, n_electrons = h4
    qubit = build_qubit_pool(build_fermionic_pool(n, n_electrons), n)
    if name in ("HEA", "LDCA"):
        return h4_families[name].circuit, h, hf
    if name == "qubit-pool":  # grown a pick at a time, as qubit-ADAPT does
        circuit = ParamCircuit(n, ())
        for i, entry in enumerate(qubit.entries[3::17]):
            circuit = circuit.extended(entry.gates(n, f"adapt{i}"))
        return circuit, h, hf
    if name == "QCC":  # the mean field from the vacuum, one entangler
        gates = [Gate(kind, (q,), param=(f"mf_{kind}{q}", 1.0))
                 for q in range(n) for kind in ("RY", "RZ")]
        gates += qubit.entries[41].gates(n, "ent0")
        return ParamCircuit(n, gates), h, 0
    # mixed gates: CNOT, SqrtISwap, H, fixed angles and fused multi-string
    # steps, from a state whose sector the circuit leaves
    rng = np.random.default_rng(23)
    circuit = random_circuit(rng, 6, 5, 30)
    fused = [pauli_evolution(parse_pauli_string(text), "f")
             for text in ("X0 Y2", "Y0 X2", "X1 Z3 Y4", "Y1 Z3 X4")]
    circuit = ParamCircuit(6, [
        Gate("H", (1,)), Gate("RY", (2,), angle=0.7), *circuit.gates[:15],
        Gate("GivensRotation", (3, 5), angle=-0.4), *fused[:2],
        Gate("SqrtISwap", (0, 4)), Gate("CNOT", (5, 1)), *fused[2:],
        pauli_evolution(parse_pauli_string("X0 X1 Y3"), "g"),
        *circuit.gates[15:],
    ])
    return circuit, random_hermitian_operator(rng, 6, 30), 0b001011


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
# computed at commit 6b67aab, where the full-space reverse sweep still
# rotated psi and then lam, each through fresh temporaries
FULL_SPACE_PINS = {  # one vector, then batches of 1, 3 and 20 rows
    "HEA": "d34cdfb80224649775f40296cc215894bc52b5f2de7360cfe145762868ecc13a",
    "LDCA":
        "af3d583ca78e630ef1350feb0ea854e3b97cec222318545d673edfa246beab03",
    "QCC": "d2b21ec2499428ae942ad4c4bef76f3145cb718b4c817a6499c3b1201776b86f",
    "mixed":
        "383b3d3c6999433e796d76a527bfdf0d653f0cefdf7f6771f9d1bdd549b633ba",
    "qubit-pool":
        "08d4106ff4cc8b23d95f2f052aa0dee2fb9e0c584b4d88df75ca19cd65b1ccea",
}


# SHA-256 of term_expectations' bytes, computed at commit 26938cf, where
# each flip mask's signs came from a popcount of every state & yz
TERM_EXPECTATION_PINS = {  # (molecule, bond length, family, seed)
    ("H4", 1.0, "UCCSD", 0):
        "15274697861e0bdc7852674284d67857146c5798d6c8ca05544aabd455174fbd",
    ("H4", 1.0, "UCCSD", 1):
        "fd366438597847bb40ad1189c77171e7b9343128c4a1260a0173c663028e3b5c",
    ("H4", 1.0, "HEA", 0):
        "6cd322f56a910ac88f8b2ca0eec0e5f198ec0c5883645cf7c4e5c3b29a08a8e9",
    ("H4", 1.0, "HEA", 1):
        "60e94d727a856cadf66887a85ec84120a77ae2f9c36b27d65f15876ae9b4a4b0",
    ("LiH", 1.6, "UCCSD", 0):
        "37f3c7c4d8baa074c3bfc23526cc690bc45b773edd0b623e7d23cf41d827b488",
    ("LiH", 1.6, "UCCSD", 1):
        "da9412d7e133b091d8165e5eb5a2174482f1b92dd8ebfa09039d78dec1c61cfe",
}


@pytest.mark.parametrize("case", sorted(TERM_EXPECTATION_PINS), ids=str)
def test_term_expectations_are_pinned(case):
    name, bond_length, family, seed = case
    h, n, hf, n_electrons = molecule(name, bond_length)
    circuit = (build_uccsd_singlet(n, n_electrons) if family == "UCCSD"
               else build_hea(n, 2)).circuit
    amps = apply_circuit(
        circuit, random_values(np.random.default_rng(seed), circuit), hf)
    terms = simulator.term_expectations(h, amps)
    assert (hashlib.sha256(terms.tobytes()).hexdigest()
            == TERM_EXPECTATION_PINS[case])


class TestKernelPins:
    """Energies, gradients and amplitudes of sector plans, SHA-256 over
    their reprs, pinned bit for bit at commit 1b5bab8, where each step of
    a sector sweep still computed its own cos and sin and psi and lam
    were rotated one at a time; and of full-space plans, pinned at commit
    6b67aab, where the full-space reverse sweep still did so."""

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
        energy, slopes, _ = simulator.commutator_gradient(circuit, h, values,
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

    @pytest.mark.parametrize("name", sorted(FULL_SPACE_PINS))
    def test_full_space_gradients_and_batches(self, h4, h4_families, name):
        circuit, h, initial = _full_space_case(h4, h4_families, name)
        assert not runs_in_sector(circuit, initial)
        values = random_values(np.random.default_rng(5), circuit)
        assert _digest(_gradient_digest(circuit, h, values, initial),
                       *(_batch_digest(circuit, h, initial, n_rows, n_rows)
                         for n_rows in (1, 3, 20))) == FULL_SPACE_PINS[name]


# SHA-256 of pauli_sum_matrix's (dtype, shape, bytes) of data, indices and
# indptr, over the Hartree-Fock state's sector and over all 2**n states,
# computed at commit 8d81c8c, where each flip mask's weights were summed a
# term at a time
MATRIX_PINS = {
    ("H2", 0.7414): (
        "6bd22d6919d4dddd8e2562d0ebe0a0b8ada074be643054bacfd73bc872a4acc7",
        "d7f34cea20dd0221905658d385b52ca3c0b0ed8b85aea898299ce92554183281"),
    ("H4", 0.8): (
        "a00bc5132e83fc0d519d9434cbaefbc928988c3886966011c4fff1112eddabb7",
        "57c188acd341e62026c5a3dc2edfd3886ca0d45c0e6f377a3756c21be936b452"),
    ("H4", 1.0): (
        "bdf9a4659ccdd60094d6c772a56c7ac5bdfac942dc893308db8f91c30493f784",
        "3867c4de61bc0e876e64dad9cc55cfd8f1bd78b62ec592fd412b49b857b06f6f"),
    ("H4", 1.2): (
        "aad71659c8b2a181ec7d7836313753b920bf0979b79f388bc47572eb208a129b",
        "18ade1c863807aa835ab0bca0cc70e70e47ea5299749cc9e94582f9b741204d2"),
    ("H4", 1.5): (
        "627862d4372efe41b6b583b6252c02210e42759c4413fc63b6f19eb2e223ace2",
        "2fb66804e86e25475dd8079cb4e1f5becf7f724a6a2333b7af6c2b718584b0f0"),
    ("H4", 1.8): (
        "f385a6234117c7da0ef0d75f282354e4b2038763ffa5354122d29e190e9babf2",
        "785721e40e054d312724806cde4e40ea012aa1772ca8aba1cce8a58189c06794"),
    ("LiH", 1.2): (
        "1b6953ba699ecda86faf22041e657397d6dc74ce48be3b02068d9e4d6f071a37",
        "19077413e076008e41aa1cc3916b864c0a069482e0f5894ccf250a471245516a"),
    ("LiH", 1.6): (
        "57468577541eff84179f3d1927afc2f9c1bd088dc777f1de959611d97796c8b6",
        "a4b5fc26f59c8c8bdb62d541b686a49078ec4c5489b49af301485e8b23bf155b"),
    ("LiH", 2.0): (
        "e922a8dc2a2674354345238a6f39cd01e6d55b3a4479d56fd9e4e4036b8a6ae4",
        "5830ad256a7289f46af88c2b91ce6140163bc4e74343ef15593c8e0b80693be5"),
}
# steps and SHA-256 over each step's parameter, angle and (label, coefficient
# bits) terms, in order, computed at commit 8d81c8c, where every fused gate
# copied the open step's term dict
STEP_PINS = {
    ("H4", 1.0, "UCCSD"): (
        28, "140814431c0aafdbe02900f83456256bb07498c1b9f5f585f8555de7d28fe6ef"),
    ("H4", 1.0, "UCCSD0"): (
        30, "1c853b44f1e6cd0b9a2c70a079ddd82137649708cae451507312aa0be85af1fe"),
    ("H4", 1.0, "QUCC"): (
        26, "675bcb68388a752036ef23264bf649bfd330c08e66fd30ac0d2c9a462aabc1d9"),
    ("H4", 1.0, "2-UpCCGSD"): (
        36, "fa32a6f8e2505ba3ccc7cd777c88b95a82e859b05d788020ee09e459c7d668e5"),
    ("H4", 1.0, "fermionic pool"): (
        28, "140814431c0aafdbe02900f83456256bb07498c1b9f5f585f8555de7d28fe6ef"),
    ("H4", 1.0, "qubit pool"): (
        160, "3b7fc1a9810e9865471593a9676056bc5f1d1c13efa1a0ee1684d7819f031915"),
    ("LiH", 1.6, "UCCSD"): (
        104, "b9b81f1de008664b8abf4a38fed7159a64d625568ec41395c91531c984918192"),
    ("LiH", 1.6, "UCCSD0"): (
        116, "bb869507e0c9f0ec16a78fcc4e9f74c086cb1fb4a067e1f3ed0ba4c3f5eb84f1"),
    ("LiH", 1.6, "QUCC"): (
        92, "fe44a2c6f703bc87b0773ba3c80b1aeb1b5c343d2359eddd10b1f41058ec27d0"),
    ("LiH", 1.6, "2-UpCCGSD"): (
        90, "0a78664e87155fff4749bd01367f3757afdcfac9b3a1fe22d609efb7c43ace61"),
    ("LiH", 1.6, "fermionic pool"): (
        104, "b9b81f1de008664b8abf4a38fed7159a64d625568ec41395c91531c984918192"),
    ("LiH", 1.6, "qubit pool"): (
        640, "65c34b9dbbab6ee5f585743b2efe31e407084345a4fb502a407d3001a7813bf1"),
}

# the same digests for _random_complex_operator(seed), over its basis and
# over all 64 states, computed at commit 8d81c8c
RANDOM_MATRIX_PINS = {
    0: (
        "522774ba11683ef3977f3510b551c7bf2a535bdf5baa0c4f8e0da3e6bf7dbe32",
        "f2127fa8fa8d0bae1584b572f1ce67e36b13450f9da0ce89db5da12e5b67fe86"),
    1: (
        "e3fabfdc90dcca7cde4cc59b627f46184c1a31fcbbe115e72e053aac9ba55bbe",
        "4024e8515344f52126da9f38a3bc12b4fe9ab6d3b2a19df2db7bb687c5ab3d32"),
    2: (
        "d7f8884d7c433dafff20b0d08a8411883e2e23ef21df5f0a71491919965603a7",
        "31d95b18adb860806c85066ef206b5226de5d7aa57065efb8af41b65ee6ffdd2"),
    3: (
        "d597c902baa85bae9b04072af743fbb06b93830a2be068efa84440a76a0833b6",
        "9322dd96de2f478c1a237e705cf3ec3ee796222bc3b78c38b7cb7e4ec03df021"),
    4: (
        "7f30f46a6917087926ba3a7902beb3022abd02f9f7969d5d1fdcf3c740572cd7",
        "7e1ae677ca89a5644ac59a5784f9e5cef9a5198759d9be8722f2fcfe1725a7da"),
}


def _random_complex_operator(seed):
    """40 random strings on 6 qubits with complex coefficients, 8 of them
    each with a partner P Z_q of the opposite coefficient, which cancels
    it on half the rows of their flip mask; and a basis of 32 states."""
    rng = np.random.default_rng(seed)
    pairs = [(random_string(rng, 6), complex(rng.normal(), rng.normal()))
             for _ in range(40)]
    for string, coeff in pairs[:8]:
        free = [q for q in range(6) if not (string.x | string.z) >> q & 1]
        if free:
            pairs.append((PauliString.from_masks(
                string.x, string.z | 1 << free[0]), -coeff))
    basis = np.sort(rng.choice(64, size=32, replace=False))
    return QubitOperator.summed(pairs), basis


def _matrix_digest(matrix) -> str:
    digest = hashlib.sha256()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        digest.update(f"{array.dtype} {array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _steps_digest(steps) -> str:
    digest = hashlib.sha256()
    for step in steps:
        digest.update(f"{step.param} {step.angle!r}".encode())
        for string, coeff in step.terms:
            digest.update(f" {serialize_pauli_string(string)} "
                          f"{coeff.real!r} {coeff.imag!r}".encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestCompilePins:
    """The compiled forms a plan and its energy are made of: the
    Hamiltonian's CSR matrix and the fused steps of a circuit."""

    def test_every_fixture_matrix_is_bit_identical(self):
        assert set(MATRIX_PINS) == {
            (name, r) for name in bundled_molecules()
            for r in bundled_molecule(name).bond_lengths}
        diverged = []
        for (name, r), pins in MATRIX_PINS.items():
            h, n, hf, _ = molecule(name, r)
            sector = simulator.sector_indices(
                n, *simulator._state_sector(hf))
            digests = (
                _matrix_digest(simulator.pauli_sum_matrix(h, n, sector)),
                _matrix_digest(simulator.pauli_sum_matrix(h, n)))
            diverged += [f"{name}@{r} {space}" for space, digest, pin in zip(
                ("sector", "full space"), digests, pins) if digest != pin]
        assert not diverged, f"compiled matrix changed: {diverged}"

    @pytest.mark.parametrize("seed", sorted(RANDOM_MATRIX_PINS))
    def test_random_complex_operator_matrix_is_bit_identical(self, seed):
        op, basis = _random_complex_operator(seed)
        assert (_matrix_digest(simulator.pauli_sum_matrix(op, 6, basis)),
                _matrix_digest(simulator.pauli_sum_matrix(op, 6))) == (
            RANDOM_MATRIX_PINS[seed])

    @pytest.mark.parametrize("case", sorted(STEP_PINS), ids=str)
    def test_steps_are_bit_identical(self, case):
        name, r, family = case
        _, n, _, n_electrons = molecule(name, r)
        fermionic = build_fermionic_pool(n, n_electrons)
        circuit = {
            "UCCSD": lambda: build_uccsd_singlet(n, n_electrons).circuit,
            "UCCSD0": lambda: build_uccsd0(n, n_electrons).circuit,
            "QUCC": lambda: build_qucc(n, n_electrons).circuit,
            "2-UpCCGSD": lambda: build_kupccgsd(n, n_electrons, 2).circuit,
            "fermionic pool": lambda: fermionic.candidate_circuit(n),
            "qubit pool": lambda: build_qubit_pool(
                fermionic, n).candidate_circuit(n),
        }[family]()
        steps = simulator._steps(circuit.gates, circuit.param_names)
        assert (len(steps), _steps_digest(steps)) == STEP_PINS[case]


def _differing_batches(matrix, seed) -> list[int]:
    """The batch sizes (0: one vector) at which matrix @ x and SciPy's
    product of the same CSR arrays differ in any bit, on random complex
    states."""
    rng = np.random.default_rng(seed)
    differing = []
    for rows in (0, 1, 3, 20):
        shape = (rows, matrix.shape[0]) if rows else (matrix.shape[0],)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if (matrix @ x).tobytes() != scipy_product(matrix, x).tobytes():
            differing.append(rows)
    return differing


class TestCompiledSumProduct:
    """A compiled sum's product gives every row the bits of SciPy's CSR
    product over the same arrays, on one vector and on batches of rows."""

    def test_every_fixture_product_keeps_scipy_bits(self):
        diverged = []
        for name in bundled_molecules():
            for r in bundled_molecule(name).bond_lengths:
                h, n, hf, _ = molecule(name, r)
                sector = simulator.sector_indices(
                    n, *simulator._state_sector(hf))
                for space, basis in (("sector", sector), ("full", None)):
                    matrix = simulator.pauli_sum_matrix(h, n, basis)
                    diverged += [f"{name}@{r} {space} rows {rows}"
                                 for rows in _differing_batches(matrix, 1)]
        assert not diverged, f"product bits changed: {diverged}"

    @pytest.mark.parametrize("seed", sorted(RANDOM_MATRIX_PINS))
    def test_complex_weights_keep_scipy_bits(self, seed):
        # a fused complex multiply rounds ar xr - ai xi once, where scipy
        # rounds each product; these weights have both parts nonzero
        op, basis = _random_complex_operator(seed)
        hermitian = random_hermitian_operator(
            np.random.default_rng(seed), 8, 60)
        for matrix in (simulator.pauli_sum_matrix(op, 6, basis),
                       simulator.pauli_sum_matrix(op, 6),
                       simulator.pauli_sum_matrix(hermitian, 8)):
            assert np.any(matrix.data.real * matrix.data.imag)
            assert _differing_batches(matrix, seed) == []

    def test_every_block_and_pass_keeps_scipy_bits(self, monkeypatch):
        # 11 slots at a time: a row or a few per block, a state a pass
        monkeypatch.setattr(simulator, "_PRODUCT_BLOCK", 11)
        op, basis = _random_complex_operator(0)
        h, n, _, _ = molecule("H4", 1.0)
        for matrix in (simulator.pauli_sum_matrix(op, 6, basis),
                       simulator.pauli_sum_matrix(h, n)):
            assert len(matrix._blocks) > 1
            assert _differing_batches(matrix, 2) == []

    def test_an_empty_row_sums_to_positive_zero(self):
        # X0 takes state 2 to 3, outside the basis: its row is all
        # padding, whose 0 * (-1 - 1j) is (0.0, -0.0); a sum from +0, as
        # scipy's, turns that into (0.0, 0.0)
        matrix = simulator.pauli_sum_matrix(
            QubitOperator.from_term(parse_pauli_string("X0")), 2,
            np.array([0, 2, 1]))
        x = np.array([-1 - 1j, 2 + 2j, 3 + 3j])
        assert matrix.nnz == 2
        assert (matrix @ x).tobytes() == scipy_product(matrix, x).tobytes()
        assert _differing_batches(matrix, 6) == []

    def test_real_states_and_dense_forms_match_scipy(self):
        op, basis = _random_complex_operator(3)
        matrix = simulator.pauli_sum_matrix(op, 6, basis)
        csr = scipy.sparse.csr_array(
            (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
        x = np.random.default_rng(4).normal(size=(3, len(basis)))
        assert (matrix @ x[0]).tobytes() == (csr @ x[0]).tobytes()
        assert (matrix @ x).tobytes() == scipy_product(matrix, x).tobytes()
        assert matrix.toarray().tobytes() == csr.toarray().tobytes()
        assert matrix.diagonal().tobytes() == csr.diagonal().tobytes()
        assert matrix.nnz == csr.nnz

    def test_batch_product_scratch_is_bounded(self):
        # LiH's full-space H holds 105,472 entries in up to 36 slots a
        # row: a batch of 10 states taken at once would hold 17-24 MB of
        # products; past the output and its copy in row order, 512 kB
        h, n, _, _ = molecule("LiH", 1.6)
        matrix = simulator.compiled_sum(h, n)
        states = np.random.default_rng(5).normal(size=(10, 1 << n)) + 0j
        tracemalloc.start()
        try:
            out = matrix @ states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * out.nbytes < 0.6e6


class TestForwardFactorsReused:
    """The reverse sweep reads cos and -(sin / |w|) of the forward sweep's
    turns as the factors of -angle."""

    def test_numpy_cos_is_even_and_sin_odd_bit_for_bit(self):
        # a NumPy build that breaks either symmetry fails here, rather than
        # shifting the pinned gradients' bits
        rng = np.random.default_rng(0)
        grid = np.concatenate((
            [0.0, 5e-324, 1e-300, 1e-16, 1e-8],
            np.arange(-64, 65) * (np.pi / 2),
            np.geomspace(1e-8, 1e4, 20001),
            rng.uniform(-1e4, 1e4, 20000)))
        # every length up to 33, so SIMD loops and their tails both run
        for t in [grid] + [grid[k:2 * k] for k in range(1, 34)]:
            assert np.cos(-t).tobytes() == np.cos(t).tobytes()
            assert np.sin(-t).tobytes() == (-np.sin(t)).tobytes()
            assert (np.sin(-t) / 3.0).tobytes() == (
                -(np.sin(t) / 3.0)).tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 3], ids=["vector", "one row",
                                                     "batch"])
    def test_one_pass_over_the_table_per_evaluation(self, monkeypatch, h4,
                                                    rows):
        h, n, hf, n_electrons = h4
        circuit = build_uccsd_singlet(n, n_electrons).circuit
        rng = np.random.default_rng(3)
        angles = rng.uniform(-np.pi, np.pi, (max(rows, 1), circuit.n_params))
        angles = angles if rows else angles[0]
        expected = adjoint_gradient(circuit, h, angles, hf)
        assert simulator._circuit_plan(circuit, hf).table is not None
        passes = []

        def counting(table, values):
            passes.append(values.shape)
            return real(table, values)

        real = simulator._turns
        monkeypatch.setattr(simulator, "_turns", counting)
        energy, grad = adjoint_gradient(circuit, h, angles, hf)
        assert len(passes) == 1
        assert np.asarray(energy).tobytes() == np.asarray(
            expected[0]).tobytes()
        assert grad.tobytes() == expected[1].tobytes()


def _family_circuits(name, r) -> dict:
    _, n, _, n_electrons = molecule(name, r)
    return {
        "UCCSD": build_uccsd_singlet(n, n_electrons).circuit,
        "UCCSD0": build_uccsd0(n, n_electrons).circuit,
        "QUCC": build_qucc(n, n_electrons).circuit,
        "1-UpCCGSD": build_kupccgsd(n, n_electrons, 1).circuit,
        "2-UpCCGSD": build_kupccgsd(n, n_electrons, 2).circuit,
        "BRC": build_brc_closed_shell(n, n_electrons).circuit,
        "fermionic pool": build_fermionic_pool(
            n, n_electrons).candidate_circuit(n),
    }


def _assert_weights_match_terms(step, n_amps):
    """_weights keeps the term-by-term sum's nonzero rows and their bytes,
    and holds +0 on every other row."""
    weights, expected = simulator._weights(step, n_amps), term_weights(
        step, n_amps)
    rows = np.flatnonzero(expected)
    assert np.array_equal(np.flatnonzero(weights), rows)
    assert weights[rows].tobytes() == expected[rows].tobytes()
    zero = np.delete(weights, rows)
    assert zero.tobytes() == bytes(zero.nbytes)


class TestStepWeights:
    """A plan step's weights, weighed by H's flip-mask rule, against the
    term-by-term sum of the Pauli-string kernel (oracles.term_weights)."""

    @pytest.mark.parametrize("name, r", [("H2", 0.7414), ("H4", 1.0),
                                         ("LiH", 1.6)])
    def test_every_family_step_matches_the_term_sum(self, name, r):
        for family, circuit in _family_circuits(name, r).items():
            steps = simulator._steps(circuit.gates, circuit.param_names)
            assert any(len(step.terms) > 1 for step in steps), family
            for step in steps:
                if step.matrix is None:
                    _assert_weights_match_terms(step, 1 << circuit.n_qubits)

    @pytest.mark.parametrize("terms", [
        # a coefficient with both parts, beside a pure imaginary one
        (("X0 Y1", 0.3 - 0.7j), ("Y0 X1", 0.25j)),
        (("Z0 Z2", 1.5), ("Z1", -0.5j)),  # flip mask 0
        (("X0 Z1 Y2", -0.75j),),  # one term
        # the pair cancels on the rows with qubit 1 set
        (("X0 X2", 0.5j), ("X0 Z1 X2", 0.5j), ("Y0 Y2", -0.125j)),
    ], ids=["complex", "z only", "one term", "cancelling"])
    def test_hand_made_steps_match_the_term_sum(self, terms):
        step = simulator._Step(0, 0.0, tuple(
            (parse_pauli_string(text), coeff) for text, coeff in terms))
        _assert_weights_match_terms(step, 8)
        _assert_weights_match_terms(step, 32)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("coeff", [math.inf, -math.inf * 1j,
                                       complex(1.0, math.nan)])
    def test_a_non_finite_coefficient_is_weighed_as_complex(self, coeff):
        # its products keep the NaN parts a complex product makes, as
        # pauli_sum_csr's do; the kernel's move may turn an inf part
        # into NaN, so the rows, not the bytes, of a non-finite weight
        # are the term sum's
        strings = [parse_pauli_string(text) for text in ("X0 Y1", "Y0 X1")]
        assert simulator._mask_sums(
            [(strings[0].z, complex(coeff))], simulator._indices(4),
            2).dtype == complex
        step = simulator._Step(0, 0.0, ((strings[0], coeff),
                                        (strings[1], 0.5j)))
        weights, expected = simulator._weights(step, 8), term_weights(step, 8)
        assert np.array_equal(np.isfinite(weights), np.isfinite(expected))
        assert np.array_equal(np.flatnonzero(weights),
                              np.flatnonzero(expected))
        finite = np.isfinite(expected)
        assert weights[finite].tobytes() == expected[finite].tobytes()
        # an evaluation through either plan kind reads NaN
        h = QubitOperator({parse_pauli_string("Z0"): 1.0})
        for gates in ([], [Gate("X", (2,))]):
            circuit = ParamCircuit(3, gates + [
                Gate("GivensRotation", (0, 1), param=("a", coeff))])
            energy, grad = adjoint_gradient(circuit, h, np.array([0.3]), 1)
            assert math.isnan(energy) and np.isnan(grad).all()

    def test_weights_memory_is_bounded(self):
        # 16 qubits, UCCSD's first 8-term step: the term-by-term sum
        # peaked at 5.4 MB; under 4 state vectors of 2**16 amplitudes
        n = 16
        circuit = trotterize(uccsd_singlet_generators(n, 8), n)
        step = next(step for step in simulator._steps(
            circuit.gates, circuit.param_names) if len(step.terms) == 8)
        simulator._indices(1 << n)
        simulator._sign_table(n)
        tracemalloc.start()
        try:
            weights = simulator._weights(step, 1 << n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * weights.nbytes


def step_bits(steps) -> list:
    """Each step's fields, coefficients as the reprs of their parts and a
    fixed step's matrices as bytes."""
    return [(step.param, repr(step.angle),
             [(str(string), repr(c.real), repr(c.imag))
              for string, c in step.terms],
             None if step.matrix is None else (
                 step.matrix[0], step.matrix[1].tobytes(),
                 step.matrix[2].tobytes()),
             step.pairs) for step in steps]


# strings on three qubits: X0 Y1 and Y0 X1 share a flip mask and commute,
# X0 X1 anticommutes with both
RUN_STRINGS = [parse_pauli_string(text) for text in (
    "X0 Y1", "Y0 X1", "X0 X1", "Y0 Y1", "X0 Y1 Z2", "Z0", "X2", "Z0 Y2")]
PREFACTORS = st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 0.0])
NAMES = st.sampled_from(["a", "b"])
RUN_GATES = st.one_of(
    st.builds(pauli_evolution, st.sampled_from(RUN_STRINGS), NAMES,
              PREFACTORS),
    st.builds(lambda kind, qubit, name, prefactor: Gate(
        kind, (qubit,), param=(name, prefactor)),
        st.sampled_from(["RX", "RY", "RZ"]), st.integers(0, 2), NAMES,
        PREFACTORS),
    st.builds(lambda targets, name, prefactor: Gate(
        "GivensRotation", targets, param=(name, prefactor)),
        st.sampled_from([(0, 1), (1, 0), (1, 2)]), NAMES, PREFACTORS),
    st.builds(lambda string, angle: Gate(
        "PauliEvolution", string.qubits, generator=string, angle=angle),
        st.sampled_from(RUN_STRINGS), st.sampled_from([0.3, -1.2])),
    st.builds(lambda targets: Gate("CNOT", targets),
              st.sampled_from([(0, 1), (2, 0)])),
)


def _evolution(text, prefactor, name="a"):
    return pauli_evolution(parse_pauli_string(text), name, prefactor)


class TestStepFusion:
    """_steps keeps the rule that rebuilt the last step at every gate it
    fused (oracles.fused_steps)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(RUN_GATES, max_size=8), st.lists(RUN_GATES, max_size=12))
    # a run that cancels to nothing closes, and the next gate fuses with
    # the step before it
    @example([], [_evolution("X0 X1", 1.0), _evolution("X0 Y1", 1.0),
                  _evolution("Y0 X1", 0.5), _evolution("X0 Y1", -1.0),
                  _evolution("Y0 X1", -0.5), _evolution("X0 X1", 1.0)])
    # the prefix's last step reopens, cancels, and the step before it
    # reopens in turn
    @example([_evolution("X0 X1", 1.0), Gate("RZ", (2,), param=("a", 1.0))],
             [Gate("RZ", (2,), param=("a", -1.0)), _evolution("X0 X1", 2.0),
              _evolution("Y0 X1", 1.0, "b")])
    # one flip mask: X0 X1 and Y0 Y1 (Y counts even) commute and fuse, and
    # X0 Y1 (odd) closes the run; Givens strings share a mask and parity
    @example([], [_evolution("X0 X1", 1.0), _evolution("Y0 Y1", 0.5),
                  _evolution("X0 Y1", 1.0), _evolution("Y0 X1", -1.0),
                  Gate("GivensRotation", (0, 1), param=("a", 1.0)),
                  Gate("GivensRotation", (0, 1), param=("a", -1.0))])
    def test_steps_equal_the_gate_by_gate_rule(self, prefix, gates):
        names = ("a", "b")
        assert step_bits(simulator._steps(prefix, names)) == step_bits(
            fused_steps(prefix, names))
        # a prefix's steps as a sector plan holds them: each with its pairs,
        # which a step that fuses on must drop
        start = tuple(step._replace(pairs=("restricted", k))
                      for k, step in enumerate(simulator._steps(prefix,
                                                                names)))
        assert step_bits(simulator._steps(gates, names, start)) == step_bits(
            fused_steps(gates, names, start))
