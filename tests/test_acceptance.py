"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and the stretched-bond report table.  Heavy artifacts (optimized
energies per molecule/ansatz) are computed once in module fixtures and
shared; the variational-floor criterion sweeps everything that was
produced.
"""

import functools
import json

import numpy as np
import pytest

from vqe_bench.ansatz import (
    build_brc,
    build_brc_closed_shell,
    build_kupccgsd,
    build_ldca,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
)
from vqe_bench.ansatz.adaptive import (
    adapt_vqe,
    build_fermionic_pool,
    build_qubit_pool,
    qcc_optimize,
    qubit_adapt_vqe,
)
from vqe_bench.bench import (
    BenchRecord,
    comparison_table,
    initdata,
    record_path,
    run_sweep,
    savedata,
)
from vqe_bench.driver import OptimizerConfig, run_hea_layer_growth, run_vqe
from vqe_bench.hamiltonian import (
    bundled_molecule,
    exact_ground_energy,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import (
    QubitOperator,
    jordan_wigner,
    pauli_multiply,
)
from vqe_bench.simulator import (
    adjoint_gradient,
    apply_circuit,
    parameter_shift_gradient,
)
from oracles import (
    annihilation,
    creation,
    finite_difference_gradient,
    number_expectation,
    random_circuit,
    random_values,
    runs_in_sector,
)

CHEM_TOL = 0.0016
FLOOR_SLACK = 1e-9

# every optimized energy lands here as (label, energy, fci reference)
ENERGY_LOG: list[tuple[str, float, float]] = []


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:2d}] {title}: FAIL")
                raise
            print(f"\n[criterion {number:2d}] {title}: PASS")
            return out

        return wrapper

    return decorate


class System:
    def __init__(self, molecule, bond_length):
        data = bundled_molecule(molecule).integrals(bond_length)
        self.label = f"{molecule}@{bond_length}"
        self.data = data
        self.h = qubit_hamiltonian(data)
        self.n_qubits = data.n_qubits
        self.n_electrons = data.n_electrons
        self.hf_index = hf_state_index(data.n_qubits, data.n_electrons)
        self.fci = exact_ground_energy(self.h, data.n_qubits,
                                       sector=(data.n_electrons, data.ms2))

    def optimize(self, name, build, seed=0, cfg=None):
        result = run_vqe(build, self.h, self.hf_index,
                         cfg or OptimizerConfig(), seed=seed)
        ENERGY_LOG.append((f"{self.label}/{name}", result.energy, self.fci))
        return result.energy


H4_POINTS = (0.8, 1.0, 1.2, 1.5, 1.8)


@pytest.fixture(scope="module")
def h2():
    return System("H2", 0.7414)


@pytest.fixture(scope="module")
def h4_systems():
    return {r: System("H4", r) for r in H4_POINTS}


@pytest.fixture(scope="module")
def lih():
    return System("LiH", 1.6)


@pytest.fixture(scope="module")
def h2_energies(h2):
    """Every ansatz family on the two-electron molecule."""
    out = {}
    out["UCCSD"] = h2.optimize("UCCSD", build_uccsd_singlet(4, 2), seed=1)
    out["UCCSD0"] = h2.optimize("UCCSD0", build_uccsd0(4, 2), seed=1)
    out["QUCC"] = h2.optimize("QUCC", build_qucc(4, 2), seed=1)
    out["1-UpCCGSD"] = h2.optimize("1-UpCCGSD", build_kupccgsd(4, 2, 1), seed=1)
    out["2-UpCCGSD"] = h2.optimize("2-UpCCGSD", build_kupccgsd(4, 2, 2), seed=1)
    out["LDCA"] = h2.optimize("LDCA", build_ldca(4, 2), seed=1)
    out["BRC"] = h2.optimize("BRC", build_brc_closed_shell(4, 2), seed=1)
    _, hea = run_hea_layer_growth(h2.h, 4, h2.hf_index,
                                  reference_energy=h2.fci, seed=1)
    ENERGY_LOG.append((f"{h2.label}/HEA", hea.energy, h2.fci))
    out["HEA"] = hea.energy
    pool = build_fermionic_pool(4, 2)
    _, trace = adapt_vqe(h2.h, 4, pool, initial_state=h2.hf_index)
    ENERGY_LOG.append((f"{h2.label}/ADAPT", trace.final_energy, h2.fci))
    out["ADAPT"] = trace.final_energy
    qpool = build_qubit_pool(pool, 4)
    _, qtrace = qubit_adapt_vqe(h2.h, 4, qpool, initial_state=h2.hf_index)
    ENERGY_LOG.append((f"{h2.label}/qubit-ADAPT", qtrace.final_energy, h2.fci))
    out["qubit-ADAPT"] = qtrace.final_energy
    _, ctrace = qcc_optimize(h2.h, 4, qpool, initial_state=h2.hf_index,
                             reference_energy=h2.fci)
    ENERGY_LOG.append((f"{h2.label}/QCC", ctrace.final_energy, h2.fci))
    out["QCC"] = ctrace.final_energy
    return out


@pytest.fixture(scope="module")
def h4_sweep(h4_systems):
    """UCCSD / UCCSD0 / 1-UpCCGSD across the bond-length sweep, plus the
    remaining fixed families at the near-equilibrium point."""
    energies = {"UCCSD": {}, "UCCSD0": {}, "1-UpCCGSD": {}}
    params = {"UCCSD": {}, "UCCSD0": {}, "1-UpCCGSD": {}}
    builders = {"UCCSD": build_uccsd_singlet, "UCCSD0": build_uccsd0,
                "1-UpCCGSD": lambda n, e: build_kupccgsd(n, e, 1)}
    for name, builder in builders.items():
        for r, system in h4_systems.items():
            build = builder(8, 4)
            energies[name][r] = system.optimize(name, build, seed=101)
            params[name][r] = build.n_params
    extra = {}
    near = h4_systems[1.0]
    extra["QUCC"] = near.optimize("QUCC", build_qucc(8, 4), seed=101)
    extra["2-UpCCGSD"] = near.optimize("2-UpCCGSD", build_kupccgsd(8, 4, 2),
                                       seed=101)
    extra["BRC"] = near.optimize("BRC", build_brc_closed_shell(8, 4), seed=101)
    return {"energies": energies, "params": params, "extra": extra}


@pytest.fixture(scope="module")
def h4_adapt(h4_systems):
    system = h4_systems[1.0]
    pool = build_fermionic_pool(8, 4)
    build, trace = adapt_vqe(system.h, 8, pool, initial_state=system.hf_index)
    ENERGY_LOG.append((f"{system.label}/ADAPT", trace.final_energy, system.fci))
    return build, trace


@pytest.fixture(scope="module")
def h2_adapt(h2):
    pool = build_fermionic_pool(4, 2)
    return adapt_vqe(h2.h, 4, pool, initial_state=h2.hf_index)


@pytest.fixture(scope="module")
def lih_energies(lih):
    out = {"UCCSD": lih.optimize("UCCSD", build_uccsd_singlet(12, 4), seed=2),
           "BRC": lih.optimize("BRC", build_brc_closed_shell(12, 4), seed=2)}
    return out


@criterion(1, "variational floor on every produced energy (H2/H4/LiH)")
def test_criterion_01_variational_floor(h2_energies, h4_sweep, h4_adapt,
                                        lih_energies):
    assert len(ENERGY_LOG) >= 25
    labels = " ".join(label for label, _, _ in ENERGY_LOG)
    for molecule in ("H2", "H4", "LiH"):
        assert molecule in labels
    for label, energy, fci in ENERGY_LOG:
        assert energy >= fci - FLOOR_SLACK, (
            f"{label}: E={energy} dips {energy - fci} below FCI")


@criterion(2, "chemical accuracy at the near-equilibrium H4 point")
def test_criterion_02_equilibrium_accuracy(h4_systems, h4_sweep, h4_adapt):
    fci = h4_systems[1.0].fci
    sweep = h4_sweep["energies"]
    assert abs(sweep["UCCSD"][1.0] - fci) < CHEM_TOL
    assert abs(sweep["UCCSD0"][1.0] - fci) < CHEM_TOL
    assert abs(h4_sweep["extra"]["QUCC"] - fci) < CHEM_TOL
    _, trace = h4_adapt
    assert abs(trace.final_energy - fci) < CHEM_TOL


@criterion(3, "UCCSD and UCCSD0 exact on the two-electron molecule")
def test_criterion_03_two_electron_exactness(h2, h2_energies):
    assert abs(h2_energies["UCCSD"] - h2.fci) < 1e-8
    assert abs(h2_energies["UCCSD0"] - h2.fci) < 1e-8


@criterion(4, "parameter-count identities")
def test_criterion_04_parameter_counts(h4_sweep):
    for n_qubits, n_electrons in ((4, 2), (8, 4), (12, 4)):
        assert (build_uccsd0(n_qubits, n_electrons).n_params
                == build_uccsd_singlet(n_qubits, n_electrons).n_params)
    for n in range(2, 11):
        for eta in range(1, n):
            assert build_brc(n, eta).n_params == eta * (n - eta)
    base = build_kupccgsd(8, 4, 1).n_params
    assert [build_kupccgsd(8, 4, k).n_params for k in (1, 2, 3)] == [
        base, 2 * base, 3 * base]
    for name, per_point in h4_sweep["params"].items():
        counts = set(per_point.values())
        assert len(counts) == 1, f"{name} count varies across bond lengths"


@criterion(5, "Jordan-Wigner preserves the ladder anticommutators exactly")
def test_criterion_05_jw_algebra():
    n = 6
    identity = QubitOperator.identity()
    zero = QubitOperator.zero()
    for i in range(n):
        for j in range(n):
            a_i = jordan_wigner(annihilation(i), n)
            a_j = jordan_wigner(annihilation(j), n)
            adj_j = jordan_wigner(creation(j), n)
            assert pauli_multiply(a_i, adj_j) + pauli_multiply(adj_j, a_i) \
                == (identity if i == j else zero)
            assert pauli_multiply(a_i, a_j) + pauli_multiply(a_j, a_i) == zero


@criterion(6, "adjoint gradients track finite differences and shift rule")
def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(2024)
    from oracles import random_hermitian_operator

    for _ in range(50):
        n = int(rng.integers(2, 9))
        n_params = int(rng.integers(2, 31))
        circuit = random_circuit(rng, n, n_params, n_params + 10)
        values = random_values(rng, circuit)
        h = random_hermitian_operator(rng, n, 6)
        initial = int(rng.integers(2 ** n))
        _, grad = adjoint_gradient(circuit, h, values, initial)
        fd = finite_difference_gradient(circuit, h, values, initial)
        for k in range(circuit.n_params):
            assert abs(grad[k] - fd[k]) < 1e-6
    # parameter-shift equivalence on string-evolution circuits
    from vqe_bench.operators import PauliString
    from vqe_bench.simulator import pauli_evolution

    for _ in range(10):
        n = 4
        gates = []
        for k in range(6):
            qubits = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            ops = tuple(sorted((int(q), str(rng.choice(list("XYZ"))))
                               for q in qubits))
            gates.append(pauli_evolution(PauliString(ops), f"t{k}"))
        from vqe_bench.simulator import ParamCircuit

        circuit = ParamCircuit(n, gates)
        values = random_values(rng, circuit)
        h = random_hermitian_operator(rng, n, 5)
        _, grad = adjoint_gradient(circuit, h, values, 3)
        for k, name in enumerate(circuit.param_names):
            shift = parameter_shift_gradient(circuit, h, values, 3, name)
            assert abs(shift - grad[k]) < 1e-9


@criterion(7, "particle conservation over 200 random draws per family")
def test_criterion_07_particle_conservation(h4_adapt):
    adapt_build, _ = h4_adapt
    builds = {
        "UCCSD": build_uccsd_singlet(8, 4),
        "UCCSD0": build_uccsd0(8, 4),
        "1-UpCCGSD": build_kupccgsd(8, 4, 1),
        "2-UpCCGSD": build_kupccgsd(8, 4, 2),
        "QUCC": build_qucc(8, 4),
        "ADAPT": adapt_build,
        "BRC": build_brc_closed_shell(8, 4),
    }
    rng = np.random.default_rng(77)
    initial = hf_state_index(8, 4)
    for name, build in builds.items():
        assert runs_in_sector(build.circuit, initial), name
        for _ in range(200):
            values = np.array([float(rng.uniform(-np.pi, np.pi))
                               for _ in build.circuit.param_names])
            state = apply_circuit(build.circuit, values, initial)
            assert abs(number_expectation(state) - 4.0) < 1e-10, name


@criterion(8, "adaptive loop: monotone trace, gradient-norm stop, fast H2")
def test_criterion_08_adapt_behavior(h2, h2_adapt, h4_adapt):
    h2_build, h2_trace = h2_adapt
    assert h2_trace.converged  # stopped by the 1e-2 gradient-norm rule
    assert len(h2_trace.iterations) <= 2
    assert abs(h2_trace.final_energy - h2.fci) < 1e-6
    _, h4_trace = h4_adapt
    assert h4_trace.converged
    for trace in (h2_trace, h4_trace):
        energies = [it.energy_after_reopt for it in trace.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


@criterion(9, "stretched H4: shallow pair ansatz misses chemical accuracy")
def test_criterion_09_stretched_bond(h4_systems, h4_sweep):
    sweep = h4_sweep["energies"]
    print("\n  r     UCCSD err    UCCSD0 err   1-UpCCGSD err   UCCSD0<=UCCSD")
    uccsd0_dominates = True
    for r in H4_POINTS:
        fci = h4_systems[r].fci
        e_u = sweep["UCCSD"][r] - fci
        e_u0 = sweep["UCCSD0"][r] - fci
        e_k = sweep["1-UpCCGSD"][r] - fci
        ok = e_u0 <= e_u + 1e-6
        uccsd0_dominates &= ok
        print(f"  {r:<4}  {e_u:+.3e}   {e_u0:+.3e}   {e_k:+.3e}      {ok}")
    print(f"  UCCSD0 error <= UCCSD error at every point: {uccsd0_dominates}")
    stretched_misses = [r for r in H4_POINTS if r > 1.4
                        and sweep["1-UpCCGSD"][r] - h4_systems[r].fci > CHEM_TOL]
    assert stretched_misses, "1-UpCCGSD unexpectedly accurate when stretched"


@criterion(10, "harness fidelity: stable files, deterministic sweeps, bands")
def test_criterion_10_harness_fidelity(tmp_path):
    # byte-stable round trip
    initdata("H4", [0.8, 1.0], tmp_path)
    path = record_path(tmp_path, "H4")
    savedata(path, "UCCSD", 0.8, -2.16754, 1.25, 14)
    text = path.read_text()
    assert BenchRecord.from_dict(json.loads(text)).serialize() == text
    # sweep determinism under a fixed seed
    spec = bundled_molecule("H2")
    cfg = OptimizerConfig()
    a = run_sweep(spec, ["UCCSD", "BRC"], cfg, seed=9,
                  data_dir=tmp_path / "a")
    b = run_sweep(spec, ["UCCSD", "BRC"], cfg, seed=9,
                  data_dir=tmp_path / "b")
    assert a.energies == b.energies
    assert a.n_params == b.n_params
    for label, energies in a.energies.items():
        ENERGY_LOG.append((f"H2-sweep/{label}", energies[0], a.fci[0]))
    # the comparison emission carries the +-0.0016 band columns
    columns, rows = comparison_table(a, "errors")
    assert columns[-2:] == ["chem_acc_lower", "chem_acc_upper"]
    assert all(row[-2] == -CHEM_TOL and row[-1] == CHEM_TOL for row in rows)


@criterion(0, "floor re-checked over the full session log")
def test_criterion_floor_final_sweep():
    # runs last: every energy logged by any earlier criterion must respect
    # the variational floor
    for label, energy, fci in ENERGY_LOG:
        assert energy >= fci - FLOOR_SLACK, label
