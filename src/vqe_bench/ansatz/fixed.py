"""Fixed-circuit ansatz builders: UCCSD (singlet), UCCSD0, k-UpCCGSD, QUCC.

Spatial orbital p covers qubits 2p (alpha) and 2p+1 (beta).  Parameter
sharing conventions:

* UCCSD: singles keyed by spatial (i, a); doubles keyed by unordered pairs
  (with repetition) of spatial single excitations, all spin-resolved
  realizations sharing the key's parameter.
* UCCSD0: the same singles; doubles re-parameterized through the
  singlet-pair channel (i <= j, a <= b) and triplet-pair channel
  (i < j, a < b), each channel entry one parameter whose weighted
  constituent excitations come from the pair decomposition.
* k-UpCCGSD: k blocks of generalized singles over spatial pairs plus
  paired doubles moving an alpha-beta pair between spatial orbitals.
* QUCC: the UCCSD index set with qubit excitations (no Z chains) and one
  parameter per spin-resolved excitation.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .core import (
    UNIFORM_0_2PI,
    ZEROS,
    AnsatzBuild,
    ExcitationGenerator,
    compile_generators,
)


def _spatial_split(n_qubits: int, n_electrons: int) -> tuple[range, range]:
    if n_electrons % 2:
        raise ValueError("closed-shell builders need an even electron count")
    if n_qubits % 2:
        raise ValueError("n_qubits must be even (two spin orbitals per spatial)")
    n_spatial = n_qubits // 2
    n_occ = n_electrons // 2
    return range(n_occ), range(n_occ, n_spatial)


def _alpha(p: int) -> int:
    return 2 * p


def _beta(p: int) -> int:
    return 2 * p + 1


def _shared_singles(occ, virt) -> list[ExcitationGenerator]:
    gens = []
    for i in occ:
        for a in virt:
            name = f"s_{i}_{a}"
            for spin in (_alpha, _beta):
                gens.append(ExcitationGenerator(
                    "single", (spin(i),), (spin(a),), name))
    return gens


def build_uccsd_singlet(n_qubits: int, n_electrons: int) -> AnsatzBuild:
    """Spin-preserving singles and doubles with spatial parameter sharing."""
    occ, virt = _spatial_split(n_qubits, n_electrons)
    gens = _shared_singles(occ, virt)
    singles = [(i, a) for i in occ for a in virt]
    for (i, a), (j, b) in combinations_with_replacement(singles, 2):
        name = f"d_{i}_{j}_{a}_{b}"
        if (i, a) == (j, b):
            gens.append(ExcitationGenerator(
                "double", (_alpha(i), _beta(i)), (_alpha(a), _beta(a)), name))
            continue
        for spin_i, spin_j in ((_alpha, _alpha), (_beta, _beta),
                               (_alpha, _beta), (_beta, _alpha)):
            gens.append(ExcitationGenerator(
                "double", (spin_i(i), spin_j(j)), (spin_i(a), spin_j(b)), name))
    return AnsatzBuild(*compile_generators(gens, n_qubits),
                       particle_conserving=True, init_policy=ZEROS)


def _pair_channel_doubles(occ, virt) -> list[ExcitationGenerator]:
    gens = []
    for i, j in combinations_with_replacement(occ, 2):
        for a, b in combinations_with_replacement(virt, 2):
            name = f"sig_{i}_{j}_{a}_{b}"
            weighted: dict[tuple, float] = {}
            for o_pair, v_pair in (
                    ((_alpha(i), _beta(j)), (_alpha(a), _beta(b))),
                    ((_alpha(j), _beta(i)), (_alpha(a), _beta(b))),
                    ((_alpha(i), _beta(j)), (_alpha(b), _beta(a))),
                    ((_alpha(j), _beta(i)), (_alpha(b), _beta(a)))):
                key = (o_pair, v_pair)
                weighted[key] = weighted.get(key, 0.0) + 0.5
            for (o_pair, v_pair), weight in weighted.items():
                gens.append(ExcitationGenerator("double", o_pair, v_pair,
                                                name, prefactor=weight))
    for i, j in combinations(occ, 2):
        for a, b in combinations(virt, 2):
            name = f"pi_{i}_{j}_{a}_{b}"
            entries = [
                ((_alpha(i), _alpha(j)), (_alpha(a), _alpha(b)), 1.0),
                ((_beta(i), _beta(j)), (_beta(a), _beta(b)), 1.0),
                ((_alpha(i), _beta(j)), (_alpha(a), _beta(b)), 0.5),
                ((_alpha(j), _beta(i)), (_alpha(a), _beta(b)), -0.5),
                ((_alpha(i), _beta(j)), (_alpha(b), _beta(a)), -0.5),
                ((_alpha(j), _beta(i)), (_alpha(b), _beta(a)), 0.5),
            ]
            for o_pair, v_pair, weight in entries:
                gens.append(ExcitationGenerator("double", o_pair, v_pair,
                                                name, prefactor=weight))
    return gens


def build_uccsd0(n_qubits: int, n_electrons: int) -> AnsatzBuild:
    """UCCSD excitation set with singlet/triplet pair-channel parameters."""
    occ, virt = _spatial_split(n_qubits, n_electrons)
    gens = _shared_singles(occ, virt)
    gens.extend(_pair_channel_doubles(occ, virt))
    return AnsatzBuild(*compile_generators(gens, n_qubits),
                       particle_conserving=True, init_policy=ZEROS)


def build_kupccgsd(n_qubits: int, n_electrons: int, k: int) -> AnsatzBuild:
    """k repeated blocks of generalized singles plus paired doubles."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _spatial_split(n_qubits, n_electrons)  # closed-shell validation
    n_spatial = n_qubits // 2
    gens = []
    for block in range(k):
        for p, q in combinations(range(n_spatial), 2):
            name = f"k{block}_gs_{p}_{q}"
            for spin in (_alpha, _beta):
                gens.append(ExcitationGenerator(
                    "generalized-single", (spin(p),), (spin(q),), name))
        for p, q in combinations(range(n_spatial), 2):
            gens.append(ExcitationGenerator(
                "paired-double", (_alpha(p), _beta(p)),
                (_alpha(q), _beta(q)), f"k{block}_pd_{p}_{q}"))
    return AnsatzBuild(*compile_generators(gens, n_qubits),
                       particle_conserving=True, init_policy=UNIFORM_0_2PI,
                       restarts=10)


def build_qucc(n_qubits: int, n_electrons: int) -> AnsatzBuild:
    """Qubit excitations on the UCCSD index set, one parameter each."""
    occ, virt = _spatial_split(n_qubits, n_electrons)
    occ_spins = [q for p in occ for q in (_alpha(p), _beta(p))]
    virt_spins = [q for p in virt for q in (_alpha(p), _beta(p))]
    gens = []
    for i in occ_spins:
        for a in virt_spins:
            if i % 2 == a % 2:  # spin-preserving
                gens.append(ExcitationGenerator(
                    "qubit-single", (i,), (a,), f"qs_{i}_{a}"))
    for i, j in combinations(occ_spins, 2):
        for a, b in combinations(virt_spins, 2):
            if (i % 2 + j % 2) == (a % 2 + b % 2):  # Sz-preserving
                gens.append(ExcitationGenerator(
                    "qubit-double", (i, j), (a, b), f"qd_{i}_{j}_{a}_{b}"))
    return AnsatzBuild(*compile_generators(gens, n_qubits),
                       particle_conserving=True, init_policy=ZEROS)
