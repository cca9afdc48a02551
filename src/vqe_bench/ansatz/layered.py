"""Layered ansatz builders: hardware-efficient (HEA), low-depth matchgate
cycles (LDCA), and the Givens-network basis rotation circuit (BRC)."""

from __future__ import annotations

import math

from ..operators import PauliString
from ..simulator import Gate, ParamCircuit, pauli_evolution
from .core import (
    UNIFORM_0_2PI,
    UNIFORM_PM_PI,
    AnsatzBuild,
)

LDCA_BLOCK_AXES = ("XX", "YY", "ZZ", "XY", "YX")


def build_hea(n_qubits: int, depth: int) -> AnsatzBuild:
    """Initial RY+RZ rotation layer, then `depth` x [CNOT chain; rotations]."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    gates = []

    def rotation_layer(layer):
        for q in range(n_qubits):
            gates.append(Gate("RY", (q,), param=(f"ry_{layer}_{q}", 1.0)))
            gates.append(Gate("RZ", (q,), param=(f"rz_{layer}_{q}", 1.0)))

    rotation_layer(0)
    for layer in range(1, depth + 1):
        for q in range(n_qubits - 1):
            gates.append(Gate("CNOT", (q, q + 1)))
        rotation_layer(layer)
    return AnsatzBuild(ParamCircuit(n_qubits, gates),
                       init_policy=UNIFORM_0_2PI)


def _matchgate_block(qa: int, qb: int, prefix: str) -> list[Gate]:
    return [pauli_evolution(PauliString(((qa, axes[0]), (qb, axes[1]))),
                            f"{prefix}_{idx}")
            for idx, axes in enumerate(LDCA_BLOCK_AXES)]


def build_ldca(n_qubits: int, cycles: int) -> AnsatzBuild:
    """Cycles of matchgate layers on alternating pairs, then phase rotations.

    Each cycle holds ceil(n/2) layers; a layer applies the five-rotation
    matchgate block first on even qubit pairs, then on odd pairs.  One
    round of variational RZ rotations closes the circuit.
    """
    if n_qubits < 2:
        raise ValueError("LDCA needs at least two qubits")
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    gates = []
    for cycle in range(cycles):
        for layer in range(math.ceil(n_qubits / 2)):
            for parity in (0, 1):
                for qa in range(parity, n_qubits - 1, 2):
                    prefix = f"c{cycle}_l{layer}_q{qa}"
                    gates.extend(_matchgate_block(qa, qa + 1, prefix))
    for q in range(n_qubits):
        gates.append(Gate("RZ", (q,), param=(f"phase_{q}", 1.0)))
    return AnsatzBuild(ParamCircuit(n_qubits, gates),
                       init_policy=UNIFORM_0_2PI, restarts=20)


def givens_network(n_modes: int, n_filled: int) -> list[tuple[int, int]]:
    """Diamond schedule of nearest-neighbor rotations, as (epoch, pair) list.

    Edge p hosts min(p+1, eta, N-1-p, N-eta) rotations, fired every other
    epoch starting at its distance from the Fermi boundary; the total is
    eta * (N - eta).
    """
    if not 0 < n_filled < n_modes:
        raise ValueError("filling must be strictly between 0 and n_modes")
    placements = []
    for p in range(n_modes - 1):
        count = min(p + 1, n_filled, n_modes - 1 - p, n_modes - n_filled)
        start = abs(p - (n_filled - 1))
        for m in range(count):
            placements.append((start + 2 * m, p))
    placements.sort()
    expected = n_filled * (n_modes - n_filled)
    if len(placements) != expected:
        raise AssertionError(
            f"diamond schedule produced {len(placements)} rotations, "
            f"expected {expected}")
    return placements


def build_brc(n_modes: int, n_filled: int) -> AnsatzBuild:
    """Basis rotation network on a single chain of n_modes qubits."""
    gates = []
    for epoch, p in givens_network(n_modes, n_filled):
        gates.append(Gate("GivensRotation", (p, p + 1),
                          param=(f"g_{epoch}_{p}", 1.0)))
    return AnsatzBuild(ParamCircuit(n_modes, gates), init_policy=UNIFORM_PM_PI,
                       restarts=20)


def build_brc_closed_shell(n_qubits: int, n_electrons: int) -> AnsatzBuild:
    """Identical Givens networks on the alpha and beta qubit sub-chains with
    shared parameters; spatial-orbital rotations of a closed-shell state."""
    if n_qubits % 2 or n_electrons % 2:
        raise ValueError("closed-shell BRC needs even qubit/electron counts")
    n_spatial = n_qubits // 2
    n_filled = n_electrons // 2
    gates = []
    for epoch, p in givens_network(n_spatial, n_filled):
        name = f"g_{epoch}_{p}"
        gates.append(Gate("GivensRotation", (2 * p, 2 * p + 2),
                          param=(name, 1.0)))
        gates.append(Gate("GivensRotation", (2 * p + 1, 2 * p + 3),
                          param=(name, 1.0)))
    return AnsatzBuild(ParamCircuit(n_qubits, gates),
                       init_policy=UNIFORM_PM_PI, restarts=20)
