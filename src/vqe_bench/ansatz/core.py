"""Shared ansatz machinery: excitation generators, init policies, and the
single-step first-order Trotter compilation into Pauli-evolution gates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..operators import (
    FermionOperator,
    QubitOperator,
    jordan_wigner,
    ladder_product,
    serialize_pauli_string,
)
from ..simulator import Gate, ParamCircuit

FERMIONIC_KINDS = frozenset({"single", "double", "paired-double",
                             "generalized-single"})
QUBIT_KINDS = frozenset({"qubit-single", "qubit-double"})


@dataclass(frozen=True)
class ExcitationGenerator:
    """One excitation whose anti-Hermitian form gets exponentiated.

    `occupied` lists the annihilated spin orbitals, `virtual` the created
    ones.  The fermionic convention is T = a†_{v1} a†_{v2} a_{o2} a_{o1}
    (creations in listed order, annihilations reversed); qubit kinds use
    the ladder operators without Z chains.  Several generators may share a
    param_name; `prefactor` weights this generator's contribution.
    """

    kind: str
    occupied: tuple[int, ...]
    virtual: tuple[int, ...]
    param_name: str
    prefactor: float = 1.0
    _mapped: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.kind not in FERMIONIC_KINDS | QUBIT_KINDS:
            raise ValueError(f"unknown generator kind {self.kind}")

    def antihermitian_operator(self, n_qubits: int) -> QubitOperator:
        """T - T† mapped to qubits (JW for fermionic kinds)."""
        return self._on_qubits(n_qubits)[0]

    def _on_qubits(self, n_qubits: int) -> tuple[QubitOperator,
                                                 tuple[Gate, ...]]:
        """T - T† on qubits and its Pauli-evolution gates, bound to
        param_name in canonical term order.  Both are made once per qubit
        count and kept on the generator, never changed, so every build,
        pool and screening circuit made from it shares one mapping."""
        mapped = self._mapped.get(n_qubits)
        if mapped is not None:
            return mapped
        factors = tuple((v, True) for v in self.virtual)
        factors += tuple((o, False) for o in reversed(self.occupied))
        if self.kind in FERMIONIC_KINDS:
            t = FermionOperator.from_term(factors, self.prefactor)
            op = jordan_wigner(t - t.dagger(), n_qubits)
        else:
            t = ladder_product(factors, self.prefactor, z_chain=False)
            op = t - t.dagger()
        gates = []
        for string in sorted(op.terms, key=serialize_pauli_string):
            coeff = op.terms[string]
            if abs(coeff.real) > 1e-12:
                raise ValueError(
                    f"generator {self} is not anti-Hermitian (real residue)")
            gates.append(Gate("PauliEvolution", string.qubits,
                              generator=string,
                              param=(self.param_name, coeff.imag)))
        mapped = self._mapped[n_qubits] = (op, tuple(gates))
        return mapped


@dataclass(frozen=True)
class InitPolicy:
    """zeros, or uniform(low, high) sampling per parameter."""

    kind: str  # "zeros" | "uniform"
    low: float = 0.0
    high: float = 0.0

    def draw(self, n_params: int, rng: np.random.Generator) -> np.ndarray:
        """Starting angles, one scalar draw per parameter in order."""
        if self.kind == "zeros":
            return np.zeros(n_params)
        return np.array([rng.uniform(self.low, self.high)
                         for _ in range(n_params)])


ZEROS = InitPolicy("zeros")
UNIFORM_0_2PI = InitPolicy("uniform", 0.0, 2.0 * np.pi)
UNIFORM_PM_PI = InitPolicy("uniform", -np.pi, np.pi)


@dataclass
class AnsatzBuild:
    """A compiled ansatz circuit plus its build metadata."""

    circuit: ParamCircuit
    generators: tuple[ExcitationGenerator, ...]
    particle_conserving: bool
    init_policy: InitPolicy
    restarts: int = 1

    @property
    def n_params(self) -> int:
        return self.circuit.n_params


def generator_gates(gen: ExcitationGenerator,
                    n_qubits: int) -> tuple[Gate, ...]:
    """Pauli-evolution gates for one generator, in canonical term order."""
    return gen._on_qubits(n_qubits)[1]


def compile_generators(
        gens, n_qubits: int) -> tuple[ParamCircuit,
                                      tuple[ExcitationGenerator, ...]]:
    """Trotterize (one step), dropping generators with an empty image."""
    gates: list[Gate] = []
    kept = []
    for gen in gens:
        new_gates = generator_gates(gen, n_qubits)
        if new_gates:
            gates.extend(new_gates)
            kept.append(gen)
    return ParamCircuit(n_qubits, gates), tuple(kept)


def trotterize(gens, n_qubits: int) -> ParamCircuit:
    """First-order single-step product of exponentials, generator order kept."""
    circuit, _ = compile_generators(gens, n_qubits)
    return circuit
