"""Shared ansatz machinery: excitation generators (none names an orbital
twice), init policies, and one first-order Trotter step into gates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..operators import (
    COEFF_TOLERANCE,
    QubitOperator,
    _add_ladder_terms,
    _check_modes,
    _normal_order_term,
    _qubit_operator,
    pauli_sort_key,
)
from ..simulator import Gate, ParamCircuit, pauli_evolution

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
    param_name; `prefactor`, not zero, weights this generator's term.  No
    orbital may be listed twice (twice on one side, T would be zero).
    """

    kind: str
    occupied: tuple[int, ...]
    virtual: tuple[int, ...]
    param_name: str
    prefactor: float = 1.0
    _mapped: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.kind not in FERMIONIC_KINDS and self.kind not in QUBIT_KINDS:
            raise ValueError(f"unknown generator kind {self.kind}")
        if self.prefactor == 0:
            raise ValueError(f"zero prefactor in {self!r}")
        orbitals = self.occupied + self.virtual
        for k, p in enumerate(orbitals):
            if p in orbitals[:k]:
                raise ValueError(f"orbital {p} appears twice in {self!r}")

    def antihermitian_operator(self, n_qubits: int) -> QubitOperator:
        """T - T† mapped to qubits (JW for fermionic kinds)."""
        return self._on_qubits(n_qubits)[0]

    def gates(self, n_qubits: int) -> tuple[Gate, ...]:
        """Its Pauli-evolution gates, in canonical term order."""
        return self._on_qubits(n_qubits)[1]

    def _on_qubits(self, n_qubits: int) -> tuple[QubitOperator,
                                                 tuple[Gate, ...]]:
        """T - T† on qubits and its Pauli-evolution gates, bound to
        param_name in canonical term order.  T is one factor product,
        normal-ordered for fermionic kinds (one term, since no orbital
        is named twice), so it maps in one pass through its ladder
        template; T, each term of its image and each 2i Im c are pruned
        at COEFF_TOLERANCE, as jordan_wigner and QubitOperator prune.
        Both are made once per qubit count and kept on the generator,
        never changed, so every build, pool and screening circuit made
        from it shares one mapping."""
        mapped = self._mapped.get(n_qubits)
        if mapped is not None:
            return mapped
        factors = tuple((v, True) for v in self.virtual)
        factors += tuple((o, False) for o in reversed(self.occupied))
        image: dict = {}
        if self.kind in FERMIONIC_KINDS:
            (key, coeff), = _normal_order_term(factors, self.prefactor)
            if abs(coeff) > COEFF_TOLERANCE:
                _check_modes(max((mode for mode, _ in key), default=-1),
                             n_qubits)
                _add_ladder_terms(image, key, coeff, True)
        else:
            _add_ladder_terms(image, factors, self.prefactor, False)
        # Pauli strings are Hermitian, so T - T† = sum of (c - c*) P over
        # T's image, with c - c* = 2i Im c exactly; pruned as a difference
        op = _qubit_operator({key: complex(0.0, 2.0 * c.imag)
                              for key, c in image.items()
                              if abs(c) > COEFF_TOLERANCE})
        gates = tuple(
            pauli_evolution(string, self.param_name, op.terms[string].imag)
            for string in sorted(op.terms, key=pauli_sort_key))
        mapped = self._mapped[n_qubits] = (op, gates)
        return mapped


@dataclass(frozen=True)
class InitPolicy:
    """zeros, or uniform(low, high) sampling per parameter."""

    kind: str  # "zeros" | "uniform"
    low: float = 0.0
    high: float = 0.0

    def draw(self, n_params: int, rng: np.random.Generator) -> np.ndarray:
        """Starting angles, drawn in parameter order in one call: the
        values one scalar draw per parameter gives.  `rng` is anything
        with NumPy Generator.uniform's (low, high, size) call, such as
        the driver's seeds.SeedStream."""
        if self.kind == "zeros":
            return np.zeros(n_params)
        return rng.uniform(self.low, self.high, n_params)


ZEROS = InitPolicy("zeros")
UNIFORM_0_2PI = InitPolicy("uniform", 0.0, 2.0 * np.pi)
UNIFORM_PM_PI = InitPolicy("uniform", -np.pi, np.pi)


@dataclass
class AnsatzBuild:
    """A compiled circuit and how run_vqe starts it; nothing else."""

    circuit: ParamCircuit
    init_policy: InitPolicy
    restarts: int = 1

    @property
    def n_params(self) -> int:
        return self.circuit.n_params


def trotterize(gens, n_qubits: int) -> ParamCircuit:
    """One first-order Trotter step: every generator's gates, in order."""
    return ParamCircuit(n_qubits, [gate for gen in gens
                                   for gate in gen.gates(n_qubits)])
