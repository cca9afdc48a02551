"""Iterative ansatz construction in one growth loop: ADAPT and
qubit-ADAPT (fermionic and Pauli-string pools ranked by commutator
gradient) and QCC (a mean-field product state plus Pauli-string
entanglers ranked by exact 1-D energy gain, read off the same screening
pass and one pass of term expectations).

Each piece of work is done once.  A pool's generators keep their qubit
images and gates, mapped once (ExcitationGenerator), so the pools, the
screening circuit and the picks rename those gates and map nothing
again; the loop grows its circuit with ParamCircuit.extended, so each
iteration compiles only the picked gates onto the plans it already has."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..driver import (
    CHEMICAL_ACCURACY,
    OptimizerConfig,
    circuit_objective,
    minimize_bfgs,
)
from ..operators import PauliString, QubitOperator, serialize_pauli_string
from ..simulator import (
    Gate,
    ParamCircuit,
    anticommuting,
    commutator_gradient,
    pauli_evolution,
    term_expectations,
)
from .core import ZEROS, AnsatzBuild, ExcitationGenerator, generator_gates
from .fixed import build_uccsd_singlet

DEFAULT_EPSILON = 1e-2
TIE_TOLERANCE = 1e-10  # score gap below which two pool entries tie


@dataclass(frozen=True)
class PoolEntry:
    """One screening candidate: a generator group or a bare Pauli string."""

    label: str
    generators: tuple[ExcitationGenerator, ...] = ()
    string: PauliString | None = None

    def antihermitian_operator(self, n_qubits: int) -> QubitOperator:
        """Anti-Hermitian generator tau of the gate exp(theta tau): iP for a
        string P, else the sum of the generators' qubit images."""
        if self.string is not None:
            return QubitOperator.from_term(self.string, 1j)
        return QubitOperator.summed(
            pair for gen in self.generators
            for pair in gen.antihermitian_operator(n_qubits))

    def gates(self, n_qubits: int, name: str) -> list[Gate]:
        """The entry's gates, each bound to parameter `name` with its own
        prefactor: exp(i theta P) for a string, then the generators' gates,
        renamed from the ones each generator maps once."""
        gates = ([] if self.string is None
                 else [pauli_evolution(self.string, name)])
        gates.extend(gate.renamed(name) for gen in self.generators
                     for gate in generator_gates(gen, n_qubits))
        return gates


@dataclass(frozen=True)
class OperatorPool:
    kind: str  # "fermionic-sd" | "qubit-pauli"
    entries: tuple[PoolEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def candidate_circuit(self, n_qubits: int) -> ParamCircuit:
        """The pool as one circuit, entry k's gates bound to parameter "k"."""
        return ParamCircuit(n_qubits, [
            gate for k, entry in enumerate(self.entries)
            for gate in entry.gates(n_qubits, str(k))])


@dataclass
class AdaptiveIteration:
    chosen_label: str
    gradient_norm: float
    energy_after_reopt: float
    n_params: int
    wall_time: float


@dataclass
class AdaptiveTrace:
    converged: bool
    final_energy: float
    iterations: list[AdaptiveIteration]

    def to_dict(self) -> dict:
        return asdict(self)


def build_fermionic_pool(n_qubits: int, n_electrons: int) -> OperatorPool:
    """Spin-adapted single/double generator groups, one entry per parameter."""
    grouped: dict[str, list[ExcitationGenerator]] = {}
    for gen in build_uccsd_singlet(n_qubits, n_electrons).generators:
        grouped.setdefault(gen.param_name, []).append(gen)
    return OperatorPool("fermionic-sd", tuple(
        PoolEntry(label=name, generators=tuple(gens))
        for name, gens in grouped.items()))


def build_qubit_pool(fermionic: OperatorPool,
                     n_qubits: int) -> OperatorPool:
    """Split the JW images into individual odd-Y strings, Z chains removed."""
    if fermionic.kind != "fermionic-sd":
        raise ValueError("qubit pool is derived from a fermionic-sd pool")
    stripped = dict.fromkeys(  # first occurrences, in order
        string.strip_z() for entry in fermionic.entries
        for string in sorted(entry.antihermitian_operator(n_qubits).terms,
                             key=serialize_pauli_string)
        if string.y_count() % 2)
    return OperatorPool("qubit-pauli", tuple(
        PoolEntry(label=serialize_pauli_string(string), string=string)
        for string in stripped if string.ops))


def _pick(scores: np.ndarray) -> int:
    """Index of the largest score; scores within TIE_TOLERANCE of it tie and
    go to the lowest index, so rounding cannot move a pick."""
    return int(np.flatnonzero(scores >= scores.max() - TIE_TOLERANCE)[0])


def _reoptimize(circuit, h, initial, values, cfg):
    return minimize_bfgs(circuit_objective(circuit, h, initial), values, cfg)


def _adapt(h, n_qubits, pool, rank, name, initial, max_iters, cfg,
           prefix=(), start=(), reached=None
           ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """The growth loop, from the gates of `prefix` with their parameters
    optimized from the angles `start`.  Each iteration screens the pool,
    compiled once as a circuit, in one commutator_gradient pass;
    rank(circuit, values, initial, slopes), one slope per entry (0.0 if
    it has no gates), gives None to stop or (pick, size, angle).  The pick's
    gates join at that angle under parameter f"{name}{iteration}", the
    circuit's last, through circuit.extended, so the longer circuit's
    plans start from the steps already compiled; everything re-optimizes
    with adjoint gradients, and reached(energy), if given, may stop it."""
    if max_iters < 0:
        raise ValueError(f"iteration count {max_iters} is negative")
    cfg = cfg or OptimizerConfig()
    screen = pool.candidate_circuit(n_qubits)
    entries = [int(k) for k in screen.param_names]  # entries with gates
    chosen: list[ExcitationGenerator] = []
    values = np.array(start, dtype=float)
    trace = AdaptiveTrace(converged=False, final_energy=math.nan,
                          iterations=[])
    circuit = ParamCircuit(n_qubits, prefix)
    if circuit.n_params:  # QCC's mean field, optimized alone first
        values = _reoptimize(circuit, h, initial, values, cfg).parameters
    tick = time.perf_counter()  # the first screening also gives E(start)
    energy, slopes = commutator_gradient(circuit, h, values, initial, screen)
    for iteration in range(max_iters):
        if iteration:
            tick = time.perf_counter()
            slopes = commutator_gradient(circuit, h, values, initial,
                                         screen)[1]
        scores = np.zeros(len(pool))
        scores[entries] = slopes
        ranked = rank(circuit, values, initial, scores)
        if ranked is None:
            trace.converged = True
            break
        pick, size, angle = ranked
        entry = pool.entries[pick]
        param = f"{name}{iteration}"
        chosen.extend(replace(gen, param_name=param)
                      for gen in entry.generators)
        gates = entry.gates(n_qubits, param)
        if gates:  # its parameter is the circuit's last
            values = np.append(values, angle)
        circuit = circuit.extended(gates)
        outcome = _reoptimize(circuit, h, initial, values, cfg)
        values, energy = outcome.parameters, outcome.energy
        trace.iterations.append(AdaptiveIteration(
            chosen_label=entry.label, gradient_norm=size,
            energy_after_reopt=energy, n_params=circuit.n_params,
            wall_time=time.perf_counter() - tick))
        if reached is not None and reached(energy):
            trace.converged = True
            break
    trace.final_energy = energy
    return AnsatzBuild(circuit, tuple(chosen),
                       particle_conserving=pool.kind == "fermionic-sd",
                       init_policy=ZEROS), trace


def _steepest(epsilon: float):
    """ADAPT's rule: the largest |slope|, at zero, until the norm of the
    slopes falls below epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def rank(circuit, values, initial, slopes):
        norm = float(np.linalg.norm(slopes))
        return None if norm < epsilon else (_pick(np.abs(slopes)), norm, 0.0)
    return rank


def adapt_vqe(h: QubitOperator, n_qubits: int, pool: OperatorPool,
              epsilon: float = DEFAULT_EPSILON, initial_state: int = 0,
              max_iters: int = 100,
              cfg: OptimizerConfig | None = None
              ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """ADAPT-VQE over a fermionic-sd pool: append the generator group of
    largest commutator gradient and re-optimize everything, until the
    screening gradient norm falls below epsilon."""
    if pool.kind != "fermionic-sd":
        raise ValueError("adapt_vqe expects a fermionic-sd pool")
    return _adapt(h, n_qubits, pool, _steepest(epsilon), "adapt",
                  initial_state, max_iters, cfg)


def qubit_adapt_vqe(h: QubitOperator, n_qubits: int, pool: OperatorPool,
                    epsilon: float = DEFAULT_EPSILON, initial_state: int = 0,
                    max_iters: int = 100,
                    cfg: OptimizerConfig | None = None
                    ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """qubit-ADAPT-VQE: the ADAPT loop over a qubit-pauli pool, one
    exp(i theta P) gate per pick, screened by tau = iP."""
    if pool.kind != "qubit-pauli":
        raise ValueError("qubit_adapt_vqe expects a qubit-pauli pool")
    return _adapt(h, n_qubits, pool, _steepest(epsilon), "adapt",
                  initial_state, max_iters, cfg)


def _entangler_curves(h, anticommutes, circuit, values, initial, slopes
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(b, c) per pool string P, for E(tau) = <H_c> + b cos 2tau +
    c sin 2tau with exp(i tau P) appended: b = <H_a> over the terms of h
    that anticommute with P (P's row of `anticommutes`), c half P's
    screening slope."""
    return (anticommutes @ term_expectations(circuit, h, values, initial),
            0.5 * slopes)


def qcc_optimize(h: QubitOperator, n_qubits: int, pool: OperatorPool,
                 chem_tol: float = CHEMICAL_ACCURACY, max_entanglers: int = 20,
                 initial_state: int = 0,
                 reference_energy: float | None = None,
                 improvement_tol: float = 1e-6,
                 cfg: OptimizerConfig | None = None
                 ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """Mean-field Bloch product state plus greedily ranked entanglers.

    ADAPT's growth loop from the optimized mean field.  Each string P is
    ranked by its exact 1-D energy gain with everything else frozen, read
    off _entangler_curves: hypot(b, c) + b at tau* = atan2(-c, -b) / 2.
    The best joins at tau* and all parameters re-optimize; the trace's
    gradient_norm holds that gain |Delta E|.  Stops when the best gain is
    below improvement_tol, when a supplied reference is matched to
    chem_tol, or at max_entanglers.
    """
    if len(pool.entries) == 0:
        raise ValueError("empty entangler pool")
    if pool.kind != "qubit-pauli":
        raise ValueError("qcc_optimize expects a qubit-pauli pool")
    # the Bloch product state is built from the vacuum; initial_state only
    # seeds the mean-field angles to the matching determinant
    gates, values = [], []
    for q in range(n_qubits):
        gates += [Gate("RY", (q,), param=(f"mf_t{q}", 1.0)),
                  Gate("RZ", (q,), param=(f"mf_p{q}", 1.0))]
        values += [math.pi if (initial_state >> q) & 1 else 0.0, 0.0]
    anticommutes = anticommuting([entry.string for entry in pool.entries],
                                 h.terms)

    def rank(circuit, values, initial, slopes):
        b, c = _entangler_curves(h, anticommutes, circuit, values, initial,
                                 slopes)
        gains = np.hypot(b, c) + b
        best = _pick(gains)
        return None if gains[best] < improvement_tol else (
            best, float(gains[best]), 0.5 * math.atan2(-c[best], -b[best]))

    return _adapt(h, n_qubits, pool, rank, "ent", 0, max_entanglers, cfg,
                  gates, values, None if reference_energy is None
                  else lambda energy: energy - reference_energy <= chem_tol)
