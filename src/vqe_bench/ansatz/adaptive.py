"""Iterative ansatz construction: gradient-screened operator pools
(fermionic and Pauli-string flavors) and the entangler-ranking
mean-field-plus-correlators scheme."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..driver import OptimizerConfig, circuit_objective, minimize_bfgs
from ..operators import (
    PauliString,
    QubitOperator,
    serialize_pauli_string,
)
from ..simulator import (
    Gate,
    ParamCircuit,
    apply_circuit,
    apply_pauli_evolution,
    commutator_gradient,
    expectation,
    pauli_evolution,
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
        op = QubitOperator.zero()
        for gen in self.generators:
            op = op + gen.antihermitian_operator(n_qubits)
        return op


@dataclass(frozen=True)
class OperatorPool:
    kind: str  # "fermionic-sd" | "qubit-pauli" | "qcc-entangler"
    entries: tuple[PoolEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class AdaptiveIteration:
    chosen_label: str
    gradient_norm: float
    energy_after_reopt: float
    n_params: int
    wall_time: float


@dataclass
class AdaptiveTrace:
    iterations: list[AdaptiveIteration]
    converged: bool
    final_energy: float

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_energy": self.final_energy,
            "iterations": [
                {"chosen_label": it.chosen_label,
                 "gradient_norm": it.gradient_norm,
                 "energy_after_reopt": it.energy_after_reopt,
                 "n_params": it.n_params,
                 "wall_time": it.wall_time}
                for it in self.iterations],
        }


def build_fermionic_pool(n_qubits: int, n_electrons: int) -> OperatorPool:
    """Spin-adapted single/double generator groups, one entry per parameter."""
    build = build_uccsd_singlet(n_qubits, n_electrons)
    grouped: dict[str, list[ExcitationGenerator]] = {}
    order = []
    for gen in build.generators:
        if gen.param_name not in grouped:
            grouped[gen.param_name] = []
            order.append(gen.param_name)
        grouped[gen.param_name].append(gen)
    entries = tuple(PoolEntry(label=name, generators=tuple(grouped[name]))
                    for name in order)
    return OperatorPool("fermionic-sd", entries)


def build_qubit_pool(fermionic: OperatorPool,
                     n_qubits: int) -> OperatorPool:
    """Split the JW images into individual odd-Y strings, Z chains removed."""
    if fermionic.kind != "fermionic-sd":
        raise ValueError("qubit pool is derived from a fermionic-sd pool")
    seen = set()
    entries = []
    for entry in fermionic.entries:
        op = entry.antihermitian_operator(n_qubits)
        for string in sorted(op.terms, key=serialize_pauli_string):
            if string.y_count() % 2 == 0:
                continue
            stripped = string.strip_z()
            if stripped.ops and stripped not in seen:
                seen.add(stripped)
                entries.append(PoolEntry(
                    label=serialize_pauli_string(stripped), string=stripped))
    return OperatorPool("qubit-pauli", tuple(entries))


def _pick(scores: np.ndarray) -> int:
    """Index of the largest score; scores within TIE_TOLERANCE of it tie and
    go to the lowest index, so rounding cannot move a pick."""
    return int(np.flatnonzero(scores >= scores.max() - TIE_TOLERANCE)[0])


def _adapt(h, n_qubits, pool, epsilon, initial_state, max_iters, cfg
           ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """Both flavours' growth loop: append the entry of largest commutator
    gradient, re-optimize all parameters with adjoint gradients."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cfg = cfg or OptimizerConfig()
    taus = [entry.antihermitian_operator(n_qubits) for entry in pool.entries]
    chosen: list[ExcitationGenerator] = []
    gates: list[Gate] = []
    values: dict[str, float] = {}
    trace = AdaptiveTrace([], converged=False, final_energy=math.nan)
    circuit = ParamCircuit.from_gates(n_qubits, gates)
    state = apply_circuit(circuit, values, initial_state)
    energy = expectation(h, state)
    for iteration in range(max_iters):
        tick = time.perf_counter()
        grads = commutator_gradient(h, taus, state)
        norm = float(np.linalg.norm(grads))
        if norm < epsilon:
            trace.converged = True
            break
        entry = pool.entries[_pick(np.abs(grads))]
        name = f"adapt{iteration}"
        if entry.string is not None:
            gates.append(pauli_evolution(entry.string, name))
        for gen in entry.generators:
            chosen.append(replace(gen, param_name=name))
            gates.extend(generator_gates(chosen[-1], n_qubits))
        values[name] = 0.0
        circuit = ParamCircuit.from_gates(n_qubits, gates)
        outcome = minimize_bfgs(
            circuit_objective(circuit, h, initial_state),
            np.array([values[n] for n in circuit.param_names]), cfg,
            param_names=circuit.param_names)
        values = outcome.parameters
        energy = outcome.energy
        state = apply_circuit(circuit, values, initial_state)
        trace.iterations.append(AdaptiveIteration(
            chosen_label=entry.label, gradient_norm=norm,
            energy_after_reopt=energy, n_params=circuit.n_params,
            wall_time=time.perf_counter() - tick))
    trace.final_energy = energy
    build = AnsatzBuild(circuit, tuple(chosen),
                        particle_conserving=pool.kind == "fermionic-sd",
                        init_policy=ZEROS, n_params=circuit.n_params)
    return build, trace


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
    return _adapt(h, n_qubits, pool, epsilon, initial_state, max_iters, cfg)


def qubit_adapt_vqe(h: QubitOperator, n_qubits: int, pool: OperatorPool,
                    epsilon: float = DEFAULT_EPSILON, initial_state: int = 0,
                    max_iters: int = 100,
                    cfg: OptimizerConfig | None = None
                    ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """qubit-ADAPT-VQE: the ADAPT loop over a qubit-pauli pool, one
    exp(i theta P) gate per pick, screened by tau = iP."""
    if pool.kind != "qubit-pauli":
        raise ValueError("qubit_adapt_vqe expects a qubit-pauli pool")
    return _adapt(h, n_qubits, pool, epsilon, initial_state, max_iters, cfg)


def _rank_entangler(h, state, string, base) -> tuple[float, float]:
    """Exact min over tau of the appended-evolution energy, as
    (delta_e, tau*); base is the energy of state itself.

    Since P^2 = I, E(tau) = a + b cos 2tau + c sin 2tau, so E(0) and
    E(+-pi/4) fix the curve and its minimum a - hypot(b, c).
    """
    plus = expectation(h, apply_pauli_evolution(state, string, math.pi / 4))
    minus = expectation(h, apply_pauli_evolution(state, string, -math.pi / 4))
    a = 0.5 * (plus + minus)
    b = base - a
    c = 0.5 * (plus - minus)
    return -math.hypot(b, c) - b, 0.5 * math.atan2(-c, -b)


def qcc_optimize(h: QubitOperator, n_qubits: int, pool: OperatorPool,
                 chem_tol: float = 0.0016, max_entanglers: int = 20,
                 initial_state: int = 0,
                 reference_energy: float | None = None,
                 improvement_tol: float = 1e-6,
                 cfg: OptimizerConfig | None = None
                 ) -> tuple[AnsatzBuild, AdaptiveTrace]:
    """Mean-field Bloch product state plus greedily ranked entanglers.

    Candidates are ranked by their exact 1-D energy gain with everything
    else frozen, read off the closed-form curve a + b cos 2tau + c sin 2tau
    through E(0) and E(+-pi/4); the winner joins the circuit at its
    optimal angle and all parameters re-optimize.
    Stops when the best candidate gains less than improvement_tol, when a
    supplied reference is matched to chem_tol, or at max_entanglers.
    """
    if len(pool.entries) == 0:
        raise ValueError("empty entangler pool")
    cfg = cfg or OptimizerConfig()
    gates: list[Gate] = []
    values: dict[str, float] = {}
    # the Bloch product state is built from the vacuum; initial_state only
    # seeds the mean-field angles to the matching determinant
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param=(f"mf_t{q}", 1.0)))
        gates.append(Gate("RZ", (q,), param=(f"mf_p{q}", 1.0)))
        values[f"mf_t{q}"] = math.pi if (initial_state >> q) & 1 else 0.0
        values[f"mf_p{q}"] = 0.0
    circuit = ParamCircuit.from_gates(n_qubits, gates)
    trace = AdaptiveTrace([], converged=False, final_energy=math.nan)

    def reoptimize():
        outcome = minimize_bfgs(
            circuit_objective(circuit, h, 0),
            np.array([values[n] for n in circuit.param_names]), cfg,
            param_names=circuit.param_names)
        return outcome.parameters, outcome.energy

    values, energy = reoptimize()  # mean-field alone first
    for iteration in range(max_entanglers):
        tick = time.perf_counter()
        state = apply_circuit(circuit, values, 0)
        base = expectation(h, state)
        rankings = [_rank_entangler(h, state, entry.string, base)
                    for entry in pool.entries]
        best = _pick(-np.array([r[0] for r in rankings]))
        delta, tau = rankings[best]
        if delta > -improvement_tol:
            trace.converged = True
            break
        name = f"ent{iteration}"
        gates.append(pauli_evolution(pool.entries[best].string, name))
        values[name] = tau
        circuit = ParamCircuit.from_gates(n_qubits, gates)
        values, energy = reoptimize()
        trace.iterations.append(AdaptiveIteration(
            chosen_label=pool.entries[best].label, gradient_norm=abs(delta),
            energy_after_reopt=energy, n_params=circuit.n_params,
            wall_time=time.perf_counter() - tick))
        if (reference_energy is not None
                and energy - reference_energy <= chem_tol):
            trace.converged = True
            break
    trace.final_energy = energy
    build = AnsatzBuild(circuit, (), particle_conserving=False,
                        init_policy=ZEROS, n_params=circuit.n_params)
    return build, trace
