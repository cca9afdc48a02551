"""Dense statevector simulation: gates, Pauli evolutions, expectations,
and analytic parameter gradients.

Bit convention: qubit i is bit i of the basis index (qubit 0 least
significant).  Rotation conventions: RY(t) = exp(-i t Y / 2), likewise RX
and RZ; PauliEvolution applies exp(+i t P).  A StateVector is exclusively
owned while gates mutate it; all public entry points hand out fresh copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import PauliString, QubitOperator

IMAG_RESIDUE_TOLERANCE = 1e-9

PARAMETERIZED_KINDS = frozenset(
    {"RX", "RY", "RZ", "PauliEvolution", "GivensRotation"})
FIXED_KINDS = frozenset({"CNOT", "SqrtISwap", "X", "H"})

_SQRT_ISWAP = np.array([
    [1, 0, 0, 0],
    [0, 1 / math.sqrt(2), 1j / math.sqrt(2), 0],
    [0, 1j / math.sqrt(2), 1 / math.sqrt(2), 0],
    [0, 0, 0, 1],
], dtype=complex)
_CNOT = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass
class StateVector:
    """Normalized amplitudes over 2**n_qubits computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Gate:
    """One circuit element; parameterized kinds carry exactly one binding."""

    kind: str
    targets: tuple[int, ...]
    generator: PauliString | None = None
    param: tuple[str, float] | None = None  # (name, prefactor)
    angle: float | None = None              # fixed angle, radians

    def __post_init__(self):
        if self.kind in PARAMETERIZED_KINDS:
            if (self.param is None) == (self.angle is None):
                raise ValueError(
                    f"{self.kind} needs exactly one of param binding / angle")
        elif self.kind in FIXED_KINDS:
            if self.param is not None or self.angle is not None:
                raise ValueError(f"{self.kind} takes no binding")
        else:
            raise ValueError(f"unknown gate kind {self.kind}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct")
        if self.kind == "PauliEvolution":
            if self.generator is None:
                raise ValueError("PauliEvolution needs a generator string")
            if self.targets != self.generator.qubits:
                raise ValueError("PauliEvolution targets must match the "
                                 "generator's qubits")

    def resolve_angle(self, values: dict[str, float]) -> float:
        if self.angle is not None:
            return self.angle
        name, prefactor = self.param
        if name not in values:
            raise ValueError(f"missing parameter value for {name!r}")
        return prefactor * values[name]


def rx(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RX", (q,), param=(name, prefactor))


def ry(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RY", (q,), param=(name, prefactor))


def rz(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RZ", (q,), param=(name, prefactor))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def pauli_evolution(string: PauliString, name: str,
                    prefactor: float = 1.0) -> Gate:
    return Gate("PauliEvolution", string.qubits, generator=string,
                param=(name, prefactor))


@dataclass
class ParamCircuit:
    """Ordered gate list over named parameters; treat as immutable."""

    n_qubits: int
    gates: tuple[Gate, ...]
    param_names: tuple[str, ...]

    def __post_init__(self):
        self.gates = tuple(self.gates)
        names = set(self.param_names)
        if len(names) != len(self.param_names):
            raise ValueError("duplicate parameter names")
        bound = set()
        for gate in self.gates:
            if any(t >= self.n_qubits or t < 0 for t in gate.targets):
                raise ValueError(f"gate target out of range: {gate}")
            if gate.param is not None:
                if gate.param[0] not in names:
                    raise ValueError(f"unlisted parameter {gate.param[0]!r}")
                bound.add(gate.param[0])
        unbound = names - bound
        if unbound:
            raise ValueError(f"parameters never bound: {sorted(unbound)}")

    @classmethod
    def from_gates(cls, n_qubits: int, gates) -> "ParamCircuit":
        names, seen = [], set()
        for gate in gates:
            if gate.param is not None and gate.param[0] not in seen:
                seen.add(gate.param[0])
                names.append(gate.param[0])
        return cls(n_qubits, tuple(gates), tuple(names))

    @property
    def n_params(self) -> int:
        return len(self.param_names)


# ---------------------------------------------------------------------------
# Kernels (in place on a raw amplitude array)
# ---------------------------------------------------------------------------

_INDEX_CACHE: dict[int, np.ndarray] = {}


def _indices(n_amps: int) -> np.ndarray:
    idx = _INDEX_CACHE.get(n_amps)
    if idx is None:
        idx = np.arange(n_amps, dtype=np.int64)
        _INDEX_CACHE[n_amps] = idx
    return idx


def _apply_single(amps: np.ndarray, qubit: int, u: np.ndarray) -> None:
    view = amps.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * lo + u[0, 1] * hi
    view[:, 1, :] = u[1, 0] * lo + u[1, 1] * hi


def _apply_two(amps: np.ndarray, n_qubits: int, qa: int, qb: int,
               u: np.ndarray) -> None:
    """Apply a 4x4 matrix in the basis |b_a b_b> (b_a the high bit)."""
    tensor = amps.reshape((2,) * n_qubits)
    moved = np.moveaxis(tensor, (n_qubits - 1 - qa, n_qubits - 1 - qb), (0, 1))
    flat = moved.reshape(4, -1)
    moved[...] = (u @ flat).reshape(moved.shape)


def pauli_masks(string: PauliString) -> tuple[int, int, int]:
    """Bit masks (x, y, z) of the qubits the string acts on with each axis."""
    x = y = z = 0
    for qubit, axis in string.ops:
        bit = 1 << qubit
        if axis == "X":
            x |= bit
        elif axis == "Y":
            y |= bit
        else:
            z |= bit
    return x, y, z


def apply_pauli_string(string: PauliString, amps: np.ndarray) -> np.ndarray:
    """Return P|amps> (new array)."""
    x, y, z = pauli_masks(string)
    flip = x | y
    yz = y | z
    idx = _indices(len(amps))
    src = idx ^ flip if flip else idx
    if yz:
        sign = 1.0 - 2.0 * (np.bitwise_count(src & yz) & 1)
    else:
        sign = 1.0
    phase = (1j) ** (string.y_count() % 4)
    out = amps[src] if flip else amps.copy()
    out *= phase * sign
    return out


def apply_qubit_operator(op: QubitOperator, amps: np.ndarray) -> np.ndarray:
    """Return (sum_i c_i P_i)|amps>."""
    out = np.zeros_like(amps)
    for string, coeff in op.terms.items():
        out += coeff * apply_pauli_string(string, amps)
    return out


def _evolve_pauli_inplace(amps: np.ndarray, string: PauliString,
                          theta: float) -> None:
    # exp(i t P)|s> = cos t |s> + i sin t P|s>, valid since P^2 = I
    rotated = apply_pauli_string(string, amps)
    amps *= math.cos(theta)
    amps += 1j * math.sin(theta) * rotated


def _givens_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([
        [1, 0, 0, 0],
        [0, c, -s, 0],
        [0, s, c, 0],
        [0, 0, 0, 1],
    ], dtype=complex)


def _rotation_matrix(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])  # RZ


def _apply_gate(amps: np.ndarray, n_qubits: int, gate: Gate,
                theta: float | None, inverse: bool = False) -> None:
    kind = gate.kind
    if kind == "PauliEvolution":
        _evolve_pauli_inplace(amps, gate.generator, -theta if inverse else theta)
    elif kind in ("RX", "RY", "RZ"):
        _apply_single(amps, gate.targets[0],
                      _rotation_matrix(kind, -theta if inverse else theta))
    elif kind == "GivensRotation":
        _apply_two(amps, n_qubits, *gate.targets,
                   _givens_matrix(-theta if inverse else theta))
    elif kind == "CNOT":
        _apply_two(amps, n_qubits, *gate.targets, _CNOT)
    elif kind == "SqrtISwap":
        u = _SQRT_ISWAP.conj().T if inverse else _SQRT_ISWAP
        _apply_two(amps, n_qubits, *gate.targets, u)
    elif kind == "X":
        _apply_single(amps, gate.targets[0], _X)
    elif kind == "H":
        _apply_single(amps, gate.targets[0], _H)
    else:  # pragma: no cover - Gate.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown gate kind {kind}")


def _apply_generator(amps: np.ndarray, n_qubits: int, gate: Gate) -> np.ndarray:
    """Return G|amps> where dU/dtheta = G U for the gate's own angle."""
    kind = gate.kind
    if kind == "PauliEvolution":
        return 1j * apply_pauli_string(gate.generator, amps)
    if kind in ("RX", "RY", "RZ"):
        axis = {"RX": "X", "RY": "Y", "RZ": "Z"}[kind]
        string = PauliString(((gate.targets[0], axis),))
        return -0.5j * apply_pauli_string(string, amps)
    if kind == "GivensRotation":
        out = amps.copy()
        jgen = np.array([
            [0, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ], dtype=complex)
        _apply_two(out, n_qubits, *gate.targets, jgen)
        return out
    raise ValueError(f"gate kind {kind} has no angle")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def apply_circuit(circuit: ParamCircuit, values: dict[str, float],
                  initial: int = 0) -> StateVector:
    """Run the circuit on a computational basis state."""
    state = StateVector.basis_state(circuit.n_qubits, initial)
    amps = state.amplitudes
    for gate in circuit.gates:
        theta = gate.resolve_angle(values) if (
            gate.kind in PARAMETERIZED_KINDS) else None
        _apply_gate(amps, circuit.n_qubits, gate, theta)
    return state


def apply_pauli_evolution(state: StateVector, string: PauliString,
                          theta: float) -> StateVector:
    """exp(i theta P) applied to a copy of the state."""
    out = state.copy()
    _evolve_pauli_inplace(out.amplitudes, string, theta)
    return out


def apply_gates(state: StateVector, gates, values: dict[str, float]) -> StateVector:
    """Run a gate sequence on a copy of an already-prepared state."""
    out = state.copy()
    for gate in gates:
        theta = gate.resolve_angle(values) if (
            gate.kind in PARAMETERIZED_KINDS) else None
        _apply_gate(out.amplitudes, out.n_qubits, gate, theta)
    return out


def expectation(h: QubitOperator, state: StateVector) -> float:
    """<s|h|s>; raises if the imaginary residue betrays a non-Hermitian h."""
    value = complex(np.vdot(state.amplitudes,
                            apply_qubit_operator(h, state.amplitudes)))
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    return value.real


def adjoint_gradient(circuit: ParamCircuit, h: QubitOperator,
                     values: dict[str, float],
                     initial: int = 0) -> tuple[float, dict[str, float]]:
    """Energy and dE/d(parameter) via one forward and one reverse sweep."""
    n = circuit.n_qubits
    psi = apply_circuit(circuit, values, initial).amplitudes
    lam = apply_qubit_operator(h, psi)
    value = complex(np.vdot(psi, lam))
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    grad = {name: 0.0 for name in circuit.param_names}
    for gate in reversed(circuit.gates):
        theta = gate.resolve_angle(values) if (
            gate.kind in PARAMETERIZED_KINDS) else None
        if gate.param is not None:
            name, prefactor = gate.param
            moved = _apply_generator(psi, n, gate)
            grad[name] += prefactor * 2.0 * float(np.real(np.vdot(lam, moved)))
        _apply_gate(psi, n, gate, theta, inverse=True)
        _apply_gate(lam, n, gate, theta, inverse=True)
    return value.real, grad


def parameter_shift_gradient(circuit: ParamCircuit, h: QubitOperator,
                             values: dict[str, float], initial: int,
                             name: str) -> float:
    """E(t + pi/4) - E(t - pi/4), exact for a single exp(i t P) binding."""
    bound = [g for g in circuit.gates
             if g.param is not None and g.param[0] == name]
    if (len(bound) != 1 or bound[0].kind != "PauliEvolution"
            or abs(bound[0].param[1]) != 1.0):
        raise ValueError(
            f"parameter {name!r} is not bound to a single unit-prefactor "
            "Pauli evolution")
    shifted = dict(values)
    shifted[name] = values[name] + math.pi / 4
    plus = expectation(h, apply_circuit(circuit, shifted, initial))
    shifted[name] = values[name] - math.pi / 4
    minus = expectation(h, apply_circuit(circuit, shifted, initial))
    return plus - minus


def commutator_gradient(h: QubitOperator, taus, state: StateVector
                        ) -> np.ndarray:
    """Slopes 2 Re<h psi|tau psi> at theta=0 of appending exp(theta tau),
    one per anti-Hermitian generator tau; h|psi> is applied once.

    A Pauli-string gate exp(i theta P) is the generator tau = iP.
    """
    h_psi = apply_qubit_operator(h, state.amplitudes)
    return np.array([2.0 * np.vdot(h_psi, apply_qubit_operator(
        tau, state.amplitudes)).real for tau in taus])


def number_expectation(state: StateVector) -> float:
    """<N> for N = sum_i (1 - Z_i)/2, cheap diagonal evaluation."""
    idx = _indices(len(state.amplitudes))
    weights = np.bitwise_count(idx).astype(float)
    return float(np.real(np.sum(np.abs(state.amplitudes) ** 2 * weights)))
