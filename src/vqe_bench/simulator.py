"""Dense statevector simulation: gates, Pauli evolutions, expectations,
and analytic parameter gradients.

Bit convention: qubit i is bit i of the basis index (qubit 0 least
significant).  Rotation conventions: RY(t) = exp(-i t Y / 2), likewise RX
and RZ; PauliEvolution applies exp(+i t P).  A StateVector is exclusively
owned while gates mutate it; all public entry points hand out fresh copies.

A Pauli sum acts through one form: its sparse matrix over a basis
(pauli_sum_matrix), compiled once per operator and basis (compiled_sum).
A circuit runs through one form too: a plan compiled once per circuit and
initial (N, 2Sz) sector, which one kernel runs forward, in reverse and
as generators for the adjoint gradient.  Every parameterized gate is a
step exp(angle * M) with M|c> = w_r |r>, r = c ^ flip, and consecutive
gates of one parameter, one flip mask and pairwise commuting strings
(the 2 or 8 evolutions of one excitation) fuse into one step; fixed
gates stay full-space matrices.  When every step maps the initial
state's sector into itself the plan runs over that sector alone, with
each step's index pairs and weights stored, and h acts through its
matrix over the sector, exact since the state never leaves it.
Otherwise the plan runs over all 2**n states and its steps act through
the Pauli-string kernel per application, so it holds no 2**n arrays.
Screening pools are circuits too; only h is ever compiled as a matrix.
Its terms' expectations are read off the state itself, a flip mask at a
time (term_expectations).

The kernel takes a leading batch axis: batch_adjoint_gradient runs one
forward and one reverse sweep over an (R, D) array of states, one row per
row of an (R, n_params) array of parameter values, with h applied as one
sparse product and the row reductions as stacked matmuls.  Every
operation acts row by row with the arithmetic of the one-vector path, so
each row gets the bits adjoint_gradient gives it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .operators import PauliString, QubitOperator

IMAG_RESIDUE_TOLERANCE = 1e-9
# 20 bytes per compiled entry (complex128, int32 column): 168 MB; a 14-qubit
# molecular Hamiltonian with dense integrals needs 2.7M over its full space
MAX_COMPILED_ENTRIES = 1 << 23

PARAMETERIZED_KINDS = frozenset(
    {"RX", "RY", "RZ", "PauliEvolution", "GivensRotation"})
FIXED_KINDS = frozenset({"CNOT", "SqrtISwap", "X", "H"})
_ARITY = {"RX": 1, "RY": 1, "RZ": 1, "X": 1, "H": 1,
          "CNOT": 2, "SqrtISwap": 2, "GivensRotation": 2}
_ALPHA_BITS = int("01" * 32, 2)  # spin orbitals on even qubits are alpha

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
_FIXED_MATRICES = {"CNOT": _CNOT, "SqrtISwap": _SQRT_ISWAP, "X": _X, "H": _H}


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
        arity = _ARITY.get(self.kind)
        if arity is not None and len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got "
                             f"{len(self.targets)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct")
        if self.kind == "PauliEvolution":
            if self.generator is None:
                raise ValueError("PauliEvolution needs a generator string")
            if self.targets != self.generator.qubits:
                raise ValueError("PauliEvolution targets must match the "
                                 "generator's qubits")


def ry(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RY", (q,), param=(name, prefactor))


def pauli_evolution(string: PauliString, name: str,
                    prefactor: float = 1.0) -> Gate:
    return Gate("PauliEvolution", string.qubits, generator=string,
                param=(name, prefactor))


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered gate list over named parameters; immutable, so the plans
    cached on it (one per initial sector) never go stale."""

    n_qubits: int
    gates: tuple[Gate, ...]
    param_names: tuple[str, ...]
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
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
        gates = tuple(gates)
        return cls(n_qubits, gates, _param_names(gates))

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def _param_names(gates) -> tuple[str, ...]:
    """Parameter names in order of first binding."""
    return tuple(dict.fromkeys(
        gate.param[0] for gate in gates if gate.param is not None))


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


def pauli_masks(string: PauliString) -> tuple[int, int, complex]:
    """(flip, yz, phase) with P|s> = phase (-1)^popcount(s & yz) |s ^ flip>:
    the string's x and z masks, and i^(Y count)."""
    flip, yz = string.x, string.z
    return flip, yz, (1j) ** ((flip & yz).bit_count() % 4)


def _parity_signs(states: np.ndarray, yz: int) -> np.ndarray | float:
    """(-1)^popcount(s & yz) for each state s."""
    return 1.0 - 2.0 * (np.bitwise_count(states & yz) & 1) if yz else 1.0


def apply_pauli_string(string: PauliString, amps: np.ndarray) -> np.ndarray:
    """Return P|amps> (new array), over the last axis of a batch too."""
    flip, yz, phase = pauli_masks(string)
    states = _indices(amps.shape[-1])
    src = states ^ flip if flip else states
    out = _take(amps, src) if flip else amps.copy()
    out *= phase * _parity_signs(src, yz)
    return out


def sector_indices(n_qubits: int, n_electrons: int,
                   ms2: int | None = None) -> np.ndarray:
    """Basis indices with the given electron count (and optionally 2*Sz)."""
    indices = np.arange(1 << n_qubits, dtype=np.int64)
    counts = np.bitwise_count(indices).astype(np.int64)  # signed: ms2 < 0
    mask = counts == n_electrons
    if ms2 is not None:
        n_alpha = np.bitwise_count(indices & np.int64(_ALPHA_BITS))
        mask &= (2 * n_alpha - counts) == ms2
    return indices[mask]


def _state_sector(index: int) -> tuple[int, int]:
    """(N, 2Sz) of a basis state: its set bits, alpha ones minus beta ones."""
    index = int(index)
    n = index.bit_count()
    return n, 2 * (index & _ALPHA_BITS).bit_count() - n


def pauli_sum_matrix(op: QubitOperator, n_qubits: int,
                     basis: np.ndarray | None = None) -> scipy.sparse.csr_array:
    """op over a sorted list of basis states (default: all 2**n_qubits) as a
    CSR matrix.  The terms of one flip mask fold into one weight per row r,
    at the column of r ^ flip; zero weights and columns outside the basis
    are dropped.  Past MAX_COMPILED_ENTRIES it raises before allocating."""
    masks: dict[int, list[tuple[int, complex]]] = {}
    for string, coeff in op.terms.items():
        flip, yz, phase = pauli_masks(string)
        if (flip | yz) >> n_qubits:
            raise ValueError(f"{string} acts outside a {n_qubits}-qubit state")
        masks.setdefault(flip, []).append((yz, coeff * phase))
    rows = _indices(1 << n_qubits) if basis is None else np.asarray(basis)
    position = np.full(1 << n_qubits, -1, dtype=np.int32)
    position[rows] = np.arange(len(rows), dtype=np.int32)

    def entries():  # per mask: rows kept, their columns and weights
        for flip, terms in masks.items():
            states = rows ^ flip
            weights = np.zeros(len(rows), dtype=complex)
            for yz, coeff in terms:
                weights += coeff * _parity_signs(states, yz)
            cols = position[states]
            keep = (weights != 0) & (cols >= 0)
            yield keep, cols[keep], weights[keep]

    # count, then fill in place, so the peak stays at the final size
    counts = sum((keep for keep, _, _ in entries()),
                 np.zeros(len(rows), dtype=np.int64))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if indptr[-1] > MAX_COMPILED_ENTRIES:
        raise ValueError(f"{indptr[-1]} entries exceed MAX_COMPILED_ENTRIES")
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1], complex)
    cursor = indptr[:-1].copy()
    for keep, cols, weights in entries():
        indices[cursor[keep]], data[cursor[keep]] = cols, weights
        cursor[keep] += 1
    return scipy.sparse.csr_array((data, indices, indptr.astype(np.int32)),
                                  shape=(len(rows), len(rows)))


def compiled_sum(op: QubitOperator, n_qubits: int,
                 basis: np.ndarray | None = None) -> scipy.sparse.csr_array:
    """pauli_sum_matrix(op, n_qubits, basis), compiled once per (n_qubits,
    basis) and kept on op, whose terms never change."""
    key = (n_qubits, None if basis is None
           else np.asarray(basis, dtype=np.int64).tobytes())
    cache = getattr(op, "_compiled", None)
    if cache is None:
        cache = op._compiled = {}
    matrix = cache.get(key)
    if matrix is None:
        matrix = cache[key] = pauli_sum_matrix(op, n_qubits, basis)
    return matrix


# ---------------------------------------------------------------------------
# Plans: compiled circuits and the one kernel that runs them
# ---------------------------------------------------------------------------


class _Step(NamedTuple):
    """exp(angle * M) for M = sum of coeff * P over `terms`, Pauli strings
    of one flip mask (_flip) that commute pairwise, so M|c> = w_r |r> with
    r = c ^ flip and M anti-Hermitian.  angle is the value of parameter
    number `param`, or `angle` when param is -1.  A fixed gate carries
    `matrix` = (targets, U, U^dagger) instead.  Over a sector, `pairs`
    holds (rows, cols, |w|, w) for the rows with w != 0; a full-space
    step acts through the Pauli-string kernel per application."""

    param: int
    angle: float = 0.0
    terms: tuple[tuple[PauliString, complex], ...] = ()
    matrix: tuple | None = None
    pairs: tuple | None = None


@dataclass(frozen=True)
class _Plan:
    """Steps over a sorted sector basis, or over all 2**n states (None)."""

    n_qubits: int
    steps: tuple[_Step, ...]
    basis: np.ndarray | None = None


def _generator(gate: Gate) -> dict[PauliString, complex]:
    """M as {string: coeff}, the gate being exp(angle * M)."""
    if gate.kind == "PauliEvolution":
        return {gate.generator: 1j}
    if gate.kind == "GivensRotation":
        # M = i (X_a Y_b - Y_a X_b) / 2: |b set> -> |a set> -> -|b set>
        a, b = gate.targets
        return {PauliString.from_mapping({a: "X", b: "Y"}): 0.5j,
                PauliString.from_mapping({a: "Y", b: "X"}): -0.5j}
    # RX, RY, RZ: exp(-i angle P / 2)
    return {PauliString(((gate.targets[0], gate.kind[1]),)): -0.5j}


def _masks(strings) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([s.x for s in strings], dtype=np.int64),
            np.array([s.z for s in strings], dtype=np.int64))


def anticommuting(strings, others) -> np.ndarray:
    """Boolean matrix, True at (i, j) when strings[i] and others[j]
    anticommute: their symplectic product |x_i & z_j| + |z_i & x_j| is
    odd."""
    (x, z), (ox, oz) = _masks(strings), _masks(others)
    return np.bitwise_count((x[:, None] & oz) ^ (z[:, None] & ox)) & 1 == 1


def _commute(strings, others) -> bool:
    """anticommuting's rule for a few strings, in plain integers."""
    return not any(((a.x & b.z) ^ (a.z & b.x)).bit_count() % 2
                   for a in strings for b in others)


def _flip(step: _Step) -> int:
    return step.terms[0][0].x


def _steps(gates, param_names) -> tuple[_Step, ...]:
    """Compile gates into steps, fusing runs of one parameter and one flip
    mask whose strings commute pairwise; identity steps are dropped."""
    index = {name: k for k, name in enumerate(param_names)}
    steps: list[_Step] = []
    for gate in gates:
        if gate.kind in FIXED_KINDS:
            u = _FIXED_MATRICES[gate.kind]
            steps.append(_Step(-1, matrix=(gate.targets, u, u.conj().T)))
            continue
        terms = _generator(gate)
        if gate.param is None:
            steps.append(_Step(-1, gate.angle, tuple(terms.items())))
            continue
        name, prefactor = gate.param
        terms = {string: prefactor * coeff for string, coeff in terms.items()}
        last = steps[-1] if steps else None
        if (last is not None and last.param == index[name]
                and _flip(last) == next(iter(terms)).x
                and _commute(terms, [string for string, _ in last.terms])):
            fused = dict(last.terms)
            for string, coeff in terms.items():
                fused[string] = fused.get(string, 0.0) + coeff
            terms = fused
            steps.pop()
        terms = tuple((string, coeff) for string, coeff in terms.items()
                      if coeff != 0)
        if terms:
            steps.append(_Step(index[name], 0.0, terms))
    return tuple(steps)


def _weights(step: _Step, n_amps: int) -> np.ndarray:
    """M's entry in every row of the full space, (M 1)_r, read off the
    Pauli-string kernel."""
    ones = np.ones(n_amps, dtype=complex)
    return sum(coeff * apply_pauli_string(string, ones)
               for string, coeff in step.terms)


def _restrict(plan: _Plan, sector: tuple[int, int]) -> _Plan:
    """plan over the sector's states when every step maps them into
    themselves (read off the flip masks and weights), else plan unchanged."""
    n = plan.n_qubits
    basis = sector_indices(n, *sector)
    position = np.full(1 << n, -1, dtype=np.int64)
    position[basis] = np.arange(len(basis))
    steps = []
    for step in plan.steps:
        if step.matrix is not None:
            return plan
        weights = _weights(step, 1 << n)[basis]
        rows = np.flatnonzero(weights)
        cols = position[basis[rows] ^ _flip(step)]
        if np.any(cols < 0):
            return plan
        w = weights[rows]
        steps.append(step._replace(pairs=(rows, cols, np.abs(w), w)))
    return _Plan(n, tuple(steps), basis)


def _circuit_plan(circuit: ParamCircuit, initial: int | None) -> _Plan:
    """The circuit's plan from basis state `initial`, cached per sector;
    for None, its plan over all 2**n states."""
    if initial is not None and not 0 <= initial < (1 << circuit.n_qubits):
        raise ValueError(f"basis index {initial} out of range")
    plans = circuit._plans
    if None not in plans:
        plans[None] = _Plan(circuit.n_qubits,
                            _steps(circuit.gates, circuit.param_names))
    sector = None if initial is None else _state_sector(initial)
    if sector not in plans:
        plans[sector] = _restrict(plans[None], sector)
    return plans[sector]


def _take(amps: np.ndarray, rows) -> np.ndarray:
    """amps[..., rows], C-ordered: plain indexing for one vector, else a
    take, since fancy indexing after an Ellipsis is slow."""
    if amps.ndim == 1:
        return amps[rows]
    if isinstance(rows, slice):
        return amps[..., rows]
    return amps.take(rows, axis=-1)


def _act(step: _Step, amps: np.ndarray) -> tuple:
    """(rows, |w| on them, c, v) with (M amps)[..., rows] = c v: from the
    pairs stored over a sector, else through the Pauli-string kernel."""
    if step.pairs is not None:
        rows, cols, r, w = step.pairs
        return rows, r, 1.0, w * _take(amps, cols)
    if len(step.terms) == 1:  # |w| is |coeff| on every row
        (string, coeff), = step.terms
        return slice(None), abs(coeff), coeff, apply_pauli_string(string,
                                                                  amps)
    weights = _weights(step, amps.shape[-1])
    rows = np.flatnonzero(weights)
    w = weights[rows]
    return rows, np.abs(w), 1.0, w * _take(amps, rows ^ _flip(step))


def _dot(a: np.ndarray, b: np.ndarray):
    """<a|b> over the last axis: np.vdot for one vector, else one stacked
    matmul over C-ordered rows, which gives each row the bits np.vdot
    gives it alone (strided rows would not)."""
    if a.ndim == 1:
        return np.vdot(a, b)
    a, b = np.ascontiguousarray(a.conj()), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _slope(acted: tuple, lam: np.ndarray):
    """2 Re<lam|M psi>, given M psi from _act."""
    rows, _, coeff, moved = acted
    return 2.0 * (coeff * _dot(_take(lam, rows), moved)).real


def _trig(acted: tuple, angle) -> tuple:
    """(cos(angle |w|), c sin(angle |w|) / |w|) on the rows of M from _act;
    a batch's angle is an (R, 1) column."""
    _, r, coeff, _ = acted
    turn = angle * r
    return np.cos(turn), coeff * np.sin(turn) / r


def _rotate(amps: np.ndarray, acted: tuple, trig: tuple) -> None:
    """exp(angle M) in place, given M amps from _act and _trig's factors:
    on each row with w != 0, amp becomes cos(angle |w|) amp +
    sin(angle |w|) (M amp) / |w|."""
    rows, _, _, moved = acted
    cos, sin = trig
    new = _take(amps, rows) * cos + moved * sin
    if amps.ndim == 1:
        amps[rows] = new
    else:
        amps[..., rows] = new


def _apply_matrix(amps: np.ndarray, n_qubits: int, targets, u) -> None:
    for row in amps.reshape(-1, amps.shape[-1]):  # one vector at a time
        if len(targets) == 1:
            _apply_single(row, targets[0], u)
        else:
            _apply_two(row, n_qubits, *targets, u)


def _angle(step: _Step, angles):
    return angles[step.param] if step.param >= 0 else step.angle


def _forward(plan: _Plan, amps: np.ndarray, angles) -> None:
    """Run the plan on amps, one vector or an (R, D) batch, whose angles
    by parameter number are scalars or (R, 1) columns."""
    for step in plan.steps:
        if step.matrix is not None:
            _apply_matrix(amps, plan.n_qubits, *step.matrix[:2])
        else:
            acted = _act(step, amps)
            _rotate(amps, acted, _trig(acted, _angle(step, angles)))


def _reverse(plan: _Plan, psi: np.ndarray, lam: np.ndarray,
             angles) -> np.ndarray:
    """Undo the plan on psi and lam together, summing the slope
    2 Re<lam|M psi> of each parameterized step into its parameter's
    gradient; one vector each or a batch each, as in _forward."""
    grad = np.zeros(psi.shape[:-1] + (len(angles),))
    for step in reversed(plan.steps):
        if step.matrix is not None:
            for amps in (psi, lam):
                _apply_matrix(amps, plan.n_qubits, step.matrix[0],
                              step.matrix[2])
            continue
        on_psi, on_lam = _act(step, psi), _act(step, lam)
        if step.param >= 0:  # <lam| M |psi>, M the step's generator
            grad[..., step.param] += _slope(on_psi, lam)
        trig = _trig(on_psi, -_angle(step, angles))  # one cos/sin for both
        _rotate(psi, on_psi, trig)
        _rotate(lam, on_lam, trig)
    return grad


def _angles(param_names, values: dict[str, float]) -> list[float]:
    missing = [name for name in param_names if name not in values]
    if missing:
        raise ValueError(f"missing parameter value for {missing[0]!r}")
    return [values[name] for name in param_names]


def _start(plan: _Plan, initial: int, batch: tuple = ()) -> np.ndarray:
    """Basis state `initial` over the plan's basis, once per batch row."""
    if plan.basis is None:
        amps = np.zeros(batch + (1 << plan.n_qubits,), dtype=complex)
        amps[..., initial] = 1.0
    else:
        amps = np.zeros(batch + (len(plan.basis),), dtype=complex)
        amps[..., np.searchsorted(plan.basis, initial)] = 1.0
    return amps


def _run(circuit: ParamCircuit, values: dict[str, float],
         initial: int) -> tuple[_Plan, np.ndarray, list[float]]:
    """The circuit's plan from `initial`, the state it prepares over the
    plan's basis, and the parameter values in parameter order."""
    plan = _circuit_plan(circuit, initial)
    angles = _angles(circuit.param_names, values)
    amps = _start(plan, initial)
    _forward(plan, amps, angles)
    return plan, amps, angles


def _adjoint(plan: _Plan, h: QubitOperator, psi: np.ndarray, angles):
    """<h> and its gradient at the prepared state psi, one vector or an
    (R, D) batch: h acts once, as one sparse product, then one reverse
    sweep of the plan."""
    matrix = compiled_sum(h, plan.n_qubits, plan.basis)
    if psi.ndim == 1:
        lam = matrix @ psi
    else:  # rows as columns, so each row gets its own matvec's bits
        lam = np.ascontiguousarray((matrix @ psi.T).T)
    energy = _dot(psi, lam)
    return energy, _reverse(plan, psi, lam, angles)


def _scatter(plan: _Plan, amps: np.ndarray) -> np.ndarray:
    """Amplitudes over the plan's basis as all 2**n amplitudes."""
    if plan.basis is None:
        return amps
    full = np.zeros(1 << plan.n_qubits, dtype=complex)
    full[plan.basis] = amps
    return full


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def runs_in_sector(circuit: ParamCircuit, initial: int) -> bool:
    """True when every step of the circuit maps the (N, 2Sz) sector of
    basis state `initial` into itself, so its plan runs in that sector."""
    return _circuit_plan(circuit, initial).basis is not None


def apply_circuit(circuit: ParamCircuit, values: dict[str, float],
                  initial: int = 0) -> StateVector:
    """Run the circuit on a computational basis state."""
    plan, amps, _ = _run(circuit, values, initial)
    return StateVector(circuit.n_qubits, _scatter(plan, amps))


def apply_pauli_evolution(state: StateVector, string: PauliString,
                          theta: float) -> StateVector:
    """exp(i theta P) applied to a copy of the state."""
    return apply_gates(state, [Gate("PauliEvolution", string.qubits,
                                    generator=string, angle=theta)], {})


def apply_gates(state: StateVector, gates, values: dict[str, float]) -> StateVector:
    """Run a gate sequence on a copy of an already-prepared state."""
    gates = tuple(gates)
    names = _param_names(gates)
    plan = _Plan(state.n_qubits, _steps(gates, names))
    out = state.copy()
    _forward(plan, out.amplitudes, _angles(names, values))
    return out


def _real(value: complex) -> float:
    """The real part of an expectation, raising on an imaginary residue."""
    value = complex(value)
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    return value.real


def expectation(h: QubitOperator, state: StateVector) -> float:
    """<s|h|s>; raises if the imaginary residue betrays a non-Hermitian h."""
    amps = state.amplitudes
    return _real(np.vdot(amps, compiled_sum(h, state.n_qubits) @ amps))


def term_expectations(circuit: ParamCircuit, h: QubitOperator,
                      values: dict[str, float],
                      initial: int = 0) -> np.ndarray:
    """<c_k Q_k> at the circuit's state for each term of h, in h.terms
    order, so they sum to <h>.  The terms of one flip mask share the
    product conj(psi[s ^ flip]) psi[s], summed per term with its signs."""
    plan, psi, _ = _run(circuit, values, initial)
    psi, states = _scatter(plan, psi), _indices(1 << circuit.n_qubits)
    flips, yz = _masks(h.terms)
    weights = np.fromiter((coeff * pauli_masks(string)[2]
                           for string, coeff in h.terms.items()), complex)
    out = np.empty(len(h.terms))
    for flip in np.unique(flips).tolist():
        rows = np.flatnonzero(flips == flip)
        product = (psi[states ^ flip].conj() * psi).view(float)
        parity = np.bitwise_count(states & yz[rows, None]) & 1
        sums = ((1 - 2 * parity.view(np.int8)).astype(float)  # one cast
                @ product.reshape(-1, 2))  # real and imaginary parts
        out[rows] = (weights[rows] * (sums[:, 0] + 1j * sums[:, 1])).real
    return out


def basis_expectation(h: QubitOperator, n_qubits: int, index: int) -> float:
    """<index|h|index>, read off h's matrix over the state's (N, 2Sz)
    sector, the one a plan from that state compiles h over."""
    basis = sector_indices(n_qubits, *_state_sector(index))
    diagonal = compiled_sum(h, n_qubits, basis).diagonal()
    return _real(diagonal[np.searchsorted(basis, index)])


def adjoint_gradient(circuit: ParamCircuit, h: QubitOperator,
                     values: dict[str, float],
                     initial: int = 0) -> tuple[float, dict[str, float]]:
    """Energy and dE/d(parameter) via one forward and one reverse sweep of
    the circuit's plan; h acts through its matrix over the plan's basis."""
    plan, psi, angles = _run(circuit, values, initial)
    energy, grad = _adjoint(plan, h, psi, angles)
    return _real(energy), dict(zip(circuit.param_names, grad.tolist()))


def batch_adjoint_gradient(circuit: ParamCircuit, h: QubitOperator,
                           angles: np.ndarray, initial: int = 0
                           ) -> tuple[list[float], np.ndarray]:
    """adjoint_gradient at each row of an (R, n_params) array of parameter
    values, in parameter order: energies and an (R, n_params) gradient.
    The plan's sweeps run once over the (R, D) batch of states, and each
    row gets the bits adjoint_gradient gives it alone."""
    plan = _circuit_plan(circuit, initial)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != circuit.n_params:
        raise ValueError(f"angles of shape {angles.shape} for "
                         f"{circuit.n_params} parameters")
    # one row runs faster as a plain vector; in a batch, parameter p's
    # values are an (R, 1) column
    batch = angles.shape[:1] if len(angles) > 1 else ()
    columns = angles.T[:, :, None] if batch else list(angles[0])
    psi = _start(plan, initial, batch)
    _forward(plan, psi, columns)
    energies, grad = _adjoint(plan, h, psi, columns)
    energies = [_real(energy) for energy in np.atleast_1d(energies)]
    return energies, grad.reshape(angles.shape)


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


def commutator_gradient(circuit: ParamCircuit, h: QubitOperator,
                        values: dict[str, float], initial: int,
                        pool: ParamCircuit) -> tuple[float, dict[str, float]]:
    """Energy of the circuit's state psi and, per pool parameter, the slope
    2 Re<h psi|M psi> of appending its gates at zero, h applied once over
    the pool plan's basis: the sector when both keep it, else all 2**n.
    A pool with a gate that binds no parameter is refused."""
    if any(step.param < 0 for step in _circuit_plan(pool, None).steps):
        raise ValueError("every pool gate must bind a parameter")
    plan, psi, _ = _run(circuit, values, initial)
    screen = _circuit_plan(pool, None if plan.basis is None else initial)
    if screen.basis is None:
        psi = _scatter(plan, psi)
    lam = compiled_sum(h, circuit.n_qubits, screen.basis) @ psi
    slopes = np.zeros(pool.n_params)
    for step in screen.steps:
        slopes[step.param] += _slope(_act(step, psi), lam)
    return (_real(np.vdot(psi, lam)),
            dict(zip(pool.param_names, slopes.tolist())))


def number_expectation(state: StateVector) -> float:
    """<N> for N = sum_i (1 - Z_i)/2, cheap diagonal evaluation."""
    idx = _indices(len(state.amplitudes))
    weights = np.bitwise_count(idx).astype(float)
    return float(np.real(np.sum(np.abs(state.amplitudes) ** 2 * weights)))
