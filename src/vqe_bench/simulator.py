"""Dense statevector simulation: gates, Pauli evolutions, expectations,
and analytic parameter gradients.

Bit convention: qubit i is bit i of the basis index (qubit 0 least
significant).  Rotation conventions: RY(t) = exp(-i t Y / 2), likewise RX
and RZ; PauliEvolution applies exp(+i t P).  A state is a bare array of
2**n amplitudes; every public entry point hands out a fresh one.

A Pauli sum acts through one form: its sparse matrix over a basis
(pauli_sum_matrix), compiled once per operator and basis (compiled_sum).
A circuit runs through one form too: a plan compiled once per circuit and
initial (N, 2Sz) sector, which one kernel runs forward, in reverse and
as generators for the adjoint gradient.  Plans extend: a circuit grown
by ParamCircuit.extended starts each plan from the steps its prefix
compiled, compiles only the gates past them (fusing across the boundary
by the rule below) and restricts only the steps not yet restricted, so
adaptive growth compiles each step once.  Every parameterized gate is a
step exp(angle * M) with M|c> = w_r |r>, r = c ^ flip, and consecutive
gates of one parameter, one flip mask and pairwise commuting strings
(the 2 or 8 evolutions of one excitation) fuse into one step; fixed
gates stay full-space matrices.  When every step maps the initial
state's sector into itself the plan runs over that sector alone, and h
acts through its matrix over the sector, exact since the state never
leaves it.  A sector plan holds one table, built when it is compiled:
the |w| of every stored row of every step, concatenated, each row's
angle number and each step's slice, index pairs and weights.  A sweep
computes angle * |w| on all rows at once, then one cos and one sin / |w|
(of -angle in reverse), so a step only gathers, rotates and scatters its
rows; cos and sin act elementwise, so each row's factors have the bits a
per-step pass gives them.  The reverse sweep rotates psi and lam as one
[psi, lam] array, through index pairs and weights doubled for it when
the table is built.  Otherwise the plan runs over all 2**n states and
its steps act through the Pauli-string kernel per application, so it
holds no 2**n arrays.
Screening pools are circuits too; only h is ever compiled as a matrix.
Its terms' expectations are read off the state itself, a flip mask at a
time (term_expectations).

Parameter values are one float array, `angles`, in param_names order.
The kernel takes a leading batch axis: adjoint_gradient at (R, P) angles
runs one forward and one reverse sweep over an (R, D) array of states,
with h applied as one sparse product and the row reductions as stacked
matmuls.  Every operation acts row by row with the arithmetic of the
one-vector path, so each row gets the bits of its own (P,) call.
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

    def renamed(self, name: str) -> Gate:
        """This gate bound to parameter `name`, prefactor kept.  A new name
        changes nothing __post_init__ checks, so the copy skips it."""
        gate = object.__new__(Gate)
        gate.__dict__.update(self.__dict__, param=(name, self.param[1]))
        return gate


def ry(q: int, name: str, prefactor: float = 1.0) -> Gate:
    return Gate("RY", (q,), param=(name, prefactor))


def pauli_evolution(string: PauliString, name: str,
                    prefactor: float = 1.0) -> Gate:
    return Gate("PauliEvolution", string.qubits, generator=string,
                param=(name, prefactor))


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered gate list whose parameter names are those its gates bind,
    in order of first binding; immutable, so the plans cached on it (one
    per initial sector) never go stale.  A circuit made by `extended`
    also holds the steps its prefix compiled over all 2**n states and
    over each sector it kept (`_prefix`: the prefix's gate count and its
    steps, per sector), which its own plans start from."""

    n_qubits: int
    gates: tuple[Gate, ...]
    param_names: tuple[str, ...] = field(init=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _prefix: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if any(t >= self.n_qubits or t < 0 for t in gate.targets):
                raise ValueError(f"gate target out of range: {gate}")
        object.__setattr__(self, "param_names", tuple(dict.fromkeys(
            gate.param[0] for gate in self.gates if gate.param is not None)))

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def extended(self, gates) -> ParamCircuit:
        """This circuit with `gates` appended.  The longer circuit carries
        the steps of its full-space plan and of every plan restricted to a
        sector, compiled on this one (or carried by it), so its own plans
        compile and restrict only the gates past them.  It holds those
        steps, shared and immutable, but not this circuit or its plans'
        tables."""
        longer = ParamCircuit(self.n_qubits, self.gates + tuple(gates))
        longer._prefix.update(self._prefix)
        longer._prefix.update(
            (sector, (len(self.gates), plan.steps))
            for sector, plan in self._plans.items()
            if sector is None or plan.basis is not None)
        return longer


def _n_qubits(amps: np.ndarray) -> int:
    """The qubit count of a state, read off its length: 2**n amplitudes."""
    size = len(amps)
    if size < 1 or size & (size - 1):
        raise ValueError(f"a state of {size} amplitudes is not 2**n of them")
    return size.bit_length() - 1


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
    holds (rows, cols, |w|, w) for the rows with w != 0, which screening
    reads and the sweeps read through the plan's _Table; a full-space
    step acts through the Pauli-string kernel per application."""

    param: int
    angle: float = 0.0
    terms: tuple[tuple[PauliString, complex], ...] = ()
    matrix: tuple | None = None
    pairs: tuple | None = None


class _Table(NamedTuple):
    """A sector plan's rows across all its steps, concatenated: each row's
    |w| (`r`) and the number of the angle it turns by (`index`), where
    the fixed angles (`fixed`) are numbered past the parameters.  `sweep`
    holds per step, in plan order, (its slice of the rows, rows, cols, w).
    The reverse sweep runs over [psi, lam], 2D amplitudes, and a doubled
    table that holds each step's rows twice: `twice` numbers the row
    behind each doubled row, and `doubled` holds per step (param, its
    slice of the doubled rows, its row count k, (rows, rows + D),
    (cols, cols + D), (w, w))."""

    r: np.ndarray
    index: np.ndarray
    fixed: np.ndarray
    sweep: tuple
    twice: np.ndarray
    doubled: tuple


@dataclass(frozen=True)
class _Plan:
    """Steps over a sorted sector basis, with their table, or over all
    2**n states (basis and table None)."""

    n_qubits: int
    steps: tuple[_Step, ...]
    basis: np.ndarray | None = None
    table: _Table | None = None


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


def _steps(gates, param_names, start=()) -> tuple[_Step, ...]:
    """Compile gates into steps after the steps `start`, fusing runs of one
    parameter and one flip mask whose strings commute pairwise, across
    that boundary too; identity steps are dropped.  A fused step is a new
    step, without the pairs its predecessor may hold."""
    index = {name: k for k, name in enumerate(param_names)}
    steps: list[_Step] = list(start)
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


def _restrict(plan: _Plan, steps, sector: tuple[int, int],
              n_params: int) -> _Plan:
    """`steps`, the full-space plan's or a prefix's sector steps grown by
    the gates past them, over the sector's states when every one maps them
    into themselves (read off the flip masks and weights), else the
    full-space `plan` unchanged.  A step that holds its pairs was
    restricted before and keeps them; the table spans all rows."""
    n = plan.n_qubits
    basis = sector_indices(n, *sector)
    position = np.full(1 << n, -1, dtype=np.int64)
    position[basis] = np.arange(len(basis))
    steps = list(steps)
    for k, step in enumerate(steps):
        if step.matrix is not None:
            return plan
        if step.pairs is not None:
            continue
        weights = _weights(step, 1 << n)[basis]
        rows = np.flatnonzero(weights)
        cols = position[basis[rows] ^ _flip(step)]
        if np.any(cols < 0):
            return plan
        w = weights[rows]
        steps[k] = step._replace(pairs=(rows, cols, np.abs(w), w))
    return _Plan(n, tuple(steps), basis, _table(steps, n_params, len(basis)))


def _table(steps, n_params: int, size: int) -> _Table:
    """The _Table of sector steps over `size` basis states."""
    fixed, numbers, sweep, doubled, twice, start = [], [], [], [], [], 0
    for step in steps:
        rows, cols, _, w = step.pairs
        number = step.param
        if number < 0:
            number = n_params + len(fixed)
            fixed.append(step.angle)
        numbers.append(number)
        k = len(rows)
        sweep.append((slice(start, start + k), rows, cols, w))
        doubled.append((step.param, slice(2 * start, 2 * (start + k)), k,
                        np.concatenate((rows, rows + size)),
                        np.concatenate((cols, cols + size)),
                        np.concatenate((w, w))))
        twice += [np.arange(start, start + k)] * 2
        start += k
    return _Table(
        np.concatenate([np.zeros(0)] + [step.pairs[2] for step in steps]),
        np.repeat(np.array(numbers, dtype=np.intp),
                  [len(step.pairs[0]) for step in steps]),
        np.array(fixed, dtype=float), tuple(sweep),
        np.concatenate([np.zeros(0, dtype=np.intp)] + twice), tuple(doubled))


def _grown(circuit: ParamCircuit, sector) -> tuple[_Step, ...]:
    """The circuit's steps: those its prefix compiled for `sector` (None:
    over all 2**n states), if any, with the gates past them compiled on."""
    n_gates, start = circuit._prefix.get(sector, (0, ()))
    return _steps(circuit.gates[n_gates:], circuit.param_names, start)


def _circuit_plan(circuit: ParamCircuit, initial: int | None) -> _Plan:
    """The circuit's plan from basis state `initial`, cached per sector;
    for None, its plan over all 2**n states.  A grown circuit starts each
    plan from its prefix's steps."""
    if initial is not None and not 0 <= initial < (1 << circuit.n_qubits):
        raise ValueError(f"basis index {initial} out of range")
    plans = circuit._plans
    if None not in plans:
        plans[None] = _Plan(circuit.n_qubits, _grown(circuit, None))
    sector = None if initial is None else _state_sector(initial)
    if sector not in plans:  # steps a prefix restricted stay restricted
        steps = (_grown(circuit, sector) if sector in circuit._prefix
                 else plans[None].steps)
        plans[sector] = _restrict(plans[None], steps, sector,
                                  circuit.n_params)
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


def _angle(step: _Step, angles: np.ndarray):
    """The step's angle: a scalar, or an (R, 1) column for a batch."""
    if step.param < 0:
        return step.angle
    if angles.ndim == 1:
        return angles[step.param]
    return angles[:, step.param, None]


def _turns(table: _Table, angles: np.ndarray) -> np.ndarray:
    """angle * |w| on every row of a sector table, for (P,) angles or an
    (R, P) batch of them: (T,) or (R, T)."""
    fixed = np.broadcast_to(table.fixed,
                            angles.shape[:-1] + table.fixed.shape)
    angles = np.concatenate((angles, fixed), axis=-1)
    return _take(angles, table.index) * table.r


def _forward(plan: _Plan, amps: np.ndarray, angles: np.ndarray) -> None:
    """Run the plan on amps, one vector with (P,) angles or an (R, D)
    batch with (R, P).  Over a sector, cos and sin / |w| of every row come
    from one pass over the table, and each step gathers, rotates and
    scatters its rows."""
    table = plan.table
    if table is not None:
        turn = _turns(table, angles)
        cos, sin = np.cos(turn), np.sin(turn) / table.r
        if amps.ndim == 1:
            for span, rows, cols, w in table.sweep:
                amps[rows] = (amps[rows] * cos[span]
                              + w * amps[cols] * sin[span])
        else:
            for span, rows, cols, w in table.sweep:
                amps[:, rows] = (amps.take(rows, axis=1) * cos[:, span]
                                 + w * amps.take(cols, axis=1) * sin[:, span])
        return
    for step in plan.steps:
        if step.matrix is not None:
            _apply_matrix(amps, plan.n_qubits, *step.matrix[:2])
        else:
            acted = _act(step, amps)
            _rotate(amps, acted, _trig(acted, _angle(step, angles)))


def _reverse(plan: _Plan, psi: np.ndarray, lam: np.ndarray,
             angles: np.ndarray) -> np.ndarray:
    """Undo the plan on psi and lam together, summing the slope
    2 Re<lam|M psi> of each parameterized step into its parameter's
    gradient; one vector each or a batch each, as in _forward."""
    if plan.table is not None:
        return _reverse_sector(plan.table, psi, lam, angles)
    grad = np.zeros(psi.shape[:-1] + angles.shape[-1:])
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


def _reverse_sector(table: _Table, psi: np.ndarray, lam: np.ndarray,
                    angles: np.ndarray) -> np.ndarray:
    """_reverse over a sector plan.  psi and lam run as one [psi, lam]
    array per vector, whose doubled rows each step gathers, rotates by cos
    and sin / |w| of -angle, taken from one pass over the table, and
    scatters once.  The slope reads the lam and M psi halves of what it
    gathered, so np.vdot and _dot see the operands a sweep of psi and lam
    one at a time would give them."""
    grad = np.zeros(psi.shape[:-1] + angles.shape[-1:])
    turn = -_turns(table, angles)
    cos = _take(np.cos(turn), table.twice)
    sin = _take(np.sin(turn) / table.r, table.twice)
    stacked = np.concatenate((psi, lam), axis=-1)
    if psi.ndim == 1:
        for param, span, k, rows, cols, w in reversed(table.doubled):
            old, moved = stacked[rows], w * stacked[cols]
            if param >= 0:  # <lam| M |psi>, M the step's generator
                grad[param] += 2.0 * np.vdot(old[k:], moved[:k]).real
            stacked[rows] = old * cos[span] + moved * sin[span]
        return grad
    for param, span, k, rows, cols, w in reversed(table.doubled):
        old, moved = stacked.take(rows, axis=1), w * stacked.take(cols, axis=1)
        if param >= 0:
            grad[:, param] += 2.0 * _dot(old[:, k:], moved[:, :k]).real
        stacked[:, rows] = old * cos[:, span] + moved * sin[:, span]
    return grad


def _angles(circuit: ParamCircuit, angles, batch=False) -> np.ndarray:
    """angles as floats, refused unless of shape (P,), or (R, P) with
    R >= 1 where a batch is allowed, naming the shape."""
    angles, n = np.asarray(angles, dtype=float), circuit.n_params
    if (angles.shape[-1:] != (n,) or angles.ndim > 1 + batch
            or 0 in angles.shape[:-1]):
        raise ValueError(f"angles of shape {angles.shape} for {n} parameters")
    return angles


def _start(plan: _Plan, initial: int, batch: tuple = ()) -> np.ndarray:
    """Basis state `initial` over the plan's basis, once per batch row."""
    if plan.basis is None:
        amps = np.zeros(batch + (1 << plan.n_qubits,), dtype=complex)
        amps[..., initial] = 1.0
    else:
        amps = np.zeros(batch + (len(plan.basis),), dtype=complex)
        amps[..., np.searchsorted(plan.basis, initial)] = 1.0
    return amps


def _run(circuit: ParamCircuit, angles: np.ndarray,
         initial: int) -> tuple[_Plan, np.ndarray]:
    """The circuit's plan from `initial` and the state it prepares over
    the plan's basis at (P,) angles, or one per row of (R, P) angles."""
    plan = _circuit_plan(circuit, initial)
    amps = _start(plan, initial, angles.shape[:-1])
    _forward(plan, amps, angles)
    return plan, amps


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


def apply_circuit(circuit: ParamCircuit, angles,
                  initial: int = 0) -> np.ndarray:
    """The 2**n amplitudes the circuit prepares from a basis state."""
    plan, amps = _run(circuit, _angles(circuit, angles), initial)
    return _scatter(plan, amps)


def apply_pauli_evolution(amps: np.ndarray, string: PauliString,
                          theta: float) -> np.ndarray:
    """exp(i theta P) applied to a copy of the state."""
    return apply_gates(amps, [Gate("PauliEvolution", string.qubits,
                                   generator=string, angle=theta)], ())


def apply_gates(amps: np.ndarray, gates, angles) -> np.ndarray:
    """Run a gate sequence on a copy of an already-prepared state, at
    angles in the order its gates first bind their parameters."""
    circuit = ParamCircuit(_n_qubits(amps), gates)
    out = np.array(amps, dtype=complex)
    _forward(_circuit_plan(circuit, None), out, _angles(circuit, angles))
    return out


def _real(value: complex) -> float:
    """The real part of an expectation, raising on an imaginary residue."""
    value = complex(value)
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise ValueError(f"expectation has imaginary residue {value.imag:g}")
    return value.real


def expectation(h: QubitOperator, amps: np.ndarray) -> float:
    """<s|h|s>; raises if the imaginary residue betrays a non-Hermitian h."""
    return _real(np.vdot(amps, compiled_sum(h, _n_qubits(amps)) @ amps))


def term_expectations(circuit: ParamCircuit, h: QubitOperator, angles,
                      initial: int = 0) -> np.ndarray:
    """<c_k Q_k> at the circuit's state for each term of h, in h.terms
    order, so they sum to <h>.  The terms of one flip mask share the
    product conj(psi[s ^ flip]) psi[s], summed per term with its signs."""
    plan, psi = _run(circuit, _angles(circuit, angles), initial)
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


def adjoint_gradient(circuit: ParamCircuit, h: QubitOperator, angles,
                     initial: int = 0):
    """Energy and dE/d(parameter) via one forward and one reverse sweep of
    the circuit's plan; h acts through its matrix over the plan's basis.
    At (P,) angles: (energy, (P,) gradient).  At an (R, P) batch: ((R,)
    energies, (R, P) gradient), the sweeps run once over the (R, D) batch
    of states, and each row gets the bits its own (P,) call gives it."""
    angles = _angles(circuit, angles, batch=True)
    # one row runs faster as a plain vector
    point = angles[0] if len(angles) == 1 and angles.ndim == 2 else angles
    plan, psi = _run(circuit, point, initial)
    energy, grad = _adjoint(plan, h, psi, point)
    if angles.ndim == 1:
        return _real(energy), grad
    return (np.array([_real(e) for e in np.atleast_1d(energy)]),
            grad.reshape(angles.shape))


def parameter_shift_gradient(circuit: ParamCircuit, h: QubitOperator,
                             angles, initial: int, name: str) -> float:
    """E(t + pi/4) - E(t - pi/4), exact for a single exp(i t P) binding."""
    bound = [g for g in circuit.gates
             if g.param is not None and g.param[0] == name]
    if (len(bound) != 1 or bound[0].kind != "PauliEvolution"
            or abs(bound[0].param[1]) != 1.0):
        raise ValueError(
            f"parameter {name!r} is not bound to a single unit-prefactor "
            "Pauli evolution")
    angles = _angles(circuit, angles)
    k = circuit.param_names.index(name)
    shifted = angles.copy()
    shifted[k] = angles[k] + math.pi / 4
    plus = expectation(h, apply_circuit(circuit, shifted, initial))
    shifted[k] = angles[k] - math.pi / 4
    minus = expectation(h, apply_circuit(circuit, shifted, initial))
    return plus - minus


def commutator_gradient(circuit: ParamCircuit, h: QubitOperator, angles,
                        initial: int, pool: ParamCircuit
                        ) -> tuple[float, np.ndarray]:
    """Energy of the circuit's state psi and, per pool parameter in
    pool.param_names order, the slope 2 Re<h psi|M psi> of appending its
    gates at zero, h applied once over the pool plan's basis: the sector
    when both keep it, else all 2**n.  A pool with a gate that binds no
    parameter is refused."""
    if any(step.param < 0 for step in _circuit_plan(pool, None).steps):
        raise ValueError("every pool gate must bind a parameter")
    plan, psi = _run(circuit, _angles(circuit, angles), initial)
    screen = _circuit_plan(pool, None if plan.basis is None else initial)
    if screen.basis is None:
        psi = _scatter(plan, psi)
    lam = compiled_sum(h, circuit.n_qubits, screen.basis) @ psi
    slopes = np.zeros(pool.n_params)
    for step in screen.steps:
        slopes[step.param] += _slope(_act(step, psi), lam)
    return _real(np.vdot(psi, lam)), slopes


def number_expectation(amps: np.ndarray) -> float:
    """<N> for N = sum_i (1 - Z_i)/2, cheap diagonal evaluation."""
    weights = np.bitwise_count(_indices(1 << _n_qubits(amps))).astype(float)
    return float(np.real(np.sum(np.abs(amps) ** 2 * weights)))
