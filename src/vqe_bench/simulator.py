"""Dense statevector simulation: gates, Pauli evolutions, expectations,
and analytic parameter gradients.

Bit convention: qubit i is bit i of the basis index (qubit 0 least
significant).  Rotation conventions: RY(t) = exp(-i t Y / 2), likewise RX
and RZ; PauliEvolution applies exp(+i t P).  A state is a bare array of
2**n amplitudes; every public entry point hands out a fresh one.

A Pauli string acts as P|s> = phase (-1)^popcount(s & yz) |s ^ flip>
(pauli_masks), every sign read off one +-1.0 table of (-1)^popcount(i)
per bit count (_sign_table).  A Pauli sum acts through its matrix over a
basis, a CompiledSum of CSR arrays and per-row slots, compiled once per
operator and basis (compiled_sum) and weighed a flip mask at a time, one
sign-table read for all of the mask's terms summed in term order from
zero, in one pass that keeps what it weighed up to a fixed bound.  Its
product is NumPy's, in scipy's csr_matvec arithmetic.

A circuit runs through a plan compiled once per circuit and initial
(N, 2Sz) sector, which one kernel runs forward, in reverse and as
generators for the adjoint gradient; a circuit grown by
ParamCircuit.extended compiles and restricts only the gates past its
prefix's steps.  Every parameterized gate is a step exp(angle * M) with
M|c> = w_r |r>, r = c ^ flip, w weighed as a flip mask of H is and moved
by one Pauli-string kernel call; consecutive gates of one parameter, flip
mask and Y parity (pairwise commuting strings, such as the 2 or 8
evolutions of one excitation) fuse into one step, and fixed gates stay
full-space matrices.  When every step maps the initial state's sector
into itself the plan runs over that sector alone, h acting through its
matrix over the sector, and holds one table: the |w| of every stored row
of every step, each row's angle number and each step's slice, index
pairs and weights.  The forward sweep takes cos and sin / |w| of angle *
|w| for all rows at once, so a step only gathers, rotates and scatters
its rows; the reverse sweep reads the same factors as cos and -(sin /
|w|) of -angle, NumPy's cos being even and its sin odd, bit for bit.  A
one-vector sweep casts both to complex once, as a complex-by-float
product would.  Otherwise the plan runs over all 2**n states through the
Pauli-string kernel.  Both kinds reverse psi and lam as one [psi, lam]
array.  Screening pools are circuits too (term_expectations reads their
terms' expectations off a screened state).

Parameter values are one float array, `angles`, in param_names order.
adjoint_gradient runs one or two rows of (R, P) angles as vectors, and
more as one pair of sweeps over an (R, D) batch, every operation acting
row by row with the arithmetic of the one-vector path, so each row gets
the bits of its own (P,) call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import _I_POWERS, PauliString, QubitOperator

IMAG_RESIDUE_TOLERANCE = 1e-9
# the most qubits a circuit, sector or compiled sum may span: a state is
# 16 MB at 20 qubits, and a compile holds a few 2**n index arrays beside it
MAX_QUBITS = 20
# slots of a compiled sum (its entries and the padding of its rows to
# the longest in their block): 24 bytes per slot (complex weight,
# intp column; 40 with complex weights) and 20 per CSR entry (complex128,
# int32 column), at most 370 MB; a 14-qubit molecular Hamiltonian with
# dense integrals has 2.7M entries over its full space
MAX_COMPILED_ENTRIES = 1 << 23
# slots a compiled sum's product takes at once: 512 kB of complex scratch
# (1 MB with complex weights), whatever the batch
_PRODUCT_BLOCK = 1 << 15
# padded slots a block of them may hold: about what a block's own NumPy
# calls cost on one state, so a new block pays for itself past it
_PADDING_LIMIT = 1 << 10
# glibc's malloc serves a block of 128 kB or more by mmap and unmaps it on
# free, so an evaluation's larger temporaries (a sector sweep's factors, a
# full-space [psi, lam] stack, product scratch) would fault in fresh pages
# on every call.  Freeing one mmap'd block raises that threshold to the
# block's size and the heap's trim threshold to twice it (mallopt(3)), so
# blocks below 4 MB are reused from the heap.  The allocation, freed at
# once, touches no page; other allocators ignore it.
np.empty(4 << 20, dtype=np.uint8)
# (term, state) products _mask_sums weighs at once: ~250 kB of
# temporaries, so a compile's peak memory stays near a term loop's
_WEIGH_BLOCK = 1 << 13
# bytes of what a compile's count pass weighed that its fill pass reuses
_WEIGH_SCRATCH = 1 << 19

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


def pauli_evolution(string: PauliString, name: str,
                    prefactor: float = 1.0) -> Gate:
    """exp(i prefactor * angle P), angle bound to `name`.  Its targets are
    the string's own qubits, so it passes every __post_init__ check by
    construction and is made without running them, as Gate.renamed is."""
    gate = object.__new__(Gate)
    gate.__dict__.update(kind="PauliEvolution", targets=string.qubits,
                         generator=string, param=(name, prefactor),
                         angle=None)
    return gate


def check_qubits(n_qubits: int) -> None:
    """Refuse a negative qubit count, or one past MAX_QUBITS before 2**n
    of anything is allocated."""
    if n_qubits < 0:
        raise ValueError(f"qubit count {n_qubits} is negative")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"dimension overflow: {n_qubits} qubits exceed "
                         f"MAX_QUBITS = {MAX_QUBITS}")


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
        check_qubits(self.n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        in_range = range(self.n_qubits).__contains__
        for gate in self.gates:
            if not all(map(in_range, gate.targets)):
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
    """Apply a 2x2 matrix to every row of a C-ordered state or batch."""
    view = amps.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * lo + u[0, 1] * hi
    view[:, 1, :] = u[1, 0] * lo + u[1, 1] * hi


def _apply_two(amps: np.ndarray, n_qubits: int, qa: int, qb: int,
               u: np.ndarray) -> None:
    """Apply a 4x4 matrix in the basis |b_a b_b> (b_a the high bit) to every
    row of a C-ordered state or batch: a (4, 4) @ (4, M) product per row."""
    tensor = amps.reshape((-1,) + (2,) * n_qubits)
    moved = np.moveaxis(tensor, (n_qubits - qa, n_qubits - qb), (1, 2))
    flat = moved.reshape(len(tensor), 4, -1)
    moved[...] = (u @ flat).reshape(moved.shape)


def pauli_masks(string: PauliString) -> tuple[int, int, complex]:
    """(flip, yz, phase) with P|s> = phase (-1)^popcount(s & yz) |s ^ flip>:
    the string's x and z masks, and i^(Y count)."""
    flip, yz = string.x, string.z
    return flip, yz, _I_POWERS[(flip & yz).bit_count() & 3]


_SIGN_CACHE: dict[int, np.ndarray] = {}


def _sign_table(bits: int) -> np.ndarray:
    """(-1)^popcount(i) as +-1.0 for every i below 2**bits, built once per
    bits."""
    table = _SIGN_CACHE.get(bits)
    if table is None:
        table = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << bits)) & 1)
        _SIGN_CACHE[bits] = table
    return table


def _parity_signs(states: np.ndarray, yz: int) -> np.ndarray | float:
    """(-1)^popcount(s & yz) for each state s, read off the sign table."""
    return _sign_table(yz.bit_length()).take(states & yz) if yz else 1.0


def apply_pauli_string(string: PauliString, amps: np.ndarray) -> np.ndarray:
    """Return P|amps> (new array), over the last axis of a batch too."""
    flip, yz, size = string.x, string.z, amps.shape[-1]
    if (flip | yz) >= size:
        raise ValueError(f"{string} acts outside a state of {size} amplitudes")
    src = _indices(size) ^ flip if flip else _indices(size)
    out = _take(amps, src) if flip else amps.copy()
    out *= _I_POWERS[(flip & yz).bit_count() & 3] * _parity_signs(src, yz)
    return out


def sector_indices(n_qubits: int, n_electrons: int,
                   ms2: int | None = None) -> np.ndarray:
    """Basis indices with the given electron count (and optionally 2*Sz)."""
    check_qubits(n_qubits)
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


class CompiledSum:
    """A Pauli sum's matrix over a basis, as pauli_sum_matrix compiles it.

    It holds the CSR arrays (`data` complex128, `indices` and `indptr`
    int32, a row's entries in flip-mask order) and, for its product, the
    same entries as per-row slots: slot k of a row holds its k-th entry.
    The rows are taken longest first and cut into blocks (_row_blocks),
    each a (start, stop) range of that order, its columns and real
    weights as (K, stop - start) arrays, K its longest row, and its
    imaginary weights too when some weight is complex.  A row shorter
    than K is padded with weight 0 at column 0.

    `matrix @ x` takes one vector or an (R, D) batch of rows, and gives
    every row the bits of scipy's csr_matvec: 0 plus the row's products
    a x in stored order, a x being (ar xr - ai xi, ar xi + ai xr) with
    each of its four products rounded once.  NumPy's complex multiply
    may fuse two of them into one rounding, but not when a factor has a
    zero part, so a x is taken as x (ar + 0j) + x (0 + ai j).  A padded
    slot adds a zero, which leaves a sum that starts from +0 as it was.
    The sum runs over the slot axis, in order (_slot_sums); along a
    contiguous axis np.add.reduce would sum pairwise."""

    __slots__ = ("data", "indices", "indptr", "shape", "_blocks", "_unsort")

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray):
        self.data, self.indices, self.indptr = data, indices, indptr
        size = len(indptr) - 1
        self.shape = (size, size)
        counts = np.diff(indptr)
        order = np.argsort(-counts, kind="stable")
        self._unsort = np.argsort(order)
        complex_weights = bool(data.imag.any())
        self._blocks = []
        for start, stop, width in _row_blocks(counts[order]):
            rows = order[start:stop]
            lengths = counts[rows]
            row = np.repeat(np.arange(stop - start), lengths)
            slot = np.arange(len(row)) - np.repeat(
                np.cumsum(lengths) - lengths, lengths)
            entries = indptr[rows][row] + slot
            cols = np.zeros((width, stop - start), dtype=np.intp)
            cols[slot, row] = indices[entries]
            real = np.zeros(cols.shape, dtype=complex)
            real.real[slot, row] = data[entries].real
            imag = None
            if complex_weights:
                imag = np.zeros(cols.shape, dtype=complex)
                imag.imag[slot, row] = data[entries].imag
            self._blocks.append((start, stop, cols, real, imag))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def _rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=complex)
        dense[self._rows(), self.indices] = self.data
        return dense

    def diagonal(self) -> np.ndarray:
        rows = self._rows()
        on = self.indices == rows
        diagonal = np.zeros(self.shape[0], dtype=complex)
        diagonal[rows[on]] = self.data[on]
        return diagonal

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[-1] != self.shape[1]:
            raise ValueError(f"a {self.shape} matrix cannot act on an "
                             f"array of shape {x.shape}")
        states = x.reshape(-1, self.shape[1])
        out = np.empty(states.shape, dtype=complex)  # rows longest first
        for start, stop, cols, real, imag in self._blocks:
            batch = max(_PRODUCT_BLOCK // max(cols.size, 1), 1)
            for row in range(0, len(states), batch):
                _slot_sums(states[row:row + batch], cols, real, imag,
                           out[row:row + batch, start:stop])
        return out.take(self._unsort, axis=1).reshape(x.shape)


def _row_blocks(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each block of rows whose entry counts,
    in descending order, are `counts`: width is the block's first count.
    A block holds at most _PRODUCT_BLOCK slots unless one row does, and
    ends before the row that would take its padding to _PADDING_LIMIT."""
    blocks, start = [], 0
    while start < len(counts):
        width = int(counts[start])
        stop = min(start + max(_PRODUCT_BLOCK // max(width, 1), 1),
                   len(counts))
        padded = np.flatnonzero(
            np.cumsum(width - counts[start:stop]) >= _PADDING_LIMIT)
        if padded.size:
            stop = start + max(int(padded[0]), 1)
        blocks.append((start, stop, width))
        start = stop
    return blocks


def _slot_sums(states: np.ndarray, cols: np.ndarray, real: np.ndarray,
               imag: np.ndarray | None, out: np.ndarray) -> None:
    """out[i, j] = 0 + the sum over slots k, in order, of the weight at
    (k, j) times states[i, cols[k, j]].  The sum runs over float pairs,
    whose last axis holds at least two numbers even for one row, so NumPy
    never takes the slot axis as the contiguous one and sums along it.
    Every column is in range, so "wrap" never wraps; it skips the bounds
    error path, the slower one here."""
    products = states.take(cols, axis=1, mode="wrap")
    if imag is not None:
        swapped = products * imag
        products *= real
        products += swapped
    else:
        products *= real
    np.add.reduce(products.view(float), axis=1, initial=0,
                  out=out.view(float))


def _mask_sums(terms, states: np.ndarray, n_qubits: int) -> np.ndarray:
    """0 + the sum over terms (yz, c), in order, of c (-1)^popcount(s & yz)
    for each state s: every term's signs in one sign-table read, over
    blocks of at most _WEIGH_BLOCK (term, state) products.  Coefficients
    all real and finite sum floats: sum (c + 0j) s is (sum c s) + 0j
    exactly."""
    yz, coeffs = (np.array(column)[:, None] for column in zip(*terms))
    if not coeffs.imag.any() and np.isfinite(coeffs).all():
        coeffs = coeffs.real
    signs, step = _sign_table(n_qubits), max(_WEIGH_BLOCK // len(terms), 1)
    sums = np.empty(len(states), dtype=coeffs.dtype)
    for k in range(0, len(states), step):
        np.add.reduce(coeffs * signs.take(states[k:k + step] & yz), axis=0,
                      initial=0, out=sums[k:k + step])
    return sums


def pauli_sum_csr(op: QubitOperator, n_qubits: int,
                  basis: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """op over a list of distinct basis states, its rows and columns in the
    list's order (default: all 2**n_qubits, in order), as CSR arrays
    (data, indices, indptr).  The terms of one flip mask fold into one
    weight per row r, at the column of r ^ flip; zero weights and columns
    outside the basis are dropped.  Past MAX_COMPILED_ENTRIES slots of a
    CompiledSum's product, padding included, or past MAX_QUBITS, it
    raises before allocating."""
    check_qubits(n_qubits)
    masks: dict[int, list[tuple[int, complex]]] = {}
    for string, coeff in op.terms.items():
        flip, yz, phase = pauli_masks(string)
        if (flip | yz) >> n_qubits:
            raise ValueError(f"{string} acts outside a {n_qubits}-qubit state")
        masks.setdefault(flip, []).append((yz, coeff * phase))
    rows = _indices(1 << n_qubits) if basis is None else np.asarray(basis)
    outside = rows[(rows < 0) | (rows >= 1 << n_qubits)]
    if outside.size:
        raise ValueError(f"basis state {outside[0]} lies outside a "
                         f"{n_qubits}-qubit state")
    order = np.arange(len(rows), dtype=np.int32)
    position = np.full(1 << n_qubits, -1, dtype=np.int32)
    position[rows] = order
    repeated = rows[position[rows] != order]  # a later copy took its place
    if repeated.size:
        raise ValueError(f"basis state {repeated[0]} appears twice")

    def weigh(flip, terms):  # a mask's kept rows, their columns and weights
        states = rows ^ flip
        weights = _mask_sums(terms, states, n_qubits)
        cols = position[states]
        keep = (weights != 0) & (cols >= 0)
        return keep, cols[keep], weights[keep]

    # count, keeping up to _WEIGH_SCRATCH bytes of what was weighed, then
    # fill in place, weighing the rest again, so the peak nears the final size
    counts, kept, scratch = np.zeros(len(rows), dtype=np.int64), [], 0
    for flip, terms in masks.items():
        entry = weigh(flip, terms)
        counts += entry[0]
        scratch += sum(array.nbytes for array in entry)
        kept.append(entry if scratch <= _WEIGH_SCRATCH else None)
    slots = sum(width * (stop - start) for start, stop, width
                in _row_blocks(np.sort(counts)[::-1]))
    if slots > MAX_COMPILED_ENTRIES:
        raise ValueError(f"{slots} slots exceed MAX_COMPILED_ENTRIES")
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1], complex)
    cursor = indptr[:-1].copy()
    for (flip, terms), entry in zip(masks.items(), kept):
        keep, cols, weights = entry or weigh(flip, terms)
        at = cursor[keep]
        indices[at], data[at] = cols, weights
        cursor[keep] = at + 1
    return data, indices, indptr.astype(np.int32)


def pauli_sum_matrix(op: QubitOperator, n_qubits: int,
                     basis: np.ndarray | None = None) -> CompiledSum:
    """pauli_sum_csr(op, n_qubits, basis) as a CompiledSum, its product's
    slots laid out."""
    return CompiledSum(*pauli_sum_csr(op, n_qubits, basis))


def compiled_sum(op: QubitOperator, n_qubits: int,
                 basis: np.ndarray | None = None) -> CompiledSum:
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


def _flip(step: _Step) -> int:
    return step.terms[0][0].x


def _steps(gates, param_names, start=()) -> tuple[_Step, ...]:
    """Compile gates into steps after the steps `start`, fusing runs of one
    parameter, one flip mask x and one Y parity, across that boundary too:
    strings of one x commute iff their Y counts |x & z| share a parity.
    Identity steps are dropped.  The open run is one {string: coeff} dict,
    made a step once, when the run closes.  With no run open (at the
    start, or after one that cancelled to nothing), a gate that fuses with
    the last step reopens it as a run, without the pairs it may hold."""
    index = {name: k for k, name in enumerate(param_names)}
    steps: list[_Step] = list(start)
    run, key = {}, None  # the open run's terms; its (parameter, mask, parity)
    for gate in gates:
        if gate.param is None:
            if run:
                steps.append(_Step(key[0], 0.0, tuple(run.items())))
                run = {}
            if gate.kind in FIXED_KINDS:
                u = _FIXED_MATRICES[gate.kind]
                steps.append(_Step(-1, matrix=(gate.targets, u, u.conj().T)))
            else:
                steps.append(_Step(-1, gate.angle,
                                   tuple(_generator(gate).items())))
            continue
        name, prefactor = gate.param
        terms = (((gate.generator, prefactor * 1j),)
                 if gate.kind == "PauliEvolution" else tuple(
                     (s, prefactor * c) for s, c in _generator(gate).items()))
        string = terms[0][0]
        gate_key = (index[name], string.x, string.y_count() & 1)
        if run and gate_key != key:
            steps.append(_Step(key[0], 0.0, tuple(run.items())))
            run = {}
        elif (not run and steps and steps[-1].param == gate_key[0]
              and _flip(steps[-1]) == gate_key[1]
              and steps[-1].terms[0][0].y_count() & 1 == gate_key[2]):
            run = dict(steps.pop().terms)
        key = gate_key
        if not run:
            run = {string: coeff for string, coeff in terms if coeff != 0}
            continue
        for string, coeff in terms:
            coeff = run.get(string, 0.0) + coeff
            if coeff != 0:
                run[string] = coeff
            else:
                run.pop(string, None)
    if run:
        steps.append(_Step(key[0], 0.0, tuple(run.items())))
    return tuple(steps)


def _weights(step: _Step, n_amps: int) -> np.ndarray:
    """M's entry in every row of the full space, (M 1)_r.  M is X^flip D:
    D's diagonal d is weighed over all states by H's flip-mask rule
    (_mask_sums), and the Pauli-string kernel moves it, w_r = d_{r ^ flip}."""
    d = _mask_sums([(string.z, coeff * pauli_masks(string)[2])
                    for string, coeff in step.terms],
                   _indices(n_amps), n_amps.bit_length() - 1)
    return apply_pauli_string(PauliString.from_masks(_flip(step), 0),
                              d.astype(complex, copy=False))


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


def _check_index(index: int, n_qubits: int) -> None:
    """Refuse an index that names no basis state of n_qubits qubits."""
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range")


def _circuit_plan(circuit: ParamCircuit, initial: int | None) -> _Plan:
    """The circuit's plan from basis state `initial`, cached per sector;
    for None, its plan over all 2**n states.  A grown circuit starts each
    plan from its prefix's steps."""
    if initial is not None:
        _check_index(initial, circuit.n_qubits)
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
    """(rows, c, v, |w| on the rows) with (M amps)[..., rows] = c v: from
    the pairs stored over a sector, else through the Pauli-string kernel."""
    if step.pairs is not None:
        rows, cols, r, w = step.pairs
        return rows, 1.0, w * _take(amps, cols), r
    if len(step.terms) == 1:  # |w| is |coeff| on every row
        (string, coeff), = step.terms
        return slice(None), coeff, apply_pauli_string(string, amps), abs(coeff)
    weights = _weights(step, amps.shape[-1])
    rows = np.flatnonzero(weights)
    w = weights[rows]
    return rows, 1.0, w * _take(amps, rows ^ _flip(step)), np.abs(w)


def _dot(a: np.ndarray, b: np.ndarray):
    """<a|b> over the last axis: np.vdot for one vector, else one stacked
    matmul over C-ordered rows, which gives each row the bits np.vdot
    gives it alone (strided rows would not)."""
    if a.ndim == 1:
        return np.vdot(a, b)
    a, b = np.ascontiguousarray(a.conj()), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _slope(lam: np.ndarray, rows, coeff, moved: np.ndarray):
    """2 Re<lam|M psi>, given M psi on `rows` as coeff * moved (_act)."""
    return 2.0 * (coeff * _dot(_take(lam, rows), moved)).real


def _rotate(amps: np.ndarray, acted: tuple, angle) -> None:
    """exp(angle M) in place, given M amps from _act, which this uses up:
    on each row with w != 0, amp becomes cos(angle |w|) amp +
    sin(angle |w|) (M amp) / |w|.  A batch's angle is an (R, 1) column."""
    rows, coeff, moved, r = acted
    turn = angle * r
    old = _take(amps, rows)  # a view of amps when rows is a slice
    old *= np.cos(turn)
    moved *= coeff * np.sin(turn) / r
    old += moved
    if not isinstance(rows, slice):
        amps[..., rows] = old


def _apply_matrix(amps: np.ndarray, n_qubits: int, targets, u) -> None:
    if len(targets) == 1:
        _apply_single(amps, targets[0], u)
    else:
        _apply_two(amps, n_qubits, *targets, u)


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
    if len(table.fixed):
        angles = np.concatenate((angles, np.broadcast_to(
            table.fixed, angles.shape[:-1] + table.fixed.shape)), axis=-1)
    return _take(angles, table.index) * table.r


def _forward(plan: _Plan, amps: np.ndarray, angles: np.ndarray):
    """Run the plan on amps, one vector with (P,) angles or an (R, D)
    batch with (R, P).  Over a sector, cos and sin / |w| of every row come
    from one pass over the table, and each step gathers, rotates and
    scatters its rows; returns those two float arrays, which the reverse
    sweep reads, or None for a full-space plan."""
    table = plan.table
    if table is None:
        for step in plan.steps:
            if step.matrix is not None:
                _apply_matrix(amps, plan.n_qubits, *step.matrix[:2])
            else:
                _rotate(amps, _act(step, amps), _angle(step, angles))
        return None
    turn = _turns(table, angles)
    factors = np.cos(turn), np.sin(turn) / table.r
    if amps.ndim == 1:  # factors cast to complex once, not per product
        cos, sin = (factor.astype(complex) for factor in factors)
        for span, rows, cols, w in table.sweep:
            moved = w * amps[cols]
            moved *= sin[span]
            old = amps[rows]
            old *= cos[span]
            old += moved
            amps[rows] = old
    else:
        cos, sin = factors
        for span, rows, cols, w in table.sweep:
            amps[:, rows] = (amps.take(rows, axis=1) * cos[:, span]
                             + w * amps.take(cols, axis=1) * sin[:, span])
    return factors


def _reverse(plan: _Plan, psi: np.ndarray, lam: np.ndarray,
             angles: np.ndarray, factors) -> np.ndarray:
    """Undo the plan on [psi, lam], one array, summing the slope
    2 Re<lam|M psi> of each parameterized step into its parameter's
    gradient; one vector each or a batch each, as in _forward, whose
    `factors` a sector plan reads."""
    if plan.table is not None:
        return _reverse_sector(plan.table, psi, lam, angles, factors)
    grad = np.zeros(psi.shape[:-1] + angles.shape[-1:])
    stacked = np.stack((psi, lam))
    for step in reversed(plan.steps):
        if step.matrix is not None:  # targets, U^dagger
            _apply_matrix(stacked, plan.n_qubits, *step.matrix[::2])
            continue
        acted = rows, coeff, moved, _ = _act(step, stacked)
        if step.param >= 0:  # <lam| M |psi>, M the step's generator
            grad[..., step.param] += _slope(stacked[1], rows, coeff, moved[0])
        _rotate(stacked, acted, -_angle(step, angles))
    return grad


def _reverse_sector(table: _Table, psi: np.ndarray, lam: np.ndarray,
                    angles: np.ndarray, factors) -> np.ndarray:
    """_reverse over a sector plan.  psi and lam run as one [psi, lam]
    array per vector, whose doubled rows each step gathers, rotates by cos
    and sin / |w| of -angle, and scatters once.  Those are the forward
    sweep's `factors`, cos and -(sin / |w|): NumPy's cos is even and its
    sin odd, bit for bit, so they are the bits a pass over -angle gives.
    The sine is negated as floats, before any cast, since -(s + 0j) would
    be (-s, -0.0).  The slope reads the lam and M psi halves of what it
    gathered, so np.vdot and _dot see the operands a sweep of psi and lam
    one at a time would give them."""
    cos, sin = factors
    cos, sin = _take(cos, table.twice), _take(-sin, table.twice)
    stacked = np.concatenate((psi, lam), axis=-1)
    if psi.ndim == 1:  # complex factors and float slopes, as in _forward
        cos, sin = cos.astype(complex), sin.astype(complex)
        slopes = [0.0] * angles.shape[-1]
        for param, span, k, rows, cols, w in reversed(table.doubled):
            old, moved = stacked[rows], w * stacked[cols]
            if param >= 0:  # <lam| M |psi>, M the step's generator
                slopes[param] += 2.0 * float(np.vdot(old[k:], moved[:k]).real)
            moved *= sin[span]
            old *= cos[span]
            old += moved
            stacked[rows] = old
        return np.array(slopes)
    grad = np.zeros(psi.shape[:-1] + angles.shape[-1:])
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


def _run(circuit: ParamCircuit, angles: np.ndarray, initial: int) -> tuple:
    """The circuit's plan from `initial`, the state it prepares over the
    plan's basis at (P,) angles, or one per row of (R, P) angles, and the
    forward sweep's factors (_forward)."""
    plan = _circuit_plan(circuit, initial)
    amps = _start(plan, initial, angles.shape[:-1])
    return plan, amps, _forward(plan, amps, angles)


def _adjoint(circuit: ParamCircuit, h: QubitOperator, angles: np.ndarray,
             initial: int):
    """<h> and its gradient at (P,) angles or an (R, P) batch: a forward
    sweep, h as one compiled-sum product, a reverse sweep."""
    plan, psi, factors = _run(circuit, angles, initial)
    lam = compiled_sum(h, plan.n_qubits, plan.basis) @ psi
    return _dot(psi, lam), _reverse(plan, psi, lam, angles, factors)


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


def apply_circuit(circuit: ParamCircuit, angles,
                  initial: int = 0) -> np.ndarray:
    """The 2**n amplitudes the circuit prepares from a basis state."""
    plan, amps, _ = _run(circuit, _angles(circuit, angles), initial)
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


def term_expectations(h: QubitOperator, amps: np.ndarray) -> np.ndarray:
    """<c_k Q_k> at the state for each term of h, in h.terms order, so
    they sum to <h>.  The terms of one flip mask share the product
    conj(amps[s ^ flip]) amps[s], summed per term with its signs."""
    amps = np.asarray(amps, dtype=complex)  # a real state included
    n = _n_qubits(amps)
    states, signs = _indices(1 << n), _sign_table(n)  # s & yz < 2**n
    flips, yz = _masks(h.terms)
    outside = np.flatnonzero((flips | yz) >> n)
    if outside.size:
        raise ValueError(f"{list(h.terms)[outside[0]]} acts outside a "
                         f"{n}-qubit state")
    weights = np.fromiter((coeff * pauli_masks(string)[2]
                           for string, coeff in h.terms.items()), complex)
    out = np.empty(len(h.terms))
    for flip in sorted(set(flips.tolist())):  # np.unique loads numpy.ma
        rows = np.flatnonzero(flips == flip)
        product = (amps[states ^ flip].conj() * amps).view(float)
        sums = (signs.take(states & yz[rows, None])
                @ product.reshape(-1, 2))  # real and imaginary parts
        out[rows] = (weights[rows] * (sums[:, 0] + 1j * sums[:, 1])).real
    return out


def basis_expectation(h: QubitOperator, n_qubits: int, index: int) -> float:
    """<index|h|index>, read off h's matrix over the state's (N, 2Sz)
    sector, the one a plan from that state compiles h over."""
    _check_index(index, n_qubits)
    basis = sector_indices(n_qubits, *_state_sector(index))
    diagonal = compiled_sum(h, n_qubits, basis).diagonal()
    return _real(diagonal[np.searchsorted(basis, index)])


def adjoint_gradient(circuit: ParamCircuit, h: QubitOperator, angles,
                     initial: int = 0):
    """Energy and dE/d(parameter) via one forward and one reverse sweep of
    the circuit's plan; h acts through its matrix over the plan's basis.
    At (P,) angles: (energy, (P,) gradient).  At an (R, P) batch: ((R,)
    energies, (R, P) gradient), each row with the bits its own (P,) call
    gives it: one or two rows run as vectors (two cost 1.4-1.6x that as a
    batch), more through one pair of sweeps over the (R, D) states."""
    angles = _angles(circuit, angles, batch=True)
    if angles.ndim == 2 and len(angles) <= 2:  # faster as vectors
        rows = [_adjoint(circuit, h, row, initial) for row in angles]
        return (np.array([_real(energy) for energy, _ in rows]),
                np.array([grad for _, grad in rows]))
    energy, grad = _adjoint(circuit, h, angles, initial)
    if angles.ndim == 1:
        return _real(energy), grad
    return np.array([_real(e) for e in energy]), grad


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
                        ) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy of the circuit's state psi, per pool parameter in
    pool.param_names order the slope 2 Re<h psi|M psi> of appending its
    gates at zero, h applied once over the pool plan's basis (the sector
    when both keep it, else all 2**n), and psi over that basis: the
    sector's amplitudes in sector_indices order, else all 2**n as
    apply_circuit gives them.  A pool with a gate that binds no parameter
    is refused."""
    if any(step.param < 0 for step in _circuit_plan(pool, None).steps):
        raise ValueError("every pool gate must bind a parameter")
    plan, psi, _ = _run(circuit, _angles(circuit, angles), initial)
    screen = _circuit_plan(pool, None if plan.basis is None else initial)
    if screen.basis is None:  # a sector circuit screened over all states
        psi = _scatter(plan, psi)
    lam = compiled_sum(h, circuit.n_qubits, screen.basis) @ psi
    slopes = np.zeros(pool.n_params)
    for step in screen.steps:
        slopes[step.param] += _slope(lam, *_act(step, psi)[:3])
    return _real(np.vdot(psi, lam)), slopes, psi
