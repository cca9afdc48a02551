"""Molecular Hamiltonians: FCIDUMP ingestion, qubit mapping, exact references.

Spin orbitals are interleaved: spatial orbital p maps to qubit 2p (alpha)
and 2p+1 (beta).  Exact ground energies diagonalize the Hamiltonian's
compiled matrix over the full space or a particle-number / spin-z sector:
densely when small, else by restarted Lanczos (SciPy) on its CSR arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .operators import (
    COEFF_TOLERANCE,
    FermionOperator,
    QubitOperator,
    hermiticity_check,
    jordan_wigner,
)
from .seeds import SeedStream
from .simulator import (
    basis_expectation,
    check_qubits,
    compiled_sum,
    pauli_sum_csr,
    sector_indices,
)

SYMMETRY_TOLERANCE = 1e-10
# references over more than 2**DENSE_QUBIT_LIMIT basis states run Lanczos:
# a dense matrix over d states is 16 * d**2 bytes, 16.8 MB at d = 1024
DENSE_QUBIT_LIMIT = 10
LANCZOS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class IntegralData:
    """One- and two-electron integrals over spatial orbitals (Hartree)."""

    n_spatial: int
    n_electrons: int
    ms2: int
    core_energy: float
    h1: np.ndarray
    g2: np.ndarray  # chemists' notation (pq|rs)

    def __post_init__(self):
        for name in ("core_energy", "h1", "g2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} holds a non-finite value")
        if np.max(np.abs(self.h1 - self.h1.T)) > SYMMETRY_TOLERANCE:
            raise ValueError("h1 is not symmetric")
        g = self.g2
        for permuted in (g.transpose(1, 0, 2, 3), g.transpose(0, 1, 3, 2),
                         g.transpose(2, 3, 0, 1)):
            if np.max(np.abs(g - permuted)) > SYMMETRY_TOLERANCE:
                raise ValueError("g2 violates 8-fold symmetry")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_spatial


def parse_fcidump(text: str) -> IntegralData:
    """Parse the FCIDUMP convention: namelist header then `value i j k l` lines."""
    lines = text.splitlines()
    header_lines = []
    body_start = 0
    for i, line in enumerate(lines):
        header_lines.append(line)
        if "&END" in line.upper() or line.strip() == "/":
            body_start = i + 1
            break
    else:
        raise ValueError("FCIDUMP header not terminated")
    header = " ".join(header_lines)

    def header_int(key):
        match = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        return int(match.group(1)) if match else None

    n_spatial = header_int("NORB")
    n_electrons = header_int("NELEC")
    if n_spatial is None or n_electrons is None:
        raise ValueError("FCIDUMP header missing NORB or NELEC")
    ms2 = header_int("MS2") or 0
    if n_spatial < 1:
        raise ValueError(f"FCIDUMP header NORB={n_spatial}: at least one "
                         "orbital is needed")
    if not 0 <= n_electrons <= 2 * n_spatial:
        raise ValueError(f"FCIDUMP header NELEC={n_electrons}: NORB="
                         f"{n_spatial} holds 0 to {2 * n_spatial} electrons")

    core_energy = 0.0
    h1 = np.zeros((n_spatial, n_spatial))
    g2 = np.zeros((n_spatial, n_spatial, n_spatial, n_spatial))
    for line in lines[body_start:]:
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise ValueError(f"malformed FCIDUMP line: {line!r}")
        try:
            value = float(tokens[0])
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise ValueError(f"non-numeric FCIDUMP line: {line!r}") from exc
        if not math.isfinite(value):
            raise ValueError(f"non-finite FCIDUMP value: {line!r}")
        if max(i, j, k, l) > n_spatial:
            raise ValueError(f"orbital index exceeds NORB={n_spatial}: {line!r}")
        if i == j == k == l == 0:
            core_energy = value
        elif k == 0 and l == 0 and i > 0 and j > 0:
            h1[i - 1, j - 1] = h1[j - 1, i - 1] = value
        elif min(i, j, k, l) > 0:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    g2[a, b, c, d] = value
                    g2[c, d, a, b] = value
        else:
            raise ValueError(f"unsupported index pattern: {line!r}")
    return IntegralData(n_spatial, n_electrons, ms2, core_energy, h1, g2)


def load_fcidump(path: str | Path) -> IntegralData:
    return parse_fcidump(Path(path).read_text())


def build_fermionic_hamiltonian(data: IntegralData) -> FermionOperator:
    """Second-quantized Hamiltonian over interleaved spin orbitals.

    Each raw term is normal-ordered where it is made, as
    FermionOperator.from_term would order it: the two creations and the
    two annihilations each descending, one sign flip per swap, zero for a
    repeated mode in either pair.  Terms at or below COEFF_TOLERANCE are
    pruned one by one, then all are summed."""
    n = data.n_spatial

    def terms():
        if data.core_energy:
            yield (), complex(data.core_energy)
        for p, q in product(range(n), repeat=2):
            h = complex(data.h1[p, q])
            if abs(h) > COEFF_TOLERANCE:
                for spin in (0, 1):
                    yield ((2 * p + spin, True), (2 * q + spin, False)), h
        for p, q, r, s in product(range(n), repeat=4):
            g = 0.5 * data.g2[p, q, r, s]
            if abs(g) > COEFF_TOLERANCE:
                for sp, tau in product((0, 1), repeat=2):
                    # the raw term a†_c1 a†_c2 a_a1 a_a2
                    c1, c2 = 2 * p + sp, 2 * r + tau
                    a1, a2 = 2 * s + tau, 2 * q + sp
                    if c1 != c2 and a1 != a2:
                        yield (((max(c1, c2), True), (min(c1, c2), True),
                                (max(a1, a2), False), (min(a1, a2), False)),
                               complex(g if (c1 < c2) == (a1 < a2) else -g))

    return FermionOperator.summed(terms())


def qubit_hamiltonian(data: IntegralData) -> QubitOperator:
    return jordan_wigner(build_fermionic_hamiltonian(data), data.n_qubits)


def hf_state_index(n_qubits: int, n_electrons: int) -> int:
    """Basis index of the determinant filling the lowest spin orbitals."""
    if n_electrons > n_qubits:
        raise ValueError("more electrons than spin orbitals")
    return (1 << n_electrons) - 1


def operator_matrix(h: QubitOperator, n_qubits: int,
                    basis: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of h, optionally restricted to a list of basis states."""
    return compiled_sum(h, n_qubits, basis).toarray()


def exact_ground_energy(h: QubitOperator, n_qubits: int,
                        sector: tuple[int, int | None] | None = None) -> float:
    """Lowest eigenvalue of h, the FCI energy when h is a molecular Hamiltonian.

    With a (n_electrons, ms2) sector the diagonalization runs in that
    occupation block, which matches the full minimum for particle-conserving
    Hamiltonians whose ground state lies in the sector.  A basis (the
    sector, else the full space) of at most 2**DENSE_QUBIT_LIMIT states is
    diagonalized densely; a larger one runs Lanczos on h's CSR matrix from
    one fixed start vector, so every call gives the same bits.
    """
    if not hermiticity_check(h, 1e-9):
        raise ValueError("Hamiltonian is not Hermitian")
    check_qubits(n_qubits)
    basis = None if sector is None else sector_indices(n_qubits, *sector)
    size = 1 << n_qubits if basis is None else len(basis)
    if size == 0:
        raise ValueError("empty sector")
    if size <= 1 << DENSE_QUBIT_LIMIT:
        return float(np.linalg.eigvalsh(operator_matrix(h, n_qubits, basis))[0])
    # only here: SciPy adds about 0.15 s and 18 MB to a process's start
    import scipy.sparse
    import scipy.sparse.linalg

    # the CSR arrays alone, kept on nothing: eigsh never reads the
    # product's slots, 2.7 MB of them on LiH's 4,096-state full space
    csr = scipy.sparse.csr_array(pauli_sum_csr(h, n_qubits, basis),
                                 shape=(size, size))
    # a fixed random start: ARPACK's own carries over between calls, and a
    # constant vector could be orthogonal to the ground state by symmetry
    start = SeedStream((size,)).uniform(-1.0, 1.0, size)
    vals = scipy.sparse.linalg.eigsh(csr, k=1, which="SA", v0=start,
                                     tol=LANCZOS_TOLERANCE,
                                     return_eigenvectors=False)
    return float(vals[0])


def hf_energy(h: QubitOperator, n_qubits: int, n_electrons: int) -> float:
    """Energy of the Hartree-Fock determinant under h: the diagonal entry
    of h's matrix over the determinant's sector, shared with the exact
    reference and with circuit plans starting there."""
    return basis_expectation(h, n_qubits, hf_state_index(n_qubits,
                                                         n_electrons))


# ---------------------------------------------------------------------------
# Bundled fixture molecules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoleculeSpec:
    """A named molecule with FCIDUMP files per bond length."""

    name: str
    bond_lengths: tuple[float, ...]
    fcidump_paths: dict[float, Path] = field(compare=False)

    def __post_init__(self):
        for r, path in self.fcidump_paths.items():
            if not Path(path).exists():
                raise FileNotFoundError(f"{self.name} r={r}: {path}")

    def integrals(self, bond_length: float) -> IntegralData:
        return load_fcidump(self.fcidump_paths[bond_length])


def fixtures_root() -> Path:
    return Path(resources.files("vqe_bench")) / "fixtures"


def molecule_from_dir(name: str, directory: str | Path) -> MoleculeSpec:
    """The FCIDUMP files under `directory`, named by their bond lengths;
    a name that is no finite number, or a length met twice, is refused."""
    directory = Path(directory)
    paths = {}
    for path in sorted(directory.glob("*.fcidump")):
        try:
            r = float(path.stem)
        except ValueError:
            r = math.nan
        if not math.isfinite(r):
            raise ValueError(f"{path}: the file name is not a bond length")
        if r in paths:
            raise ValueError(f"{path}: bond length {r} is already read from "
                             f"{paths[r]}")
        paths[r] = path
    if not paths:
        raise FileNotFoundError(f"no FCIDUMP files under {directory}")
    return MoleculeSpec(name=name, bond_lengths=tuple(sorted(paths)),
                        fcidump_paths=paths)


def bundled_molecule(name: str) -> MoleculeSpec:
    return molecule_from_dir(name, fixtures_root() / name)


def bundled_molecules() -> list[str]:
    return sorted(p.name for p in fixtures_root().iterdir() if p.is_dir())
