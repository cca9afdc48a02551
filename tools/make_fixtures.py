"""Generate the bundled FCIDUMP fixtures (STO-3G, RHF molecular orbitals).

Standalone tool: computes Gaussian integrals with the McMurchie-Davidson
scheme, runs a closed-shell RHF, transforms the integrals to the MO basis
and writes FCIDUMP files under src/vqe_bench/fixtures/.  The package never
imports this module; it only reads the emitted files.

With --check nothing is written: each bundled FCIDUMP is read back with
the package's parser, and its core energy and the closed-shell HF energy
of its integrals, E_core + sum_i 2 h_ii + sum_ij (2 (ii|jj) - (ij|ji))
over occupied orbitals, are compared with E_nuc and E_HF of a fresh SCF.
The exit status is 1 when any of them differs by more than
CHECK_TOLERANCE.

Usage: python3 tools/make_fixtures.py [--check]
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp1f1

ANGSTROM_TO_BOHR = 1.8897259886
CHECK_TOLERANCE = 1e-7  # Hartree

# STO-3G exponents/contractions (Basis Set Exchange).
STO3G = {
    "H": [("S", [3.425250914, 0.6239137298, 0.1688554040],
           [0.1543289673, 0.5353281423, 0.4446345422])],
    "Li": [("S", [16.11957475, 2.936200663, 0.7946504870],
            [0.1543289673, 0.5353281423, 0.4446345422]),
           ("SP", [0.6362897469, 0.1478600533, 0.0480886784],
            [-0.09996722919, 0.3995128261, 0.7001154689],
            [0.1559162750, 0.6076837186, 0.3919573931])],
}

CHARGES = {"H": 1, "Li": 3}


@dataclass
class Primitive:
    exponent: float
    coefficient: float


@dataclass
class BasisFunction:
    center: np.ndarray
    lmn: tuple
    exponents: list
    coefficients: list  # includes primitive norms; renormalized after build

    def normalize(self):
        l, m, n = self.lmn
        norms = []
        for a in self.exponents:
            norms.append(math.sqrt(
                (2 * a / math.pi) ** 1.5 * (4 * a) ** (l + m + n)
                / (df(2 * l - 1) * df(2 * m - 1) * df(2 * n - 1))))
        self.coefficients = [c * nrm for c, nrm in zip(self.coefficients, norms)]
        s = 0.0
        for ca, aa in zip(self.coefficients, self.exponents):
            for cb, ab in zip(self.coefficients, self.exponents):
                s += ca * cb * overlap_prim(aa, self.lmn, self.center,
                                            ab, self.lmn, self.center)
        self.coefficients = [c / math.sqrt(s) for c in self.coefficients]


def df(k):
    """Double factorial with df(-1) = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def hermite_e(i, j, t, q_x, a, b):
    """Hermite Gaussian expansion coefficient E_t^{ij} (1D)."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-q * q_x * q_x)
    if j == 0:
        return (hermite_e(i - 1, j, t - 1, q_x, a, b) / (2 * p)
                - q * q_x / a * hermite_e(i - 1, j, t, q_x, a, b)
                + (t + 1) * hermite_e(i - 1, j, t + 1, q_x, a, b))
    return (hermite_e(i, j - 1, t - 1, q_x, a, b) / (2 * p)
            + q * q_x / b * hermite_e(i, j - 1, t, q_x, a, b)
            + (t + 1) * hermite_e(i, j - 1, t + 1, q_x, a, b))


def overlap_prim(a, lmn1, ra, b, lmn2, rb):
    p = a + b
    s = 1.0
    for k in range(3):
        s *= hermite_e(lmn1[k], lmn2[k], 0, ra[k] - rb[k], a, b)
    return s * (math.pi / p) ** 1.5


def kinetic_prim(a, lmn1, ra, b, lmn2, rb):
    l2, m2, n2 = lmn2
    term0 = b * (2 * (l2 + m2 + n2) + 3) * overlap_prim(a, lmn1, ra, b, lmn2, rb)
    term1 = -2 * b ** 2 * (
        overlap_prim(a, lmn1, ra, b, (l2 + 2, m2, n2), rb)
        + overlap_prim(a, lmn1, ra, b, (l2, m2 + 2, n2), rb)
        + overlap_prim(a, lmn1, ra, b, (l2, m2, n2 + 2), rb))
    term2 = -0.5 * (
        l2 * (l2 - 1) * overlap_prim(a, lmn1, ra, b, (l2 - 2, m2, n2), rb)
        + m2 * (m2 - 1) * overlap_prim(a, lmn1, ra, b, (l2, m2 - 2, n2), rb)
        + n2 * (n2 - 1) * overlap_prim(a, lmn1, ra, b, (l2, m2, n2 - 2), rb))
    return term0 + term1 + term2


def boys(n, t):
    return hyp1f1(n + 0.5, n + 1.5, -t) / (2.0 * n + 1.0)


def hermite_r(t, u, v, n, p, pc, rpc):
    if t == u == v == 0:
        return (-2.0 * p) ** n * boys(n, p * rpc * rpc)
    if t == u == 0:
        val = 0.0
        if v > 1:
            val += (v - 1) * hermite_r(t, u, v - 2, n + 1, p, pc, rpc)
        return val + pc[2] * hermite_r(t, u, v - 1, n + 1, p, pc, rpc)
    if t == 0:
        val = 0.0
        if u > 1:
            val += (u - 1) * hermite_r(t, u - 2, v, n + 1, p, pc, rpc)
        return val + pc[1] * hermite_r(t, u - 1, v, n + 1, p, pc, rpc)
    val = 0.0
    if t > 1:
        val += (t - 1) * hermite_r(t - 2, u, v, n + 1, p, pc, rpc)
    return val + pc[0] * hermite_r(t - 1, u, v, n + 1, p, pc, rpc)


def nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc):
    p = a + b
    rp = (a * ra + b * rb) / p
    pc = rp - rc
    rpc = np.linalg.norm(pc)
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    val = 0.0
    for t in range(l1 + l2 + 1):
        et = hermite_e(l1, l2, t, ra[0] - rb[0], a, b)
        for u in range(m1 + m2 + 1):
            eu = hermite_e(m1, m2, u, ra[1] - rb[1], a, b)
            for v in range(n1 + n2 + 1):
                ev = hermite_e(n1, n2, v, ra[2] - rb[2], a, b)
                val += et * eu * ev * hermite_r(t, u, v, 0, p, pc, rpc)
    return 2.0 * math.pi / p * val


def eri_prim(a, lmn1, ra, b, lmn2, rb, c, lmn3, rc, d, lmn4, rd):
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    l3, m3, n3 = lmn3
    l4, m4, n4 = lmn4
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * ra + b * rb) / p
    rq = (c * rc + d * rd) / q
    pq = rp - rq
    rpq = np.linalg.norm(pq)
    val = 0.0
    for t in range(l1 + l2 + 1):
        e1 = hermite_e(l1, l2, t, ra[0] - rb[0], a, b)
        for u in range(m1 + m2 + 1):
            e2 = hermite_e(m1, m2, u, ra[1] - rb[1], a, b)
            for v in range(n1 + n2 + 1):
                e3 = hermite_e(n1, n2, v, ra[2] - rb[2], a, b)
                for tau in range(l3 + l4 + 1):
                    e4 = hermite_e(l3, l4, tau, rc[0] - rd[0], c, d)
                    for nu in range(m3 + m4 + 1):
                        e5 = hermite_e(m3, m4, nu, rc[1] - rd[1], c, d)
                        for phi in range(n3 + n4 + 1):
                            e6 = hermite_e(n3, n4, phi, rc[2] - rd[2], c, d)
                            val += (e1 * e2 * e3 * e4 * e5 * e6
                                    * (-1.0) ** (tau + nu + phi)
                                    * hermite_r(t + tau, u + nu, v + phi, 0,
                                                alpha, pq, rpq))
    val *= 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
    return val


def contracted(fn, bf1, bf2, *extra):
    val = 0.0
    for c1, a1 in zip(bf1.coefficients, bf1.exponents):
        for c2, a2 in zip(bf2.coefficients, bf2.exponents):
            val += c1 * c2 * fn(a1, bf1.lmn, bf1.center, a2, bf2.lmn,
                                bf2.center, *extra)
    return val


def contracted_eri(b1, b2, b3, b4):
    val = 0.0
    for c1, a1 in zip(b1.coefficients, b1.exponents):
        for c2, a2 in zip(b2.coefficients, b2.exponents):
            for c3, a3 in zip(b3.coefficients, b3.exponents):
                for c4, a4 in zip(b4.coefficients, b4.exponents):
                    val += c1 * c2 * c3 * c4 * eri_prim(
                        a1, b1.lmn, b1.center, a2, b2.lmn, b2.center,
                        a3, b3.lmn, b3.center, a4, b4.lmn, b4.center)
    return val


def build_basis(atoms):
    basis = []
    for symbol, center in atoms:
        for shell in STO3G[symbol]:
            kind, exps = shell[0], shell[1]
            if kind == "S":
                bf = BasisFunction(center, (0, 0, 0), exps, list(shell[2]))
                bf.normalize()
                basis.append(bf)
            elif kind == "SP":
                bf = BasisFunction(center, (0, 0, 0), exps, list(shell[2]))
                bf.normalize()
                basis.append(bf)
                for lmn in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                    bp = BasisFunction(center, lmn, exps, list(shell[3]))
                    bp.normalize()
                    basis.append(bp)
    return basis


def integrals(atoms):
    basis = build_basis(atoms)
    nb = len(basis)
    s = np.zeros((nb, nb))
    t = np.zeros((nb, nb))
    v = np.zeros((nb, nb))
    for i in range(nb):
        for j in range(i + 1):
            s[i, j] = s[j, i] = contracted(overlap_prim, basis[i], basis[j])
            t[i, j] = t[j, i] = contracted(kinetic_prim, basis[i], basis[j])
            vij = 0.0
            for symbol, center in atoms:
                vij -= CHARGES[symbol] * contracted(nuclear_prim, basis[i],
                                                    basis[j], center)
            v[i, j] = v[j, i] = vij
    eri = np.zeros((nb, nb, nb, nb))
    pairs = [(i, j) for i in range(nb) for j in range(i + 1)]
    for idx, (i, j) in enumerate(pairs):
        for k, l in pairs[:idx + 1]:
            val = contracted_eri(basis[i], basis[j], basis[k], basis[l])
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    eri[a, b, c, d] = val
                    eri[c, d, a, b] = val
    e_nuc = 0.0
    for i, (sym1, r1) in enumerate(atoms):
        for sym2, r2 in atoms[:i]:
            e_nuc += CHARGES[sym1] * CHARGES[sym2] / np.linalg.norm(r1 - r2)
    return s, t + v, eri, e_nuc


def rhf(s, hcore, eri, e_nuc, n_electrons, max_iter=500, tol=1e-11):
    """Closed-shell RHF with DIIS; returns (total energy, MO coefficients)."""
    n_occ = n_electrons // 2
    svals, svecs = np.linalg.eigh(s)
    x = svecs @ np.diag(svals ** -0.5) @ svecs.T
    d = np.zeros_like(s)
    c = None
    fock_list, err_list = [], []
    for it in range(max_iter):
        j = np.einsum("pqrs,rs->pq", eri, d)
        k = np.einsum("prqs,rs->pq", eri, d)
        f = hcore + j - 0.5 * k
        energy = 0.5 * np.sum(d * (hcore + f)) + e_nuc
        err = x.T @ (f @ d @ s - s @ d @ f) @ x
        if it > 0 and np.max(np.abs(err)) < tol:
            return energy, c
        if np.max(np.abs(err)) > 1e-14:
            fock_list.append(f)
            err_list.append(err.ravel())
            if len(fock_list) > 8:
                fock_list.pop(0)
                err_list.pop(0)
        if len(fock_list) > 1:
            m = len(fock_list)
            bmat = np.empty((m + 1, m + 1))
            bmat[:m, :m] = np.array(err_list) @ np.array(err_list).T
            bmat[m, :] = bmat[:, m] = -1.0
            bmat[m, m] = 0.0
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            w = np.linalg.lstsq(bmat, rhs, rcond=None)[0][:m]
            if np.all(np.isfinite(w)):
                f = sum(wi * fi for wi, fi in zip(w, fock_list))
        fp = x.T @ f @ x
        _, cp = np.linalg.eigh(fp)
        c = x @ cp
        d = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    raise RuntimeError(f"SCF not converged (last E = {energy:.10f})")


def mo_integrals(hcore, eri, c):
    h1 = c.T @ hcore @ c
    g = np.einsum("pqrs,pi->iqrs", eri, c, optimize=True)
    g = np.einsum("iqrs,qj->ijrs", g, c, optimize=True)
    g = np.einsum("ijrs,rk->ijks", g, c, optimize=True)
    g = np.einsum("ijks,sl->ijkl", g, c, optimize=True)
    return h1, g


def write_fcidump(path, h1, g2, e_core, n_electrons, ms2=0, tol=1e-12):
    n = h1.shape[0]
    lines = [f" &FCI NORB={n},NELEC={n_electrons},MS2={ms2},",
             "  ORBSYM=" + "1," * n,
             "  ISYM=1,",
             " &END"]
    pair = lambda i, j: i * (i + 1) // 2 + j
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    val = g2[i, j, k, l]
                    if abs(val) > tol:
                        lines.append(f" {val:.16e} {i+1} {j+1} {k+1} {l+1}")
    for i in range(n):
        for j in range(i + 1):
            if abs(h1[i, j]) > tol:
                lines.append(f" {h1[i, j]:.16e} {i+1} {j+1} 0 0")
    lines.append(f" {e_core:.16e} 0 0 0 0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def h_chain(n, spacing_angstrom):
    d = spacing_angstrom * ANGSTROM_TO_BOHR
    return [("H", np.array([0.0, 0.0, i * d])) for i in range(n)]


def lih(bond_angstrom):
    d = bond_angstrom * ANGSTROM_TO_BOHR
    return [("Li", np.array([0.0, 0.0, 0.0])), ("H", np.array([0.0, 0.0, d]))]


MOLECULES = {
    "H2": ([0.7414], lambda r: h_chain(2, r), 2),
    "H4": ([0.8, 1.0, 1.2, 1.5, 1.8], lambda r: h_chain(4, r), 4),
    "LiH": ([1.2, 1.6, 2.0], lambda r: lih(r), 4),
}


def fcidump_hf_energy(data):
    """Closed-shell determinant energy of an FCIDUMP's own integrals."""
    occ = range(data.n_electrons // 2)
    return (data.core_energy + sum(2.0 * data.h1[i, i] for i in occ)
            + sum(2.0 * data.g2[i, i, j, j] - data.g2[i, j, j, i]
                  for i in occ for j in occ))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true",
                        help="compare the bundled FCIDUMPs with a fresh SCF, "
                             "write nothing; exit 1 on a mismatch")
    args = parser.parse_args()
    repo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    root = os.path.join(repo, "src", "vqe_bench", "fixtures")
    if args.check:
        sys.path.insert(0, os.path.join(repo, "src"))
        from vqe_bench.hamiltonian import load_fcidump
    mismatches = 0
    for name, (bonds, geom, nelec) in MOLECULES.items():
        outdir = os.path.join(root, name)
        for r in bonds:
            atoms = geom(r)
            s, hcore, eri, e_nuc = integrals(atoms)
            e_hf, c = rhf(s, hcore, eri, e_nuc, nelec)
            path = os.path.join(outdir, f"{r}.fcidump")
            print(f"{name} r={r}: E_nuc={e_nuc:.6f}  E_HF={e_hf:.8f}")
            if args.check:
                data = load_fcidump(path)
                stored = (data.core_energy, fcidump_hf_energy(data))
                for label, fresh, value in zip(("E_nuc", "E_HF"),
                                               (e_nuc, e_hf), stored):
                    if abs(fresh - value) > CHECK_TOLERANCE:
                        mismatches += 1
                        print(f"  MISMATCH {label}: SCF {fresh:.10f}, "
                              f"{os.path.relpath(path)} {value:.10f}")
                continue
            h1, g2 = mo_integrals(hcore, eri, c)
            os.makedirs(outdir, exist_ok=True)
            write_fcidump(path, h1, g2, e_nuc, nelec)
            print(f"  wrote {os.path.relpath(path)}")
    if mismatches:
        print(f"{mismatches} value(s) differ by more than {CHECK_TOLERANCE} Ha")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
