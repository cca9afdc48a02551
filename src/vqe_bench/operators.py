"""Sparse algebra for fermionic operators and Pauli-string operators.

Both operator types are linear combinations of keyed terms sharing one
rule: like keys are summed, then coefficients at or below
COEFF_TOLERANCE are pruned once per constructed operator.
FermionOperator keys are normal-ordered products of creation/annihilation
factors; QubitOperator keys are Pauli strings.

A Pauli string is held in the symplectic form of Aaronson & Gottesman
(2004): two integer bit masks, x marking its X and Y factors and z its
Y and Z factors, bit q for qubit q.  With S(x, z) = i^|x&z| X^x Z^z
(|m| the popcount of m), a product of strings is

    S(x1, z1) S(x2, z2) = i^(|x1&z1| + |x2&z2| - |x3&z3| + 2|z1&x2|) S(x3, z3)

with x3 = x1 ^ x2 and z3 = z1 ^ z2.  String and operator products run on
(x, z) integer keys through that one rule.  The Jordan-Wigner image of a
ladder product depends on its modes only through their rank order, so
each pattern (ranks, dagger flags, Z chains or none) is expanded by that
rule once, as a template, and every product is read off its pattern's
template: x is the XOR of its mode bits, and each term's z the XOR of
their Z chains and the mode bits its template entry picks.  A string
keeps its hash, qubits, label and a sort key in its labels' order.  All
values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from numbers import Integral
from operator import attrgetter, index
from typing import Iterable, Iterator, Mapping

COEFF_TOLERANCE = 1e-12

_AXES = ("X", "Y", "Z")
_AXIS_OF_BITS = (None, "X", "Z", "Y")  # indexed by x bit + 2 * z bit
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@lru_cache(maxsize=None)
def _factors(nibble: int, bits: int) -> tuple[tuple, tuple]:
    """Qubits and label tokens of the factors on qubits 4 nibble + (0 to
    3) with x bits bits & 15 and z bits bits >> 4."""
    factors = [(4 * nibble + q, (bits >> q & 1) | (bits >> q + 4 & 1) << 1)
               for q in range(4) if bits >> q & 17]
    return (tuple(q for q, _ in factors),
            tuple(f"{_AXIS_OF_BITS[axis]}{q}" for q, axis in factors))


class _kept:
    """A property worked out on first use and kept in the instance's
    __dict__, which then shadows it: functools.cached_property without
    the lock Python 3.11 takes on every first use."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


@dataclass(frozen=True, init=False)
class PauliString:
    """Product of X/Y/Z factors on distinct qubits; the empty product is I.

    Built from (qubit, axis) factors and stored as the masks x and z, its
    only fields; its hash (that of (x, z)), qubits, label and sort key are
    worked out on first use and kept on it, outside equality and pickling.
    """

    x: int = 0
    z: int = 0

    def __init__(self, ops: Iterable[tuple[int, str]] = ()):
        x = z = 0
        for qubit, axis in ops:
            if (isinstance(qubit, bool) or not isinstance(qubit, Integral)
                    or qubit < 0 or axis not in _AXES):
                raise ValueError(f"bad Pauli factor ({qubit!r}, {axis!r})")
            bit = 1 << int(qubit)
            if (x | z) & bit:
                raise ValueError(f"duplicate qubit index {qubit}")
            if axis != "Z":
                x |= bit
            if axis != "X":
                z |= bit
        self.__dict__.update(x=x, z=z, _hash=hash((x, z)))

    @classmethod
    def from_masks(cls, x: int, z: int) -> "PauliString":
        """The string with masks x and z, unvalidated."""
        string = object.__new__(cls)
        fields = string.__dict__
        fields["x"], fields["z"], fields["_hash"] = x, z, hash((x, z))
        return string

    @classmethod
    def from_mapping(cls, ops: Mapping[int, str]) -> "PauliString":
        return cls(ops.items())

    def axis_on(self, qubit: int) -> str | None:
        return _AXIS_OF_BITS[(self.x >> qubit & 1) | (self.z >> qubit & 1) << 1]

    @_kept
    def _nibbled(self) -> tuple[tuple, tuple]:
        """Its qubits and label tokens, joined over nibbles."""
        x, z, nibble, qubits, tokens = self.x, self.z, 0, (), ()
        while x | z:
            more_qubits, more_tokens = _factors(nibble, x & 15 | (z & 15) << 4)
            qubits, tokens = qubits + more_qubits, tokens + more_tokens
            x, z, nibble = x >> 4, z >> 4, nibble + 1
        return qubits, tokens

    qubits = property(lambda self: self._nibbled[0],
                      doc="Qubits carrying a factor, ascending.")

    @property
    def ops(self) -> tuple[tuple[int, str], ...]:
        """(qubit, axis) factors, ascending by qubit."""
        return tuple((q, self.axis_on(q)) for q in self.qubits)

    def max_qubit(self) -> int:
        return (self.x | self.z).bit_length() - 1

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def strip_z(self) -> "PauliString":
        return PauliString.from_masks(self.x, self.z & self.x)

    @_kept
    def _label(self) -> str:
        return " ".join(self._nibbled[1]) or "I"

    # its tokens, which sort as the label does: " " sorts before them all
    _position = property(lambda self: self._nibbled[1])

    @_kept
    def _hash(self) -> int:
        return hash((self.x, self.z))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        """The masks alone, so a string pickles the same whether or not
        its hash, qubits, label or sort key were read."""
        return {"x": self.x, "z": self.z}

    def __repr__(self) -> str:
        return f"PauliString({self.ops!r})"

    def __str__(self) -> str:
        return self._label


def _mask_product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """S(x1, z1) S(x2, z2) as (power of i, x, z), by the module's phase rule."""
    x, z = x1 ^ x2, z1 ^ z2
    power = ((x1 & z1).bit_count() + (x2 & z2).bit_count()
             - (x & z).bit_count() + 2 * (z1 & x2).bit_count()) % 4
    return power, x, z


def parse_pauli_string(text: str) -> PauliString:
    """Parse tokens like "X0 Z3"; "" and "I" both denote the identity."""
    tokens = text.split()
    if tokens == ["I"]:
        return PauliString()
    ops = {}
    for token in tokens:
        axis, digits = token[:1], token[1:]
        if axis not in "XYZ" or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed Pauli token {token!r}")
        qubit = int(digits)
        if qubit in ops:
            raise ValueError(f"duplicate qubit index {qubit}")
        ops[qubit] = axis
    return PauliString.from_mapping(ops)


def serialize_pauli_string(p: PauliString) -> str:
    """"X0 Z3" form, factors ascending by qubit; "I" for the identity."""
    return p._label


pauli_sort_key = attrgetter("_position")  # serialize_pauli_string's order


def _added(pairs: Iterable[tuple[object, complex]]) -> dict:
    """Add (key, coeff) pairs in order."""
    out: dict = {}
    for key, coeff in pairs:
        out[key] = out.get(key, 0.0) + coeff
    return out


def _pruned(terms: Mapping) -> dict:
    """Drop coefficients at or below COEFF_TOLERANCE; keep the rest complex."""
    return {key: complex(coeff) for key, coeff in terms.items()
            if abs(coeff) > COEFF_TOLERANCE}


class _LinearCombination:
    """Keyed terms with complex coefficients; subclasses name the identity
    key and the product rule."""

    __slots__ = ("terms",)
    _IDENTITY_KEY: object = None

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = _pruned(terms) if terms else {}

    @classmethod
    def summed(cls, pairs: Iterable[tuple[object, complex]]):
        """Add (key, coeff) pairs in order, then prune once."""
        return cls(_added(pairs))

    @classmethod
    def identity(cls, coeff: complex = 1.0):
        return cls({cls._IDENTITY_KEY: coeff})

    @classmethod
    def zero(cls):
        return cls()

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[object, complex]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.summed(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar: complex):
        return type(self)({k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            return self._product(other)
        return type(self)({k: c * other for k, c in self.terms.items()})


class QubitOperator(_LinearCombination):
    """Linear combination of Pauli strings."""

    __slots__ = ("_compiled",)  # cached by simulator; terms never change
    _IDENTITY_KEY = PauliString()

    @classmethod
    def from_term(cls, string: PauliString, coeff: complex = 1.0) -> "QubitOperator":
        return cls({string: coeff})

    def _product(self, other: "QubitOperator") -> "QubitOperator":
        return pauli_multiply(self, other)

    def max_qubit(self) -> int:
        return max((s.max_qubit() for s in self.terms), default=-1)

    def dagger(self) -> "QubitOperator":
        return QubitOperator({s: c.conjugate() for s, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "QubitOperator(0)"
        parts = [f"({self.terms[s]:.6g}) {s}"
                 for s in sorted(self.terms, key=pauli_sort_key)]
        return "QubitOperator(" + " + ".join(parts) + ")"


def pauli_multiply(a: QubitOperator, b: QubitOperator) -> QubitOperator:
    """Operator product with Pauli-group phase tracking."""
    return _qubit_operator(_mask_multiply(
        {(s.x, s.z): c for s, c in a.terms.items()},
        {(s.x, s.z): c for s, c in b.terms.items()}))


def _mask_multiply(a: dict, b: dict) -> dict:
    """Product of two {(x, z): coeff} sums, summed and pruned like an
    operator product."""
    out: dict = {}
    for (x1, z1), ca in a.items():
        for (x2, z2), cb in b.items():
            power, x, z = _mask_product(x1, z1, x2, z2)
            out[x, z] = out.get((x, z), 0.0) + _I_POWERS[power] * ca * cb
    return _pruned(out)


def _qubit_operator(terms: dict) -> QubitOperator:
    """Wrap summed {(x, z): coeff} terms as an operator, pruned once,
    before their strings are made."""
    op = QubitOperator()
    op.terms = {PauliString.from_masks(x, z): coeff
                for (x, z), coeff in _pruned(terms).items()}
    return op


def hermiticity_check(q: QubitOperator, tol: float = 1e-9) -> bool:
    """True iff every coefficient is real to within tol."""
    return all(abs(c.imag) <= tol for c in q.terms.values())


def dump_qubit_operator(q: QubitOperator) -> str:
    """One term per line: `<re> <im> <pauli-string>`, sorted canonically."""
    lines = []
    for string in sorted(q.terms, key=pauli_sort_key):
        coeff = q.terms[string]
        lines.append(f"{coeff.real!r} {coeff.imag!r} {serialize_pauli_string(string)}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_qubit_operator(text: str) -> QubitOperator:
    def pairs():
        for line in text.splitlines():
            if line.strip():
                re_part, im_part, *rest = line.split(maxsplit=2)
                yield (parse_pauli_string(rest[0] if rest else ""),
                       complex(float(re_part), float(im_part)))
    return QubitOperator.summed(pairs())


# ---------------------------------------------------------------------------
# Fermionic operators
# ---------------------------------------------------------------------------

FermionKey = tuple[tuple[int, bool], ...]  # ((mode, is_creation), ...)


def _normal_order_term(factors: tuple[tuple[int, bool], ...],
                       coeff: complex) -> Iterator[tuple[FermionKey, complex]]:
    """Expand one raw factor product into normal-ordered terms.

    Convention: creations left of annihilations, indices strictly descending
    within each group.  Swaps flip the sign; {a_i, a†_j} = δ_ij produces the
    contracted extra term; repeated factors in a group vanish.
    """
    stack = [(list(factors), coeff)]
    while stack:
        term, c = stack.pop()
        i = 1
        ordered = True
        while i < len(term):
            (m1, d1), (m2, d2) = term[i - 1], term[i]
            if (not d1) and d2:
                # annihilation-creation: anticommute
                rest = term[:i - 1] + term[i + 1:]
                if m1 == m2:
                    stack.append((rest, c))
                stack.append((term[:i - 1] + [(m2, d2), (m1, d1)] + term[i + 1:], -c))
                ordered = False
                break
            if d1 == d2:
                if m1 == m2:
                    ordered = False
                    break  # a†a† or aa with equal index: zero
                if m1 < m2:
                    stack.append((term[:i - 1] + [(m2, d2), (m1, d1)] + term[i + 1:], -c))
                    ordered = False
                    break
            i += 1
        if ordered:
            yield tuple(term), c


class FermionOperator(_LinearCombination):
    """Linear combination of normal-ordered fermionic factor products."""

    __slots__ = ()
    _IDENTITY_KEY = ()

    @classmethod
    def from_term(cls, factors: Iterable[tuple[int, bool]],
                  coeff: complex = 1.0) -> "FermionOperator":
        """Build from an arbitrary factor product; normal-orders on insertion."""
        return cls.summed(_normal_order_term(tuple(factors), coeff))

    def _product(self, other: "FermionOperator") -> "FermionOperator":
        return fermion_multiply(self, other)

    def dagger(self) -> "FermionOperator":
        return FermionOperator.summed(
            pair for key, coeff in self.terms.items()
            for pair in _normal_order_term(
                tuple((m, not d) for m, d in reversed(key)), coeff.conjugate()))

    def max_mode(self) -> int:
        return max((m for key in self.terms for m, _ in key), default=-1)

    def __repr__(self) -> str:
        if not self.terms:
            return "FermionOperator(0)"
        def fmt(key):
            return " ".join(f"a{'+' if d else ''}_{m}" for m, d in key) or "1"
        parts = [f"({c:.6g}) {fmt(k)}" for k, c in sorted(self.terms.items())]
        return "FermionOperator(" + " + ".join(parts) + ")"


def fermion_multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Normal-ordered product with exhaustive anticommutation bookkeeping."""
    return FermionOperator.summed(
        pair for ka, ca in a.terms.items() for kb, cb in b.terms.items()
        for pair in _normal_order_term(ka + kb, ca * cb))


# ---------------------------------------------------------------------------
# Jordan-Wigner transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _template(pattern: tuple[tuple[int, bool], ...],
              z_chain: bool) -> tuple[tuple[int, complex], ...]:
    """The image of the ladder product whose modes are their ranks,
    expanded factor by factor (the identity times one image per factor,
    each product summed and pruned), as (picked, value) pairs in that
    order: bit r of picked is set when the term's z holds the bit of rank
    r beyond the factors' Z chains."""
    product = {(0, 0): 1.0 + 0.0j}
    chains = 0
    for rank, dagger in pattern:
        bit = 1 << rank
        z = bit - 1 if z_chain else 0
        chains ^= z
        product = _mask_multiply(product, {
            (bit, z): 0.5 + 0.0j, (bit, z | bit): -0.5j if dagger else 0.5j})
    return tuple((z ^ chains, value) for (_, z), value in product.items())


def _add_ladder_terms(out: dict, factors: Iterable[tuple[int, bool]],
                      coeff: complex, z_chain: bool) -> None:
    """Add the {(x, z): coeff} terms of coeff times the product of
    (mode, is_creation) ladder images into out: a†_i -> (X_i - iY_i)/2
    and a_i -> (X_i + iY_i)/2, each with Z on every qubit below i when
    z_chain (the Jordan-Wigner image) and bare otherwise (qubit
    excitations).  They are read off the pattern's template: x is the XOR
    of the factors' mode bits, and each term's z the XOR of their chains
    and its picked mode bits.  Every term has magnitude
    |coeff| 2^-(distinct modes), so one test prunes them all."""
    factors = [(index(mode), dagger) for mode, dagger in factors]
    modes = sorted({mode for mode, _ in factors})
    if modes and modes[0] < 0:
        raise ValueError(f"mode index {modes[0]} is negative")
    rank = {mode: r for r, mode in enumerate(modes)}
    template = _template(
        tuple((rank[mode], dagger) for mode, dagger in factors), z_chain)
    coeff = complex(coeff)
    if not template or abs(coeff * template[0][1]) <= COEFF_TOLERANCE:
        return
    x = chains = 0
    for mode, _ in factors:
        x ^= 1 << mode
        chains ^= (1 << mode) - 1 if z_chain else 0
    z_of = [chains]  # z_of[m]: chains ^ the mode bits of the ranks set in m
    for mode in modes:
        z_of += [z ^ 1 << mode for z in z_of]
    for picked, value in template:
        key = x, z_of[picked]
        out[key] = out.get(key, 0.0) + coeff * value


def _check_modes(top: int, n_qubits: int) -> None:
    """Refuse a highest mode index with no qubit to map it to."""
    if top >= n_qubits:
        raise ValueError(
            f"mode index {top} out of range for {n_qubits} qubits")


def jordan_wigner(f: FermionOperator, n_qubits: int) -> QubitOperator:
    """Map a fermionic operator to qubits, one spin orbital per qubit."""
    _check_modes(f.max_mode(), n_qubits)
    terms: dict = {}
    for key, coeff in f.terms.items():
        _add_ladder_terms(terms, key, coeff, True)
    return _qubit_operator(terms)
