import pickle
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqe_bench.operators import (
    FermionOperator,
    PauliString,
    QubitOperator,
    dump_qubit_operator,
    fermion_multiply,
    hermiticity_check,
    jordan_wigner,
    load_qubit_operator,
    parse_pauli_string,
    pauli_multiply,
    pauli_sort_key,
    serialize_pauli_string,
)
from oracles import (
    annihilation,
    commutator,
    creation,
    fermion_operator_matrix,
    isclose,
    ladder_matrix,
    ladder_product,
    multiply_strings,
    number_operator,
    pauli_matrix,
    qubit_operator_matrix,
)


def qo(text: str, coeff: complex = 1.0) -> QubitOperator:
    return QubitOperator.from_term(parse_pauli_string(text), coeff)


QUBIT_KEYS = [parse_pauli_string(t) for t in ("I", "X0", "Y0 Z2", "Z1", "X1 X3")]
FERMION_KEYS = [(), ((0, True),), ((1, False),), ((1, True), (0, False)),
                ((2, True), (1, True), (1, False), (0, False))]
INTEGER_COMPLEX = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
# qubits past 63 exercise masks wider than a machine word
PAULI_STRINGS = st.dictionaries(
    st.integers(0, 70), st.sampled_from("XYZ"), max_size=6).map(
        PauliString.from_mapping)
LADDER_FACTORS = st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                          max_size=4)


class TestLinearCombination:
    @pytest.mark.parametrize("cls, keys", [(QubitOperator, QUBIT_KEYS),
                                           (FermionOperator, FERMION_KEYS)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_summed_equals_fold_of_additions(self, cls, keys, data):
        # integer coefficients make every partial sum exact
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                             INTEGER_COMPLEX), max_size=12))
        folded = reduce(add, (cls({k: c}) for k, c in pairs), cls.zero())
        assert cls.summed(pairs) == folded

    def test_types_never_compare_equal(self):
        assert QubitOperator.zero() != FermionOperator.zero()
        assert QubitOperator.identity() != FermionOperator.identity()
        with pytest.raises(TypeError):
            QubitOperator.zero() + FermionOperator.zero()

    @pytest.mark.parametrize("cls, keys", [(QubitOperator, QUBIT_KEYS),
                                           (FermionOperator, FERMION_KEYS)])
    def test_cancelled_pairs_leave_no_key(self, cls, keys):
        a, b, c = keys[1:4]
        op = cls.summed([(a, 0.5), (b, 1.0), (c, 2.0), (a, -0.5),
                         (b, -1.0 + 5e-13)])
        assert op.terms == {c: 2.0}


class TestFermionMultiply:
    def test_canonical_anticommutator(self):
        # a_0 a†_0 = 1 - a†_0 a_0
        product = fermion_multiply(annihilation(0), creation(0))
        expected = FermionOperator({(): 1.0, ((0, True), (0, False)): -1.0})
        assert product == expected

    def test_pauli_exclusion(self):
        assert fermion_multiply(creation(1), creation(1)) == FermionOperator.zero()

    def test_product_matches_dense_oracle(self):
        a = fermion_multiply(creation(2), annihilation(0))
        b = fermion_multiply(creation(0), annihilation(2))
        product = fermion_multiply(a, b)
        expected = fermion_operator_matrix(a, 3) @ fermion_operator_matrix(b, 3)
        np.testing.assert_allclose(
            fermion_operator_matrix(product, 3), expected, atol=1e-14)

    def test_normal_ordering_idempotent(self):
        op = fermion_multiply(creation(3), fermion_multiply(creation(1),
                              fermion_multiply(annihilation(0), annihilation(2))))
        for key, coeff in op.terms.items():
            again = FermionOperator.from_term(key, coeff)
            assert again == FermionOperator({key: coeff})


class TestJordanWigner:
    def test_creation_on_qubit_0(self):
        mapped = jordan_wigner(creation(0), 1)
        expected = QubitOperator({
            PauliString(((0, "X"),)): 0.5,
            PauliString(((0, "Y"),)): -0.5j,
        })
        assert mapped == expected

    def test_creation_carries_z_chain(self):
        mapped = jordan_wigner(creation(2), 3)
        chain = ((0, "Z"), (1, "Z"))
        expected = QubitOperator({
            PauliString(chain + ((2, "X"),)): 0.5,
            PauliString(chain + ((2, "Y"),)): -0.5j,
        })
        assert mapped == expected

    def test_number_operator_image(self):
        mapped = jordan_wigner(fermion_multiply(creation(0), annihilation(0)), 1)
        expected = QubitOperator({PauliString(): 0.5,
                                  PauliString(((0, "Z"),)): -0.5})
        assert mapped == expected
        # cross-check on dense 1-qubit matrices
        np.testing.assert_allclose(
            qubit_operator_matrix(mapped, 1),
            np.array([[0, 0], [0, 1]], dtype=complex), atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            jordan_wigner(creation(4), 4)

    def test_negative_mode_named(self):
        with pytest.raises(ValueError, match="mode index -1 is negative"):
            jordan_wigner(creation(-1), 4)
        with pytest.raises(ValueError, match="mode index -2 is negative"):
            ladder_product(((-2, True),), z_chain=False)

    @settings(max_examples=60, deadline=None)
    @given(LADDER_FACTORS, st.booleans(), INTEGER_COMPLEX)
    def test_ladder_product_matches_dense_product(self, factors, z_chain,
                                                  coeff):
        expected = coeff * np.eye(16, dtype=complex)
        for mode, dagger in factors:
            expected = expected @ ladder_matrix(mode, dagger, 4, z_chain)
        image = ladder_product(factors, coeff, z_chain)
        np.testing.assert_allclose(qubit_operator_matrix(image, 4), expected,
                                   atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(LADDER_FACTORS, min_size=1, max_size=3),
           st.lists(INTEGER_COMPLEX, min_size=3, max_size=3))
    def test_raw_products_match_fock_space(self, products, coeffs):
        # raw factor products, repeated modes included (a†_i a_i, a_i a_i)
        f = FermionOperator.zero()
        expected = np.zeros((16, 16), dtype=complex)
        for factors, coeff in zip(products, coeffs):
            f = f + FermionOperator.from_term(factors, coeff)
            term = coeff * np.eye(16, dtype=complex)
            for mode, dagger in factors:
                term = term @ ladder_matrix(mode, dagger, 4)
            expected += term
        np.testing.assert_allclose(qubit_operator_matrix(jordan_wigner(f, 4), 4),
                                   expected, atol=1e-13)

    def test_anticommutation_preserved_exactly(self):
        n = 6
        images = {(i, d): jordan_wigner(creation(i) if d else annihilation(i), n)
                  for i in range(n) for d in (True, False)}
        identity = QubitOperator.identity()
        for i in range(n):
            for j in range(n):
                a_i = images[(i, False)]
                a_j = images[(j, False)]
                adj_j = images[(j, True)]
                anti = pauli_multiply(a_i, adj_j) + pauli_multiply(adj_j, a_i)
                assert anti == (identity if i == j else QubitOperator.zero())
                anti2 = pauli_multiply(a_i, a_j) + pauli_multiply(a_j, a_i)
                assert anti2 == QubitOperator.zero()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                    min_size=1, max_size=3),
           st.complex_numbers(max_magnitude=2, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=2, allow_nan=False,
                              allow_infinity=False))
    def test_linearity(self, factors_f, factors_g, alpha, beta):
        f = FermionOperator.from_term(factors_f)
        g = FermionOperator.from_term(factors_g)
        lhs = jordan_wigner(alpha * f + beta * g, 4)
        rhs = alpha * jordan_wigner(f, 4) + beta * jordan_wigner(g, 4)
        assert isclose(lhs, rhs, tol=1e-12)

    def test_particle_conserving_commutes_with_number(self):
        rng = np.random.default_rng(7)
        n = 5
        n_op = jordan_wigner(number_operator(n), n)
        for _ in range(10):
            p, q = rng.integers(0, n, size=2)
            hop = fermion_multiply(creation(p), annihilation(q))
            op = hop + hop.dagger()
            image = jordan_wigner(op, n)
            assert isclose(commutator(image, n_op), QubitOperator.zero(), 1e-12)


def expanded_ladder_product(factors, coeff, z_chain) -> QubitOperator:
    """A ladder product expanded on its own modes, one operator product per
    factor, each summed and pruned: the expansion the Jordan-Wigner map
    made before it read products off per-pattern templates."""
    product = QubitOperator.identity(coeff)
    for mode, dagger in factors:
        chain = tuple((q, "Z") for q in range(mode)) if z_chain else ()
        product = pauli_multiply(product, QubitOperator({
            PauliString(chain + ((mode, "X"),)): 0.5,
            PauliString(chain + ((mode, "Y"),)): -0.5j if dagger else 0.5j}))
    return product


def bits_of(op: QubitOperator) -> list:
    """Terms in order, each coefficient as the reprs of its two parts."""
    return [(s, repr(c.real), repr(c.imag)) for s, c in op.terms.items()]


def stays_normal(coeff: complex) -> bool:
    """Whether each nonzero part of coeff stays a normal float through four
    halvings, so that the expansion's per-factor products are all exact."""
    return all(part == 0 or abs(part) >= 2.0 ** -1018
               for part in (coeff.real, coeff.imag))


# 1-4 factors on at most four distinct modes, so modes repeat and come in
# any order
@st.composite
def ladder_factors(draw, max_mode):
    modes = draw(st.lists(st.integers(0, max_mode), min_size=1, max_size=4,
                          unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(modes), st.booleans()),
                         min_size=1, max_size=4))


# magnitudes in (1e-12, 2^4 1e-12] are where the factor-by-factor expansion
# prunes between factors
COEFFS = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    st.builds(lambda size, unit: size * unit,
              st.floats(1e-12, 16e-12, exclude_min=True),
              st.sampled_from([1.0, -1.0, 1j, -1j, 0.6 - 0.8j])),
    st.builds(complex, st.floats(-16e-12, 16e-12), st.floats(-16e-12, 16e-12)),
).filter(stays_normal)


class TestClosedForm:
    @settings(max_examples=400, deadline=None)
    @given(ladder_factors(70), st.booleans(), COEFFS)
    def test_ladder_product_equals_expansion_bit_for_bit(self, factors,
                                                         z_chain, coeff):
        assert bits_of(ladder_product(factors, coeff, z_chain)) == bits_of(
            expanded_ladder_product(factors, coeff, z_chain))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(ladder_factors(9), COEFFS), min_size=1,
                    max_size=5))
    def test_jordan_wigner_equals_expansion_bit_for_bit(self, products):
        f = FermionOperator.summed(
            pair for factors, coeff in products
            for pair in FermionOperator.from_term(factors, coeff))
        expected = QubitOperator.summed(
            pair for key, coeff in f.terms.items()
            for pair in expanded_ladder_product(key, coeff, True))
        assert bits_of(jordan_wigner(f, 10)) == bits_of(expected)

    def test_a_subnormal_part_is_rounded_once(self):
        # below 2^-1022 the expansion rounds at every factor; the closed
        # form multiplies by the template's exact value once
        coeff = complex(2.225073858507203e-309, 1.0)
        factors = ((0, False), (0, True))
        once = ladder_product(factors, coeff, True).terms[PauliString()]
        per_factor = expanded_ladder_product(factors, coeff, True).terms[
            PauliString()]
        assert once == coeff * 0.5 != per_factor

    @settings(max_examples=60, deadline=None)
    @given(ladder_factors(4), st.booleans(), COEFFS)
    def test_ladder_product_matches_dense_oracle(self, factors, z_chain,
                                                 coeff):
        expected = coeff * np.eye(32, dtype=complex)
        for mode, dagger in factors:
            expected = expected @ ladder_matrix(mode, dagger, 5, z_chain)
        # at most 16 pruned terms of at most 1e-12 each
        np.testing.assert_allclose(
            qubit_operator_matrix(ladder_product(factors, coeff, z_chain), 5),
            expected, rtol=0, atol=16e-12)


class TestPauliMultiply:
    def test_xy_gives_iz(self):
        assert pauli_multiply(qo("X0"), qo("Y0")) == qo("Z0", 1j)

    def test_involution(self):
        assert pauli_multiply(qo("Z0"), qo("Z0")) == QubitOperator.identity()

    def test_two_qubit_product_matches_dense(self):
        a, b = qo("X0 Z1"), qo("Y0 Y1")
        product = pauli_multiply(a, b)
        assert product == qo("Z0 X1")
        expected = qubit_operator_matrix(a, 2) @ qubit_operator_matrix(b, 2)
        np.testing.assert_allclose(qubit_operator_matrix(product, 2),
                                   expected, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("XYZ"), st.integers(0, 3)),
                    min_size=0, max_size=4),
           st.lists(st.tuples(st.sampled_from("XYZ"), st.integers(0, 3)),
                    min_size=0, max_size=4))
    def test_agrees_with_dense_oracle(self, ops_a, ops_b):
        a = QubitOperator.from_term(PauliString.from_mapping(
            {q: ax for ax, q in ops_a}), 1.0)
        b = QubitOperator.from_term(PauliString.from_mapping(
            {q: ax for ax, q in ops_b}), 1.0)
        product = pauli_multiply(a, b)
        expected = qubit_operator_matrix(a, 4) @ qubit_operator_matrix(b, 4)
        np.testing.assert_allclose(qubit_operator_matrix(product, 4),
                                   expected, atol=1e-13)


class TestPauliStringMasks:
    @settings(max_examples=80, deadline=None)
    @given(PAULI_STRINGS)
    def test_ops_and_text_round_trip(self, string):
        again = PauliString(string.ops)
        assert again == string and hash(again) == hash(string)
        assert parse_pauli_string(str(string)) == string
        assert pickle.loads(pickle.dumps(string)) == string
        assert string.qubits == tuple(q for q, _ in string.ops)

    @settings(max_examples=80, deadline=None)
    @given(PAULI_STRINGS)
    def test_mask_queries_match_factor_definitions(self, string):
        ops = string.ops
        assert string.y_count() == sum(axis == "Y" for _, axis in ops)
        assert string.strip_z() == PauliString(
            tuple(f for f in ops if f[1] != "Z"))
        assert string.max_qubit() == (ops[-1][0] if ops else -1)
        assert all(string.axis_on(q) == axis for q, axis in ops)

    @settings(max_examples=60, deadline=None)
    @given(PAULI_STRINGS.filter(lambda s: s.max_qubit() < 4),
           PAULI_STRINGS.filter(lambda s: s.max_qubit() < 4))
    def test_string_product_matches_dense(self, a, b):
        phase, string = multiply_strings(a, b)
        np.testing.assert_allclose(
            phase * pauli_matrix(string, 4),
            pauli_matrix(a, 4) @ pauli_matrix(b, 4), atol=1e-15)

    @pytest.mark.parametrize("factor", [
        (0, "XY"), (0, ""), (0, "YZ"), (0, "x"), (0, 1), (True, "X"),
        (1.5, "X"), (-1, "Z"), ("0", "X"), (np.float64(2.0), "Y")], ids=repr)
    def test_malformed_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="bad Pauli factor"):
            PauliString((factor,))

    def test_numpy_integer_qubits_accepted(self):
        string = PauliString(((np.int64(3), "X"), (np.uint8(1), "Y")))
        assert string == PauliString(((1, "Y"), (3, "X")))
        assert str(string) == "Y1 X3"

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="duplicate qubit index 2"):
            PauliString(((2, "X"), (2, "Z")))

    @settings(max_examples=80, deadline=None)
    @given(PAULI_STRINGS)
    def test_read_string_is_a_fresh_string(self, string):
        # qubits and the label are kept on the string once read; x and z
        # stay its only fields, so nothing else may tell the two apart
        read = PauliString.from_masks(string.x, string.z)
        assert read.qubits == string.qubits
        assert serialize_pauli_string(read) == str(string)
        fresh = PauliString.from_masks(string.x, string.z)
        assert read == fresh and hash(read) == hash(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        loaded = pickle.loads(pickle.dumps(read))
        assert loaded == fresh and vars(loaded) == {"x": string.x,
                                                    "z": string.z}
        assert loaded.qubits == string.qubits

    @settings(max_examples=80, deadline=None)
    @given(PAULI_STRINGS)
    def test_kept_hash_is_that_of_the_masks_and_not_pickled(self, string):
        fresh = PauliString.from_masks(string.x, string.z)
        unread = pickle.dumps(fresh)
        assert hash(fresh) == hash((string.x, string.z))
        assert fresh.__dict__["_hash"] == hash((string.x, string.z))
        assert pickle.dumps(fresh) == unread
        assert hash(pickle.loads(unread)) == hash(fresh)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(PAULI_STRINGS, max_size=12))
    def test_sort_key_orders_strings_as_their_labels(self, strings):
        # qubits 0-70: tokens like X7 and X70, and masks past 64 bits
        assert (sorted(strings, key=pauli_sort_key)
                == sorted(strings, key=serialize_pauli_string))

    def test_sort_key_separates_digits_from_the_next_factor(self):
        texts = ["X1 Y2", "X10", "X1", "I", "Y0", "X7", "X70", "Z69 X70",
                 "X6 X7", "X64 Y65", "X1 Z10", "X1 Y10"]
        strings = [parse_pauli_string(text) for text in texts]
        assert ([str(s) for s in sorted(strings, key=pauli_sort_key)]
                == sorted(str(s) for s in strings))

    def test_immutable(self):
        string = parse_pauli_string("X0 Y2")
        with pytest.raises(AttributeError):
            string.x = 0
        assert string == parse_pauli_string("X0 Y2")


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert commutator(qo("Z0"), qo("Z0")) == QubitOperator.zero()

    def test_su2_relation(self):
        assert commutator(qo("X0"), qo("Y0")) == qo("Z0", 2j)


class TestHermiticity:
    def test_real_coefficients(self):
        assert hermiticity_check(qo("X0") + qo("X0"), 1e-12)

    def test_imaginary_coefficient(self):
        assert not hermiticity_check(qo("Y0", 0.5j), 1e-12)

    def test_hopping_term_image_is_hermitian(self):
        hop = fermion_multiply(creation(0), annihilation(1))
        op = 0.37 * (hop + hop.dagger())
        assert hermiticity_check(jordan_wigner(op, 2), 1e-12)


class TestPauliStringText:
    def test_parse(self):
        assert parse_pauli_string("X0 Z3") == PauliString(((0, "X"), (3, "Z")))

    def test_empty_is_identity(self):
        assert parse_pauli_string("") == PauliString()
        assert parse_pauli_string("I") == PauliString()

    def test_canonical_serialization(self):
        assert serialize_pauli_string(parse_pauli_string("Z3 X0")) == "X0 Z3"

    def test_identity_serializes_as_i(self):
        assert serialize_pauli_string(PauliString()) == "I"

    @pytest.mark.parametrize("bad", ["A0", "X", "X0 X0", "Xq", "Z0 Y0",
                                     "X\u0663", "Z\uff11", "X\u00b2"])
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_pauli_string(bad)

    def test_operator_text_round_trip(self):
        op = qo("X0 Z3", 0.25) + qo("Y1", -0.5j) + QubitOperator.identity(1.75)
        assert load_qubit_operator(dump_qubit_operator(op)) == op
