import random
from fractions import Fraction

import numpy as np
import pytest

from paramech.split_quaternions import (
    ONE,
    I,
    S,
    T,
    SplitQuaternion,
    SquareClass,
    bn_inner,
    random_rational_quaternion,
    sq_conj,
    sq_mul,
    sq_norm_sq,
    sq_square_class,
)

# Hand-derived basis table (row * column), kept apart from the literal table
# of the implementation.  Entries are (sign, basis index).
EXPECTED_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (1, 0), (2, 3): (-1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}

BASIS = [ONE, I, S, T]


def test_product_table_matches_hand_derivation():
    for (a, b), (sign, idx) in EXPECTED_TABLE.items():
        assert sq_mul(BASIS[a], BASIS[b]) == SplitQuaternion.basis(idx).scale(sign)


def test_generator_relations():
    assert sq_mul(I, I) == -ONE
    assert sq_mul(S, S) == ONE
    assert sq_mul(T, T) == ONE
    assert sq_mul(I, S) == T
    assert sq_mul(S, I) == -T
    # products the generators do not state directly
    assert sq_mul(S, T) == -I
    assert sq_mul(T, S) == I


def test_unit_element():
    rng = random.Random(1)
    for _ in range(10):
        p = random_rational_quaternion(rng)
        assert sq_mul(ONE, p) == p
        assert sq_mul(p, ONE) == p


def test_zero_divisors():
    lhs = ONE + S
    rhs = ONE - S
    assert sq_mul(lhs, rhs).is_zero()


def test_associativity_basis_and_random():
    for a in BASIS:
        for b in BASIS:
            for c in BASIS:
                assert sq_mul(sq_mul(a, b), c) == sq_mul(a, sq_mul(b, c))
    rng = random.Random(2)
    for _ in range(50):
        p, q, r = (random_rational_quaternion(rng) for _ in range(3))
        assert sq_mul(sq_mul(p, q), r) == sq_mul(p, sq_mul(q, r))


def test_conjugation_values():
    assert sq_conj(ONE) == ONE
    assert sq_conj(I + S) == -(I + S)
    assert sq_conj(SplitQuaternion(1, 2, 3, 4)) == SplitQuaternion(1, -2, -3, -4)


def test_conjugation_reverses_products():
    rng = random.Random(3)
    for _ in range(50):
        p = random_rational_quaternion(rng)
        q = random_rational_quaternion(rng)
        assert sq_conj(sq_mul(p, q)) == sq_mul(sq_conj(q), sq_conj(p))


def test_norm_values():
    assert sq_norm_sq(ONE + I) == 2
    assert sq_norm_sq(ONE + I + S + T) == 0
    assert sq_norm_sq(S) == -1


def test_norm_is_real_part_of_conj_product():
    rng = random.Random(4)
    for _ in range(20):
        p = random_rational_quaternion(rng)
        assert sq_norm_sq(p) == sq_mul(sq_conj(p), p).x


def test_norm_multiplicative_exact():
    rng = random.Random(5)
    for _ in range(50):
        p = random_rational_quaternion(rng)
        q = random_rational_quaternion(rng)
        assert sq_norm_sq(sq_mul(p, q)) == sq_norm_sq(p) * sq_norm_sq(q)


def test_square_class_examples():
    assert sq_square_class(I) is SquareClass.SQUARES_TO_MINUS_ONE
    assert sq_square_class(S) is SquareClass.SQUARES_TO_PLUS_ONE
    assert sq_square_class(ONE + I) is SquareClass.OTHER
    # (1+i)^2 = 2i, confirmed by direct multiplication
    assert sq_mul(ONE + I, ONE + I) == I.scale(2)
    assert sq_square_class(ONE) is SquareClass.SQUARES_TO_PLUS_ONE
    assert sq_square_class(-ONE) is SquareClass.SQUARES_TO_PLUS_ONE
    assert sq_square_class(SplitQuaternion()) is SquareClass.OTHER


def test_square_class_agrees_with_brute_force_squaring():
    values = [Fraction(k, 2) for k in range(-4, 5)]
    checked = 0
    for x in values[::2]:
        for y in values:
            for u in values:
                for v in values[::2]:
                    p = SplitQuaternion(x, y, u, v)
                    square = sq_mul(p, p)
                    cls = sq_square_class(p)
                    if square == ONE:
                        assert cls is SquareClass.SQUARES_TO_PLUS_ONE
                    elif square == -ONE:
                        assert cls is SquareClass.SQUARES_TO_MINUS_ONE
                    else:
                        assert cls is SquareClass.OTHER
                    checked += 1
    assert checked == 5 * 9 * 9 * 5


def test_bn_inner_values():
    assert bn_inner([ONE], [ONE]) == 1
    # conj(s) s = -s^2 = -1
    assert bn_inner([S], [S]) == -1


def test_bn_inner_symmetry():
    rng = random.Random(6)
    for _ in range(20):
        xi = [random_rational_quaternion(rng) for _ in range(2)]
        eta = [random_rational_quaternion(rng) for _ in range(2)]
        assert bn_inner(xi, eta) == bn_inner(eta, xi)


def test_bn_inner_length_mismatch():
    for xi, eta in (([ONE], [ONE, ONE]), ([I, T], [S]), ([], [ONE])):
        with pytest.raises(ValueError, match=f"length mismatch: {len(xi)} vs {len(eta)}"):
            bn_inner(xi, eta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bn_inner_signature(n):
    vectors = []
    for slot in range(n):
        for b in range(4):
            entries = [SplitQuaternion() for _ in range(n)]
            entries[slot] = SplitQuaternion.basis(b)
            vectors.append(entries)
    gram = np.array(
        [[float(bn_inner(u, v)) for v in vectors] for u in vectors]
    )
    eigenvalues = np.linalg.eigvalsh(gram)
    assert int(np.sum(eigenvalues > 0)) == 2 * n
    assert int(np.sum(eigenvalues < 0)) == 2 * n


def test_bvector_requires_entries():
    # A vector of B^n is a plain sequence; bn_inner refuses an empty one.
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one entry"):
            bn_inner(empty, empty)
