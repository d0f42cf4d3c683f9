import random
import re

import numpy as np
import pytest

from oracles import exact_determinant
from paramech.hamiltonian import canonical_two_form
from paramech.split_quaternions import (
    ONE,
    I,
    S,
    T,
    SplitQuaternion,
    random_rational_quaternion,
    sq_mul,
)
from paramech.structures import (
    DUAL_KINDS,
    F,
    F_STAR,
    G,
    H,
    PRIMAL_KINDS,
    StructureKind,
    build_structure,
    fundamental_form,
    metric_compatibility,
    neutral_metric,
    relation_checks,
    verify_relations,
)


# F, G, H as (source block, destination block, sign), written out by hand,
# independently of the split-quaternion product table they are read from.
REFERENCE_BLOCKS = {
    "F": ((0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)),
    "G": ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, -1)),
    "H": ((0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)),
}


def basis(dim, index):
    e = np.zeros(dim, dtype=np.int64)
    e[index] = 1
    return e


def test_structure_kind_validation():
    with pytest.raises(ValueError):
        StructureKind("Q")


def test_build_requires_positive_n():
    with pytest.raises(ValueError):
        build_structure(F, 0)


def test_tangent_action_n1():
    f = build_structure(F, 1)
    g = build_structure(G, 1)
    h = build_structure(H, 1)
    # First block coordinates map forward with the block pattern of each kind.
    assert np.array_equal(f.apply(basis(4, 0)), basis(4, 1))
    assert np.array_equal(f.apply(basis(4, 1)), -basis(4, 0))
    assert np.array_equal(g.apply(basis(4, 0)), basis(4, 2))
    assert np.array_equal(g.apply(basis(4, 1)), -basis(4, 3))
    assert np.array_equal(h.apply(basis(4, 3)), basis(4, 0))
    assert np.array_equal(h.apply(basis(4, 0)), basis(4, 3))


def test_tangent_action_blocks_n3():
    n = 3
    f = build_structure(F, n)
    for i in range(n):
        assert np.array_equal(f.apply(basis(4 * n, i)), basis(4 * n, n + i))
        assert np.array_equal(f.apply(basis(4 * n, n + i)), -basis(4 * n, i))
        assert np.array_equal(f.apply(basis(4 * n, 2 * n + i)), basis(4 * n, 3 * n + i))
        assert np.array_equal(f.apply(basis(4 * n, 3 * n + i)), -basis(4 * n, 2 * n + i))


def test_dual_action_on_basis_covectors():
    f_star = build_structure(F_STAR, 1)
    # dx_2 -> -dx_1 in 1-indexed terms: column 1 holds -e_0.
    assert np.array_equal(f_star.matrix @ basis(4, 1), -basis(4, 0))
    assert np.array_equal(f_star.matrix @ basis(4, 0), basis(4, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pairs_match_the_reference_block_table(n):
    for kind in PRIMAL_KINDS + DUAL_KINDS:
        index, sign = [None] * (4 * n), [None] * (4 * n)
        for src, dst, entry in REFERENCE_BLOCKS[kind.tag]:
            for k in range(n):
                index[dst * n + k] = src * n + k
                sign[dst * n + k] = entry
        op = build_structure(kind, n)
        assert op.index.tolist() == index
        assert op.sign.tolist() == sign


def coordinates(xi):
    """Block b holds coefficient b (basis 1, i, s, t) of every quaternion."""
    return np.array([q.coefficients[b] for b in range(4) for q in xi], dtype=object)


def quaternions(v):
    n = len(v) // 4
    return [SplitQuaternion(*(v[b * n + k] for b in range(4))) for k in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structures_are_left_multiplication_by_i_s_t(n):
    rng = random.Random(n)
    for kind, unit in zip(PRIMAL_KINDS, (I, S, T)):
        for _ in range(5):
            xi = [random_rational_quaternion(rng) for _ in range(n)]
            expected = coordinates([sq_mul(unit, q) for q in xi]).tolist()
            assert build_structure(kind, n).apply(coordinates(xi)).tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structures_commute_with_right_multiplication(n):
    # B^n is a right B-module and every operator acts from the left, so
    # A(xi p) = A(xi) p for each quaternion p, computed exactly.
    rng = random.Random(10 + n)
    units = [ONE, I, S, T] + [random_rational_quaternion(rng) for _ in range(3)]
    for kind in PRIMAL_KINDS + DUAL_KINDS:
        op = build_structure(kind, n)
        for p in units:
            xi = [random_rational_quaternion(rng) for _ in range(n)]
            scaled = coordinates([sq_mul(q, p) for q in xi])
            moved = quaternions(op.apply(coordinates(xi)))
            expected = coordinates([sq_mul(q, p) for q in moved]).tolist()
            assert op.apply(scaled).tolist() == expected


def test_left_multiplication_of_a_slot_does_not_commute_with_f():
    # is = t = -si: left multiplication of one slot by s anticommutes with F
    # there, so a left matrix action of Sp(n,B) moves F out of span(F, G, H).
    rng = random.Random(3)
    f = build_structure(F, 2)
    xi = [random_rational_quaternion(rng) for _ in range(2)]

    def left_s_on_slot_0(v):
        q = quaternions(v)
        return coordinates([sq_mul(S, q[0]), q[1]])

    v = coordinates(xi)
    f_after = f.apply(left_s_on_slot_0(v))
    f_before = left_s_on_slot_0(f.apply(v))
    assert f_after.tolist() != f_before.tolist()
    assert quaternions(f_after)[0] == -quaternions(f_before)[0]


def test_signed_permutation_property():
    for n in (1, 2, 4):
        for kind in PRIMAL_KINDS + DUAL_KINDS:
            m = build_structure(kind, n).matrix
            for row in m:
                assert np.count_nonzero(row) == 1
                assert abs(row[np.nonzero(row)][0]) == 1
            for col in m.T:
                assert np.count_nonzero(col) == 1


def test_matrix_is_the_dense_view_of_the_pair():
    for n in range(1, 6):
        operators = [build_structure(kind, n) for kind in PRIMAL_KINDS + DUAL_KINDS]
        operators += [canonical_two_form(kind, n) for kind in DUAL_KINDS]
        for op in operators:
            rows = np.arange(op.dim)
            assert sorted(op.index) == list(rows)
            assert np.array_equal(op.matrix[rows, op.index], op.sign)
            assert np.count_nonzero(op.matrix) == op.dim
            assert not op.matrix.flags.writeable


@pytest.mark.parametrize("shape", [(8,), (3, 8), (2,), (3, 2), ()], ids=str)
def test_apply_refuses_a_vector_of_another_dimension(shape):
    # A longer vector or stack must not be truncated to the operator's index,
    # nor a shorter one fail inside numpy; the message names both dimensions.
    op = build_structure(F, 1)
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} .* dimension 4$"):
        op.apply(np.ones(shape))
    assert op.apply(np.ones((3, 4))).shape == (3, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relations_all_pass(n):
    checks = verify_relations(n)
    assert list(checks) == [
        "F^2 = -I",
        "G^2 = I",
        "H^2 = I",
        "FG = H",
        "GF = -H",
        "F*^2 = -I",
        "G*^2 = I",
        "H*^2 = I",
        "F*G* = H*",
        "G*F* = -H*",
    ]
    assert all(passed is True for passed in checks.values())


def test_relations_catch_mutation():
    n = 1
    operators = {k.tag: build_structure(k, n).matrix.copy() for k in PRIMAL_KINDS}
    operators["F"][1, 0] = -operators["F"][1, 0]
    checks = relation_checks(operators)
    assert checks["F^2 = -I"] is False


def test_composition_convention():
    # (A o B)(x) = A(B(x)) realises FG = H and GF = -H simultaneously.
    for n in (1, 2):
        fm = build_structure(F, n).matrix
        gm = build_structure(G, n).matrix
        hm = build_structure(H, n).matrix
        assert np.array_equal(fm @ gm, hm)
        assert np.array_equal(gm @ fm, -hm)


def test_metric_signature():
    assert list(np.diag(neutral_metric(2))) == [1, 1, 1, 1, -1, -1, -1, -1]
    for n in (1, 2, 3):
        g = neutral_metric(n)
        assert g.dtype == np.int64 and not g.flags.writeable
        assert np.array_equal(g, np.diag([1] * (2 * n) + [-1] * (2 * n)))


def test_metric_compatibility_f():
    assert metric_compatibility(F, 2) is True
    op = build_structure(F, 2)
    g = neutral_metric(2)
    assert np.array_equal(op.matrix.T @ g @ op.matrix, g)


def test_metric_compatibility_g_pointwise():
    op = build_structure(G, 1)
    g = neutral_metric(1)
    ge1 = op.apply(basis(4, 0))
    assert ge1 @ g @ ge1 == -1.0
    assert basis(4, 0) @ g @ basis(4, 0) == 1.0
    assert metric_compatibility(G, 1) is True


def test_metric_compatibility_h_matrix():
    op = build_structure(H, 1)
    g = neutral_metric(1)
    assert np.array_equal(op.matrix.T @ g @ op.matrix, -g)
    assert metric_compatibility(H, 1) is True


def test_metric_compatibility_rejects_dual():
    with pytest.raises(ValueError):
        metric_compatibility(F_STAR, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_neutral_metric_rejects_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be positive"):
        neutral_metric(n)


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=str)
def test_fundamental_form_rejects_dual(kind):
    with pytest.raises(ValueError, match="non-dual kind"):
        fundamental_form(kind, 1)


def test_fundamental_form_entries():
    omega_f = fundamental_form(F, 1)
    # g(F e_1, e_2) = g(e_2, e_2) = +1 in 1-indexed terms.
    assert omega_f[0, 1] == 1 and omega_f[1, 0] == -1
    omega_g = fundamental_form(G, 1)
    # g(G e_1, e_3) = g(e_3, e_3) = -1.
    assert omega_g[0, 2] == -1 and omega_g[2, 0] == 1


def test_fundamental_form_antisymmetric_and_unimodular():
    for n in (1, 2, 3):
        for kind in PRIMAL_KINDS:
            omega = fundamental_form(kind, n)
            assert np.array_equal(omega, -omega.T)
            det = exact_determinant(omega)
            assert det in (1, -1)


def test_fundamental_form_equals_transposed_metric_product():
    for n in (1, 2):
        g = neutral_metric(n)
        for kind in PRIMAL_KINDS:
            a = build_structure(kind, n).matrix
            assert np.array_equal(fundamental_form(kind, n), (g @ a).T)


def test_dual_primal_adjointness():
    for n in (1, 2, 3):
        for primal, dual in zip(PRIMAL_KINDS, DUAL_KINDS):
            a = build_structure(primal, n).matrix
            a_star = build_structure(dual, n).matrix
            sign = -1 if primal.tag == "F" else 1
            assert np.array_equal(a_star, sign * a.T)
            assert np.array_equal(a_star, a)
