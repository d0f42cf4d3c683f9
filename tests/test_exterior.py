import random
from fractions import Fraction

import numpy as np
import pytest

from paramech.exterior import (
    KForm,
    PolyScalar,
    ext_d,
    form_from_constant_matrix,
    form_to_matrix,
    lagrangian_two_form,
    poly_hessian,
    vertical_derivation,
    vertical_differential,
    vertical_differential_via_commutator,
)
from paramech.structures import (
    F,
    F_STAR,
    G,
    H,
    PRIMAL_KINDS,
    build_structure,
    fundamental_form,
)

DIM = 4


def x(index, dim=DIM):
    return PolyScalar.variable(dim, index)


def dx(index, dim=DIM):
    return KForm.dx(dim, index)


def random_poly(rng, dim, max_degree=4, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        exponents = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(dim)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            key = tuple(exponents)
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return PolyScalar(dim, terms)


def harmonic_poly(dim=DIM):
    terms = {}
    for a in range(dim):
        exponents = [0] * dim
        exponents[a] = 2
        terms[tuple(exponents)] = Fraction(1, 2)
    return PolyScalar(dim, terms)


def test_polyscalar_rejects_floats():
    with pytest.raises(TypeError):
        PolyScalar.constant(4, 0.5)


def test_polyscalar_rejects_non_integral_exponents():
    for bad in (1.5, np.float64(2.7), 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            PolyScalar(2, {(bad, 0): 1, (1, 0): 2})
    assert PolyScalar(2, {(np.int64(1), True): 3}).terms == {(1, 1): Fraction(3)}


def test_polyscalar_pairs_sum_like_terms():
    pairs = [
        ((1, 0), Fraction(1, 2)),
        ((0, 2), 3),
        ((1, 0), Fraction(1, 2)),
        ((2, 1), 4),
        ((0, 2), -3),
        ((2, 1), Fraction(-4)),
    ]
    poly = PolyScalar(2, pairs)
    assert poly.terms == {(1, 0): Fraction(1)}
    assert poly == PolyScalar(2, {(1, 0): 1})
    assert PolyScalar(2, iter(pairs)) == poly
    assert PolyScalar(2, [((0, 1), 1), ((0, 1), -1)]).terms == {}


def test_kform_pairs_sum_like_terms():
    one, two = PolyScalar.constant(DIM, 1), x(2) * x(3)
    form = KForm(DIM, 2, [((0, 1), one), ((1, 3), two), ((0, 1), two), ((1, 3), -two)])
    assert form.terms == {(0, 1): one + two}
    assert form == KForm(DIM, 2, {(0, 1): one + two})
    assert KForm(DIM, 1, [((2,), two), ((2,), -two)]).terms == {}


def test_pairs_are_validated_like_a_mapping():
    for terms in ({(1,): 1}, {(1, -1): 1}):
        for given in (terms, list(terms.items())):
            with pytest.raises(ValueError, match="bad exponent tuple"):
                PolyScalar(2, given)
    with pytest.raises(TypeError):
        PolyScalar(2, [((1, 0), 0.5)])
    one = PolyScalar.constant(DIM, 1)
    for indices in ((1, 0), (0, DIM)):
        with pytest.raises(ValueError, match="index tuple"):
            KForm(DIM, 2, [(indices, one)])
        with pytest.raises(ValueError, match="index tuple"):
            KForm(DIM, 2, {indices: one})


def test_polyscalar_arithmetic_and_partial():
    p = x(0) * x(1) + PolyScalar.constant(DIM, Fraction(3, 2))
    assert p.partial(0) == x(1)
    assert p.partial(2).is_zero
    assert p.evaluate([Fraction(2), Fraction(3), 0, 0]) == Fraction(15, 2)


def test_ext_d_of_function():
    form = ext_d(KForm.from_scalar(x(0) * x(1)))
    assert form == KForm(DIM, 1, {(0,): x(1), (1,): x(0)})


def test_ext_d_of_one_form():
    form = ext_d(KForm(DIM, 1, {(1,): x(0)}))
    assert form == KForm(DIM, 2, {(0, 1): PolyScalar.constant(DIM, 1)})


def test_ext_d_squares_to_zero():
    rng = random.Random(12)
    for _ in range(10):
        f = random_poly(rng, DIM)
        assert ext_d(ext_d(KForm.from_scalar(f))).is_zero
        one = KForm(DIM, 1, {(rng.randrange(DIM),): random_poly(rng, DIM, 3, 4)})
        assert ext_d(ext_d(one)).is_zero


def test_ext_d_leibniz_on_functions():
    rng = random.Random(13)
    for _ in range(5):
        f = random_poly(rng, DIM, 3, 4)
        g = random_poly(rng, DIM, 3, 4)
        lhs = ext_d(KForm.from_scalar(f * g))
        rhs = KForm(DIM, 1, {k: v * g for k, v in ext_d(KForm.from_scalar(f)).terms.items()})
        rhs = rhs + KForm(DIM, 1, {k: v * f for k, v in ext_d(KForm.from_scalar(g)).terms.items()})
        assert lhs == rhs


def test_ext_d_degree_three_rejected():
    three = KForm(DIM, 3, {(0, 1, 2): PolyScalar.constant(DIM, 1)})
    with pytest.raises(ValueError):
        ext_d(three)


def test_vertical_derivation_on_basis_covector():
    op = build_structure(F, 1)
    # dx_1 evaluated on F-images: nonzero only on e_2 where it gives -1.
    assert vertical_derivation(op, dx(0)) == -dx(1)


def test_vertical_derivation_on_zero_form():
    op = build_structure(F, 1)
    assert vertical_derivation(op, KForm.from_scalar(x(0))).is_zero


def test_vertical_derivation_is_a_derivation():
    op = build_structure(F, 1)
    one = PolyScalar.constant(DIM, 1)
    # i_F dx_0 = -dx_1 and i_F dx_2 = -dx_3; the Leibniz rule gives the rest.
    assert vertical_derivation(op, dx(2)) == -dx(3)
    assert vertical_derivation(op, KForm(DIM, 2, {(0, 1): one})).is_zero
    assert vertical_derivation(op, KForm(DIM, 2, {(0, 2): one})) == -KForm(
        DIM, 2, {(0, 3): one, (1, 2): one}
    )


def test_vertical_derivation_defining_property():
    # (i_A w)(e_p, e_q) = w(A e_p, e_q) + w(e_p, A e_q) evaluated pointwise.
    rng = random.Random(15)
    point = [Fraction(rng.randint(-3, 3), 2) for _ in range(DIM)]
    for kind in PRIMAL_KINDS:
        op = build_structure(kind, 1)
        form = KForm(
            DIM,
            2,
            {
                (0, 1): random_poly(rng, DIM, 2, 3),
                (0, 3): random_poly(rng, DIM, 2, 3),
                (2, 3): random_poly(rng, DIM, 2, 3),
            },
        )
        contracted = form_to_matrix(vertical_derivation(op, form), point)
        m = form_to_matrix(form, point)
        a = op.matrix
        expected = a.T @ m + m @ a
        assert np.array_equal(contracted, expected)


def test_vertical_derivation_rejects_dual():
    with pytest.raises(ValueError):
        vertical_derivation(build_structure(F_STAR, 1), dx(0))


def test_vertical_differential_examples():
    op_f = build_structure(F, 1)
    assert vertical_differential(op_f, x(0) * x(1)) == KForm(
        DIM, 1, {(0,): x(0), (1,): -x(1)}
    )
    op_h = build_structure(H, 1)
    assert vertical_differential(op_h, x(0)) == dx(3)
    assert vertical_differential(op_f, PolyScalar.constant(DIM, 7)).is_zero


def test_vertical_differential_coordinate_formula():
    # Coefficients follow the block pattern: d_F f = f_{n+i} dx_i - f_i dx_{n+i}
    # + f_{3n+i} dx_{2n+i} - f_{2n+i} dx_{3n+i}.
    rng = random.Random(16)
    f = random_poly(rng, DIM)
    op = build_structure(F, 1)
    form = vertical_differential(op, f)
    assert form.coefficient((0,)) == f.partial(1)
    assert form.coefficient((1,)) == -f.partial(0)
    assert form.coefficient((2,)) == f.partial(3)
    assert form.coefficient((3,)) == -f.partial(2)


def test_vertical_differential_commutator_route():
    rng = random.Random(17)
    for kind in PRIMAL_KINDS:
        for n in (1, 2):
            op = build_structure(kind, n)
            for _ in range(5):
                f = random_poly(rng, 4 * n)
                assert vertical_differential(op, f) == vertical_differential_via_commutator(op, f)


def test_lagrangian_two_form_harmonic_f():
    op = build_structure(F, 1)
    form = lagrangian_two_form(op, harmonic_poly())
    expected = KForm(
        DIM,
        2,
        {(0, 1): PolyScalar.constant(DIM, 2), (2, 3): PolyScalar.constant(DIM, 2)},
    )
    assert form == expected


def test_lagrangian_two_form_constant():
    op = build_structure(G, 1)
    assert lagrangian_two_form(op, PolyScalar.constant(DIM, 5)).is_zero


def test_lagrangian_two_form_closed():
    rng = random.Random(18)
    for kind in PRIMAL_KINDS:
        for n in (1, 2):
            op = build_structure(kind, n)
            for _ in range(3):
                L = random_poly(rng, 4 * n, max_degree=4)
                assert ext_d(lagrangian_two_form(op, L)).is_zero


def test_lagrangian_two_form_matrix_identity():
    rng = random.Random(19)
    for kind in PRIMAL_KINDS:
        op = build_structure(kind, 1)
        for _ in range(3):
            L = random_poly(rng, DIM, max_degree=4)
            form = lagrangian_two_form(op, L)
            hess_polys = poly_hessian(L)
            for _ in range(3):
                point = [Fraction(rng.randint(-4, 4), 3) for _ in range(DIM)]
                hess = np.array(
                    [[p.evaluate(point) for p in row] for row in hess_polys],
                    dtype=object,
                )
                expected = op.matrix.T @ hess - hess @ op.matrix
                assert np.array_equal(form_to_matrix(form, point), expected)


def test_form_to_matrix_examples():
    m = form_to_matrix(KForm(DIM, 2, {(0, 1): PolyScalar.constant(DIM, 1)}), [0, 0, 0, 0])
    assert m[0, 1] == 1 and m[1, 0] == -1
    scaled = KForm(DIM, 2, {(0, 1): x(0)})
    m = form_to_matrix(scaled, [Fraction(3), 0, 0, 0])
    assert m[0, 1] == 3
    op = build_structure(F, 1)
    m = form_to_matrix(lagrangian_two_form(op, harmonic_poly()), [0, 0, 0, 0])
    assert np.array_equal(m.astype(float), -2.0 * op.matrix)


@pytest.mark.parametrize("degree", [4, -1])
def test_kform_degree_outside_the_cap_rejected(degree):
    with pytest.raises(ValueError, match="degree must be within 0..3"):
        KForm(DIM, degree)


def test_form_to_matrix_rejects_a_one_form_or_a_misplaced_point():
    with pytest.raises(ValueError, match="two-form"):
        form_to_matrix(dx(0), [0, 0, 0, 0])
    two = KForm(DIM, 2, {(0, 1): PolyScalar.constant(DIM, 1)})
    with pytest.raises(ValueError, match="point dimension"):
        form_to_matrix(two, [0, 0, 0])


def test_form_from_constant_matrix_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        form_from_constant_matrix(np.zeros((3, 3), dtype=int), DIM)


def test_fundamental_forms_closed():
    for kind in PRIMAL_KINDS:
        for n in (1, 2):
            omega = fundamental_form(kind, n)
            form = form_from_constant_matrix(omega, 4 * n)
            assert ext_d(form).is_zero
