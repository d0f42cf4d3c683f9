import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import fd_gradient, fd_hessian
from paramech.errors import SingularPointError
from paramech.exterior import PolyScalar
from paramech.fields import (
    DistanceFromOrigin,
    KineticField,
    PolynomialField,
    PotentialField,
    harmonic_field,
    kinetic_energy,
    kinetic_minus_potential_field,
    lagrangian_from_energies,
    potential_energy,
)

DIM = 4


def random_poly_field(rng, dim=DIM, max_degree=4, n_terms=8):
    terms = {}
    for _ in range(n_terms):
        exponents = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(dim)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            key = tuple(exponents)
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return PolynomialField(PolyScalar(dim, terms))


def test_harmonic_eval():
    field = harmonic_field(1)
    result = field.evaluate([1.0, 0.0, 0.0, 0.0])
    assert result.value == 0.5
    assert np.array_equal(result.gradient, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(result.hessian, np.eye(4))


def test_product_eval():
    poly = PolyScalar.variable(DIM, 0) * PolyScalar.variable(DIM, 1)
    field = PolynomialField(poly)
    result = field.evaluate([2.0, 3.0, 0.0, 0.0])
    assert result.value == 6.0
    assert np.array_equal(result.gradient, [3.0, 2.0, 0.0, 0.0])


def test_polynomial_matches_finite_differences():
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    for _ in range(5):
        field = random_poly_field(rng)
        for _ in range(4):
            x = np_rng.uniform(-1.5, 1.5, size=DIM)
            result = field.evaluate(x)
            grad_fd = fd_gradient(field.value, x)
            hess_fd = fd_hessian(field.value, x)
            scale_g = max(1.0, np.max(np.abs(grad_fd)))
            scale_h = max(1.0, np.max(np.abs(hess_fd)))
            assert np.max(np.abs(result.gradient - grad_fd)) / scale_g < 1e-6
            assert np.max(np.abs(result.hessian - hess_fd)) / scale_h < 1e-5


def test_jet_fallback_matches_analytic_paths():
    rng = random.Random(22)
    np_rng = np.random.default_rng(22)
    fields = [
        random_poly_field(rng),
        KineticField([1.5]),
        DistanceFromOrigin(DIM),
        kinetic_minus_potential_field([2.0], 9.81),
    ]
    for field in fields:
        for _ in range(5):
            x = np_rng.uniform(0.2, 1.5, size=field.dim)
            direct = field.evaluate(x)
            jets = field.evaluate_via_jets(x)
            assert abs(direct.value - jets.value) < 1e-12 * max(1.0, abs(direct.value))
            assert np.max(np.abs(direct.gradient - jets.gradient)) < 1e-10
            assert np.max(np.abs(direct.hessian - jets.hessian)) < 1e-10


def test_hessian_symmetry():
    rng = random.Random(23)
    np_rng = np.random.default_rng(23)
    field = random_poly_field(rng)
    for _ in range(10):
        x = np_rng.uniform(-2, 2, size=DIM)
        hess = field.evaluate(x).hessian
        scale = max(1.0, np.max(np.abs(hess)))
        assert np.max(np.abs(hess - hess.T)) / scale <= 1e-12


def test_polynomial_exact_agreement_with_polyscalar():
    rng = random.Random(24)
    field = random_poly_field(rng)
    point = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0)]
    value, gradient, hessian = field.exact_evaluate(point)
    assert value == field.poly.evaluate(point)
    float_result = field.evaluate([float(v) for v in point])
    assert abs(float(value) - float_result.value) < 1e-12 * max(1.0, abs(float(value)))
    assert np.allclose([float(g) for g in gradient], float_result.gradient, atol=1e-12)
    assert np.allclose(
        [[float(h) for h in row] for row in hessian], float_result.hessian, atol=1e-12
    )


def test_kinetic_energy_values():
    assert kinetic_energy([1.0], [1.0, 1.0, 1.0, 1.0]) == 2.0
    assert kinetic_energy([1.0], [0.0, 0.0, 0.0, 0.0]) == 0.0
    assert kinetic_energy([2.0], [1.0, 0.0, 0.0, 0.0]) == 1.0


def test_kinetic_multi_particle_blocks():
    # Two particles: the weight of coordinate block slots follows the particle index.
    value = kinetic_energy([1.0, 3.0], [1, 0, 0, 0, 0, 0, 0, 0])
    assert value == 0.5
    value = kinetic_energy([1.0, 3.0], [0, 1, 0, 0, 0, 0, 0, 0])
    assert value == 1.5


def test_kinetic_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        KineticField([0.0])


def test_potential_energy_values():
    assert potential_energy([1.0], 9.81, None, [3.0, 4.0, 0.0, 0.0]) == pytest.approx(49.05)
    assert potential_energy([1.0], 0.0, None, [3.0, 4.0, 0.0, 0.0]) == 0.0
    assert potential_energy([2.0], 1.0, None, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(2.0)


def test_potential_singular_at_origin():
    field = PotentialField([1.0], 9.81, n=1)
    with pytest.raises(SingularPointError):
        field.evaluate([0.0, 0.0, 0.0, 0.0])


def test_distance_closed_form_vs_finite_differences():
    field = DistanceFromOrigin(DIM)
    np_rng = np.random.default_rng(25)
    for _ in range(5):
        x = np_rng.uniform(0.5, 2.0, size=DIM)
        result = field.evaluate(x)
        assert np.max(np.abs(result.gradient - fd_gradient(field.value, x))) < 1e-6
        assert np.max(np.abs(result.hessian - fd_hessian(field.value, x))) < 1e-5


def test_lagrangian_from_energies():
    T = harmonic_field(1)
    P = PotentialField([1.0], 1.0, n=1)
    L = lagrangian_from_energies(T, P)
    assert L.value([3.0, 4.0, 0.0, 0.0]) == pytest.approx(12.5 - 5.0)
    zero = lagrangian_from_energies(harmonic_field(1), PolynomialField(PolyScalar.constant(4, 0)))
    assert zero.value([1.0, 0.0, 0.0, 0.0]) == 0.5
    const = PolynomialField(PolyScalar.constant(4, 3))
    assert lagrangian_from_energies(
        PolynomialField(PolyScalar.constant(4, 0)), const
    ).value([0.0, 0.0, 0.0, 0.0]) == -3.0


def test_kinetic_minus_potential_composite():
    L = kinetic_minus_potential_field([1.0], 1.0)
    x = [3.0, 4.0, 0.0, 0.0]
    assert L.value(x) == pytest.approx(12.5 - 5.0)
    result = L.evaluate(x)
    assert np.max(np.abs(result.gradient - fd_gradient(L.value, x))) < 1e-6


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        harmonic_field(1).evaluate([1.0, 2.0])


def test_quadratic_gradient_matches_exact_and_jets():
    # Degree <= 2 polynomials take the closed-form gradient b + Q x; constant
    # and linear terms exercise b.
    rng = random.Random(25)
    np_rng = np.random.default_rng(25)
    for dim in (4, 8):
        for _ in range(6):
            field = random_poly_field(rng, dim=dim, max_degree=2, n_terms=10)
            assert field.constant_hessian() is not None
            for _ in range(3):
                point = [Fraction(int(v), 8) for v in np_rng.integers(-16, 17, size=dim)]
                x = [float(v) for v in point]
                _, exact_gradient, exact_hessian = field.exact_evaluate(point)
                result = field.evaluate(x)
                jets = field.evaluate_via_jets(x)
                assert np.allclose(result.gradient, [float(g) for g in exact_gradient], atol=1e-12)
                assert np.allclose(result.gradient, jets.gradient, atol=1e-12)
                assert np.array_equal(field.gradient(x), result.gradient)
                assert np.array_equal(field.value_and_gradient(x)[1], result.gradient)
                assert np.array_equal(
                    result.hessian, [[float(h) for h in row] for row in exact_hessian]
                )


def test_constant_hessian_only_for_constant_cases():
    rng = random.Random(26)
    assert random_poly_field(rng, max_degree=2).constant_hessian() is not None
    cubic = PolynomialField(PolyScalar.monomial(DIM, Fraction(1), (3, 0, 0, 0)))
    assert cubic.constant_hessian() is None
    assert kinetic_minus_potential_field([1.0], 9.81).constant_hessian() is None


def test_quadratic_gradient_overflow_is_inf():
    # Fields are plain numpy; integrate_field sets this policy around its loop.
    with np.errstate(over="ignore"):
        gradient = harmonic_field(1).gradient([1e308, 0.0, 0.0, 0.0])
        assert gradient[0] == 1e308
        doubled = PolynomialField(PolyScalar.monomial(DIM, Fraction(2), (2, 0, 0, 0)))
        assert np.isinf(doubled.gradient([1e308, 0.0, 0.0, 0.0])[0])
