from fractions import Fraction

import numpy as np
import pytest

from paramech.errors import SingularFormError, SingularHessianError
from paramech.exterior import PolyScalar, form_to_matrix, lagrangian_two_form
from paramech.fields import PolynomialField, harmonic_field, kinetic_minus_potential_field
from paramech.lagrangian import (
    LagrangianSystem,
    canonical_rhs,
    convention_residuals,
    el_residuals,
    integrate_lagrangian,
    intrinsic_solve,
    lagrangian_energy,
    liouville_field,
    printed_sign_matrix,
)
from paramech.structures import F, F_STAR, G, H, PRIMAL_KINDS, build_structure


def op(kind, n=1):
    return build_structure(kind, n)


def random_regular_quadratic(rng, n, quartic=False):
    """Positive-definite quadratic (optionally plus a convex quartic)."""
    dim = 4 * n
    base = rng.normal(size=(dim, dim))
    p = base.T @ base + dim * np.eye(dim)
    terms = {}
    for a in range(dim):
        for b in range(a, dim):
            coeff = Fraction(round(p[a, b] * 16), 16 if a == b else 32)
            coeff = coeff if a == b else coeff * 2
            exponents = [0] * dim
            exponents[a] += 1
            exponents[b] += 1
            key = tuple(exponents)
            terms[key] = terms.get(key, Fraction(0)) + coeff / 2
    if quartic:
        for a in range(dim):
            exponents = [0] * dim
            exponents[a] = 4
            terms[tuple(exponents)] = Fraction(int(rng.integers(1, 4)), 4)
    return PolynomialField(PolyScalar(dim, terms))


def test_liouville_field_patterns():
    assert np.array_equal(liouville_field(op(F), [1.0, 0, 0, 0]), [0, 1, 0, 0])
    assert np.array_equal(liouville_field(op(G), [0, 1.0, 0, 0]), [0, 0, 0, -1])
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    assert np.array_equal(liouville_field(op(H), [a, b, c, d]), [d, c, b, a])


def test_liouville_rejects_dual():
    with pytest.raises(ValueError):
        liouville_field(build_structure(F_STAR, 1), [1.0, 0, 0, 0])


def test_energy_examples():
    L = harmonic_field(1)
    # F X = (-1, 0, 0, 0) for X = e_2, so E = -1 - 1/2.
    assert lagrangian_energy(op(F), L, [1.0, 0, 0, 0], [0, 1.0, 0, 0]) == pytest.approx(-1.5)
    assert lagrangian_energy(op(F), L, [1.0, 0, 0, 0], [0, 0, 0, 0]) == pytest.approx(-0.5)
    const = PolynomialField(PolyScalar.constant(4, 7))
    assert lagrangian_energy(op(G), const, [1.0, 2.0, 0, 0], [3.0, 0, 0, 0]) == pytest.approx(-7.0)


def test_canonical_rhs_examples():
    L = harmonic_field(1)
    assert np.allclose(canonical_rhs(op(F), L, [1.0, 0, 0, 0]), [0, 1, 0, 0])
    a, b, c, d = 0.3, -0.7, 1.1, 0.5
    assert np.allclose(canonical_rhs(op(H), L, [a, b, c, d]), [d, c, b, a])


def test_canonical_rhs_singular_hessian():
    linear = PolynomialField(PolyScalar.variable(4, 0))
    with pytest.raises(SingularHessianError):
        canonical_rhs(op(F), linear, [1.0, 0, 0, 0])


def test_intrinsic_matches_canonical_harmonic_f():
    L = harmonic_field(1)
    x = [0.4, -1.2, 0.9, 0.3]
    assert np.allclose(intrinsic_solve(op(F), L, x), canonical_rhs(op(F), L, x), atol=1e-12)


def test_intrinsic_matches_canonical_random_lagrangians():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for quartic in (False, True):
            L = random_regular_quadratic(rng, n, quartic=quartic)
            for kind in PRIMAL_KINDS:
                operator = op(kind, n)
                for _ in range(10):
                    x = rng.uniform(-1.0, 1.0, size=4 * n)
                    expected = canonical_rhs(operator, L, x)
                    got = intrinsic_solve(operator, L, x)
                    scale = max(1.0, float(np.max(np.abs(expected))))
                    assert np.max(np.abs(got - expected)) / scale <= 1e-10


def test_intrinsic_singular_form():
    # Hessian diag(1, 0, 0, 0) produces a rank-deficient two-form matrix.
    partial = PolynomialField(
        PolyScalar(4, {(2, 0, 0, 0): Fraction(1, 2)})
    )
    with pytest.raises(SingularFormError):
        intrinsic_solve(op(F), partial, [1.0, 0, 0, 0])
    # The harmonic Lagrangian makes the G two-form vanish identically.
    with pytest.raises(SingularFormError):
        intrinsic_solve(op(G), harmonic_field(1), [1.0, 0, 0, 0])


def test_intrinsic_two_form_matches_symbolic_route():
    rng = np.random.default_rng(32)
    L = random_regular_quadratic(rng, 1, quartic=True)
    for kind in PRIMAL_KINDS:
        operator = op(kind)
        symbolic = lagrangian_two_form(operator, L.poly)
        for _ in range(3):
            x = [Fraction(int(v), 8) for v in rng.integers(-8, 8, size=4)]
            matrix = np.array(form_to_matrix(symbolic, x).astype(float))
            hess = L.evaluate([float(v) for v in x]).hessian
            direct = operator.matrix.T @ hess - hess @ operator.matrix
            assert np.allclose(matrix, direct, atol=1e-9)


def test_integrate_circle_and_energy():
    system = LagrangianSystem(op(F), harmonic_field(1))
    traj = integrate_lagrangian(system, [1.0, 0, 0, 0], 2 * np.pi, 1e-3, "rk4")
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) <= 1e-6
    energy = traj.invariants["energy"]
    assert np.max(np.abs(energy - energy[0])) <= 1e-8
    assert energy[0] == pytest.approx(-1.5)


@pytest.mark.parametrize(
    "L, kind, x0",
    [
        (harmonic_field(1), F, [1.0, 0.0, 0.5, -0.5]),
        (kinetic_minus_potential_field([1.0], 0.5), G, [3.0, 4.0, 0.0, 0.0]),
    ],
    ids=["quadratic", "kinetic_minus_potential"],
)
def test_integrated_energy_is_lagrangian_energy(L, kind, x0):
    system = LagrangianSystem(op(kind), L)
    traj = integrate_lagrangian(system, x0, 0.2, 1e-2)
    energy = traj.invariants["energy"]
    assert len(energy) == len(traj) == 21
    for k, (x, xdot) in enumerate(zip(traj.states, traj.derivatives)):
        assert energy[k] == lagrangian_energy(system.operator, L, x, xdot)


def test_integrate_zero_time():
    system = LagrangianSystem(op(F), harmonic_field(1))
    traj = integrate_lagrangian(system, [1.0, 0, 0, 0], 0.0, 1e-3)
    assert len(traj) == 1


def test_integrate_reports_singular_hessian():
    linear = PolynomialField(PolyScalar.variable(4, 0))
    system = LagrangianSystem(op(F), linear)
    with pytest.raises(SingularHessianError):
        integrate_lagrangian(system, [1.0, 0, 0, 0], 1.0, 0.1)


def test_derived_residuals_vanish_all_kinds():
    for kind in PRIMAL_KINDS:
        system = LagrangianSystem(op(kind), harmonic_field(1))
        traj = integrate_lagrangian(system, [1.0, 0, 0, 0], 1.0, 1e-2)
        assert el_residuals(system, traj).max_abs() <= 1e-6


def test_printed_residuals_vanish_for_g_and_h():
    for kind in (G, H):
        printed = LagrangianSystem(op(kind), harmonic_field(1), convention="printed")
        traj = integrate_lagrangian(printed, [1.0, 0, 0, 0], 1.0, 1e-2)
        assert el_residuals(printed, traj).max_abs() <= 1e-6


def test_printed_residuals_f_circle():
    printed = LagrangianSystem(op(F), harmonic_field(1), convention="printed")
    traj = integrate_lagrangian(printed, [1.0, 0, 0, 0], 2 * np.pi, 5e-3)
    series = el_residuals(printed, traj)
    # Residual vector along the derived flow is 2 F x, so the first component
    # has magnitude 2 |x_{n+i}|.
    assert series.max_abs() == pytest.approx(2.0, abs=1e-6)
    for k in (0, len(traj) // 3, len(traj) - 1):
        x = traj.states[k]
        assert series.residuals[k][0] == pytest.approx(-2.0 * x[1], abs=1e-9)
        assert series.residuals[k][1] == pytest.approx(2.0 * x[0], abs=1e-9)
    assert series.max_abs() >= 0.1


def test_convention_residuals_share_one_series_for_g_and_h():
    for kind in PRIMAL_KINDS:
        system = LagrangianSystem(op(kind), harmonic_field(1), convention="printed")
        traj = integrate_lagrangian(system, [1.0, 0, 0, 0], 1.0, 1e-2)
        series = convention_residuals(system, traj)
        assert set(series) == {"derived", "printed"}
        for convention in ("derived", "printed"):
            reference = el_residuals(
                LagrangianSystem(op(kind), harmonic_field(1), convention=convention), traj
            )
            assert np.array_equal(series[convention].residuals, reference.residuals)
        assert (series["printed"] is series["derived"]) == (kind != F)


def test_printed_sign_matrix():
    assert np.array_equal(printed_sign_matrix(op(F)), -op(F).matrix)
    assert np.array_equal(printed_sign_matrix(op(G)), op(G).matrix)
    assert np.array_equal(printed_sign_matrix(op(H)), op(H).matrix)


def test_residual_quadruples_shape():
    system = LagrangianSystem(op(G, 2), harmonic_field(2))
    traj = integrate_lagrangian(system, [1.0, 0, 0, 0, 0, 0.5, 0, 0], 0.5, 1e-2)
    quads = el_residuals(system, traj).quadruples()
    assert quads.shape == (len(traj), 2, 4)


def test_reduced_flow_matrix_is_rotational_for_f():
    # xdot = Hess^{-1} F Hess x is similar to F, so its spectrum is +-i.
    rng = np.random.default_rng(33)
    for n in (1, 2):
        dim = 4 * n
        base = rng.normal(size=(dim, dim))
        p = base.T @ base + dim * np.eye(dim)
        reduced = np.linalg.solve(p, op(F, n).matrix @ p)
        eigenvalues = np.linalg.eigvals(reduced)
        assert np.max(np.abs(eigenvalues.real)) <= 1e-8


def test_system_validation():
    with pytest.raises(ValueError):
        LagrangianSystem(build_structure(F_STAR, 1), harmonic_field(1))
    with pytest.raises(ValueError):
        LagrangianSystem(op(F), harmonic_field(1), convention="boxed")
    with pytest.raises(ValueError):
        LagrangianSystem(op(F, 2), harmonic_field(1))


@pytest.mark.parametrize("kind", PRIMAL_KINDS, ids=lambda k: k.name)
def test_factored_field_matches_canonical_rhs(kind):
    # Quadratic Lagrangians invert their constant Hessian once per
    # trajectory; the recorded semisprays must still solve the system.
    rng = np.random.default_rng(41)
    for n in (1, 2):
        L = random_regular_quadratic(rng, n)
        system = LagrangianSystem(op(kind, n), L)
        x0 = rng.normal(size=4 * n)
        traj = integrate_lagrangian(system, x0, 0.05, 0.01, "rk4")
        for x, xdot in zip(traj.states, traj.derivatives):
            assert np.max(np.abs(xdot - canonical_rhs(system.operator, L, x))) <= 1e-12


def test_integrate_reports_constant_singular_hessian():
    # Degree two, but the Hessian diag(2, 0, 0, 0) is singular.
    degenerate = PolynomialField(PolyScalar.monomial(4, Fraction(1), (2, 0, 0, 0)))
    system = LagrangianSystem(op(G), degenerate)
    with pytest.raises(SingularHessianError, match="Hessian"):
        integrate_lagrangian(system, [1.0, 0, 0, 0], 1.0, 0.1, "rk4")
