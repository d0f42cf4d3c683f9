from fractions import Fraction

import numpy as np
import pytest

from paramech.errors import (
    ConvergenceError,
    SingularFormError,
    SingularHessianError,
    SingularPointError,
)
from paramech.exterior import PolyScalar, form_to_matrix, lagrangian_two_form
import paramech.integrators as integrators
import paramech.lagrangian as lagrangian
from paramech.fields import (
    KineticField,
    PolynomialField,
    harmonic_field,
    kinetic_minus_potential_field,
)
from paramech.hamiltonian import integrate_hamiltonian
from paramech.lagrangian import (
    canonical_rhs,
    el_residuals,
    integrate_lagrangian,
    intrinsic_solve,
    lagrangian_energy,
    liouville_field,
    printed_deviates,
    printed_sign,
)
from paramech.structures import DUAL_KINDS, F, F_STAR, G, H, PRIMAL_KINDS, build_structure
from test_fields import JetsOnlyField, mixed_quartic_field


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


def test_liouville_field_and_energy_refuse_another_dimension():
    # An 8-vector under a 4-dimensional operator is refused, not truncated.
    with pytest.raises(ValueError, match=r"shape \(8,\) .* dimension 4$"):
        liouville_field(op(F), np.arange(8.0))
    with pytest.raises(ValueError, match=r"shape \(8,\) .* dimension 4$"):
        lagrangian_energy(op(F), harmonic_field(1), np.ones(4), np.arange(8.0))


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


def with_stiff_x3_x4(terms):
    """The polynomial of these terms plus (3/2) x_3^2 + (5/2) x_4^2 on R^4."""
    return PolynomialField(
        PolyScalar(4, {**terms, (0, 0, 2, 0): Fraction(3, 2), (0, 0, 0, 2): Fraction(5, 2)})
    )


def test_intrinsic_near_degenerate_form_meets_the_solve_guard():
    # Hess = diag(1, -1 + eps, 3, 5): the F two-form has 1-norm condition 8 / eps.
    x = [1.0, 0.5, 0.2, 0.1]
    near, regular = (
        with_stiff_x3_x4({(2, 0, 0, 0): Fraction(1, 2), (0, 2, 0, 0): (-1 + eps) / 2})
        for eps in (Fraction(1, 10**13), Fraction(1, 10**10))
    )
    with pytest.raises(SingularFormError, match="condition estimate 8e\\+13") as caught:
        intrinsic_solve(op(F), near, x)
    assert str(caught.value).startswith("the Lagrangian two-form is degenerate at this point")
    assert np.allclose(intrinsic_solve(op(F), regular, x), canonical_rhs(op(F), regular, x))


def test_intrinsic_overflowing_form_is_an_overflow():
    # x_1^4 / 4 at x_1 = 1e300: the Hessian entry 3 x_1^2 overflows, and W = inf - inf.
    L = with_stiff_x3_x4({(4, 0, 0, 0): Fraction(1, 4), (0, 2, 0, 0): Fraction(1, 2)})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="Lagrangian two-form: the matrix is not finite"):
            intrinsic_solve(op(F), L, [1e300, 0.0, 0.0, 0.0])


def test_intrinsic_two_form_matches_symbolic_route():
    rng = np.random.default_rng(32)
    L = random_regular_quadratic(rng, 1, quartic=True)
    for kind in PRIMAL_KINDS:
        operator = op(kind)
        symbolic = lagrangian_two_form(operator, L.poly)
        for _ in range(3):
            x = [Fraction(int(v), 8) for v in rng.integers(-8, 8, size=4)]
            matrix = np.array(form_to_matrix(symbolic, x).astype(float))
            hess = L.hessian([float(v) for v in x])
            direct = operator.matrix.T @ hess - hess @ operator.matrix
            assert np.allclose(matrix, direct, atol=1e-9)


def test_integrate_circle_and_energy():
    traj = integrate_lagrangian(op(F), harmonic_field(1), [1.0, 0, 0, 0], 2 * np.pi, 1e-3, "rk4")
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
    operator = op(kind)
    traj = integrate_lagrangian(operator, L, x0, 0.2, 1e-2)
    energy = traj.invariants["energy"]
    assert len(energy) == len(traj) == 21
    for k, (x, xdot) in enumerate(zip(traj.states, traj.derivatives)):
        assert energy[k] == lagrangian_energy(operator, L, x, xdot)


def test_integrate_zero_time():
    traj = integrate_lagrangian(op(F), harmonic_field(1), [1.0, 0, 0, 0], 0.0, 1e-3)
    assert len(traj) == 1


def test_integrate_reports_singular_hessian():
    linear = PolynomialField(PolyScalar.variable(4, 0))
    with pytest.raises(SingularHessianError):
        integrate_lagrangian(op(F), linear, [1.0, 0, 0, 0], 1.0, 0.1)


def test_derived_residuals_vanish_all_kinds():
    for kind in PRIMAL_KINDS:
        operator, L = op(kind), harmonic_field(1)
        traj = integrate_lagrangian(operator, L, [1.0, 0, 0, 0], 1.0, 1e-2)
        assert np.abs(el_residuals(operator, L, traj)["derived"]).max() <= 1e-6


def test_printed_residuals_vanish_for_g_and_h():
    for kind in (G, H):
        operator, L = op(kind), harmonic_field(1)
        traj = integrate_lagrangian(operator, L, [1.0, 0, 0, 0], 1.0, 1e-2)
        assert np.abs(el_residuals(operator, L, traj)["printed"]).max() <= 1e-6


def test_printed_residuals_f_circle():
    operator, L = op(F), harmonic_field(1)
    traj = integrate_lagrangian(operator, L, [1.0, 0, 0, 0], 2 * np.pi, 5e-3)
    residuals = el_residuals(operator, L, traj)["printed"]
    # Residual vector along the derived flow is 2 F x, so the first component
    # has magnitude 2 |x_{n+i}|.
    assert np.abs(residuals).max() == pytest.approx(2.0, abs=1e-6)
    for k in (0, len(traj) // 3, len(traj) - 1):
        x = traj.states[k]
        assert residuals[k][0] == pytest.approx(-2.0 * x[1], abs=1e-9)
        assert residuals[k][1] == pytest.approx(2.0 * x[0], abs=1e-9)
    assert np.abs(residuals).max() >= 0.1


NONCONSTANT_HESSIAN_FIELDS = {
    **{f"quartic-n{n}": (lambda n=n: mixed_quartic_field(n)) for n in (1, 2, 3)},
    "kinetic_minus_potential": lambda: kinetic_minus_potential_field([1.0], 0.5),
    "jets_only": JetsOnlyField,
}


def test_el_residuals_are_each_conventions_row_expression(monkeypatch):
    # Each convention is Hess . xdot - sign * grad L[index] per sample, with
    # A's signs or the printed ones, at every chunk size of the residual
    # pass; G and H share one array.
    quartics = [mixed_quartic_field(n) for n in (1, 2, 3)]
    for L in (harmonic_field(1), *quartics, kinetic_minus_potential_field([1.0], 0.5)):
        for kind in PRIMAL_KINDS:
            o = op(kind, L.dim // 4)
            traj = integrate_lagrangian(o, L, np.eye(L.dim)[0], 1.0, 1e-2)
            for rows in (1, 3, integrators.POSTPASS_ROWS):
                monkeypatch.setattr(integrators, "POSTPASS_ROWS", rows)
                residuals = el_residuals(o, L, traj)
                assert set(residuals) == {"derived", "printed"}
                for convention, sign in (("derived", o.sign), ("printed", printed_sign(o))):
                    reference = [
                        L.hessian(x) @ xdot - sign * L.gradient(x)[o.index]
                        for x, xdot in zip(traj.states, traj.derivatives)
                    ]
                    assert np.array_equal(residuals[convention], reference)
                assert (residuals["printed"] is residuals["derived"]) == (kind != F)


@pytest.mark.parametrize("kind", PRIMAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("name", sorted(NONCONSTANT_HESSIAN_FIELDS))
def test_integrated_field_is_canonical_rhs(name, kind, monkeypatch):
    # Without a constant Hessian the integrator steps canonical_rhs, the
    # guarded solve of Hess(L) against A grad L, bit for bit at one point
    # and on a stack; both are the solve against op.apply(grad L).
    L = NONCONSTANT_HESSIAN_FIELDS[name]()
    operator = op(kind, L.dim // 4)
    fields = []

    def recording(field, *args):
        fields.append(field)
        return integrators.integrate_field(field, *args)

    monkeypatch.setattr(lagrangian, "integrate_field", recording)
    integrate_lagrangian(operator, L, np.ones(L.dim), 0.01, 0.01)
    (field,) = fields
    points = np.random.default_rng(35).uniform(0.5, 1.5, size=(7, L.dim))
    for x in (points[0], points):
        expected = integrators.solve_linear(L.hessian(x), operator.apply(L.gradient(x)), error="Hessian")
        assert np.array_equal(field(x), expected)
        assert np.array_equal(canonical_rhs(operator, L, x), expected)


def test_printed_sign():
    assert np.array_equal(printed_sign(op(F)), -op(F).sign)
    assert np.array_equal(printed_sign(op(G)), op(G).sign)
    assert np.array_equal(printed_sign(op(H)), op(H).sign)


@pytest.mark.parametrize("value", [0.0, 1e-9, 1e-3, 1.0, np.inf, np.nan])
def test_printed_deviates_never_for_one_shared_array(value):
    # G and H give both conventions one array, so their maxima are equal.
    assert not printed_deviates(value, value)


def test_printed_deviates_needs_both_margins():
    assert printed_deviates(0.0, 2e-6)
    assert not printed_deviates(0.0, 1e-6)
    assert printed_deviates(1e-9, 0.5)
    assert not printed_deviates(1e-3, 0.5)


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
    L = harmonic_field(1)
    traj = integrate_lagrangian(op(F), L, [1.0, 0, 0, 0], 0.1, 0.1)
    for operator, message in (
        (build_structure(F_STAR, 1), "Lagrangian dynamics use a tangent-side operator"),
        (op(F, 2), "Lagrangian dimension does not match the operator"),
    ):
        with pytest.raises(ValueError, match=message):
            integrate_lagrangian(operator, L, [1.0, 0, 0, 0], 1.0, 0.1)
        with pytest.raises(ValueError, match=message):
            el_residuals(operator, L, traj)


@pytest.mark.parametrize("kind", PRIMAL_KINDS, ids=lambda k: k.name)
def test_factored_field_matches_canonical_rhs(kind):
    # Quadratic Lagrangians invert their constant Hessian once per
    # trajectory; the recorded semisprays must still solve the system.
    rng = np.random.default_rng(41)
    for n in (1, 2):
        L = random_regular_quadratic(rng, n)
        operator = op(kind, n)
        x0 = rng.normal(size=4 * n)
        traj = integrate_lagrangian(operator, L, x0, 0.05, 0.01, "rk4")
        for x, xdot in zip(traj.states, traj.derivatives):
            assert np.max(np.abs(xdot - canonical_rhs(operator, L, x))) <= 1e-12


def test_kinetic_lagrangian_solves_its_declared_hessian_once(monkeypatch):
    # A bare KineticField declares diag(weights): one solve per trajectory and
    # exact affine steps, where the staged run solves at every field evaluation.
    calls, original = [], integrators.solve_linear

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrators, "solve_linear", counted)
    monkeypatch.setattr(lagrangian, "solve_linear", counted)
    x0 = [0.3, -1.2, 0.7, 2.0]
    traj = integrate_lagrangian(op(G), KineticField([1.5]), x0, 1.0, 0.01, "rk4")
    assert len(traj) == 101 and len(calls) == 1

    staged = KineticField([1.5])
    staged.constant_hessian = lambda: None
    calls.clear()
    reference = integrate_lagrangian(op(G), staged, x0, 1.0, 0.01, "rk4")
    assert len(calls) == 401
    assert np.max(np.abs(traj.states - reference.states)) <= 1e-12


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("k", range(3), ids=[kind.name for kind in PRIMAL_KINDS])
@pytest.mark.parametrize("formalism", ["lagrangian", "hamiltonian"])
def test_field_without_potential_steps_like_its_kinetic_energy(formalism, k, method):
    # With g_const = 0, T - P is T itself, which declares its constant
    # Hessian: both formalisms take T's exact affine steps, bit for bit.
    x0 = [1.0, 0.5, -0.25, 2.0]

    def integrate(field):
        if formalism == "lagrangian":
            return integrate_lagrangian(op(PRIMAL_KINDS[k]), field, x0, 1.0, 0.01, method)
        return integrate_hamiltonian(DUAL_KINDS[k], field, x0, 1.0, 0.01, method)

    runs = [
        integrate(field)
        for field in (kinetic_minus_potential_field([1.5], 0.0), KineticField([1.5]))
    ]
    for series in (lambda t: t.states, lambda t: t.invariants["energy"]):
        got, want = (series(t) for t in runs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_integrate_reports_constant_singular_hessian():
    # Degree two, but the Hessian diag(2, 0, 0, 0) is singular.
    degenerate = PolynomialField(PolyScalar.monomial(4, Fraction(1), (2, 0, 0, 0)))
    with pytest.raises(SingularHessianError, match="Hessian"):
        integrate_lagrangian(op(G), degenerate, [1.0, 0, 0, 0], 1.0, 0.1, "rk4")


def test_singular_point_of_the_potential_keeps_its_type():
    # The distance to the origin has no gradient at x = 0: a field error,
    # not a singular Hessian.
    L = kinetic_minus_potential_field([1.0], 0.5)
    structure = build_structure(G, 1)
    with pytest.raises(SingularPointError):
        canonical_rhs(structure, L, np.zeros(4))
    with pytest.raises(SingularPointError, match="distance to the origin is not differentiable at 0"):
        integrate_lagrangian(structure, L, np.zeros(4), 1.0, 0.1, "rk4")


def test_integrators_check_the_method():
    with pytest.raises(ValueError) as info:
        integrate_hamiltonian(F_STAR, harmonic_field(1), [1.0, 0, 0, 0], 1.0, 0.1, "euler")
    for method in ("rk4", "symplectic_euler", "implicit_midpoint"):
        assert method in str(info.value)
    for method in ("symplectic_euler", "euler"):
        with pytest.raises(ValueError):
            integrate_lagrangian(op(G), harmonic_field(1), [1.0, 0, 0, 0], 1.0, 0.1, method)
