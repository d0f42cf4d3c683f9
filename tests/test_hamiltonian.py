from fractions import Fraction

import numpy as np
import pytest

from paramech.exterior import KForm, PolyScalar, ext_d, form_from_constant_matrix
from paramech.fields import PolynomialField, harmonic_field
from paramech.hamiltonian import (
    canonical_two_form,
    generic_field_from_form,
    hamilton_residuals,
    hamiltonian_vector_field,
    integrate_hamiltonian,
    liouville_one_form,
    position_mask,
)
from paramech.integrators import StepperConfig, step_explicit
from paramech.structures import DUAL_KINDS, F, F_STAR, G_STAR, H_STAR, SignedPermutation

DIM = 4


def x_var(index, dim=DIM):
    return PolyScalar.variable(dim, index)


def half(poly):
    return poly.scale(Fraction(1, 2))


def test_liouville_one_form_f_star():
    lam = liouville_one_form(F_STAR, 1)
    expected = KForm(
        DIM,
        1,
        {
            (0,): half(-x_var(1)),
            (1,): half(x_var(0)),
            (2,): half(-x_var(3)),
            (3,): half(x_var(2)),
        },
    )
    assert lam == expected


def test_liouville_one_form_g_star():
    lam = liouville_one_form(G_STAR, 1)
    expected = KForm(
        DIM,
        1,
        {
            (0,): half(-x_var(2)),
            (1,): half(x_var(3)),
            (2,): half(x_var(0)),
            (3,): half(-x_var(1)),
        },
    )
    assert lam == expected


def test_liouville_one_form_h_star():
    lam = liouville_one_form(H_STAR, 1)
    expected = KForm(
        DIM,
        1,
        {
            (0,): half(-x_var(3)),
            (1,): half(-x_var(2)),
            (2,): half(x_var(1)),
            (3,): half(x_var(0)),
        },
    )
    assert lam == expected


def test_system_rejects_a_dimension_off_the_blocks():
    H = PolynomialField(PolyScalar.variable(6, 0))
    traj = integrate_hamiltonian(F_STAR, harmonic_field(1), [1.0, 0, 0, 0], 0.1, 0.1)
    with pytest.raises(ValueError, match="Hamiltonian dimension must be a multiple of 4"):
        integrate_hamiltonian(F_STAR, H, np.zeros(6), 1.0, 0.1)
    with pytest.raises(ValueError, match="Hamiltonian dimension must be a multiple of 4"):
        hamilton_residuals(F_STAR, H, traj)
    for dim in (5, 6):
        H = PolynomialField(PolyScalar.variable(dim, 0))
        for field in (hamiltonian_vector_field, generic_field_from_form):
            with pytest.raises(ValueError, match="Hamiltonian dimension must be a multiple of 4"):
                field(F_STAR, H, np.ones(dim))


def test_liouville_one_form_rejects_primal():
    with pytest.raises(ValueError):
        liouville_one_form(F, 1)


def test_canonical_two_form_entries():
    m = canonical_two_form(F_STAR, 1).matrix
    assert m[1, 0] == 1 and m[0, 1] == -1
    assert m[3, 2] == 1 and m[2, 3] == -1
    g = canonical_two_form(G_STAR, 1).matrix
    assert g[2, 0] == 1 and g[1, 3] == 1
    assert g[0, 2] == -1 and g[3, 1] == -1
    h = canonical_two_form(H_STAR, 1).matrix
    assert h[3, 0] == 1 and h[2, 1] == 1


# The two-form matrices as a hand-written (source block, destination block,
# sign) table, M[dst*n + k, src*n + k] = sign: the reference for the pair read
# off the dual operator and the base one-form.
TWO_FORM_BLOCKS = {
    "F": ((0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)),
    "G": ((0, 2, 1), (2, 0, -1), (3, 1, 1), (1, 3, -1)),
    "H": ((0, 3, 1), (3, 0, -1), (1, 2, 1), (2, 1, -1)),
}


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_two_form_matches_block_table(kind, n):
    form = canonical_two_form(kind, n)
    reference = SignedPermutation.from_blocks(kind, n, TWO_FORM_BLOCKS[kind.tag])
    assert type(form) is SignedPermutation
    assert (form.kind, form.n) == (kind, n)
    assert np.array_equal(form.index, reference.index)
    assert np.array_equal(form.sign, reference.sign)
    assert form.sign.dtype == np.int64
    assert not form.index.flags.writeable and not form.sign.flags.writeable


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_liouville_coefficients_are_the_two_form_pair(kind, n):
    form = canonical_two_form(kind, n)
    expected = {
        (c,): x_var(b, 4 * n).scale(Fraction(s, 2))
        for c, (b, s) in enumerate(zip(form.index.tolist(), form.sign.tolist()))
    }
    assert liouville_one_form(kind, n) == KForm(4 * n, 1, expected)


def test_two_form_is_minus_d_liouville():
    for kind in DUAL_KINDS:
        for n in (1, 2, 3):
            lam = liouville_one_form(kind, n)
            target = form_from_constant_matrix(
                canonical_two_form(kind, n).matrix, 4 * n
            )
            assert -ext_d(lam) == target


def test_two_forms_closed_and_invertible():
    for kind in DUAL_KINDS:
        for n in (1, 2):
            form = canonical_two_form(kind, n)
            assert np.array_equal(form.matrix, -form.matrix.T)
            assert ext_d(form_from_constant_matrix(form.matrix, 4 * n)).is_zero
            square = form.matrix @ form.matrix
            assert np.array_equal(square, -np.eye(4 * n, dtype=np.int64))


def test_field_examples():
    H = harmonic_field(1)
    assert np.allclose(
        hamiltonian_vector_field(F_STAR, H, [0.0, 1.0, 0.0, 0.0]), [-1, 0, 0, 0]
    )
    a, b, c, d = 0.7, -0.2, 1.3, 0.4
    assert np.allclose(
        hamiltonian_vector_field(H_STAR, H, [a, b, c, d]), [-d, -c, b, a]
    )
    constant = PolynomialField(PolyScalar.constant(4, 3))
    for kind in DUAL_KINDS:
        assert np.array_equal(
            hamiltonian_vector_field(kind, constant, [1.0, 2.0, 3.0, 4.0]), np.zeros(4)
        )


def test_field_rejects_primal_kind():
    with pytest.raises(ValueError):
        hamiltonian_vector_field(F, harmonic_field(1), [1.0, 0, 0, 0])


def test_generic_solve_matches_closed_form():
    rng = np.random.default_rng(41)
    random_quartic = PolynomialField(
        PolyScalar(
            8,
            {
                tuple(e): Fraction(int(c), 4)
                for e, c in zip(
                    (np.eye(8, dtype=int) * 2).tolist() + (np.eye(8, dtype=int) * 4).tolist(),
                    rng.integers(1, 8, size=16),
                )
            },
        )
    )
    for kind in DUAL_KINDS:
        for H, n in ((harmonic_field(1), 1), (random_quartic, 2)):
            xs = rng.uniform(-2, 2, size=(10, 4 * n))
            for x in xs:
                closed = hamiltonian_vector_field(kind, H, x)
                generic = generic_field_from_form(kind, H, x)
                scale = max(1.0, np.max(np.abs(closed)))
                assert np.max(np.abs(closed - generic)) / scale <= 1e-12
            # A stack is one solve, each row bitwise its one-point field.
            stacked = generic_field_from_form(kind, H, xs)
            assert stacked.shape == xs.shape
            assert np.array_equal(stacked, [generic_field_from_form(kind, H, x) for x in xs])


def test_generic_solve_single_gradient_slot():
    # H = x_1: the only nonzero component sits in the third block for G*.
    H = PolynomialField(PolyScalar.variable(4, 0))
    field = generic_field_from_form(G_STAR, H, [0.3, 0.1, -0.2, 0.9])
    assert np.allclose(field, [0.0, 0.0, 1.0, 0.0])


def test_field_orthogonal_to_gradient():
    rng = np.random.default_rng(42)
    H = harmonic_field(1)
    for kind in DUAL_KINDS:
        for _ in range(10):
            x = rng.uniform(-2, 2, size=4)
            field = hamiltonian_vector_field(kind, H, x)
            gradient = H.gradient(x)
            assert abs(float(np.dot(field, gradient))) <= 1e-12


def test_energy_derivative_vanishes_symbolically():
    # dH/dt = grad H . (M grad H) is the zero polynomial: M is antisymmetric.
    import random

    rng = random.Random(44)
    for kind in DUAL_KINDS:
        for n in (1, 2):
            dim = 4 * n
            terms = {}
            for _ in range(8):
                exponents = [0] * dim
                for _ in range(rng.randint(0, 4)):
                    exponents[rng.randrange(dim)] += 1
                terms[tuple(exponents)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            H = PolyScalar(dim, terms)
            grad = [H.partial(a) for a in range(dim)]
            matrix = canonical_two_form(kind, n).matrix
            total = PolyScalar.zero(dim)
            for b in range(dim):
                component = PolyScalar.zero(dim)
                for a in range(dim):
                    entry = int(matrix[b, a])
                    if entry:
                        component = component + grad[a].scale(entry)
                total = total + grad[b] * component
            assert total.is_zero


def test_integrate_conservation_and_period():
    # Full-period return for one kind here; all three kinds run at full length
    # in the acceptance gate.
    traj = integrate_hamiltonian(
        F_STAR, harmonic_field(1), [1.0, 0.0, 0.0, 0.0], 2 * np.pi, 1e-3, "implicit_midpoint"
    )
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) <= 1e-6
    for kind in DUAL_KINDS:
        short = integrate_hamiltonian(
            kind, harmonic_field(1), [1.0, 0.0, 0.0, 0.0], 1.0, 1e-3, "implicit_midpoint"
        )
        energy = short.invariants["energy"]
        assert np.max(np.abs(energy - energy[0])) <= 1e-10


def test_integrate_zero_time():
    traj = integrate_hamiltonian(F_STAR, harmonic_field(1), [1.0, 0, 0, 0], 0.0, 1e-3)
    assert len(traj) == 1


def test_rk4_energy_drift_bound():
    traj = integrate_hamiltonian(F_STAR, harmonic_field(1), [1.0, 0, 0, 0], 2 * np.pi, 1e-3, "rk4")
    energy = traj.invariants["energy"]
    assert np.max(np.abs(energy - energy[0])) <= 1e-7


def test_symplectic_euler_bounded_oscillation():
    traj = integrate_hamiltonian(
        F_STAR, harmonic_field(1), [1.0, 0, 0, 0], 2 * np.pi, 1e-3, "symplectic_euler"
    )
    energy = traj.invariants["energy"]
    # First order method: energy oscillates at O(dt) but does not drift away.
    assert np.max(np.abs(energy - energy[0])) <= 5e-3


def test_position_mask_blocks():
    mask = position_mask(canonical_two_form(F_STAR, 1))
    assert list(mask) == [True, False, True, False]
    mask = position_mask(canonical_two_form(G_STAR, 1))
    assert list(mask) == [True, False, False, True]
    mask = position_mask(canonical_two_form(H_STAR, 1))
    assert list(mask) == [True, True, False, False]


def test_residuals_same_kind_vanish():
    for kind in DUAL_KINDS:
        H = harmonic_field(1)
        traj = integrate_hamiltonian(kind, H, [1.0, 0, 0.5, -0.2], 2.0, 1e-2)
        assert np.abs(hamilton_residuals(kind, H, traj)).max() <= 1e-6


def test_residuals_wrong_kind_large():
    H = harmonic_field(1)
    traj = integrate_hamiltonian(F_STAR, H, [1.0, 0.0, 0.0, 0.0], 2 * np.pi, 1e-3)
    assert np.abs(hamilton_residuals(G_STAR, H, traj)).max() >= 0.1


def test_midpoint_step_preserves_phase_volume():
    rng = np.random.default_rng(43)
    for kind in DUAL_KINDS:
        for n in (1, 2):
            dim = 4 * n
            base = rng.normal(size=(dim, dim))
            p = base.T @ base + dim * np.eye(dim)
            form = canonical_two_form(kind, n).matrix.astype(float)
            linear = np.linalg.solve(form.T, p)  # field matrix of H = x^T P x / 2

            def field(x):
                return linear @ x

            cfg = StepperConfig(method="implicit_midpoint", dt=1e-2)
            jacobian = np.column_stack(
                [step_explicit(field, e, cfg) for e in np.eye(dim)]
            )
            assert abs(np.linalg.det(jacobian) - 1.0) <= 1e-10


def test_system_validation():
    H = harmonic_field(1)
    traj = integrate_hamiltonian(F_STAR, H, [1.0, 0, 0, 0], 0.1, 0.1)
    with pytest.raises(ValueError, match="F is not a dual structure kind"):
        integrate_hamiltonian(F, H, [1, 0, 0, 0], 1.0, 0.1)
    with pytest.raises(ValueError, match="F is not a dual structure kind"):
        hamilton_residuals(F, H, traj)
    with pytest.raises(ValueError):
        integrate_hamiltonian(F_STAR, H, [1, 0, 0, 0], 1.0, 0.1, "verlet")
    # The affine field of a quadratic H checks the point as the term table does.
    for H in (harmonic_field(1), sweep_quartic_field()):
        for x0 in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                integrate_hamiltonian(F_STAR, H, x0, 1.0, 0.1)


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_permutation_reproduces_closed_form(kind, n):
    form = canonical_two_form(kind, n)
    index, sign = form.index, form.sign
    rng = np.random.default_rng(31 + n)
    quartic = PolynomialField(
        harmonic_field(n).poly + PolyScalar.monomial(4 * n, Fraction(1, 4), (4,) + (0,) * (4 * n - 1))
    )
    for H in (harmonic_field(n), quartic):
        for _ in range(5):
            x = rng.normal(size=4 * n)
            assert np.array_equal(sign * H.gradient(x)[index], hamiltonian_vector_field(kind, H, x))


def test_integrated_derivatives_are_the_closed_form_field():
    H = harmonic_field(2)
    for kind in DUAL_KINDS:
        traj = integrate_hamiltonian(kind, H, np.arange(8.0) / 8, 0.05, 0.01)
        for x, xdot in zip(traj.states, traj.derivatives):
            assert np.array_equal(xdot, hamiltonian_vector_field(kind, H, x))


def sweep_quartic_field():
    """The quartic Hamiltonian of a seeded benchmark sweep file (n = 1)."""
    terms = {
        (2, 0, 0, 0): Fraction(3, 4),
        (0, 2, 0, 0): Fraction(1, 2),
        (0, 0, 2, 0): Fraction(3, 4),
        (0, 0, 0, 2): Fraction(1),
        (4, 0, 0, 0): Fraction(1, 16),
        (0, 4, 0, 0): Fraction(1, 16),
        (0, 0, 4, 0): Fraction(1, 16),
        (0, 0, 0, 4): Fraction(3, 16),
        (2, 2, 0, 0): Fraction(1, 32),
        (0, 2, 0, 2): Fraction(1, 32),
    }
    return PolynomialField(PolyScalar(DIM, terms))


@pytest.mark.parametrize("method", ["rk4", "symplectic_euler", "implicit_midpoint"])
@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.name)
def test_residuals_of_integrated_quartic_are_zero(kind, method):
    # The integrator's field and the closed-form residual take one gradient,
    # so the residual of a trajectory against its own kind is exactly 0.
    H = sweep_quartic_field()
    x0 = [-0.316823, -0.220332, 0.129555, -0.573725]
    traj = integrate_hamiltonian(kind, H, x0, 0.1875, 0.0078125, method)
    assert np.abs(hamilton_residuals(kind, H, traj)).max() == 0.0
