import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import fd_gradient, fd_hessian
from paramech import fields
from paramech.errors import SingularPointError
from paramech.exterior import PolyScalar
from paramech.fields import (
    DistanceFromOrigin,
    KineticField,
    PolynomialField,
    ScalarField,
    SumField,
    harmonic_field,
    kinetic_minus_potential_field,
    _matvec,
)
from paramech.structures import F, SignedPermutation, build_structure

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
    x = [1.0, 0.0, 0.0, 0.0]
    assert field.value(x) == 0.5
    assert np.array_equal(field.gradient(x), [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(field.hessian(x), np.eye(4))


def test_product_eval():
    poly = PolyScalar.variable(DIM, 0) * PolyScalar.variable(DIM, 1)
    field = PolynomialField(poly)
    x = [2.0, 3.0, 0.0, 0.0]
    assert field.value(x) == 6.0
    assert np.array_equal(field.gradient(x), [3.0, 2.0, 0.0, 0.0])


def test_polynomial_matches_finite_differences():
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    for _ in range(5):
        field = random_poly_field(rng)
        for _ in range(4):
            x = np_rng.uniform(-1.5, 1.5, size=DIM)
            grad_fd = fd_gradient(field.value, x)
            hess_fd = fd_hessian(field.value, x)
            scale_g = max(1.0, np.max(np.abs(grad_fd)))
            scale_h = max(1.0, np.max(np.abs(hess_fd)))
            assert np.max(np.abs(field.gradient(x) - grad_fd)) / scale_g < 1e-6
            assert np.max(np.abs(field.hessian(x) - hess_fd)) / scale_h < 1e-5


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
            value, gradient, hessian = field.evaluate_via_jets(x)
            assert abs(field.value(x) - value) < 1e-12 * max(1.0, abs(field.value(x)))
            assert np.max(np.abs(field.gradient(x) - gradient)) < 1e-10
            assert np.max(np.abs(field.hessian(x) - hessian)) < 1e-10


def test_hessian_symmetry():
    rng = random.Random(23)
    np_rng = np.random.default_rng(23)
    field = random_poly_field(rng)
    for _ in range(10):
        x = np_rng.uniform(-2, 2, size=DIM)
        hess = field.hessian(x)
        scale = max(1.0, np.max(np.abs(hess)))
        assert np.max(np.abs(hess - hess.T)) / scale <= 1e-12


def test_polynomial_exact_agreement_with_polyscalar():
    rng = random.Random(24)
    field = random_poly_field(rng)
    point = [Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0)]
    value, gradient, hessian = field.exact_evaluate(point)
    assert value == field.poly.evaluate(point)
    x = [float(v) for v in point]
    assert abs(float(value) - field.value(x)) < 1e-12 * max(1.0, abs(float(value)))
    assert np.allclose([float(g) for g in gradient], field.gradient(x), atol=1e-12)
    assert np.allclose(
        [[float(h) for h in row] for row in hessian], field.hessian(x), atol=1e-12
    )


def test_kinetic_energy_values():
    assert KineticField([1.0]).value([1.0, 1.0, 1.0, 1.0]) == 2.0
    assert KineticField([1.0]).value([0.0, 0.0, 0.0, 0.0]) == 0.0
    assert KineticField([2.0]).value([1.0, 0.0, 0.0, 0.0]) == 1.0


def test_kinetic_multi_particle_blocks():
    # Two particles: the weight of coordinate block slots follows the particle index.
    value = KineticField([1.0, 3.0]).value([1, 0, 0, 0, 0, 0, 0, 0])
    assert value == 0.5
    value = KineticField([1.0, 3.0]).value([0, 1, 0, 0, 0, 0, 0, 0])
    assert value == 1.5


def test_kinetic_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        KineticField([0.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: KineticField([float("nan")]),
        lambda: KineticField([1.0, float("inf")]),
        lambda: kinetic_minus_potential_field([float("nan")], 1.0),
        lambda: kinetic_minus_potential_field([1.0], float("nan")),
        lambda: kinetic_minus_potential_field([1.0], -float("inf")),
        lambda: kinetic_minus_potential_field([1.0], float("nan")),
        lambda: kinetic_minus_potential_field([1e308, 1e308], 1.0),
    ],
    ids=[
        "kinetic-nan",
        "kinetic-inf",
        "potential-nan-mass",
        "potential-nan-g",
        "potential-inf-g",
        "composite-nan-g",
        "composite-overflowing-scale",
    ],
)
def test_energy_fields_reject_non_finite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def potential(masses, g_const):
    """P = (sum_i m_i) * g * |x| as a one-part SumField."""
    return SumField([(sum(masses) * g_const, DistanceFromOrigin(4 * len(masses)))])


def test_potential_energy_values():
    assert potential([1.0], 9.81).value([3.0, 4.0, 0.0, 0.0]) == pytest.approx(49.05)
    assert potential([1.0], 0.0).value([3.0, 4.0, 0.0, 0.0]) == 0.0
    assert potential([2.0], 1.0).value([1.0, 0.0, 0.0, 0.0]) == pytest.approx(2.0)


def test_potential_singular_at_origin():
    field = kinetic_minus_potential_field([1.0], 9.81)
    for method in (field.gradient, field.hessian):
        with pytest.raises(SingularPointError):
            method([0.0, 0.0, 0.0, 0.0])


def test_distance_closed_form_vs_finite_differences():
    field = DistanceFromOrigin(DIM)
    np_rng = np.random.default_rng(25)
    for _ in range(5):
        x = np_rng.uniform(0.5, 2.0, size=DIM)
        assert np.max(np.abs(field.gradient(x) - fd_gradient(field.value, x))) < 1e-6
        assert np.max(np.abs(field.hessian(x) - fd_hessian(field.value, x))) < 1e-5


def test_lagrangian_from_energies():
    # T - P is the SumField [(1, T), (-1, P)].
    L = SumField([(1.0, harmonic_field(1)), (-1.0, potential([1.0], 1.0))])
    assert L.value([3.0, 4.0, 0.0, 0.0]) == pytest.approx(12.5 - 5.0)
    zero = SumField([(1.0, harmonic_field(1)), (-1.0, PolynomialField(PolyScalar.constant(4, 0)))])
    assert zero.value([1.0, 0.0, 0.0, 0.0]) == 0.5
    const = PolynomialField(PolyScalar.constant(4, 3))
    assert SumField(
        [(1.0, PolynomialField(PolyScalar.constant(4, 0))), (-1.0, const)]
    ).value([0.0, 0.0, 0.0, 0.0]) == -3.0


def test_kinetic_minus_potential_composite():
    L = kinetic_minus_potential_field([1.0], 1.0)
    x = [3.0, 4.0, 0.0, 0.0]
    assert L.value(x) == pytest.approx(12.5 - 5.0)
    assert np.max(np.abs(L.gradient(x) - fd_gradient(L.value, x))) < 1e-6


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g_const", [9.81, 0.0, -2.5])
@pytest.mark.parametrize("n", [1, 2])
def test_kinetic_minus_potential_keeps_the_bits_of_a_scaled_potential(n, g_const):
    # One SumField term -scale * D has the bits of the two-step T - (scale * D):
    # rounding is symmetric in sign, signed zeros included.  A zero scale
    # leaves T itself, with T's bits.
    masses = [1.0 + 0.25 * i for i in range(n)]
    T, D = KineticField(masses), DistanceFromOrigin(4 * n)
    scale = sum(masses) * g_const
    L = kinetic_minus_potential_field(masses, g_const)
    rng = np.random.default_rng(24 + n)
    points = rng.uniform(-2.0, 2.0, size=(5, 4 * n))
    points[::2, ::3] = -0.0
    points[1] = 0.0
    points[1, 0] = -0.0
    points[1, -1] = 1.5
    for method in ("value", "gradient", "hessian"):
        t, d = getattr(T, method), getattr(D, method)
        for x in (*points, points):
            want = t(x) if scale == 0 else 0 + 1.0 * t(x) + (-1.0) * (scale * d(x))
            assert same_bits(getattr(L, method)(x), want), (method, x)


@pytest.mark.parametrize("g_const", [0.0, -0.0], ids=["zero", "negative-zero"])
@pytest.mark.parametrize("n", [1, 2])
def test_kinetic_minus_potential_without_potential_is_smooth_at_the_origin(n, g_const):
    # A zero potential scale, of either sign, leaves T alone: its derivatives
    # exist at x = 0, where those of the distance do not.
    masses = [1.0 + 0.25 * i for i in range(n)]
    T, L = KineticField(masses), kinetic_minus_potential_field(masses, g_const)
    origin = np.zeros(4 * n)
    assert L.value(origin) == 0.0
    assert np.array_equal(L.gradient(origin), T.gradient(origin))
    assert np.array_equal(L.hessian(origin), T.hessian(origin))
    stack = np.zeros((3, 4 * n))
    assert np.array_equal(L.gradient(stack), T.gradient(stack))
    assert np.array_equal(L.hessian(stack), T.hessian(stack))


def test_kinetic_minus_potential_without_potential_declares_the_kinetic_hessian():
    # T alone declares its diagonal, read-only; with a potential there is no
    # constant Hessian to declare.
    masses = [1.0, 2.5]
    constant = kinetic_minus_potential_field(masses, 0).constant_hessian()
    assert not constant.flags.writeable
    assert np.array_equal(constant, KineticField(masses).constant_hessian())
    assert kinetic_minus_potential_field(masses, 9.81).constant_hessian() is None


@pytest.mark.parametrize(
    "parts",
    [[], [(1.0, KineticField([1.0])), (1.0, KineticField([1.0, 2.0]))]],
    ids=["empty", "mixed-dimensions"],
)
def test_sum_field_rejects_an_empty_or_mixed_sum(parts):
    with pytest.raises(ValueError):
        SumField(parts)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        harmonic_field(1).value([1.0, 2.0])


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
                gradient = field.gradient(x)
                _, jets_gradient, _ = field.evaluate_via_jets(x)
                assert np.allclose(gradient, [float(g) for g in exact_gradient], atol=1e-12)
                assert np.allclose(gradient, jets_gradient, atol=1e-12)
                assert np.array_equal(
                    field.hessian(x), [[float(h) for h in row] for row in exact_hessian]
                )


def test_constant_hessian_only_for_constant_cases():
    rng = random.Random(26)
    assert random_poly_field(rng, max_degree=2).constant_hessian() is not None
    cubic = PolynomialField(PolyScalar.monomial(DIM, Fraction(1), (3, 0, 0, 0)))
    assert cubic.constant_hessian() is None
    assert kinetic_minus_potential_field([1.0], 9.81).constant_hessian() is None


@pytest.mark.parametrize(
    "make_field",
    [lambda: harmonic_field(2), lambda: KineticField([1.0, 3.0])],
    ids=["quadratic", "kinetic"],
)
def test_constant_hessian_is_shared_and_read_only(make_field):
    # One point gets the constant itself, a stack a broadcast view of it: no
    # row is copied, and no caller can write into the constant.
    field = make_field()
    constant = field.hessian(np.zeros(field.dim))
    assert not constant.flags.writeable
    if field.constant_hessian() is not None:
        assert constant is field.constant_hessian()
    stack = field.hessian(np.ones((1024, field.dim)))
    assert stack.shape == (1024, field.dim, field.dim)
    assert not stack.flags.writeable and np.shares_memory(stack, constant)
    assert np.array_equal(stack, np.stack([constant] * 1024))


def _count_derivative_calls(monkeypatch):
    """Count PolyScalar.partial calls and the fields module's poly_gradient/poly_hessian calls."""
    calls = {"partial": 0, "poly_gradient": 0, "poly_hessian": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(PolyScalar, "partial", counted("partial", PolyScalar.partial))
    for name in ("poly_gradient", "poly_hessian"):
        monkeypatch.setattr(fields, name, counted(name, getattr(fields, name)))
    return calls


def test_quadratic_field_reads_constants_off_its_terms(monkeypatch):
    dim = 5
    terms = {}
    for coeff, powers in [
        (Fraction(7, 3), {}),
        (Fraction(-2, 7), {0: 1}),
        (Fraction(1, 3), {4: 1}),
        (Fraction(5, 11), {1: 2}),
        (Fraction(-1, 10), {4: 2}),
        (Fraction(3, 13), {0: 1, 3: 1}),
        (Fraction(-9, 17), {2: 1, 4: 1}),
    ]:
        exponents = [0] * dim
        for a, e in powers.items():
            exponents[a] = e
        terms[tuple(exponents)] = coeff
    calls = _count_derivative_calls(monkeypatch)
    field = PolynomialField(PolyScalar(dim, terms))
    assert calls == {"partial": 0, "poly_gradient": 0, "poly_hessian": 0}

    value, gradient, hessian = field.exact_evaluate([Fraction(0)] * dim)
    assert value == Fraction(7, 3)
    exact_gradient = np.array([float(g) for g in gradient])
    exact_hessian = np.array([[float(h) for h in row] for row in hessian])
    assert field.gradient(np.zeros(dim)).tobytes() == exact_gradient.tobytes()
    assert field.constant_hessian().tobytes() == exact_hessian.tobytes()
    assert exact_hessian[1, 1] == float(Fraction(10, 11))
    assert exact_hessian[0, 3] == exact_hessian[3, 0] == float(Fraction(3, 13))


def test_cubic_field_builds_its_derivative_polynomials_once(monkeypatch):
    calls = _count_derivative_calls(monkeypatch)
    PolynomialField(PolyScalar.monomial(DIM, Fraction(1, 3), (1, 2, 0, 0)))
    assert calls["poly_gradient"] == calls["poly_hessian"] == 1


@pytest.mark.parametrize("exponents", [(2, 0, 0, 0), (4, 0, 0, 0)], ids=["square", "quartic"])
def test_derivative_coefficient_overflow_is_a_value_error(exponents):
    # 1e308 is a float; the derivative coefficient 2e308 (4e308) is not, and
    # must not be taken as float(c) + float(c) = inf.
    poly = PolyScalar.monomial(DIM, Fraction(10**308), exponents)
    with pytest.raises(ValueError, match=r"x0\^.*does not fit the float term tables"):
        PolynomialField(poly)
    cross = PolynomialField(PolyScalar.monomial(DIM, Fraction(10**308), (1, 1, 0, 0)))
    assert cross.constant_hessian()[0, 1] == cross.constant_hessian()[1, 0] == 1e308


def test_quadratic_gradient_overflow_is_inf():
    # Fields are plain numpy; integrate_field sets this policy around its loop.
    with np.errstate(over="ignore"):
        gradient = harmonic_field(1).gradient([1e308, 0.0, 0.0, 0.0])
        assert gradient[0] == 1e308
        doubled = PolynomialField(PolyScalar.monomial(DIM, Fraction(2), (2, 0, 0, 0)))
        assert np.isinf(doubled.gradient([1e308, 0.0, 0.0, 0.0])[0])


def mixed_quartic_field(n):
    """Quadratic and quartic diagonals, mixed x_a^2 x_b^2 terms and one cubic."""
    dim = 4 * n
    terms = {}

    def add(coeff, powers):
        exponents = [0] * dim
        for a, e in powers.items():
            exponents[a] += e
        terms[tuple(exponents)] = coeff

    for a in range(dim):
        add(Fraction(a % 3 + 2, 4), {a: 2})
        add(Fraction(a % 4 + 1, 16), {a: 4})
    for a in range(0, dim - 1, 2):
        add(Fraction(1, 32), {a: 2, a + 1: 2})
    add(Fraction(-1, 8), {0: 1, 1: 1, dim - 1: 1})
    return PolynomialField(PolyScalar(dim, terms))


class JetsOnlyField(ScalarField):
    """A field that defines only ``_apply``: every primitive runs on jets."""

    def __init__(self):
        super().__init__(4)

    def _apply(self, xs):
        return xs[0] * xs[1] * xs[2] + xs[3] ** 3


PRIMITIVE_CASES = [
    pytest.param(lambda: harmonic_field(1), id="harmonic"),
    *(pytest.param(lambda n=n: mixed_quartic_field(n), id=f"quartic-n{n}") for n in (1, 2, 3)),
    *(
        pytest.param(
            lambda n=n: kinetic_minus_potential_field([1.0 + 0.25 * i for i in range(n)], 9.81),
            id=f"kinetic_minus_potential-n{n}",
        )
        for n in (1, 2, 3)
    ),
    pytest.param(lambda: kinetic_minus_potential_field([1.0, 2.5], 0.0), id="kinetic_only-n2"),
    pytest.param(lambda: KineticField([1.0, 2.5]), id="kinetic-n2"),
    pytest.param(lambda: DistanceFromOrigin(8), id="distance-n2"),
    pytest.param(lambda: potential([1.0, 0.5], 9.81), id="potential-n2"),
    pytest.param(JetsOnlyField, id="jets_only"),
]


@pytest.mark.parametrize("make_field", PRIMITIVE_CASES)
def test_primitives_are_the_parts_of_every_combination(make_field):
    # value, gradient and hessian are the one numeric path of each order: one
    # point gives a float value, and a stack of points (m, dim) gives rows that
    # are bitwise that point alone, whatever the stack height, empty included.
    field = make_field()
    rng = np.random.default_rng(31)
    points = rng.uniform(-1.5, 1.5, size=(25, field.dim))
    for x in points:
        assert type(field.value(x)) is float
    for stack in (points, points[:1], points[7:10], points[:0]):
        m, dim = stack.shape
        value, gradient, hessian = field.value(stack), field.gradient(stack), field.hessian(stack)
        assert value.shape == (m,)
        assert gradient.shape == (m, dim)
        assert hessian.shape == (m, dim, dim)
        for row, x in enumerate(stack):
            assert value[row] == field.value(x)
            assert np.array_equal(gradient[row], field.gradient(x))
            assert np.array_equal(hessian[row], field.hessian(x))


@pytest.mark.parametrize("make_field", PRIMITIVE_CASES)
def test_a_declared_constant_hessian_is_the_hessian(make_field):
    # constant_hessian() is None or, bit for bit, the Hessian at every point:
    # one point gets the declared matrix itself, a stack a read-only view of it.
    field = make_field()
    constant = field.constant_hessian()
    if constant is None:
        return
    assert not constant.flags.writeable
    points = np.random.default_rng(32).uniform(-1.5, 1.5, size=(10, field.dim))
    for x in points:
        assert field.hessian(x) is constant
    for stack in (points, points[:1], points[:0]):
        hessian = field.hessian(stack)
        assert hessian.shape == stack.shape + (field.dim,)
        assert not hessian.flags.writeable
        assert np.array_equal(hessian, np.broadcast_to(constant, hessian.shape))
        assert len(stack) == 0 or np.shares_memory(hessian, constant)


def test_kinetic_field_declares_its_diagonal_hessian():
    field = KineticField([1.0, 2.5])
    assert np.array_equal(field.constant_hessian(), np.diag([1.0, 2.5] * 4))
    assert np.array_equal(field.constant_hessian(), field.evaluate_via_jets(np.ones(8))[2])


@pytest.mark.parametrize("make_field", PRIMITIVE_CASES)
def test_signed_gradient_is_the_signed_permuted_gradient(make_field):
    # The Hamiltonian field sign * grad H[index], bit for bit, per point and per row.
    field = make_field()
    rng = np.random.default_rng(33)
    index = rng.permutation(field.dim)
    sign = rng.choice(np.array([-1, 1]), size=field.dim)
    signed = field.signed_gradient(SignedPermutation(F, field.dim // 4, index, sign))
    points = rng.uniform(-1.5, 1.5, size=(10, field.dim))
    for x in points:
        assert np.array_equal(signed(x), sign * field.gradient(x)[index])
    stacked = signed(points)
    assert stacked.shape == points.shape
    # A Fortran-ordered stack would change the last bits of a following matmul.
    assert stacked.flags.c_contiguous
    for row, x in enumerate(points):
        assert np.array_equal(stacked[row], signed(x))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        signed(np.ones(field.dim + 1))
    # An operator of another dimension is refused before any point is mapped.
    for n in {field.dim // 4 - 1, field.dim // 4 + 1} - {0}:
        with pytest.raises(
            ValueError, match=f"^operator of dimension {4 * n} for a field of dimension {field.dim}$"
        ):
            field.signed_gradient(build_structure(F, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_hessian_is_its_upper_triangle_scattered_both_ways(n):
    # A non-quadratic polynomial evaluates the upper triangle of its Hessian
    # as one table; the Hessian is that table placed at [a, b] and [b, a],
    # bit for bit, at one point and on stacks of every height.
    field = mixed_quartic_field(n)
    rows, cols = np.triu_indices(field.dim)
    points = np.random.default_rng(34).uniform(-1.5, 1.5, size=(6, field.dim))
    for stack in (points[0], points, points[:1], points[:0]):
        expected = np.empty(stack.shape + (field.dim,))
        expected[..., rows, cols] = expected[..., cols, rows] = field._hess_rep.evaluate(stack)
        hessian = field.hessian(stack)
        assert np.array_equal(hessian, expected)
        assert np.array_equal(hessian, np.swapaxes(hessian, -1, -2))
        assert hessian.flags.c_contiguous


@pytest.mark.parametrize("rows", [1, 7, 1025])
@pytest.mark.parametrize("dim", [4, 8, 12])
def test_one_point_gemv_is_each_batched_row(dim, rows):
    # One point is ndarray.dot (BLAS gemv), a stack one batched matmul; with
    # one shared matrix or one per row, every row is bitwise the one-point
    # product, rows holding inf or nan included.
    rng = np.random.default_rng(dim * rows)
    matrix = rng.standard_normal((dim, dim))
    per_row = rng.standard_normal((rows, dim, dim))
    points = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-5, 6, size=(rows, 1))
    points[rows // 2, 0] = np.inf
    points[-1, dim - 1] = np.nan
    with np.errstate(invalid="ignore"):
        shared, own = _matvec(matrix, points), _matvec(per_row, points)
        for row, x in enumerate(points):
            assert np.array_equal(shared[row], _matvec(matrix, x), equal_nan=True)
            assert np.array_equal(own[row], _matvec(per_row[row], x), equal_nan=True)
    assert not np.isfinite(shared[rows // 2]).any() and np.isnan(shared[-1]).all()


@pytest.mark.parametrize("dim", [4, 8, 12, 40, 100, 400])
def test_batched_matmul_over_a_broadcast_view_is_the_per_row_copies(dim):
    rng = np.random.default_rng(dim)
    view = np.broadcast_to(rng.standard_normal((dim, dim)), (5, dim, dim))
    points = rng.standard_normal((5, dim))
    assert np.array_equal(_matvec(view, points), _matvec(view.copy(), points))


DIMENSION_CASES = {
    "quadratic": lambda: harmonic_field(1),
    "quartic": lambda: mixed_quartic_field(1),
    "kinetic": lambda: KineticField([1.0]),
    "distance": lambda: DistanceFromOrigin(DIM),
    "potential": lambda: potential([1.0], 9.81),
    "kinetic_minus_potential": lambda: kinetic_minus_potential_field([1.0], 9.81),
    "jets_only": JetsOnlyField,
}
NUMERIC_METHODS = (
    "value",
    "gradient",
    "hessian",
    "evaluate_via_jets",
    "signed_gradient",
)


def call_numeric(field, method, point):
    if method == "signed_gradient":
        # The one overridable composite checks the point of the map it returns.
        identity = SignedPermutation(F, field.dim // 4, np.arange(field.dim), np.ones(field.dim))
        return field.signed_gradient(identity)(point)
    return getattr(field, method)(point)


@pytest.mark.parametrize("method", NUMERIC_METHODS)
@pytest.mark.parametrize("kind", sorted(DIMENSION_CASES))
def test_every_method_checks_point_dimension(kind, method):
    # A length-1 point must not broadcast over the coordinates; a stack of
    # points (m, dim) is checked on its trailing axis, and 3-D input is refused.
    field = DIMENSION_CASES[kind]()
    wrong = (
        2.0,
        [2.0],
        [1.0] * (DIM + 1),
        [[2.0]] * 3,
        [[1.0] * (DIM + 1)] * 2,
        [[[1.0] * DIM]],
        np.ones((2, 3, DIM)),
    )
    for point in wrong:
        with pytest.raises(ValueError, match="point dimension mismatch"):
            call_numeric(field, method, point)
