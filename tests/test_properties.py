"""Property tests on generated inputs.

Random rational polynomials (n = 1..3, degree <= 4) check the per-order
primitives of ``PolynomialField`` against each other and against the jets;
random (exponents, coefficient) pairs with repeats and cancellations check
that ``PolyScalar`` sums like terms as ``+`` does; random rational polynomials
and forms check the unvalidated derived polynomials and forms, the mirrored
Hessian and the pruned exterior derivative against the public constructors
and an unpruned reference; random valid scenarios
check that serialization round-trips; small runs of generated scenarios with
extreme but parseable values check that ``paramech run`` exits with a
documented code and one error line; random rational split quaternions check
the algebra laws and the product against the hand-derived table; random finite vectors check that each structure operator and
two-form applies as its dense matrix.  Example generation is derandomized, so
every run sees the same inputs.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paramech.cli import main
from paramech.exterior import KForm, PolyScalar, ext_d, poly_hessian
from paramech.fields import PolynomialField
from paramech.hamiltonian import HAMILTONIAN_METHODS, canonical_two_form
from paramech.lagrangian import LAGRANGIAN_METHODS
from paramech.scenario import FieldSpec, Scenario, parse_scenario, serialize_scenario
from paramech.split_quaternions import SplitQuaternion, sq_conj, sq_mul, sq_norm_sq
from paramech.structures import DUAL_KINDS, PRIMAL_KINDS, build_structure
from test_split_quaternions import EXPECTED_TABLE

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=8)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def polynomial_fields_and_points(draw):
    n = draw(st.integers(1, 3))
    dim = 4 * n
    terms = {}
    for coeff, variables in draw(
        st.lists(
            st.tuples(coefficients, st.lists(st.integers(0, dim - 1), max_size=4)),
            min_size=1,
            max_size=8,
        )
    ):
        exponents = tuple(variables.count(a) for a in range(dim))
        terms[exponents] = terms.get(exponents, Fraction(0)) + coeff
    x = draw(st.lists(st.floats(-1.5, 1.5), min_size=dim, max_size=dim))
    return PolynomialField(PolyScalar(dim, terms)), np.array(x)


@PROPERTY_SETTINGS
@given(polynomial_fields_and_points())
def test_polynomial_evaluate_agrees_with_jets(case):
    # The tolerances of tests/test_fields.py::test_jet_fallback_matches_analytic_paths.
    field, x = case
    value, gradient, hessian = field.evaluate_via_jets(x)
    assert abs(field.value(x) - value) < 1e-12 * max(1.0, abs(field.value(x)))
    assert np.max(np.abs(field.gradient(x) - gradient)) < 1e-10
    assert np.max(np.abs(field.hessian(x) - hessian)) < 1e-10


@PROPERTY_SETTINGS
@given(polynomial_fields_and_points())
def test_polynomial_primitives_are_the_parts_of_evaluate(case):
    # Each primitive at one point is, bit for bit, its one-row stack's row.
    field, x = case
    stack = x[None, :]
    assert field.value(x) == field.value(stack)[0]
    assert np.array_equal(field.gradient(x), field.gradient(stack)[0])
    assert np.array_equal(field.hessian(x), field.hessian(stack)[0])


@st.composite
def monomial_pairs(draw):
    dim = 4 * draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    pairs = draw(st.lists(st.tuples(exponents, coefficients), max_size=8))
    cancelling = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return dim, pairs + [(e, -c) for e, c in cancelling] + draw(st.permutations(pairs))


@PROPERTY_SETTINGS
@given(monomial_pairs())
def test_polyscalar_from_pairs_is_the_sum_of_its_monomials(case):
    dim, pairs = case
    total = PolyScalar.zero(dim)
    for exponents, coeff in pairs:
        total = total + PolyScalar.monomial(dim, coeff, exponents)
    poly = PolyScalar(dim, pairs)
    assert poly == total
    assert 0 not in poly.terms.values()


@st.composite
def rational_polynomials(draw, dim=None):
    if dim is None:
        dim = 4 * draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    return PolyScalar(dim, draw(st.lists(st.tuples(exponents, coefficients), max_size=6)))


@st.composite
def polynomial_pairs(draw):
    # The second shares some keys of the first with the opposite sign, so that
    # their sum cancels terms.
    p = draw(rational_polynomials())
    q = draw(rational_polynomials(p.dim))
    cancelling = draw(st.lists(st.sampled_from(sorted(p.terms)), max_size=3)) if p.terms else []
    q = PolyScalar(p.dim, [*q.terms.items(), *((e, -p.terms[e]) for e in set(cancelling))])
    return p, q


def _lowered(poly, index):
    """The pairs of the partial in x_index, for the public constructor."""
    return [
        (e[:index] + (e[index] - 1,) + e[index + 1 :], c * e[index])
        for e, c in poly.terms.items()
        if e[index]
    ]


@PROPERTY_SETTINGS
@given(polynomial_pairs(), coefficients, st.data())
def test_derived_polynomials_are_the_public_constructor_of_their_pairs(case, c, data):
    p, q = case
    dim = p.dim
    index = data.draw(st.integers(0, dim - 1))
    expected = {
        "partial": PolyScalar(dim, _lowered(p, index)),
        "scale": PolyScalar(dim, [(e, c * v) for e, v in p.terms.items()]),
        "scale by 0": PolyScalar(dim, [(e, 0 * v) for e, v in p.terms.items()]),
        "negation": PolyScalar(dim, [(e, -v) for e, v in p.terms.items()]),
        "sum": PolyScalar(dim, [*p.terms.items(), *q.terms.items()]),
    }
    derived = {
        "partial": p.partial(index),
        "scale": p.scale(c),
        "scale by 0": p.scale(0),
        "negation": -p,
        "sum": p + q,
    }
    for name, poly in derived.items():
        assert poly == expected[name], name
        assert poly.dim == dim and 0 not in poly.terms.values(), name


@PROPERTY_SETTINGS
@given(rational_polynomials())
def test_hessian_entries_are_second_partials(p):
    hessian = poly_hessian(p)
    for a in range(p.dim):
        for b in range(p.dim):
            assert hessian[a][b] == p.partial(a).partial(b)


def _reference_ext_d(form):
    """d without pruning: every direction, the wedge sign by counting inversions."""
    terms = []
    for indices, coeff in form.terms.items():
        for direction in range(form.dim):
            key = (direction,) + indices
            if len(set(key)) < len(key):
                continue
            inversions = sum(
                key[i] > key[j] for i in range(len(key)) for j in range(i + 1, len(key))
            )
            partial = PolyScalar(form.dim, _lowered(coeff, direction))
            terms.append((tuple(sorted(key)), partial.scale((-1) ** inversions)))
    return KForm(form.dim, form.degree + 1, terms)


@st.composite
def forms(draw):
    dim = 4 * draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2))
    keys = st.lists(st.integers(0, dim - 1), min_size=degree, max_size=degree, unique=True)
    pairs = st.tuples(keys.map(sorted).map(tuple), rational_polynomials(dim))
    return KForm(dim, degree, draw(st.lists(pairs, max_size=4)))


@st.composite
def form_pairs(draw):
    # Valid (key, coefficient) pairs with repeated keys, some of which cancel.
    dim = 4 * draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    keys = st.lists(st.integers(0, dim - 1), min_size=degree, max_size=degree, unique=True)
    pair = st.tuples(keys.map(sorted).map(tuple), rational_polynomials(dim))
    pairs = draw(st.lists(pair, max_size=6))
    cancelling = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return dim, degree, pairs + [(k, -c) for k, c in cancelling] + draw(st.permutations(pairs))


@PROPERTY_SETTINGS
@given(form_pairs())
def test_derived_form_is_the_public_constructor_of_its_pairs(case):
    dim, degree, pairs = case
    derived = KForm._derived(dim, degree, pairs)
    assert derived == KForm(dim, degree, pairs)
    assert (derived.dim, derived.degree) == (dim, degree)
    assert not any(c.is_zero for c in derived.terms.values())


@PROPERTY_SETTINGS
@given(forms())
def test_exterior_derivative_is_the_unpruned_sum(form):
    assert ext_d(form) == _reference_ext_d(form)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 3))
    dim = 4 * n
    formalism = draw(st.sampled_from(("lagrangian", "hamiltonian")))
    kind = draw(st.sampled_from(("harmonic", "polynomial", "kinetic_minus_potential")))
    if kind == "polynomial":
        exponents = st.lists(st.integers(0, 4), min_size=dim, max_size=dim).map(tuple)
        terms = tuple(draw(st.lists(st.tuples(coefficients, exponents), min_size=1, max_size=4)))
        function = FieldSpec(kind, terms=terms)
    elif kind == "kinetic_minus_potential":
        masses = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        function = FieldSpec(kind, masses=tuple(masses), g_const=draw(finite))
    else:
        function = FieldSpec(kind)
    dt = draw(st.floats(1e-6, 1.0))
    t_end = draw(st.just(0.0) | st.floats(dt, 1e6, exclude_min=True))
    if formalism == "lagrangian":
        method = draw(st.sampled_from(LAGRANGIAN_METHODS))
        convention = draw(st.sampled_from(("derived", "printed")))
    else:
        method = draw(st.sampled_from(HAMILTONIAN_METHODS))
        convention = None
    path = st.none() | st.text("abc_/.", min_size=1, max_size=8)
    return Scenario(
        n=n,
        formalism=formalism,
        structure=draw(st.sampled_from("FGH")),
        function=function,
        x0=tuple(draw(st.lists(finite, min_size=dim, max_size=dim))),
        t_end=t_end,
        dt=dt,
        method=method,
        convention=convention,
        out_trajectory=draw(path),
        out_summary=draw(path),
    )


@PROPERTY_SETTINGS
@given(scenarios())
def test_serialized_scenario_parses_back(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario


MAX_FLOAT = float(np.finfo(float).max)
extreme_floats = st.floats(-2.0, 2.0) | st.sampled_from(
    [-0.0, 5e-324, 1e-300, -1e-300, 1e150, -1e300, MAX_FLOAT, -MAX_FLOAT]
)
extreme_positive = st.sampled_from([0.01, 0.1, 1.0]) | st.sampled_from(
    [5e-324, 1e-300, 1e-6, 1e6, 1e300, MAX_FLOAT]
)


@st.composite
def extreme_scenario_texts(draw):
    """Scenario text with n <= 3, at most 200 steps, and values near the float limits."""
    n = draw(st.integers(1, 3))
    dim = 4 * n
    formalism = draw(st.sampled_from(("lagrangian", "hamiltonian")))
    methods = LAGRANGIAN_METHODS if formalism == "lagrangian" else HAMILTONIAN_METHODS
    kind = draw(st.sampled_from(("harmonic", "polynomial", "kinetic_minus_potential")))
    lines = [
        f"n = {n}",
        f"formalism = {formalism}",
        f"structure = {draw(st.sampled_from('FGH'))}",
        f"function = {kind}",
    ]
    if kind == "polynomial":
        exponents = st.lists(st.sampled_from([0, 0, 1, 2, 4, 40]), min_size=dim, max_size=dim)
        coefficient = st.sampled_from(["1", "-1/3", "1e-300", "1e300", "-1e308", f"1/{10**400}"])
        for _ in range(draw(st.integers(1, 4))):
            lines.append(f"term = {draw(coefficient)} : {' '.join(map(str, draw(exponents)))}")
    elif kind == "kinetic_minus_potential":
        lines.append("masses = " + " ".join(repr(draw(extreme_positive)) for _ in range(n)))
        lines.append(f"g_const = {draw(extreme_floats)!r}")
    dt = draw(extreme_positive)
    steps = draw(st.integers(0, 200))
    lines += [
        "x0 = " + " ".join(repr(draw(extreme_floats)) for _ in range(dim)),
        f"t_end = {dt * steps!r}",
        f"dt = {dt!r}",
        f"method = {draw(st.sampled_from(methods))}",
    ]
    return "\n".join(lines) + "\n"


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(extreme_scenario_texts())
def test_run_exits_with_a_documented_code_and_one_error_line(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "extreme.scn"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", directory])
    assert code in (0, 2, 3, 4, 5)
    if code:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ") and line.endswith(f" (in {path})")
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""


split_quaternions = st.builds(SplitQuaternion, coefficients, coefficients, coefficients, coefficients)


@PROPERTY_SETTINGS
@given(split_quaternions, split_quaternions, split_quaternions)
def test_split_quaternion_product_is_associative(p, q, r):
    assert sq_mul(sq_mul(p, q), r) == sq_mul(p, sq_mul(q, r))


@PROPERTY_SETTINGS
@given(split_quaternions, split_quaternions)
def test_conjugation_reverses_products(p, q):
    assert sq_conj(sq_mul(p, q)) == sq_mul(sq_conj(q), sq_conj(p))


@PROPERTY_SETTINGS
@given(split_quaternions, split_quaternions)
def test_split_quaternion_norm_is_multiplicative(p, q):
    assert sq_norm_sq(sq_mul(p, q)) == sq_norm_sq(p) * sq_norm_sq(q)


@PROPERTY_SETTINGS
@given(split_quaternions, split_quaternions)
def test_split_quaternion_product_is_the_table_product(p, q):
    out = [Fraction(0)] * 4
    for (a, b), (sign, basis) in EXPECTED_TABLE.items():
        out[basis] += sign * p.coefficients[a] * q.coefficients[b]
    assert sq_mul(p, q) == SplitQuaternion(*out)


@st.composite
def block_sizes_and_vectors(draw):
    n = draw(st.integers(1, 6))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return n, np.array(draw(st.lists(values, min_size=4 * n, max_size=4 * n)))


@PROPERTY_SETTINGS
@given(block_sizes_and_vectors())
def test_operators_apply_as_their_matrix(case):
    n, v = case
    operators = [build_structure(kind, n) for kind in PRIMAL_KINDS + DUAL_KINDS]
    operators += [canonical_two_form(kind, n) for kind in DUAL_KINDS]
    for op in operators:
        assert np.array_equal(op.apply(v), op.matrix @ v)
