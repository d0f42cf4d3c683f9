"""Exact symbolic exterior calculus on R^{4n} with polynomial coefficients.

Coefficients are rationals throughout (``fractions.Fraction``); floats are
rejected at construction so symbolic identities are checked exactly, never up
to rounding.  Form degree is capped at 3, which is all the differential of a
two-form requires.

``PolyScalar(dim, terms)`` and ``KForm(dim, degree, terms)`` take their terms
as a mapping or as an iterable of (key, coefficient) pairs.  The public
constructors are the validation boundary and, with ``KForm._derived``, the
only code that sums like terms: coefficients of a repeated key are added,
and keys whose sum is zero are dropped.  Exponents must be integral
(``operator.index``); a float exponent is rejected, never truncated.

A polynomial derived from valid ones with distinct keys by construction
(``partial``, ``scale``, negation and ``+``, which merges into a copy) is not
validated again: it goes through ``PolyScalar._derived``, which only drops
zero coefficients.  A form built from valid ones (``+``, negation,
``ext_d``, ``vertical_derivation`` and ``vertical_differential``) goes
through ``KForm._derived``, which sums like terms and drops zeros as the
public constructor does, with no checks.
``poly_hessian`` differentiates the upper triangle and mirrors it, and
``ext_d`` differentiates a coefficient only in the variables it contains and
only towards a wedge that does not vanish.  A sign of +-1 is
applied by negation, never by a multiplication.

Index conventions:
  * a k-form is stored as a map from a strictly increasing index tuple to its
    polynomial coefficient, so dx_0 ^ dx_1 has key (0, 1);
  * the structure-operator contraction on basis covectors reads
    i_A(dx_b) = sum_a A[b, a] dx_a, i.e. dx_b evaluated on A-images, which
    for the signed permutation A is the one term sign[b] dx_{index[b]};
  * ``form_to_matrix`` reads M[b, c] = w(e_b, e_c); the contraction of a
    two-form with a vector, taken on that matrix by ``lagrangian`` and
    ``hamiltonian``, slots the vector into the first argument:
    (i_X w)_c = sum_b X_b M[b, c].
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from numbers import Rational

import numpy as np

from .structures import SignedPermutation

__all__ = [
    "PolyScalar",
    "KForm",
    "MAX_DEGREE",
    "ext_d",
    "vertical_derivation",
    "vertical_differential",
    "vertical_differential_via_commutator",
    "lagrangian_two_form",
    "form_to_matrix",
    "form_from_constant_matrix",
    "poly_gradient",
    "poly_hessian",
]

MAX_DEGREE = 3


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(
        f"exact calculus requires rational coefficients, got {type(value).__name__}"
    )


class PolyScalar:
    """Sparse multivariate polynomial: exponent tuple -> rational coefficient."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | Iterable[tuple] | None = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            try:
                key = tuple(map(operator.index, exponents))
            except TypeError:
                key = None
            if key is None or len(key) != dim or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exponents} for dimension {dim}")
            value = _as_fraction(coeff)
            previous = clean.get(key)
            clean[key] = value if previous is None else previous + value
        self.dim = dim
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _derived(cls, dim: int, pairs: Iterable[tuple]) -> "PolyScalar":
        """Unchecked constructor: pairs of valid, distinct keys and Fractions.

        Only zero coefficients are dropped; the public constructor is the
        validation boundary.
        """
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = {e: c for e, c in pairs if c}
        return poly

    @classmethod
    def zero(cls, dim: int) -> "PolyScalar":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "PolyScalar":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "PolyScalar":
        exponents = [0] * dim
        exponents[index] = 1
        return cls(dim, {tuple(exponents): 1})

    @classmethod
    def monomial(cls, dim: int, coeff, exponents: Iterable[int]) -> "PolyScalar":
        return cls(dim, {tuple(exponents): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyScalar)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.sorted_terms())))

    def __add__(self, other: "PolyScalar") -> "PolyScalar":
        self._check(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            previous = merged.get(e)
            merged[e] = c if previous is None else previous + c
        return PolyScalar._derived(self.dim, merged.items())

    def __sub__(self, other: "PolyScalar") -> "PolyScalar":
        return self + (-other)

    def __neg__(self) -> "PolyScalar":
        return PolyScalar._derived(self.dim, [(e, -c) for e, c in self.terms.items()])

    def __mul__(self, other):
        if isinstance(other, PolyScalar):
            self._check(other)
            products = [
                (tuple(map(operator.add, e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ]
            return PolyScalar(self.dim, products)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "PolyScalar":
        c = _as_fraction(c)
        return PolyScalar._derived(self.dim, [(e, c * v) for e, v in self.terms.items()])

    def partial(self, index: int) -> "PolyScalar":
        lowered = [
            (e[:index] + (e[index] - 1,) + e[index + 1 :], c * e[index])
            for e, c in self.terms.items()
            if e[index]
        ]
        return PolyScalar._derived(self.dim, lowered)

    def evaluate(self, point):
        """Evaluate at a point; exact when the point is rational."""
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = None
        for exponents, coeff in self.sorted_terms():
            term = coeff
            for value, power in zip(point, exponents):
                for _ in range(power):
                    term = term * value
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def __repr__(self) -> str:
        if self.is_zero:
            return "PolyScalar(0)"
        parts = []
        for exponents, coeff in self.sorted_terms()[:6]:
            mono = "*".join(
                f"x{k}^{e}" if e > 1 else f"x{k}"
                for k, e in enumerate(exponents)
                if e > 0
            )
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        suffix = " + ..." if len(self.terms) > 6 else ""
        return "PolyScalar(" + " + ".join(parts) + suffix + ")"

    def _check(self, other: "PolyScalar") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")


def poly_gradient(poly: PolyScalar) -> list[PolyScalar]:
    return [poly.partial(a) for a in range(poly.dim)]


def poly_hessian(poly: PolyScalar) -> list[list[PolyScalar]]:
    """Second partials; entry [b][a] is the same object as [a][b] for a < b."""
    grad = poly_gradient(poly)
    dim = poly.dim
    hessian = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            hessian[a][b] = hessian[b][a] = grad[a].partial(b)
    return hessian


def _signed(poly: PolyScalar, sign: int) -> PolyScalar:
    """poly for sign +1, its negation for sign -1."""
    return poly if sign > 0 else -poly


def _merge_sign(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort a tuple of covector indices, tracking the permutation sign.

    Returns None when an index repeats (the wedge vanishes).
    """
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None
    return sign, tuple(items)


class KForm:
    """Differential form of degree 0..3 with PolyScalar coefficients."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(
        self,
        dim: int,
        degree: int,
        terms: Mapping | Iterable[tuple] | None = None,
    ):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be within 0..{MAX_DEGREE}, got {degree}")
        self._collect(dim, degree, self._checked(dim, degree, terms))

    @staticmethod
    def _checked(dim: int, degree: int, terms) -> Iterator[tuple[tuple[int, ...], PolyScalar]]:
        for indices, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            indices = tuple(indices)
            if len(indices) != degree:
                raise ValueError(f"index tuple {indices} does not match degree {degree}")
            if any(not 0 <= k < dim for k in indices):
                raise ValueError(f"index tuple {indices} out of range for dim {dim}")
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"index tuple {indices} must be strictly increasing")
            if coeff.dim != dim:
                raise ValueError("coefficient dimension mismatch")
            yield indices, coeff

    def _collect(self, dim: int, degree: int, pairs: Iterable[tuple]) -> None:
        """Set the fields from (key, coefficient) pairs: like terms summed, zeros dropped."""
        clean: dict[tuple[int, ...], PolyScalar] = {}
        for indices, coeff in pairs:
            previous = clean.get(indices)
            clean[indices] = coeff if previous is None else previous + coeff
        self.dim = dim
        self.degree = degree
        self.terms = {k: v for k, v in clean.items() if not v.is_zero}

    @classmethod
    def _derived(cls, dim: int, degree: int, pairs: Iterable[tuple]) -> "KForm":
        """Unchecked constructor: pairs of valid keys and coefficients of dimension dim.

        Like terms are summed and zero coefficients dropped as in the public
        constructor, which is the validation boundary.
        """
        form = object.__new__(cls)
        form._collect(dim, degree, pairs)
        return form

    @classmethod
    def zero(cls, dim: int, degree: int = 0) -> "KForm":
        return cls(dim, degree)

    @classmethod
    def from_scalar(cls, poly: PolyScalar) -> "KForm":
        return cls(poly.dim, 0, {(): poly})

    @classmethod
    def dx(cls, dim: int, index: int) -> "KForm":
        return cls(dim, 1, {(index,): PolyScalar.constant(dim, 1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: tuple[int, ...]) -> PolyScalar:
        return self.terms.get(tuple(indices), PolyScalar.zero(self.dim))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], PolyScalar]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(self.sorted_terms())))

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        return KForm._derived(self.dim, self.degree, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm._derived(self.dim, self.degree, [(k, -v) for k, v in self.terms.items()])

    def __repr__(self) -> str:
        if self.is_zero:
            return f"KForm(degree={self.degree}, 0)"
        keys = ", ".join(
            "dx" + "^dx".join(str(k) for k in idx) if idx else "1"
            for idx, _ in self.sorted_terms()[:4]
        )
        return f"KForm(degree={self.degree}, terms on {keys}{'...' if len(self.terms) > 4 else ''})"

    def _check(self, other: "KForm") -> None:
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("form dimension/degree mismatch")


def ext_d(a: KForm) -> KForm:
    """Exterior derivative; defined for degrees 0..2."""
    if a.degree >= MAX_DEGREE:
        raise ValueError("exterior derivative of a degree-3 form is not supported")
    terms = []
    for indices, coeff in a.terms.items():
        # Only the variables with a positive exponent in some term.
        variables = [k for k, column in enumerate(zip(*coeff.terms)) if any(column)]
        for direction in variables:
            merged = _merge_sign((direction,) + indices)
            if merged is not None:
                sign, key = merged
                terms.append((key, _signed(coeff.partial(direction), sign)))
    return KForm._derived(a.dim, a.degree + 1, terms)


def vertical_derivation(op: SignedPermutation, a: KForm) -> KForm:
    """Degree-preserving derivation replacing one argument at a time by its image.

    (i_A a)(X_1, ..., X_r) = sum_k a(X_1, ..., A X_k, ..., X_r); zero on 0-forms.
    """
    if op.kind.dual:
        raise ValueError("vertical derivation uses a tangent-side operator")
    if op.dim != a.dim:
        raise ValueError("dimension mismatch")
    if a.degree == 0:
        return KForm.zero(a.dim, 0)
    images, entries = op.index.tolist(), op.sign.tolist()
    terms = []
    for indices, coeff in a.terms.items():
        for slot, b in enumerate(indices):
            merged = _merge_sign(indices[:slot] + (images[b],) + indices[slot + 1 :])
            if merged is not None:
                sign, key = merged
                terms.append((key, _signed(coeff, entries[b] * sign)))
    return KForm._derived(a.dim, a.degree, terms)


def vertical_differential(op: SignedPermutation, f: PolyScalar) -> KForm:
    """Coordinate formula for the vertical differential: (d_A f)(v) = df(A v).

    The coefficient on dx_b is sum_a (d f / d x_a) A[a, b]: row a of the
    signed permutation A sends the partial in x_a alone to dx_{index[a]}.
    """
    if op.kind.dual:
        raise ValueError("vertical differential uses a tangent-side operator")
    if op.dim != f.dim:
        raise ValueError("dimension mismatch")
    terms = [
        ((b,), _signed(f.partial(a), sign))
        for a, (b, sign) in enumerate(zip(op.index.tolist(), op.sign.tolist()))
    ]
    return KForm._derived(f.dim, 1, terms)


def vertical_differential_via_commutator(op: SignedPermutation, f: PolyScalar) -> KForm:
    """Same map through the graded commutator i_A d - d i_A; cross-check route."""
    zero_form = KForm.from_scalar(f)
    first = vertical_derivation(op, ext_d(zero_form))
    second = ext_d(vertical_derivation(op, zero_form))
    return first - second


def lagrangian_two_form(op: SignedPermutation, L: PolyScalar) -> KForm:
    """Closed two-form -d(d_A L) driving the structure's dynamics."""
    return -ext_d(vertical_differential(op, L))


def form_to_matrix(a: KForm, point) -> np.ndarray:
    """Antisymmetric matrix M[b, c] = a(e_b, e_c) evaluated at a point.

    Returns an object-dtype array of exact rationals when the point is
    rational, so downstream comparisons can stay exact.
    """
    if a.degree != 2:
        raise ValueError("form_to_matrix expects a two-form")
    if len(point) != a.dim:
        raise ValueError("point dimension mismatch")
    matrix = np.zeros((a.dim, a.dim), dtype=object)
    matrix[:] = Fraction(0)
    for (b, c), coeff in a.terms.items():
        value = coeff.evaluate(point)
        matrix[b, c] = value
        matrix[c, b] = -value
    return matrix


def form_from_constant_matrix(matrix, dim: int) -> KForm:
    """Two-form sum_{b<c} M[b, c] dx_b ^ dx_c from an antisymmetric matrix."""
    matrix = np.asarray(matrix)
    if matrix.shape != (dim, dim):
        raise ValueError("matrix shape mismatch")
    terms: dict[tuple[int, ...], PolyScalar] = {}
    for b in range(dim):
        for c in range(b + 1, dim):
            entry = matrix[b, c]
            if entry != 0:
                terms[(b, c)] = PolyScalar.constant(dim, entry)
    return KForm(dim, 2, terms)
