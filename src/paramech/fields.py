"""Numerically evaluatable scalar fields on R^{4n}.

A field's numeric primitives are ``value``, ``gradient`` and ``hessian``,
each implemented once per class and checking the point's dimension.
``signed_gradient(op)``, x -> op.apply(gradient(x)), is the one composite on
``ScalarField``; its one override, on a non-quadratic ``PolynomialField``
(one signed term table), equals it in value; a zero entry may carry the
other sign.  Every primitive takes one point ``(dim,)`` or a stack of
points ``(m, dim)``, and each row of a stacked result is bitwise the result
at that row alone: the one-point call is the ``m = 1`` case of the same
numpy expression.  Matrix-vector products
go through ``_matvec``: a stack is one batched matmul, which runs BLAS gemv
on each row, and one point is ``ndarray.dot``, the same gemv without the
batching overhead; never a 2-D matmul of a whole stack, which would round
differently.  A quadratic polynomial carries the constants of its closed
form, read off its terms; any other polynomial keeps one analytically
differentiated term table per order; the built-in fields carry closed forms.
A scaled field is a ``SumField`` term: ``kinetic_minus_potential_field``
builds T - P from ``KineticField`` and a scaled ``DistanceFromOrigin``, and
returns the bare ``KineticField`` when that scale is zero.
A constant Hessian is declared once, by ``constant_hessian`` (quadratic
polynomial, ``KineticField``), as one read-only matrix, and
``ScalarField.hessian`` serves it: one point gets the matrix itself, a stack
a read-only broadcast view.
``evaluate_via_jets`` (second-order forward propagation, numbers carrying a
gradient row and a Hessian block, exact to roundoff) returns the plain tuple
(value, gradient, hessian) at one point; it is the tests' reference for the
primitives, not a fallback: a field that defines only ``_apply`` raises
NotImplementedError from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import SingularPointError
from .exterior import PolyScalar, poly_gradient, poly_hessian
from .structures import SignedPermutation

__all__ = [
    "Jet2",
    "jet_variables",
    "ScalarField",
    "PolynomialField",
    "KineticField",
    "DistanceFromOrigin",
    "SumField",
    "harmonic_field",
    "kinetic_minus_potential_field",
]


class Jet2:
    """Second-order forward-mode number: value, gradient part, Hessian part."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, dim: int, value: float) -> "Jet2":
        return cls(value, np.zeros(dim), np.zeros((dim, dim)))

    @classmethod
    def variable(cls, dim: int, index: int, value: float) -> "Jet2":
        grad = np.zeros(dim)
        grad[index] = 1.0
        return cls(value, grad, np.zeros((dim, dim)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        if isinstance(other, Real):
            return Jet2.constant(len(self.grad), float(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        outer = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + outer + outer.T,
        )

    __rmul__ = __mul__

    def sqrt(self) -> "Jet2":
        if self.value <= 0.0:
            raise SingularPointError("square root jet at a nonpositive value")
        root = math.sqrt(self.value)
        outer = np.outer(self.grad, self.grad)
        return Jet2(
            root,
            self.grad / (2.0 * root),
            self.hess / (2.0 * root) - outer / (4.0 * root**3),
        )


def jet_variables(x) -> list[Jet2]:
    x = np.asarray(x, dtype=float)
    return [Jet2.variable(len(x), k, x[k]) for k in range(len(x))]


def _matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x along the last axis of x, for one point or a stack of points.

    matrix is one matrix or one per row of x.  One point and one matrix is
    ``ndarray.dot``, BLAS gemv; a batched matmul runs that gemv on each row,
    so every row is bitwise its one-point product, whatever the stack height.
    """
    if x.ndim == 1 and matrix.ndim == 2:
        return matrix.dot(x)
    return np.matmul(matrix, x[..., None])[..., 0]


def _per_point(values: np.ndarray):
    """A 0-d result as a Python float; a stacked result as it is."""
    return float(values) if values.ndim == 0 else values


class ScalarField:
    """Base class; a subclass implements its primitives, and ``_apply`` for the jets."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim

    def _point(self, x) -> np.ndarray:
        """x as a float point (dim,) or stack (m, dim), checked against this field."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        return x

    def _apply(self, xs: Sequence):
        raise NotImplementedError

    def evaluate_via_jets(self, x) -> tuple:
        """(value, gradient, hessian) at one point, by second-order forward propagation."""
        x = self._point(x)
        if x.ndim != 1:
            raise ValueError("evaluate_via_jets takes one point (dim,), not a stack")
        out = self._apply(jet_variables(x))
        if not isinstance(out, Jet2):
            out = Jet2.constant(self.dim, float(out))
        return out.value, out.grad, 0.5 * (out.hess + out.hess.T)

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        """A declared constant Hessian, itself or a read-only view per row."""
        hessian = self.constant_hessian()
        if hessian is None:
            raise NotImplementedError
        x = self._point(x)
        return hessian if x.ndim == 1 else np.broadcast_to(hessian, x.shape + (self.dim,))

    def signed_gradient(self, op: SignedPermutation):
        """The map x -> op.apply(gradient(x)), for an operator of this dimension."""
        if op.dim != self.dim:
            raise ValueError(f"operator of dimension {op.dim} for a field of dimension {self.dim}")

        def field(x):
            return op.apply(self.gradient(x))

        return field

    def constant_hessian(self) -> np.ndarray | None:
        """The Hessian where the field knows it to be constant, read-only, else None."""
        return None


class _StackedPolys:
    """Several polynomials flattened into one term table for numpy evaluation.

    The terms are summed per polynomial by one matmul with a dense
    owner-incidence matrix, weighted by the coefficients and built here once.
    """

    __slots__ = ("exponents", "weights")

    def __init__(self, exponents: np.ndarray, weights: np.ndarray):
        self.exponents = exponents
        self.weights = weights

    @classmethod
    def from_polys(cls, polys) -> "_StackedPolys":
        coeffs = []
        exponents = []
        owner = []
        for k, poly in enumerate(polys):
            for exps, coeff in poly.sorted_terms():
                coeffs.append(float(coeff))
                exponents.append(exps)
                owner.append(k)
        exponents = np.asarray(exponents, dtype=np.int64).reshape(
            len(coeffs), polys[0].dim if polys else 0
        )
        incidence = np.zeros((len(polys), len(coeffs)))
        incidence[owner, np.arange(len(coeffs))] = 1.0
        return cls(exponents, incidence * np.asarray(coeffs))

    def signed_rows(self, op: SignedPermutation) -> "_StackedPolys":
        """The same table with polynomial c replaced by sign[c] * polynomial index[c]."""
        return _StackedPolys(self.exponents, op.sign[:, None] * self.weights[op.index])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        monomials = np.multiply.reduce(np.power(x[..., None, :], self.exponents), axis=-1)
        return _matvec(self.weights, monomials)


class PolynomialField(ScalarField):
    """Field backed by an exact PolyScalar; derivatives taken analytically.

    A polynomial of degree at most two has a constant Hessian Q and the
    closed-form gradient b + Q x, with b the gradient at the origin; both are
    read off its terms in one pass, each exact coefficient converted once.
    Any other polynomial runs over flattened float term tables, one per
    order, built from its exact derivative polynomials; the Hessian table
    holds the upper triangle, which one (dim, dim) index gathers into the
    matrix.  Those polynomials exist only there and, for any degree, on
    demand in ``exact_evaluate``.  A coefficient of a table outside float
    range raises ValueError.
    """

    def __init__(self, poly: PolyScalar):
        super().__init__(poly.dim)
        self.poly = poly
        self._hess_const = None
        try:
            self._value_rep = _StackedPolys.from_polys([poly])
            if poly.total_degree() <= 2:
                self._grad_origin, self._hess_const = np.zeros(poly.dim), np.zeros((poly.dim,) * 2)
                # c x_a gives b_a = c; c x_a x_b (a <= b) gives Q_ab = Q_ba = exps[a] c, exact.
                for exps, coeff in poly.terms.items():
                    axes = tuple(a for a, e in enumerate(exps) for _ in range(e))
                    table = self._grad_origin if len(axes) == 1 else self._hess_const
                    if axes:
                        table[axes] = table[axes[::-1]] = float(exps[axes[0]] * coeff)
                self._hess_const.flags.writeable = False
            else:
                grad, hess = poly_gradient(poly), poly_hessian(poly)
                self._grad_rep = _StackedPolys.from_polys(grad)
                rows, cols = np.triu_indices(poly.dim)
                self._hess_rep = _StackedPolys.from_polys([hess[a][b] for a, b in zip(rows, cols)])
                self._hess_entries = np.empty((poly.dim,) * 2, dtype=np.intp)
                self._hess_entries[rows, cols] = self._hess_entries[cols, rows] = np.arange(len(rows))
        except OverflowError as exc:
            raise ValueError(f"{poly!r} does not fit the float term tables: {exc}") from None

    def _apply(self, xs):
        return self.poly.evaluate(xs)

    def constant_hessian(self) -> np.ndarray | None:
        return self._hess_const

    def value(self, x) -> float:
        return _per_point(self._value_rep.evaluate(self._point(x))[..., 0])

    def gradient(self, x) -> np.ndarray:
        x = self._point(x)
        if self._hess_const is None:
            return self._grad_rep.evaluate(x)
        return self._grad_origin + _matvec(self._hess_const, x)

    def hessian(self, x) -> np.ndarray:
        if self._hess_const is not None:
            return super().hessian(x)
        return np.take(self._hess_rep.evaluate(self._point(x)), self._hess_entries, axis=-1)

    def signed_gradient(self, op: SignedPermutation):
        """One signed term table, unless quadratic; the base class checks op."""
        if self._hess_const is not None or op.dim != self.dim:
            return super().signed_gradient(op)
        rows = self._grad_rep.signed_rows(op)

        def field(x):
            return rows.evaluate(self._point(x))

        return field

    def exact_evaluate(self, point):
        """Exact value/gradient/Hessian at a rational point (Fractions)."""
        gradient = [p.evaluate(point) for p in poly_gradient(self.poly)]
        hessian = [[p.evaluate(point) for p in row] for row in poly_hessian(self.poly)]
        return self.poly.evaluate(point), gradient, hessian


class KineticField(ScalarField):
    """T = (1/2) sum_i m_i (x_i^2 + x_{n+i}^2 + x_{2n+i}^2 + x_{3n+i}^2)."""

    def __init__(self, masses: Sequence[float]):
        masses = tuple(float(m) for m in masses)
        if not all(0 < m < math.inf for m in masses):
            raise ValueError("masses must be positive and finite")
        super().__init__(4 * len(masses))
        self.masses = masses
        self._weights = np.tile(np.asarray(masses), 4)
        self._hessian = np.diag(self._weights)
        self._hessian.flags.writeable = False

    def _apply(self, xs):
        n = len(self.masses)
        total = None
        for i, m in enumerate(self.masses):
            for block in range(4):
                term = 0.5 * m * xs[block * n + i] * xs[block * n + i]
                total = term if total is None else total + term
        return total

    def value(self, x) -> float:
        x = self._point(x)
        return _per_point(0.5 * np.vecdot(self._weights, x * x))

    def gradient(self, x) -> np.ndarray:
        return self._weights * self._point(x)

    def constant_hessian(self) -> np.ndarray:
        return self._hessian


class DistanceFromOrigin(ScalarField):
    """Euclidean distance to the origin; its derivatives are singular at 0."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self._eye = np.eye(dim)

    def _apply(self, xs):
        total = None
        for v in xs:
            term = v * v
            total = term if total is None else total + term
        return total.sqrt()

    @staticmethod
    def _distance(x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.vecdot(x, x))  # np.linalg.norm's formula, without its overhead

    def value(self, x) -> float:
        return _per_point(self._distance(self._point(x)))

    def _unit(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors towards x and the distances r (trailing axis kept), all nonzero."""
        x = self._point(x)
        r = self._distance(x)[..., None]
        if not r.all():
            raise SingularPointError("distance to the origin is not differentiable at 0")
        return x / r, r

    def gradient(self, x) -> np.ndarray:
        return self._unit(x)[0]

    def hessian(self, x) -> np.ndarray:
        unit, r = self._unit(x)
        outer = unit[..., :, None] * unit[..., None, :]
        return (self._eye - outer) / r[..., None]


class SumField(ScalarField):
    """Linear combination of fields; derivatives combine termwise."""

    def __init__(self, parts: Sequence[tuple[float, ScalarField]]):
        if not parts:
            raise ValueError("empty sum")
        dim = parts[0][1].dim
        if any(f.dim != dim for _, f in parts):
            raise ValueError("all summands must share one dimension")
        super().__init__(dim)
        self.parts = tuple((float(c), f) for c, f in parts)

    def _apply(self, xs):
        total = None
        for c, f in self.parts:
            term = c * f._apply(xs)
            total = term if total is None else total + term
        return total

    def _combine(self, terms) -> np.ndarray:
        return sum(c * term for (c, _), term in zip(self.parts, terms))

    def value(self, x) -> float:
        return self._combine(f.value(x) for _, f in self.parts)

    def gradient(self, x) -> np.ndarray:
        return self._combine(f.gradient(x) for _, f in self.parts)

    def hessian(self, x) -> np.ndarray:
        return self._combine(f.hessian(x) for _, f in self.parts)


def harmonic_field(n: int) -> PolynomialField:
    """The quadratic (1/2) sum_a x_a^2 over all 4n coordinates."""
    dim = 4 * n
    terms = {}
    for a in range(dim):
        exponents = [0] * dim
        exponents[a] = 2
        terms[tuple(exponents)] = Fraction(1, 2)
    return PolynomialField(PolyScalar(dim, terms))


def kinetic_minus_potential_field(masses: Sequence[float], g_const: float) -> ScalarField:
    """T - P with one mass per particle and P = (sum_i m_i) * g * |x|.

    The potential is the distance to the origin as a ``SumField`` term with
    the coefficient -(sum_i m_i) * g, which must be finite.  A zero
    coefficient (either sign) leaves that term out: the field is the bare
    ``KineticField``, smooth at the origin, with its constant Hessian.
    """
    kinetic = KineticField(masses)
    scale = sum(kinetic.masses) * float(g_const)
    if not math.isfinite(scale):
        raise ValueError(
            f"potential scale sum(masses) * g_const = {scale} is not finite "
            f"(masses = {kinetic.masses}, g_const = {float(g_const)})"
        )
    if scale == 0:
        return kinetic
    return SumField([(1.0, kinetic), (-scale, DistanceFromOrigin(kinetic.dim))])
