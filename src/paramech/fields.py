"""Numerically evaluatable scalar fields on R^{4n}.

Every field reports value, gradient, and Hessian through ``evaluate``.
Polynomial specs differentiate their exponent maps analytically; the built-in
fields carry closed-form derivatives.  The uniform fallback shared by all
fields is ``evaluate_via_jets``: second-order forward propagation with numbers
carrying a gradient row and a Hessian block, exact to roundoff.  The fallback
is what ``evaluate`` does unless a field overrides it with something faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import SingularPointError
from .exterior import PolyScalar, poly_gradient, poly_hessian

__all__ = [
    "EvalResult",
    "Jet2",
    "jet_variables",
    "ScalarField",
    "PolynomialField",
    "KineticField",
    "DistanceFromOrigin",
    "PotentialField",
    "SumField",
    "harmonic_field",
    "kinetic_energy",
    "potential_energy",
    "lagrangian_from_energies",
    "kinetic_minus_potential_field",
]


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Value with first and second derivatives at a point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


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

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Jet2.constant(len(self.grad), 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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


def _sqrt(z):
    return z.sqrt() if isinstance(z, Jet2) else math.sqrt(z)


class ScalarField:
    """Base class; subclasses define ``_apply`` on plain floats or jets."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim

    def _apply(self, xs: Sequence):
        raise NotImplementedError

    def value(self, x) -> float:
        return float(self._apply([float(v) for v in x]))

    def evaluate(self, x) -> EvalResult:
        return self.evaluate_via_jets(x)

    def evaluate_via_jets(self, x) -> EvalResult:
        """Uniform second-order forward-propagation fallback."""
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        out = self._apply(jet_variables(x))
        if not isinstance(out, Jet2):
            out = Jet2.constant(self.dim, float(out))
        return EvalResult(out.value, out.grad, 0.5 * (out.hess + out.hess.T))

    def value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        result = self.evaluate(x)
        return result.value, result.gradient

    def gradient(self, x) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def hessian(self, x) -> np.ndarray:
        return self.evaluate(x).hessian

    def constant_hessian(self) -> np.ndarray | None:
        """The Hessian where the field knows it to be constant, else None."""
        return None


class _StackedPolys:
    """Several polynomials flattened into one term table for numpy evaluation.

    The terms are summed per polynomial by one matmul with a dense
    owner-incidence matrix, weighted by the coefficients and built here once.
    """

    __slots__ = ("exponents", "weights")

    def __init__(self, polys):
        coeffs = []
        exponents = []
        owner = []
        for k, poly in enumerate(polys):
            for exps, coeff in poly.sorted_terms():
                coeffs.append(float(coeff))
                exponents.append(exps)
                owner.append(k)
        self.exponents = np.asarray(exponents, dtype=np.int64).reshape(
            len(coeffs), polys[0].dim if polys else 0
        )
        incidence = np.zeros((len(polys), len(coeffs)))
        incidence[owner, np.arange(len(coeffs))] = 1.0
        self.weights = incidence * np.asarray(coeffs)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        # Overflow propagates as inf; the steppers detect non-finite states.
        with np.errstate(over="ignore", invalid="ignore"):
            monomials = np.multiply.reduce(np.power(x[None, :], self.exponents), axis=1)
            return self.weights @ monomials


class PolynomialField(ScalarField):
    """Field backed by an exact PolyScalar; derivatives taken analytically.

    Numeric evaluation runs over flattened float term tables.  A polynomial of
    degree at most two has a constant Hessian Q and the closed-form gradient
    b + Q x, with b the gradient at the origin; both are precomputed.
    """

    def __init__(self, poly: PolyScalar):
        super().__init__(poly.dim)
        self.poly = poly
        self._grad = poly_gradient(poly)
        self._hess = poly_hessian(poly)
        dim = poly.dim
        self._value_rep = _StackedPolys([poly])
        self._hess_const = None
        if poly.total_degree() <= 2:
            origin = [Fraction(0)] * dim
            self._grad_origin = np.array([float(p.evaluate(origin)) for p in self._grad])
            self._hess_const = np.array(
                [[float(p.evaluate(origin)) for p in row] for row in self._hess]
            )
        else:
            self._grad_rep = _StackedPolys(self._grad)
            self._value_grad_rep = _StackedPolys([poly, *self._grad])
            self._upper = [(a, b) for a in range(dim) for b in range(a, dim)]
            self._hess_rep = _StackedPolys([self._hess[a][b] for a, b in self._upper])

    def _apply(self, xs):
        return self.poly.evaluate(xs)

    def constant_hessian(self) -> np.ndarray | None:
        return self._hess_const

    def value(self, x) -> float:
        return float(self._value_rep.evaluate(np.asarray(x, dtype=float))[0])

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess_const is None:
            return self._grad_rep.evaluate(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grad_origin + self._hess_const @ x

    def _hessian_at(self, x: np.ndarray) -> np.ndarray:
        if self._hess_const is not None:
            return self._hess_const.copy()
        hessian = np.zeros((self.dim, self.dim))
        entries = self._hess_rep.evaluate(x)
        for (a, b), entry in zip(self._upper, entries):
            hessian[a, b] = entry
            hessian[b, a] = entry
        return hessian

    def evaluate(self, x) -> EvalResult:
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        x = np.asarray(x, dtype=float)
        return EvalResult(self.value(x), self.gradient(x), self._hessian_at(x))

    def value_and_gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._hess_const is not None:
            return self.value(x), self.gradient(x)
        stacked = self._value_grad_rep.evaluate(x)
        return float(stacked[0]), stacked[1:]

    def exact_evaluate(self, point):
        """Exact value/gradient/Hessian at a rational point (Fractions)."""
        value = self.poly.evaluate(point)
        gradient = [p.evaluate(point) for p in self._grad]
        hessian = [[p.evaluate(point) for p in row] for row in self._hess]
        return value, gradient, hessian


class KineticField(ScalarField):
    """T = (1/2) sum_i m_i (x_i^2 + x_{n+i}^2 + x_{2n+i}^2 + x_{3n+i}^2)."""

    def __init__(self, masses: Sequence[float]):
        masses = tuple(float(m) for m in masses)
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        super().__init__(4 * len(masses))
        self.masses = masses
        self._weights = np.tile(np.asarray(masses), 4)

    def _apply(self, xs):
        n = len(self.masses)
        total = None
        for i, m in enumerate(self.masses):
            for block in range(4):
                term = 0.5 * m * xs[block * n + i] * xs[block * n + i]
                total = term if total is None else total + term
        return total

    def evaluate(self, x) -> EvalResult:
        x = np.asarray(x, dtype=float)
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        value = 0.5 * float(np.dot(self._weights, x * x))
        return EvalResult(value, self._weights * x, np.diag(self._weights))


class DistanceFromOrigin(ScalarField):
    """Euclidean distance to the origin; singular at 0."""

    def _apply(self, xs):
        total = None
        for v in xs:
            term = v * v
            total = term if total is None else total + term
        return _sqrt(total)

    def evaluate(self, x) -> EvalResult:
        x = np.asarray(x, dtype=float)
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        r = float(np.linalg.norm(x))
        if r == 0.0:
            raise SingularPointError("distance to the origin is not differentiable at 0")
        unit = x / r
        hessian = (np.eye(self.dim) - np.outer(unit, unit)) / r
        return EvalResult(r, unit, hessian)


class PotentialField(ScalarField):
    """P = (sum_i m_i) * g * h(x) for a height field h (default: distance)."""

    def __init__(self, masses: Sequence[float], g_const: float, height: ScalarField | None = None, n: int | None = None):
        masses = tuple(float(m) for m in masses)
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        if height is None:
            if n is None:
                n = len(masses)
            height = DistanceFromOrigin(4 * n)
        super().__init__(height.dim)
        self.masses = masses
        self.g_const = float(g_const)
        self.height = height
        self._scale = sum(masses) * float(g_const)

    def _apply(self, xs):
        return self._scale * self.height._apply(xs)

    def evaluate(self, x) -> EvalResult:
        inner = self.height.evaluate(x)
        return EvalResult(
            self._scale * inner.value,
            self._scale * inner.gradient,
            self._scale * inner.hessian,
        )


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

    def evaluate(self, x) -> EvalResult:
        value = 0.0
        gradient = np.zeros(self.dim)
        hessian = np.zeros((self.dim, self.dim))
        for c, f in self.parts:
            inner = f.evaluate(x)
            value += c * inner.value
            gradient += c * inner.gradient
            hessian += c * inner.hessian
        return EvalResult(value, gradient, hessian)


def harmonic_field(n: int) -> PolynomialField:
    """The quadratic (1/2) sum_a x_a^2 over all 4n coordinates."""
    dim = 4 * n
    terms = {}
    for a in range(dim):
        exponents = [0] * dim
        exponents[a] = 2
        terms[tuple(exponents)] = Fraction(1, 2)
    return PolynomialField(PolyScalar(dim, terms))


def kinetic_energy(masses: Sequence[float], v) -> float:
    """Quadratic kinetic energy of the component quadruples."""
    return KineticField(masses).value(v)


def potential_energy(masses: Sequence[float], g_const: float, h: ScalarField | None, x) -> float:
    """Mass-weighted potential (sum m_i) * g * h(x); h defaults to the distance."""
    n = len(x) // 4
    return PotentialField(masses, g_const, height=h, n=n).value(x)


def lagrangian_from_energies(kinetic: ScalarField, potential: ScalarField) -> ScalarField:
    """Lagrangian T - P as a composite field."""
    return SumField([(1.0, kinetic), (-1.0, potential)])


def kinetic_minus_potential_field(masses: Sequence[float], g_const: float, n: int | None = None) -> ScalarField:
    if n is None:
        n = len(masses)
    if len(masses) != n:
        raise ValueError("one mass per particle index is required")
    return lagrangian_from_energies(
        KineticField(masses), PotentialField(masses, g_const, n=n)
    )
