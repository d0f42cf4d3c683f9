"""Exact arithmetic of the split-quaternion algebra B.

B is the four-dimensional real algebra with basis {1, i, s, t} subject to the
generator relations i*i = -1, s*s = t*t = +1, is = t = -si.  The remaining
basis products (st = -i, ts = i, it = -s, ti = s, ...) are not free choices:
they follow from the three relations by associativity.  The 16 basis products
are written out once, as the literal table ``_MUL_TABLE``, the one product
table of the package.  The tests check it against the generator relations,
and the tests and the ``verify`` audit check associativity and, through
``structures``, the relations of F, G and H: the table's i, s and t rows are
that triple.  B^n is a right B-module, and F, G, H act on it from the left,
as left multiplication by i, s and t on each quaternion, so they commute
with the module's right multiplication.  A vector of B^n is a plain sequence
of ``SplitQuaternion``; ``bn_inner`` is its inner product.

Coefficients may be any ordered-field scalar (``fractions.Fraction`` for exact
verification, ``float`` for numerics); every operation is generic in the
scalar type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "SplitQuaternion",
    "SquareClass",
    "ONE",
    "I",
    "S",
    "T",
    "sq_mul",
    "sq_conj",
    "sq_norm_sq",
    "sq_square_class",
    "bn_inner",
]


# _MUL_TABLE[a][b] = (sign, basis index) of the product of basis elements a, b,
# in the basis order 1, i, s, t.
_MUL_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (1, 0), (-1, 1)),
    ((1, 3), (1, 2), (1, 1), (1, 0)),
)


class SquareClass(enum.Enum):
    """Classification of p*p against the two unit values."""

    SQUARES_TO_MINUS_ONE = "squares_to_minus_one"
    SQUARES_TO_PLUS_ONE = "squares_to_plus_one"
    OTHER = "other"


@dataclass(frozen=True)
class SplitQuaternion:
    """p = x + i*y + s*u + t*v with componentwise equality."""

    x: object = 0
    y: object = 0
    u: object = 0
    v: object = 0

    @property
    def coefficients(self) -> tuple:
        return (self.x, self.y, self.u, self.v)

    @classmethod
    def basis(cls, index: int) -> "SplitQuaternion":
        coeffs = [0, 0, 0, 0]
        coeffs[index] = 1
        return cls(*coeffs)

    def __add__(self, other: "SplitQuaternion") -> "SplitQuaternion":
        return SplitQuaternion(
            self.x + other.x, self.y + other.y, self.u + other.u, self.v + other.v
        )

    def __sub__(self, other: "SplitQuaternion") -> "SplitQuaternion":
        return SplitQuaternion(
            self.x - other.x, self.y - other.y, self.u - other.u, self.v - other.v
        )

    def __neg__(self) -> "SplitQuaternion":
        return SplitQuaternion(-self.x, -self.y, -self.u, -self.v)

    def scale(self, c) -> "SplitQuaternion":
        return SplitQuaternion(c * self.x, c * self.y, c * self.u, c * self.v)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.u == 0 and self.v == 0

    def __repr__(self) -> str:
        return f"SplitQuaternion({self.x}, {self.y}, {self.u}, {self.v})"


ONE = SplitQuaternion.basis(0)
I = SplitQuaternion.basis(1)
S = SplitQuaternion.basis(2)
T = SplitQuaternion.basis(3)


def sq_mul(p: SplitQuaternion, q: SplitQuaternion) -> SplitQuaternion:
    """Bilinear product under the 16-entry basis table."""
    out = [0, 0, 0, 0]
    pc = p.coefficients
    qc = q.coefficients
    for a in range(4):
        ca = pc[a]
        if ca == 0:
            continue
        for b in range(4):
            cb = qc[b]
            if cb == 0:
                continue
            sign, basis = _MUL_TABLE[a][b]
            product = ca * cb
            out[basis] = out[basis] + product if sign > 0 else out[basis] - product
    return SplitQuaternion(*out)


def sq_conj(p: SplitQuaternion) -> SplitQuaternion:
    """Conjugation x + iy + su + tv -> x - iy - su - tv."""
    return SplitQuaternion(p.x, -p.y, -p.u, -p.v)


def sq_norm_sq(p: SplitQuaternion):
    """Indefinite squared norm Re(conj(p)*p) = x^2 + y^2 - u^2 - v^2.

    Signature (2,2); multiplicative over products but takes both signs and
    vanishes on zero divisors such as 1 + s.
    """
    return p.x * p.x + p.y * p.y - p.u * p.u - p.v * p.v


def sq_square_class(p: SplitQuaternion) -> SquareClass:
    """Classify whether p*p equals -1, +1, or neither.

    p^2 = -1 exactly when x = 0 and y^2 - u^2 - v^2 = 1; p^2 = +1 exactly when
    x = 0 and y^2 - u^2 - v^2 = -1, or p = +-1.  Agrees with direct squaring.
    """
    if p.y == 0 and p.u == 0 and p.v == 0:
        if p.x * p.x == 1:
            return SquareClass.SQUARES_TO_PLUS_ONE
        return SquareClass.OTHER
    if p.x != 0:
        return SquareClass.OTHER
    q = p.y * p.y - p.u * p.u - p.v * p.v
    if q == 1:
        return SquareClass.SQUARES_TO_MINUS_ONE
    if q == -1:
        return SquareClass.SQUARES_TO_PLUS_ONE
    return SquareClass.OTHER


def bn_inner(xi: Sequence[SplitQuaternion], eta: Sequence[SplitQuaternion]):
    """Inner product Re(sum_k conj(xi_k) * eta_k) on B^n; real signature (2n, 2n)."""
    if len(xi) != len(eta):
        raise ValueError(f"length mismatch: {len(xi)} vs {len(eta)}")
    if len(xi) == 0:
        raise ValueError("vectors of B^n need at least one entry")
    acc = None
    for a, b in zip(xi, eta):
        term = sq_mul(sq_conj(a), b).x
        acc = term if acc is None else acc + term
    return acc


def random_rational_quaternion(rng, den: int = 8, span: int = 8) -> SplitQuaternion:
    """Uniform random quaternion with small exact rational coefficients."""
    def coeff():
        return Fraction(rng.randint(-span, span), rng.randint(1, den))

    return SplitQuaternion(coeff(), coeff(), coeff(), coeff())
