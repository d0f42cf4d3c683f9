"""Constant structure operators F, G, H and their duals on R^{4n}.

Coordinates are ordered in four blocks of length n: indices 0..n-1 play the
role of x_i, then x_{n+i}, x_{2n+i}, x_{3n+i}, so (x_k, x_{n+k}, x_{2n+k},
x_{3n+k}) are the coefficients on 1, i, s, t of the k-th quaternion of B^n.
F, G, H are left multiplication by i, s and t on each quaternion, read off
the one product table (``split_quaternions``) at import.  Each operator is a
``SignedPermutation``, stored as the pair (index, sign) with (A v)[a] =
sign[a] * v[index[a]]; the exact integer ``.matrix`` is a read-only array
derived from the pair.  The tangent and cotangent tables have identical
entries, so dual operators carry the same pair and differ only in their kind
tag.  The same type holds the constant symplectic matrices of the dual kinds
(``hamiltonian.canonical_two_form``).

Composition convention throughout: (A o B)(x) = A(B(x)), i.e. plain matrix
products.  Under this convention FG = H and GF = -H hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .split_quaternions import _MUL_TABLE

__all__ = [
    "StructureKind",
    "SignedPermutation",
    "F",
    "G",
    "H",
    "F_STAR",
    "G_STAR",
    "H_STAR",
    "PRIMAL_KINDS",
    "DUAL_KINDS",
    "build_structure",
    "neutral_metric",
    "verify_relations",
    "relation_checks",
    "metric_compatibility",
    "fundamental_form",
]


@dataclass(frozen=True)
class StructureKind:
    tag: str
    dual: bool = False

    def __post_init__(self):
        if self.tag not in ("F", "G", "H"):
            raise ValueError(f"unknown structure tag {self.tag!r}")

    @property
    def name(self) -> str:
        return self.tag + ("*" if self.dual else "")

    def __str__(self) -> str:
        return self.name


F = StructureKind("F")
G = StructureKind("G")
H = StructureKind("H")
F_STAR = StructureKind("F", dual=True)
G_STAR = StructureKind("G", dual=True)
H_STAR = StructureKind("H", dual=True)

PRIMAL_KINDS = (F, G, H)
DUAL_KINDS = (F_STAR, G_STAR, H_STAR)

# Block action (source block, destination block, sign): basis column in block
# `src` maps to +-(basis row in block `dst`), i.e. row dst*n + k of the matrix
# holds `sign` in column src*n + k.  The product "basis src -> sign * basis
# dst" of the i, s or t row gives the entry.  The cotangent tables produce the
# same entries, so primal and dual share this data.
_BLOCK_ACTION = {
    tag: tuple((src, dst, sign) for src, (sign, dst) in enumerate(row))
    for tag, row in zip("FGH", _MUL_TABLE[1:])
}


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """Constant signed permutation of R^{4n}: (A v)[a] = sign[a] * v[index[a]]."""

    kind: StructureKind
    n: int
    index: np.ndarray = field(repr=False)
    sign: np.ndarray = field(repr=False)

    @classmethod
    def from_blocks(cls, kind: StructureKind, n: int, blocks):
        """Pair of a (source block, destination block, sign) table of all 4 blocks."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        index = np.empty(4 * n, dtype=np.intp)
        sign = np.empty(4 * n, dtype=np.int64)
        for src, dst, entry in blocks:
            index[dst * n : (dst + 1) * n] = np.arange(src * n, (src + 1) * n)
            sign[dst * n : (dst + 1) * n] = entry
        index.setflags(write=False)
        sign.setflags(write=False)
        return cls(kind, n, index, sign)

    @property
    def dim(self) -> int:
        return 4 * self.n

    def apply(self, vector) -> np.ndarray:
        # Along the last axis, so a stack of vectors maps row by row.  np.take
        # keeps such a result C-contiguous (fancy indexing would not), and a
        # dot product of a contiguous row rounds as that of a lone vector.
        if np.shape(vector)[-1:] != (self.dim,):
            raise ValueError(f"vector of shape {np.shape(vector)} for operator dimension {self.dim}")
        return self.sign * np.take(vector, self.index, axis=-1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Exact integer matrix with entry sign[a] at [a, index[a]] (read-only)."""
        matrix = np.zeros((self.dim, self.dim), dtype=np.int64)
        matrix[np.arange(self.dim), self.index] = self.sign
        matrix.setflags(write=False)
        return matrix


def build_structure(kind: StructureKind, n: int) -> SignedPermutation:
    """The requested canonical basis element as a signed permutation."""
    return SignedPermutation.from_blocks(kind, n, _BLOCK_ACTION[kind.tag])


def neutral_metric(n: int) -> np.ndarray:
    """The read-only metric diag(+1 x 2n, -1 x 2n) of signature (2n, 2n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    metric = np.diag(np.array([1] * (2 * n) + [-1] * (2 * n), dtype=np.int64))
    metric.setflags(write=False)
    return metric


def relation_checks(operators: dict[str, np.ndarray], dual: bool = False) -> dict[str, bool]:
    """Exact integer checks of the defining relations for a {F, G, H} triple, by name."""
    fm, gm, hm = operators["F"], operators["G"], operators["H"]
    identity = np.eye(fm.shape[0], dtype=np.int64)
    star = "*" if dual else ""
    return {
        f"F{star}^2 = -I": np.array_equal(fm @ fm, -identity),
        f"G{star}^2 = I": np.array_equal(gm @ gm, identity),
        f"H{star}^2 = I": np.array_equal(hm @ hm, identity),
        f"F{star}G{star} = H{star}": np.array_equal(fm @ gm, hm),
        f"G{star}F{star} = -H{star}": np.array_equal(gm @ fm, -hm),
    }


def verify_relations(n: int) -> dict[str, bool]:
    """Check the square and anticommutation relations, primal and then dual."""
    primal = {k.tag: build_structure(k, n).matrix for k in PRIMAL_KINDS}
    dual = {k.tag: build_structure(k, n).matrix for k in DUAL_KINDS}
    return relation_checks(primal) | relation_checks(dual, dual=True)


def metric_compatibility(kind: StructureKind, n: int) -> bool:
    """A^T g A = g for F and A^T g A = -g for G, H (exact integers)."""
    if kind.dual:
        raise ValueError("metric compatibility is a tangent-side statement")
    op = build_structure(kind, n)
    g = neutral_metric(n)
    expected = g if kind.tag == "F" else -g
    return np.array_equal(op.matrix.T @ g @ op.matrix, expected)


def fundamental_form(kind: StructureKind, n: int) -> np.ndarray:
    """Matrix of the two-form pairing (a, b) -> g(A e_a, e_b).

    Entry [a, b] equals (A^T g)[a, b].  Constant coefficients, hence closed as
    a two-form; the audit checks that it is antisymmetric, and the closedness
    check itself lives in the exterior calculus.
    """
    if kind.dual:
        raise ValueError("fundamental forms pair tangent vectors; use a non-dual kind")
    op = build_structure(kind, n)
    omega = op.matrix.T @ neutral_metric(n)
    omega.setflags(write=False)
    return omega
